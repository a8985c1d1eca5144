// End-to-end CEPR benchmark program (see README.md in this directory).
//
//   cepr_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --work-dir <dir>
//
// Generates the workload's input from the seed (untimed), computes the
// reference digest of its ranked output (untimed), then repeats fresh
// set-up + timed ingest + digest check until the time budget is spent.
// Prints one JSON line of raw measurements; run.py turns it into metrics.
//
// Tracing (--trace 1) records spans from this file only, around each call
// into a layer's public functions; every second repetition is traced, the
// others give the untraced baseline for the tracing overhead.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/binio.h"
#include "common/random.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/engine.h"
#include "runtime/serde.h"
#include "workload/forkheavy.h"
#include "workload/stock.h"

#ifndef CEPR_E2E_BUILD_TYPE
#define CEPR_E2E_BUILD_TYPE "unknown"
#endif

namespace cepr_e2e {
namespace {

using cepr::Engine;
using cepr::EngineOptions;
using cepr::Event;
using cepr::QueryOptions;
using cepr::RankedResult;
using cepr::Status;
using cepr::Timestamp;
using cepr::Value;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "cepr_e2e: " << what << "\n";
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.

enum SpanName : uint8_t {
  kRep,         // one repetition: set-up, ingest, finish
  kSetup,       // engine or server construction until ready for events
  kDeploy,      // RegisterQuery / CeprClient::Deploy
  kUndeploy,    // RemoveQuery
  kChurn,       // one undeploy + deploy cycle
  kIngest,      // Engine::Push / Engine::PushAll
  kFrame,       // CeprClient::PushBatch round trip
  kCheckpoint,  // CeprClient::TriggerCheckpoint
  kFinish,      // Engine::Finish / CeprClient::Finish
  kNumSpanNames,
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "rep",   "setup", "deploy",     "undeploy", "churn",
    "ingest", "frame", "checkpoint", "finish"};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = 0;  // span id (index + 1); 0 = root
  uint32_t trace = 0;   // repetition the span belongs to
  SpanName name = kRep;
};

class Tracer {
 public:
  uint32_t Begin(SpanName name) {
    if (name == kRep) ++trace_;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.trace = trace_;
    s.start_ns = NowNs();
    spans_.push_back(s);
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
  }
  void End(uint32_t id) {
    spans_[id - 1].end_ns = NowNs();
    stack_.pop_back();
  }
  /// Makes room for `n` more spans, so a traced repetition does not pay
  /// for growing the span buffer.
  void Reserve(size_t n) { spans_.reserve(spans_.size() + n); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  uint32_t trace_ = 0;
};

/// Records a span when tracing is on; free otherwise.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// ---------------------------------------------------------------------------
// Call timeline and result records: what the latency metrics need, kept in
// traced and untraced runs alike.

/// Start time of every call the benchmark makes into the system during the
/// timed part of a repetition, with the number of input events sent before
/// it (non-ingest calls carry no events).
struct Timeline {
  std::vector<int64_t> start_ns;
  std::vector<uint64_t> first_event;
  size_t current = 0;

  void Clear() {
    start_ns.clear();
    first_event.clear();
    current = 0;
  }
  void BeginCall(uint64_t events_before) {
    start_ns.push_back(NowNs());
    first_event.push_back(events_before);
    current = start_ns.size() - 1;
  }
  /// The last call whose first event is <= `event` (the ingest call that
  /// carried it: non-ingest calls precede the ingest call they share a
  /// first_event with).
  size_t CallOf(uint64_t event) const {
    auto it = std::upper_bound(first_event.begin(), first_event.end(), event);
    return static_cast<size_t>(it - first_event.begin()) - 1;
  }
};

struct Rec {
  uint32_t query = 0;
  int64_t window = 0;
  uint64_t rank = 0;
  uint64_t score_bits = 0;
  uint64_t row_hash = 0;
  int64_t deliver_ns = 0;
  size_t deliver_call = 0;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t RowHash(const std::vector<Value>& row) {
  uint64_t h = row.size();
  for (const Value& v : row) {
    h = Mix(h, static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case cepr::ValueType::kNull:
        break;
      case cepr::ValueType::kBool:
        h = Mix(h, v.AsBool() ? 1 : 0);
        break;
      case cepr::ValueType::kInt:
        h = Mix(h, static_cast<uint64_t>(v.AsInt()));
        break;
      case cepr::ValueType::kFloat:
        h = Mix(h, DoubleBits(v.AsFloat()));
        break;
      case cepr::ValueType::kString:
        h = Mix(h, std::hash<std::string>{}(v.AsString()));
        break;
    }
  }
  return h;
}

struct Recorder {
  std::vector<Rec> recs;
  const Timeline* timeline = nullptr;

  void Add(uint32_t query, int64_t window, uint64_t rank, double score,
           const std::vector<Value>& row) {
    const int64_t now = NowNs();
    recs.push_back(Rec{query, window, rank, DoubleBits(score), RowHash(row),
                       now, timeline ? timeline->current : 0});
  }
};

/// The sink of one query: stamps and digests each result as it arrives.
class RecordSink : public cepr::Sink {
 public:
  RecordSink(uint32_t query, Recorder* recorder)
      : query_(query), recorder_(recorder) {}
  void OnResult(const RankedResult& r) override {
    recorder_->Add(query_, r.window_id, r.rank, r.match.score, r.match.row);
  }

 private:
  uint32_t query_;
  Recorder* recorder_;
};

/// A ranked output in (query, window, rank) order, the canonical order
/// digests and comparisons use: delivery order across queries differs
/// between equivalent paths.
std::vector<Rec> Sorted(std::vector<Rec> recs) {
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return std::tie(a.query, a.window, a.rank) <
           std::tie(b.query, b.window, b.rank);
  });
  return recs;
}

bool SameResult(const Rec& a, const Rec& b) {
  return std::tie(a.query, a.window, a.rank, a.score_bits, a.row_hash) ==
         std::tie(b.query, b.window, b.rank, b.score_bits, b.row_hash);
}

/// Digest of a sorted ranked output: (query, window, rank, score bits, row)
/// of every result.
struct Digest {
  uint64_t hash = 0;
  uint64_t count = 0;
  bool operator==(const Digest& o) const {
    return hash == o.hash && count == o.count;
  }
};

Digest DigestOf(const std::vector<Rec>& sorted) {
  Digest d;
  for (const Rec& r : sorted) {
    d.hash = Mix(d.hash, r.query);
    d.hash = Mix(d.hash, static_cast<uint64_t>(r.window));
    d.hash = Mix(d.hash, r.rank);
    d.hash = Mix(d.hash, r.score_bits);
    d.hash = Mix(d.hash, r.row_hash);
    ++d.count;
  }
  return d;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  idx = std::clamp<size_t>(idx, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Result latencies pooled over a run's untraced repetitions: every sample
/// up to kCapacity, then a uniform reservoir sample of that size. The
/// buffer is allocated and written up front, so the run's peak RSS does not
/// depend on how many repetitions fit in the time budget.
class LatencyPool {
 public:
  static constexpr size_t kCapacity = size_t{1} << 20;

  LatencyPool() : samples_(kCapacity, 0.0), rng_(0x1a7e9c) {}

  void Add(double v) {
    if (seen_ < kCapacity) {
      samples_[seen_] = v;
    } else {
      const uint64_t j = rng_.Uniform(seen_ + 1);
      if (j < kCapacity) samples_[j] = v;
    }
    ++seen_;
  }
  uint64_t seen() const { return seen_; }
  double Percentile(double q) const;

 private:
  std::vector<double> samples_;
  cepr::Random rng_;
  uint64_t seen_ = 0;
};

/// The highest of the usual percentiles with at least 10 samples beyond it
/// (0 when there are too few samples for any).
double TailQuantile(size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0;
}

double LatencyPool::Percentile(double q) const {
  const size_t n = static_cast<size_t>(std::min<uint64_t>(seen_, kCapacity));
  return cepr_e2e::Percentile(
      std::vector<double>(samples_.begin(),
                          samples_.begin() + static_cast<std::ptrdiff_t>(n)),
      q);
}

// ---------------------------------------------------------------------------
// Inputs.

/// Lateness bound of the disordered Stock stream, and the largest
/// displacement the stream generator applies (kept below the bound).
constexpr Timestamp kLatenessMicros = 8000;
constexpr Timestamp kMaxDisplacementMicros = 6000;
constexpr double kDisplacedShare = 0.25;

std::vector<Event> StockEvents(uint64_t seed, size_t n, int symbols) {
  cepr::StockOptions o;
  o.base.seed = seed;
  o.num_symbols = symbols;
  o.v_probability = 0.02;
  cepr::StockGenerator gen(o);
  return gen.Take(n);
}

/// Arrival order of an in-order stream with bounded disorder: a share of
/// the events is delayed by up to kMaxDisplacementMicros of event time, so
/// no event arrives more than that behind the highest timestamp before it.
std::vector<Event> Displace(const std::vector<Event>& in, uint64_t seed) {
  cepr::Random rng(seed ^ 0x5eedd15bULL);
  std::vector<std::pair<Timestamp, size_t>> keys;
  keys.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    Timestamp delay = 0;
    if (rng.OneIn(kDisplacedShare)) {
      delay = rng.UniformInt(0, kMaxDisplacementMicros);
    }
    keys.emplace_back(in[i].timestamp() + delay, i);
  }
  std::stable_sort(keys.begin(), keys.end());
  std::vector<Event> out;
  out.reserve(in.size());
  for (const auto& k : keys) out.push_back(in[k.second]);
  return out;
}

// The canonical E1 dip query and its E17 SKIP_TILL_ANY_MATCH variant.
const char* const kDipQuery =
    "SELECT a.symbol, a.price, MIN(b.price), c.price "
    "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
    "USING SKIP_TILL_NEXT_MATCH "
    "PARTITION BY symbol "
    "WHERE b[i].price < b[i-1].price AND b[1].price < a.price "
    "  AND c.price > a.price "
    "WITHIN 100 MILLISECONDS "
    "RANK BY (a.price - MIN(b.price)) / a.price DESC "
    "LIMIT 10 EMIT ON WINDOW CLOSE";
const char* const kDipAnyQuery =
    "SELECT a.symbol, a.price, MIN(b.price), c.price "
    "FROM Stock MATCH PATTERN SEQ(a, b+, c) "
    "USING SKIP_TILL_ANY_MATCH "
    "PARTITION BY symbol "
    "WHERE b[i].price < b[i-1].price AND b[i].price < 900 "
    "  AND b[1].price < a.price AND c.price > a.price "
    "WITHIN 100 MILLISECONDS "
    "RANK BY (a.price - MIN(b.price)) / a.price DESC "
    "LIMIT 10 EMIT ON WINDOW CLOSE";
constexpr Timestamp kDipWindowMicros = 100000;
const char* const kStockDdl =
    "CREATE STREAM Stock (symbol STRING, price FLOAT RANGE [1, 1000], "
    "volume INT RANGE [1, 10000])";

struct QuerySpec {
  std::string name;
  std::string text;
  QueryOptions options;
};

std::vector<QuerySpec> StockQueries() {
  QueryOptions dip;
  dip.ranker = cepr::RankerPolicy::kPruned;
  QueryOptions any = dip;
  any.matcher.max_active_runs = 256;
  return {{"dip", kDipQuery, dip}, {"dip_any", kDipAnyQuery, any}};
}

/// For each arrival position, the highest timestamp seen so far: the first
/// position whose running maximum reaches a window's end carries the event
/// that makes the window's results emittable.
std::vector<Timestamp> RunningMax(const std::vector<Event>& arrival) {
  std::vector<Timestamp> out;
  out.reserve(arrival.size());
  Timestamp hi = INT64_MIN;
  for (const Event& e : arrival) {
    hi = std::max(hi, e.timestamp());
    out.push_back(hi);
  }
  return out;
}

// ---------------------------------------------------------------------------
// One repetition's raw outcome.

struct RepOutcome {
  bool traced = false;
  std::vector<double> setups_s;  // every set-up the repetition timed
  double ingest_wall_s = 0;
  uint64_t events = 0;
  size_t calls = 0;  // timed calls into the system (spans a traced rep adds)
  size_t results = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  Digest digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string snapshot_json;
  uint64_t request_bytes = 0;
  uint64_t result_frames = 0;
};

/// Result latency of every record: delivery minus the start of the call
/// that carried the event making it emittable (or of the call that
/// delivered it, when a flush emitted it earlier). Every workload's queries
/// emit on tumbling event-time windows of `window_micros`.
std::vector<double> Latencies(const std::vector<Rec>& recs,
                              const Timeline& timeline,
                              const std::vector<Timestamp>& running_max,
                              Timestamp window_micros) {
  std::vector<double> out;
  out.reserve(recs.size());
  const size_t last_call = timeline.start_ns.size() - 1;
  for (const Rec& r : recs) {
    const Timestamp end = (r.window + 1) * window_micros;
    auto it = std::lower_bound(running_max.begin(), running_max.end(), end);
    size_t call = last_call;
    if (it != running_max.end()) {
      call = timeline.CallOf(static_cast<uint64_t>(it - running_max.begin()));
    }
    call = std::min(call, r.deliver_call);
    out.push_back(static_cast<double>(r.deliver_ns - timeline.start_ns[call]) /
                  1e3);
  }
  return out;
}

/// Counts a call's outcome; failures are reported on stderr once each.
void Count(const Status& s, RepOutcome* rep, const char* what) {
  ++rep->attempted;
  if (!s.ok()) {
    ++rep->failed;
    std::cerr << "cepr_e2e: " << what << " failed: " << s.ToString() << "\n";
  }
}

void Must(const Status& s) {
  if (!s.ok()) Die("reference run: " + s.ToString());
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Registers each query with its own RecordSink (query id = its index).
std::vector<std::unique_ptr<RecordSink>> DeployAll(
    Engine* engine, const std::vector<QuerySpec>& queries, Recorder* recorder,
    Tracer* tracer, RepOutcome* rep) {
  std::vector<std::unique_ptr<RecordSink>> sinks;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    sinks.push_back(std::make_unique<RecordSink>(q, recorder));
    Scope deploy(tracer, kDeploy);
    Count(engine->RegisterQuery(queries[q].name, queries[q].text,
                                queries[q].options, sinks.back().get()),
          rep, "deploy");
  }
  return sinks;
}

/// Ranked output of `events` pushed one by one, in the given order, through
/// a fresh serial Engine without a lateness bound.
std::vector<Rec> SerialResults(const cepr::SchemaPtr& schema,
                               const std::vector<QuerySpec>& queries,
                               const std::vector<Event>& events) {
  Recorder recorder;
  RepOutcome rep;
  std::vector<std::unique_ptr<RecordSink>> sinks;
  {
    Engine engine;
    Must(engine.RegisterSchema(schema));
    sinks = DeployAll(&engine, queries, &recorder, nullptr, &rep);
    if (rep.failed) Die("reference run: deploy failed");
    for (const Event& e : events) Must(engine.Push(Event(e)));
    engine.Finish();
  }
  return std::move(recorder.recs);
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the input from the seed and computes the reference digest.
  virtual void Prepare(uint64_t seed) = 0;
  /// One fresh set-up + timed run; `tracer` is null in untraced reps.
  virtual RepOutcome Run(Tracer* tracer) = 0;
  const LatencyPool& pooled() const { return pooled_; }
  /// Whether the system under test runs on the calling thread only.
  virtual bool single_threaded() const { return true; }
  /// Compares the last repetition's ranked output with the reference and
  /// names the first result that differs.
  bool Check(const RepOutcome& rep, std::string* why) const {
    if (rep.digest == reference_) return true;
    size_t i = 0;
    while (i < last_.size() && i < reference_recs_.size() &&
           SameResult(last_[i], reference_recs_[i])) {
      ++i;
    }
    const Rec& at = i < reference_recs_.size() ? reference_recs_[i] : last_[i];
    *why = std::to_string(rep.digest.count) + " results vs " +
           std::to_string(reference_.count) +
           " in the reference; first difference at query " +
           std::to_string(at.query) + ", window " + std::to_string(at.window) +
           ", rank " + std::to_string(at.rank);
    return false;
  }

 protected:
  /// Starts a repetition: fresh timeline, records stamped against it.
  void BeginRep(Recorder* recorder) {
    timeline_.Clear();
    recorder->timeline = &timeline_;
    recorder->recs.reserve(reserve_);
  }
  /// Times the engine's Finish (the end of the timed part) and reads the
  /// engine's own failure counters and, when traced, its metrics snapshot.
  void FinishEngine(Engine* engine, Tracer* tracer, int64_t ingest_start,
                    RepOutcome* rep) {
    timeline_.BeginCall(rep->events);
    {
      Scope call(tracer, kFinish);
      engine->Finish();
    }
    rep->ingest_wall_s = SecondsSince(ingest_start);
    rep->attempted += rep->events;
    const cepr::MetricsSnapshot snap = engine->Snapshot();
    rep->failed += snap.events_quarantined + snap.reorder.events_late_dropped;
    if (tracer) rep->snapshot_json = snap.ToJson();
  }
  /// Turns the repetition's records into latencies and a digest.
  void EndRep(Recorder* recorder, RepOutcome* rep) {
    rep->calls = timeline_.start_ns.size();
    reserve_ = recorder->recs.size();
    const std::vector<double> latencies =
        Latencies(recorder->recs, timeline_, running_max_, window_micros_);
    rep->results = latencies.size();
    if (!rep->traced) {
      for (double v : latencies) pooled_.Add(v);
    }
    rep->latency_p50_us = Percentile(latencies, 0.5);
    rep->latency_p99_us = Percentile(latencies, 0.99);
    last_ = Sorted(std::move(recorder->recs));
    rep->digest = DigestOf(last_);
  }

  void SetReference(std::vector<Rec> recs) {
    reference_recs_ = Sorted(std::move(recs));
    reference_ = DigestOf(reference_recs_);
  }

  Digest reference_;
  std::vector<Rec> reference_recs_;  // sorted
  LatencyPool pooled_;
  std::vector<Rec> last_;            // the last repetition's results, sorted
  /// Tumbling report-window span of the workload's queries.
  Timestamp window_micros_ = 0;
  /// Running maximum of the timestamps in arrival order.
  std::vector<Timestamp> running_max_;
  Timeline timeline_;
  size_t reserve_ = 0;
};

/// A serial Engine fed by per-event Push (stock_rank, fork_dag).
class SerialPush : public Workload {
 public:
  RepOutcome Run(Tracer* tracer) override {
    RepOutcome rep;
    rep.traced = tracer != nullptr;
    Scope rep_span(tracer, kRep);
    Recorder recorder;
    BeginRep(&recorder);

    const int64_t setup_start = NowNs();
    // Sinks first: the engine holds pointers to them and must go first.
    std::vector<std::unique_ptr<RecordSink>> sinks;
    std::unique_ptr<Engine> engine;
    {
      Scope setup(tracer, kSetup);
      engine = std::make_unique<Engine>(options_);
      Count(engine->RegisterSchema(schema_), &rep, "register schema");
      sinks = DeployAll(engine.get(), queries_, &recorder, tracer, &rep);
    }
    rep.setups_s.push_back(SecondsSince(setup_start));

    const int64_t ingest_start = NowNs();
    for (size_t i = 0; i < arrival_.size(); ++i) {
      Event e(arrival_[i]);
      timeline_.BeginCall(i);
      Scope call(tracer, kIngest);
      Count(engine->Push(std::move(e)), &rep, "push");
    }
    rep.events = arrival_.size();
    FinishEngine(engine.get(), tracer, ingest_start, &rep);
    EndRep(&recorder, &rep);
    return rep;
  }

 protected:
  void SetInput(std::vector<Event> arrival) {
    arrival_ = std::move(arrival);
    running_max_ = RunningMax(arrival_);
  }

  cepr::SchemaPtr schema_;
  std::vector<QuerySpec> queries_;
  EngineOptions options_;
  std::vector<Event> arrival_;
};

/// The disordered 64-symbol Stock stream through the reorder buffer, E1 dip
/// + E17 variant queries. Reference: the in-order stream through a serial
/// Engine without a lateness bound.
class StockRank : public SerialPush {
 public:
  static constexpr size_t kEvents = 160000;

  void Prepare(uint64_t seed) override {
    schema_ = cepr::StockGenerator::MakeSchema();
    queries_ = StockQueries();
    options_.max_lateness_micros = kLatenessMicros;
    window_micros_ = kDipWindowMicros;
    const std::vector<Event> ordered = StockEvents(seed, kEvents, /*symbols=*/64);
    SetInput(Displace(ordered, seed));
    SetReference(SerialResults(schema_, queries_, ordered));
  }
};

/// Fork-heavy stream (4 partitions, anchor probability 0.1) under one
/// SEQ(a, b+) SKIP_TILL_ANY_MATCH query ranked by SUM(b.price): the match
/// DAG and lazy rank-ordered enumeration carry the load. Reference: the
/// per-run path (shared_match_dag = false) on the same stream.
class ForkDag : public SerialPush {
 public:
  static constexpr size_t kEvents = 240000;

  void Prepare(uint64_t seed) override {
    schema_ = cepr::ForkHeavyGenerator::MakeSchema();
    const std::string query =
        "SELECT a.price, SUM(b.price), COUNT(b) "
        "FROM ForkTick MATCH PATTERN SEQ(a, b+) "
        "USING SKIP_TILL_ANY_MATCH "
        "PARTITION BY sym "
        "WHERE a.anchor = 1 AND b[i].anchor = 0 "
        "WITHIN 12 MILLISECONDS "
        "RANK BY SUM(b.price) DESC "
        "LIMIT 10 EMIT ON WINDOW CLOSE";
    queries_ = {{"fork", query, QueryOptions{}}};
    window_micros_ = 12000;
    cepr::ForkHeavyOptions o;
    o.base.seed = seed;
    o.num_streams = 4;
    o.anchor_probability = 0.1;
    cepr::ForkHeavyGenerator gen(o);
    SetInput(gen.Take(kEvents));
    std::vector<QuerySpec> per_run = queries_;
    per_run[0].options.matcher.shared_match_dag = false;
    SetReference(SerialResults(schema_, per_run, arrival_));
  }
};

/// 1,000 E16-style tenant queries fed by PushAll in 1,024-event batches,
/// one tenant undeployed and a new one deployed after every 10th batch.
/// Reference: the same deploy/undeploy schedule, per-event Push.
class TenantChurn : public Workload {
 public:
  static constexpr size_t kEvents = 204800;
  static constexpr size_t kTenants = 1000;
  static constexpr size_t kBatch = 1024;
  static constexpr size_t kChurnEveryBatches = 10;

  struct ChurnStep {
    size_t after_event;  // the step runs once this many events were sent
    uint32_t remove;     // tenant id to undeploy
    uint32_t add;        // tenant id to deploy
  };

  static std::string Name(uint32_t tenant) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "t%05u", tenant);
    return buf;
  }
  static std::string Query(int volume) {
    return "SELECT a.symbol, a.price, b.price FROM Stock "
           "MATCH PATTERN SEQ(a, b) PARTITION BY symbol "
           "WHERE a.volume = " + std::to_string(volume) +
           "  AND b.price > a.price "
           "WITHIN 10 MILLISECONDS "
           "RANK BY b.price - a.price DESC "
           "LIMIT 5 EMIT ON WINDOW CLOSE";
  }

  void Prepare(uint64_t seed) override {
    window_micros_ = 10000;
    // E16's 10-symbol stream.
    events_ = StockEvents(seed, kEvents, /*symbols=*/10);
    running_max_ = RunningMax(events_);
    cepr::Random rng(seed ^ 0x7e4a47ULL);
    std::vector<uint32_t> live;
    for (uint32_t t = 0; t < kTenants; ++t) {
      volumes_.push_back(static_cast<int>(rng.UniformInt(1, 10000)));
      live.push_back(t);
    }
    for (size_t b = kChurnEveryBatches; b * kBatch < kEvents;
         b += kChurnEveryBatches) {
      const size_t slot = rng.Uniform(live.size());
      const uint32_t add = static_cast<uint32_t>(volumes_.size());
      volumes_.push_back(static_cast<int>(rng.UniformInt(1, 10000)));
      schedule_.push_back(ChurnStep{b * kBatch, live[slot], add});
      live[slot] = add;
    }
    RepOutcome rep;
    Recorder recorder;
    Drive(nullptr, /*batch=*/1, &recorder, &rep);
    if (rep.failed) Die("reference run: tenant_churn failed");
    SetReference(std::move(recorder.recs));
  }

  RepOutcome Run(Tracer* tracer) override {
    RepOutcome rep;
    rep.traced = tracer != nullptr;
    Scope rep_span(tracer, kRep);
    Recorder recorder;
    BeginRep(&recorder);
    Drive(tracer, kBatch, &recorder, &rep);
    EndRep(&recorder, &rep);
    return rep;
  }

 private:
  /// Set-up, then the churn schedule with ingest calls of `batch` events:
  /// PushAll in the timed run, per-event Push (batch 1) for the reference.
  void Drive(Tracer* tracer, size_t batch, Recorder* recorder, RepOutcome* rep) {
    std::vector<std::unique_ptr<RecordSink>> sinks;
    for (uint32_t t = 0; t < volumes_.size(); ++t) {
      sinks.push_back(std::make_unique<RecordSink>(t, recorder));
    }
    std::unique_ptr<Engine> engine;
    const auto deploy = [&](uint32_t t) {
      Scope span(tracer, kDeploy);
      return engine->RegisterQuery(Name(t), Query(volumes_[t]),
                                    QueryOptions{}, sinks[t].get());
    };

    const int64_t setup_start = NowNs();
    {
      Scope setup(tracer, kSetup);
      engine = std::make_unique<Engine>();
      Count(engine->RegisterSchema(cepr::StockGenerator::MakeSchema()), rep,
            "register schema");
      for (uint32_t t = 0; t < kTenants; ++t) Count(deploy(t), rep, "deploy");
    }
    rep->setups_s.push_back(SecondsSince(setup_start));

    const int64_t ingest_start = NowNs();
    size_t next = 0;
    for (size_t i = 0; i < events_.size(); i += batch) {
      for (; next < schedule_.size() && schedule_[next].after_event == i;
           ++next) {
        const ChurnStep& step = schedule_[next];
        timeline_.BeginCall(i);
        Scope churn(tracer, kChurn);
        {
          Scope undeploy(tracer, kUndeploy);
          Count(engine->RemoveQuery(Name(step.remove)), rep, "undeploy");
        }
        Count(deploy(step.add), rep, "deploy");
      }
      const size_t end = std::min(events_.size(), i + batch);
      std::vector<Event> calls(events_.begin() + static_cast<std::ptrdiff_t>(i),
                               events_.begin() + static_cast<std::ptrdiff_t>(end));
      timeline_.BeginCall(i);
      Scope call(tracer, kIngest);
      Count(batch == 1 ? engine->Push(std::move(calls[0]))
                       : engine->PushAll(std::move(calls)),
            rep, "ingest");
    }
    rep->events = events_.size();
    FinishEngine(engine.get(), tracer, ingest_start, rep);
  }

  std::vector<Event> events_;
  std::vector<int> volumes_;  // by tenant id
  std::vector<ChurnStep> schedule_;
};

/// In-process CeprServer (2 shards, WAL on) fed by one synchronous client
/// with 1,024-event PushBatch frames of the stock_rank input, checkpoints
/// at fixed frame counts. Reference: the in-order serial Engine.
class WireSharded : public Workload {
 public:
  static constexpr size_t kFrames = 64;
  static constexpr size_t kBatch = 1024;
  static constexpr size_t kCheckpointEveryFrames = 16;
  static constexpr size_t kShards = 2;

  explicit WireSharded(std::string work_dir) : work_dir_(std::move(work_dir)) {}

  bool single_threaded() const override { return false; }

  void Prepare(uint64_t seed) override {
    window_micros_ = kDipWindowMicros;
    const size_t n = kFrames * kBatch;
    std::vector<Event> ordered = StockEvents(seed, n, /*symbols=*/64);
    std::vector<Event> arrival = Displace(ordered, seed);
    running_max_ = RunningMax(arrival);
    for (const Event& e : arrival) {
      Event wire(cepr::SchemaPtr{}, e.timestamp(), e.values());
      wire.set_type_tag(e.type_tag());
      wire_.push_back(std::move(wire));
    }
    for (size_t i = 0; i < wire_.size(); i += kBatch) {
      cepr::BinWriter w;
      for (size_t j = i; j < std::min(wire_.size(), i + kBatch); ++j) {
        cepr::SaveEventBody(&w, wire_[j]);
      }
      // Frame header (length + CRC), message type, binding and count.
      request_bytes_ += 8 + 1 + 4 + 4 + w.Take().size();
    }

    SetReference(SerialResults(cepr::StockGenerator::MakeSchema(),
                               StockQueries(), ordered));
  }

  RepOutcome Run(Tracer* tracer) override {
    RepOutcome rep;
    rep.traced = tracer != nullptr;
    Scope rep_span(tracer, kRep);
    Recorder recorder;
    BeginRep(&recorder);
    const auto queries = StockQueries();
    const std::string data_dir =
        work_dir_ + "/wire_data_" + std::to_string(::getpid());
    // A server set-up is short and its checkpoint-0 fsync noisy, so each
    // repetition times a few extra set-ups for a steadier setup_s median.
    for (int i = 0; i < kExtraSetups; ++i) {
      std::unique_ptr<cepr::net::CeprServer> server;
      cepr::net::CeprClient client;
      SetUp(nullptr, data_dir, &server, &client, &rep);
      TearDown(data_dir, &server, &client);
    }
    std::unique_ptr<cepr::net::CeprServer> server;
    cepr::net::CeprClient client;
    const uint32_t binding = SetUp(tracer, data_dir, &server, &client, &rep);

    std::vector<size_t> taken(queries.size(), 0);
    // Results the client holds once a call returns are delivered then.
    const auto collect = [&]() {
      for (uint32_t q = 0; q < queries.size(); ++q) {
        const auto& got = client.results(queries[q].name);
        for (; taken[q] < got.size(); ++taken[q]) {
          const cepr::net::WireResult& r = got[taken[q]];
          recorder.Add(q, r.window_id, r.rank, r.score, r.row);
        }
      }
    };

    const int64_t ingest_start = NowNs();
    for (size_t f = 0; f < kFrames; ++f) {
      const size_t begin = f * kBatch;
      if (f > 0 && f % kCheckpointEveryFrames == 0) {
        timeline_.BeginCall(begin);
        {
          Scope ckpt(tracer, kCheckpoint);
          Count(client.TriggerCheckpoint(), &rep, "checkpoint");
        }
        collect();
      }
      std::vector<Event> frame(
          wire_.begin() + static_cast<std::ptrdiff_t>(begin),
          wire_.begin() + static_cast<std::ptrdiff_t>(begin + kBatch));
      timeline_.BeginCall(begin);
      {
        Scope call(tracer, kFrame);
        Count(client.PushBatch(binding, frame), &rep, "push batch frame");
      }
      collect();
    }
    rep.attempted += wire_.size();
    timeline_.BeginCall(wire_.size());
    {
      Scope call(tracer, kFinish);
      Count(client.Finish(), &rep, "finish");
    }
    collect();
    rep.ingest_wall_s = SecondsSince(ingest_start);
    rep.events = wire_.size();

    auto metrics = client.MetricsJson();
    if (metrics.ok()) {
      rep.snapshot_json = metrics.value();
      // Late drops and quarantines, from the server's own counters.
      rep.failed += JsonCount(rep.snapshot_json, "\"events_quarantined\":");
      rep.failed += JsonCount(rep.snapshot_json, "\"events_late_dropped\":");
    } else {
      Count(metrics.status(), &rep, "metrics");
    }
    if (!tracer) rep.snapshot_json.clear();
    TearDown(data_dir, &server, &client);

    rep.request_bytes = request_bytes_;
    rep.result_frames = recorder.recs.size();
    EndRep(&recorder, &rep);
    return rep;
  }

 private:
  static constexpr int kExtraSetups = 8;

  /// Fresh data directory, server start (checkpoint 0), connect, DDL,
  /// deploys and stream binding: what a client waits for before its first
  /// event. Appends the time to rep->setups_s; returns the stream binding.
  uint32_t SetUp(Tracer* tracer, const std::string& data_dir,
                 std::unique_ptr<cepr::net::CeprServer>* server,
                 cepr::net::CeprClient* client, RepOutcome* rep) {
    std::filesystem::remove_all(data_dir);
    std::filesystem::create_directories(data_dir);
    const int64_t start = NowNs();
    cepr::net::ServerOptions so;
    so.num_shards = kShards;
    so.sharded.max_lateness_micros = kLatenessMicros;
    so.data_dir = data_dir;
    uint32_t binding = 0;
    {
      Scope setup(tracer, kSetup);
      *server = std::make_unique<cepr::net::CeprServer>(so);
      Count((*server)->Start(), rep, "server start");
      Count(client->Connect("127.0.0.1", (*server)->port()), rep, "connect");
      Count(client->Ddl(kStockDdl), rep, "ddl");
      for (const QuerySpec& q : StockQueries()) {
        Scope deploy(tracer, kDeploy);
        Count(client->Deploy(q.name, q.text, q.options), rep, "deploy");
      }
      auto bound = client->BindStream("Stock");
      Count(bound.status(), rep, "bind stream");
      if (bound.ok()) binding = bound.value();
    }
    rep->setups_s.push_back(SecondsSince(start));
    return binding;
  }

  static void TearDown(const std::string& data_dir,
                       std::unique_ptr<cepr::net::CeprServer>* server,
                       cepr::net::CeprClient* client) {
    client->Close();
    (*server)->Stop();
    server->reset();
    std::filesystem::remove_all(data_dir);
  }

  /// The first integer after `key` in a flat JSON text (the engine-wide
  /// counters come before any per-query object).
  static uint64_t JsonCount(const std::string& json, const std::string& key) {
    const size_t at = json.find(key);
    if (at == std::string::npos) return 0;
    return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
  }

  std::string work_dir_;
  std::vector<Event> wire_;
  uint64_t request_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Output.

struct SpanStats {
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  std::vector<double> durations_us;
};

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string NumList(const std::vector<double>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += Num(v[i]);
  }
  return out;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "id\tparent\ttrace\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i + 1) << '\t' << s.parent << '\t' << s.trace << '\t'
        << kSpanNames[s.name] << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::string SpanJson(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size() + 1, 0);
  for (const Span& s : spans) {
    if (s.parent) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  }
  SpanStats stats[kNumSpanNames];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    SpanStats& st = stats[s.name];
    ++st.count;
    st.total_s += dur / 1e9;
    st.self_s += (dur - child_ns[i + 1]) / 1e9;
    st.durations_us.push_back(dur / 1e3);
  }
  std::string out = "{";
  for (int n = 0; n < kNumSpanNames; ++n) {
    const SpanStats& st = stats[n];
    const double tail_q = TailQuantile(st.durations_us.size());
    if (n) out += ",";
    out += std::string("\"") + kSpanNames[n] + "\":{\"count\":" +
           std::to_string(st.count) + ",\"total_s\":" + Num(st.total_s) +
           ",\"self_s\":" + Num(st.self_s) +
           ",\"p50_us\":" + Num(Percentile(st.durations_us, 0.5)) +
           ",\"p99_us\":" + Num(Percentile(st.durations_us, 0.99)) +
           ",\"tail_q\":" + Num(tail_q) +
           ",\"tail_us\":" + Num(Percentile(st.durations_us, tail_q)) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  std::string workload, work_dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::stoull(value);
    else if (flag == "--seconds") seconds = std::stod(value);
    else if (flag == "--trace") trace = value == "1";
    else if (flag == "--work-dir") work_dir = value;
    else Die("unknown flag " + flag);
  }

  std::unique_ptr<Workload> w;
  if (workload == "stock_rank") w = std::make_unique<StockRank>();
  else if (workload == "tenant_churn") w = std::make_unique<TenantChurn>();
  else if (workload == "fork_dag") w = std::make_unique<ForkDag>();
  else if (workload == "wire_sharded") w = std::make_unique<WireSharded>(work_dir);
  else Die("unknown workload '" + workload + "'");
  std::filesystem::create_directories(work_dir);

  const int64_t prepare_start = NowNs();
  w->Prepare(seed);
  const double prepare_s = SecondsSince(prepare_start);

  // A single-threaded workload's repetitions take the allowed CPUs in turn:
  // on a shared VM each vCPU's speed differs and drifts over tens of
  // seconds, so a run that stayed on one vCPU would measure that vCPU.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }

  // Repeat fresh runs until the next one would overrun the budget. Traced
  // runs alternate blocks of untraced and traced repetitions, one block
  // being a turn over the CPUs, so both kinds see every CPU.
  const size_t block = std::max<size_t>(1, cpus.size());
  Tracer tracer;
  std::vector<RepOutcome> reps;
  std::string mismatch;
  const int64_t start = NowNs();
  const size_t min_reps = trace ? block + 1 : 1;
  std::vector<double> rep_s;
  while (true) {
    const double elapsed = SecondsSince(start);
    if (reps.size() >= min_reps &&
        elapsed + Percentile(rep_s, 0.5) > seconds) {
      break;
    }
    if (w->single_threaded() && cpus.size() > 1) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[reps.size() % cpus.size()], &one);
      ::sched_setaffinity(0, sizeof(one), &one);
    }
    const int64_t rep_start = NowNs();
    const bool traced = trace && (reps.size() / block) % 2 == 1;
    if (traced) tracer.Reserve(2 * reps.front().calls + 4096);
    reps.push_back(w->Run(traced ? &tracer : nullptr));
    rep_s.push_back(SecondsSince(rep_start));
    std::string why;
    if (mismatch.empty() && !w->Check(reps.back(), &why)) {
      mismatch = "repetition " + std::to_string(reps.size()) + ": " + why;
    }
  }
  const double measured_s = SecondsSince(start);

  std::string trace_file;
  if (trace) {
    trace_file = work_dir + "/" + workload + ".spans.tsv";
    WriteSpans(tracer.spans(), trace_file);
  }

  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  uint64_t attempted = 0, failed = 0;
  std::string out = "{\"workload\":\"" + workload + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"build_type\":\"" CEPR_E2E_BUILD_TYPE "\"";
  out += ",\"cores\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"prepare_s\":" + Num(prepare_s);
  out += ",\"measured_s\":" + Num(measured_s);
  out += ",\"reps\":[";
  std::string snapshot = "null";
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepOutcome& r = reps[i];
    attempted += r.attempted;
    failed += r.failed;
    if (!r.snapshot_json.empty()) snapshot = r.snapshot_json;
    if (i) out += ",";
    out += "{\"traced\":" + std::string(r.traced ? "true" : "false") +
           ",\"setups_s\":[" + NumList(r.setups_s) + "]" +
           ",\"events\":" + std::to_string(r.events) +
           ",\"ingest_wall_s\":" + Num(r.ingest_wall_s) +
           ",\"results\":" + std::to_string(r.results) +
           ",\"latency_p50_us\":" + Num(r.latency_p50_us) +
           ",\"latency_p99_us\":" + Num(r.latency_p99_us) +
           ",\"request_bytes\":" + std::to_string(r.request_bytes) +
           ",\"result_frames\":" + std::to_string(r.result_frames) +
           ",\"digest\":\"" + Hex(r.digest.hash) + "\"}";
  }
  out += "]";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"correct\":" + std::string(mismatch.empty() ? "true" : "false");
  out += ",\"peak_rss_kb\":" + std::to_string(usage.ru_maxrss);
  out += ",\"latency\":{\"samples\":" + std::to_string(w->pooled().seen()) +
         ",\"p50_us\":" + Num(w->pooled().Percentile(0.5)) +
         ",\"p99_us\":" + Num(w->pooled().Percentile(0.99)) + "}";
  out += ",\"spans\":" + (trace ? SpanJson(tracer.spans()) : std::string("null"));
  out += ",\"trace_file\":\"" + trace_file + "\"";
  out += ",\"snapshot\":" + snapshot;
  out += "}";
  std::cout << out << std::endl;
  if (!mismatch.empty()) {
    std::cerr << "cepr_e2e: ranked output mismatch: " << mismatch << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cepr_e2e

int main(int argc, char** argv) { return cepr_e2e::Main(argc, argv); }
