// End-to-end benchmark of the c2mn serving pipeline: positioning records
// -> AnnotationService (OnlineAnnotator decode per session) ->
// m-semantics sinks -> live analytics (standing queries, top-k polls) ->
// write-ahead log and snapshots.  It drives the system only through its
// public entry points and checks every output it times.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR [--commit C] [--source-digest D]
//
// --trace 0 runs the workload untraced and prints the end-to-end
// metrics; --trace 1 runs it untraced, then traced, then replays every
// layer single-threaded with spans around each call, and prints the
// per-layer metrics.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  The exit code is
// non-zero when an output check fails.  perfbench/README.md lists the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analytics/analytics_engine.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/online_annotator.h"
#include "core/trainer.h"
#include "eval/metrics.h"
#include "eval/queries.h"
#include "harness.h"
#include "service/annotation_service.h"
#include "sim/scenarios.h"
#include "storage/storage_manager.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace c2mn;  // NOLINT(build/namespaces)
namespace fs = std::filesystem;

// ---------------------------------------------------------------- inputs
//
// Every size and rate below is a fixed number: the same seed gives the
// same inputs and the same offered load on any machine.

/// The mall building is the same for every seed.
constexpr uint64_t kVenueSeed = 7;
/// Objects simulated per seed; the first kTrainSequences sequences train
/// the model and the rest form the replayed corpus (one session each).
constexpr int kObjects = 200;
constexpr int kTrainSequences = 40;
constexpr int kTrainIters = 30;
constexpr int kTrainMcmc = 40;
/// Trainer threads.  Training is bit-identical for any thread count, so
/// this only moves setup_s.
constexpr int kTrainThreads = 4;
/// The mall scenario's horizon.  The corpus is replayed in cycles, cycle
/// c shifted by c * kCyclePeriod simulated seconds and given fresh
/// session ids, so simulated time keeps advancing through a run.
constexpr double kCyclePeriod = 4 * 3600.0;
/// Timestamps are rounded to this grid so that shifting a cycle is exact
/// and every cycle decodes bit-identically to the reference.
constexpr double kTimeQuantum = 1.0 / 1024.0;
constexpr int64_t kCycleIdStride = 1000000;
constexpr int kSetupRepeats = 3;
constexpr int kRecoverRepeats = 11;

/// Analytics configuration shared by every workload.  The query settings
/// are the repository's own serving defaults: `c2mn_cli analytics` runs
/// the engine with --min-visit 30 and asks for top --k 5, and README's
/// sliding-window example subscribes `--follow --trailing 600`.
/// Bucket width and retention are AnalyticsEngine's defaults, so a run's
/// retained state stops growing once a day of simulated time has been
/// replayed; output checks compare against the retained part of the
/// corpus (RetainedPart).
constexpr double kBucketSeconds = 60.0;
constexpr double kHorizonSeconds = 86400.0;
constexpr size_t kTopK = 5;
constexpr double kMinVisit = 30.0;
/// The scan rounds ask over the trailing kTrailingSeconds of simulated
/// time, the span the sliding standing queries rank, once at the engine's
/// threshold and once at eval/queries' default threshold (every stay).
/// The window forces the scan path, and the threshold mismatch forces it
/// again.
constexpr double kScanMinVisit = 0.0;
constexpr double kTrailingSeconds = 600.0;

/// Readers: kViewers operations consoles, each refreshing once per
/// kRefreshSeconds (the default --interval of `c2mn_cli metrics --watch`).
/// The number of consoles is this benchmark's assumption; the run length
/// (--seconds), not the refresh rate, supplies the sample counts.  One
/// refresh is a pre-aggregated round then a scan round (see Poll).
constexpr int kViewers = 20;
constexpr double kRefreshSeconds = 1.0;

/// An open-loop run is flagged invalid when the record generator ran
/// later than this at p99, or when the summed queue depth grew by more
/// than kBacklogSlack operations between the first and last third of the
/// run.  Lateness bunches records: 2 ms at 10000 rec/s is 20 records sent
/// at once, 10 per shard at about 50 us each (the 2-shard capacity is
/// about 40k rec/s), so the last waits about 0.5 ms, under a third of
/// live_pipeline's emit p95 (about 1.7 ms).  An invalid timed run is
/// repeated once if the repeat would still end within kTimeBudgetSeconds
/// of the start.
constexpr double kLateLimitMs = 2.0;
constexpr double kBacklogSlack = 256.0;
constexpr double kDepthSampleSeconds = 0.1;
constexpr int kMaxAttempts = 2;
constexpr double kTimeBudgetSeconds = 120.0;
/// Latency samples (emit, delta, polls) offered in the first second are
/// dropped: queues, caches and the top-k answers are still settling.
constexpr double kWarmupSeconds = 1.0;
/// Medians and tails come from up to this many time slices of a run
/// (about 2 s each on a 30 s open-loop run; see SummarizeSegmented).
constexpr size_t kSegments = 15;
/// WAL tail written on top of a run's final snapshot before the timed
/// recoveries: this many extra corpus cycles of m-semantics and closes,
/// about what live_pipeline logs in one checkpoint interval.
constexpr int kRecoverTailCycles = 2;

struct WorkloadSpec {
  const char* name;
  /// Either way a run replays the whole corpus cycles that fill --seconds
  /// at `rate_rps`, a fixed input size.  Open loop: each record is due at
  /// its simulated timestamp divided by a time-compression factor chosen
  /// so the corpus is offered at exactly `rate_rps`.  Closed loop: one
  /// generator submits as fast as Submit() backpressure lets it;
  /// `rate_rps` is the capacity measured when the benchmark was defined,
  /// so a run lasts about --seconds and the engine and the recovery
  /// always see the same state size.
  bool open_loop;
  double rate_rps;
  OnlineAnnotator::Options windows;
  int shards;
  /// Standing queries: top-k regions over the whole horizon and over the
  /// trailing window, plus the same two for region pairs when set (the
  /// set `c2mn_cli analytics --follow --trailing` subscribes).
  bool pair_standing_queries;
  /// 0: checkpoint only at Stop().
  double checkpoint_interval_s;
};

OnlineAnnotator::Options Windows(int window, int lag, int stride) {
  OnlineAnnotator::Options o;
  o.window_records = window;
  o.finalize_lag = lag;
  o.decode_stride = stride;
  return o;
}

// Threads per workload: 1 generator + 1 reader + at most 2 shards <= 4.
// Why each workload exists is recorded beside its name in
// BENCHMARK.json.  replay_decode runs one shard: with one generator
// feeding two queues, whichever shard's queue is full sets the pace and
// the other's latencies collapse, so closed-loop latency turns bimodal.
// It subscribes region queries only: it measures decode capacity, and a
// whole-horizon pairs query re-ranks the pair map on every ingest, which
// would make it analytics-bound.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // Decode-bound capacity and paper-setting accuracy (paper-default
      // 80/10/5 windows).
      {"replay_decode", false, 40000.0, Windows(80, 10, 5), 1, false, 0.0},
      // Latency as deployed: every layer on, a quarter of the 2-shard
      // capacity, the serve-sim README example's 5 s checkpoints.
      {"live_pipeline", true, 10000.0, Windows(24, 6, 4), 2, true, 5.0},
  };
  return specs;
}

// ------------------------------------------------------------- utilities

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Sleeps until `due_ns`.  Schedule threads set a 1 ns timer slack
/// (PreciseTimers), so a wake-up overshoots by tens of microseconds; the
/// overshoot shows in gen.late_p99_ms, and latencies are timed from the
/// actual call.  It does not spin: a spinning generator would hold a core
/// the shard workers need.
void WaitUntil(int64_t due_ns) {
  const int64_t ahead = due_ns - NowNs();
  if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
}

void PreciseTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

int ShardFor(int64_t object_id, int shards) {
  // The documented AnalyticsEngine / AnnotationService placement.
  return static_cast<int>(std::hash<int64_t>{}(object_id) %
                          static_cast<size_t>(shards));
}

bool SameShifted(const MSemantics& got, const MSemantics& ref, double shift) {
  return got.region == ref.region && got.event == ref.event &&
         got.support == ref.support && got.t_start == ref.t_start + shift &&
         got.t_end == ref.t_end + shift;
}

MSemantics Shifted(MSemantics ms, double shift) {
  ms.t_start += shift;
  ms.t_end += shift;
  return ms;
}

/// Operations attempted and failed (non-OK status) across a run.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Note(const Status& s) {
    ++attempted;
    if (!s.ok()) ++failed;
  }
  void Add(const OpCounts& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// --------------------------------------------------------------- queries

/// The six polls the output checks ask: the engine's pre-aggregated spec
/// (all regions, unbounded window, the engine's kMinVisit) and four
/// scan-path polls (the recent window at the engine's threshold, and the
/// whole retention at a mismatched threshold, per kind).
struct Answers {
  std::vector<RegionId> preagg_regions, scan_regions_window, scan_regions_thr;
  std::vector<RegionPair> preagg_pairs, scan_pairs_window, scan_pairs_thr;
  bool operator==(const Answers& o) const {
    return preagg_regions == o.preagg_regions &&
           scan_regions_window == o.scan_regions_window &&
           scan_regions_thr == o.scan_regions_thr &&
           preagg_pairs == o.preagg_pairs &&
           scan_pairs_window == o.scan_pairs_window &&
           scan_pairs_thr == o.scan_pairs_thr;
  }
};

struct QuerySet {
  std::vector<RegionId> regions;
  /// The trailing kTrailingSeconds of simulated time.
  TimeWindow recent;
};

QuerySet QueriesAt(const std::vector<RegionId>& regions, double sim_now) {
  return {regions, TimeWindow{sim_now - kTrailingSeconds, sim_now}};
}

Answers AskEngine(const AnalyticsEngine& e, const QuerySet& q) {
  Answers a;
  const TimeWindow all = TimeWindow::All();
  a.preagg_regions = e.TopKPopularRegions(q.regions, all, kTopK, kMinVisit);
  a.preagg_pairs = e.TopKFrequentRegionPairs(q.regions, all, kTopK, kMinVisit);
  a.scan_regions_window = e.TopKPopularRegions(q.regions, q.recent, kTopK, kMinVisit);
  a.scan_pairs_window = e.TopKFrequentRegionPairs(q.regions, q.recent, kTopK, kMinVisit);
  a.scan_regions_thr = e.TopKPopularRegions(q.regions, all, kTopK, kScanMinVisit);
  a.scan_pairs_thr = e.TopKFrequentRegionPairs(q.regions, all, kTopK, kScanMinVisit);
  return a;
}

Answers AskBatch(const AnnotatedCorpus& c, const QuerySet& q) {
  Answers a;
  const TimeWindow all = TimeWindow::All();
  a.preagg_regions = TopKPopularRegions(c, q.regions, all, kTopK, kMinVisit);
  a.preagg_pairs = TopKFrequentRegionPairs(c, q.regions, all, kTopK, kMinVisit);
  a.scan_regions_window = TopKPopularRegions(c, q.regions, q.recent, kTopK, kMinVisit);
  a.scan_pairs_window = TopKFrequentRegionPairs(c, q.regions, q.recent, kTopK, kMinVisit);
  a.scan_regions_thr = TopKPopularRegions(c, q.regions, all, kTopK, kScanMinVisit);
  a.scan_pairs_thr = TopKFrequentRegionPairs(c, q.regions, all, kTopK, kScanMinVisit);
  return a;
}

/// One timed read of a console refresh: the pre-aggregated round (top-k
/// regions + top-k pairs, the live headline) or the scan round (the four
/// scan-path polls over the recent window: regions and pairs, at the
/// engine's threshold and at every stay).  Timing whole rounds keeps each latency sample unimodal;
/// single polls of different kinds would make the median jump between
/// the kinds.
void Poll(const AnalyticsEngine& e, const QuerySet& q, bool preagg) {
  const TimeWindow all = TimeWindow::All();
  if (preagg) {
    e.TopKPopularRegions(q.regions, all, kTopK, kMinVisit);
    e.TopKFrequentRegionPairs(q.regions, all, kTopK, kMinVisit);
    return;
  }
  e.TopKPopularRegions(q.regions, q.recent, kTopK, kMinVisit);
  e.TopKFrequentRegionPairs(q.regions, q.recent, kTopK, kMinVisit);
  e.TopKPopularRegions(q.regions, q.recent, kTopK, kScanMinVisit);
  e.TopKFrequentRegionPairs(q.regions, q.recent, kTopK, kScanMinVisit);
}

/// The standing queries a workload subscribes (see
/// WorkloadSpec::pair_standing_queries), with the engine's threshold as
/// `c2mn_cli analytics --follow` sets it.
std::vector<StandingQuery> StandingQueries(const WorkloadSpec& spec) {
  std::vector<StandingQuery> out;
  for (bool pairs : {false, true}) {
    if (pairs && !spec.pair_standing_queries) continue;
    for (double trailing : {0.0, kTrailingSeconds}) {
      StandingQuery q;
      q.kind = pairs ? StandingQuery::Kind::kFrequentPairs : StandingQuery::Kind::kPopularRegions;
      q.spec.all_regions = true;
      q.spec.min_visit_seconds = kMinVisit;
      q.k = kTopK;
      q.trailing_seconds = trailing;
      out.push_back(q);
    }
  }
  return out;
}

AnalyticsEngine::Options EngineOptions(int shards) {
  AnalyticsEngine::Options o;
  o.num_shards = shards;
  o.bucket_seconds = kBucketSeconds;
  o.horizon_seconds = kHorizonSeconds;
  o.min_visit_seconds = kMinVisit;
  return o;
}

/// The part of `corpus` an engine with EngineOptions(shards) retains once
/// all of it is ingested: per shard (the service's placement of each
/// object), the stays whose bucket lies within the retention ring behind
/// that shard's newest stay bucket.  Passes are kept; the queries ignore
/// them.
AnnotatedCorpus RetainedPart(const AnnotatedCorpus& corpus, int shards) {
  const int64_t ring =
      static_cast<int64_t>(std::ceil(kHorizonSeconds / kBucketSeconds)) + 1;
  const auto bucket = [](const MSemantics& ms) {
    return static_cast<int64_t>(std::floor(ms.t_end / kBucketSeconds));
  };
  std::vector<int64_t> newest(static_cast<size_t>(shards), INT64_MIN);
  for (size_t i = 0; i < corpus.size(); ++i) {
    int64_t& n = newest[static_cast<size_t>(ShardFor(corpus.object_ids[i], shards))];
    for (const MSemantics& ms : corpus.semantics[i]) {
      if (ms.event == MobilityEvent::kStay) n = std::max(n, bucket(ms));
    }
  }
  AnnotatedCorpus out;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const int64_t n = newest[static_cast<size_t>(ShardFor(corpus.object_ids[i], shards))];
    MSemanticsSequence kept;
    for (const MSemantics& ms : corpus.semantics[i]) {
      if (ms.event != MobilityEvent::kStay || bucket(ms) > n - ring) kept.push_back(ms);
    }
    out.Add(corpus.object_ids[i], std::move(kept));
  }
  return out;
}

// ----------------------------------------------------------------- setup

struct RefSession {
  const LabeledSequence* seq = nullptr;
  /// What a standalone OnlineAnnotator emits for this session, and the
  /// record whose push completed each emission.
  std::vector<MSemantics> out;
  std::vector<int32_t> completing;
  uint64_t region_correct = 0;
  uint64_t event_correct = 0;
};

/// One cycle of the merged schedule: record `idx` of session `session`
/// at simulated time t; idx == size is the session's close.
struct Event {
  double t;
  int32_t session;
  int32_t idx;
};

struct Setup {
  Scenario scenario;
  std::vector<double> weights;
  std::vector<RefSession> sessions;
  std::vector<Event> schedule;
  size_t records_per_cycle = 0;
  double t0 = 0.0;
  std::vector<RegionId> regions;  ///< Every region of the venue.
  // Timings, seconds.
  double generate_s = 0.0, train_s = 0.0, total_s = 0.0;
  std::vector<std::string> errors;
};

AnnotationService::Options ServiceOptions(const WorkloadSpec& spec,
                                          const std::string& state_dir,
                                          bool stage_tracing) {
  AnnotationService::Options o;
  o.num_shards = spec.shards;
  o.annotator = spec.windows;
  o.analytics.enabled = true;
  o.analytics.engine = EngineOptions(spec.shards);
  o.obs.stage_tracing = stage_tracing;
  o.storage.state_dir = state_dir;
  o.storage.checkpoint_interval_seconds = spec.checkpoint_interval_s;
  o.storage.fsync = true;
  return o;
}

void CopyDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

/// Constructs a service on a copy of `dir` (the recovery under test:
/// snapshot load plus WAL segment replay), checks its answers against
/// `expected`, and returns the construction time.  The copy keeps `dir`
/// pristine for the next trial.
double TimedRecovery(const WorkloadSpec& spec, const Setup& setup,
                     const std::string& dir, const std::string& trial_dir,
                     const QuerySet& queries, const Answers& expected, OpCounts* ops,
                     std::vector<std::string>* errors) {
  CopyDir(dir, trial_dir);
  AnnotationService::Options o = ServiceOptions(spec, trial_dir, false);
  o.storage.checkpoint_interval_seconds = 0.0;
  o.storage.checkpoint_on_stop = false;
  const int64_t start = NowNs();
  AnnotationService service(*setup.scenario.world, FeatureOptions{},
                            C2mnStructure{}, setup.weights, o);
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  ops->Note(service.storage_status());
  if (!service.storage_status().ok()) {
    errors->push_back("recovery failed: " + service.storage_status().ToString());
  } else if (!(AskEngine(*service.analytics(), queries) == expected)) {
    errors->push_back("recovered engine answers differ from the expected answers");
  } else if (service.recovery_stats().replayed_records == 0) {
    errors->push_back("recovery replayed no WAL records");
  }
  service.Stop();
  fs::remove_all(trial_dir);
  return seconds;
}

std::unique_ptr<Setup> MakeSetup(const WorkloadSpec& spec, uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  const int64_t t_start = NowNs();
  int64_t t = t_start;
  const auto lap = [&t]() {
    const int64_t now = NowNs();
    const double s = static_cast<double>(now - t) * 1e-9;
    t = now;
    return s;
  };

  // One fixed mall for every seed (MakeMallScenario's venue for
  // kVenueSeed); the seed drives the visitors.  A per-seed building would
  // make decode cost vary more between seeds than between commits.
  ScenarioOptions so;
  so.num_objects = 1;
  so.seed = kVenueSeed;
  setup->scenario = MakeMallScenario(so);
  {
    // The mall's visitor and Wi-Fi-grade observation settings, as in
    // MakeMallScenario.
    MobilityConfig mobility;
    mobility.num_objects = kObjects;
    mobility.horizon_seconds = kCyclePeriod;
    mobility.min_lifespan_seconds = 1900.0;
    mobility.max_lifespan_seconds = 3200.0;
    ObservationConfig observation;
    observation.min_period_seconds = 10.0;
    observation.max_period_seconds = 26.0;
    observation.error_mu = 5.0;
    observation.num_floors = setup->scenario.world->plan().num_floors();
    Rng rng(seed);
    setup->scenario.dataset = GenerateDataset(*setup->scenario.world, mobility,
                                              observation, PreprocessOptions{}, &rng);
  }
  for (LabeledSequence& ls : setup->scenario.dataset.sequences) {
    for (PositioningRecord& r : ls.sequence.records) {
      r.timestamp = std::round(r.timestamp / kTimeQuantum) * kTimeQuantum;
    }
  }
  setup->generate_s = lap();

  const std::vector<LabeledSequence>& seqs = setup->scenario.dataset.sequences;
  std::vector<const LabeledSequence*> train;
  for (size_t i = 0; i < seqs.size() && i < static_cast<size_t>(kTrainSequences); ++i) {
    train.push_back(&seqs[i]);
  }
  TrainOptions topts;
  topts.max_iter = kTrainIters;
  topts.mcmc_samples = kTrainMcmc;
  topts.num_threads = kTrainThreads;
  topts.seed = seed + 1;
  AlternateTrainer trainer(*setup->scenario.world, FeatureOptions{},
                           C2mnStructure{}, topts);
  setup->weights = trainer.Train(train).weights;
  setup->train_s = lap();

  // Reference decode: every session through a standalone annotator.
  const World& world = *setup->scenario.world;
  double t_min = 0.0;
  bool first = true;
  std::vector<MSemantics> emitted;
  for (size_t i = static_cast<size_t>(kTrainSequences); i < seqs.size(); ++i) {
    const LabeledSequence& ls = seqs[i];
    if (ls.sequence.records.empty()) continue;
    RefSession ref;
    ref.seq = &ls;
    OnlineAnnotator annotator(world, FeatureOptions{}, C2mnStructure{},
                              setup->weights, spec.windows);
    std::vector<int> per_push;
    for (const PositioningRecord& r : ls.sequence.records) {
      annotator.PushInto(r, &emitted);
      per_push.push_back(static_cast<int>(emitted.size()));
      ref.out.insert(ref.out.end(), emitted.begin(), emitted.end());
    }
    annotator.FlushInto(&emitted);
    ref.out.insert(ref.out.end(), emitted.begin(), emitted.end());
    ref.completing = CompletingRecords(per_push, static_cast<int>(emitted.size()));
    // Accuracy: expand each m-semantics over its support records.
    size_t rec = 0;
    for (const MSemantics& ms : ref.out) {
      for (int k = 0; k < ms.support && rec < ls.labels.size(); ++k, ++rec) {
        ref.region_correct += ls.labels.regions[rec] == ms.region;
        ref.event_correct += ls.labels.events[rec] == ms.event;
      }
    }
    if (rec != ls.labels.size()) {
      setup->errors.push_back("reference support does not cover session " +
                              std::to_string(i));
    }
    const double ts = ls.sequence.records.front().timestamp;
    if (first || ts < t_min) t_min = ts;
    first = false;
    setup->records_per_cycle += ls.sequence.records.size();
    setup->sessions.push_back(std::move(ref));
  }
  setup->t0 = t_min;
  for (size_t s = 0; s < setup->sessions.size(); ++s) {
    const auto& recs = setup->sessions[s].seq->sequence.records;
    for (size_t i = 0; i <= recs.size(); ++i) {
      const double ts = recs[std::min(i, recs.size() - 1)].timestamp;
      setup->schedule.push_back({ts, static_cast<int32_t>(s), static_cast<int32_t>(i)});
    }
  }
  std::sort(setup->schedule.begin(), setup->schedule.end(),
            [](const Event& a, const Event& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.session != b.session) return a.session < b.session;
              return a.idx < b.idx;
            });
  for (const SemanticRegion& r : world.plan().regions()) {
    setup->regions.push_back(r.id);
  }

  setup->total_s = static_cast<double>(NowNs() - t_start) * 1e-9;
  return setup;
}

// ------------------------------------------------------------------- run

/// One session instance of one cycle, as the service sees it.
struct Instance {
  const RefSession* ref = nullptr;
  int64_t id = 0;
  double shift = 0.0;
  /// Per record: when Submit() was called for it.  Not the open-loop due
  /// time: at the offered rates the queues never fill, so the gap between
  /// due and sent is the generator thread's own scheduling delay, which on
  /// a shared box moved emit p95 by 0.65 of its median over ten seeds.
  /// That gap is reported as gen.late_p99_ms and flags the run invalid
  /// past kLateLimitMs.
  std::vector<int64_t> offer_ns;
  /// Per reference emission: when the sink received it.  Written only on
  /// the owning shard thread; read after Drain().
  std::vector<int64_t> emit_ns;
  size_t received = 0;
  bool mismatch = false;
};

/// A standing-query delta, attributed to the sink call made just before
/// it on the same shard thread (the service runs a record's sinks, then
/// its analytics ingest, which fires the deltas).
struct DeltaSample {
  const Instance* inst;
  int32_t emission;
  int64_t ns;
};

struct ShardThreadLog {
  const Instance* last_inst = nullptr;
  int32_t last_emission = -1;
  std::vector<DeltaSample> deltas;
};

/// Owns the per-shard-thread logs of one run (the shard threads exit
/// before the run reads them).
class ThreadLogs {
 public:
  ThreadLogs() : generation_(NextGeneration()) {}
  ThreadLogs(const ThreadLogs&) = delete;
  ThreadLogs& operator=(const ThreadLogs&) = delete;

  ShardThreadLog* Local() {
    // Keyed by generation, not address: a later run's ThreadLogs may
    // reuse this one's address on a thread that outlives both.
    thread_local uint64_t owner = 0;
    thread_local ShardThreadLog* log = nullptr;
    if (owner != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<ShardThreadLog>());
      log = logs_.back().get();
      owner = generation_;
    }
    return log;
  }
  std::vector<DeltaSample> AllDeltas() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<DeltaSample> all;
    for (const auto& l : logs_) all.insert(all.end(), l->deltas.begin(), l->deltas.end());
    return all;
  }

 private:
  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  const uint64_t generation_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ShardThreadLog>> logs_;
};


/// One latency: the median (the same in each summary) and three tails.
/// Only the median is gated; the detail line reports the tails with
/// their sample counts.  On a shared 4-core box other tenants' load comes
/// in episodes that delay waking the shard workers, and the tails move
/// with them: over ten seeds emit p90 moved 0.7-1.0 of its median (IQR /
/// median), p95 0.29-1.0 and p99 0.4-0.9, above any allowed bound.
struct Latency {
  TailSummary p90, p95, p99;
};

Latency SummarizeLatency(const std::vector<TimedSample>& samples) {
  return {SummarizeSegmented(samples, 0.90, kSegments),
          SummarizeSegmented(samples, 0.95, kSegments),
          SummarizeSegmented(samples, 0.99, kSegments)};
}

struct RunResult {
  OpCounts ops;
  std::vector<std::string> errors;
  bool valid = true;
  std::vector<std::string> invalid_reasons;
  uint64_t records = 0;
  uint64_t sessions = 0;
  uint64_t emissions = 0;
  double wall_s = 0.0;
  /// CPU of the service's own threads (shard workers, storage writer,
  /// checkpoint timer): process CPU minus the generator's and reader's.
  double service_cpu_s = 0.0;
  double throughput_rps = 0.0;
  double compression = 0.0;
  double region_accuracy = 0.0;
  double event_accuracy = 0.0;
  Latency emit, delta, poll, scan;
  double recover_s = 0.0;
  LatenessReport gen_late, client_late;
  double queue_depth_max = 0.0;
  double batch_fill = 0.0;
  std::map<std::string, double> stage_p99_ms;
  std::vector<double> submit_us;  ///< Submit() call durations.
};

/// Reader thread: the consoles' refreshes on their fixed schedule (each
/// round timed from its call; due and sent times kept for lateness),
/// plus a queue-depth sample every kDepthSampleSeconds.
struct Reader {
  std::vector<TimedSample> preagg_ms, scan_ms;
  std::vector<double> depth_total;
  double depth_max = 0.0;
  std::vector<int64_t> due, sent;
  uint64_t polls = 0;
  double cpu_s = 0.0;
};

void SampleDepth(const AnnotationService& service, Reader* out) {
  const ServiceStats stats = service.Stats();
  double total = 0.0;
  for (size_t d : stats.queue_depths) {
    total += static_cast<double>(d);
    out->depth_max = std::max(out->depth_max, static_cast<double>(d));
  }
  out->depth_total.push_back(total);
}

/// One console refresh: the pre-aggregated round, then the scan round,
/// each timed from its own call.
void Refresh(const AnalyticsEngine& engine, const QuerySet& q, int64_t at,
             bool keep, Reader* out) {
  const int64_t a = NowNs();
  Poll(engine, q, true);
  const int64_t b = NowNs();
  Poll(engine, q, false);
  const int64_t c = NowNs();
  if (keep) {
    out->preagg_ms.push_back({at, static_cast<double>(b - a) * 1e-6});
    out->scan_ms.push_back({at, static_cast<double>(c - b) * 1e-6});
  }
  out->polls += 6;
}

/// The reader, concurrent with ingest on both loops: kViewers consoles
/// whose refreshes are spread evenly over each kRefreshSeconds.  Each
/// asks about the trailing kTrailingSeconds behind `sim_now`, the
/// simulated time of the record the generator sent last.
void ReaderLoop(const Setup& setup, const AnnotationService& service,
                const std::atomic<double>& sim_now, int64_t start, int64_t warm,
                const std::atomic<bool>& done, Reader* out) {
  PreciseTimers();
  const double cpu_start = ThreadCpuSeconds();
  const AnalyticsEngine& engine = *service.analytics();
  const double refresh_ns = kRefreshSeconds / kViewers * 1e9;
  const double depth_ns = kDepthSampleSeconds * 1e9;
  uint64_t n_refresh = 0, n_depth = 0;
  while (!done.load(std::memory_order_acquire)) {
    const int64_t due_refresh =
        start + static_cast<int64_t>((static_cast<double>(n_refresh) + 0.5) * refresh_ns);
    const int64_t due_depth = start + static_cast<int64_t>(n_depth * depth_ns);
    const int64_t due = std::min(due_refresh, due_depth);
    // Wake at least every 5 ms to notice the end of the run.
    if (due - NowNs() > 5000000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    WaitUntil(due);
    const int64_t sent = NowNs();
    if (due == due_depth) {
      SampleDepth(service, out);
      ++n_depth;
      continue;
    }
    // Rounds are timed from their call, not the due time: one reader
    // thread serves every console, so timing from due would charge a
    // refresh for the one queued ahead of it.  The reader's lateness is
    // reported separately (gen.late_p99_ms).
    const QuerySet q = QueriesAt(setup.regions, sim_now.load(std::memory_order_relaxed));
    Refresh(engine, q, due, due >= warm, out);
    ++n_refresh;
    out->due.push_back(due);
    out->sent.push_back(sent);
  }
  out->cpu_s = ThreadCpuSeconds() - cpu_start;
}

/// Turns the state dir a run left (the final snapshot Stop() published)
/// into a snapshot plus a WAL tail of fixed size.  It recovers the dir
/// through StorageManager and checks the recovered engine against the
/// answers the service gave before the snapshot.  Then it ingests and
/// logs kRecoverTailCycles more cycles of the reference output (fresh
/// ids, shifted past the run) and makes the log durable without a
/// checkpoint.  `corpus` gains the tail; `expected` gets the answers to
/// `after` the tail leaves, checked against batch eval/queries over the
/// retained part of `corpus`.
void PrepareRecoveryState(const WorkloadSpec& spec, const Setup& setup,
                          const std::string& state_dir, int first_cycle,
                          const QuerySet& before_q, const Answers& before,
                          const QuerySet& after, AnnotatedCorpus* corpus,
                          Answers* expected, OpCounts* ops,
                          std::vector<std::string>* errors) {
  AnalyticsEngine engine(EngineOptions(spec.shards));
  storage::StorageManager::Options so;
  so.state_dir = state_dir;
  storage::StorageManager sm(so, spec.shards);
  storage::RecoveryStats rs;
  Status st = sm.Recover(&engine, &rs);
  ops->Note(st);
  if (!st.ok()) {
    errors->push_back("recovery of the run's state: " + st.ToString());
    return;
  }
  if (!(AskEngine(engine, before_q) == before)) {
    errors->push_back("recovered engine answers differ from the pre-snapshot engine's");
  }
  for (int c = 0; c < kRecoverTailCycles; ++c) {
    const int cycle = first_cycle + c;
    const double shift = cycle * kCyclePeriod;
    for (size_t s = 0; s < setup.sessions.size(); ++s) {
      const int64_t id = cycle * kCycleIdStride + static_cast<int64_t>(s);
      const int shard = ShardFor(id, spec.shards);
      MSemanticsSequence shifted;
      uint64_t seq = 0;
      for (const MSemantics& ms : setup.sessions[s].out) {
        shifted.push_back(Shifted(ms, shift));
        engine.Ingest(shard, id, shifted.back(), &seq);
        sm.BufferIngest(shard, seq, id, shifted.back());
      }
      engine.NoteSessionClosed(shard, id, &seq);
      sm.BufferClose(shard, seq, id);
      corpus->Add(id, std::move(shifted));
    }
  }
  st = sm.Sync();
  ops->Note(st);
  if (!st.ok()) errors->push_back("WAL tail sync: " + st.ToString());
  *expected = AskEngine(engine, after);
  if (!(*expected == AskBatch(RetainedPart(*corpus, spec.shards), after))) {
    errors->push_back("polls after the WAL tail differ from batch eval/queries");
  }
}

RunResult RunWorkload(const WorkloadSpec& spec, const Setup& setup,
                      double seconds, bool traced, const std::string& workdir) {
  RunResult res;
  const std::string state_dir = workdir + (traced ? "/state-traced" : "/state");
  fs::remove_all(state_dir);

  auto service = std::make_unique<AnnotationService>(
      *setup.scenario.world, FeatureOptions{}, C2mnStructure{}, setup.weights,
      ServiceOptions(spec, state_dir, traced));
  res.ops.Note(service->storage_status());
  if (!service->storage_status().ok()) {
    res.errors.push_back("boot: " + service->storage_status().ToString());
    return res;
  }

  ThreadLogs logs;
  for (const StandingQuery& q : StandingQueries(spec)) {
    const Result<int> sub = service->SubscribeAnalytics(
        q, [&logs](const StandingQueryDelta&) {
          ShardThreadLog* log = logs.Local();
          if (log->last_inst == nullptr) return;  // Initial answer, no record.
          log->deltas.push_back({log->last_inst, log->last_emission, NowNs()});
        });
    res.ops.Note(sub.status());
  }

  std::deque<Instance> instances;
  const double records_per_cycle = static_cast<double>(setup.records_per_cycle);
  const double compression = spec.rate_rps * kCyclePeriod / records_per_cycle;
  const int cycles =
      std::max(1, static_cast<int>(std::lround(seconds * spec.rate_rps / records_per_cycle)));
  res.compression = spec.open_loop ? compression : 0.0;
  std::vector<int64_t> gen_due, gen_sent;
  if (spec.open_loop) {
    gen_due.reserve(static_cast<size_t>(cycles) * setup.schedule.size());
    gen_sent.reserve(gen_due.capacity());
  }
  std::vector<int64_t> submit_ns;
  submit_ns.reserve(static_cast<size_t>(cycles) * setup.records_per_cycle);

  const double cpu_start = CpuSeconds();
  const double gen_cpu_start = ThreadCpuSeconds();
  const int64_t start = NowNs() + 20000000;  // Let the reader start.
  const int64_t warm = start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  std::atomic<bool> done{false};
  std::atomic<double> sim_now{setup.t0};
  Reader reader;
  std::thread reader_thread([&] {
    ReaderLoop(setup, *service, sim_now, start, warm, done, &reader);
  });
  PreciseTimers();
  WaitUntil(start);

  for (int cycle = 0; cycle < cycles; ++cycle) {
    const double shift = cycle * kCyclePeriod;
    std::vector<Instance*> inst_of(setup.sessions.size(), nullptr);
    for (const Event& ev : setup.schedule) {
      const RefSession& ref = setup.sessions[static_cast<size_t>(ev.session)];
      const int64_t due =
          spec.open_loop
              ? start + static_cast<int64_t>((shift + ev.t - setup.t0) /
                                             compression * 1e9)
              : 0;
      Instance*& inst = inst_of[static_cast<size_t>(ev.session)];
      if (ev.idx == 0) {
        instances.emplace_back();
        inst = &instances.back();
        inst->ref = &ref;
        inst->id = cycle * kCycleIdStride + ev.session;
        inst->shift = shift;
        inst->offer_ns.assign(ref.seq->sequence.records.size(), 0);
        inst->emit_ns.assign(ref.out.size(), 0);
        ++res.sessions;
        if (spec.open_loop) WaitUntil(due);
        Instance* self = inst;
        res.ops.Note(service->OpenSession(
            inst->id, [self, &logs](int64_t, const MSemantics& ms) {
              const int64_t now = NowNs();
              const size_t j = self->received++;
              if (j >= self->ref->out.size() ||
                  !SameShifted(ms, self->ref->out[j], self->shift)) {
                self->mismatch = true;
                return;
              }
              self->emit_ns[j] = now;
              ShardThreadLog* log = logs.Local();
              log->last_inst = self;
              log->last_emission = static_cast<int32_t>(j);
            }));
      }
      if (spec.open_loop) WaitUntil(due);
      const int64_t sent = NowNs();
      if (spec.open_loop) {
        gen_due.push_back(due);
        gen_sent.push_back(sent);
      }
      const auto& recs = ref.seq->sequence.records;
      if (static_cast<size_t>(ev.idx) == recs.size()) {
        res.ops.Note(service->CloseSession(inst->id));
        continue;
      }
      PositioningRecord r = recs[static_cast<size_t>(ev.idx)];
      r.timestamp += shift;
      inst->offer_ns[static_cast<size_t>(ev.idx)] = sent;
      res.ops.Note(service->Submit(inst->id, r));
      submit_ns.push_back(NowNs() - sent);
      sim_now.store(r.timestamp, std::memory_order_relaxed);
      ++res.records;
    }
  }
  done.store(true, std::memory_order_release);
  reader_thread.join();
  service->Drain();
  const int64_t end = NowNs();
  res.service_cpu_s = CpuSeconds() - cpu_start -
                      (ThreadCpuSeconds() - gen_cpu_start) - reader.cpu_s;
  res.wall_s = static_cast<double>(end - start) * 1e-9;
  res.throughput_rps = static_cast<double>(res.records) / res.wall_s;
  // Simulated time at the end of the run, and after the recovery tail.
  const QuerySet end_q = QueriesAt(setup.regions, setup.t0 + cycles * kCyclePeriod);
  const QuerySet tail_q =
      QueriesAt(setup.regions, setup.t0 + (cycles + kRecoverTailCycles) * kCyclePeriod);

  // ---- output checks
  AnnotatedCorpus corpus;
  uint64_t region_ok = 0, event_ok = 0, labeled = 0;
  std::vector<TimedSample> emit_ms;
  emit_ms.reserve(instances.size() * 16);
  size_t mismatched = 0;
  for (const Instance& inst : instances) {
    if (inst.mismatch || inst.received != inst.ref->out.size()) {
      ++mismatched;
      continue;
    }
    MSemanticsSequence shifted;
    for (size_t j = 0; j < inst.ref->out.size(); ++j) {
      shifted.push_back(Shifted(inst.ref->out[j], inst.shift));
      const int64_t offer = inst.offer_ns[static_cast<size_t>(inst.ref->completing[j])];
      if (offer >= warm) {
        emit_ms.push_back({offer, static_cast<double>(inst.emit_ns[j] - offer) * 1e-6});
      }
    }
    corpus.Add(inst.id, std::move(shifted));
    region_ok += inst.ref->region_correct;
    event_ok += inst.ref->event_correct;
    labeled += inst.ref->seq->labels.size();
  }
  if (mismatched > 0) {
    res.errors.push_back(std::to_string(mismatched) +
                         " sessions' sink output differs from the standalone "
                         "OnlineAnnotator reference");
  }
  res.emissions = emit_ms.size();
  res.region_accuracy = labeled > 0 ? static_cast<double>(region_ok) / labeled : 0.0;
  res.event_accuracy = labeled > 0 ? static_cast<double>(event_ok) / labeled : 0.0;
  res.emit = SummarizeLatency(emit_ms);

  std::vector<TimedSample> delta_ms;
  for (const DeltaSample& d : logs.AllDeltas()) {
    const int64_t offer =
        d.inst->offer_ns[static_cast<size_t>(d.inst->ref->completing[static_cast<size_t>(d.emission)])];
    if (offer >= warm) delta_ms.push_back({offer, static_cast<double>(d.ns - offer) * 1e-6});
  }
  res.delta = SummarizeLatency(delta_ms);
  res.poll = SummarizeLatency(reader.preagg_ms);
  res.scan = SummarizeLatency(reader.scan_ms);
  res.ops.attempted += reader.polls;

  const Answers final_answers = AskEngine(*service->analytics(), end_q);
  if (!(final_answers == AskBatch(RetainedPart(corpus, spec.shards), end_q))) {
    res.errors.push_back("final polls differ from batch eval/queries over the collected corpus");
  }

  // ---- schedule health
  res.client_late = SummarizeLateness(reader.due, reader.sent);
  if (spec.open_loop) {
    res.gen_late = SummarizeLateness(gen_due, gen_sent);
    if (BacklogGrew(reader.depth_total, kBacklogSlack)) {
      res.valid = false;
      res.invalid_reasons.push_back("backlog grew through the run");
    }
  }
  if (res.gen_late.late_p99_ms > kLateLimitMs) {
    res.valid = false;
    res.invalid_reasons.push_back("generator p99 lateness " +
                                  Num(res.gen_late.late_p99_ms) + " ms > limit");
  }

  // ---- layer numbers the service exposes (traced run)
  const ServiceStats stats = service->Stats();
  res.queue_depth_max = reader.depth_max;
  res.batch_fill = stats.decode_batches > 0
                       ? static_cast<double>(stats.batched_decodes) / stats.decode_batches
                       : 0.0;
  for (const obs::MetricSnapshot& m : service->metrics_registry().Snapshot()) {
    if (m.name != "c2mn_pipeline_stage_seconds") continue;
    for (const auto& label : m.labels) {
      if (label.first == "stage") {
        res.stage_p99_ms[label.second] =
            m.histogram.count > 0 ? m.histogram.Quantile(0.99) * 1e3 : 0.0;
      }
    }
  }
  res.submit_us.reserve(submit_ns.size());
  for (int64_t ns : submit_ns) res.submit_us.push_back(static_cast<double>(ns) * 1e-3);
  service->Stop();
  service.reset();

  // ---- recovery of what the run left behind, plus a WAL tail
  Answers expected;
  PrepareRecoveryState(spec, setup, state_dir, cycles, end_q, final_answers, tail_q,
                       &corpus, &expected, &res.ops, &res.errors);
  std::vector<double> times;
  for (int i = 0; i < kRecoverRepeats; ++i) {
    times.push_back(TimedRecovery(spec, setup, state_dir, workdir + "/recover-run",
                                  tail_q, expected, &res.ops, &res.errors));
  }
  res.recover_s = Median(times);
  fs::remove_all(state_dir);
  return res;
}

// ---------------------------------------------------------------- ledger

/// Span names of the single-threaded layer replay.
enum LedgerSpan : int32_t {
  kRecord,
  kPushBuffered,
  kCompleteDecode,
  kFlush,
  kIngest,
  kClose,
  kAppend,
  kFlushShard,
  kSync,
  kCheckpoint,
  kPollPreaggRegions,
  kPollPreaggPairs,
  kScanRegions,
  kScanPairs,
  kRecover,
  kGraphRebuild,
  kCrfDecode,
};

std::vector<std::string> LedgerSpanNames() {
  return {"bench.record",          "core.push_buffered",
          "core.complete_decode",  "core.flush",
          "analytics.ingest",      "analytics.session_closed",
          "storage.append",        "storage.flush_shard",
          "storage.sync",          "storage.checkpoint",
          "analytics.poll_preagg_regions", "analytics.poll_preagg_pairs",
          "analytics.scan_regions",        "analytics.scan_pairs",
          "storage.recover",       "core.graph_rebuild",
          "crf.decode"};
}

struct Ledger {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> errors;
};

/// Replays one cycle of the workload through each layer's public calls,
/// single-threaded, with a span around every call.
void RunLedger(const WorkloadSpec& spec, const Setup& setup,
               const std::string& workdir, SpanRecorder* rec, Ledger* out) {
  auto put = [out](const std::string& name, double v, const char* unit) {
    out->metrics[name] = {v, unit};
  };
  const World& world = *setup.scenario.world;
  const std::string dir = workdir + "/ledger-state";
  fs::remove_all(dir);

  AnalyticsEngine engine(EngineOptions(spec.shards));
  storage::StorageManager::Options so;
  so.state_dir = dir;
  auto sm = std::make_unique<storage::StorageManager>(so, spec.shards);
  Status st = sm->Start();
  if (!st.ok()) {
    out->errors.push_back("ledger storage: " + st.ToString());
    return;
  }
  uint64_t deltas = 0;
  for (const StandingQuery& q : StandingQueries(spec)) {
    engine.Subscribe(q, [](const StandingQueryDelta&) {});
  }

  DecodeWorkspace ws;
  std::vector<std::unique_ptr<OnlineAnnotator>> annotators(setup.sessions.size());
  std::vector<MSemantics> emitted;
  std::vector<size_t> got(setup.sessions.size(), 0);  // Emissions per session.
  uint64_t mismatched = 0;
  uint64_t records = 0, ingests = 0, appended = 0;
  double log_bytes_per_record = 0.0;
  const size_t checkpoint_every = std::max<size_t>(1, setup.schedule.size() / 4);
  const int64_t cycle_id = kCycleIdStride * 900;  // Distinct from run ids.

  const int64_t t0 = NowNs();
  for (size_t e = 0; e < setup.schedule.size(); ++e) {
    const Event& ev = setup.schedule[e];
    const RefSession& ref = setup.sessions[static_cast<size_t>(ev.session)];
    const int64_t id = cycle_id + ev.session;
    const int shard = ShardFor(id, spec.shards);
    auto& ann = annotators[static_cast<size_t>(ev.session)];
    if (!ann) {
      ann = std::make_unique<OnlineAnnotator>(world, FeatureOptions{}, C2mnStructure{},
                                              setup.weights, spec.windows);
    }
    ScopedSpan rspan(rec, kRecord, -1, static_cast<int64_t>(e));
    const int32_t parent = rspan.index();
    const bool close = static_cast<size_t>(ev.idx) == ref.seq->sequence.records.size();
    if (close) {
      ScopedSpan s(rec, kFlush, parent, static_cast<int64_t>(e));
      ann->FlushInto(&ws, &emitted);
    } else {
      bool due = false;
      {
        ScopedSpan s(rec, kPushBuffered, parent, static_cast<int64_t>(e));
        due = ann->PushBuffered(ref.seq->sequence.records[static_cast<size_t>(ev.idx)]);
      }
      ++records;
      emitted.clear();
      if (due) {
        ScopedSpan s(rec, kCompleteDecode, parent, static_cast<int64_t>(e));
        ann->CompleteDecode(&ws, &emitted);
      }
    }
    for (const MSemantics& ms : emitted) {
      const size_t j = got[static_cast<size_t>(ev.session)]++;
      if (j >= ref.out.size() || !SameShifted(ms, ref.out[j], 0.0)) ++mismatched;
      uint64_t seq = 0;
      {
        ScopedSpan s(rec, kIngest, parent, static_cast<int64_t>(e));
        deltas += static_cast<uint64_t>(engine.Ingest(shard, id, ms, &seq));
      }
      ++ingests;
      ScopedSpan s(rec, kAppend, parent, static_cast<int64_t>(e));
      sm->BufferIngest(shard, seq, id, ms);
      ++appended;
    }
    if (close) {
      uint64_t seq = 0;
      {
        ScopedSpan s(rec, kClose, parent, static_cast<int64_t>(e));
        engine.NoteSessionClosed(shard, id, &seq);
      }
      ScopedSpan s(rec, kAppend, parent, static_cast<int64_t>(e));
      sm->BufferClose(shard, seq, id);
      ++appended;
      ann.reset();
    }
    if (e % 64 == 63) {
      for (int sh = 0; sh < spec.shards; ++sh) {
        ScopedSpan s(rec, kFlushShard, parent, static_cast<int64_t>(e));
        sm->FlushShard(sh);
      }
    }
    // Checkpoints after the first three quarters of the cycle, none at
    // the end: the last quarter stays in the WAL, so the recovery below
    // replays a log tail on top of the snapshot.
    if (e % checkpoint_every == checkpoint_every - 1 &&
        e + checkpoint_every < setup.schedule.size()) {
      if (log_bytes_per_record == 0.0) {
        // First checkpoint: everything appended so far is in the log.
        {
          ScopedSpan s(rec, kSync, parent, static_cast<int64_t>(e));
          st = sm->Sync();
        }
        if (!st.ok()) out->errors.push_back("ledger sync: " + st.ToString());
        if (appended > 0) {
          log_bytes_per_record =
              static_cast<double>(sm->log_bytes()) / appended;
        }
      }
      ScopedSpan s(rec, kCheckpoint, parent, static_cast<int64_t>(e));
      st = sm->Checkpoint(engine);
      if (!st.ok()) out->errors.push_back("ledger checkpoint: " + st.ToString());
    }
  }
  {
    ScopedSpan s(rec, kSync);
    st = sm->Sync();
  }
  if (!st.ok()) out->errors.push_back("ledger sync: " + st.ToString());
  const int64_t t1 = NowNs();
  const double ledger_wall_s = static_cast<double>(t1 - t0) * 1e-9;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != setup.sessions[i].out.size()) ++mismatched;
  }
  if (mismatched > 0) {
    out->errors.push_back("layer replay output differs from the reference decode");
  }

  const TimeWindow all = TimeWindow::All();
  const QuerySet queries = QueriesAt(setup.regions, setup.t0 + kCyclePeriod);
  for (int i = 0; i < 200; ++i) {
    {
      ScopedSpan s(rec, kPollPreaggRegions);
      engine.TopKPopularRegions(queries.regions, all, kTopK, kMinVisit);
    }
    {
      ScopedSpan s(rec, kPollPreaggPairs);
      engine.TopKFrequentRegionPairs(queries.regions, all, kTopK, kMinVisit);
    }
    if (i % 10 == 0) {
      ScopedSpan s(rec, kScanRegions);
      engine.TopKPopularRegions(queries.regions, queries.recent, kTopK,
                                kMinVisit);
    }
    if (i % 10 == 5) {
      ScopedSpan s(rec, kScanPairs);
      engine.TopKFrequentRegionPairs(queries.regions, queries.recent,
                                     kTopK, kMinVisit);
    }
  }
  const double snapshot_bytes = fs::exists(dir + "/snapshot.c2mn")
                                    ? static_cast<double>(fs::file_size(dir + "/snapshot.c2mn"))
                                    : 0.0;
  sm.reset();

  // Recovery of the state the ledger replay left behind.
  {
    AnalyticsEngine recovered(EngineOptions(spec.shards));
    const std::string rdir = workdir + "/ledger-recover";
    CopyDir(dir, rdir);
    storage::StorageManager::Options ro;
    ro.state_dir = rdir;
    storage::StorageManager rsm(ro, spec.shards);
    storage::RecoveryStats rs;
    double rsec = 0.0;
    {
      ScopedSpan span(rec, kRecover);
      const int64_t r0 = NowNs();
      st = rsm.Recover(&recovered, &rs);
      rsec = static_cast<double>(NowNs() - r0) * 1e-9;
    }
    if (!st.ok()) out->errors.push_back("ledger recover: " + st.ToString());
    if (rs.replayed_records == 0) out->errors.push_back("ledger recovery replayed no WAL tail");
    if (!(AskEngine(recovered, queries) == AskEngine(engine, queries))) {
      out->errors.push_back("ledger: recovered engine answers differ from the replayed engine's");
    }
    put("storage.recover_records_per_s",
        static_cast<double>(recovered.Snapshot().semantics_ingested) / rsec, "1/s");
    fs::remove_all(rdir);
  }
  fs::remove_all(dir);

  // Decode split on the decode policy's own windows: replicate the
  // OnlineAnnotator window/lag/stride schedule and time the graph build
  // and the CRF decode separately.
  C2mnAnnotator annotator(world, FeatureOptions{}, C2mnStructure{}, setup.weights);
  const OnlineAnnotator::Options w = spec.windows.Validated();
  const FeatureOptions fopts;
  SequenceGraph graph;
  PSequence window;
  std::vector<int> regions;
  std::vector<MobilityEvent> events;
  uint64_t pushed = 0, unrolled = 0;
  const auto decode = [&]() {
    {
      ScopedSpan s(rec, kGraphRebuild);
      graph.Rebuild(world, window, fopts, nullptr);
    }
    ScopedSpan s(rec, kCrfDecode);
    annotator.Decode(graph, &ws, &regions, &events);
    unrolled += window.records.size();
  };
  for (const RefSession& ref : setup.sessions) {
    window.records.clear();
    int since = 0;
    bool dirty = false;
    for (const PositioningRecord& r : ref.seq->sequence.records) {
      window.records.push_back(r);
      ++since;
      ++pushed;
      dirty = true;
      if (static_cast<int>(window.records.size()) >= w.window_records &&
          since >= w.decode_stride) {
        decode();
        window.records.erase(window.records.begin(),
                             window.records.end() - w.finalize_lag);
        since = 0;
        dirty = false;
      }
    }
    if (!window.records.empty() && dirty) decode();
  }

  // ---- aggregate
  const std::vector<SpanStats> stats = rec->Stats();
  const auto S = [&stats](LedgerSpan s) -> const SpanStats& { return stats[s]; };
  double layer_self_ns = 0.0;
  for (int s = kPushBuffered; s <= kCheckpoint; ++s) {
    layer_self_ns += static_cast<double>(stats[static_cast<size_t>(s)].self_ns);
  }
  std::vector<double> decode_ns = S(kCompleteDecode).durations_ns;
  decode_ns.insert(decode_ns.end(), S(kFlush).durations_ns.begin(), S(kFlush).durations_ns.end());
  const TailSummary dec = Summarize(decode_ns, 0.99);
  const TailSummary ing = Summarize(S(kIngest).durations_ns, 0.99);
  put("core.push_buffered_ns", Median(S(kPushBuffered).durations_ns), "ns");
  put("core.decode_us_p50", dec.p50 * 1e-3, "us");
  put("core.decode_us_p99", dec.tail * 1e-3, "us");
  put("core.decode_busy_s",
      static_cast<double>(S(kCompleteDecode).total_ns + S(kFlush).total_ns) * 1e-9, "s");
  const double graph_s = static_cast<double>(S(kGraphRebuild).total_ns) * 1e-9;
  const double crf_s = static_cast<double>(S(kCrfDecode).total_ns) * 1e-9;
  put("core.graph_rebuild_busy_s", graph_s, "s");
  put("crf.decode_busy_s", crf_s, "s");
  put("core.graph_share", graph_s / (graph_s + crf_s), "frac");
  put("core.records_unrolled_per_record",
      pushed > 0 ? static_cast<double>(unrolled) / pushed : 0.0, "ratio");
  put("analytics.ingest_ns_p50", ing.p50, "ns");
  put("analytics.ingest_ns_p99", ing.tail, "ns");
  put("analytics.deltas_per_kilo_ingest",
      ingests > 0 ? 1000.0 * static_cast<double>(deltas) / ingests : 0.0, "count");
  put("analytics.poll_preagg_regions_us", Median(S(kPollPreaggRegions).durations_ns) * 1e-3, "us");
  put("analytics.poll_preagg_pairs_us", Median(S(kPollPreaggPairs).durations_ns) * 1e-3, "us");
  put("analytics.scan_regions_ms", Median(S(kScanRegions).durations_ns) * 1e-6, "ms");
  put("analytics.scan_pairs_ms", Median(S(kScanPairs).durations_ns) * 1e-6, "ms");
  put("storage.append_ns", Median(S(kAppend).durations_ns), "ns");
  put("storage.flush_us", Median(S(kFlushShard).durations_ns) * 1e-3, "us");
  put("storage.sync_ms", Median(S(kSync).durations_ns) * 1e-6, "ms");
  put("storage.checkpoint_ms", Median(S(kCheckpoint).durations_ns) * 1e-6, "ms");
  put("storage.snapshot_bytes", snapshot_bytes, "bytes");
  put("storage.log_bytes_per_record", log_bytes_per_record, "bytes");
  put("ledger.single_thread_rps", static_cast<double>(records) / ledger_wall_s, "1/s");
  put("ledger.coverage", layer_self_ns * 1e-9 / ledger_wall_s, "frac");

  // Read stall: a writer ingests one more cycle while a reader scans the
  // whole retention back-to-back (the mismatched-threshold polls of the
  // output checks); the longest single Ingest is the stall ingest sees.
  std::atomic<bool> writing{true};
  std::thread reader([&] {
    while (writing.load(std::memory_order_acquire)) {
      engine.TopKPopularRegions(queries.regions, all, kTopK, kScanMinVisit);
      engine.TopKFrequentRegionPairs(queries.regions, all, kTopK, kScanMinVisit);
    }
  });
  int64_t stall_max = 0;
  for (size_t s = 0; s < setup.sessions.size(); ++s) {
    const int64_t id = cycle_id + kCycleIdStride + static_cast<int64_t>(s);
    const int shard = ShardFor(id, spec.shards);
    for (const MSemantics& ms : setup.sessions[s].out) {
      const int64_t a = NowNs();
      engine.Ingest(shard, id, Shifted(ms, kCyclePeriod));
      stall_max = std::max(stall_max, NowNs() - a);
    }
  }
  writing.store(false, std::memory_order_release);
  reader.join();
  put("analytics.ingest_stall_max_ms", static_cast<double>(stall_max) * 1e-6, "ms");
}

// ---------------------------------------------------------------- output

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".bench_build/run";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o->workload = v;
    else if (k == "--seed") o->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") o->trace = std::atoi(v.c_str());
    else if (k == "--workdir") o->workdir = v;
    else if (k == "--commit") o->commit = v;
    else if (k == "--source-digest") o->source_digest = v;
    else return false;
  }
  return (argc % 2) == 1 && !o->workload.empty() && o->seconds > 0.0 &&
         (o->trace == 0 || o->trace == 1);
}

class MetricsOut {
 public:
  void Put(const std::string& name, double v, const std::string& unit) {
    entries_.push_back({name, v, unit});
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) s += ", ";
      s += "\"" + entries_[i].name + "\": {\"value\": " + Num(entries_[i].v) +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return s + "}";
  }
  void Print() const {
    for (const auto& e : entries_) {
      std::printf("  %-40s %16.6g %s\n", e.name.c_str(), e.v, e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double v;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string TailJson(const TailSummary& t) {
  return "{\"n\": " + std::to_string(t.n) + ", \"segments\": " +
         std::to_string(t.segments) + ", \"p50_segments\": " +
         std::to_string(t.p50_segments) + ", \"p50\": " + Num(t.p50) +
         ", \"q\": " + Num(t.tail_q) + ", \"tail\": " + Num(t.tail) +
         ", \"supported\": " + (t.tail_supported ? "true" : "false") +
         ", \"highest_supported_q\": " + Num(t.highest_supported_q) + "}";
}

void WriteTrace(const std::string& path, const std::vector<const SpanRecorder*>& recs) {
  std::ofstream f(path);
  f << "recorder,name,parent,request,start_ns,end_ns\n";
  for (size_t r = 0; r < recs.size(); ++r) {
    for (const Span& s : recs[r]->spans()) {
      f << r << ',' << recs[r]->names()[static_cast<size_t>(s.name)] << ','
        << s.parent << ',' << s.request << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
}

int Main(int argc, char** argv) {
  const int64_t main_start = NowNs();
  Logger::Global().set_level(LogLevel::kWarning);
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--commit C] [--source-digest D]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::string workdir = opt.workdir + "/" + spec->name;
  fs::create_directories(workdir);

  // ---- setup, several times: setup_s is the median.
  std::vector<std::unique_ptr<Setup>> setups;
  std::vector<double> setup_s, generate_s, train_s;
  std::vector<std::string> errors;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(MakeSetup(*spec, opt.seed));
    setup_s.push_back(setups.back()->total_s);
    generate_s.push_back(setups.back()->generate_s);
    train_s.push_back(setups.back()->train_s);
    for (const std::string& e : setups.back()->errors) errors.push_back("setup: " + e);
    if (i > 0 && (setups[i]->weights != setups[0]->weights ||
                  setups[i]->records_per_cycle != setups[0]->records_per_cycle)) {
      errors.push_back("setup is not deterministic for a fixed seed");
    }
  }
  setups.resize(1);
  const Setup& setup = *setups[0];

  // The timed run.  A run flagged invalid (its open-loop schedule was not
  // honoured) is repeated while the time budget allows, so its latencies
  // stay out of the result; every attempt's output checks and operation
  // counts still count.
  RunResult run;
  OpCounts ops;
  int attempts = 0;
  std::vector<std::string> discarded;
  for (;;) {
    const int64_t attempt_start = NowNs();
    run = RunWorkload(*spec, setup, opt.seconds, false, workdir);
    ++attempts;
    for (const std::string& e : run.errors) errors.push_back("run: " + e);
    ops.Add(run.ops);
    if (run.valid || attempts >= kMaxAttempts) break;
    const double attempt_s = static_cast<double>(NowNs() - attempt_start) * 1e-9;
    const double elapsed_s = static_cast<double>(NowNs() - main_start) * 1e-9;
    // A traced run repeats the workload once more and adds the ledger.
    const double after_s = opt.trace == 1 ? 1.5 * attempt_s : 0.0;
    if (elapsed_s + attempt_s + after_s > kTimeBudgetSeconds) break;
    for (const std::string& r : run.invalid_reasons) {
      std::fprintf(stderr, "RUN INVALID, repeating: %s\n", r.c_str());
      discarded.push_back(r);
    }
  }

  MetricsOut metrics;
  std::string extra;
  if (opt.trace == 0) {
    metrics.Put("setup_s", Median(setup_s), "s");
    metrics.Put("throughput_rps", run.throughput_rps, "1/s");
    metrics.Put("region_accuracy", run.region_accuracy, "frac");
    metrics.Put("event_accuracy", run.event_accuracy, "frac");
    metrics.Put("emit_p50_ms", run.emit.p90.p50, "ms");
    metrics.Put("delta_p50_ms", run.delta.p90.p50, "ms");
    metrics.Put("poll_p50_ms", run.poll.p90.p50, "ms");
    metrics.Put("scan_p50_ms", run.scan.p90.p50, "ms");
    metrics.Put("ok_frac",
                ops.attempted > 0 ? 1.0 - static_cast<double>(ops.failed) / ops.attempted : 0.0,
                "frac");
    metrics.Put("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    RunResult traced = RunWorkload(*spec, setup, opt.seconds, true, workdir);
    for (const std::string& e : traced.errors) errors.push_back("traced run: " + e);
    ops.Add(traced.ops);
    SpanRecorder ledger_rec(LedgerSpanNames());
    Ledger ledger;
    RunLedger(*spec, setup, workdir, &ledger_rec, &ledger);
    for (const std::string& e : ledger.errors) errors.push_back("ledger: " + e);

    metrics.Put("sim.generate_s", Median(generate_s), "s");
    metrics.Put("core.train_s", Median(train_s), "s");
    for (const auto& [name, value] : ledger.metrics) {
      metrics.Put(name, value.first, value.second);
    }
    metrics.Put("service.submit_block_us_p99", Summarize(traced.submit_us, 0.99).tail, "us");
    metrics.Put("service.queue_depth_max", traced.queue_depth_max, "count");
    metrics.Put("service.batch_fill", traced.batch_fill, "ratio");
    for (const char* stage : {"queue_wait", "decode", "sink_emit", "analytics_ingest"}) {
      metrics.Put(std::string("service.stage.") + stage + "_p99_ms",
                  traced.stage_p99_ms[stage], "ms");
    }
    // Service-thread CPU per record, so the generator's and reader's
    // waits do not dilute the tracing cost.
    const double untraced_cpu = run.service_cpu_s / std::max<uint64_t>(1, run.records);
    const double traced_cpu = traced.service_cpu_s / std::max<uint64_t>(1, traced.records);
    metrics.Put("obs.trace_overhead_frac", traced_cpu / untraced_cpu - 1.0, "frac");
    // The schedules of the (untraced) timed run: the reader's and, on the
    // open loop, the record generator's.
    const bool open = spec->open_loop;
    metrics.Put("gen.late_p99_ms",
                std::max(run.gen_late.late_p99_ms, run.client_late.late_p99_ms), "ms");
    metrics.Put("gen.achieved_over_offered",
                open ? std::min(run.gen_late.achieved_over_offered,
                                run.client_late.achieved_over_offered)
                     : run.client_late.achieved_over_offered,
                "ratio");

    fs::create_directories(opt.workdir + "/traces");
    const std::string trace_path =
        opt.workdir + "/traces/" + spec->name + "-spans.csv";
    WriteTrace(trace_path, {&ledger_rec});
    extra = ", \"trace_file\": \"" + JsonEscape(trace_path) + "\"";
  }

  // ---- human-readable report and run metadata (not the result line)
  std::printf("workload %s (%s loop), seed %" PRIu64 ", %.0f s, trace %d\n",
              spec->name, spec->open_loop ? "open" : "closed", opt.seed,
              opt.seconds, opt.trace);
  metrics.Print();
  std::string reasons;
  for (const std::string& r : run.invalid_reasons) {
    reasons += (reasons.empty() ? "\"" : ", \"") + JsonEscape(r) + "\"";
  }
  std::string repeated;
  for (const std::string& r : discarded) {
    repeated += (repeated.empty() ? "\"" : ", \"") + JsonEscape(r) + "\"";
  }
  std::string samples;
  for (const auto& [name, l] : {std::pair<std::string, const Latency*>{"emit_ms", &run.emit},
                                {"delta_ms", &run.delta},
                                {"poll_ms", &run.poll},
                                {"scan_ms", &run.scan}}) {
    samples += std::string(samples.empty() ? "" : ", ") + "\"" + name + "_p90\": " +
               TailJson(l->p90) + ", \"" + name + "_p95\": " + TailJson(l->p95) +
               ", \"" + name + "_p99\": " + TailJson(l->p99);
  }
  std::string errs;
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    errs += (errs.empty() ? "\"" : ", \"") + JsonEscape(e) + "\"";
  }
  if (!run.valid) std::fprintf(stderr, "RUN INVALID: %s\n", reasons.c_str());
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"run_seconds\": %s, \"shards\": %d, \"windows\": [%d, %d, %d], "
      "\"loop\": \"%s\", \"rate_rps\": %s, \"compression\": %s, "
      "\"viewers\": %d, \"refresh_s\": %s, \"standing_queries\": %zu, "
      "\"checkpoint_interval_s\": %s, "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"records\": %" PRIu64 ", \"sessions\": %" PRIu64 ", \"emissions\": %" PRIu64
      ", \"wall_s\": %s, \"samples\": {%s}, \"setup_s\": [%s, %s, %s], "
      "\"recover_s\": %s, \"gen_late_p99_ms\": %s, \"reader_late_p99_ms\": %s, "
      "\"valid\": %s, \"invalid_reasons\": [%s], \"attempts\": %d, "
      "\"repeated_for\": [%s], \"errors\": [%s]%s}}\n",
      spec->name, opt.seed, Num(opt.seconds).c_str(), spec->shards,
      spec->windows.window_records, spec->windows.finalize_lag,
      spec->windows.decode_stride, spec->open_loop ? "open" : "closed",
      Num(spec->rate_rps).c_str(), Num(run.compression).c_str(), kViewers,
      Num(kRefreshSeconds).c_str(), StandingQueries(*spec).size(),
      Num(spec->checkpoint_interval_s).c_str(), std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      simd::LevelName(simd::ActiveLevel()), PERFBENCH_BUILD_TYPE,
      JsonEscape(opt.commit).c_str(), JsonEscape(opt.source_digest).c_str(),
      run.records, run.sessions, run.emissions, Num(run.wall_s).c_str(),
      samples.c_str(),
      Num(setup_s[0]).c_str(), Num(setup_s[1]).c_str(), Num(setup_s[2]).c_str(),
      Num(run.recover_s).c_str(), Num(run.gen_late.late_p99_ms).c_str(),
      Num(run.client_late.late_p99_ms).c_str(),
      run.valid ? "true" : "false", reasons.c_str(), attempts, repeated.c_str(),
      errs.c_str(), extra.c_str());

  const bool correct = errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", std::max<uint64_t>(1, ops.attempted),
              ops.failed, metrics.Json().c_str());
  std::fflush(stdout);
  fs::remove_all(workdir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
