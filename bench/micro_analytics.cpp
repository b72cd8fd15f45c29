// Micro-benchmarks of the streaming analytics engine (google-benchmark).
//
// BM_Ingest measures the per-m-semantics cost of the shard-local
// accumulators (visit counters, dwell histogram, flow matrix, occupancy,
// retention ring, pre-aggregation sketch) — the overhead the
// AnnotationService pays per emission when AnalyticsOptions::enabled is
// set.  BM_IngestEvicting drives a deliberately tiny retention horizon
// so every few ingests recycle a ring bucket.  The read side runs both
// top-k paths against the same pre-loaded engine:
// BM_TopK*PreAgg answers from the incrementally maintained per-shard
// sketches via the bounded threshold merge over their cached sorted
// views (the warm path a poll loop sees), BM_TopKFrequentRegionPairsMerge
// ingests one visit per iteration so every poll pays the sorted-view
// rebuild too (the cold path under live ingest), and BM_TopK*Scan forces
// the fallback that re-evaluates the predicate over every retained
// visit — preagg vs. scan is the pre-aggregation win.
// BM_StandingQueryPush measures the ingest path with a standing
// continuous query subscribed, reporting how long a delta push takes end
// to end; BM_SlidingWindowAdvance does the same with a trailing-window
// standing query, so each ingest pays watermark rotation + window expiry
// on top of the sketch update.
//
// Results are emitted as machine-readable JSON (default
// BENCH_analytics.json in the working directory; override with
// C2MN_BENCH_JSON).  Scale knob: C2MN_BENCH_ANALYTICS_VISITS (retained
// visits the query benchmarks run against, default 100000).
//
// Everything here is synthetic m-semantics — no venue, no training — so
// the binary starts instantly and isolates the engine's own costs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "analytics/analytics_engine.h"
#include "bench/bench_json.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/streaming_histogram.h"

namespace c2mn {
namespace {

constexpr int kRegions = 64;
constexpr int kObjects = 512;

/// A deterministic synthetic m-semantics stream: objects hop between
/// regions, alternating stays and passes, timestamps advancing so the
/// retention ring sees realistic watermark movement.
struct SyntheticStream {
  std::vector<int64_t> object_ids;
  std::vector<MSemantics> semantics;
  /// Largest clock reached; replaying the stream again shifted by this
  /// keeps timestamps advancing instead of jumping behind the watermark.
  double span_seconds = 0.0;

  explicit SyntheticStream(size_t n, double seconds_per_step = 30.0) {
    Rng rng(1234);
    object_ids.reserve(n);
    semantics.reserve(n);
    std::vector<double> clocks(kObjects, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const int64_t object = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(kObjects)));
      double& clock = clocks[static_cast<size_t>(object)];
      MSemantics ms;
      ms.region = static_cast<RegionId>(rng.UniformInt(static_cast<uint64_t>(kRegions)));
      ms.event = rng.Bernoulli(0.5) ? MobilityEvent::kStay
                                             : MobilityEvent::kPass;
      ms.t_start = clock;
      ms.t_end = clock + rng.Uniform(5.0, seconds_per_step);
      ms.support = 1;
      clock = ms.t_end;
      span_seconds = std::max(span_seconds, clock);
      object_ids.push_back(object);
      semantics.push_back(ms);
    }
  }
};

/// Replays `stream` through `engine` for the benchmark's duration,
/// shifting each pass forward in time so the watermark keeps advancing
/// (a plain wrap-around would land every record behind the retention
/// horizon and measure only the late-dropped early-return).
void RunIngestLoop(benchmark::State& state, const SyntheticStream& stream,
                   AnalyticsEngine* engine) {
  size_t i = 0;
  double offset = 0.0;
  const size_t n = stream.semantics.size();
  for (auto _ : state) {
    MSemantics ms = stream.semantics[i];
    ms.t_start += offset;
    ms.t_end += offset;
    engine->Ingest(stream.object_ids[i], ms);
    if (++i == n) {
      i = 0;
      offset += stream.span_seconds;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

AnalyticsEngine::Options EngineOptions(int shards) {
  AnalyticsEngine::Options options;
  options.num_shards = shards;
  options.bucket_seconds = 60.0;
  options.horizon_seconds = 1e9;  // Nothing ages out mid-benchmark.
  options.min_visit_seconds = 10.0;
  return options;
}

/// Ingest cost per m-semantics, single producer, `shards` shards.
void BM_Ingest(benchmark::State& state) {
  static const SyntheticStream& stream = *new SyntheticStream(1 << 16);
  const int shards = static_cast<int>(state.range(0));
  AnalyticsEngine engine(EngineOptions(shards));
  RunIngestLoop(state, stream, &engine);
}
BENCHMARK(BM_Ingest)->Arg(1)->Arg(4);

/// Ingest with constant retention churn: a horizon of a few buckets, so
/// the watermark advance recycles ring slots throughout.
void BM_IngestEvicting(benchmark::State& state) {
  static const SyntheticStream& stream = *new SyntheticStream(1 << 16, 120.0);
  AnalyticsEngine::Options options = EngineOptions(1);
  options.bucket_seconds = 30.0;
  options.horizon_seconds = 300.0;
  AnalyticsEngine engine(options);
  RunIngestLoop(state, stream, &engine);
}
BENCHMARK(BM_IngestEvicting);

/// A fresh 4-shard engine pre-loaded with C2MN_BENCH_ANALYTICS_VISITS
/// retained stays; `stream` (when non-null) receives the stream it was
/// loaded from so callers can keep replaying it.
AnalyticsEngine* MakeLoadedEngine(const SyntheticStream** stream) {
  const size_t n =
      static_cast<size_t>(EnvInt("C2MN_BENCH_ANALYTICS_VISITS", 100000));
  static const SyntheticStream& load = *new SyntheticStream(n);
  auto* e = new AnalyticsEngine(EngineOptions(4));
  for (size_t i = 0; i < load.semantics.size(); ++i) {
    e->Ingest(load.object_ids[i], load.semantics[i]);
  }
  if (stream != nullptr) *stream = &load;
  return e;
}

/// The shared read-only pre-loaded engine (the mutating merge benchmark
/// loads its own copy so this one's retained set stays fixed).
AnalyticsEngine& LoadedEngine() {
  static AnalyticsEngine* engine = MakeLoadedEngine(nullptr);
  return *engine;
}

std::vector<RegionId> AllRegions() {
  std::vector<RegionId> regions;
  for (int r = 0; r < kRegions; ++r) regions.push_back(r);
  return regions;
}

/// Served by the pre-aggregated sketches: min_visit matches the
/// engine's maintained threshold and the window covers every retained
/// visit.  Aborts if the fast path was not actually taken — the
/// benchmark exists to track that win, not a silent fallback.
void BM_TopKPopularRegionsPreAgg(benchmark::State& state) {
  AnalyticsEngine& engine = LoadedEngine();
  const std::vector<RegionId> regions = AllRegions();
  const TimeWindow window{0.0, 1e18};
  const AnalyticsSnapshot before = engine.Snapshot();
  for (auto _ : state) {
    auto top = engine.TopKPopularRegions(regions, window, 10, 10.0);
    benchmark::DoNotOptimize(top);
  }
  const AnalyticsSnapshot after = engine.Snapshot();
  // Per-kind guard: the *region* polls specifically must have taken the
  // merge path, and none may have leaked to the scan.
  if (after.preagg_region_queries == before.preagg_region_queries ||
      after.scan_region_queries != before.scan_region_queries) {
    std::fprintf(stderr,
                 "BM_TopKPopularRegionsPreAgg did not hit the "
                 "pre-aggregated region path\n");
    std::abort();
  }
  state.counters["retained_visits"] = static_cast<double>(
      engine.Snapshot().retained_visits);
}
BENCHMARK(BM_TopKPopularRegionsPreAgg);

/// The scan fallback over the same engine and window: a min_visit that
/// differs from the maintained spec forces the predicate re-evaluation
/// over every retained visit.  PreAgg time vs. this is the headline
/// ratio.
void BM_TopKPopularRegionsScan(benchmark::State& state) {
  AnalyticsEngine& engine = LoadedEngine();
  const std::vector<RegionId> regions = AllRegions();
  const TimeWindow window{0.0, 1e18};
  for (auto _ : state) {
    auto top = engine.TopKPopularRegions(regions, window, 10, 9.999);
    benchmark::DoNotOptimize(top);
  }
  state.counters["retained_visits"] = static_cast<double>(
      engine.Snapshot().retained_visits);
}
BENCHMARK(BM_TopKPopularRegionsScan);

void BM_TopKFrequentRegionPairsPreAgg(benchmark::State& state) {
  AnalyticsEngine& engine = LoadedEngine();
  const std::vector<RegionId> regions = AllRegions();
  const TimeWindow window{0.0, 1e18};
  const AnalyticsSnapshot before = engine.Snapshot();
  for (auto _ : state) {
    auto top = engine.TopKFrequentRegionPairs(regions, window, 10, 10.0);
    benchmark::DoNotOptimize(top);
  }
  const AnalyticsSnapshot after = engine.Snapshot();
  // Per-kind guard: the *pair* polls specifically must have taken the
  // merge path — the old combined counter could not tell a fast pair
  // poll from a fast region poll.
  if (after.preagg_pair_queries == before.preagg_pair_queries ||
      after.scan_pair_queries != before.scan_pair_queries) {
    std::fprintf(stderr,
                 "BM_TopKFrequentRegionPairsPreAgg did not hit the "
                 "pre-aggregated pair path\n");
    std::abort();
  }
  state.counters["retained_visits"] = static_cast<double>(
      engine.Snapshot().retained_visits);
}
BENCHMARK(BM_TopKFrequentRegionPairsPreAgg);

/// The pair merge under live ingest: one visit lands between polls, so
/// every poll pays the per-shard sorted-view rebuild before the bounded
/// threshold merge (the PreAgg benchmark above amortizes the rebuild
/// away via the sketch's cache).
void BM_TopKFrequentRegionPairsMerge(benchmark::State& state) {
  static const SyntheticStream* stream = nullptr;
  static AnalyticsEngine* engine = MakeLoadedEngine(&stream);
  const std::vector<RegionId> regions = AllRegions();
  const TimeWindow window{0.0, 1e18};
  const AnalyticsSnapshot before = engine->Snapshot();
  size_t i = 0;
  double offset = stream->span_seconds;
  for (auto _ : state) {
    state.PauseTiming();
    MSemantics ms = stream->semantics[i];
    ms.t_start += offset;
    ms.t_end += offset;
    engine->Ingest(stream->object_ids[i], ms);
    if (++i == stream->semantics.size()) {
      i = 0;
      offset += stream->span_seconds;
    }
    state.ResumeTiming();
    auto top = engine->TopKFrequentRegionPairs(regions, window, 10, 10.0);
    benchmark::DoNotOptimize(top);
  }
  const AnalyticsSnapshot after = engine->Snapshot();
  if (after.preagg_pair_queries == before.preagg_pair_queries ||
      after.scan_pair_queries != before.scan_pair_queries) {
    std::fprintf(stderr,
                 "BM_TopKFrequentRegionPairsMerge did not hit the "
                 "pre-aggregated pair path\n");
    std::abort();
  }
  state.counters["retained_visits"] =
      static_cast<double>(after.retained_visits);
}
BENCHMARK(BM_TopKFrequentRegionPairsMerge);

void BM_TopKFrequentRegionPairsScan(benchmark::State& state) {
  AnalyticsEngine& engine = LoadedEngine();
  const std::vector<RegionId> regions = AllRegions();
  const TimeWindow window{0.0, 1e18};
  for (auto _ : state) {
    auto top = engine.TopKFrequentRegionPairs(regions, window, 10, 9.999);
    benchmark::DoNotOptimize(top);
  }
}
BENCHMARK(BM_TopKFrequentRegionPairsScan);

/// Ingest with a standing top-10 subscribed: every m-semantics pays the
/// incremental sketch update, and answer-set changes push a delta.  The
/// counters report how many deltas fired and the p50/p99 time from the
/// Ingest call to the callback's return — the engine-side half of the
/// service's submit-to-push latency.
void BM_StandingQueryPush(benchmark::State& state) {
  static const SyntheticStream& stream = *new SyntheticStream(1 << 16);
  AnalyticsEngine engine(EngineOptions(1));
  StandingQuery standing;
  standing.spec.all_regions = true;
  standing.spec.min_visit_seconds = 10.0;
  standing.k = 10;
  StreamingHistogram push_latency(1e-9, 1.0, 1.5);
  std::chrono::steady_clock::time_point ingest_start;
  uint64_t deltas = 0;
  engine.Subscribe(standing, [&](const StandingQueryDelta&) {
    ++deltas;
    push_latency.Add(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - ingest_start)
                         .count());
  });
  size_t i = 0;
  double offset = 0.0;
  const size_t n = stream.semantics.size();
  for (auto _ : state) {
    MSemantics ms = stream.semantics[i];
    ms.t_start += offset;
    ms.t_end += offset;
    ingest_start = std::chrono::steady_clock::now();
    engine.Ingest(stream.object_ids[i], ms);
    if (++i == n) {
      i = 0;
      offset += stream.span_seconds;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["deltas"] = static_cast<double>(deltas);
  state.counters["push_p50_us"] = push_latency.Quantile(0.5) * 1e6;
  state.counters["push_p99_us"] = push_latency.Quantile(0.99) * 1e6;
}
BENCHMARK(BM_StandingQueryPush);

/// Ingest with a sliding-window standing top-10 subscribed (trailing
/// 600 s over 60 s buckets): each retained stay rotates the trailing
/// window on watermark advance, expires visits that slid out, and
/// pushes a delta when the in-window answer changed.  The rotation /
/// expiry counters verify the window actually slid during the run.
void BM_SlidingWindowAdvance(benchmark::State& state) {
  static const SyntheticStream& stream = *new SyntheticStream(1 << 16);
  AnalyticsEngine engine(EngineOptions(1));
  StandingQuery standing;
  standing.spec.all_regions = true;
  standing.spec.min_visit_seconds = 10.0;
  standing.k = 10;
  standing.trailing_seconds = 600.0;
  uint64_t deltas = 0;
  engine.Subscribe(standing,
                   [&deltas](const StandingQueryDelta&) { ++deltas; });
  size_t i = 0;
  double offset = 0.0;
  const size_t n = stream.semantics.size();
  for (auto _ : state) {
    MSemantics ms = stream.semantics[i];
    ms.t_start += offset;
    ms.t_end += offset;
    engine.Ingest(stream.object_ids[i], ms);
    if (++i == n) {
      i = 0;
      offset += stream.span_seconds;
    }
  }
  state.SetItemsProcessed(state.iterations());
  const AnalyticsSnapshot snap = engine.Snapshot();
  // Calibration passes run a handful of iterations — too few to cross a
  // 60 s bucket boundary.  Only enforce rotation on real runs.
  if (state.iterations() >= 10000 && snap.window_rotations == 0) {
    std::fprintf(stderr,
                 "BM_SlidingWindowAdvance: the trailing window never "
                 "rotated\n");
    std::abort();
  }
  state.counters["deltas"] = static_cast<double>(deltas);
  state.counters["rotations"] = static_cast<double>(snap.window_rotations);
  state.counters["expired"] =
      static_cast<double>(snap.window_expired_visits);
}
BENCHMARK(BM_SlidingWindowAdvance);

void BM_Snapshot(benchmark::State& state) {
  AnalyticsEngine& engine = LoadedEngine();
  for (auto _ : state) {
    AnalyticsSnapshot snapshot = engine.Snapshot();
    benchmark::DoNotOptimize(snapshot.regions.size());
  }
}
BENCHMARK(BM_Snapshot);

void WriteJson(const std::string& path,
               const std::vector<bench::CapturedRun>& runs) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n";
  out << "  \"benchmark\": \"micro_analytics\",\n";
  bench::WriteMachine(out);
  out << ",\n";
  bench::WriteRunsArray(out, runs,
                        [](std::ostream&, const bench::CapturedRun&) {});
  out << "\n";
  out << "}\n";
}

}  // namespace
}  // namespace c2mn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  c2mn::bench::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const char* json_path = std::getenv("C2MN_BENCH_JSON");
  c2mn::WriteJson(json_path != nullptr ? json_path : "BENCH_analytics.json",
                  reporter.runs());
  return 0;
}
