// Micro-benchmarks of the observability substrate (google-benchmark).
//
// Three questions, answered in BENCH_observability.json:
//   1. What does one metric write cost?  Counter::Increment, Gauge::Set/
//      Add, Histogram::Observe, and a full per-record trace span
//      (Start + 4 FinishStage + PipelineTracer::Record) are timed
//      individually, single-threaded and contended.
//   2. Do metric writes allocate?  A counting global operator new checks
//      that steady-state writes perform ZERO heap allocations (the
//      process exits non-zero if that breaks — metrics must fit inside
//      the decode path's zero-alloc invariant).
//   3. What does tracing cost end to end?  The same stream replays
//      through an AnnotationService with stage tracing off and on; the
//      JSON records both throughputs and the delta fraction (the
//      acceptance budget is 5%).
// Default output BENCH_observability.json; override with C2MN_BENCH_JSON.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "common/logging.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "obs/metrics_registry.h"
#include "obs/pipeline_trace.h"
#include "service/annotation_service.h"
#include "sim/scenarios.h"

// ---------------------------------------------------------------------------
// Counting allocator (same pattern as micro_inference): every global
// new/delete bumps a relaxed atomic so per-operation deltas are exact.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace c2mn {
namespace {

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

// ------------------------------------------------------------ per-op cost

void BM_CounterIncrement(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  static obs::Counter* counter =
      registry.GetCounter("c2mn_bench_total", "bench");
  for (auto _ : state) counter->Increment();
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_CounterIncrement);

/// Contended increments: the striped cells should keep per-op cost flat
/// as threads are added (each thread folds into its own cache line).
void BM_CounterIncrementContended(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  static obs::Counter* counter =
      registry.GetCounter("c2mn_bench_contended_total", "bench");
  for (auto _ : state) counter->Increment();
  if (state.thread_index() == 0) benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_CounterIncrementContended)->Threads(4);

void BM_GaugeSet(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  static obs::Gauge* gauge = registry.GetGauge("c2mn_bench_gauge", "bench");
  double v = 0.0;
  for (auto _ : state) gauge->Set(v += 1.0);
  benchmark::DoNotOptimize(gauge->Value());
}
BENCHMARK(BM_GaugeSet);

void BM_GaugeAdd(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  static obs::Gauge* gauge = registry.GetGauge("c2mn_bench_gauge2", "bench");
  for (auto _ : state) gauge->Add(0.5);
  benchmark::DoNotOptimize(gauge->Value());
}
BENCHMARK(BM_GaugeAdd);

void BM_HistogramObserve(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  static obs::Histogram* hist = registry.GetHistogram(
      "c2mn_bench_seconds", "bench", obs::Histogram::Config{1e-9, 1e3, 2.0});
  // Cycle across buckets so the log + fetch_add path is not trivially
  // branch-predicted into one cache line.
  static const double kValues[] = {3e-7, 1.1e-4, 2.9e-3, 8e-2, 0.7, 4.2};
  size_t i = 0;
  for (auto _ : state) hist->Observe(kValues[i++ % 6]);
  benchmark::DoNotOptimize(hist->count());
}
BENCHMARK(BM_HistogramObserve);

/// The full per-record tracing cost the service pays: re-arm a span,
/// close all four stages, fold it into the histograms.  This is an upper
/// bound — in the pipeline the clock reads double as the latency
/// measurement the legacy stats needed anyway.
void BM_SpanRecord(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  static obs::PipelineTracer tracer(&registry, obs::PipelineTracer::Options{});
  obs::PipelineTracer::Span span;
  for (auto _ : state) {
    span.Start(std::chrono::steady_clock::now());
    span.FinishStage(obs::PipelineStage::kQueueWait);
    span.FinishStage(obs::PipelineStage::kDecode);
    span.FinishStage(obs::PipelineStage::kSinkEmit);
    span.FinishStage(obs::PipelineStage::kAnalyticsIngest);
    tracer.Record(span, /*object_id=*/1, /*shard=*/0);
  }
}
BENCHMARK(BM_SpanRecord);

/// Re-registration (the slow path subsystems hit once per constructor):
/// a mutex + map lookup, for contrast with the wait-free writes above.
void BM_RegistryLookup(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  registry.GetCounter("c2mn_bench_lookup_total", "bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.GetCounter("c2mn_bench_lookup_total", "bench"));
  }
}
BENCHMARK(BM_RegistryLookup);

// ------------------------------------------------- zero-alloc write check

struct WriteAllocStats {
  uint64_t writes_checked = 0;
  uint64_t allocs = 0;  // Must be 0.
};

/// Registers one metric of each kind plus a tracer (registration is the
/// allocating slow path, done once here), then verifies that a long run
/// of steady-state writes performs exactly zero heap allocations.
WriteAllocStats RunWriteAllocCheck() {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c2mn_check_total", "check");
  obs::Gauge* gauge = registry.GetGauge("c2mn_check_gauge", "check");
  obs::Histogram* hist = registry.GetHistogram(
      "c2mn_check_seconds", "check", obs::Histogram::Config{1e-9, 1e3, 2.0});
  obs::PipelineTracer tracer(&registry, obs::PipelineTracer::Options{});
  obs::PipelineTracer::Span span;
  // One write each first: the thread's stripe ordinal is assigned on
  // first use and must not count against the steady state.
  counter->Increment();
  gauge->Set(1.0);
  hist->Observe(1e-4);
  span.Start(std::chrono::steady_clock::now());
  tracer.Record(span, 0, 0);

  WriteAllocStats stats;
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100000; ++i) {
    counter->Increment();
    gauge->Set(static_cast<double>(i));
    gauge->Add(0.25);
    hist->Observe(1e-6 * (1 + i % 1000));
    span.Start(std::chrono::steady_clock::now());
    span.FinishStage(obs::PipelineStage::kQueueWait);
    span.FinishStage(obs::PipelineStage::kDecode);
    tracer.Record(span, i, 0);
    stats.writes_checked += 6;
  }
  stats.allocs = AllocCount() - before;
  return stats;
}

// ------------------------------------------- end-to-end tracing overhead

struct TracingOverhead {
  uint64_t records = 0;
  double off_records_per_sec = 0.0;
  double on_records_per_sec = 0.0;
  /// (off - on) / off; positive means tracing costs throughput.
  double delta_frac = 0.0;
};

struct ServiceState {
  Scenario scenario;
  std::vector<double> weights;
  std::vector<std::vector<PositioningRecord>> sources;

  static ServiceState& Get() {
    static ServiceState* state = [] {
      auto* s = new ServiceState();
      ScenarioOptions options;
      options.num_objects = 40;
      options.seed = 7;
      s->scenario = MakeMallScenario(options);
      Rng rng(11);
      const TrainTestSplit split = SplitDataset(s->scenario.dataset, 0.7, &rng);
      TrainOptions topts;
      topts.max_iter = 12;
      topts.mcmc_samples = 15;
      AlternateTrainer trainer(*s->scenario.world, FeatureOptions{},
                               C2mnStructure{}, topts);
      s->weights = trainer.Train(split.train).weights;
      for (const LabeledSequence& ls : s->scenario.dataset.sequences) {
        std::vector<PositioningRecord> records = ls.sequence.records;
        if (records.size() > 200) records.resize(200);
        s->sources.push_back(std::move(records));
      }
      return s;
    }();
    return *state;
  }
};

/// Replays every source through a fresh service and returns the wall
/// seconds from first Submit to Drain returning.
double ReplayOnce(bool stage_tracing, uint64_t* records_out) {
  ServiceState& s = ServiceState::Get();
  constexpr int kObjects = 48;
  AnnotationService::Options options;
  options.num_shards = 4;
  options.queue_capacity = 1024;
  options.annotator.window_records = 24;
  options.annotator.finalize_lag = 6;
  options.annotator.decode_stride = 4;
  options.obs.stage_tracing = stage_tracing;
  AnnotationService service(*s.scenario.world, FeatureOptions{},
                            C2mnStructure{}, s.weights, options);
  uint64_t records = 0;
  for (int64_t id = 0; id < kObjects; ++id) {
    service.OpenSession(id, [](int64_t, const MSemantics&) {});
  }
  const auto start = std::chrono::steady_clock::now();
  const size_t longest =
      std::max_element(s.sources.begin(), s.sources.end(),
                       [](const auto& a, const auto& b) {
                         return a.size() < b.size();
                       })
          ->size();
  // Round-robin across sessions so every shard queue stays busy.
  for (size_t i = 0; i < longest; ++i) {
    for (int64_t id = 0; id < kObjects; ++id) {
      const auto& source = s.sources[id % s.sources.size()];
      if (i < source.size()) {
        service.Submit(id, source[i]);
        ++records;
      }
    }
  }
  for (int64_t id = 0; id < kObjects; ++id) service.CloseSession(id);
  service.Drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (records_out != nullptr) *records_out = records;
  return seconds;
}

TracingOverhead RunTracingOverhead() {
  TracingOverhead result;
  // Interleave off/on runs and keep each config's best time, damping
  // one-off scheduler noise without a long measurement campaign.
  double best_off = 1e300;
  double best_on = 1e300;
  for (int round = 0; round < 3; ++round) {
    best_off = std::min(best_off, ReplayOnce(false, &result.records));
    best_on = std::min(best_on, ReplayOnce(true, &result.records));
  }
  result.off_records_per_sec = static_cast<double>(result.records) / best_off;
  result.on_records_per_sec = static_cast<double>(result.records) / best_on;
  result.delta_frac = (best_on - best_off) / best_off;
  return result;
}

// --------------------------------------------------------- JSON emission

using bench::CapturedRun;
using bench::EscapeJson;

void WriteJson(const std::string& path, const std::vector<CapturedRun>& runs,
               const WriteAllocStats& alloc_stats,
               const TracingOverhead& overhead) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n";
  out << "  \"benchmark\": \"micro_obs\",\n";
  bench::WriteMachine(out);
  out << ",\n";
  out << "  \"metric_write_allocs\": {\n";
  out << "    \"writes_checked\": " << alloc_stats.writes_checked << ",\n";
  out << "    \"allocs\": " << alloc_stats.allocs << "\n";
  out << "  },\n";
  out << "  \"tracing_overhead\": {\n";
  out << "    \"records\": " << overhead.records << ",\n";
  out << "    \"off_records_per_sec\": " << overhead.off_records_per_sec
      << ",\n";
  out << "    \"on_records_per_sec\": " << overhead.on_records_per_sec
      << ",\n";
  out << "    \"delta_frac\": " << overhead.delta_frac << "\n";
  out << "  },\n";
  bench::WriteRunsArray(out, runs, [](std::ostream&, const CapturedRun&) {});
  out << "\n";
  out << "}\n";
}

}  // namespace
}  // namespace c2mn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  c2mn::Logger::Global().set_level(c2mn::LogLevel::kOff);

  const c2mn::WriteAllocStats alloc_stats = c2mn::RunWriteAllocCheck();

  c2mn::bench::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const c2mn::TracingOverhead overhead = c2mn::RunTracingOverhead();

  const char* json_path = std::getenv("C2MN_BENCH_JSON");
  c2mn::WriteJson(
      json_path != nullptr ? json_path : "BENCH_observability.json",
      reporter.runs(), alloc_stats, overhead);

  if (alloc_stats.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state metric writes allocated (%llu "
                 "allocations over %llu writes; expected 0)\n",
                 static_cast<unsigned long long>(alloc_stats.allocs),
                 static_cast<unsigned long long>(alloc_stats.writes_checked));
    return 1;
  }
  std::printf(
      "metric write check: 0 allocations over %llu writes\n"
      "tracing overhead: %.0f rec/s off, %.0f rec/s on (delta %.2f%%)\n",
      static_cast<unsigned long long>(alloc_stats.writes_checked),
      overhead.off_records_per_sec, overhead.on_records_per_sec,
      overhead.delta_frac * 100.0);
  return 0;
}
