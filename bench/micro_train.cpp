// Micro-benchmarks of the alternating trainer (google-benchmark).
//
// BM_Train sweeps training-set size x worker-thread count over
// AlternateTrainer::Train, the Algorithm-1 hot loop: per-sequence MCMC
// sampling and gradient accumulation sharded over a worker pool.  Because
// every sequence owns its RNG stream and the reduction order is fixed, the
// learned weights are bit-identical for every thread count — this binary
// re-verifies that invariant at startup (1 vs 2 vs 4 threads) and exits
// non-zero if it ever breaks, so the CI bench-smoke job doubles as a
// determinism gate.
//
// Results are emitted as machine-readable JSON (default BENCH_training.json
// in the working directory; override with C2MN_BENCH_JSON), including
// per-configuration speedups over the 1-thread run of the same training
// set.  On a single-core box the thread sweep degenerates to ~1.0x, which
// is expected; the tracked numbers come from a multi-core runner.
//
// Scale knobs (environment): C2MN_BENCH_TRAIN_OBJECTS (default 24),
// C2MN_BENCH_TRAIN_ITERS (default 3), C2MN_BENCH_TRAIN_MCMC (default 40).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "common/env.h"
#include "common/logging.h"
#include "core/trainer.h"
#include "core/variants.h"
#include "data/dataset.h"
#include "sim/scenarios.h"

namespace c2mn {
namespace {

/// Shared fixture: one simulated corpus, reused by every configuration.
struct TrainState {
  Scenario scenario;
  std::vector<const LabeledSequence*> sequences;

  static TrainState& Get() {
    static TrainState* state = [] {
      Logger::Global().set_level(LogLevel::kOff);
      auto* s = new TrainState();
      ScenarioOptions options;
      options.num_objects = EnvInt("C2MN_BENCH_TRAIN_OBJECTS", 24);
      options.seed = 7;
      s->scenario = MakeMallScenario(options);
      for (const LabeledSequence& ls : s->scenario.dataset.sequences) {
        s->sequences.push_back(&ls);
      }
      return s;
    }();
    return *state;
  }
};

TrainOptions BenchTrainOptions(int num_threads) {
  TrainOptions topts;
  topts.max_iter = EnvInt("C2MN_BENCH_TRAIN_ITERS", 3);
  topts.mcmc_samples = EnvInt("C2MN_BENCH_TRAIN_MCMC", 40);
  topts.seed = 13;
  topts.num_threads = num_threads;
  return topts;
}

std::vector<const LabeledSequence*> FirstN(
    const std::vector<const LabeledSequence*>& all, size_t n) {
  std::vector<const LabeledSequence*> subset(all.begin(),
                                             all.begin() + std::min(n, all.size()));
  return subset;
}

/// Full training runs over `range(0)` sequences with `range(1)` worker
/// threads — the sequences x threads sweep behind BENCH_training.json.
void BM_Train(benchmark::State& state) {
  TrainState& s = TrainState::Get();
  const auto train = FirstN(s.sequences, static_cast<size_t>(state.range(0)));
  const TrainOptions topts = BenchTrainOptions(static_cast<int>(state.range(1)));
  int iterations = 0;
  int threads_used = 0;
  size_t records = 0;
  for (const LabeledSequence* ls : train) records += ls->size();
  for (auto _ : state) {
    AlternateTrainer trainer(*s.scenario.world, FeatureOptions{},
                             C2mnStructure{}, topts);
    const TrainResult result = trainer.Train(train);
    benchmark::DoNotOptimize(result.weights.data());
    iterations = result.iterations;
    threads_used = result.num_threads_used;
  }
  state.counters["sequences"] = static_cast<double>(train.size());
  state.counters["records"] = static_cast<double>(records);
  state.counters["threads"] = static_cast<double>(threads_used);
  state.counters["outer_iters"] = static_cast<double>(iterations);
}
BENCHMARK(BM_Train)
    ->ArgsProduct({{8, 16}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The fixed setup cost the parallel sweep does not touch: unrolling the
/// training set into SequenceGraphs (candidates, st-DBSCAN, geometry).
void BM_TrainUnrollOnly(benchmark::State& state) {
  TrainState& s = TrainState::Get();
  const auto train = FirstN(s.sequences, 8);
  const FeatureOptions fopts;
  for (auto _ : state) {
    for (const LabeledSequence* ls : train) {
      SequenceGraph graph(*s.scenario.world, ls->sequence, fopts,
                          &ls->labels);
      benchmark::DoNotOptimize(graph.size());
    }
  }
}
BENCHMARK(BM_TrainUnrollOnly)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Determinism gate: bit-identical weights for 1 / 2 / 4 threads.
// ---------------------------------------------------------------------------

struct DeterminismCheck {
  bool bit_identical = true;
  int configs_checked = 0;
};

DeterminismCheck RunDeterminismCheck() {
  TrainState& s = TrainState::Get();
  const auto train = FirstN(s.sequences, 8);
  DeterminismCheck check;
  std::vector<double> reference;
  for (const int threads : {1, 2, 4}) {
    TrainOptions topts = BenchTrainOptions(threads);
    topts.max_iter = 2;  // Two outer iterations exercise the full loop.
    AlternateTrainer trainer(*s.scenario.world, FeatureOptions{},
                             C2mnStructure{}, topts);
    const TrainResult result = trainer.Train(train);
    ++check.configs_checked;
    if (threads == 1) {
      reference = result.weights;
    } else if (result.weights.size() != reference.size() ||
               std::memcmp(result.weights.data(), reference.data(),
                           reference.size() * sizeof(double)) != 0) {
      check.bit_identical = false;
      std::fprintf(stderr,
                   "FAIL: %d-thread training diverged from the 1-thread "
                   "weights\n",
                   threads);
    }
  }
  return check;
}

// ---------------------------------------------------------------------------
// JSON emission (same shape as micro_inference's BENCH_inference.json;
// capture/escape plumbing shared via bench/bench_json.h).
// ---------------------------------------------------------------------------

using bench::CapturedRun;
using bench::EscapeJson;

/// The 1-thread wall time of the same training-set size, keyed by the
/// "sequences" counter — baseline for per-configuration speedups.
std::map<double, double> SingleThreadTimes(
    const std::vector<CapturedRun>& runs) {
  std::map<double, double> base;
  for (const CapturedRun& run : runs) {
    const auto threads = run.counters.find("threads");
    const auto sequences = run.counters.find("sequences");
    if (threads == run.counters.end() || sequences == run.counters.end()) {
      continue;
    }
    if (threads->second == 1.0) base[sequences->second] = run.real_ms;
  }
  return base;
}

void WriteJson(const std::string& path, const std::vector<CapturedRun>& runs,
               const DeterminismCheck& check) {
  const std::map<double, double> base = SingleThreadTimes(runs);
  double max_speedup = 1.0;
  std::ofstream out(path);
  out.precision(6);
  out << "{\n";
  out << "  \"benchmark\": \"micro_train\",\n";
  if (const char* commit = std::getenv("C2MN_BENCH_BASELINE_COMMIT")) {
    out << "  \"baseline_commit\": \"" << EscapeJson(commit) << "\",\n";
  }
  bench::WriteMachine(out);
  out << ",\n";
  out << "  \"determinism\": {\n";
  out << "    \"bit_identical_across_thread_counts\": "
      << (check.bit_identical ? "true" : "false") << ",\n";
  out << "    \"thread_counts_checked\": " << check.configs_checked << "\n";
  out << "  },\n";
  bench::WriteRunsArray(
      out, runs, [&base, &max_speedup](std::ostream& o, const CapturedRun& run) {
        const auto sequences = run.counters.find("sequences");
        if (sequences == run.counters.end() || run.real_ms <= 0) return;
        const auto b = base.find(sequences->second);
        if (b == base.end()) return;
        const double speedup = b->second / run.real_ms;
        o << ", \"speedup_vs_1thread\": " << speedup;
        max_speedup = std::max(max_speedup, speedup);
      });
  out << ",\n";
  out << "  \"max_speedup_vs_1thread\": " << max_speedup << "\n";
  out << "}\n";
}

}  // namespace
}  // namespace c2mn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  const c2mn::DeterminismCheck check = c2mn::RunDeterminismCheck();

  c2mn::bench::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const char* json_path = std::getenv("C2MN_BENCH_JSON");
  c2mn::WriteJson(json_path != nullptr ? json_path : "BENCH_training.json",
                  reporter.runs(), check);

  if (!check.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: trainer output is not thread-count invariant\n");
    return 1;
  }
  std::printf("determinism check: weights bit-identical across %d thread "
              "counts\n",
              check.configs_checked);
  return 0;
}
