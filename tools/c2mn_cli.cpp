// c2mn_cli — the library's pipeline as a command-line tool.
//
// Subcommands:
//   generate --out-records R.csv --out-labels L.csv [--objects N] [--seed S]
//       Simulate the mall scenario and dump records + annotator labels.
//   train --records R.csv --labels L.csv --out-weights W.txt [--iters N]
//       Learn C2MN weights from labeled CSVs (venue regenerated from the
//       same --seed; real deployments would load their own floorplan).
//   annotate --records R.csv --weights W.txt --out-semantics M.csv
//       Label-and-merge every sequence into m-semantics.
//   render --records R.csv --floor F --out-svg OUT.svg
//       Draw a floor with the first sequence's trajectory.
//   serve-sim [--objects N] [--shards K] [--producers P] [--iters N]
//       Replay simulator traffic through the concurrent AnnotationService
//       and report throughput / latency statistics.  With --state-dir the
//       service keeps durable analytics state there (write-ahead visit
//       log + periodic snapshots when --checkpoint-interval > 0),
//       recovering whatever the directory already holds before the
//       replay; --loop N replays the scenario N times (0 = forever) so a
//       crash-recovery test can kill the process mid-stream; and
//       --fixed-weights skips training for runs that only exercise the
//       service machinery.
//   snapshot --state-dir DIR
//       Offline compaction: recover the analytics state from DIR, then
//       checkpoint it — publish a fresh snapshot and delete the covered
//       log segments.
//   restore --state-dir DIR
//       Recover the analytics state from DIR and report what recovery
//       found (snapshot, replayed / skipped records, torn tail).  Exits
//       non-zero when the directory cannot be recovered, so scripts and
//       tests can use it as an integrity check.
//   analytics [--objects N] [--shards K] [--k K] [--min-visit S] [--follow]
//       [--trailing S]
//       Replay simulator traffic with the live analytics engine enabled,
//       print top-k popular regions / frequent pairs plus dwell, flow,
//       and occupancy gauges, and cross-check the answers against the
//       batch eval/queries implementation.  With --follow, standing
//       continuous queries are subscribed before the replay and every
//       pushed delta (answer-set change) is printed as it fires.  With
//       --trailing S, sliding-window standing queries (top-k over the
//       trailing S seconds behind the watermark) are subscribed too and
//       their final answers cross-checked against a brute-force
//       trailing-window scan of the collected corpus.
//   metrics [--objects N] [--shards K] [--format prom|json] [--out FILE]
//       [--watch] [--interval S] [--slow-ms T]
//       Replay simulator traffic through the service with analytics and
//       a standing subscription active, all metrics registered in the
//       process-wide registry, and render the registry (Prometheus text
//       or JSON) — once after the replay drains, or repeatedly while it
//       streams with --watch.
//
// All subcommands accept --seed (default 7) which controls the generated
// venue, so weights and data stay consistent across invocations.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/trainer.h"
#include "eval/queries.h"
#include "core/variants.h"
#include "core/weights_io.h"
#include "data/io.h"
#include "data/svg_export.h"
#include "service/annotation_service.h"
#include "sim/scenarios.h"
#include "storage/snapshot_codec.h"
#include "storage/storage_manager.h"

using namespace c2mn;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  const char* Get(const std::string& key, const char* fallback = nullptr) const {
    const auto it = options.find(key);
    return it != options.end() ? it->second.c_str() : fallback;
  }
  bool GetFlag(const std::string& key) const { return Get(key) != nullptr; }
  int GetInt(const std::string& key, int fallback) const {
    const char* v = Get(key);
    return v != nullptr ? std::atoi(v) : fallback;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const char* v = Get(key);
    return v != nullptr ? std::atof(v) : fallback;
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: c2mn_cli "
               "<generate|train|annotate|render|serve-sim|analytics|metrics"
               "|snapshot|restore> "
               "[--key value]...\n"
               "  generate --out-records R.csv --out-labels L.csv "
               "[--objects N] [--seed S]\n"
               "  train    --records R.csv --labels L.csv --out-weights "
               "W.txt [--iters N] [--threads T] [--seed S]\n"
               "  annotate --records R.csv --weights W.txt --out-semantics "
               "M.csv [--seed S]\n"
               "  render   --records R.csv --out-svg OUT.svg [--floor F] "
               "[--seed S]\n"
               "  serve-sim [--objects N] [--shards K] [--producers P] "
               "[--iters N] [--threads T] [--weights W.txt] [--seed S]\n"
               "           [--state-dir DIR] [--checkpoint-interval S] "
               "[--loop N] [--fixed-weights]\n"
               "  analytics [--objects N] [--shards K] [--k K] "
               "[--min-visit S] [--iters N] [--threads T] "
               "[--weights W.txt] [--seed S] [--follow] [--trailing S]\n"
               "  metrics  [--objects N] [--shards K] [--format prom|json] "
               "[--out FILE] [--watch] [--interval S] [--slow-ms T]\n"
               "  snapshot --state-dir DIR\n"
               "  restore  --state-dir DIR\n"
               "  --threads T: trainer worker threads (0 = all cores); the\n"
               "  learned weights are bit-identical for every T.\n"
               "  --follow: subscribe standing top-k queries and print each\n"
               "  pushed delta while the replay streams.\n"
               "  --trailing S: also subscribe sliding-window standing\n"
               "  queries over the trailing S seconds and cross-check them\n"
               "  against a brute-force trailing-window scan.\n");
  return 2;
}

World MakeVenue(uint64_t seed) {
  Rng rng(seed);
  auto plan = GenerateBuilding(MallConfig(), &rng);
  return World::Create(std::move(plan).ValueOrDie());
}

Result<Dataset> LoadRecords(const Args& args) {
  const char* path = args.Get("records");
  if (path == nullptr) return Status::InvalidArgument("--records required");
  std::ifstream in(path);
  if (!in) return Status::NotFound(std::string("cannot open ") + path);
  return io::ReadRecordsCsv(&in);
}

int Generate(const Args& args) {
  const char* out_records = args.Get("out-records");
  const char* out_labels = args.Get("out-labels");
  if (out_records == nullptr || out_labels == nullptr) return Usage();
  ScenarioOptions options;
  options.num_objects = args.GetInt("objects", 60);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  const Scenario scenario = MakeMallScenario(options);
  std::ofstream records(out_records), labels(out_labels);
  io::WriteRecordsCsv(scenario.dataset, &records);
  io::WriteLabelsCsv(scenario.dataset, &labels);
  std::printf("wrote %zu sequences (%zu records) to %s / %s\n",
              scenario.dataset.NumSequences(), scenario.dataset.NumRecords(),
              out_records, out_labels);
  return 0;
}

int Train(const Args& args) {
  const char* labels_path = args.Get("labels");
  const char* out_weights = args.Get("out-weights");
  if (labels_path == nullptr || out_weights == nullptr) return Usage();
  auto dataset = LoadRecords(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Dataset data = std::move(dataset).ValueOrDie();
  std::ifstream labels_in(labels_path);
  const Status attached = io::AttachLabelsCsv(&labels_in, &data);
  if (!attached.ok()) {
    std::fprintf(stderr, "%s\n", attached.ToString().c_str());
    return 1;
  }
  const World world = MakeVenue(static_cast<uint64_t>(args.GetInt("seed", 7)));
  TrainOptions topts;
  topts.max_iter = args.GetInt("iters", 40);
  topts.num_threads = args.GetInt("threads", 0);
  std::vector<const LabeledSequence*> train;
  for (const LabeledSequence& ls : data.sequences) train.push_back(&ls);
  AlternateTrainer trainer(world, FeatureOptions{}, C2mnStructure{}, topts);
  // Dropped-supervision diagnostics surface through the trainer's own
  // C2MN_LOG_WARN (visible at the CLI's kWarning log level).
  const TrainResult result = trainer.Train(train);
  std::ofstream out(out_weights);
  weights_io::Write(result.weights, &out);
  std::printf("trained on %zu sequences in %.1f s (%d threads); "
              "weights -> %s\n",
              train.size(), result.train_seconds, result.num_threads_used,
              out_weights);
  return 0;
}

int Annotate(const Args& args) {
  const char* weights_path = args.Get("weights");
  const char* out_semantics = args.Get("out-semantics");
  if (weights_path == nullptr || out_semantics == nullptr) return Usage();
  auto dataset = LoadRecords(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::ifstream win(weights_path);
  auto weights = weights_io::Read(&win);
  if (!weights.ok()) {
    std::fprintf(stderr, "%s\n", weights.status().ToString().c_str());
    return 1;
  }
  const World world = MakeVenue(static_cast<uint64_t>(args.GetInt("seed", 7)));
  const C2mnAnnotator annotator(world, FeatureOptions{}, C2mnStructure{},
                                *weights);
  std::vector<int64_t> object_ids;
  std::vector<MSemanticsSequence> semantics;
  for (const LabeledSequence& ls : dataset->sequences) {
    object_ids.push_back(ls.sequence.object_id);
    semantics.push_back(annotator.AnnotateSemantics(ls.sequence));
  }
  std::ofstream out(out_semantics);
  io::WriteMSemanticsCsv(object_ids, semantics, &out);
  std::printf("annotated %zu sequences -> %s\n", semantics.size(),
              out_semantics);
  return 0;
}

int Render(const Args& args) {
  const char* out_svg = args.Get("out-svg");
  if (out_svg == nullptr) return Usage();
  auto dataset = LoadRecords(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const World world = MakeVenue(static_cast<uint64_t>(args.GetInt("seed", 7)));
  SvgExporter exporter(world.plan(),
                       static_cast<FloorId>(args.GetInt("floor", 0)));
  if (!dataset->sequences.empty()) {
    exporter.AddTrajectory(dataset->sequences.front().sequence);
  }
  std::ofstream out(out_svg);
  out << exporter.Render();
  std::printf("rendered floor %d -> %s\n", args.GetInt("floor", 0), out_svg);
  return 0;
}

/// Loads --weights if given, otherwise trains on the scenario's own
/// labeled sequences.  Returns false (after printing the error) when a
/// weights file cannot be read.
bool LoadOrTrainWeights(const Args& args, const Scenario& scenario,
                        std::vector<double>* weights) {
  if (const char* weights_path = args.Get("weights")) {
    std::ifstream win(weights_path);
    if (!win) {
      std::fprintf(stderr, "cannot open %s\n", weights_path);
      return false;
    }
    auto loaded = weights_io::Read(&win);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return false;
    }
    *weights = *loaded;
    return true;
  }
  TrainOptions topts;
  topts.max_iter = args.GetInt("iters", 12);
  topts.mcmc_samples = 15;
  topts.num_threads = args.GetInt("threads", 0);
  std::vector<const LabeledSequence*> train;
  for (const LabeledSequence& ls : scenario.dataset.sequences) {
    train.push_back(&ls);
  }
  AlternateTrainer trainer(*scenario.world, FeatureOptions{}, C2mnStructure{},
                           topts);
  // Progress goes to stderr: `metrics` renders machine-readable output
  // on stdout and must not have it contaminated.
  std::fprintf(stderr, "training weights (%d iters; pass --weights to skip)...\n",
               topts.max_iter);
  *weights = trainer.Train(train).weights;
  return true;
}

// Replays simulated mall traffic through the sharded AnnotationService:
// one session per simulated object, `--producers` submitting threads, and
// a stats report at the end.  This is the "running the service demo" path
// documented in the README.
int ServeSim(const Args& args) {
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  ScenarioOptions sopts;
  sopts.num_objects = args.GetInt("objects", 40);
  sopts.seed = seed;
  std::printf("simulating %d objects in the mall venue...\n",
              sopts.num_objects);
  const Scenario scenario = MakeMallScenario(sopts);

  std::vector<double> weights;
  if (args.GetFlag("fixed-weights")) {
    // Service-machinery runs (crash-recovery tests, durability smoke
    // tests) don't care about annotation quality — skip the training
    // pass so the process reaches the replay quickly.
    weights.assign(static_cast<size_t>(kNumWeights), 0.5);
  } else if (!LoadOrTrainWeights(args, scenario, &weights)) {
    return 1;
  }

  AnnotationService::Options options;
  options.num_shards = args.GetInt("shards", 4);
  const int producers = args.GetInt("producers", 4);
  const char* state_dir = args.Get("state-dir");
  if (state_dir != nullptr) {
    // Durable state logs the analytics mutation stream, so it requires
    // the analytics engine.
    options.analytics.enabled = true;
    options.storage.state_dir = state_dir;
    options.storage.checkpoint_interval_seconds =
        args.GetDouble("checkpoint-interval", 0.0);
  }
  AnnotationService service(*scenario.world, FeatureOptions{}, C2mnStructure{},
                            weights, options);
  if (state_dir != nullptr) {
    if (!service.storage_status().ok()) {
      std::fprintf(stderr, "durable state unavailable: %s\n",
                   service.storage_status().ToString().c_str());
      return 1;
    }
    const storage::RecoveryStats& rs = service.recovery_stats();
    std::printf("durable state: %s, snapshot %s, replayed %" PRIu64
                " records (%" PRIu64 " skipped)%s\n",
                state_dir, rs.snapshot_loaded ? "loaded" : "absent",
                rs.replayed_records, rs.skipped_records,
                rs.truncated_torn_tail ? ", truncated torn tail" : "");
  }

  const size_t num_streams = scenario.dataset.sequences.size();
  // --loop N replays the scenario N times (0 = forever, until killed);
  // iteration L uses object ids L*num_streams .. so closes stay honest.
  const int loops = args.GetInt("loop", 1);
  std::vector<size_t> emitted(num_streams, 0);
  std::printf("replaying %zu streams through %d shards from %d producers...\n",
              num_streams, service.num_shards(), producers);
  Stopwatch replay;
  for (int pass = 0; loops == 0 || pass < loops; ++pass) {
    const int64_t base = static_cast<int64_t>(pass) *
                         static_cast<int64_t>(num_streams);
    for (size_t i = 0; i < num_streams; ++i) {
      service.OpenSession(base + static_cast<int64_t>(i),
                          [&emitted, base](int64_t id, const MSemantics&) {
                            ++emitted[static_cast<size_t>(id - base)];
                          });
    }
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p, base] {
        for (size_t i = static_cast<size_t>(p); i < num_streams;
             i += static_cast<size_t>(producers)) {
          const PSequence& seq = scenario.dataset.sequences[i].sequence;
          for (const PositioningRecord& rec : seq.records) {
            service.Submit(base + static_cast<int64_t>(i), rec);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < num_streams; ++i) {
      service.CloseSession(base + static_cast<int64_t>(i));
    }
  }
  service.Drain();
  const double replay_seconds = replay.ElapsedSeconds();
  service.Stop();

  const ServiceStats stats = service.Stats();
  size_t total_semantics = 0;
  for (size_t count : emitted) total_semantics += count;
  std::printf("\n--- service report ---\n");
  std::printf("sessions           %" PRIu64 " opened, %" PRIu64 " closed\n",
              stats.sessions_opened, stats.sessions_closed);
  std::printf("records            %" PRIu64 " submitted, %" PRIu64
              " processed\n",
              stats.records_submitted, stats.records_processed);
  std::printf("m-semantics        %zu delivered to sinks\n", total_semantics);
  std::printf("throughput         %.0f records/sec (replay wall time %.2f s)\n",
              stats.records_processed / replay_seconds, replay_seconds);
  std::printf("submit-to-emit     p50 %.3f ms   p99 %.3f ms   max %.3f ms\n",
              stats.latency_p50_ms, stats.latency_p99_ms, stats.latency_max_ms);
  std::printf("timestamp clamps   %" PRIu64 "\n", stats.timestamp_violations);
  return 0;
}

// Replays simulated traffic through the service with live analytics
// enabled, prints the headline queries (top-k popular regions, top-k
// frequent region pairs) plus dwell / flow / occupancy gauges, and
// cross-checks every query answer against the batch eval/queries
// implementation over the corpus collected from the sinks.
int Analytics(const Args& args) {
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  ScenarioOptions sopts;
  sopts.num_objects = args.GetInt("objects", 40);
  sopts.seed = seed;
  std::printf("simulating %d objects in the mall venue...\n",
              sopts.num_objects);
  const Scenario scenario = MakeMallScenario(sopts);

  std::vector<double> weights;
  if (!LoadOrTrainWeights(args, scenario, &weights)) return 1;

  const size_t k = static_cast<size_t>(args.GetInt("k", 5));
  const double min_visit = args.GetDouble("min-visit", 30.0);
  const bool follow = args.GetFlag("follow");
  const double trailing = args.GetDouble("trailing", 0.0);

  AnnotationService::Options options;
  options.num_shards = args.GetInt("shards", 4);
  options.analytics.enabled = true;
  options.analytics.engine.min_visit_seconds = min_visit;

  // --follow: standing continuous queries subscribed before any record
  // streams.  Deltas print from the shard workers as the answer set
  // changes; the final pushed answers are cross-checked against the
  // poll below.  The captured state is declared before the service so
  // it outlives any delta the service's own teardown can still push.
  std::mutex follow_mu;
  std::vector<RegionId> followed_regions;
  std::vector<std::pair<RegionId, RegionId>> followed_pairs;
  std::vector<RegionId> trailing_regions;
  std::vector<std::pair<RegionId, RegionId>> trailing_pairs;
  uint64_t trailing_deltas = 0;
  const auto& plan = scenario.world->plan();

  AnnotationService service(*scenario.world, FeatureOptions{}, C2mnStructure{},
                            weights, options);
  if (follow) {
    StandingQuery top_regions;
    top_regions.spec.all_regions = true;
    top_regions.spec.min_visit_seconds = min_visit;
    top_regions.k = k;
    service.SubscribeAnalytics(
        top_regions, [&follow_mu, &followed_regions, &plan](
                         const StandingQueryDelta& delta) {
          std::lock_guard<std::mutex> lock(follow_mu);
          followed_regions = delta.regions;
          std::printf("[follow regions #%03" PRIu64 "]", delta.sequence);
          for (RegionId r : delta.regions_entered) {
            std::printf(" +%s", plan.region(r).name.c_str());
          }
          for (RegionId r : delta.regions_exited) {
            std::printf(" -%s", plan.region(r).name.c_str());
          }
          std::printf("  => {");
          for (size_t i = 0; i < delta.regions.size(); ++i) {
            std::printf("%s%s", i > 0 ? ", " : "",
                        plan.region(delta.regions[i]).name.c_str());
          }
          std::printf("}\n");
        });
    StandingQuery top_pairs;
    top_pairs.kind = StandingQuery::Kind::kFrequentPairs;
    top_pairs.spec.all_regions = true;
    top_pairs.spec.min_visit_seconds = min_visit;
    top_pairs.k = k;
    service.SubscribeAnalytics(
        top_pairs, [&follow_mu, &followed_pairs, &plan](
                       const StandingQueryDelta& delta) {
          std::lock_guard<std::mutex> lock(follow_mu);
          followed_pairs = delta.pairs;
          std::printf("[follow pairs   #%03" PRIu64 "]", delta.sequence);
          for (const auto& p : delta.pairs_entered) {
            std::printf(" +%s|%s", plan.region(p.first).name.c_str(),
                        plan.region(p.second).name.c_str());
          }
          for (const auto& p : delta.pairs_exited) {
            std::printf(" -%s|%s", plan.region(p.first).name.c_str(),
                        plan.region(p.second).name.c_str());
          }
          std::printf("\n");
        });
  }
  if (trailing > 0.0) {
    // Sliding-window standing queries: same specs as --follow's, but
    // ranking only the trailing window behind the watermark.  Their
    // final answers are cross-checked against a brute-force
    // trailing-window scan after the drain.
    StandingQuery tw_regions;
    tw_regions.spec.all_regions = true;
    tw_regions.spec.min_visit_seconds = min_visit;
    tw_regions.k = k;
    tw_regions.trailing_seconds = trailing;
    service.SubscribeAnalytics(
        tw_regions, [&follow_mu, &trailing_regions, &trailing_deltas](
                        const StandingQueryDelta& delta) {
          std::lock_guard<std::mutex> lock(follow_mu);
          trailing_regions = delta.regions;
          ++trailing_deltas;
        });
    StandingQuery tw_pairs;
    tw_pairs.kind = StandingQuery::Kind::kFrequentPairs;
    tw_pairs.spec.all_regions = true;
    tw_pairs.spec.min_visit_seconds = min_visit;
    tw_pairs.k = k;
    tw_pairs.trailing_seconds = trailing;
    service.SubscribeAnalytics(
        tw_pairs, [&follow_mu, &trailing_pairs, &trailing_deltas](
                      const StandingQueryDelta& delta) {
          std::lock_guard<std::mutex> lock(follow_mu);
          trailing_pairs = delta.pairs;
          ++trailing_deltas;
        });
  }

  const size_t num_streams = scenario.dataset.sequences.size();
  std::vector<MSemanticsSequence> emitted(num_streams);
  for (size_t i = 0; i < num_streams; ++i) {
    service.OpenSession(static_cast<int64_t>(i),
                        [&emitted](int64_t id, const MSemantics& ms) {
                          emitted[static_cast<size_t>(id)].push_back(ms);
                        });
  }
  std::printf("replaying %zu streams with live analytics%s...\n", num_streams,
              follow ? " (following standing queries)" : "");
  for (size_t i = 0; i < num_streams; ++i) {
    for (const PositioningRecord& rec :
         scenario.dataset.sequences[i].sequence.records) {
      service.Submit(static_cast<int64_t>(i), rec);
    }
    service.CloseSession(static_cast<int64_t>(i));
  }
  service.Drain();

  AnnotatedCorpus corpus;
  for (size_t i = 0; i < num_streams; ++i) {
    corpus.Add(static_cast<int64_t>(i), emitted[i]);
  }

  std::vector<RegionId> query_regions;
  for (const SemanticRegion& region : scenario.world->plan().regions()) {
    query_regions.push_back(region.id);
  }
  double t_min = 0.0, t_max = 0.0;
  bool first = true;
  for (const MSemanticsSequence& ms_seq : corpus.semantics) {
    for (const MSemantics& ms : ms_seq) {
      if (first || ms.t_start < t_min) t_min = ms.t_start;
      if (first || ms.t_end > t_max) t_max = ms.t_end;
      first = false;
    }
  }
  const TimeWindow window{t_min, t_max};

  const AnalyticsEngine& engine = *service.analytics();
  const auto popular =
      engine.TopKPopularRegions(query_regions, window, k, min_visit);
  const auto pairs =
      engine.TopKFrequentRegionPairs(query_regions, window, k, min_visit);
  const auto batch_popular =
      TopKPopularRegions(corpus, query_regions, window, k, min_visit);
  const auto batch_pairs =
      TopKFrequentRegionPairs(corpus, query_regions, window, k, min_visit);

  const AnalyticsSnapshot snap = service.AnalyticsStats();
  std::printf("\n--- live analytics over [%.0f, %.0f] s ---\n", t_min, t_max);
  std::printf("ingested %" PRIu64 " m-semantics (%" PRIu64
              " visits retained, %" PRIu64 " late-dropped)\n",
              snap.semantics_ingested, snap.retained_visits,
              snap.late_dropped);
  std::printf("queries: %" PRIu64 " pre-aggregated (regions %" PRIu64
              ", pairs %" PRIu64 "), %" PRIu64 " scanned (regions %" PRIu64
              ", pairs %" PRIu64 ")\n",
              snap.preagg_region_queries + snap.preagg_pair_queries,
              snap.preagg_region_queries, snap.preagg_pair_queries,
              snap.scan_region_queries + snap.scan_pair_queries,
              snap.scan_region_queries, snap.scan_pair_queries);
  if (follow) {
    std::printf("standing queries: %zu subscribed, %" PRIu64
                " deltas pushed, push latency p50 %.3f ms p99 %.3f ms\n",
                snap.standing_queries, snap.deltas_pushed, snap.push_p50_ms,
                snap.push_p99_ms);
  }

  TablePrinter regions_table({"rank", "region", "name", "visits",
                              "dwell p50 s", "dwell p99 s", "occupancy"});
  int rank = 1;
  for (RegionId region : popular) {
    const RegionAnalytics* gauges = nullptr;
    for (const RegionAnalytics& r : snap.regions) {
      if (r.region == region) {
        gauges = &r;
        break;
      }
    }
    regions_table.AddRow(
        {std::to_string(rank++), std::to_string(region),
         scenario.world->plan().region(region).name,
         gauges != nullptr ? std::to_string(gauges->visits) : "0",
         TablePrinter::Fmt(gauges != nullptr ? gauges->dwell_p50_seconds : 0.0,
                           1),
         TablePrinter::Fmt(gauges != nullptr ? gauges->dwell_p99_seconds : 0.0,
                           1),
         gauges != nullptr ? std::to_string(gauges->occupancy) : "0"});
  }
  std::printf("\ntop-%zu popular regions (stays >= %.0f s):\n", k, min_visit);
  regions_table.Print();

  std::printf("\ntop-%zu frequent region pairs:\n", k);
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::printf("  %zu. %s + %s\n", i + 1,
                scenario.world->plan().region(pairs[i].first).name.c_str(),
                scenario.world->plan().region(pairs[i].second).name.c_str());
  }

  std::printf("\nbusiest region->region flows:\n");
  for (size_t i = 0; i < snap.flows.size() && i < 5; ++i) {
    std::printf("  %s -> %s: %" PRIu64 "\n",
                scenario.world->plan().region(snap.flows[i].from).name.c_str(),
                scenario.world->plan().region(snap.flows[i].to).name.c_str(),
                snap.flows[i].count);
  }

  bool identical = popular == batch_popular && pairs == batch_pairs;
  std::printf("\nbatch eval/queries cross-check: %s\n",
              identical ? "identical" : "MISMATCH");
  if (follow) {
    // The standing queries' last pushed answers must equal the polls:
    // pushed deltas and poll-time queries share one query core.
    std::lock_guard<std::mutex> lock(follow_mu);
    const bool follow_identical =
        followed_regions == popular && followed_pairs == pairs;
    std::printf("standing-query cross-check:     %s\n",
                follow_identical ? "identical" : "MISMATCH");
    identical = identical && follow_identical;
  }
  if (trailing > 0.0) {
    // Brute-force trailing-window reference over the collected corpus:
    // reproduce the engine's bucket quantization (see
    // StandingQuery::trailing_seconds) and rank only the stays whose
    // bucket is inside the window behind the global watermark.
    const double bucket_seconds = engine.options().bucket_seconds;
    const int64_t ring_buckets =
        static_cast<int64_t>(std::ceil(engine.options().horizon_seconds /
                                       bucket_seconds)) +
        1;
    int64_t watermark_bucket = std::numeric_limits<int64_t>::min();
    for (const MSemanticsSequence& ms_seq : corpus.semantics) {
      for (const MSemantics& ms : ms_seq) {
        if (ms.event != MobilityEvent::kStay) continue;
        const int64_t bucket =
            static_cast<int64_t>(std::floor(ms.t_end / bucket_seconds));
        watermark_bucket = std::max(watermark_bucket, bucket);
      }
    }
    const int64_t window_buckets = std::min<int64_t>(
        ring_buckets,
        std::max<int64_t>(
            1, static_cast<int64_t>(std::ceil(trailing / bucket_seconds))));
    const int64_t edge = watermark_bucket - window_buckets;
    query::VisitSpec trailing_spec;
    trailing_spec.all_regions = true;
    trailing_spec.min_visit_seconds = min_visit;
    const query::CompiledSpec compiled(trailing_spec);
    query::TopKSketch reference(&compiled);
    for (size_t s = 0; s < corpus.semantics.size(); ++s) {
      for (const MSemantics& ms : corpus.semantics[s]) {
        if (ms.event != MobilityEvent::kStay) continue;
        const int64_t bucket =
            static_cast<int64_t>(std::floor(ms.t_end / bucket_seconds));
        if (bucket <= edge) continue;
        reference.AddVisit(static_cast<int64_t>(s), ms.region, ms.t_start,
                           ms.t_end);
      }
    }
    const auto expected_regions = reference.TopKRegions(k);
    const auto expected_pairs = reference.TopKPairs(k);
    std::lock_guard<std::mutex> lock(follow_mu);
    const bool trailing_identical = trailing_regions == expected_regions &&
                                    trailing_pairs == expected_pairs;
    std::printf("sliding windows: %zu subscribed, %" PRIu64
                " rotations, %" PRIu64 " visits expired, %" PRIu64
                " deltas\n",
                snap.sliding_queries, snap.window_rotations,
                snap.window_expired_visits, trailing_deltas);
    std::printf("trailing-window cross-check:    %s (window %.0f s)\n",
                trailing_identical ? "identical" : "MISMATCH", trailing);
    identical = identical && trailing_identical;
  }
  return identical ? 0 : 1;
}

int Metrics(const Args& args) {
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  ScenarioOptions sopts;
  sopts.num_objects = args.GetInt("objects", 40);
  sopts.seed = seed;
  std::fprintf(stderr, "simulating %d objects in the mall venue...\n",
               sopts.num_objects);
  const Scenario scenario = MakeMallScenario(sopts);

  std::vector<double> weights;
  if (!LoadOrTrainWeights(args, scenario, &weights)) return 1;

  const std::string format = args.Get("format", "prom");
  if (format != "prom" && format != "json") {
    std::fprintf(stderr, "--format must be prom or json\n");
    return 2;
  }
  const bool watch = args.GetFlag("watch");
  const double interval_s = args.GetDouble("interval", 1.0);
  const char* out_path = args.Get("out");

  AnnotationService::Options options;
  options.num_shards = args.GetInt("shards", 4);
  options.analytics.enabled = true;
  options.analytics.engine.min_visit_seconds =
      args.GetDouble("min-visit", 30.0);
  // One unified export: the service, its analytics engine, and the
  // library-level metrics (decode, io, trainer) all land in Global().
  options.obs.registry = &obs::MetricsRegistry::Global();
  options.obs.slow_trace_threshold_seconds =
      args.GetDouble("slow-ms", 0.0) * 1e-3;

  AnnotationService service(*scenario.world, FeatureOptions{}, C2mnStructure{},
                            weights, options);

  // A standing subscription keeps the continuous-query path (and its
  // push-latency metrics) exercised during the replay.
  StandingQuery top_regions;
  top_regions.spec.all_regions = true;
  top_regions.spec.min_visit_seconds =
      options.analytics.engine.min_visit_seconds;
  top_regions.k = 5;
  service.SubscribeAnalytics(top_regions, [](const StandingQueryDelta&) {});

  const auto render = [&] {
    const std::string body = format == "json"
                                 ? service.metrics_registry().RenderJson()
                                 : service.metrics_registry().RenderPrometheus();
    if (out_path != nullptr) {
      std::ofstream out(out_path, std::ios::out | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return false;
      }
      out << body;
    } else {
      std::fwrite(body.data(), 1, body.size(), stdout);
      std::fflush(stdout);
    }
    return true;
  };

  const size_t num_streams = scenario.dataset.sequences.size();
  for (size_t i = 0; i < num_streams; ++i) {
    service.OpenSession(static_cast<int64_t>(i),
                        [](int64_t, const MSemantics&) {});
  }
  std::fprintf(stderr, "replaying %zu streams...\n", num_streams);
  std::atomic<bool> replay_done{false};
  std::thread producer([&] {
    for (size_t i = 0; i < num_streams; ++i) {
      for (const PositioningRecord& rec :
           scenario.dataset.sequences[i].sequence.records) {
        service.Submit(static_cast<int64_t>(i), rec);
      }
      service.CloseSession(static_cast<int64_t>(i));
    }
    service.Drain();
    replay_done.store(true, std::memory_order_release);
  });
  bool ok = true;
  if (watch) {
    // Re-render while the replay streams, then once more after it
    // drains so the final snapshot covers every record.
    const auto interval = std::chrono::duration<double>(
        interval_s > 0.0 ? interval_s : 1.0);
    while (!replay_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(interval);
      if (out_path == nullptr) std::printf("\n--- metrics ---\n");
      ok = render() && ok;
    }
  }
  producer.join();
  service.Stop();
  if (watch && out_path == nullptr) std::printf("\n--- final metrics ---\n");
  ok = render() && ok;
  return ok ? 0 : 1;
}

/// Builds engine options for the offline snapshot / restore commands.
/// When the directory already holds a snapshot its recorded config wins
/// (restore must match it exactly); a log-only directory falls back to
/// serve-sim's defaults, overridable with --shards / --min-visit.
AnalyticsEngine::Options OfflineEngineOptions(const Args& args,
                                              const std::string& state_dir) {
  AnalyticsEngine::Options eopts;
  eopts.num_shards = args.GetInt("shards", 4);
  eopts.min_visit_seconds = args.GetDouble("min-visit", 0.0);
  std::ifstream in(state_dir + "/snapshot.c2mn",
                   std::ios::in | std::ios::binary);
  if (in) {
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    storage::SnapshotData snap;
    if (storage::DecodeSnapshot(bytes, &snap).ok()) {
      eopts.num_shards = snap.engine.num_shards;
      eopts.bucket_seconds = snap.engine.bucket_seconds;
      eopts.horizon_seconds = snap.engine.horizon_seconds;
      eopts.min_visit_seconds = snap.engine.min_visit_seconds;
      eopts.dwell_min_seconds = snap.engine.dwell_min_seconds;
      eopts.dwell_max_seconds = snap.engine.dwell_max_seconds;
      eopts.dwell_growth = snap.engine.dwell_growth;
    }
    // A snapshot that fails to decode is reported by Recover below with
    // a real error message; don't pre-empt it here.
  }
  return eopts;
}

/// Shared recover step for the snapshot / restore subcommands.  Returns
/// false (after printing the error) when the directory cannot be
/// recovered.
bool RecoverOffline(const Args& args, const char* state_dir,
                    std::unique_ptr<AnalyticsEngine>* engine,
                    std::unique_ptr<storage::StorageManager>* manager,
                    storage::RecoveryStats* stats) {
  const AnalyticsEngine::Options eopts = OfflineEngineOptions(args, state_dir);
  engine->reset(new AnalyticsEngine(eopts));
  storage::StorageManager::Options mopts;
  mopts.state_dir = state_dir;
  manager->reset(new storage::StorageManager(mopts, eopts.num_shards));
  const Status status = (*manager)->Recover(engine->get(), stats);
  if (!status.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

void PrintRecoveryReport(const storage::RecoveryStats& stats,
                         const AnalyticsEngine& engine) {
  const AnalyticsSnapshot snap = engine.Snapshot();
  std::printf("snapshot          %s\n",
              stats.snapshot_loaded ? "loaded" : "absent");
  std::printf("log replay        %" PRIu64 " records applied (%" PRIu64
              " visits), %" PRIu64 " skipped\n",
              stats.replayed_records, stats.replayed_visits,
              stats.skipped_records);
  if (stats.truncated_torn_tail) {
    std::printf("torn tail         truncated %" PRIu64 " bytes\n",
                stats.truncated_bytes);
  }
  std::printf("recovered state   %" PRIu64 " m-semantics ingested, %" PRIu64
              " visits retained, %d shards\n",
              snap.semantics_ingested, snap.retained_visits,
              engine.num_shards());
}

// Offline compaction: recover, then run one checkpoint cycle so the
// directory collapses to a fresh snapshot plus an empty log segment.
int SnapshotCmd(const Args& args) {
  const char* state_dir = args.Get("state-dir");
  if (state_dir == nullptr) return Usage();
  std::unique_ptr<AnalyticsEngine> engine;
  std::unique_ptr<storage::StorageManager> manager;
  storage::RecoveryStats stats;
  if (!RecoverOffline(args, state_dir, &engine, &manager, &stats)) return 1;
  const Status status = manager->Checkpoint(*engine);
  if (!status.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", status.ToString().c_str());
    return 1;
  }
  PrintRecoveryReport(stats, *engine);
  std::printf("published snapshot (format v%u) to %s; log compacted to "
              "%" PRIu64 " bytes\n",
              storage::kSnapshotVersion, state_dir, manager->log_bytes());
  return 0;
}

// Recover and report — the scriptable integrity check over a state
// directory (exit 0 iff the directory is recoverable).
int RestoreCmd(const Args& args) {
  const char* state_dir = args.Get("state-dir");
  if (state_dir == nullptr) return Usage();
  std::unique_ptr<AnalyticsEngine> engine;
  std::unique_ptr<storage::StorageManager> manager;
  storage::RecoveryStats stats;
  if (!RecoverOffline(args, state_dir, &engine, &manager, &stats)) return 1;
  PrintRecoveryReport(stats, *engine);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Logger::Global().set_level(LogLevel::kWarning);
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    // "--key value" pairs, or a bare "--flag" (next token missing or
    // itself an option).
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      args.options[argv[i] + 2] = "1";
    }
  }
  if (args.command == "generate") return Generate(args);
  if (args.command == "train") return Train(args);
  if (args.command == "annotate") return Annotate(args);
  if (args.command == "render") return Render(args);
  if (args.command == "serve-sim") return ServeSim(args);
  if (args.command == "analytics") return Analytics(args);
  if (args.command == "metrics") return Metrics(args);
  if (args.command == "snapshot") return SnapshotCmd(args);
  if (args.command == "restore") return RestoreCmd(args);
  return Usage();
}
