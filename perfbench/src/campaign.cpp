// campaign.cpp — the campaign-mcl and campaign-stream workloads.
//
// Both drive the libraries through the same public calls as
// `hobbit_sim measure --mcl` and `hobbit_sim stream-campaign`.  Set-up is
// the world build; the campaign is timed from the end of set-up to the
// final blocks (batch) or the final published snapshot (stream).  Each
// repetition builds a fresh world, because churn mutates the topology
// and because set-up time is reported as a median over repetitions.
#include "campaign.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "analysis/evaluation.h"
#include "cluster/aggregate.h"
#include "cluster/blockio.h"
#include "common/parallel.h"
#include "hobbit/pipeline.h"
#include "hobbit/resultio.h"
#include "netsim/internet.h"
#include "probing/zmap.h"
#include "serve/snapshot.h"
#include "serve/store.h"
#include "stream/stream.h"
#include "serve_load.h"

namespace perfbench {
namespace {

using namespace hobbit;

constexpr int kMclThreads = 4;
constexpr int kStreamProbeThreads = 3;
constexpr std::size_t kStreamWindow = 256;
constexpr std::size_t kChurnEvery = 64;
constexpr std::size_t kChurnFlips = 4;
constexpr std::size_t kPublishEvery = 4096;
/// Cold ReprobeBlock calls behind hobbit.reprobe_us.
constexpr std::size_t kReprobeSamples = 400;

struct World {
  netsim::Internet internet;
  double setup_s = 0.0;
};

World BuildWorld(Tracer* tracer) {
  netsim::InternetConfig config;
  config.seed = kWorldSeed;
  config.scale = kWorldScale;
  World world;
  const Clock::time_point start = Clock::now();
  world.internet = Traced(tracer, "netsim.build",
                          [&] { return netsim::BuildInternet(config); });
  world.setup_s = SecondsBetween(start, Clock::now());
  return world;
}

/// One row of the per-stage table.
struct Stage {
  std::string name;
  double wall = 0.0;
  double cpu = 0.0;
};

struct MclOutcome {
  core::PipelineResult pipeline;
  cluster::MclAggregationResult mcl;
  /// Identical-last-hop aggregates (what MCL clusters) and final blocks.
  std::vector<cluster::AggregateBlock> identical;
  std::vector<cluster::AggregateBlock> blocks;
  double campaign_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t validate_probes = 0;
  std::vector<Stage> stages;  // traced runs only
};

/// The `measure --mcl` sequence.  With a tracer, every library call gets
/// a span and the stages inside RunPipeline are split by its own stage
/// timers, with CPU read off a sampled timeline.
MclOutcome RunMcl(const netsim::Internet& internet, std::uint64_t seed,
                  int threads, Tracer* tracer) {
  MclOutcome out;
  const netsim::Simulator& simulator = *internet.simulator;
  const std::uint64_t probes_before = simulator.probes_sent();
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();

  common::ThreadPool pool(threads);
  core::PipelineConfig config;
  config.seed = seed;
  config.pool = &pool;
  std::optional<CpuTimeline> timeline;
  if (tracer != nullptr) timeline.emplace();
  const Clock::time_point pipeline_start = Clock::now();
  out.pipeline = Traced(tracer, "hobbit.pipeline",
                        [&] { return core::RunPipeline(internet, config); });
  const Clock::time_point pipeline_end = Clock::now();
  if (timeline) timeline->Stop();

  out.identical = Traced(tracer, "cluster.aggregate", [&] {
    return cluster::AggregateIdentical(out.pipeline.HomogeneousBlocks());
  });
  cluster::MclAggregationParams mcl_params;
  mcl_params.mcl.pool = &pool;
  out.mcl = Traced(tracer, "cluster.mcl", [&] {
    return cluster::RunMclAggregation(out.identical, mcl_params);
  });
  cluster::ValidationParams validation;
  validation.pool = &pool;
  const std::uint64_t validate_before = simulator.probes_sent();
  Traced(tracer, "cluster.validate", [&] {
    cluster::ValidateClusters(internet, out.pipeline.study_blocks,
                              out.identical, out.mcl, validation);
  });
  out.validate_probes = simulator.probes_sent() - validate_before;
  out.blocks = Traced(tracer, "cluster.merge", [&] {
    return cluster::MergeValidatedClusters(out.identical, out.mcl);
  });

  out.campaign_s = SecondsBetween(start, Clock::now());
  out.cpu_s = ProcessCpuSeconds() - cpu_before;
  out.probes = simulator.probes_sent() - probes_before;

  if (timeline) {
    const core::PipelineStats& stats = out.pipeline.stats;
    using Seconds = std::chrono::duration<double>;
    auto at = [&](double offset) {
      return pipeline_start +
             std::chrono::duration_cast<Clock::duration>(Seconds(offset));
    };
    const Clock::time_point snapshot_end = at(stats.snapshot_seconds);
    const Clock::time_point calibration_end =
        at(stats.snapshot_seconds + stats.calibration_seconds);
    const Clock::time_point measurement_start =
        pipeline_end - std::chrono::duration_cast<Clock::duration>(
                           Seconds(stats.measurement_seconds));
    auto cpu_between = [&](Clock::time_point a, Clock::time_point b) {
      return timeline->CpuAt(b) - timeline->CpuAt(a);
    };
    out.stages.push_back({"snapshot", stats.snapshot_seconds,
                          cpu_between(pipeline_start, snapshot_end)});
    out.stages.push_back({"calibration", stats.calibration_seconds,
                          cpu_between(snapshot_end, calibration_end)});
    out.stages.push_back({"measurement", stats.measurement_seconds,
                          cpu_between(measurement_start, pipeline_end)});
    for (const char* name : {"cluster.aggregate", "cluster.mcl",
                             "cluster.validate", "cluster.merge"}) {
      const Tracer::Span* span = tracer->Latest(name);
      out.stages.push_back({std::string(name).substr(8), span->wall(),
                            span->cpu()});
    }
  }
  return out;
}

/// Echo probes of the zmap stage: it sweeps every address of every
/// candidate /24.
double SweptAddresses(const netsim::Internet& internet) {
  return 256.0 * static_cast<double>(internet.study_24s.size());
}

std::string RenderResults(const core::PipelineResult& pipeline) {
  std::ostringstream out;
  core::WriteResults(out, pipeline.results);
  return out.str();
}

std::string RenderBlocks(std::span<const cluster::AggregateBlock> blocks) {
  std::ostringstream out;
  cluster::WriteBlocks(out, blocks);
  return out.str();
}

/// Output checks shared by both campaigns: the blocks are disjoint, hold
/// only /24s the campaign called homogeneous, and survive a text
/// round trip unchanged.
void CheckBlocks(std::span<const cluster::AggregateBlock> blocks,
                 const std::unordered_set<std::uint32_t>& homogeneous,
                 Report& report) {
  std::unordered_set<std::uint32_t> seen;
  bool disjoint = true;
  bool members_homogeneous = true;
  for (const cluster::AggregateBlock& block : blocks) {
    for (const netsim::Prefix& member : block.member_24s) {
      disjoint &= seen.insert(member.base().value()).second;
      members_homogeneous &= homogeneous.count(member.base().value()) > 0;
    }
  }
  report.Check(!blocks.empty(), "campaign produced no blocks");
  report.Check(disjoint, "a /24 appears in two blocks");
  report.Check(members_homogeneous, "a block holds a non-homogeneous /24");
  const std::string text = RenderBlocks(blocks);
  std::istringstream in(text);
  std::string error;
  std::optional<std::vector<cluster::AggregateBlock>> parsed =
      cluster::ReadBlocks(in, &error);
  report.Check(parsed && RenderBlocks(*parsed) == text,
               "blocks text round trip: " + error);
}

std::vector<serve::ClassifiedPrefix> ClassifiedOf(
    std::span<const stream::StreamRecord> records) {
  std::vector<serve::ClassifiedPrefix> classified;
  classified.reserve(records.size());
  for (const stream::StreamRecord& record : records) {
    classified.push_back(
        {record.prefix, static_cast<std::uint8_t>(record.classification)});
  }
  return classified;
}

void PrintStageTable(int threads, const MclOutcome& run) {
  double covered = 0.0;
  std::cout << "stage table, campaign-mcl, threads=" << threads
            << " (campaign_s " << std::fixed << std::setprecision(3)
            << run.campaign_s << ")\n";
  std::cout << "  stage          wall_s   cpu_s   share\n";
  for (const Stage& stage : run.stages) {
    covered += stage.wall;
    std::cout << "  " << std::left << std::setw(13) << stage.name
              << std::right << std::setw(8) << stage.wall << std::setw(8)
              << stage.cpu << std::setw(7) << std::setprecision(1)
              << 100.0 * stage.wall / run.campaign_s << "%\n"
              << std::setprecision(3);
  }
  std::cout << "  attributed " << std::setprecision(1)
            << 100.0 * covered / run.campaign_s << "% of campaign_s\n";
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
}

const Stage& StageOf(const MclOutcome& run, const std::string& name) {
  return *std::find_if(run.stages.begin(), run.stages.end(),
                       [&](const Stage& stage) { return stage.name == name; });
}

std::unordered_set<std::uint32_t> HomogeneousKeys(
    const core::PipelineResult& pipeline) {
  std::unordered_set<std::uint32_t> keys;
  for (const core::BlockResult& r : pipeline.results) {
    if (core::IsHomogeneous(r.classification)) {
      keys.insert(r.prefix.base().value());
    }
  }
  return keys;
}

void CheckPipeline(const core::PipelineResult& pipeline, Report& report) {
  bool aligned = pipeline.results.size() == pipeline.study_blocks.size() &&
                 !pipeline.results.empty();
  for (std::size_t i = 0; aligned && i < pipeline.results.size(); ++i) {
    aligned = pipeline.results[i].prefix == pipeline.study_blocks[i].prefix;
  }
  report.Check(aligned, "one result per study /24, in study order");
}

/// campaign-mcl with tracing: untraced and traced runs at 4 threads (the
/// tracing overhead), a traced run at 1 thread (the stage table and the
/// thread-count identity check), and the cold-reprobe sample.
int RunCampaignMclTraced(const RunOptions& options, Report& report) {
  Tracer tracer;
  double untraced_s = 0.0;
  {
    World world = BuildWorld(nullptr);
    untraced_s =
        RunMcl(world.internet, options.seed, kMclThreads, nullptr).campaign_s;
  }

  std::vector<double> build_s;
  MclOutcome runs[2];
  const int thread_counts[2] = {kMclThreads, 1};
  double reprobe_us = 0.0;
  std::uint64_t calibration_probes = 0;
  std::size_t member_24s = 0;
  std::size_t largest_cluster = 0;
  double swept_addresses = 0.0;
  for (int k = 0; k < 2; ++k) {
    World world = BuildWorld(&tracer);
    build_s.push_back(world.setup_s);
    MclOutcome& run = runs[k];
    run = RunMcl(world.internet, options.seed, thread_counts[k], &tracer);
    CheckPipeline(run.pipeline, report);
    CheckBlocks(run.blocks, HomogeneousKeys(run.pipeline), report);
    const std::string suffix = "-t" + std::to_string(thread_counts[k]);
    const std::string results = RenderResults(run.pipeline);
    const std::string blocks = RenderBlocks(run.blocks);
    report.Check(
        WriteFile(options.work_dir + "/results" + suffix + ".txt", results) &&
            WriteFile(options.work_dir + "/blocks" + suffix + ".txt", blocks),
        "write renderings");
    double covered = 0.0;
    for (const Stage& stage : run.stages) covered += stage.wall;
    report.Check(covered >= 0.95 * run.campaign_s,
                 "stage times cover less than 95% of campaign_s");
    PrintStageTable(thread_counts[k], run);
    if (k != 0) continue;

    // Per-layer extras, measured once, on the 4-thread world.
    common::ThreadPool pool(kMclThreads);
    core::PipelineConfig config;
    config.seed = options.seed;
    const core::CampaignSetup setup = Traced(&tracer, "hobbit.prepare", [&] {
      return core::PrepareCampaign(world.internet, config,
                                   world.internet.simulator.get(), &pool);
    });
    calibration_probes = setup.stats.probes_sent;
    swept_addresses = SweptAddresses(world.internet);
    netsim::Rng rng = netsim::Rng(options.seed).Fork(0x4E940BEULL);
    std::vector<double> reprobes;
    for (std::size_t i = 0; i < kReprobeSamples; ++i) {
      const std::size_t index = rng.NextBelow(run.pipeline.study_blocks.size());
      const Clock::time_point start = Clock::now();
      core::BlockResult result = core::ReprobeBlock(
          world.internet, run.pipeline.study_blocks[index], 0x5EEDULL + i);
      asm volatile("" : : "r"(&result) : "memory");
      reprobes.push_back(SecondsBetween(start, Clock::now()) * 1e6);
    }
    reprobe_us = Median(reprobes);
    for (const cluster::ClusterInfo& cluster : run.mcl.clusters) {
      std::size_t members = 0;
      for (std::uint32_t id : cluster.aggregate_ids) {
        members += run.identical[id].member_24s.size();
      }
      member_24s += members;
      largest_cluster = std::max(largest_cluster, members);
    }
    MeasureServeLayers(run.blocks,
                       serve::ClassifiedFrom(std::span<const core::BlockResult>(
                           run.pipeline.results)),
                       options.seed, options.work_dir, report);
  }
  report.RequireIdentical(options.work_dir + "/results-t4.txt",
                          options.work_dir + "/results-t1.txt");
  report.RequireIdentical(options.work_dir + "/blocks-t4.txt",
                          options.work_dir + "/blocks-t1.txt");
  report.Check(runs[0].probes == runs[1].probes,
               "probes_sent differs across thread counts");

  const MclOutcome& t4 = runs[0];
  const MclOutcome& t1 = runs[1];
  const core::PipelineStats& stats = t4.pipeline.stats;
  report.Add("netsim.build_s", Median(build_s), "s");
  report.Add("probing.snapshot_s", stats.snapshot_seconds, "s");
  report.Add("probing.snapshot_probes", swept_addresses, "count");
  report.Add("hobbit.calibration_s", stats.calibration_seconds, "s");
  report.Add("hobbit.calibration_probes",
             static_cast<double>(calibration_probes), "count");
  report.Add("hobbit.measurement_s", stats.measurement_seconds, "s");
  report.Add("hobbit.measurement_cpu_s", StageOf(t4, "measurement").cpu, "s");
  report.Add("hobbit.measurement_probes",
             static_cast<double>(stats.probes_sent - calibration_probes),
             "count");
  report.Add("hobbit.reprobe_us", reprobe_us, "us");
  report.Add("cluster.aggregate_s", StageOf(t4, "aggregate").wall, "s");
  report.Add("cluster.mcl_s", StageOf(t4, "mcl").wall, "s");
  report.Add("cluster.clusters", static_cast<double>(t4.mcl.clusters.size()),
             "count");
  report.Add("cluster.validate_s", StageOf(t4, "validate").wall, "s");
  report.Add("cluster.validate_cpu_s", StageOf(t4, "validate").cpu, "s");
  report.Add("cluster.validate_probes",
             static_cast<double>(t4.validate_probes), "count");
  report.Add("cluster.validate_member_24s", static_cast<double>(member_24s),
             "count");
  report.Add("cluster.largest_cluster_share",
             member_24s == 0 ? 0.0
                             : static_cast<double>(largest_cluster) /
                                   static_cast<double>(member_24s),
             "ratio");
  report.Add("cluster.merge_s", StageOf(t4, "merge").wall, "s");
  auto efficiency = [&](const std::string& name) {
    const Stage& stage = StageOf(t4, name);
    return stage.cpu / (stage.wall * kMclThreads);
  };
  auto speedup = [&](const std::string& name) {
    return StageOf(t1, name).wall / StageOf(t4, name).wall;
  };
  report.Add("common.measurement_eff", efficiency("measurement"), "ratio");
  report.Add("common.validate_eff", efficiency("validate"), "ratio");
  report.Add("common.mcl_eff", efficiency("mcl"), "ratio");
  report.Add("common.measurement_speedup", speedup("measurement"), "x");
  report.Add("common.validate_speedup", speedup("validate"), "x");
  report.Add("common.mcl_speedup", speedup("mcl"), "x");
  report.Add("trace.campaign_overhead", t4.campaign_s / untraced_s, "ratio");
  std::cout << "tracing overhead: campaign_s traced " << t4.campaign_s
            << " s vs untraced " << untraced_s << " s\n";
  report.Check(tracer.WriteChromeTrace(options.work_dir + "/trace.json"),
               "write trace");
  report.set_counts(3, report.correct() ? 0 : 1);
  return 0;
}

struct StreamOutcome {
  stream::StreamResult result;
  serve::SnapshotStore store;
  double campaign_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t probes = 0;
  std::size_t churn_flips = 0;
  /// Wall time of each InjectRouteChurn call, and the instants the
  /// boundary callback fired (wave edges), for the traced run.
  std::vector<double> churn_s;
  std::vector<Clock::time_point> boundaries;
  Clock::time_point start;
  Clock::time_point end;
};

/// `hobbit_sim stream-campaign --threads 3 --churn-every 64
/// --publish-every 4096` into an in-process store.  The world is mutated
/// by the churn, so it is used once.
void RunStream(netsim::Internet& internet, std::uint64_t seed,
               Tracer* tracer, StreamOutcome& out) {
  const std::uint64_t probes_before = internet.simulator->probes_sent();
  const double cpu_before = ProcessCpuSeconds();
  out.start = Clock::now();

  common::ThreadPool pool(kStreamProbeThreads);
  stream::StreamConfig config;
  config.seed = seed;
  config.pool = &pool;
  config.window = kStreamWindow;
  config.segment = kChurnEvery;
  config.publish_every = kPublishEvery;
  config.store = &out.store;
  netsim::Rng churn_rng = netsim::Rng(seed).Fork(0xC4024ULL);
  config.on_segment_boundary = [&](std::size_t) {
    const Clock::time_point start = Clock::now();
    out.boundaries.push_back(start);
    out.churn_flips += Traced(tracer, "scenario.churn", [&] {
      return stream::InjectRouteChurn(internet.topology, churn_rng,
                                      kChurnFlips);
    });
    out.churn_s.push_back(SecondsBetween(start, Clock::now()));
  };
  out.result = Traced(tracer, "stream.campaign", [&] {
    return stream::RunStreamCampaign(internet, config);
  });

  out.end = Clock::now();
  out.campaign_s = SecondsBetween(out.start, out.end);
  out.cpu_s = ProcessCpuSeconds() - cpu_before;
  out.probes = internet.simulator->probes_sent() - probes_before;
}

/// Wall time of every probe wave that starts and ends at a boundary
/// callback, in ms.  (The first wave also carries the snapshot and
/// calibration stages, and the last one the closing publish.)
std::vector<double> WaveMillis(const StreamOutcome& run) {
  std::vector<double> millis;
  for (std::size_t i = 1; i < run.boundaries.size(); ++i) {
    millis.push_back(SecondsBetween(run.boundaries[i - 1], run.boundaries[i]) *
                     1e3);
  }
  return millis;
}

/// Confusion-matrix accuracy of the stream's verdicts against ground
/// truth, counted exactly as analysis::EvaluateVerdicts counts a batch.
double StreamVerdictAccuracy(const netsim::Internet& internet,
                             std::span<const stream::StreamRecord> records) {
  std::uint64_t correct = 0;
  std::uint64_t total = 0;
  for (const stream::StreamRecord& record : records) {
    if (!core::IsAnalyzable(record.classification)) continue;
    const netsim::TruthRecord* truth = internet.TruthOf(record.prefix);
    if (truth == nullptr) continue;
    ++total;
    correct += core::IsHomogeneous(record.classification) !=
               truth->heterogeneous;
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

/// Stream output checks: every publish accepted, and the served final
/// snapshot byte-identical to a full recompile of the final state.
void CheckStream(const StreamOutcome& run, Report& report) {
  const stream::StreamStats& stats = run.result.stats;
  report.Check(stats.publish_failures == 0, "stream publish failures");
  report.Check(stats.publishes > 0, "stream published nothing");
  report.Check(run.result.records.size() == stats.measured_24s &&
                   !run.result.records.empty(),
               "one record per measured /24");
  const std::vector<std::byte> reference = serve::CompileSnapshot(
      run.result.blocks, ClassifiedOf(run.result.records),
      stats.publishes);  // epoch_base 1, one epoch per publish
  std::shared_ptr<const serve::Snapshot> served = run.store.Current();
  const bool identical =
      served != nullptr && served->bytes().size() == reference.size() &&
      std::equal(reference.begin(), reference.end(), served->bytes().begin());
  report.Check(identical,
               "served final snapshot differs from a full recompile");
  std::unordered_set<std::uint32_t> homogeneous;
  for (const stream::StreamRecord& record : run.result.records) {
    if (core::IsHomogeneous(record.classification)) {
      homogeneous.insert(record.prefix.base().value());
    }
  }
  CheckBlocks(run.result.blocks, homogeneous, report);
}

std::uint64_t StreamDigest(const stream::StreamResult& result) {
  std::ostringstream out;
  for (const stream::StreamRecord& record : result.records) {
    out << record.prefix.ToString() << ' '
        << static_cast<int>(record.classification) << ' '
        << record.probes_used << '\n';
  }
  return Fnv1a(out.str()) ^ (Fnv1a(RenderBlocks(result.blocks)) * 31);
}

int RunCampaignStreamTraced(const RunOptions& options, Report& report) {
  Tracer tracer;
  World world = BuildWorld(&tracer);
  StreamOutcome run;
  CpuTimeline timeline;
  RunStream(world.internet, options.seed, &tracer, run);
  timeline.Stop();
  CheckStream(run, report);

  const stream::StreamStats& stats = run.result.stats;
  const core::PipelineStats& setup = stats.setup;
  const std::vector<double> wave_ms = WaveMillis(run);
  const Clock::time_point measurement_start =
      run.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          setup.snapshot_seconds + setup.calibration_seconds));
  const Clock::time_point measurement_end =
      measurement_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  stats.measurement_seconds));

  report.Add("netsim.build_s", world.setup_s, "s");
  report.Add("probing.snapshot_s", setup.snapshot_seconds, "s");
  report.Add("probing.snapshot_probes", SweptAddresses(world.internet),
             "count");
  report.Add("hobbit.calibration_s", setup.calibration_seconds, "s");
  report.Add("hobbit.calibration_probes",
             static_cast<double>(setup.probes_sent), "count");
  report.Add("hobbit.measurement_s", stats.measurement_seconds, "s");
  report.Add("hobbit.measurement_cpu_s",
             timeline.CpuAt(measurement_end) -
                 timeline.CpuAt(measurement_start),
             "s");
  report.Add("hobbit.measurement_probes",
             static_cast<double>(stats.probes_sent), "count");
  report.Add("stream.measure_s", stats.measurement_seconds, "s");
  report.Add("stream.waves", static_cast<double>(run.boundaries.size() + 1),
             "count");
  report.Add("stream.wave_ms_p50", Quantile(wave_ms, 0.50), "ms");
  report.Add("stream.wave_ms_p99", Quantile(wave_ms, 0.99), "ms");
  report.Add("stream.publishes", static_cast<double>(stats.publishes),
             "count");
  report.Add("stream.delta_entries", static_cast<double>(stats.delta_entries),
             "count");
  report.Add("stream.queue_push_waits",
             static_cast<double>(stats.results_queue.push_waits), "count");
  report.Add("stream.queue_pop_waits",
             static_cast<double>(stats.results_queue.pop_waits), "count");
  report.Add("stream.queue_peak_depth",
             static_cast<double>(stats.results_queue.peak_depth), "count");
  report.Add("stream.peak_inflight",
             static_cast<double>(stats.peak_inflight_results), "count");
  std::vector<double> churn_ms;
  for (double s : run.churn_s) churn_ms.push_back(s * 1e3);
  report.Add("scenario.churn_ms", Median(churn_ms), "ms");
  report.Add("scenario.churn_flips", static_cast<double>(run.churn_flips),
             "count");
  report.Check(tracer.WriteChromeTrace(options.work_dir + "/trace.json"),
               "write trace");
  report.set_counts(1, report.correct() ? 0 : 1);
  return 0;
}

}  // namespace

int RunCampaignMcl(const RunOptions& options, Report& report) {
  if (options.trace) return RunCampaignMclTraced(options, report);
  std::vector<double> setup_s;
  std::vector<double> campaign_s;
  std::vector<double> cpu_s;
  std::vector<double> peak_rss_mb;
  std::optional<std::uint64_t> probes;
  std::optional<double> accuracy;
  std::optional<double> purity;
  std::optional<std::uint64_t> digest;
  double measured = 0.0;
  std::size_t campaigns = 0;
  while (campaigns == 0 || measured < options.seconds) {
    ResetPeakRss();
    World world = BuildWorld(nullptr);
    setup_s.push_back(world.setup_s);
    MclOutcome run = RunMcl(world.internet, options.seed, kMclThreads, nullptr);
    ++campaigns;
    measured += run.campaign_s;
    campaign_s.push_back(run.campaign_s);
    cpu_s.push_back(run.cpu_s);
    peak_rss_mb.push_back(PeakRssMb());
    std::cerr << "campaign-mcl #" << campaigns << ": " << run.campaign_s
              << " s wall, " << run.cpu_s << " s cpu\n";

    // Outputs: well formed, and identical in every repetition.
    CheckPipeline(run.pipeline, report);
    CheckBlocks(run.blocks, HomogeneousKeys(run.pipeline), report);
    const std::uint64_t rendered =
        Fnv1a(RenderResults(run.pipeline)) ^
        (Fnv1a(RenderBlocks(run.blocks)) * 31);
    const double run_accuracy =
        analysis::EvaluateVerdicts(world.internet, run.pipeline).Accuracy();
    const double run_purity =
        analysis::EvaluateAggregation(world.internet, run.blocks).Purity();
    report.Check(!digest || *digest == rendered,
                 "results/blocks differ between repetitions");
    report.Check(!probes || *probes == run.probes,
                 "probe count differs between repetitions");
    report.Check(!accuracy || *accuracy == run_accuracy,
                 "verdict accuracy differs between repetitions");
    digest = rendered;
    probes = run.probes;
    accuracy = run_accuracy;
    purity = run_purity;

    if (measured >= options.seconds) {
      report.Add("setup_s", Median(setup_s), "s");
      report.Add("campaign_s", TrimmedMean(campaign_s), "s");
      report.Add("cpu_s", TrimmedMean(cpu_s), "s");
      report.Add("probes_sent", static_cast<double>(*probes), "count");
      report.Add("verdict_accuracy", *accuracy, "ratio");
      report.Add("block_purity", *purity, "ratio");
    }
  }
  report.Add("peak_rss_mb", TrimmedMean(peak_rss_mb), "MiB");
  report.set_counts(campaigns, report.correct() ? 0 : campaigns);
  return 0;
}


int RunCampaignStream(const RunOptions& options, Report& report) {
  if (options.trace) return RunCampaignStreamTraced(options, report);
  std::vector<double> setup_s;
  std::vector<double> campaign_s;
  std::vector<double> cpu_s;
  std::vector<double> peak_rss_mb;
  std::optional<std::uint64_t> probes;
  std::optional<std::uint64_t> digest;
  double measured = 0.0;
  std::size_t campaigns = 0;
  while (campaigns == 0 || measured < options.seconds) {
    ResetPeakRss();
    World world = BuildWorld(nullptr);
    setup_s.push_back(world.setup_s);
    StreamOutcome run;
    RunStream(world.internet, options.seed, nullptr, run);
    ++campaigns;
    measured += run.campaign_s;
    campaign_s.push_back(run.campaign_s);
    cpu_s.push_back(run.cpu_s);
    peak_rss_mb.push_back(PeakRssMb());
    std::cerr << "campaign-stream #" << campaigns << ": " << run.campaign_s
              << " s wall, " << run.cpu_s << " s cpu\n";

    CheckStream(run, report);
    const std::uint64_t rendered = StreamDigest(run.result);
    report.Check(!digest || *digest == rendered,
                 "stream records/blocks differ between repetitions");
    report.Check(!probes || *probes == run.probes,
                 "probe count differs between repetitions");
    digest = rendered;
    probes = run.probes;

    if (measured >= options.seconds) {
      report.Add("setup_s", Median(setup_s), "s");
      report.Add("campaign_s", TrimmedMean(campaign_s), "s");
      report.Add("cpu_s", TrimmedMean(cpu_s), "s");
      report.Add("probes_sent", static_cast<double>(*probes), "count");
      report.Add("verdict_accuracy",
                 StreamVerdictAccuracy(world.internet, run.result.records),
                 "ratio");
      report.Add("block_purity",
                 analysis::EvaluateAggregation(world.internet,
                                               run.result.blocks)
                     .Purity(),
                 "ratio");
    }
  }
  report.Add("peak_rss_mb", TrimmedMean(peak_rss_mb), "MiB");
  report.set_counts(campaigns, report.correct() ? 0 : campaigns);
  return 0;
}

}  // namespace perfbench
