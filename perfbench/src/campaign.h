// campaign.h — the benchmark's two workloads.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

/// The world every workload measures: BuildInternet at scale 1.0 with
/// this seed (the CLI's default).  --seed drives what a run draws at
/// random in it: probe order, the calibration sample, validation pairs,
/// churn, the serve request tape.  A world per seed would compare different
/// worlds, whose campaign times differ by up to 1.7x.
inline constexpr std::uint64_t kWorldSeed = 42;
inline constexpr double kWorldScale = 1.0;

struct RunOptions {
  std::uint64_t seed = 1;
  /// Measured time the run aims for; whole campaigns repeat until their
  /// summed wall time reaches it (at least one).
  double seconds = 20.0;
  bool trace = false;
  /// Directory inside the checkout for the files the run writes.
  std::string work_dir;
};

/// `hobbit_sim measure --mcl` at scale 1.0 on 4 threads, in process.  Its
/// traced run also measures the serve layers on the campaign's blocks.
int RunCampaignMcl(const RunOptions& options, Report& report);

/// The churned streaming campaign: 3 probe threads, window 256, route
/// churn every 64 blocks, a delta publish every 4096 blocks.
int RunCampaignStream(const RunOptions& options, Report& report);

}  // namespace perfbench
