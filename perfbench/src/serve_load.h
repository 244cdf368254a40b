// serve_load.h — the serving layers, measured in campaign-mcl's traced run.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "cluster/aggregate.h"
#include "serve/snapshot.h"
#include "util.h"

namespace perfbench {

/// Compiles `blocks` into a v2 snapshot and measures the serve layer on
/// it: in process (compile, load, lookups, the line service) and over
/// loopback, with one Reactor thread under an open-loop load at a fixed
/// rate and then up a rate ladder.  Adds the serve.* metrics to `report`.
void MeasureServeLayers(std::span<const hobbit::cluster::AggregateBlock> blocks,
                        std::span<const hobbit::serve::ClassifiedPrefix> classified,
                        std::uint64_t seed, const std::string& work_dir,
                        Report& report);

}  // namespace perfbench
