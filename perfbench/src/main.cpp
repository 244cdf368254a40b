// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --work-dir DIR
//
// It prints human-readable progress and tables, then one JSON object
// as the last line of standard output.  perfbench/run.py builds this
// binary and is the command to use; see perfbench/README.md.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "campaign.h"
#include "util.h"

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  auto flag = [&](const std::string& name) -> std::string {
    auto it = flags.find("--" + name);
    if (it == flags.end()) {
      std::cerr << "perfbench: missing --" << name << "\n";
      std::exit(2);
    }
    return it->second;
  };

  perfbench::RunOptions options;
  options.seed = std::strtoull(flag("seed").c_str(), nullptr, 10);
  options.seconds = std::strtod(flag("seconds").c_str(), nullptr);
  options.trace = flag("trace") == "1";
  options.work_dir = flag("work-dir");
  const std::string workload = flag("workload");

  perfbench::Report report;
  int status = 0;
  if (workload == "campaign-mcl") {
    status = perfbench::RunCampaignMcl(options, report);
  } else if (workload == "campaign-stream") {
    status = perfbench::RunCampaignStream(options, report);
  } else {
    std::cerr << "perfbench: unknown workload " << workload << "\n";
    return 2;
  }
  std::cout << report.Json() << std::endl;
  return status != 0 ? status : (report.correct() ? 0 : 1);
}
