// perfbench — the AliDrone repo benchmark.
//
//   perfbench --workload <fleet|audit-stream|tesla-broadcast|ledger-audit>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Prints a host record, one line per metric (value, unit, sample count,
// percentile) and, as the last line, the JSON result. Exits non-zero when
// a correctness gate fails.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <fleet|audit-stream|"
               "tesla-broadcast|ledger-audit> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed" && parse_u64(value, n)) {
      options.seed = n;
    } else if (arg == "--seconds" && parse_u64(value, n) && n > 0) {
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      return usage();
    }
  }
  if (!perfbench::make_workload(options)) return usage();
  try {
    return perfbench::run_benchmark(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
