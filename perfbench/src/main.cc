// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload bulk_multihop|rpc_cut_srclan|chaos_corpus
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Repeats the workload's unit of work for about S seconds and prints the
// result; the last line is one JSON object (see RunBenchmark).  Usually run
// through perfbench/run.py, which builds this program and validates that
// line against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload bulk_multihop|rpc_cut_srclan|"
               "chaos_corpus --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               argv0);
  return 2;
}

bool ParseUint(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }

  std::unique_ptr<perfbench::Workload> workload;
  if (options.workload == "bulk_multihop") {
    workload = perfbench::MakeBulkMultihop(options.seed);
  } else if (options.workload == "rpc_cut_srclan") {
    workload = perfbench::MakeRpcCutSrclan(options.seed);
  } else if (options.workload == "chaos_corpus") {
    workload = perfbench::MakeChaosCorpus(options.seed);
  } else {
    return Usage(argv[0]);
  }
  return perfbench::RunBenchmark(options, workload.get());
}
