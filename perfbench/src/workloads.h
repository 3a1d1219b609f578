// The benchmark's workloads.  Each makes its inputs from the seed alone.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "perfbench/src/bench.h"

namespace perfbench {

std::unique_ptr<Workload> MakeBulkMultihop(std::uint64_t seed);
std::unique_ptr<Workload> MakeRpcCutSrclan(std::uint64_t seed);
std::unique_ptr<Workload> MakeChaosCorpus(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
