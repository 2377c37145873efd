// The three workloads of the benchmark and the check self-test.
#ifndef OGDP_PERFBENCH_WORKLOADS_H_
#define OGDP_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"
#include "trace.h"

namespace perfbench {

/// From-scratch analysis of the four portals, Table-1 LZ77 sizing on.
void RunStudy(uint64_t seed, Trace& trace, RunRecord& record);

/// Incremental re-analysis of a seeded snapshot chain per portal over a
/// durable cache directory, then a crash restart of the last epoch.
void RunRecrawl(uint64_t seed, Trace& trace, RunRecord& record);

/// Table search: index refresh per epoch and a closed-loop query stream
/// of join, union and keyword queries per epoch.
void RunSearch(uint64_t seed, Trace& trace, RunRecord& record);

/// Hands every output check a deliberately wrong result; returns the
/// number of checks that failed to reject theirs (0 = all reject).
int RunSelfTest(uint64_t seed);

}  // namespace perfbench

#endif  // OGDP_PERFBENCH_WORKLOADS_H_
