/**
 * @file
 * The layer ladder of the traced run: one timed row per layer of
 * the functional stack, outside in from the device port down to the
 * BitVec word kernels, each sized like the workload's operands.
 */

#ifndef SPIMBENCH_LADDER_HH_
#define SPIMBENCH_LADDER_HH_

#include <cstdint>

#include "metrics.hh"
#include "trace.hh"
#include "workloads.hh"

namespace spimbench
{

/** Correctness checks the ladder made along the way. */
struct LadderChecks
{
    unsigned attempted = 0;
    unsigned failed = 0;
};

/**
 * Run every ladder row for about @p rowSeconds of host time each
 * and record its metrics in @p out. Drain rows use 1 and
 * @p threads engine jobs.
 */
LadderChecks runLadder(const LadderShape &shape, unsigned threads,
                       double rowSeconds, std::uint64_t seed,
                       Metrics &out, Tracer &tr);

} // namespace spimbench

#endif // SPIMBENCH_LADDER_HH_
