/**
 * @file
 * The benchmark's four workloads. NOTES.md says why each exists and
 * which layers it stresses or bypasses.
 */

#ifndef SPIMBENCH_WORKLOADS_HH_
#define SPIMBENCH_WORKLOADS_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "metrics.hh"
#include "trace.hh"

namespace spimbench
{

/** What one iteration did and how its checks went. */
struct IterationOutcome
{
    std::uint64_t vpcs = 0; //!< VPCs completed (simulated ones on
                            //!< timed_polybench)
    std::uint64_t macs = 0; //!< matmul MACs (0 when not a matmul)
    unsigned checks = 0;    //!< correctness checks attempted
    unsigned failedChecks = 0;
};

/** Operand shape the layer ladder copies from a workload. */
struct LadderShape
{
    std::uint32_t vectorLen = 64; //!< elements per VPC operand
    std::uint32_t vpcsPerDrain = 256; //!< VPCs per processQueue drain
    std::uint64_t portBytes = 4096;   //!< host<->device bytes per pass
    /** runTiledMatmul shape of one device (n x k x m); all 0 when
     * the workload runs no tiled matmul. */
    std::uint32_t tiledN = 0, tiledK = 0, tiledM = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    /** Host threads the workload runs with. */
    virtual unsigned threads() const = 0;

    /**
     * Construct devices, generate the seeded inputs, compute host
     * references and build task graphs. Called several times per
     * run (set-up time is the median); each call replaces the
     * previous state.
     */
    virtual void setup(Tracer &tr) = 0;

    /** One iteration; checks its own outputs. */
    virtual IterationOutcome iterate(Tracer &tr) = 0;

    /**
     * Every simulated statistic of the last iteration, as text. It
     * must repeat exactly across iterations and across runs with
     * the same seed; only host time may vary.
     */
    virtual std::string simDigest() const = 0;

    /** Modelled end-to-end metrics (sim_*), printed by name. */
    virtual void modelMetrics(Metrics &) const {}

    /**
     * Per-layer metrics from the workload's own statistics and the
     * traced iterations' spans (@p traced iterations of @p tr).
     */
    virtual void layerMetrics(Metrics &out, const Tracer &tr,
                              unsigned traced) const = 0;

    virtual LadderShape ladderShape() const = 0;
};

/**
 * Build workload @p name for @p seed; @p tiny shrinks every size for
 * the smoke test. Returns nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, bool tiny,
                                       unsigned threads);

/** @p n seeded random bytes (operands of every workload and row). */
std::vector<std::uint8_t> randomBytes(streampim::Rng &rng,
                                      std::size_t n);

/** Host threads to use: min(nproc, 4). */
unsigned benchThreads();

/** nproc: CPUs this process may run on. */
unsigned hostCpus();

} // namespace spimbench

#endif // SPIMBENCH_WORKLOADS_HH_
