/**
 * @file
 * Ablation — multi-device sharding: device count x workload.
 *
 * The sharding layer (runtime/shard.hh + core/sharded_system.hh)
 * splits matrix workloads into per-device row blocks and drains the
 * fleet through the two-level (device x subarray) engine. This
 * ablation runs the same three workloads — an out-of-core matmul
 * that re-tiles within each device, a budgeted element-wise add,
 * and a sharded fault campaign — at 1, 2, 4 and 8 devices, and
 * checks the layer's two load-bearing properties:
 *
 *  - device-count invariance: every cell value and metric is a
 *    checksum or count that must be bit-identical no matter how
 *    the fleet executes (any deviceJobs x engineJobs schedule), and
 *    the matmul/element-wise outputs must equal the host reference
 *    and the unsharded single-device run at EVERY device count;
 *  - fleet scaling: the matmul row runs with an explicit device
 *    fan-out equal to the column's device count, and the perf
 *    section records per-device utilization, merge overhead and
 *    speedup_vs_one_device — the release-perf gate reads the
 *    devices=4 entry.
 *
 * Timing telemetry lives ONLY in the report's perf section
 * (perfNote), which CI differs strip: the cells stay byte-identical
 * across devices x jobs sweeps by construction.
 *
 * The bench fails (nonzero exit) when any output mismatches the
 * references, when the campaign's device-0 trajectory differs from
 * the one-device fleet's (the unsharded campaign), or when the
 * recovery invariant breaks on any device.
 */

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_util.hh"
#include "core/fault_campaign.hh"
#include "core/sharded_system.hh"
#include "parallel/sweep.hh"

using namespace streampim;
using namespace streampim::bench;

namespace
{

constexpr unsigned kDeviceCounts[] = {1, 2, 4, 8};
constexpr unsigned kColumns =
    sizeof(kDeviceCounts) / sizeof(kDeviceCounts[0]);

/** Matmul shape: out-of-core per device at every fleet size (every
 * block edge exceeds the small geometry's 32-element tile edge in
 * at least one dimension, so devices re-tile internally). */
constexpr std::uint32_t kN = 96, kK = 64, kM = 48;
constexpr std::uint64_t kAddElements = 4096;

/** 32-bit FNV-1a — cell values must be exactly representable. */
double
checksum(const std::vector<std::uint8_t> &bytes)
{
    std::uint32_t h = 2166136261u;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 16777619u;
    }
    return double(h);
}

std::vector<std::uint8_t>
patternA()
{
    std::vector<std::uint8_t> a(std::uint64_t(kN) * kK);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = std::uint8_t(i * 31 + 7);
    return a;
}

std::vector<std::uint8_t>
patternB()
{
    std::vector<std::uint8_t> b(std::uint64_t(kK) * kM);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = std::uint8_t(i * 17 + 3);
    return b;
}

/** Per-column timing snapshots, written by the grid cells (one
 * writer per slot) and read after run() to build the perf note.
 * The serial determinism re-run skips the write so the parallel
 * run's telemetry survives measureSerialReference(). */
struct ShardTiming
{
    double utilization = 0.0;
    double mergeSeconds = 0.0;
};
ShardTiming g_matmul_timing[kColumns];

SweepCellResult
matmulCell(unsigned col)
{
    const unsigned devices = kDeviceCounts[col];
    const auto a = patternA();
    const auto b = patternB();

    ShardedSystem sys(smallFunctionalParams(), devices);
    ShardedMatmulConfig cfg;
    // Explicit two-level budget: the column's full device fan-out
    // with one engine job each, so the cell's wall time measures
    // DEVICE-level scaling (the perf gate's axis) regardless of the
    // environment's job budget. Results are identical either way.
    cfg.deviceJobs = devices;
    cfg.tiled.jobs = 1;
    ShardedMatmulStats st;
    const auto c = runShardedMatmul(sys, a, b, kN, kK, kM, cfg, &st);

    if (c != hostMatmulReference(a, b, kN, kK, kM))
        throw std::runtime_error(
            "sharded matmul mismatches the host reference");
    if (devices == 1) {
        // The fleet of one must BE the unsharded tiled dataflow.
        StreamPimSystem single;
        TiledMatmulConfig tcfg;
        tcfg.jobs = 1;
        if (c != runTiledMatmul(single, a, b, kN, kK, kM, tcfg))
            throw std::runtime_error(
                "1-device shard diverges from the unsharded run");
    }

    if (!ThreadPool::inSerialSection()) {
        g_matmul_timing[col].utilization = st.utilization();
        g_matmul_timing[col].mergeSeconds = st.mergeSeconds;
    }

    SweepCellResult res;
    res.value = checksum(c);
    res.metrics["functional_ops"] = double(st.vpcs);
    res.metrics["tile_tasks"] = double(st.tileTasks);
    res.metrics["active_devices"] = double(st.activeDevices);
    res.metrics["merged_bytes"] = double(st.mergedBytes);
    return res;
}

SweepCellResult
vectorAddCell(unsigned col)
{
    const unsigned devices = kDeviceCounts[col];
    std::vector<std::uint8_t> a(kAddElements), b(kAddElements);
    for (std::size_t i = 0; i < kAddElements; ++i) {
        a[i] = std::uint8_t(i * 13 + 5);
        b[i] = std::uint8_t(i * 7 + 11);
    }

    ShardedSystem sys(smallFunctionalParams(), devices);
    ShardedElementwiseStats st;
    // Budgeted drain (deviceJobs = engineJobs = 0): the split
    // derives from STREAMPIM_JOBS / STREAMPIM_DEVICE_JOBS — the
    // identity sweeps vary exactly these knobs.
    const auto c = runShardedVectorAdd(sys, a, b, 0, 0, &st);

    for (std::size_t i = 0; i < kAddElements; ++i)
        if (c[i] != std::uint8_t(a[i] + b[i]))
            throw std::runtime_error(
                "sharded vector add mismatches the host reference");

    SweepCellResult res;
    res.value = checksum(c);
    res.metrics["functional_ops"] = double(st.vpcs);
    res.metrics["active_devices"] = double(st.activeDevices);
    res.metrics["merged_bytes"] = double(st.mergedBytes);
    return res;
}

/** The unsharded campaign every fleet's device 0 must reproduce. */
FaultCampaignConfig
campaignBase()
{
    FaultCampaignConfig base;
    base.pStep = 2e-4;
    base.pWrite0 = 1e-4;
    base.seed = 0xab5eed;
    return base;
}

/** Device 0 of a fleet vs the unsharded single-device campaign:
 * same statuses, same bit-exactness, same tallies. */
bool
sameCampaign(const FaultCampaignResult &x,
             const FaultCampaignResult &y)
{
    if (x.clean != y.clean || x.corrected != y.corrected ||
        x.retried != y.retried || x.failed != y.failed ||
        x.mismatchedRecovered != y.mismatchedRecovered ||
        x.failedButIntact != y.failedButIntact ||
        x.perVpc.size() != y.perVpc.size())
        return false;
    for (std::size_t i = 0; i < x.perVpc.size(); ++i)
        if (x.perVpc[i].status != y.perVpc[i].status ||
            x.perVpc[i].bitExact != y.perVpc[i].bitExact)
            return false;
    return true;
}

SweepCellResult
campaignCell(unsigned col)
{
    ShardedCampaignConfig cfg;
    cfg.base = campaignBase();
    cfg.devices = kDeviceCounts[col];
    const ShardedFaultCampaignResult res =
        runShardedFaultCampaign(cfg);

    if (!res.invariantHolds())
        throw std::runtime_error(
            "recovery invariant broke on a fleet device");
    // Fleet-size invariance: the master seed IS device 0's seed, so
    // growing the fleet must not perturb the one-device fleet's
    // (the unsharded campaign's) trajectory.
    if (!sameCampaign(
            res.perDevice.at(0),
            runShardedFaultCampaign({.base = cfg.base}).perDevice.at(0)))
        throw std::runtime_error(
            "device 0 diverged from the unsharded campaign");

    SweepCellResult out;
    out.value = double(res.clean * 1000 + res.corrected * 100 +
                       res.retried * 10 + res.failed);
    out.metrics["clean"] = double(res.clean);
    out.metrics["corrected"] = double(res.corrected);
    out.metrics["retried"] = double(res.retried);
    out.metrics["failed"] = double(res.failed);
    out.metrics["failed_but_intact"] = double(res.failedButIntact);
    out.metrics["device0_clean"] =
        double(res.perDevice.at(0).clean);
    return out;
}

std::string
colLabel(unsigned col)
{
    return "d" + std::to_string(kDeviceCounts[col]);
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Ablation: multi-device sharding (devices x "
                "workload)\n\n");

    const char *kMatmul = "matmul/96x64x48";
    const char *kAdd = "vector_add/4096";
    const char *kCampaign = "campaign/12vpc";

    SweepRunner sweep("abl_sharding", argc, argv);
    for (unsigned col = 0; col < kColumns; ++col) {
        sweep.add(kMatmul, colLabel(col),
                  [col] { return matmulCell(col); });
        sweep.add(kAdd, colLabel(col),
                  [col] { return vectorAddCell(col); });
        sweep.add(kCampaign, colLabel(col),
                  [col] { return campaignCell(col); });
    }
    sweep.run();
    sweep.measureSerialReference();

    // Device-count invariance of the data-parallel rows: one
    // checksum per row, identical in every column.
    bool gate_ok = true;
    for (const char *row : {kMatmul, kAdd}) {
        const double v0 = sweep.value(row, colLabel(0));
        for (unsigned col = 1; col < kColumns; ++col)
            if (sweep.value(row, colLabel(col)) != v0) {
                std::fprintf(stderr,
                             "FAIL: %s checksum differs between "
                             "d%u and d%u\n",
                             row, kDeviceCounts[0],
                             kDeviceCounts[col]);
                gate_ok = false;
            }
    }

    Table t({"workload", "d1", "d2", "d4", "d8"});
    for (const char *row : {kMatmul, kAdd, kCampaign}) {
        std::vector<std::string> cells = {row};
        for (unsigned col = 0; col < kColumns; ++col)
            cells.push_back(fmt(sweep.value(row, colLabel(col)), 0));
        t.addRow(cells);
    }
    t.print();

    // Timing telemetry -> perf section ONLY (CI differs strip perf
    // wholesale; everything above stays deterministic).
    Json sharding = Json::object();
    const double d1_seconds =
        sweep.cellSeconds(kMatmul, colLabel(0));
    for (unsigned col = 0; col < kColumns; ++col) {
        const std::string suffix =
            "_d" + std::to_string(kDeviceCounts[col]);
        const double secs =
            sweep.cellSeconds(kMatmul, colLabel(col));
        sharding["matmul_seconds" + suffix] = secs;
        sharding["utilization" + suffix] =
            g_matmul_timing[col].utilization;
        sharding["merge_seconds" + suffix] =
            g_matmul_timing[col].mergeSeconds;
        sharding["speedup_vs_one_device" + suffix] =
            secs > 0.0 ? d1_seconds / secs : 0.0;
    }
    sweep.perfNote("sharding", std::move(sharding));

    std::printf("\nExpected: identical checksums in every column "
                "(device-count invariance); the perf section's "
                "speedup_vs_one_device grows with the fleet on "
                "multi-core hosts.\n");

    sweep.note("cell_unit", "fnv1a32_checksum_or_status_tally");
    {
        Json counts = Json::array();
        for (unsigned d : kDeviceCounts)
            counts.push(std::int64_t(d));
        sweep.note("device_counts", std::move(counts));
    }
    sweep.note("paper_ref",
               "StreamPIM Sec. VII (scale-out discussion); "
               "multi-device sharding beyond the paper");
    sweep.writeReport();

    if (!gate_ok)
        return 1;
    return 0;
}
