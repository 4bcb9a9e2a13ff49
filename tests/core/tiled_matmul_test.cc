/**
 * @file
 * Functional streaming tiled matmul: bit-exactness against the host
 * reference and the untiled raw-MUL formulation across shape
 * classes, byte-identity at every engine job count, the shadow-
 * simulation invariant at 8 jobs, and the fault-campaign guarantee
 * that any non-Failed recovery status keeps the result bit-exact.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "core/tiled_matmul.hh"

namespace streampim
{
namespace
{

std::vector<std::uint8_t>
randomBytes(std::uint64_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v(count);
    for (auto &b : v)
        b = std::uint8_t(rng.below(256));
    return v;
}

struct Shape
{
    std::uint32_t n, k, m;
};

/**
 * The untiled formulation of the integration tests: operands
 * resident in one shot, one raw MUL per (row, column) dot product,
 * low byte of each 4-byte result. Only valid for fitting shapes.
 */
void
untiledDeviceMatmul(const std::vector<std::uint8_t> &a,
                    const std::vector<std::uint8_t> &b, Shape s,
                    std::vector<std::uint8_t> &out)
{
    StreamPimSystem sys;
    const std::uint64_t a_bytes = std::uint64_t(s.n) * s.k;
    const std::uint64_t bt_bytes = std::uint64_t(s.m) * s.k;
    ASSERT_LE(a_bytes + bt_bytes + 4 * std::uint64_t(s.n) * s.m + 64,
              sys.params().bytesPerSubarray())
        << "shape is not a fitting shape";

    sys.write(0, a);
    std::vector<std::uint8_t> bt(bt_bytes);
    for (std::uint32_t kk = 0; kk < s.k; ++kk)
        for (std::uint32_t j = 0; j < s.m; ++j)
            bt[std::uint64_t(j) * s.k + kk] =
                b[std::uint64_t(kk) * s.m + j];
    sys.write(a_bytes, bt);

    const Addr out_base = a_bytes + bt_bytes;
    std::uint64_t pending = 0;
    std::vector<VpcExecutionRecord> recs;
    for (std::uint32_t r = 0; r < s.n; ++r)
        for (std::uint32_t j = 0; j < s.m; ++j) {
            const bool ok = sys.submit(
                {VpcKind::Mul, Addr(r) * s.k,
                 a_bytes + Addr(j) * s.k,
                 out_base + 4 * (Addr(r) * s.m + j), s.k});
            ASSERT_TRUE(ok);
            if (++pending == 512) {
                sys.processQueueInto(recs);
                pending = 0;
            }
        }
    sys.processQueueInto(recs);

    out.assign(std::uint64_t(s.n) * s.m, 0);
    const auto raw = sys.read(out_base, 4 * out.size());
    for (std::uint64_t i = 0; i < out.size(); ++i)
        out[i] = raw[4 * i]; // little-endian low byte
}

TEST(TiledMatmul, MatchesHostReferenceAcrossShapeClasses)
{
    const Shape shapes[] = {
        {24, 24, 24}, // square, remainder tiles
        {20, 12, 28}, // rectangular
        {40, 6, 5},   // tall-skinny, multiple row blocks
        {6, 48, 5},   // K-dominant, multiple k-tiles
        {1, 16, 9},   // single row
        {9, 16, 1},   // single column
        {16, 16, 16}, // exact multiple of a tile
        {32, 32, 32}, // exactly one nominal tile
    };
    for (const Shape &s : shapes) {
        const auto a = randomBytes(std::uint64_t(s.n) * s.k,
                                   1000 + s.n);
        const auto b = randomBytes(std::uint64_t(s.k) * s.m,
                                   2000 + s.m);
        StreamPimSystem sys;
        TiledMatmulStats st;
        const auto c =
            runTiledMatmul(sys, a, b, s.n, s.k, s.m, {}, &st);
        EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m))
            << s.n << "x" << s.k << "x" << s.m;
        EXPECT_GT(st.vpcs, 0u);
        EXPECT_EQ(st.worstFault, FaultStatus::Clean);
    }
}

TEST(TiledMatmul, MatchesUntiledFormulationOnFittingShapes)
{
    const Shape shapes[] = {{16, 16, 16}, {20, 12, 28}, {24, 24, 24}};
    for (const Shape &s : shapes) {
        const auto a =
            randomBytes(std::uint64_t(s.n) * s.k, 31 + s.n);
        const auto b =
            randomBytes(std::uint64_t(s.k) * s.m, 47 + s.m);
        std::vector<std::uint8_t> untiled;
        untiledDeviceMatmul(a, b, s, untiled);
        StreamPimSystem sys;
        const auto tiled = runTiledMatmul(sys, a, b, s.n, s.k, s.m);
        EXPECT_EQ(tiled, untiled)
            << s.n << "x" << s.k << "x" << s.m;
    }
}

TEST(TiledMatmul, OutOfCoreOperandsStreamInRounds)
{
    // 64x48x40 exceeds one tile (nominal edge 32 at the small
    // geometry), forcing a multi-tile multi-round stream.
    const Shape s = {64, 48, 40};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 9);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 10);
    StreamPimSystem sys;
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, {}, &st);
    EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m));
    EXPECT_GT(st.tileTasks, 1u);
    EXPECT_GT(st.rounds, 1u);
}

TEST(TiledMatmul, ByteIdenticalAcrossJobCounts)
{
    const Shape s = {40, 24, 36};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 5);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 6);

    std::vector<std::uint8_t> ref_c, ref_mem;
    for (unsigned jobs : {1u, 2u, 8u}) {
        StreamPimSystem sys;
        TiledMatmulConfig cfg;
        cfg.jobs = jobs;
        const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg);
        const auto mem = sys.read(0, sys.capacityBytes());
        if (jobs == 1) {
            ref_c = c;
            ref_mem = mem;
        } else {
            EXPECT_EQ(c, ref_c) << "jobs " << jobs;
            EXPECT_EQ(mem, ref_mem) << "jobs " << jobs;
        }
    }
}

TEST(TiledMatmul, MatchesShadowSimulationAtEightJobs)
{
    // The host-side shadow (mod-256 reference) predicts the exact
    // bytes the 8-job engine computes — the tiled analogue of
    // ParallelEngine.MatchesShadowSimulationAtEightJobs.
    const Shape s = {48, 40, 24};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 4242);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 2424);
    StreamPimSystem sys;
    TiledMatmulConfig cfg;
    cfg.jobs = 8;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg);
    EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m));
}

TEST(TiledMatmul, DoubleBufferingDoesNotChangeResults)
{
    const Shape s = {40, 48, 20};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 11);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 12);

    StreamPimSystem dbs;
    TiledMatmulConfig db;
    db.doubleBuffer = true;
    const auto c_db = runTiledMatmul(dbs, a, b, s.n, s.k, s.m, db);

    StreamPimSystem sbs;
    TiledMatmulConfig sb;
    sb.doubleBuffer = false;
    const auto c_sb = runTiledMatmul(sbs, a, b, s.n, s.k, s.m, sb);

    EXPECT_EQ(c_db, c_sb);
    EXPECT_EQ(c_db, hostMatmulReference(a, b, s.n, s.k, s.m));
}

TEST(TiledMatmul, NonFailedFaultStatusesStayBitExact)
{
    // Under shift-fault injection with guard-based recovery, any
    // run whose worst VPC outcome is short of Failed must still be
    // bit-exact — the invariant the fault campaigns pin, here
    // carried through the full tiled dataflow.
    const Shape s = {24, 32, 20};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 77);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 78);

    StreamPimSystem sys;
    FaultConfig fc;
    fc.pStep = 2e-4;
    fc.guardCoverage = 1.0; // every fault is caught and realigned
    fc.seed = 99;
    sys.enableFaultInjection(fc);
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, {}, &st);
    sys.disableFaultInjection();

    ASSERT_NE(st.worstFault, FaultStatus::Failed);
    EXPECT_EQ(c, hostMatmulReference(a, b, s.n, s.k, s.m));
}

/** Geometry with no remap headroom: one re-deposit exhaustion
 * escalates straight to Failed. */
RmParams
noSpareParams()
{
    RmParams p = smallFunctionalParams();
    p.spareTracksPerMat = 0;
    return p;
}

/** Pre-wears compute subarray 0 to the brink (saturated Weibull
 * hazard over the tile working set) while every other subarray
 * stays pristine: slices homed on subarray 0 come back Failed,
 * everywhere else stays healthy. */
void
preWearComputeSubZero(StreamPimSystem &sys)
{
    const auto junk = randomBytes(4096, 3);
    for (int w = 0; w < 800; ++w)
        sys.write(0, junk);
}

FaultConfig
wearOutFaults()
{
    // One full write of a 512-byte track-group window wears each of
    // its 8 bit-plane tracks by 512, so a slice deposits ~512 wear
    // per touched track per attempt. eta sits far above that (a
    // pristine subarray survives the whole run at the p0 floor) but
    // far below the pre-worn subarray's ~410k wear, whose Weibull
    // hazard is then ~1: subarray 0 fails deterministically, the
    // rest stay healthy.
    FaultConfig fc;
    fc.pStep = 0.0; // endurance-driven failures only
    fc.pWrite0 = 1e-4;
    fc.writeEndurance = 50000.0;
    fc.weibullShape = 6.0;
    fc.redepositRetryBudget = 2;
    fc.seed = 5;
    return fc;
}

TEST(TiledMatmul, RecoveryLadderSurvivesQuarantineDrivenRetile)
{
    // End-to-end ladder exercise: the first tile is homed on the
    // doomed subarray 0 and its first k-slice Fails; retry-in-place
    // fails again (wear only grows), so the runner quarantines the
    // culprit, evacuates the in-flight accumulator onto pristine
    // subarray 1, and re-tiles the remaining k-range at the derated
    // edge — after which the whole product completes bit-exact.
    const Shape s = {24, 48, 20};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 61);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 62);
    const auto want = hostMatmulReference(a, b, s.n, s.k, s.m);

    StreamPimSystem sys(noSpareParams());
    preWearComputeSubZero(sys);
    sys.enableFaultInjection(wearOutFaults());
    TiledMatmulConfig cfg;
    cfg.recovery.enabled = true;
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg, &st);
    sys.disableFaultInjection();

    ASSERT_GT(st.recovery.failedVpcs, 0u)
        << "operating point never failed — retune the test";
    EXPECT_EQ(c, want) << "recovered run must stay bit-exact";
    EXPECT_EQ(st.recovery.unrecoverable, 0u);
    EXPECT_GT(st.recovery.recovered, 0u);
    EXPECT_GE(st.recovery.retiles, 1u) << "expected an in-flight re-tile";
    EXPECT_GE(st.recovery.recoveredByRetile, 1u);
    EXPECT_GT(st.recovery.rehomes, 0u) << "accumulator evacuation";
    EXPECT_GT(st.recovery.rollbackBytes, 0u);
    EXPECT_LT(st.finalTileK, 32u) << "k-edge should have derated";
    EXPECT_EQ(st.worstFault, FaultStatus::Failed)
        << "raw fault telemetry stays honest about the transient";
}

TEST(TiledMatmul, RecoveryPathByteIdenticalAcrossJobCounts)
{
    // The ladder runs serially after each slice drains and its
    // decisions are pure functions of wear telemetry, so the whole
    // recovered run — result and full device memory — is
    // byte-identical at any engine job count.
    const Shape s = {24, 48, 20};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 61);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 62);

    std::vector<std::uint8_t> ref_c, ref_mem;
    for (unsigned jobs : {1u, 2u, 8u}) {
        StreamPimSystem sys(noSpareParams());
        preWearComputeSubZero(sys);
        sys.enableFaultInjection(wearOutFaults());
        TiledMatmulConfig cfg;
        cfg.recovery.enabled = true;
        cfg.jobs = jobs;
        TiledMatmulStats st;
        const auto c =
            runTiledMatmul(sys, a, b, s.n, s.k, s.m, cfg, &st);
        sys.disableFaultInjection();
        ASSERT_GT(st.recovery.failedVpcs, 0u);
        const auto mem = sys.read(0, sys.capacityBytes());
        if (jobs == 1) {
            ref_c = c;
            ref_mem = mem;
        } else {
            EXPECT_EQ(c, ref_c) << "jobs " << jobs;
            EXPECT_EQ(mem, ref_mem) << "jobs " << jobs;
        }
    }
}

TEST(TiledMatmul, RecoveryDisabledKeepsBulkDataflow)
{
    // The recovery knob must not perturb the default dataflow: a
    // clean system with recovery disabled produces the same stats
    // shape as before (one tile task per k-slice, finalTileK unset).
    // Both settings run the same slice stream, so on a clean device
    // enabling recovery only adds per-slice drains: C, the VPC
    // counts, the task count and every subarray's bytes match; only
    // the round count may differ. The 8-element tiles force a
    // multi-tile, multi-slice stream through the accumulating ADDs
    // and both staging buffers.
    const Shape s = {24, 24, 24};
    const auto a = randomBytes(std::uint64_t(s.n) * s.k, 91);
    const auto b = randomBytes(std::uint64_t(s.k) * s.m, 92);
    const auto want = hostMatmulReference(a, b, s.n, s.k, s.m);
    for (std::uint32_t edge : {0u, 8u}) {
        TiledMatmulConfig cfg;
        cfg.tileRows = cfg.tileCols = cfg.tileK = edge;
        StreamPimSystem off_sys;
        TiledMatmulStats off;
        const auto off_c =
            runTiledMatmul(off_sys, a, b, s.n, s.k, s.m, cfg, &off);
        EXPECT_EQ(off_c, want) << "edge " << edge;
        EXPECT_EQ(off.tileTasks, edge == 0 ? 1u : 27u);
        EXPECT_EQ(off.recovery.batches, 0u);
        EXPECT_EQ(off.recovery.failedVpcs, 0u);
        EXPECT_EQ(off.finalTileK, 0u);

        cfg.recovery.enabled = true;
        StreamPimSystem on_sys;
        TiledMatmulStats on;
        const auto on_c =
            runTiledMatmul(on_sys, a, b, s.n, s.k, s.m, cfg, &on);
        EXPECT_EQ(on_c, off_c) << "edge " << edge;
        EXPECT_EQ(on.vpcs, off.vpcs) << "edge " << edge;
        EXPECT_EQ(on.pimVpcs, off.pimVpcs) << "edge " << edge;
        EXPECT_EQ(on.tileTasks, off.tileTasks) << "edge " << edge;
        EXPECT_EQ(on.recovery.batches, on.tileTasks);
        EXPECT_EQ(on.recovery.failedVpcs, 0u);
        const std::uint64_t per = on_sys.params().bytesPerSubarray();
        for (unsigned sub = 0; sub < on_sys.params().totalSubarrays();
             ++sub)
            EXPECT_EQ(on_sys.read(Addr(sub) * per, per),
                      off_sys.read(Addr(sub) * per, per))
                << "edge " << edge << ", subarray " << sub;
    }
}

TEST(TiledMatmulDeath, OversizeGeometryIsRejected)
{
    // The functional device (and with it the 64-bit conflict-graph
    // fast path) is capped at 64 subarrays; larger geometries must
    // be rejected up front, not mis-masked.
    RmParams p = smallFunctionalParams();
    p.subarraysPerBank = 40; // 2 banks x 40 = 80 subarrays
    EXPECT_DEATH(
        {
            StreamPimSystem dev(p);
            (void)dev;
        },
        "functional geometry too large");
}

TEST(TiledMatmulDeath, OperandsBeyondBackingStoreAreRejected)
{
    StreamPimSystem sys;
    const std::uint32_t n = 256, k = 256, m = 256; // 64 KiB each
    const auto a = randomBytes(std::uint64_t(n) * k, 1);
    const auto b = randomBytes(std::uint64_t(k) * m, 2);
    EXPECT_DEATH(runTiledMatmul(sys, a, b, n, k, m),
                 "backing subarray");
}

} // namespace
} // namespace streampim
