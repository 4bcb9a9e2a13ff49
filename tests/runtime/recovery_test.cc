/**
 * @file
 * Transactional VPC recovery: journal roundtrip fidelity, the
 * fault-free purity of snapshot/rollback traffic, each rung of the
 * RecoveryManager escalation ladder, and the honest rolled-back
 * surfacing of an exhausted ladder.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/rng.hh"
#include "core/stream_pim.hh"
#include "runtime/recovery.hh"

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

TEST(BatchJournal, RoundtripRestoresEveryPreBatchByte)
{
    // A journaled batch followed by a rollback of every group must
    // restore the device bit-exact: the journal's per-VPC write sets
    // (destinations plus remote-operand staging tails) are exactly
    // the bytes execution can touch.
    StreamPimSystem sys;
    const std::uint64_t per = sys.params().bytesPerSubarray();
    const auto init = randomBytes(sys.capacityBytes(), 123);
    sys.write(0, init);

    const Vpc vpcs[] = {
        {VpcKind::Tran, 0, 0, 512, 64},            // local copy
        {VpcKind::Add, 16, per + 128, 1024, 32},   // remote src2
        {VpcKind::Mul, per + 0, per + 64, 2 * per + 2048, 16},
        // ^ remote dst: stages the 4-byte result in sub 1's tail
        {VpcKind::Smul, 2 * per + 64, 3 * per + 8, 3 * per + 256,
         48},                                      // all remote
        {VpcKind::Tran, 3 * per + 0, 0, 2 * per + 4096, 80},
    };
    for (const Vpc &v : vpcs)
        ASSERT_TRUE(sys.submit(v));

    std::vector<VpcExecutionRecord> records;
    BatchJournal journal;
    sys.processQueueInto(records, 1, &journal);
    ASSERT_EQ(journal.groups(), std::size(vpcs));
    ASSERT_GT(journal.snapshotBytes(), 0u);
    ASSERT_NE(sys.read(0, sys.capacityBytes()), init)
        << "batch should have changed memory";

    for (std::size_t g = 0; g < journal.groups(); ++g)
        EXPECT_GT(sys.rollbackGroup(journal, g), 0u);
    EXPECT_EQ(sys.read(0, sys.capacityBytes()), init);
}

TEST(BatchJournal, SnapshotAndRollbackSampleNoFaults)
{
    // Journal and rollback traffic runs through the fault-free
    // controller path: real wear (deposits) accrues, but no fault is
    // sampled and the injector RNG streams do not advance.
    StreamPimSystem sys;
    sys.write(0, randomBytes(4096, 7));

    FaultConfig fc;
    fc.pStep = 2e-4;
    fc.seed = 77;
    sys.enableFaultInjection(fc);

    ASSERT_TRUE(sys.submit({VpcKind::Add, 0, 64, 1024, 64}));
    ASSERT_TRUE(sys.submit({VpcKind::Tran, 128, 0, 2048, 128}));
    std::vector<VpcExecutionRecord> records;
    BatchJournal journal;
    sys.processQueueInto(records, 1, &journal);

    const FaultStats mid = sys.totalFaultStats();
    auto deposits = [&] {
        std::uint64_t d = 0;
        for (const SubarrayWear &w : sys.wearSummaries())
            d += w.deposits;
        return d;
    };
    const std::uint64_t deposits_mid = deposits();

    for (std::size_t g = 0; g < journal.groups(); ++g)
        sys.rollbackGroup(journal, g);
    sys.journalExtra(journal, 0, 3000, 64);
    sys.controllerCopy(0, 3200, 64);

    const FaultStats after = sys.totalFaultStats();
    EXPECT_EQ(after.pulses, mid.pulses);
    EXPECT_EQ(after.faultsInjected, mid.faultsInjected);
    EXPECT_EQ(after.depositPulses, mid.depositPulses);
    EXPECT_GT(deposits(), deposits_mid)
        << "rollback/copy writes still wear the tracks";
    sys.disableFaultInjection();
}

/** Fixture state shared by the ladder tests: two 64-byte operands on
 * subarray 0 and the byte-wise mod-256 sum they should produce. */
struct LadderSetup
{
    std::vector<std::uint8_t> a, b, want;
    Vpc vpc{VpcKind::Add, 0, 64, 256, 64};

    void
    stage(StreamPimSystem &sys) const
    {
        sys.write(0, a);
        sys.write(64, b);
    }

    LadderSetup()
        : a(randomBytes(64, 1)), b(randomBytes(64, 2)), want(64)
    {
        for (std::size_t i = 0; i < want.size(); ++i)
            want[i] = std::uint8_t(a[i] + b[i]);
    }
};

TEST(RecoveryManager, RetryInPlaceRestoresAndRecomputes)
{
    LadderSetup s;
    StreamPimSystem sys;
    s.stage(sys);
    FaultConfig fc;
    fc.pStep = 1e-12; // live injector, deterministically benign
    sys.enableFaultInjection(fc);

    BatchJournal journal;
    sys.journalVpc(journal, s.vpc);
    // Simulate a Failed execution's garbage output.
    sys.write(s.vpc.dst, randomBytes(64, 999));

    RecoveryConfig rc;
    rc.enabled = true;
    rc.retryBudget = 2;
    rc.rehomeBudget = 0;
    rc.replanBudget = 0;
    RecoveryManager mgr(rc, sys);
    RecoveryManager::Hooks hooks;
    hooks.failingSubarray = [](std::size_t) { return 0u; };

    const VpcRecoveryOutcome out = mgr.recoverVpc(0, journal, hooks);
    EXPECT_EQ(out.rung, RecoveryRung::RetryInPlace);
    EXPECT_TRUE(out.recovered());
    EXPECT_FALSE(out.rehomed);
    EXPECT_EQ(sys.read(s.vpc.dst, 64), s.want);
    EXPECT_EQ(mgr.stats().recoveredByRetry, 1u);
    EXPECT_EQ(mgr.stats().rollbacks, 1u);
    EXPECT_GT(mgr.stats().rollbackBytes, 0u);
    sys.disableFaultInjection();
}

/** Re-home hook used by the rung-2/3 tests: moves both operands to
 * subarray @p to at the same offsets and rewrites the VPC. */
RecoveryManager::Hooks
movingHooks(StreamPimSystem &sys, BatchJournal &journal)
{
    RecoveryManager::Hooks hooks;
    hooks.failingSubarray = [](std::size_t) { return 0u; };
    hooks.rehome = [&sys, &journal](std::size_t g, std::uint32_t to,
                                    Vpc &out) {
        const Addr base =
            Addr(to) * sys.params().bytesPerSubarray();
        sys.controllerCopy(0, base + 0, 64);
        sys.controllerCopy(64, base + 64, 64);
        out.src1 = base + 0;
        out.src2 = base + 64;
        out.dst = base + 256;
        sys.journalExtra(journal, g, out.dst, 64);
        return true;
    };
    return hooks;
}

TEST(RecoveryManager, RehomePicksStrictlyHealthierSubarray)
{
    LadderSetup s;
    StreamPimSystem sys;
    s.stage(sys); // wears subarray 0; 1..3 stay pristine
    const std::uint64_t per = sys.params().bytesPerSubarray();
    FaultConfig fc;
    fc.pStep = 1e-12;
    sys.enableFaultInjection(fc);

    BatchJournal journal;
    sys.journalVpc(journal, s.vpc);

    RecoveryConfig rc;
    rc.enabled = true;
    rc.retryBudget = 0; // skip straight to rung 2
    rc.rehomeBudget = 1;
    rc.replanBudget = 0;
    RecoveryManager mgr(rc, sys);

    const VpcRecoveryOutcome out =
        mgr.recoverVpc(0, journal, movingHooks(sys, journal));
    EXPECT_EQ(out.rung, RecoveryRung::Rehome);
    EXPECT_TRUE(out.rehomed);
    EXPECT_EQ(out.newHome, 1u) << "least-worn survivor by id order";
    EXPECT_EQ(sys.read(per + 256, 64), s.want);
    EXPECT_EQ(mgr.stats().recoveredByRehome, 1u);
    EXPECT_EQ(mgr.stats().rehomes, 1u);
    EXPECT_FALSE(mgr.isQuarantined(0));
    sys.disableFaultInjection();
}

TEST(RecoveryManager, RehomeRefusesEquallyWornTargets)
{
    // With every subarray byte-identical in wear there is no
    // *strictly* healthier target, so rung 2 must refuse to move
    // (moving onto equal wear is wasted budget) and the episode
    // falls through to an honest Unrecoverable.
    LadderSetup s;
    StreamPimSystem sys; // no staging writes: all wear stays zero

    BatchJournal journal;
    sys.journalVpc(journal, s.vpc);

    RecoveryConfig rc;
    rc.enabled = true;
    rc.retryBudget = 0;
    rc.rehomeBudget = 1;
    rc.replanBudget = 0;
    RecoveryManager mgr(rc, sys);

    bool moved = false;
    RecoveryManager::Hooks hooks;
    hooks.failingSubarray = [](std::size_t) { return 0u; };
    hooks.rehome = [&moved](std::size_t, std::uint32_t, Vpc &) {
        moved = true;
        return true;
    };

    const VpcRecoveryOutcome out = mgr.recoverVpc(0, journal, hooks);
    EXPECT_EQ(out.rung, RecoveryRung::Unrecoverable);
    EXPECT_FALSE(moved);
    EXPECT_EQ(mgr.stats().rehomes, 0u);
}

TEST(RecoveryManager, ReplanQuarantinesTheCulprit)
{
    LadderSetup s;
    StreamPimSystem sys;
    s.stage(sys);
    const std::uint64_t per = sys.params().bytesPerSubarray();
    FaultConfig fc;
    fc.pStep = 1e-12;
    sys.enableFaultInjection(fc);

    BatchJournal journal;
    sys.journalVpc(journal, s.vpc);

    RecoveryConfig rc;
    rc.enabled = true;
    rc.retryBudget = 0;
    rc.rehomeBudget = 0; // skip straight to rung 3
    rc.replanBudget = 1;
    RecoveryManager mgr(rc, sys);

    const VpcRecoveryOutcome out =
        mgr.recoverVpc(0, journal, movingHooks(sys, journal));
    EXPECT_EQ(out.rung, RecoveryRung::Replan);
    EXPECT_TRUE(mgr.isQuarantined(0)) << "culprit is sticky-bad";
    EXPECT_FALSE(mgr.isQuarantined(out.newHome));
    EXPECT_EQ(sys.read(per + 256, 64), s.want);
    EXPECT_EQ(mgr.stats().replans, 1u);
    EXPECT_EQ(mgr.stats().recoveredByReplan, 1u);
    sys.disableFaultInjection();
}

TEST(RecoveryManager, ExhaustedLadderRollsBackBitExact)
{
    // Hostile endurance: nearly every deposit nucleation fails, the
    // per-mat spare pools exhaust, and every re-execution comes back
    // Failed. The ladder must exhaust its budgets, leave the
    // pre-batch bytes in place (stale, never corrupt) and surface
    // Unrecoverable.
    LadderSetup s;
    StreamPimSystem sys;
    s.stage(sys);
    const std::vector<std::uint8_t> before =
        sys.read(0, sys.capacityBytes());

    FaultConfig fc;
    fc.pWrite0 = 0.95;
    fc.redepositRetryBudget = 1;
    fc.seed = 11;
    sys.enableFaultInjection(fc);

    BatchJournal journal;
    sys.journalVpc(journal, s.vpc);
    const VpcExecutionRecord rec = sys.executeSingle(s.vpc);
    ASSERT_EQ(rec.fault.status, FaultStatus::Failed)
        << "setup: the first execution must fail";

    RecoveryConfig rc;
    rc.enabled = true;
    rc.retryBudget = 2;
    rc.rehomeBudget = 0;
    rc.replanBudget = 0;
    RecoveryManager mgr(rc, sys);
    RecoveryManager::Hooks hooks;
    hooks.failingSubarray = [](std::size_t) { return 0u; };

    const VpcRecoveryOutcome out = mgr.recoverVpc(0, journal, hooks);
    EXPECT_EQ(out.rung, RecoveryRung::Unrecoverable);
    EXPECT_FALSE(out.recovered());
    EXPECT_EQ(out.finalStatus, FaultStatus::Failed);
    EXPECT_EQ(mgr.stats().unrecoverable, 1u);
    EXPECT_EQ(mgr.stats().retries, 2u);
    sys.disableFaultInjection();

    // Rolled back: the destination (and everything else) holds its
    // pre-batch bytes, not a torn half-write.
    EXPECT_EQ(sys.read(0, sys.capacityBytes()), before);
}

TEST(RecoveryConfigDeath, AllZeroBudgetsAreRejected)
{
    RecoveryConfig rc;
    rc.enabled = true;
    rc.retryBudget = 0;
    rc.rehomeBudget = 0;
    rc.replanBudget = 0;
    EXPECT_DEATH(rc.validate(), "ladder budget");
}

} // namespace
} // namespace streampim
