/**
 * @file
 * End-to-end tests for the deterministic shift-fault campaign:
 * golden equivalence at p = 0, graceful degradation under heavy
 * fault rates, the non-Failed => bit-exact recovery invariant, and
 * byte-identical results regardless of sweep parallelism.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/fault_campaign.hh"
#include "parallel/sweep.hh"
#include "rm/energy.hh"

namespace streampim
{
namespace
{

TEST(FaultCampaign, ZeroPStepMatchesGoldenExactly)
{
    FaultCampaignConfig cfg;
    cfg.pStep = 0.0;
    auto res = runShardedFaultCampaign({.base = cfg}).perDevice[0];
    EXPECT_EQ(res.vpcs(), cfg.vpcs);
    EXPECT_EQ(res.clean, cfg.vpcs);
    EXPECT_EQ(res.corrected, 0u);
    EXPECT_EQ(res.retried, 0u);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_EQ(res.stats.faultsInjected, 0u);
    for (const auto &v : res.perVpc) {
        EXPECT_EQ(v.status, FaultStatus::Clean);
        EXPECT_TRUE(v.bitExact);
    }
    EXPECT_TRUE(res.invariantHolds());
}

TEST(FaultCampaign, ModerateFaultsEveryVpcReportsAStatus)
{
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-4;
    cfg.guardCoverage = 0.999;
    auto res = runShardedFaultCampaign({.base = cfg}).perDevice[0];
    EXPECT_EQ(res.clean + res.corrected + res.retried + res.failed,
              cfg.vpcs);
    EXPECT_GT(res.stats.faultsInjected, 0u);
    EXPECT_TRUE(res.invariantHolds());
}

TEST(FaultCampaign, RecoveredVpcsAreBitExact)
{
    // Sweep several seeds at a rate that produces a healthy mix of
    // Corrected/Retried outcomes; the invariant must hold in every
    // single run, not on average.
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        FaultCampaignConfig cfg;
        cfg.pStep = 1e-3;
        cfg.guardCoverage = 0.99;
        cfg.seed = seed;
        auto res = runShardedFaultCampaign({.base = cfg}).perDevice[0];
        EXPECT_TRUE(res.invariantHolds())
            << "seed " << seed << ": " << res.mismatchedRecovered
            << " recovered VPC(s) mismatched golden";
        EXPECT_GT(res.corrected + res.retried + res.failed, 0u)
            << "seed " << seed;
    }
}

TEST(FaultCampaign, HeavyFaultsDegradeGracefully)
{
    // Aggressive rate + poor coverage: recoveries must still be
    // bit-exact and failures visible, and the run must complete
    // without aborting.
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-2;
    cfg.guardCoverage = 0.5;
    cfg.seed = 77;
    auto res = runShardedFaultCampaign({.base = cfg}).perDevice[0];
    EXPECT_EQ(res.clean + res.corrected + res.retried + res.failed,
              cfg.vpcs);
    EXPECT_GT(res.failed, 0u);
    EXPECT_TRUE(res.invariantHolds());
    EXPECT_GT(res.stats.uncorrectable + res.stats.budgetExhausted,
              0u);
}

TEST(FaultCampaign, SameConfigSameResult)
{
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-3;
    cfg.guardCoverage = 0.99;
    cfg.seed = 1234;
    auto a = runShardedFaultCampaign({.base = cfg}).perDevice[0];
    auto b = runShardedFaultCampaign({.base = cfg}).perDevice[0];
    ASSERT_EQ(a.vpcs(), b.vpcs());
    EXPECT_EQ(a.stats.faultsInjected, b.stats.faultsInjected);
    EXPECT_EQ(a.stats.correctionShifts, b.stats.correctionShifts);
    EXPECT_EQ(a.stats.guardChecks, b.stats.guardChecks);
    for (unsigned i = 0; i < a.vpcs(); ++i) {
        EXPECT_EQ(a.perVpc[i].status, b.perVpc[i].status) << i;
        EXPECT_EQ(a.perVpc[i].bitExact, b.perVpc[i].bitExact) << i;
    }
}

TEST(FaultCampaign, FaultInjectionChargesGuardSenseEnergy)
{
    RmParams params = smallFunctionalParams();
    params.shiftFaultPStep = 1e-3;
    StreamPimSystem sys(params);
    FaultConfig fc;
    fc.pStep = 1e-3;
    fc.seed = 5;
    sys.enableFaultInjection(fc);

    Vpc v;
    v.kind = VpcKind::Add;
    v.src1 = 0;
    v.src2 = 256;
    v.dst = 4096;
    v.size = 48;
    ASSERT_TRUE(sys.submit(v));
    std::vector<VpcExecutionRecord> recs;
    sys.processQueueInto(recs);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_NE(recs[0].fault.status, FaultStatus::Failed);
    EXPECT_GT(recs[0].fault.guardChecks, 0u);

    EnergyMeter energy = sys.totalEnergy();
    EXPECT_GT(energy.count(EnergyOp::GuardSense), 0u);
    EXPECT_GT(energy.energyPj(EnergyOp::GuardSense), 0.0);
}

/** Build the same small campaign grid the bench sweeps. */
SweepRunner
campaignGrid()
{
    SweepRunner sweep("campaign_determinism");
    for (unsigned seg : {64u, 128u})
        for (double p : {1e-4, 1e-3}) {
            FaultCampaignConfig cfg;
            cfg.busSegmentSize = seg;
            cfg.pStep = p;
            cfg.vpcs = 8;
            cfg.seed = 0xC0FFEE ^ (seg * 31) ^
                       std::uint64_t(p * 1e6);
            sweep.add("seg" + std::to_string(seg),
                      "p" + std::to_string(p), [cfg] {
                          auto res = runShardedFaultCampaign(
                                          {.base = cfg})
                                          .perDevice[0];
                          SweepCellResult cell;
                          cell.value = double(res.failed);
                          cell.metrics["clean"] = res.clean;
                          cell.metrics["corrected"] = res.corrected;
                          cell.metrics["retried"] = res.retried;
                          cell.metrics["faults_injected"] =
                              double(res.stats.faultsInjected);
                          cell.metrics["correction_shifts"] =
                              double(res.stats.correctionShifts);
                          cell.metrics["mismatched_recovered"] =
                              res.mismatchedRecovered;
                          return cell;
                      });
        }
    return sweep;
}

TEST(FaultCampaign, ResultsIdenticalAcrossSweepJobCounts)
{
    // The same grid under STREAMPIM_JOBS=1 and =4 must produce
    // byte-identical campaign results: every cell owns its systems
    // and injectors, so parallelism cannot leak into sampling.
    setenv("STREAMPIM_JOBS", "1", 1);
    SweepRunner serial = campaignGrid();
    ASSERT_EQ(serial.jobs(), 1u);
    serial.run();

    setenv("STREAMPIM_JOBS", "4", 1);
    SweepRunner parallel = campaignGrid();
    ASSERT_EQ(parallel.jobs(), 4u);
    parallel.run();
    unsetenv("STREAMPIM_JOBS");

    for (const auto &row : serial.rows())
        for (const auto &col : serial.cols()) {
            EXPECT_DOUBLE_EQ(serial.value(row, col),
                             parallel.value(row, col))
                << row << "/" << col;
            const auto &sm = serial.cell(row, col).metrics;
            const auto &pm = parallel.cell(row, col).metrics;
            ASSERT_EQ(sm.size(), pm.size());
            for (const auto &[key, val] : sm) {
                auto it = pm.find(key);
                ASSERT_NE(it, pm.end()) << key;
                EXPECT_DOUBLE_EQ(val, it->second)
                    << row << "/" << col << "/" << key;
            }
        }

    // Also byte-identical per-VPC details for one repeated cell.
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-3;
    cfg.vpcs = 8;
    auto a = runShardedFaultCampaign({.base = cfg}).perDevice[0];
    auto b = runShardedFaultCampaign({.base = cfg}).perDevice[0];
    for (unsigned i = 0; i < a.vpcs(); ++i)
        EXPECT_EQ(a.perVpc[i].status, b.perVpc[i].status);
}

TEST(FaultCampaignDeath, RejectsOversizedPrograms)
{
    FaultCampaignConfig cfg;
    cfg.vpcs = 1000;
    EXPECT_DEATH(runShardedFaultCampaign({.base = cfg}), "program size");
    cfg = FaultCampaignConfig{};
    cfg.vectorLen = 64;
    EXPECT_DEATH(runShardedFaultCampaign({.base = cfg}),
                 "destination slice");
}

} // namespace
} // namespace streampim
