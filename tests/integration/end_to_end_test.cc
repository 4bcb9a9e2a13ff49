/**
 * @file
 * End-to-end integration: the functional device, the PimTask
 * runtime, and the timed executor must tell one consistent story.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/stream_pim.hh"
#include "runtime/pim_task.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

TEST(EndToEnd, FunctionalDeviceAndPimTaskAgreeOnMatVec)
{
    // Compute y = A*x twice: once through the PimTask runtime, once
    // by issuing raw dot-product VPCs to the functional device, and
    // compare element by element.
    const unsigned rows = 8, cols = 16;
    Rng rng(12);
    std::vector<std::uint8_t> a(rows * cols), x(cols);
    for (auto &v : a)
        v = std::uint8_t(rng.below(16));
    for (auto &v : x)
        v = std::uint8_t(rng.below(16));

    // Path 1: PimTask.
    std::vector<std::uint8_t> y_task(rows);
    {
        std::vector<std::uint8_t> a_copy = a, x_copy = x;
        PimTask task;
        auto ma = task.addMatrix(a_copy.data(), rows, cols);
        auto mx = task.addMatrix(x_copy.data(), cols, 1);
        auto my = task.addMatrix(y_task.data(), rows, 1);
        task.addOperation(MatOpKind::MatVec, ma, mx, my);
        task.run();
    }

    // Path 2: raw VPCs on the functional device, one MUL per row.
    StreamPimSystem device;
    device.write(0, a);
    device.write(4096, x);
    for (unsigned r = 0; r < rows; ++r)
        device.submit({VpcKind::Mul, Addr(r) * cols, 4096,
                       8192 + Addr(r) * 4, cols});
    std::vector<VpcExecutionRecord> records;
    device.processQueueInto(records);

    for (unsigned r = 0; r < rows; ++r) {
        auto bytes = device.read(8192 + Addr(r) * 4, 4);
        // PimTask stores the truncated low byte; compare there.
        EXPECT_EQ(bytes[0], y_task[r]) << "row " << r;
    }
}

TEST(EndToEnd, TimedBatchesAreConsistentWithPipelineModel)
{
    // The executor charges a MUL batch exactly the cycles the
    // validated pipeline model predicts (plus the bus fill), so a
    // one-batch schedule's makespan is fully explained.
    SystemConfig cfg = SystemConfig::paperDefault();
    cfg.vpcIssueTicks = 0;
    Executor ex(cfg);
    RmBusTiming bus(cfg.rm);
    ProcessorTiming timing(cfg.rm);
    ClockDomain clk(cfg.rm.coreFreqHz);

    for (std::uint32_t len : {1u, 10u, 256u, 2000u}) {
        VpcSchedule s;
        VpcBatch b;
        b.kind = VpcKind::Mul;
        b.subarray = 0;
        b.vpcCount = 1;
        b.vectorLen = len;
        s.push(b);
        Tick makespan = ex.run(s).makespan;
        Tick expect = clk.cyclesToTicks(
            timing.dotProductCycles(len) + bus.segmentCount());
        EXPECT_EQ(makespan, expect) << "len " << len;
    }
}

TEST(EndToEnd, SpeedupShapeSurvivesSmallScale)
{
    // Even at tiny dimensions, the architectural orderings that
    // make the paper's figures must hold: unblock > distribute >
    // base, and StPIM > StPIM-e.
    TaskGraph g = makePolybench(PolybenchKernel::Atax, 128);
    auto seconds_for = [&](OptLevel level, BusType bus_type) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = level;
        cfg.busType = bus_type;
        Planner p(cfg);
        Executor e(cfg);
        return ticksToSeconds(e.run(p.plan(g)).makespan);
    };
    double base = seconds_for(OptLevel::Base, BusType::RmBus);
    double dist = seconds_for(OptLevel::Distribute, BusType::RmBus);
    double unb = seconds_for(OptLevel::Unblock, BusType::RmBus);
    double unb_e =
        seconds_for(OptLevel::Unblock, BusType::Electrical);
    EXPECT_GT(base, dist);
    EXPECT_GT(dist, unb);
    EXPECT_GT(unb_e, unb);
}

TEST(EndToEnd, EnergyStoryMatchesFig20Shape)
{
    // StreamPIM's transfer energy share must sit well below
    // CORUSCANT-style conversion-dominated shares even at small
    // scale.
    SystemConfig cfg = SystemConfig::paperDefault();
    Planner p(cfg);
    Executor e(cfg);
    TaskGraph g = makePolybench(PolybenchKernel::Gemm, 256);
    ExecutionReport r = e.run(p.plan(g));
    const auto &en = r.energy;
    double transfer = en.energyPj(EnergyOp::RmRead) +
                      en.energyPj(EnergyOp::RmWrite) +
                      en.energyPj(EnergyOp::RmShift) +
                      en.energyPj(EnergyOp::BusShift);
    double frac = transfer / en.totalPj();
    EXPECT_LT(frac, 0.8);
    EXPECT_GT(frac, 0.05);
}

TEST(EndToEnd, TableIvCountsAtPaperDim)
{
    // The exactly-reproduced Table IV entries (see EXPERIMENTS.md):
    // gemm 4.61e6, syrk 6.77e6, atax 4.00e3 PIM VPCs.
    SystemConfig cfg = SystemConfig::paperDefault();
    Planner p(cfg);
    // atax: exactly 1900 + 2100 dot products (paper: 4.00e3).
    EXPECT_EQ(p.plan(makePolybench(PolybenchKernel::Atax, 2000))
                  .pimVpcs(),
              4000u);
    // gemm: dominated by NI x NJ = 4.6e6 dots (paper: 4.61e6).
    std::uint64_t gemm =
        p.plan(makePolybench(PolybenchKernel::Gemm, 2000)).pimVpcs();
    EXPECT_GE(gemm, 4'600'000u);
    EXPECT_LE(gemm, 4'650'000u);
}

} // namespace
} // namespace streampim
