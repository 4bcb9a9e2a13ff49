/**
 * @file
 * Tests for the segmented RM bus: the functional lane model, the
 * multi-lane bus, and the closed-form timing/energy model.
 */

#include <gtest/gtest.h>

#include "bus/rm_bus.hh"
#include "common/rng.hh"
#include "rm/params.hh"

namespace streampim
{
namespace
{

TEST(RmBusLane, StartsDrained)
{
    RmBusLane lane(4);
    EXPECT_TRUE(lane.drained());
    EXPECT_EQ(lane.occupancy(), 0u);
    EXPECT_FALSE(lane.peekOutput().has_value());
}

TEST(RmBusLane, InjectNeedsDataAndEmptySegments)
{
    RmBusLane lane(4);
    EXPECT_TRUE(lane.inject(7));
    // The data/empty couple rule refuses back-to-back injection.
    EXPECT_FALSE(lane.inject(8));
    lane.step();
    // After one step the word is at segment 1; segment 0 and 1 must
    // both be free, so injection is still refused.
    EXPECT_FALSE(lane.inject(8));
    lane.step();
    EXPECT_TRUE(lane.inject(8));
}

TEST(RmBusLane, WordTraversesOneSegmentPerCycle)
{
    RmBusLane lane(5);
    lane.inject(42);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(lane.peekOutput().has_value());
        lane.step();
    }
    lane.step();
    ASSERT_TRUE(lane.peekOutput().has_value());
    EXPECT_EQ(*lane.peekOutput(), 42u);
}

TEST(RmBusLane, TakeOutputRemovesWord)
{
    RmBusLane lane(2);
    lane.inject(5);
    lane.step();
    EXPECT_EQ(*lane.takeOutput(), 5u);
    EXPECT_FALSE(lane.peekOutput().has_value());
    EXPECT_TRUE(lane.drained());
}

TEST(RmBusLane, DataNeverOvertakesOrMerges)
{
    // Two words must stay ordered and separated.
    RmBusLane lane(8);
    lane.inject(1);
    lane.step();
    lane.step();
    lane.inject(2);
    std::vector<std::uint64_t> arrivals;
    for (int i = 0; i < 20; ++i) {
        lane.step();
        if (auto w = lane.takeOutput())
            arrivals.push_back(*w);
    }
    EXPECT_EQ(arrivals, (std::vector<std::uint64_t>{1, 2}));
}

TEST(RmBus, TransferAllPreservesPayload)
{
    RmBus bus(8, 6);
    std::vector<std::uint64_t> payload;
    for (int i = 0; i < 100; ++i)
        payload.push_back(std::uint64_t(i) * 3 + 1);
    Cycle cycles = 0;
    std::vector<std::uint64_t> arrived;
    bus.transferAllInto(payload, arrived, cycles);
    ASSERT_EQ(arrived.size(), payload.size());
    // Arrival order may interleave across lanes; as a multiset the
    // payload is conserved.
    std::sort(arrived.begin(), arrived.end());
    std::vector<std::uint64_t> expect = payload;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(arrived, expect);
    EXPECT_GT(cycles, 0u);
}

TEST(RmBus, MoreLanesFewerCycles)
{
    std::vector<std::uint64_t> payload(256, 9);
    std::vector<std::uint64_t> arrived;
    Cycle narrow = 0, wide = 0;
    RmBus bus1(2, 6);
    bus1.transferAllInto(payload, arrived, narrow);
    RmBus bus2(16, 6);
    bus2.transferAllInto(payload, arrived, wide);
    EXPECT_LT(wide, narrow);
}

/** Property: the functional bus is never slower than the analytic
 * lower bound and close to the closed-form model. */
class BusTimingSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(BusTimingSweep, FunctionalMatchesClosedForm)
{
    auto [words, segments] = GetParam();
    RmBus bus(8, segments);
    std::vector<std::uint64_t> payload(words, 0x5A);
    std::vector<std::uint64_t> arrived;
    Cycle functional = 0;
    bus.transferAllInto(payload, arrived, functional);
    // Closed-form: traversal + one wave per 2 cycles per lane. The
    // functional model drains the output eagerly, so it can beat
    // the model by up to the traversal latency; drain effects can
    // cost a little extra at the tail.
    std::uint64_t waves = (words + 8 - 1) / 8;
    Cycle closed = segments + 2 * (waves - 1);
    EXPECT_GE(functional + segments, closed);
    EXPECT_LE(functional, closed + 2 * segments + 8);
}

INSTANTIATE_TEST_SUITE_P(
    WordSegmentGrid, BusTimingSweep,
    ::testing::Combine(::testing::Values(1u, 8u, 64u, 333u),
                       ::testing::Values(4u, 8u, 16u)));

TEST(RmBusTiming, SegmentCountFromGeometry)
{
    RmParams rm;
    rm.busLengthDomains = 4096;
    rm.busSegmentSize = 1024;
    RmBusTiming t(rm);
    EXPECT_EQ(t.segmentCount(), 4u);
    rm.busSegmentSize = 64;
    EXPECT_EQ(RmBusTiming(rm).segmentCount(), 64u);
}

TEST(RmBusTiming, SmallerSegmentsMoreCycles)
{
    RmParams rm;
    rm.busSegmentSize = 1024;
    Cycle big = RmBusTiming(rm).transferCycles(2000);
    rm.busSegmentSize = 64;
    Cycle small = RmBusTiming(rm).transferCycles(2000);
    EXPECT_GT(small, big);
}

TEST(RmBusTiming, EnergyIsFlatAcrossSegmentSizes)
{
    // The pulse-energy x pulse-count product is segment-size
    // independent (Table V's energy column).
    RmParams rm;
    auto energy_for = [&](unsigned seg) {
        rm.busSegmentSize = seg;
        EnergyMeter meter;
        RmEnergyModel energy(rm, meter);
        RmBusTiming(rm).recordTransferEnergy(energy, 8192);
        return meter.energyPj(EnergyOp::BusShift);
    };
    double e64 = energy_for(64);
    double e1024 = energy_for(1024);
    EXPECT_NEAR(e64 / e1024, 1.0, 0.05);
}

TEST(RmBusTiming, ZeroElementsCostNothing)
{
    RmParams rm;
    EXPECT_EQ(RmBusTiming(rm).transferCycles(0), 0u);
}

TEST(RmBusTiming, ElementsPerWave)
{
    RmParams rm; // 64 lanes, 1024-domain segments
    RmBusTiming t(rm);
    EXPECT_EQ(t.laneGroups(), 8u);
    EXPECT_EQ(t.elementsPerWave(), 8u * 1024u);
}

} // namespace
} // namespace streampim
