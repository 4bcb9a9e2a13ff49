/**
 * @file
 * Tests for the functional subarray: the Fig. 13 PIM data flow on
 * real data.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/subarray.hh"

namespace streampim
{
namespace
{

RmParams
tinyParams()
{
    RmParams p;
    p.busLanes = 8;
    p.busLengthDomains = 512;
    p.busSegmentSize = 128;
    return p;
}

FunctionalSubarray
makeSubarray()
{
    // 4 mats x (32 tracks x 128 domains) = 4 x 512 bytes.
    static RmParams p = tinyParams();
    return FunctionalSubarray(p, 4, 32, 128);
}

/** Host read of @p count bytes at @p offset into a fresh vector. */
std::vector<std::uint8_t>
readBack(FunctionalSubarray &s, std::uint64_t offset,
         std::uint64_t count)
{
    std::vector<std::uint8_t> out;
    s.hostReadInto(offset, count, out);
    return out;
}

TEST(FunctionalSubarray, Capacity)
{
    auto s = makeSubarray();
    EXPECT_EQ(s.capacityBytes(), 4u * 512);
    EXPECT_EQ(s.mats(), 4u);
}

TEST(FunctionalSubarray, HostReadWriteAcrossMats)
{
    auto s = makeSubarray();
    std::vector<std::uint8_t> data(600); // spans mat 0 into mat 1
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 7);
    s.hostWrite(100, data);
    EXPECT_EQ(readBack(s, 100, data.size()), data);
}

TEST(FunctionalSubarray, DotProductVpc)
{
    auto s = makeSubarray();
    const std::uint32_t n = 32;
    std::vector<std::uint8_t> a(n), b(n);
    std::uint32_t expect = 0;
    Rng rng(3);
    for (std::uint32_t i = 0; i < n; ++i) {
        a[i] = std::uint8_t(rng.below(256));
        b[i] = std::uint8_t(rng.below(256));
        expect += std::uint32_t(a[i]) * b[i];
    }
    s.hostWrite(0, a);
    s.hostWrite(256, b);
    SubarrayVpcResult res;
    s.executeVpcInto(VpcKind::Mul, 0, 256, 1024, n, res);
    EXPECT_EQ(res.values.at(0), expect);
    EXPECT_GT(res.busCycles, 0u);
    EXPECT_GT(res.pipelineCycles, 0u);
    // The 32-bit result landed in the destination mat.
    auto out = readBack(s, 1024, 4);
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i)
        stored |= std::uint32_t(out[i]) << (8 * i);
    EXPECT_EQ(stored, expect);
}

TEST(FunctionalSubarray, DotProductDoesNotDestroyOperands)
{
    auto s = makeSubarray();
    std::vector<std::uint8_t> a = {1, 2, 3, 4};
    std::vector<std::uint8_t> b = {5, 6, 7, 8};
    s.hostWrite(0, a);
    s.hostWrite(64, b);
    SubarrayVpcResult res;
    s.executeVpcInto(VpcKind::Mul, 0, 64, 128, 4, res);
    // Non-destructive read through the transfer tracks: operands
    // survive (Sec. III-E).
    EXPECT_EQ(readBack(s, 0, 4), a);
    EXPECT_EQ(readBack(s, 64, 4), b);
}

TEST(FunctionalSubarray, VectorAddVpc)
{
    auto s = makeSubarray();
    std::vector<std::uint8_t> a = {200, 100, 0, 255};
    std::vector<std::uint8_t> b = {100, 1, 0, 255};
    s.hostWrite(0, a);
    s.hostWrite(64, b);
    SubarrayVpcResult res;
    s.executeVpcInto(VpcKind::Add, 0, 64, 128, 4, res);
    auto out = readBack(s, 128, 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], std::uint8_t(a[i] + b[i])) << i;
    // The processor produces full 9-bit sums (no overflow inside
    // the circle adder); wrap-around happens at the 8-bit store.
    EXPECT_FALSE(res.overflow);
    EXPECT_EQ(res.values.at(0), 300u);
    EXPECT_EQ(res.values.at(3), 510u);
}

TEST(FunctionalSubarray, ScalarVectorMulVpc)
{
    auto s = makeSubarray();
    std::vector<std::uint8_t> v = {1, 2, 3, 4, 5};
    std::vector<std::uint8_t> scalar = {3};
    s.hostWrite(0, v);
    s.hostWrite(64, scalar);
    SubarrayVpcResult res;
    s.executeVpcInto(VpcKind::Smul, 0, 64, 128, 5, res);
    auto out = readBack(s, 128, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], std::uint8_t(3 * v[i]));
}

TEST(FunctionalSubarray, TranVpcMovesData)
{
    auto s = makeSubarray();
    std::vector<std::uint8_t> v = {9, 9, 9, 1, 2};
    s.hostWrite(0, v);
    SubarrayVpcResult res;
    s.executeVpcInto(VpcKind::Tran, 0, 0, 300, 5, res);
    EXPECT_EQ(readBack(s, 300, 5), v);
}

TEST(FunctionalSubarray, EnergyAccumulates)
{
    auto s = makeSubarray();
    std::vector<std::uint8_t> a = {1, 2};
    s.hostWrite(0, a);
    s.hostWrite(64, a);
    SubarrayVpcResult res;
    s.executeVpcInto(VpcKind::Mul, 0, 64, 128, 2, res);
    EXPECT_GT(s.energy().count(EnergyOp::PimMul), 0u);
    EXPECT_GT(s.energy().count(EnergyOp::PimAdd), 0u);
    EXPECT_GT(s.energy().count(EnergyOp::BusShift), 0u);
}

/** Property: dot products over random vectors match the host. */
class SubarrayDotSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SubarrayDotSweep, MatchesHost)
{
    auto s = makeSubarray();
    const unsigned n = GetParam();
    Rng rng(n);
    std::vector<std::uint8_t> a(n), b(n);
    std::uint32_t expect = 0;
    for (unsigned i = 0; i < n; ++i) {
        a[i] = std::uint8_t(rng.below(256));
        b[i] = std::uint8_t(rng.below(256));
        expect += std::uint32_t(a[i]) * b[i];
    }
    s.hostWrite(0, a);
    s.hostWrite(200, b);
    SubarrayVpcResult res;
    s.executeVpcInto(VpcKind::Mul, 0, 200, 400, n, res);
    EXPECT_EQ(res.values.at(0), expect);
}

INSTANTIATE_TEST_SUITE_P(Lengths, SubarrayDotSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u, 33u,
                                           50u));

} // namespace
} // namespace streampim
