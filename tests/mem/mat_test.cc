/**
 * @file
 * Tests for the functional mat model (save/transfer tracks), its
 * per-track wear accounting and the spare-track remap machinery.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/mat.hh"
#include "rm/fault_injector.hh"

namespace streampim
{
namespace
{

Mat
smallMat(bool transfer = true)
{
    // 16 tracks x 128 domains = 256 bytes.
    return Mat(16, 128, 64, transfer);
}

/** Port read of @p count bytes at @p offset into a fresh vector. */
std::vector<std::uint8_t>
portRead(Mat &m, std::uint64_t offset, std::uint64_t count)
{
    std::vector<std::uint8_t> out;
    m.readBytesInto(offset, count, out);
    return out;
}

TEST(Mat, CapacityFromGeometry)
{
    Mat m = smallMat();
    EXPECT_EQ(m.capacityBytes(), 16u / 8 * 128);
    EXPECT_EQ(m.tracks(), 16u);
    EXPECT_TRUE(m.hasTransferTracks());
}

TEST(Mat, WriteReadRoundTrip)
{
    Mat m = smallMat();
    std::vector<std::uint8_t> data = {1, 2, 3, 250, 0, 255};
    m.writeBytes(10, data);
    auto out = portRead(m, 10, data.size());
    EXPECT_EQ(out, data);
}

TEST(Mat, PortOperationsAreCounted)
{
    Mat m = smallMat();
    std::vector<std::uint8_t> data(5, 7);
    m.writeBytes(0, data);
    EXPECT_EQ(m.activity().portWrites, 5u);
    portRead(m, 0, 5);
    EXPECT_EQ(m.activity().portReads, 5u);
}

TEST(Mat, NonDestructiveReadPreservesData)
{
    Mat m = smallMat();
    std::vector<std::uint8_t> data = {11, 22, 33, 44};
    m.writeBytes(64, data);

    std::vector<std::uint8_t> copy(data.size());
    m.copyOutViaTransferTracksInto(64, copy);
    EXPECT_EQ(copy, data);
    // The save tracks still hold the data.
    EXPECT_EQ(portRead(m, 64, data.size()), data);
    // And the fan-out mechanism was exercised, not the ports.
    EXPECT_EQ(m.activity().fanOutCopies, 8u * data.size());
}

TEST(Mat, DestructiveShiftOutVacatesDomains)
{
    Mat m = smallMat();
    std::vector<std::uint8_t> data = {0xAA, 0xBB};
    m.writeBytes(0, data);
    std::vector<std::uint8_t> out(2);
    m.shiftOutDestructiveInto(0, out);
    EXPECT_EQ(out, data);
    auto after = portRead(m, 0, 2);
    EXPECT_EQ(after, (std::vector<std::uint8_t>{0, 0}));
}

TEST(Mat, ShiftInDepositsWithoutPortWrites)
{
    Mat m = smallMat();
    std::vector<std::uint8_t> data = {9, 8, 7};
    auto writes_before = m.activity().portWrites;
    m.shiftInFromBus(32, data);
    EXPECT_EQ(m.activity().portWrites, writes_before);
    EXPECT_EQ(portRead(m, 32, 3), data);
}

TEST(MatDeath, NonDestructiveReadNeedsTransferTracks)
{
    Mat m = smallMat(false);
    std::vector<std::uint8_t> data = {1};
    m.writeBytes(0, data);
    std::vector<std::uint8_t> out(1);
    EXPECT_DEATH(m.copyOutViaTransferTracksInto(0, out), "transfer");
}

TEST(MatDeath, OutOfRangeAccessPanics)
{
    Mat m = smallMat();
    EXPECT_DEATH(portRead(m, m.capacityBytes() - 1, 2), "capacity");
}

TEST(MatDeath, BadTrackCountPanics)
{
    EXPECT_DEATH(Mat(12, 128, 64, false), "multiple of 8");
}

TEST(MatWearTest, DepositsAreCountedWithoutAnInjector)
{
    Mat m = smallMat();
    EXPECT_EQ(m.wear().deposits, 0u);
    // 16 tracks = 2 bytes per row: offsets 0 and 2 share tracks 0-7
    // (domains 0 and 1), offset 1 lives on tracks 8-15. Every byte
    // written nucleates 8 domains, one per bit track.
    std::vector<std::uint8_t> data(4, 0x5A);
    m.writeBytes(0, data);
    MatWear w = m.wear();
    EXPECT_EQ(w.deposits, 4u * 8u);
    EXPECT_EQ(w.maxTrackWear, 2u); // two domains per track group
    EXPECT_EQ(w.remaps, 0u);
    EXPECT_EQ(w.sparesTotal, 0u);

    // The shift-based deposit path wears tracks the same way.
    m.shiftInFromBus(4, data);
    EXPECT_EQ(m.wear().deposits, 8u * 8u);
}

TEST(MatWearTest, SpareTracksAreNotAddressable)
{
    Mat m(16, 128, 64, true, 4);
    EXPECT_EQ(m.tracks(), 16u);
    EXPECT_EQ(m.capacityBytes(), 16u / 8 * 128);
    EXPECT_EQ(m.wear().sparesTotal, 4u);
    EXPECT_EQ(m.wear().sparesUsed, 0u);
}

/** Injector that only carries write faults (shift faults off). */
FaultInjector
writeFaultInjector(double eta, std::uint64_t seed = 99)
{
    FaultConfig cfg;
    cfg.pWrite0 = 1e-4;
    cfg.writeEndurance = eta;
    cfg.weibullShape = 6.0;
    cfg.redepositRetryBudget = 3;
    cfg.remapAfterExhaustions = 1;
    cfg.seed = seed;
    return FaultInjector(cfg);
}

/**
 * Hammer byte offset 0 (tracks 0-7, domain 0) until its tracks wear
 * out: re-deposit retries absorb the early hazard, then budget
 * exhaustions retire the worn tracks onto spares.
 */
TEST(MatWearTest, WornTracksRemapAndPreserveOtherDomains)
{
    Mat m(16, 128, 64, true, 8);
    FaultInjector inj = writeFaultInjector(300.0);
    m.setFaultInjector(&inj);

    // Sentinel data on the *other* domains of the hammered tracks:
    // a remap migrates the whole physical track, so these must
    // survive the retirement bit-exactly.
    std::vector<std::uint8_t> sentinel;
    for (unsigned i = 0; i < 10; ++i)
        sentinel.push_back(std::uint8_t(0xC0 + i));
    for (unsigned i = 0; i < 10; ++i)
        m.writeBytes(2 + 2 * i, {&sentinel[i], 1});

    std::uint8_t value = 1;
    for (int i = 0; i < 2000; ++i, ++value)
        m.writeBytes(0, {&value, 1});

    MatWear w = m.wear();
    EXPECT_GT(w.remaps, 0u);
    EXPECT_GT(w.sparesUsed, 0u);
    EXPECT_LE(w.sparesUsed, w.sparesTotal);
    EXPECT_GT(inj.stats().redeposits, 0u);
    EXPECT_GT(inj.stats().redepositExhausted, 0u);
    EXPECT_EQ(inj.stats().trackRemaps, w.remaps);

    // Detach before reading back: the readout itself must not
    // consume RNG state for this check.
    m.setFaultInjector(nullptr);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(portRead(m, 2 + 2 * i, 1)[0], sentinel[i]) << i;
}

TEST(MatWearTest, ExhaustedSparePoolFailsVisibly)
{
    // No spares at all: the first budget exhaustion has nowhere to
    // go, so commits start failing for good — visibly, through the
    // injector's counters, never silently.
    Mat m(16, 128, 64, true, 0);
    FaultInjector inj = writeFaultInjector(200.0, 7);
    m.setFaultInjector(&inj);

    std::uint8_t value = 1;
    for (int i = 0; i < 2000; ++i, ++value)
        m.writeBytes(0, {&value, 1});

    EXPECT_EQ(m.wear().remaps, 0u);
    EXPECT_GT(inj.stats().redepositExhausted, 0u);
    EXPECT_GT(inj.stats().writeFailures, 0u);
    EXPECT_EQ(inj.stats().trackRemaps, 0u);
}

TEST(MatWearTest, SameSeedSameWearTrajectory)
{
    auto run = [] {
        Mat m(16, 128, 64, true, 4);
        FaultInjector inj = writeFaultInjector(250.0, 42);
        m.setFaultInjector(&inj);
        std::uint8_t value = 3;
        for (int i = 0; i < 1500; ++i, ++value)
            m.writeBytes(0, {&value, 1});
        m.setFaultInjector(nullptr);
        return std::pair<MatWear, FaultStats>(m.wear(),
                                              inj.stats());
    };
    auto [wa, sa] = run();
    auto [wb, sb] = run();
    EXPECT_EQ(wa.deposits, wb.deposits);
    EXPECT_EQ(wa.maxTrackWear, wb.maxTrackWear);
    EXPECT_EQ(wa.remaps, wb.remaps);
    EXPECT_EQ(wa.sparesUsed, wb.sparesUsed);
    EXPECT_EQ(sa.depositPulses, sb.depositPulses);
    EXPECT_EQ(sa.redeposits, sb.redeposits);
    EXPECT_EQ(sa.writeFailures, sb.writeFailures);
}

/** Property: random write/read round-trips at random offsets. */
TEST(Mat, RandomRoundTrips)
{
    Mat m = smallMat();
    Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        std::uint64_t len = 1 + rng.below(16);
        std::uint64_t off = rng.below(m.capacityBytes() - len);
        std::vector<std::uint8_t> data(len);
        for (auto &v : data)
            v = std::uint8_t(rng.below(256));
        m.writeBytes(off, data);
        EXPECT_EQ(portRead(m, off, len), data);
    }
}

} // namespace
} // namespace streampim
