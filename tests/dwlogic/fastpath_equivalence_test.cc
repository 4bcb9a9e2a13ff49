/**
 * @file
 * Randomized equivalence between the two functional-model levels:
 * the packed word-parallel fast path (default) must produce, for
 * every component, exactly the values, LogicCounters and energy of
 * the gate-netlist oracle (STREAMPIM_STRICT_GATES). These tests pin
 * the closed-form counter charges against the per-gate counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "dwlogic/adder.hh"
#include "dwlogic/circle_adder.hh"
#include "dwlogic/duplicator.hh"
#include "dwlogic/mode.hh"
#include "dwlogic/multiplier.hh"
#include "processor/rm_processor.hh"

namespace streampim
{
namespace
{

void
expectCountersEqual(const LogicCounters &fast,
                    const LogicCounters &strict)
{
    EXPECT_EQ(fast.gateOps, strict.gateOps);
    EXPECT_EQ(fast.shiftSteps, strict.shiftSteps);
    EXPECT_EQ(fast.fanOuts, strict.fanOuts);
    EXPECT_EQ(fast.diodePasses, strict.diodePasses);
    EXPECT_DOUBLE_EQ(fast.gateEnergyPj(), strict.gateEnergyPj());
}

/**
 * Run @p body once per mode with fresh counters and compare the
 * counters afterwards; @p body returns the value under test, which
 * must also match.
 */
template <typename Body>
void
expectModesMatch(Body body)
{
    LogicCounters fast_c, strict_c;
    std::uint64_t fast_v, strict_v;
    {
        ScopedStrictGates mode(false);
        fast_v = body(fast_c);
    }
    {
        ScopedStrictGates mode(true);
        strict_v = body(strict_c);
    }
    EXPECT_EQ(fast_v, strict_v);
    expectCountersEqual(fast_c, strict_c);
}

TEST(FastPathEquivalence, RippleAdderRandom)
{
    for (unsigned width : {1u, 7u, 8u, 16u, 33u, 48u, 64u}) {
        Rng rng(width);
        for (int i = 0; i < 50; ++i) {
            const std::uint64_t mask =
                width == 64 ? ~0ull : (1ull << width) - 1;
            const std::uint64_t a = rng.next() & mask;
            const std::uint64_t b = rng.next() & mask;
            expectModesMatch([&](LogicCounters &c) {
                DwRippleCarryAdder add(width, c);
                auto r = add.add(BitVec::fromWord(a, width),
                                 BitVec::fromWord(b, width));
                return r.sum.toWord() | (std::uint64_t(r.carry)
                                         << 63);
            });
        }
    }
}

TEST(FastPathEquivalence, AdderCarryIn)
{
    expectModesMatch([](LogicCounters &c) {
        DwRippleCarryAdder add(8, c);
        auto r = add.add(BitVec::fromWord(0xFF, 8),
                         BitVec::fromWord(0x00, 8), true);
        return r.sum.toWord() | (std::uint64_t(r.carry) << 63);
    });
}

TEST(FastPathEquivalence, MultiplierRandomIncludingWide)
{
    // Widths beyond the old 32-bit multiplyWords limit included.
    for (unsigned width : {4u, 8u, 16u, 33u, 48u}) {
        Rng rng(width * 3 + 1);
        for (int i = 0; i < 20; ++i) {
            const std::uint64_t mask = (1ull << width) - 1;
            const std::uint64_t a = rng.next() & mask;
            const std::uint64_t b = rng.next() & mask;
            expectModesMatch([&](LogicCounters &c) {
                DwMultiplier mul(width, c);
                return mul.multiplyWords(a, b);
            });
        }
    }
}

TEST(FastPathEquivalence, MultiplierFullFlowWithDuplicator)
{
    Rng rng(23);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t a = rng.below(256);
        const std::uint64_t b = rng.below(256);
        expectModesMatch([&](LogicCounters &c) {
            DwMultiplier mul(8, c);
            Duplicator dup(8, c);
            dup.load(BitVec::fromWord(a, 8));
            BitVec product = mul.multiply(dup, BitVec::fromWord(b, 8));
            dup.unload();
            return product.toWord();
        });
    }
}

TEST(FastPathEquivalence, CircleAdderAccumulation)
{
    Rng rng(41);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<std::uint64_t> products;
        for (int i = 0; i < 8; ++i)
            products.push_back(rng.below(1u << 16));
        expectModesMatch([&](LogicCounters &c) {
            CircleAdder acc(32, c);
            for (std::uint64_t p : products)
                acc.accumulateWord(p, 16);
            return acc.accumulatorWord();
        });
    }
}

TEST(FastPathEquivalence, DuplicatorReplicas)
{
    Rng rng(43);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t word = rng.below(1u << 16);
        expectModesMatch([&](LogicCounters &c) {
            Duplicator dup(16, c);
            dup.load(BitVec::fromWord(word, 16));
            std::uint64_t acc = 0;
            for (int r = 0; r < 4; ++r)
                acc = acc * 31 + dup.duplicate().toWord();
            acc = acc * 31 + dup.unload().toWord();
            return acc;
        });
    }
}

TEST(FastPathEquivalence, ProcessorDotProduct)
{
    Rng rng(53);
    std::vector<std::uint8_t> a(37), b(37);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = std::uint8_t(rng.below(256));
        b[i] = std::uint8_t(rng.below(256));
    }

    auto run = [&](bool strict, LogicCounters &counters,
                   double &energy) {
        ScopedStrictGates mode(strict);
        RmParams params;
        EnergyMeter meter;
        RmProcessor proc(params, meter);
        ProcessorResult r;
        proc.dotProductInto(a, b, r);
        counters = proc.counters();
        energy = meter.totalPj();
        EXPECT_EQ(r.values.size(), 1u);
        return std::uint64_t(r.values[0]) |
               (std::uint64_t(r.cycles) << 32);
    };
    LogicCounters fast_c, strict_c;
    double fast_e, strict_e;
    const std::uint64_t fast_v = run(false, fast_c, fast_e);
    const std::uint64_t strict_v = run(true, strict_c, strict_e);
    EXPECT_EQ(fast_v, strict_v);
    expectCountersEqual(fast_c, strict_c);
    EXPECT_DOUBLE_EQ(fast_e, strict_e);
}

TEST(FastPathEquivalence, ModeSwitchIsRuntime)
{
    // The mode is a runtime switch, not a build-time one: flipping
    // it mid-process changes which implementation runs without
    // changing any observable output.
    const bool prev = strictGates();
    LogicCounters c1, c2;
    DwRippleCarryAdder a1(8, c1), a2(8, c2);
    setStrictGates(false);
    auto r1 = a1.add(BitVec::fromWord(200, 8),
                     BitVec::fromWord(100, 8));
    setStrictGates(true);
    auto r2 = a2.add(BitVec::fromWord(200, 8),
                     BitVec::fromWord(100, 8));
    setStrictGates(prev);
    EXPECT_EQ(r1.sum.toWord(), r2.sum.toWord());
    EXPECT_EQ(r1.carry, r2.carry);
    expectCountersEqual(c1, c2);
}

} // namespace
} // namespace streampim
