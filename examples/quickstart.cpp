/**
 * @file
 * Quickstart: drive the bit-accurate StreamPIM device directly.
 *
 * Stores two vectors into the racetrack mats, issues the Table II
 * VPCs (MUL dot product, ADD vector addition, SMUL scaling, TRAN
 * copy) through the asynchronous queue, and verifies the device's
 * results against host arithmetic. Every value the device returns
 * was really computed by domain-wall gates fed through the
 * segmented RM bus.
 *
 * Build & run:  ./build/examples/example_quickstart
 */

#include <cstdio>
#include <numeric>
#include <vector>

#include "core/stream_pim.hh"

using namespace streampim;

namespace
{

/** Drain the queue, appending the executed VPCs' records. */
void
drainAppending(StreamPimSystem &device,
               std::vector<VpcExecutionRecord> &records)
{
    std::vector<VpcExecutionRecord> drained;
    device.processQueueInto(drained);
    records.insert(records.end(), drained.begin(), drained.end());
}

/**
 * Submit with backpressure: the VPC queue is bounded and submit()
 * returns false when it is full. Rather than asserting (real
 * drivers cannot), drain the queue — executing everything queued so
 * far — and retry; the records are appended to @p records so no
 * execution trace is lost.
 */
void
submitWithBackpressure(StreamPimSystem &device, const Vpc &vpc,
                       std::vector<VpcExecutionRecord> &records)
{
    while (!device.submit(vpc))
        drainAppending(device, records);
}

} // namespace

int
main()
{
    StreamPimSystem device; // small functional geometry
    std::printf("StreamPIM functional device: %llu bytes across %u "
                "subarrays\n",
                (unsigned long long)device.capacityBytes(),
                device.params().totalSubarrays());

    // Two operand vectors, placed in subarray 0's address range.
    const std::uint32_t n = 64;
    std::vector<std::uint8_t> a(n), b(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        a[i] = std::uint8_t(i + 1);
        b[i] = std::uint8_t(2 * i + 3);
    }
    const Addr addr_a = 0;
    const Addr addr_b = 1024;
    const Addr addr_dot = 2048;
    const Addr addr_sum = 4096;
    const Addr addr_scaled = 8192;
    device.write(addr_a, a);
    device.write(addr_b, b);

    // Issue the VPCs (Table II), honouring queue backpressure.
    std::vector<VpcExecutionRecord> records;
    submitWithBackpressure(
        device, {VpcKind::Mul, addr_a, addr_b, addr_dot, n},
        records);
    submitWithBackpressure(
        device, {VpcKind::Add, addr_a, addr_b, addr_sum, n},
        records);
    submitWithBackpressure(
        device, {VpcKind::Smul, addr_a, addr_b, addr_scaled, n},
        records);
    submitWithBackpressure(
        device, {VpcKind::Tran, addr_a, 0, 12288, n}, records);
    drainAppending(device, records);

    std::printf("executed %zu VPCs, %llu responses\n",
                records.size(),
                (unsigned long long)device.responses());
    for (const auto &rec : records)
        std::printf("  %-40s bus=%llu cycles, pipeline=%llu "
                    "cycles\n",
                    rec.vpc.toString().c_str(),
                    (unsigned long long)rec.busCycles,
                    (unsigned long long)rec.pipelineCycles);

    // Verify the dot product against the host.
    auto dot_bytes = device.read(addr_dot, 4);
    std::uint32_t dot = 0;
    for (int i = 0; i < 4; ++i)
        dot |= std::uint32_t(dot_bytes[i]) << (8 * i);
    std::uint32_t expect = 0;
    for (std::uint32_t i = 0; i < n; ++i)
        expect += std::uint32_t(a[i]) * b[i];
    std::printf("dot(a, b): device=%u host=%u %s\n", dot, expect,
                dot == expect ? "[OK]" : "[MISMATCH]");

    // Verify the vector addition (8-bit wrap semantics).
    auto sum = device.read(addr_sum, n);
    bool add_ok = true;
    for (std::uint32_t i = 0; i < n; ++i)
        add_ok &= sum[i] == std::uint8_t(a[i] + b[i]);
    std::printf("a + b    : %s\n", add_ok ? "[OK]" : "[MISMATCH]");

    // Verify the scalar-vector multiplication by b[0].
    auto scaled = device.read(addr_scaled, n);
    bool smul_ok = true;
    for (std::uint32_t i = 0; i < n; ++i)
        smul_ok &= scaled[i] == std::uint8_t(a[i] * b[0]);
    std::printf("b0 * a   : %s\n", smul_ok ? "[OK]" : "[MISMATCH]");

    // Energy accounting of everything above.
    EnergyMeter e = device.totalEnergy();
    std::printf("\nenergy: reads %llu (%.1f pJ), writes %llu "
                "(%.1f pJ),\n        bus shifts %llu (%.2f pJ), "
                "PIM add/mul %llu/%llu (%.2f pJ)\n",
                (unsigned long long)e.count(EnergyOp::RmRead),
                e.energyPj(EnergyOp::RmRead),
                (unsigned long long)e.count(EnergyOp::RmWrite),
                e.energyPj(EnergyOp::RmWrite),
                (unsigned long long)e.count(EnergyOp::BusShift),
                e.energyPj(EnergyOp::BusShift),
                (unsigned long long)e.count(EnergyOp::PimAdd),
                (unsigned long long)e.count(EnergyOp::PimMul),
                e.energyPj(EnergyOp::PimAdd) +
                    e.energyPj(EnergyOp::PimMul));

    bool ok = dot == expect && add_ok && smul_ok;
    std::printf("\nquickstart %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
}
