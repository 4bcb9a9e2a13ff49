/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot
 * components: the event queue, the bit-accurate domain-wall logic,
 * the functional bus stepping, and schedule execution. These are
 * engineering numbers for simulator developers, not paper results.
 *
 * After the microbenchmarks, a fast-vs-strict functional matmul
 * comparison runs the same deterministic dot-product workload in
 * both modes (packed word-parallel default, then the
 * STREAMPIM_STRICT_GATES netlist oracle), interleaved over a few
 * repetitions with best-of timing, and reports both throughputs,
 * the speedup, and the mode-invariant outputs (checksum, logic
 * counters, energy) into BENCH_micro_components.json via the shared
 * `--json` / STREAMPIM_JSON convention.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/config.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "core/executor.hh"
#include "dwlogic/mode.hh"
#include "dwlogic/multiplier.hh"
#include "bus/rm_bus.hh"
#include "parallel/sweep.hh"
#include "processor/rm_processor.hh"
#include "runtime/planner.hh"
#include "sim/event_queue.hh"
#include "workloads/polybench.hh"

using namespace streampim;
using namespace streampim::bench;

namespace
{

/** Heap-traffic counters fed by the operator new override below:
 * the matmul rows report allocations/bytes of their measured
 * region, proving the packed hot path is allocation-free. */
std::uint64_t g_allocs = 0;
std::uint64_t g_allocBytes = 0;

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs++;
    g_allocBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int events = int(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sum = 0;
        for (int i = 0; i < events; ++i)
            eq.schedule(Tick(i * 7 % 1000), [&sum] { sum++; });
        eq.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_BitAccurateMultiply(benchmark::State &state)
{
    LogicCounters c;
    DwMultiplier mul(8, c);
    Rng rng(7);
    for (auto _ : state) {
        auto a = unsigned(rng.below(256));
        auto b = unsigned(rng.below(256));
        benchmark::DoNotOptimize(mul.multiplyWords(a, b));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitAccurateMultiply);

void
BM_BusFunctionalTransfer(benchmark::State &state)
{
    const unsigned words = unsigned(state.range(0));
    std::vector<std::uint64_t> payload(words, 0xA5);
    std::vector<std::uint64_t> arrived;
    for (auto _ : state) {
        RmBus bus(64, 8);
        Cycle cycles = 0;
        bus.transferAllInto(payload, arrived, cycles);
        benchmark::DoNotOptimize(arrived.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * words);
}
BENCHMARK(BM_BusFunctionalTransfer)->Arg(256)->Arg(4096);

void
BM_PlanAndExecuteGemm(benchmark::State &state)
{
    const unsigned dim = unsigned(state.range(0));
    SystemConfig cfg = SystemConfig::paperDefault();
    TaskGraph g = makePolybench(PolybenchKernel::Gemm, dim);
    Planner planner(cfg);
    Executor executor(cfg);
    for (auto _ : state) {
        VpcSchedule sched = planner.plan(g);
        benchmark::DoNotOptimize(executor.run(sched).makespan);
    }
}
BENCHMARK(BM_PlanAndExecuteGemm)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

/** One mode's run of the fast-vs-strict matmul workload. */
struct MatmulModeResult
{
    double seconds = 0.0;
    std::uint64_t checksum = 0; //!< FNV-1a over all result elements
    Cycle cycles = 0;
    LogicCounters counters;
    double energyPj = 0.0;
    std::uint64_t allocations = 0;    //!< heap allocs, measured loop
    std::uint64_t bytesAllocated = 0; //!< heap bytes, measured loop
    const char *simdBackend = "scalar"; //!< kernel backend that ran
};

/**
 * Run @p rounds deterministic length-@p n dot products in the given
 * mode and word-kernel backend. Same seed in every mode, so every
 * mode-invariant output (checksum, cycles, counters, energy) must
 * match exactly; only timing and heap traffic may differ.
 */
MatmulModeResult
runMatmul(bool strict, simd::Backend backend, unsigned rounds,
          unsigned n)
{
    ScopedStrictGates mode(strict);
    simd::ScopedBackend kernels(backend);
    RmParams params;
    EnergyMeter meter;
    RmProcessor proc(params, meter);
    Rng rng(0xF00D);
    std::vector<std::uint8_t> a(n), b(n);
    MatmulModeResult res;
    res.simdBackend = simd::backendName();
    res.checksum = 0xcbf29ce484222325ULL;
    ProcessorResult out;
    out.values.reserve(1); // steady-state capacity, outside the count
    const std::uint64_t allocs_before = g_allocs;
    const std::uint64_t bytes_before = g_allocBytes;
    WallTimer timer;
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned i = 0; i < n; ++i) {
            a[i] = std::uint8_t(rng.below(256));
            b[i] = std::uint8_t(rng.below(256));
        }
        proc.dotProductInto(a, b, out);
        res.cycles += out.cycles;
        for (std::uint32_t v : out.values) {
            res.checksum ^= v;
            res.checksum *= 0x100000001b3ULL;
        }
    }
    res.seconds = timer.seconds();
    res.allocations = g_allocs - allocs_before;
    res.bytesAllocated = g_allocBytes - bytes_before;
    res.counters = proc.counters();
    res.energyPj = meter.totalPj();
    return res;
}

/** Checksum as a hex string: Json numbers are doubles and would
 * silently round a 64-bit value. */
std::string
checksumHex(std::uint64_t checksum)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)checksum);
    return buf;
}

Json
matmulModeJson(const MatmulModeResult &m, double macs)
{
    Json j = Json::object();
    j["seconds"] = m.seconds;
    j["macs_per_second"] = perSecond(macs, m.seconds);
    // Heap traffic of the measured loop (schema v4). Like the
    // timing fields (and simd_backend), CI byte-identity diffs
    // strip these; the release-perf gate asserts the packed row's
    // allocations stay 0.
    j["allocations"] = std::int64_t(m.allocations);
    j["bytes_allocated"] = std::int64_t(m.bytesAllocated);
    j["simd_backend"] = m.simdBackend;
    j["checksum"] = checksumHex(m.checksum);
    j["cycles"] = std::int64_t(m.cycles);
    j["gate_ops"] = std::int64_t(m.counters.gateOps);
    j["shift_steps"] = std::int64_t(m.counters.shiftSteps);
    j["fan_outs"] = std::int64_t(m.counters.fanOuts);
    j["diode_passes"] = std::int64_t(m.counters.diodePasses);
    j["energy_pj"] = m.energyPj;
    return j;
}

bool
modesAgree(const MatmulModeResult &a, const MatmulModeResult &b)
{
    return a.checksum == b.checksum && a.cycles == b.cycles &&
           a.energyPj == b.energyPj &&
           a.counters.gateOps == b.counters.gateOps &&
           a.counters.shiftSteps == b.counters.shiftSteps &&
           a.counters.fanOuts == b.counters.fanOuts &&
           a.counters.diodePasses == b.counters.diodePasses;
}

} // namespace

int
main(int argc, char **argv)
{
    // The shared --json convention is ours, not google-benchmark's:
    // resolve it first, then hand benchmark the remaining args.
    const std::string json_path =
        resolveBenchReportPath("micro_components", argc, argv);
    std::vector<char *> bargs;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            i++;
            continue;
        }
        bargs.push_back(argv[i]);
    }
    int bargc = int(bargs.size());
    benchmark::Initialize(&bargc, bargs.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Fast-vs-strict functional matmul: identical workload, both
    // functional-model levels, plus the forced-AVX2 packed row
    // (identical to packed when the resolved backend is already
    // AVX2; still checked for agreement either way).
    const unsigned rounds =
        unsigned(Config::envInt("STREAMPIM_MATMUL_ROUNDS", 64));
    const unsigned reps =
        unsigned(Config::envInt("STREAMPIM_MATMUL_REPS", 3));
    const unsigned n = 64;
    const double macs = double(rounds) * n;
    // Interleave the modes over several repetitions and keep each
    // mode's best time: the speedup then reflects the code, not a
    // transient load spike that happened to hit one of the runs.
    // The mode-invariant outputs must agree on every repetition.
    MatmulModeResult packed, avx2, strict;
    bool agree = true;
    for (unsigned rep = 0; rep < reps; ++rep) {
        MatmulModeResult p =
            runMatmul(false, simd::backend(), rounds, n);
        MatmulModeResult v =
            runMatmul(false, simd::Backend::Avx2, rounds, n);
        MatmulModeResult s =
            runMatmul(true, simd::backend(), rounds, n);
        agree = agree && modesAgree(p, s) && modesAgree(p, v) &&
                (rep == 0 || modesAgree(p, packed));
        if (rep == 0 || p.seconds < packed.seconds)
            packed = p;
        if (rep == 0 || v.seconds < avx2.seconds)
            avx2 = v;
        if (rep == 0 || s.seconds < strict.seconds)
            strict = s;
    }
    const double speedup = packed.seconds > 0.0
                               ? strict.seconds / packed.seconds
                               : 0.0;

    std::printf("\nfunctional matmul, %u x length-%u dot products "
                "(%.0f MACs):\n", rounds, n, macs);
    std::printf("  packed: %.4f s (%.3e MACs/s, %s kernels, "
                "%llu allocs)\n", packed.seconds,
                perSecond(macs, packed.seconds), packed.simdBackend,
                (unsigned long long)packed.allocations);
    std::printf("  avx2:   %.4f s (%.3e MACs/s, %s kernels, "
                "%llu allocs)\n", avx2.seconds,
                perSecond(macs, avx2.seconds), avx2.simdBackend,
                (unsigned long long)avx2.allocations);
    std::printf("  strict: %.4f s (%.3e MACs/s)\n", strict.seconds,
                perSecond(macs, strict.seconds));
    std::printf("  speedup packed vs strict: %.1fx\n", speedup);
    std::printf("  modes %s: checksum %016llx, %llu gate ops, "
                "%.1f pJ\n", agree ? "agree" : "DISAGREE",
                (unsigned long long)packed.checksum,
                (unsigned long long)packed.counters.gateOps,
                packed.energyPj);

    if (!json_path.empty()) {
        Json doc = Json::object();
        doc["schema_version"] =
            std::int64_t(kBenchReportSchemaVersion);
        doc["bench"] = "micro_components";
        Json mm = Json::object();
        mm["rounds"] = std::int64_t(rounds);
        mm["vector_len"] = std::int64_t(n);
        mm["macs"] = macs;
        Json modes = Json::object();
        modes["packed"] = matmulModeJson(packed, macs);
        modes["avx2"] = matmulModeJson(avx2, macs);
        modes["strict"] = matmulModeJson(strict, macs);
        mm["modes"] = std::move(modes);
        mm["modes_agree"] = agree;
        mm["speedup_packed_vs_strict"] = speedup;
        doc["matmul"] = std::move(mm);
        // Perf section, mirroring SweepRunner reports: which backend
        // the default (packed) rows actually ran on.
        Json perf = Json::object();
        perf["simd_backend"] = simd::backendName();
        perf["devices"] =
            std::int64_t(Config::envInt("STREAMPIM_DEVICES", 1));
        doc["perf"] = std::move(perf);
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        out << doc.dump(2);
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return agree ? 0 : 1;
}
