#include "ladder.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "bus/rm_bus.hh"
#include "common/bitvec.hh"
#include "common/rng.hh"
#include "core/stream_pim.hh"
#include "core/tiled_matmul.hh"
#include "mem/mat.hh"
#include "mem/subarray.hh"
#include "processor/rm_processor.hh"
#include "rm/fault_injector.hh"
#include "runtime/conflict_graph.hh"
#include "runtime/tiler.hh"

using namespace streampim;

namespace spimbench
{

namespace
{

struct RowTime
{
    double ops = 0.0;
    double seconds = 0.0;

    double rate() const { return seconds > 0 ? ops / seconds : 0.0; }
};

/** Call @p op (which returns the work it did) until @p budget host
 * seconds have passed; at least once. */
template <class Op>
RowTime
timeRow(double budget, Op &&op)
{
    RowTime t;
    const double start = nowSeconds();
    do {
        t.ops += double(op());
        t.seconds = nowSeconds() - start;
    } while (t.seconds < budget);
    return t;
}

std::uint32_t
hostDot(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b)
{
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += std::uint32_t(a[i]) * b[i];
    return s;
}

/** The faulty rows' injector: the campaign's shift-fault rate plus
 * a wear-independent write-fault floor, so a row's fault rate does
 * not drift as its own deposits wear the tracks. */
FaultConfig
ladderFaults(std::uint64_t seed)
{
    FaultConfig f;
    f.pStep = 1e-4;
    f.pWrite0 = 1e-4;
    f.writeEndurance = 1e15;
    f.seed = seed;
    return f;
}

class Ladder
{
  public:
    Ladder(const LadderShape &shape, unsigned threads, double budget,
           std::uint64_t seed, Metrics &out, Tracer &tr)
        : params_(smallFunctionalParams()), shape_(shape),
          threads_(threads), budget_(budget), seed_(seed), rng_(seed),
          out_(out), tr_(tr)
    {
        // One operand must fit a mat, since a VPC streams each
        // operand out of a single mat.
        k_ = std::min<std::uint32_t>(shape.vectorLen,
                                     std::uint32_t(params_.matBytes / 2));
        a_ = randomBytes(rng_, k_);
        b_ = randomBytes(rng_, k_);
    }

    void
    run()
    {
        port();
        primSplit();
        drains();
        conflictGraph();
        subarray(false);
        subarray(true);
        bus(false);
        bus(true);
        mat(false);
        mat(true);
        processor();
        bitvec();
    }

    LadderChecks checks;

  private:
    void
    check(bool ok)
    {
        checks.attempted++;
        if (!ok)
            checks.failed++;
    }

    /** Device address of byte @p offset of global subarray @p g. */
    Addr
    addr(unsigned g, std::uint64_t offset) const
    {
        return Addr(g) * params_.bytesPerSubarray() + offset;
    }

    void
    port()
    {
        ScopedSpan s(tr_, "ladder.port");
        StreamPimSystem sys(params_);
        const std::uint64_t bytes = std::min<std::uint64_t>(
            shape_.portBytes, sys.capacityBytes());
        const std::vector<std::uint8_t> data = randomBytes(rng_, bytes);
        std::vector<std::uint8_t> back;
        RowTime t = timeRow(budget_, [&] {
            sys.write(0, data);
            back = sys.read(0, bytes);
            return 2 * bytes;
        });
        check(back == data);
        out_.set("mem.port_bytes_per_s", t.rate(), "B/s");
    }

    /**
     * PrIM phase split of one tile task: host->PIM writes of the A
     * and B tiles, the kernel (submit + drain of every MUL), and the
     * PIM->host read of the dot products.
     */
    void
    primSplit()
    {
        ScopedSpan s(tr_, "ladder.prim_split");
        const std::uint64_t mat = params_.matBytes;
        const unsigned rows = unsigned(std::min<std::uint64_t>(
            8, mat / k_));
        const std::vector<std::uint8_t> at =
            randomBytes(rng_, std::size_t(rows) * k_);
        const std::vector<std::uint8_t> bt =
            randomBytes(rng_, std::size_t(rows) * k_);
        const Addr a0 = addr(0, 0), b0 = addr(0, mat),
                   c0 = addr(0, 2 * mat);
        StreamPimSystem sys(params_);
        std::vector<VpcExecutionRecord> records;
        std::vector<double> h2p, kern, p2h;
        std::vector<std::uint8_t> c;
        const double start = nowSeconds();
        do {
            double t0 = nowSeconds();
            sys.write(a0, at);
            sys.write(b0, bt);
            double t1 = nowSeconds();
            for (unsigned i = 0; i < rows; ++i)
                for (unsigned j = 0; j < rows; ++j)
                    sys.submit({VpcKind::Mul, a0 + Addr(i) * k_,
                                b0 + Addr(j) * k_,
                                c0 + 4 * Addr(i * rows + j), k_});
            sys.processQueueInto(records, 1);
            double t2 = nowSeconds();
            c = sys.read(c0, 4 * std::uint64_t(rows) * rows);
            double t3 = nowSeconds();
            h2p.push_back(t1 - t0);
            kern.push_back(t2 - t1);
            p2h.push_back(t3 - t2);
        } while (nowSeconds() - start < budget_);
        bool ok = true;
        for (unsigned i = 0; i < rows; ++i)
            for (unsigned j = 0; j < rows; ++j) {
                std::uint32_t v = 0;
                for (int byte = 0; byte < 4; ++byte)
                    v |= std::uint32_t(c[4 * (i * rows + j) + byte])
                         << (8 * byte);
                ok = ok &&
                     v == hostDot({&at[i * k_], k_}, {&bt[j * k_], k_});
            }
        check(ok);
        out_.set("core.host_to_pim_s", median(h2p), "s");
        out_.set("core.kernel_s", median(kern), "s");
        out_.set("core.pim_to_host_s", median(p2h), "s");
    }

    /** One drain's worth of MULs, round-robin over the subarrays,
     * each on operands local to its subarray. */
    std::vector<Vpc>
    drainBatch() const
    {
        const unsigned subs = params_.totalSubarrays();
        const std::uint64_t mat = params_.matBytes;
        std::vector<Vpc> batch;
        for (std::uint32_t v = 0; v < shape_.vpcsPerDrain; ++v) {
            const unsigned g = v % subs;
            const std::uint64_t slot = v / subs;
            batch.push_back({VpcKind::Mul, addr(g, 0), addr(g, mat),
                             addr(g, 2 * mat + 4 * (slot % (mat / 4))),
                             k_});
        }
        return batch;
    }

    double
    drainRate(unsigned jobs)
    {
        StreamPimSystem sys(params_);
        for (unsigned g = 0; g < params_.totalSubarrays(); ++g) {
            sys.write(addr(g, 0), a_);
            sys.write(addr(g, params_.matBytes), b_);
        }
        const std::vector<Vpc> batch = drainBatch();
        std::vector<VpcExecutionRecord> records;
        bool clean = true;
        RowTime t = timeRow(budget_, [&] {
            for (const Vpc &v : batch)
                sys.submit(v);
            sys.processQueueInto(records, jobs);
            for (const VpcExecutionRecord &r : records)
                clean = clean && r.fault.status == FaultStatus::Clean;
            return batch.size();
        });
        const std::vector<std::uint8_t> c =
            sys.read(addr(0, 2 * params_.matBytes), 4);
        const std::uint32_t v = std::uint32_t(c[0]) | c[1] << 8 |
                                c[2] << 16 | std::uint32_t(c[3]) << 24;
        check(clean && v == hostDot(a_, b_));
        return t.rate();
    }

    void
    drains()
    {
        ScopedSpan s(tr_, "ladder.drain");
        const double j1 = drainRate(1);
        const double jn = drainRate(threads_);
        out_.set("core.drain_vpcs_per_s_j1", j1, "1/s");
        out_.set("core.drain_vpcs_per_s_jN", jn, "1/s");
        out_.set("core.drain_jobs_N", threads_, "count");
        out_.set("core.drain_speedup", j1 > 0 ? jn / j1 : 0.0, "ratio");
    }

    /**
     * Subarray bits @p v touches, by the rule of the private
     * StreamPimSystem::touchMask: the executing subarray (src1's),
     * plus src2's and dst's byte ranges when they lie elsewhere; a
     * TRAN touches its source and destination ranges.
     */
    std::uint64_t
    touchMask(const Vpc &v) const
    {
        const std::uint64_t per = params_.bytesPerSubarray();
        auto range = [&](Addr a, std::uint64_t len) {
            std::uint64_t m = 0;
            for (std::uint64_t g = a / per; len && g <= (a + len - 1) / per;
                 ++g)
                m |= 1ULL << g;
            return m;
        };
        if (v.kind == VpcKind::Tran)
            return range(v.src1, v.size) | range(v.dst, v.size);
        const std::uint64_t home = v.src1 / per;
        std::uint64_t m = 1ULL << home;
        if (v.src2 / per != home)
            m |= range(v.src2, v.kind == VpcKind::Smul ? 1 : v.size);
        if (v.dst / per != home)
            m |= range(v.dst, v.kind == VpcKind::Mul ? 4 : v.size);
        return m;
    }

    /** The drains of one runTiledMatmul of the workload's shape. */
    struct TiledDrains
    {
        std::vector<std::vector<Vpc>> drains; //!< executed, in order
        std::uint64_t vpcs = 0, pimVpcs = 0;
        std::vector<std::uint8_t> c;
    };

    /**
     * Rebuild the VPC stream runTiledMatmul submits for an n x k x m
     * product (its bulk dataflow; the library keeps the stream
     * internal) and drain it through a device exactly as the runner
     * does: whenever submit is refused, and once at the end. Each
     * drain's executed VPCs are taken from its records.
     */
    TiledDrains
    replayTiled(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b) const
    {
        const std::uint32_t n = shape_.tiledN, k = shape_.tiledK,
                            m = shape_.tiledM;
        const unsigned total = params_.totalSubarrays();
        const unsigned backing = total - 1;
        const unsigned staging = total >= 3 ? total - 2 : backing;
        const unsigned computeSubs =
            staging == backing ? total - 1 : total - 2;
        const std::uint64_t sub = params_.bytesPerSubarray();

        MatmulTiling t;
        t.n = n;
        t.k = k;
        t.m = m;
        const std::uint32_t edge = Tiler::tileEdgeForBudget(sub, 8);
        t.tileRows = std::min(n, edge);
        t.tileK = std::min(k, edge);
        t.tileCols = std::min(m, edge);
        t.iTiles = (n + t.tileRows - 1) / t.tileRows;
        t.kTiles = (k + t.tileK - 1) / t.tileK;
        t.jTiles = (m + t.tileCols - 1) / t.tileCols;

        const std::uint64_t aOff = 0;
        const std::uint64_t bOff = std::uint64_t(t.tileRows) * t.tileK;
        const std::uint64_t partialOff =
            bOff + std::uint64_t(t.tileCols) * t.tileK;
        const std::uint64_t accOff =
            partialOff + 4ull * t.tileRows * t.tileCols;
        const Addr aBase = Addr(backing) * sub;
        const Addr btBase = aBase + std::uint64_t(n) * k;
        const Addr cBase = btBase + std::uint64_t(m) * k;
        const std::uint64_t stageBytes =
            (std::uint64_t(t.tileRows) + t.tileCols) * t.tileK;
        const Addr stageBase = staging == backing
                                   ? cBase + std::uint64_t(n) * m
                                   : Addr(staging) * sub;

        StreamPimSystem dev(params_);
        dev.write(aBase, a);
        std::vector<std::uint8_t> bt(std::size_t(m) * k);
        for (std::uint32_t kk = 0; kk < k; ++kk)
            for (std::uint32_t j = 0; j < m; ++j)
                bt[std::size_t(j) * k + kk] = b[std::size_t(kk) * m + j];
        dev.write(btBase, bt);

        TiledDrains out;
        std::vector<VpcExecutionRecord> records;
        auto drain = [&] {
            dev.processQueueInto(records, 1);
            if (records.empty())
                return;
            out.drains.emplace_back();
            for (const VpcExecutionRecord &r : records)
                out.drains.back().push_back(r.vpc);
        };
        auto issue = [&](const Vpc &v) {
            if (!dev.submit(v)) {
                drain();
                dev.submit(v);
            }
            out.vpcs++;
            out.pimVpcs += isPimVpc(v.kind);
        };
        std::uint64_t task = 0;
        for (std::uint32_t i = 0; i < t.iTiles; ++i)
            for (std::uint32_t j = 0; j < t.jTiles; ++j) {
                const Addr base =
                    Addr((std::uint64_t(i) * t.jTiles + j) % computeSubs) *
                    sub;
                const std::uint32_t tr = t.rowsOf(i), tc = t.colsOf(j);
                for (std::uint32_t kk = 0; kk < t.kTiles; ++kk, ++task) {
                    const std::uint32_t tk = t.kOf(kk);
                    const Addr buf = stageBase + (task & 1) * stageBytes;
                    const Addr kOff = Addr(kk) * t.tileK;
                    for (std::uint32_t r = 0; r < tr; ++r)
                        issue({VpcKind::Tran,
                               aBase + Addr(i * t.tileRows + r) * k + kOff,
                               0, buf + Addr(r) * tk, tk});
                    for (std::uint32_t c = 0; c < tc; ++c)
                        issue({VpcKind::Tran,
                               btBase + Addr(j * t.tileCols + c) * k + kOff,
                               0, buf + Addr(tr + c) * tk, tk});
                    issue({VpcKind::Tran, buf, 0, base + aOff, tr * tk});
                    issue({VpcKind::Tran, buf + Addr(tr) * tk, 0,
                           base + bOff, tc * tk});
                    for (std::uint32_t r = 0; r < tr; ++r)
                        for (std::uint32_t c = 0; c < tc; ++c)
                            issue({VpcKind::Mul, base + aOff + Addr(r) * tk,
                                   base + bOff + Addr(c) * tk,
                                   base + partialOff + 4 * Addr(r * tc + c),
                                   tk});
                    for (std::uint32_t r = 0; r < tr; ++r)
                        for (std::uint32_t c = 0; c < tc; ++c) {
                            const Addr partial =
                                base + partialOff + 4 * Addr(r * tc + c);
                            const Addr acc = base + accOff + Addr(r) * tc + c;
                            if (kk == 0)
                                issue({VpcKind::Tran, partial, 0, acc, 1});
                            else
                                issue({VpcKind::Add, acc, partial, acc, 1});
                        }
                    if (kk + 1 == t.kTiles)
                        for (std::uint32_t r = 0; r < tr; ++r)
                            issue({VpcKind::Tran, base + accOff + Addr(r) * tc,
                                   0,
                                   cBase + Addr(i * t.tileRows + r) * m +
                                       Addr(j) * t.tileCols,
                                   tc});
                }
            }
        drain();
        out.c = dev.read(cBase, std::uint64_t(n) * m);
        return out;
    }

    /**
     * ConflictGraph over the touch masks of the workload's real
     * drains: the VPC stream of one tiled matmul of its shape,
     * replayed (replayTiled) and checked against runTiledMatmul.
     * Reads 0 on a workload that runs no tiled matmul.
     */
    void
    conflictGraph()
    {
        ScopedSpan s(tr_, "ladder.conflict_graph");
        double rate = 0.0, parallelism = 0.0, exact = 0.0;
        if (shape_.tiledN) {
            const std::uint32_t n = shape_.tiledN, k = shape_.tiledK,
                                m = shape_.tiledM;
            const std::vector<std::uint8_t> a =
                randomBytes(rng_, std::size_t(n) * k);
            const std::vector<std::uint8_t> b =
                randomBytes(rng_, std::size_t(k) * m);
            const TiledDrains replay = replayTiled(a, b);
            TiledMatmulStats st;
            TiledMatmulConfig cfg;
            cfg.jobs = 1;
            StreamPimSystem dev(params_);
            const std::vector<std::uint8_t> c =
                runTiledMatmul(dev, a, b, n, k, m, cfg, &st);
            check(replay.c == hostMatmulReference(a, b, n, k, m));
            // The replay stands for the runner's stream while both
            // agree on every count and on the product.
            exact = replay.c == c && replay.vpcs == st.vpcs &&
                    replay.pimVpcs == st.pimVpcs &&
                    replay.drains.size() == st.rounds;

            std::vector<std::vector<std::uint64_t>> masks;
            std::uint64_t tasks = 0, critical = 0;
            for (const std::vector<Vpc> &d : replay.drains) {
                masks.emplace_back();
                for (const Vpc &v : d)
                    masks.back().push_back(touchMask(v));
                // Longest dependency chain: the graph's stream order
                // is a topological order.
                const ConflictGraph g(masks.back());
                std::vector<std::uint64_t> depth(g.size(), 1);
                for (std::size_t i = 0; i < g.size(); ++i)
                    for (std::uint32_t j : g.successors(i))
                        depth[j] = std::max(depth[j], depth[i] + 1);
                tasks += g.size();
                critical += *std::max_element(depth.begin(), depth.end());
            }
            parallelism = double(tasks) / double(critical);
            std::size_t next = 0;
            RowTime t = timeRow(budget_, [&] {
                const std::vector<std::uint64_t> &mk =
                    masks[next++ % masks.size()];
                const ConflictGraph g(mk);
                return g.size();
            });
            rate = t.rate();
        }
        out_.set("runtime.conflict_graph_tasks_per_s", rate, "1/s");
        out_.set("runtime.conflict_graph_parallelism", parallelism,
                 "ratio");
        out_.set("runtime.conflict_graph_replay_exact", exact, "flag");
    }

    void
    subarray(bool faulty)
    {
        ScopedSpan s(tr_, faulty ? "ladder.subarray_faulty"
                                 : "ladder.subarray");
        FunctionalSubarray sub(params_, params_.matsPerSubarray,
                               params_.saveTracksPerMat,
                               params_.domainsPerTrack());
        FaultInjector inj(ladderFaults(seed_));
        const std::uint64_t mat = params_.matBytes;
        sub.hostWrite(0, a_);
        sub.hostWrite(mat, b_);
        if (faulty)
            sub.setFaultInjector(&inj);
        SubarrayVpcResult res;
        bool ok = true;
        RowTime t = timeRow(budget_, [&] {
            sub.executeVpcInto(VpcKind::Mul, 0, mat, 2 * mat, k_, res);
            // Only a Failed VPC may carry a wrong value.
            ok = ok && (res.values[0] == hostDot(a_, b_) ||
                        res.fault.status == FaultStatus::Failed);
            return 1;
        });
        check(ok);
        out_.set(faulty ? "mem.subarray_vpcs_per_s_faulty"
                        : "mem.subarray_vpcs_per_s",
                 t.rate(), "1/s");
    }

    void
    bus(bool faulty)
    {
        ScopedSpan s(tr_, faulty ? "ladder.bus_faulty" : "ladder.bus");
        // The subarray's bus: 8 lanes, one word per element.
        RmBus rmBus(8, params_.busLengthDomains / params_.busSegmentSize);
        FaultInjector inj(ladderFaults(seed_));
        const std::vector<std::uint64_t> words(a_.begin(), a_.end());
        std::vector<std::uint64_t> arrived;
        bool ok = true;
        RowTime t = timeRow(budget_, [&] {
            Cycle cycles = 0;
            if (faulty) {
                inj.beginVpc();
                rmBus.transferAllInto(words, arrived, cycles, &inj,
                                      params_.busSegmentSize);
                const FaultStatus st = inj.endVpc().status;
                ok = ok && (arrived == words || st == FaultStatus::Failed);
            } else {
                rmBus.transferAllInto(words, arrived, cycles);
                ok = ok && arrived == words;
            }
            return words.size();
        });
        check(ok);
        out_.set(faulty ? "bus.words_per_s_faulty" : "bus.words_per_s",
                 t.rate(), "1/s");
    }

    void
    mat(bool faulty)
    {
        ScopedSpan s(tr_, faulty ? "ladder.mat_faulty" : "ladder.mat");
        Mat m(params_.saveTracksPerMat, params_.domainsPerTrack(),
              params_.domainsPerPort, true, params_.spareTracksPerMat);
        FaultInjector inj(ladderFaults(seed_));
        if (faulty)
            m.setFaultInjector(&inj);
        const std::uint64_t slots = m.capacityBytes() / k_;
        std::uint64_t next = 0;
        auto scoped = [&](auto &&op) {
            if (faulty)
                inj.beginVpc();
            op();
            if (faulty)
                inj.endVpc();
        };
        RowTime dep = timeRow(budget_, [&] {
            scoped([&] { m.shiftInFromBus((next++ % slots) * k_, a_); });
            return k_;
        });
        std::vector<std::uint8_t> out(k_);
        bool ok = true;
        next = 0;
        RowTime col = timeRow(budget_, [&] {
            scoped([&] {
                m.copyOutViaTransferTracksInto((next++ % slots) * k_,
                                               out);
            });
            // Under faults a slot a Failed deposit wrote may differ,
            // so only the fault-free row is held to exactness.
            ok = ok && (faulty || out == a_);
            return k_;
        });
        check(ok);
        const char *sfx = faulty ? "_faulty" : "";
        out_.set(std::string("mem.mat_deposit_bytes_per_s") + sfx,
                 dep.rate(), "B/s");
        out_.set(std::string("mem.mat_collect_bytes_per_s") + sfx,
                 col.rate(), "B/s");
    }

    void
    processor()
    {
        ScopedSpan s(tr_, "ladder.processor");
        EnergyMeter meter;
        RmProcessor proc(params_, meter);
        ProcessorResult res;
        std::uint64_t calls = 0;
        bool ok = true;
        RowTime t = timeRow(budget_, [&] {
            proc.dotProductInto(a_, b_, res);
            ok = ok && res.values[0] == hostDot(a_, b_);
            calls++;
            return k_;
        });
        check(ok);
        const LogicCounters &c = proc.counters();
        out_.set("processor.macs_per_s", t.rate(), "1/s");
        out_.set("processor.gate_ops", double(c.gateOps) / double(calls),
                 "count");
        out_.set("processor.shift_steps",
                 double(c.shiftSteps) / double(calls), "count");
    }

    void
    bitvec()
    {
        ScopedSpan s(tr_, "ladder.bitvec");
        // One operand's bit-planes: 8 bits per element.
        const std::size_t bits = std::size_t(k_) * 8;
        BitVec a(bits), b(bits), x(bits), sum(bits);
        for (std::size_t w = 0; w < a.wordCount(); ++w) {
            a.setWord(w, rng_.next());
            b.setWord(w, rng_.next());
        }
        RowTime t = timeRow(budget_, [&] {
            for (int r = 0; r < 16; ++r) {
                x = a;
                x ^= b;
                x &= a;
                x |= b;
                BitVec::addPacked(sum, x, b);
            }
            return 16 * 5 * a.wordCount();
        });
        // sum = ((a ^ b) & a) | b, plus b, as one wide integer.
        bool ok = true;
        unsigned carry = 0;
        for (std::size_t w = 0; w < a.wordCount(); ++w) {
            const std::uint64_t xw =
                ((a.word(w) ^ b.word(w)) & a.word(w)) | b.word(w);
            const std::uint64_t lo = xw + b.word(w);
            const std::uint64_t want = lo + carry;
            carry = unsigned(lo < xw) + unsigned(want < lo);
            ok = ok && sum.word(w) == want;
        }
        check(ok);
        out_.set("common.bitvec_words_per_s", t.rate(), "1/s");
    }

    RmParams params_;
    LadderShape shape_;
    unsigned threads_;
    double budget_;
    std::uint64_t seed_;
    Rng rng_;
    Metrics &out_;
    Tracer &tr_;
    std::uint32_t k_;
    std::vector<std::uint8_t> a_, b_;
};

} // namespace

LadderChecks
runLadder(const LadderShape &shape, unsigned threads, double rowSeconds,
          std::uint64_t seed, Metrics &out, Tracer &tr)
{
    Ladder ladder(shape, threads, rowSeconds, seed, out, tr);
    ladder.run();
    return ladder.checks;
}

} // namespace spimbench
