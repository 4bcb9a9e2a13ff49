#include "runtime/planner.hh"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "common/log.hh"

namespace streampim
{

Planner::Planner(const SystemConfig &config) : cfg_(config)
{
    cfg_.validate();
    const auto &rm = cfg_.rm;

    // Compute set: one subarray for base; every PIM subarray
    // otherwise. PIM banks are banks [0, pimBanks), so the global
    // ids of PIM subarrays are contiguous from 0.
    const unsigned pim = rm.pimSubarrays();
    if (cfg_.optLevel == OptLevel::Base) {
        computeSet_ = {0};
    } else {
        computeSet_.resize(pim);
        for (unsigned i = 0; i < pim; ++i)
            computeSet_[i] = i;
    }

    // Staging set: disjoint subarrays in the memory banks under
    // unblock; deliberately overlapping the compute set otherwise
    // (that overlap is what distribute fails to avoid).
    if (cfg_.optLevel == OptLevel::Unblock) {
        unsigned staging = std::min<unsigned>(
            cfg_.stagingSubarrays,
            rm.totalSubarrays() - pim);
        SPIM_ASSERT(staging > 0,
                    "no memory-bank subarrays available for staging");
        stagingSet_.resize(staging);
        for (unsigned i = 0; i < staging; ++i)
            stagingSet_[i] = pim + i;
    } else {
        stagingSet_ = {computeSet_.front()};
    }
}

void
Planner::observeWear(const std::vector<std::uint64_t> &wear)
{
    auto wear_of = [&wear](std::uint32_t id) {
        return id < wear.size() ? wear[id] : 0;
    };
    auto rank = [&wear_of](std::vector<std::uint32_t> &set) {
        std::stable_sort(set.begin(), set.end(),
                         [&wear_of](std::uint32_t a,
                                    std::uint32_t b) {
                             return wear_of(a) < wear_of(b);
                         });
    };
    rank(computeSet_);
    if (cfg_.optLevel == OptLevel::Unblock)
        rank(stagingSet_);
    else
        // Non-unblock staging follows the compute front-runner.
        stagingSet_ = {computeSet_.front()};
}

void
Planner::applyQuarantine(const std::vector<std::uint32_t> &subarrays)
{
    auto prune = [&subarrays](std::vector<std::uint32_t> &set) {
        for (std::uint32_t q : subarrays) {
            if (set.size() <= 1)
                break; // graceful floor: never empty the set
            auto it = std::find(set.begin(), set.end(), q);
            if (it != set.end())
                set.erase(it);
        }
    };
    prune(computeSet_);
    if (cfg_.optLevel == OptLevel::Unblock)
        prune(stagingSet_);
    else
        stagingSet_ = {computeSet_.front()};
}

VpcSchedule
Planner::planMigration(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &moves,
    std::uint64_t bytes) const
{
    SPIM_ASSERT(bytes > 0, "migrating zero bytes");
    VpcSchedule sched;
    for (const auto &[from, to] : moves) {
        SPIM_ASSERT(from != to, "migration onto the source subarray");
        VpcBatch b;
        b.kind = VpcKind::Tran;
        b.subarray = from;
        b.dstSubarray = to;
        b.vpcCount = 1;
        // TRAN batch elements are bytes (Executor::runTransfer).
        b.vectorLen = std::uint32_t(bytes);
        b.migration = true;
        sched.push(b);
    }
    return sched;
}

VpcSchedule
Planner::planRecovery(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &moves,
    std::uint64_t bytes) const
{
    VpcSchedule sched = planMigration(moves, bytes);
    for (auto &b : sched.batches) {
        b.migration = false;
        b.recovery = true;
    }
    return sched;
}

std::uint32_t
Planner::rowsOnSlot(std::uint32_t rows, std::uint32_t slot) const
{
    const auto slots = std::uint32_t(computeSet_.size());
    return rows / slots + (slot < rows % slots ? 1 : 0);
}

std::uint32_t
Planner::vectorHome(MatrixId id) const
{
    return stagingSet_[id % stagingSet_.size()];
}

std::uint32_t
Planner::streamHome(std::uint32_t j) const
{
    return stagingSet_[j % stagingSet_.size()];
}

void
Planner::emitBroadcast(LowerCtx &ctx, std::uint32_t home,
                       const std::vector<std::uint32_t> &dsts,
                       std::uint32_t len, std::uint32_t dep,
                       bool &barrier,
                       std::vector<std::uint32_t> &out_idx) const
{
    // Group destinations by bank; the vector crosses the shared
    // device bus once per bank (to a relay subarray), then fans out
    // over that bank's internal bus. This keeps broadcast bandwidth
    // scaling with the bank count instead of saturating the device
    // bus (cf. the Fig. 21 discussion).
    const unsigned spb = cfg_.rm.subarraysPerBank;
    out_idx.assign(dsts.size(), kNoBatch);

    std::map<std::uint32_t, std::vector<std::size_t>> by_bank;
    for (std::size_t i = 0; i < dsts.size(); ++i)
        if (dsts[i] != kNoBatch)
            by_bank[dsts[i] / spb].push_back(i);

    for (auto &[bank, members] : by_bank) {
        // Inter-bank hop to the first member (the relay).
        std::size_t relay = members.front();
        VpcBatch hop;
        hop.kind = VpcKind::Tran;
        hop.subarray = home;
        hop.dstSubarray = dsts[relay];
        hop.vpcCount = 1;
        hop.vectorLen = len;
        hop.depA = dep;
        hop.barrier = barrier;
        barrier = false;
        std::uint32_t relay_idx = ctx.sched->push(hop);
        out_idx[relay] = relay_idx;

        // Bank-local fan-out from the relay.
        for (std::size_t m = 1; m < members.size(); ++m) {
            std::size_t i = members[m];
            VpcBatch fan;
            fan.kind = VpcKind::Tran;
            fan.subarray = dsts[relay];
            fan.dstSubarray = dsts[i];
            fan.vpcCount = 1;
            fan.vectorLen = len;
            fan.depA = relay_idx;
            out_idx[i] = ctx.sched->push(fan);
        }
    }
}

std::uint32_t
Planner::pushCollect(LowerCtx &ctx, std::uint32_t src,
                     std::uint32_t dst, std::uint32_t results,
                     std::uint32_t dep) const
{
    VpcBatch col;
    col.kind = VpcKind::Tran;
    col.subarray = src;
    col.dstSubarray = dst;
    col.vpcCount = results;
    col.vectorLen = 1;
    col.depA = dep;
    return ctx.sched->push(col);
}

std::uint32_t
Planner::emitCompute(LowerCtx &ctx, VpcKind kind,
                     std::uint32_t subarray, std::uint32_t vpc_count,
                     std::uint64_t vector_len,
                     std::uint32_t dep, std::uint32_t dep_b) const
{
    SPIM_ASSERT(isPimVpc(kind), "emitCompute on TRAN");
    SPIM_ASSERT(vpc_count > 0 && vector_len > 0,
                "degenerate compute batch");

    const std::uint64_t max_len = cfg_.maxVpcElements;
    if (vector_len <= max_len) {
        VpcBatch b;
        b.kind = kind;
        b.subarray = subarray;
        b.vpcCount = vpc_count;
        b.vectorLen = std::uint32_t(vector_len);
        b.depA = dep;
        b.depB = dep_b;
        return ctx.sched->push(b);
    }

    // Slicing (Sec. IV-C): an oversized vector is processed as
    // several slices whose partial results are recombined with
    // additions.
    const std::uint64_t slices =
        (vector_len + max_len - 1) / max_len;
    std::uint32_t last = dep;
    std::uint64_t remaining = vector_len;
    for (std::uint64_t s = 0; s < slices; ++s) {
        std::uint64_t len = std::min(remaining, max_len);
        remaining -= len;
        VpcBatch b;
        b.kind = kind;
        b.subarray = subarray;
        b.vpcCount = vpc_count;
        b.vectorLen = std::uint32_t(len);
        b.depA = last;
        b.depB = s == 0 ? dep_b : kNoBatch;
        last = ctx.sched->push(b);
        stats_.slicedVpcs += vpc_count;
    }
    // Combine the partial results.
    VpcBatch combine;
    combine.kind = VpcKind::Add;
    combine.subarray = subarray;
    combine.vpcCount = vpc_count;
    combine.vectorLen = std::uint32_t(slices - 1);
    combine.depA = last;
    return ctx.sched->push(combine);
}

void
Planner::lowerMatVec(LowerCtx &ctx, const TaskGraph &g,
                     const MatrixOp &op, bool transposed) const
{
    const MatrixDesc &a = g.matrices[op.a];
    const std::uint32_t out_rows = transposed ? a.cols : a.rows;
    const std::uint32_t k = transposed ? a.rows : a.cols;
    const std::uint32_t x_home = vectorHome(op.b);
    const std::uint32_t y_home = vectorHome(op.c);
    const auto slots = std::uint32_t(computeSet_.size());

    bool barrier = ctx.written[op.a] || ctx.written[op.b];

    // Phase 1: broadcast the operand vector to every compute slot
    // that owns output rows (hierarchical per-bank fan-out).
    std::vector<std::uint32_t> copy_dsts(slots, kNoBatch);
    for (std::uint32_t i = 0; i < slots; ++i)
        if (rowsOnSlot(out_rows, i) > 0)
            copy_dsts[i] = computeSet_[i];
    // Every bank hop of the broadcast — not only the barrier-
    // carrying first one — must wait until the producing op's final
    // collect has landed the vector at x_home.
    std::vector<std::uint32_t> copy_idx;
    emitBroadcast(ctx, x_home, copy_dsts, k, ctx.lastWriter[op.b],
                  barrier, copy_idx);

    // Phases 2-3: dot products and per-element result collection.
    // distribute pairs each compute with its collect (the naive
    // order that triggers head-of-line serialization); unblock
    // separates the phases.
    std::vector<std::uint32_t> comp_idx(slots, kNoBatch);
    auto emit_comp = [&](std::uint32_t i) {
        std::uint32_t rows = rowsOnSlot(out_rows, i);
        comp_idx[i] = emitCompute(ctx, VpcKind::Mul, computeSet_[i],
                                  rows, k, copy_idx[i]);
    };
    auto emit_collect = [&](std::uint32_t i) {
        VpcBatch t;
        t.kind = VpcKind::Tran;
        t.subarray = computeSet_[i];
        t.dstSubarray = y_home;
        t.vpcCount = rowsOnSlot(out_rows, i);
        t.vectorLen = 1;
        t.depA = comp_idx[i];
        ctx.lastWriter[op.c] = ctx.sched->push(t);
    };

    if (cfg_.optLevel == OptLevel::Unblock) {
        for (std::uint32_t i = 0; i < slots; ++i)
            if (rowsOnSlot(out_rows, i) > 0)
                emit_comp(i);
        for (std::uint32_t i = 0; i < slots; ++i)
            if (rowsOnSlot(out_rows, i) > 0)
                emit_collect(i);
    } else {
        for (std::uint32_t i = 0; i < slots; ++i) {
            if (rowsOnSlot(out_rows, i) == 0)
                continue;
            emit_comp(i);
            emit_collect(i);
        }
    }
    ctx.written[op.c] = true;
}

void
Planner::lowerMatMul(LowerCtx &ctx, const TaskGraph &g,
                     const MatrixOp &op) const
{
    const MatrixDesc &a = g.matrices[op.a];
    const MatrixDesc &b = g.matrices[op.b];
    const std::uint32_t rows_i = a.rows;
    const std::uint32_t k = a.cols;
    const std::uint32_t cols_j = b.cols;
    const auto slots = std::uint32_t(computeSet_.size());

    // When A has fewer rows than there are compute subarrays, row
    // distribution alone would strand parallelism. The layout
    // optimization replicates A's rows into `groups` column groups:
    // group g serves columns j with j % groups == g, so different
    // columns proceed concurrently on disjoint subarray sets.
    const std::uint32_t groups =
        cfg_.optLevel == OptLevel::Base
            ? 1
            : std::max<std::uint32_t>(
                  1, std::min(cols_j,
                              slots / std::max(1u, rows_i)));
    const std::uint32_t g_slots = slots / groups;
    auto group_slot = [&](std::uint32_t grp, std::uint32_t t) {
        return computeSet_[grp * g_slots + t];
    };
    auto rows_on = [&](std::uint32_t t) {
        return rows_i / g_slots + (t < rows_i % g_slots ? 1 : 0);
    };

    // A pristine rhs matrix is pre-laid column-distributed by the
    // task's layout optimization; a produced one is row-distributed
    // and each column must first be assembled on its stream home.
    const bool need_assembly = ctx.written[op.b];

    bool barrier = ctx.written[op.a] || ctx.written[op.b];

    // Replicate A's rows into groups 1..groups-1 (group 0 holds the
    // primary copy). One bulk transfer per destination subarray.
    if (groups > 1) {
        for (std::uint32_t grp = 1; grp < groups; ++grp) {
            for (std::uint32_t t = 0; t < g_slots; ++t) {
                std::uint32_t rows = rows_on(t);
                if (rows == 0)
                    continue;
                VpcBatch rep;
                rep.kind = VpcKind::Tran;
                rep.subarray = group_slot(0, t);
                rep.dstSubarray = group_slot(grp, t);
                rep.vpcCount = 1;
                rep.vectorLen = rows * k;
                rep.depA = ctx.lastWriter[op.a];
                rep.barrier = barrier;
                barrier = false;
                ctx.sched->push(rep);
            }
        }
    }

    const bool unblock = cfg_.optLevel == OptLevel::Unblock;
    const std::uint32_t c_home = vectorHome(op.c);
    std::uint32_t last_comp = kNoBatch;
    std::uint32_t last_collect = kNoBatch;

    for (std::uint32_t j = 0; j < cols_j; ++j) {
        const std::uint32_t home = streamHome(j);
        const std::uint32_t grp = j % groups;

        std::uint32_t asm_idx = kNoBatch;
        if (need_assembly) {
            // Gather column j of B (row-distributed over group 0)
            // to the stream home: one element per source row. A
            // produced B is published by its op's final collect —
            // every gather must wait for it, not just the one
            // carrying the inter-op barrier.
            for (std::uint32_t t = 0; t < g_slots; ++t) {
                std::uint32_t src_rows =
                    k / g_slots + (t < k % g_slots ? 1 : 0);
                if (src_rows == 0)
                    continue;
                VpcBatch gather;
                gather.kind = VpcKind::Tran;
                gather.subarray = group_slot(0, t);
                gather.dstSubarray = home;
                gather.vpcCount = src_rows;
                gather.vectorLen = 1;
                gather.depA = ctx.lastWriter[op.b];
                gather.barrier = barrier;
                barrier = false;
                asm_idx = ctx.sched->push(gather);
            }
        }

        // Broadcast column j to every slot of its group owning rows
        // (hierarchical: one device-bus hop per bank, then bank-
        // local fan-out). A pre-laid column still depends on the
        // batch that published B.
        std::vector<std::uint32_t> bcast_dsts(g_slots, kNoBatch);
        for (std::uint32_t t = 0; t < g_slots; ++t)
            if (rows_on(t) > 0)
                bcast_dsts[t] = group_slot(grp, t);
        std::vector<std::uint32_t> bcast_idx;
        emitBroadcast(ctx, home, bcast_dsts, k,
                      need_assembly ? asm_idx
                                    : ctx.lastWriter[op.b],
                      barrier, bcast_idx);

        // Dot products, then collection of the column's results to
        // C's home. Under unblock the collects go to the disjoint
        // staging set in a separate phase; otherwise each subarray's
        // results are naively collected right after its compute —
        // exactly the compute/collect pairing that head-of-line
        // blocking serializes per bank.
        std::vector<std::uint32_t> comp_idx(g_slots, kNoBatch);
        for (std::uint32_t t = 0; t < g_slots; ++t) {
            std::uint32_t rows = rows_on(t);
            if (rows == 0)
                continue;
            last_comp = emitCompute(ctx, VpcKind::Mul,
                                    group_slot(grp, t), rows, k,
                                    bcast_idx[t]);
            comp_idx[t] = last_comp;
            if (!unblock)
                last_collect = pushCollect(ctx, group_slot(grp, t),
                                           c_home, rows, last_comp);
        }
        if (unblock) {
            for (std::uint32_t t = 0; t < g_slots; ++t)
                if (comp_idx[t] != kNoBatch)
                    last_collect = pushCollect(
                        ctx, group_slot(grp, t), c_home, rows_on(t),
                        comp_idx[t]);
        }
    }
    ctx.written[op.c] = true;
    // C is published only once the final collect has landed it at
    // c_home; recording the last *compute* here would let a
    // downstream consumer of C start before the collects finish.
    ctx.lastWriter[op.c] =
        last_collect != kNoBatch ? last_collect : last_comp;
}

void
Planner::lowerTiledMatMul(LowerCtx &ctx, const TaskGraph &g,
                          const MatrixOp &op) const
{
    const MatrixDesc &a = g.matrices[op.a];
    const MatrixDesc &b = g.matrices[op.b];

    TilerConfig tcfg = tilerCfg_;
    if (op.tileHint != 0)
        tcfg.tileRows = tcfg.tileCols = tcfg.tileK = op.tileHint;
    const Tiler tiler(cfg_, tcfg);
    const MatmulTiling t = tiler.tile(a.rows, a.cols, b.cols);
    stats_.tiledMatmuls++;
    stats_.tileTasks += t.tasks();

    // One tile task fans out over a group of S compute slots; the
    // compute set is carved into slots/S groups used round-robin by
    // C tile, so different C tiles run on disjoint subarrays.
    const auto slots = std::uint32_t(computeSet_.size());
    const std::uint32_t per_tile = std::min(
        {tcfg.slotsPerTile, slots,
         std::max<std::uint32_t>(1, t.tileRows)});
    const std::uint32_t groups = std::max(1u, slots / per_tile);
    auto slot_of = [&](std::uint32_t grp, std::uint32_t x) {
        return computeSet_[grp * per_tile + x];
    };
    auto rows_on = [&](std::uint32_t rows, std::uint32_t x) {
        return rows / per_tile + (x < rows % per_tile ? 1 : 0);
    };

    // Tiles stream in from backing-store subarrays deep in the
    // memory banks (past the staging set) when the geometry has
    // them, rotating so consecutive tasks read disjoint sources.
    std::vector<std::uint32_t> backing;
    {
        const unsigned pim = cfg_.rm.pimSubarrays();
        const unsigned staged =
            cfg_.optLevel == OptLevel::Unblock
                ? unsigned(stagingSet_.size())
                : 0;
        for (unsigned s = pim + staged;
             s < cfg_.rm.totalSubarrays() && backing.size() < 64;
             ++s)
            backing.push_back(s);
        if (backing.empty())
            backing = stagingSet_;
    }
    auto stage_sub = [&](std::uint64_t task) {
        return stagingSet_[task % stagingSet_.size()];
    };
    auto backing_sub = [&](std::uint64_t task) {
        return backing[task % backing.size()];
    };

    const std::uint32_t c_home = vectorHome(op.c);
    bool barrier = ctx.written[op.a] || ctx.written[op.b];

    // Stage the operand tiles of one task: two bulk TRANs from the
    // backing store to the task's staging subarray.
    auto emit_stage = [&](std::uint64_t task, std::uint32_t rows,
                          std::uint32_t depth, std::uint32_t cols,
                          std::uint32_t dep_a, std::uint32_t dep_b)
        -> std::pair<std::uint32_t, std::uint32_t> {
        VpcBatch sa;
        sa.kind = VpcKind::Tran;
        sa.subarray = backing_sub(task);
        sa.dstSubarray = stage_sub(task);
        sa.vpcCount = 1;
        sa.vectorLen = rows * depth;
        sa.depA = dep_a;
        sa.barrier = barrier;
        barrier = false;
        VpcBatch sb = sa;
        sb.vectorLen = depth * cols;
        sb.depA = dep_b;
        sb.barrier = false;
        return {ctx.sched->push(sa), ctx.sched->push(sb)};
    };

    const std::uint64_t total = t.tasks();
    std::uint32_t staged_a = kNoBatch, staged_b = kNoBatch;
    std::uint32_t dist_last_prev = kNoBatch; // task t-1's last spread
    std::uint32_t last_collect = kNoBatch;
    // Last batch writing each slot's C-tile accumulator, per group.
    std::vector<std::vector<std::uint32_t>> acc(
        groups, std::vector<std::uint32_t>(per_tile, kNoBatch));
    std::vector<std::uint32_t> dist_a(per_tile), dist_b(per_tile);

    std::uint64_t task = 0;
    for (std::uint32_t i = 0; i < t.iTiles; ++i) {
        for (std::uint32_t j = 0; j < t.jTiles; ++j) {
            const std::uint32_t grp =
                (std::uint64_t(i) * t.jTiles + j) % groups;
            const std::uint32_t tr = t.rowsOf(i);
            const std::uint32_t tc = t.colsOf(j);
            for (std::uint32_t kk = 0; kk < t.kTiles;
                 ++kk, ++task) {
                const std::uint32_t tk = t.kOf(kk);

                // Task 0 stages synchronously; later tasks were
                // staged ahead by their predecessor (double buffer)
                // or after it completed (single buffer).
                if (task == 0)
                    std::tie(staged_a, staged_b) = emit_stage(
                        0, tr, tk, tc, ctx.lastWriter[op.a],
                        ctx.lastWriter[op.b]);

                // Spread the staged tiles over the group: A rows
                // partitioned across slots, the B tile replicated
                // to each (every slot computes all tc columns for
                // its rows).
                std::uint32_t dist_last = kNoBatch;
                for (std::uint32_t x = 0; x < per_tile; ++x) {
                    const std::uint32_t rows = rows_on(tr, x);
                    if (rows == 0)
                        continue;
                    VpcBatch da;
                    da.kind = VpcKind::Tran;
                    da.subarray = stage_sub(task);
                    da.dstSubarray = slot_of(grp, x);
                    da.vpcCount = 1;
                    da.vectorLen = rows * tk;
                    da.depA = staged_a;
                    dist_a[x] = ctx.sched->push(da);
                    VpcBatch db = da;
                    db.vectorLen = tk * tc;
                    db.depA = staged_b;
                    dist_b[x] = ctx.sched->push(db);
                    dist_last = dist_b[x];
                }

                // Double buffer: stage task+1 now, gated only on
                // the buffer's previous reader (task-1's spread) —
                // this is the transfer that overlaps this task's
                // compute. Emitted before the computes so its
                // dependencies always point backward.
                const bool has_next = task + 1 < total;
                auto next_shape = [&]() {
                    std::uint64_t nt = task + 1;
                    std::uint32_t nkk = kk + 1, nj = j, ni = i;
                    if (nkk == t.kTiles) {
                        nkk = 0;
                        if (++nj == t.jTiles) {
                            nj = 0;
                            ++ni;
                        }
                    }
                    return std::tuple<std::uint64_t, std::uint32_t,
                                      std::uint32_t, std::uint32_t>(
                        nt, t.rowsOf(ni), t.kOf(nkk), t.colsOf(nj));
                };
                if (tcfg.doubleBuffer && has_next) {
                    auto [nt, nr, nk2, nc] = next_shape();
                    std::tie(staged_a, staged_b) = emit_stage(
                        nt, nr, nk2, nc, dist_last_prev,
                        dist_last_prev);
                }

                // Dot products, then output-stationary
                // accumulation of the partial C tile (kk > 0). The
                // first k-tile's dots initialize the accumulator.
                std::uint32_t task_last = dist_last;
                for (std::uint32_t x = 0; x < per_tile; ++x) {
                    const std::uint32_t rows = rows_on(tr, x);
                    if (rows == 0)
                        continue;
                    std::uint32_t mul = emitCompute(
                        ctx, VpcKind::Mul, slot_of(grp, x),
                        rows * tc, tk, dist_a[x], dist_b[x]);
                    if (kk == 0) {
                        acc[grp][x] = mul;
                    } else {
                        acc[grp][x] = emitCompute(
                            ctx, VpcKind::Add, slot_of(grp, x),
                            rows, tc, mul, acc[grp][x]);
                    }
                    task_last = acc[grp][x];
                }

                // Final k-tile: collect the finished C tile rows to
                // the result home.
                if (kk + 1 == t.kTiles) {
                    for (std::uint32_t x = 0; x < per_tile; ++x) {
                        const std::uint32_t rows = rows_on(tr, x);
                        if (rows == 0)
                            continue;
                        VpcBatch col;
                        col.kind = VpcKind::Tran;
                        col.subarray = slot_of(grp, x);
                        col.dstSubarray = c_home;
                        col.vpcCount = rows;
                        col.vectorLen = tc;
                        col.depA = acc[grp][x];
                        last_collect = ctx.sched->push(col);
                        task_last = last_collect;
                    }
                }

                // Single buffer: the next task's staging must wait
                // until this whole round retires.
                if (!tcfg.doubleBuffer && has_next) {
                    auto [nt, nr, nk2, nc] = next_shape();
                    std::tie(staged_a, staged_b) = emit_stage(
                        nt, nr, nk2, nc, task_last, task_last);
                }

                dist_last_prev = dist_last;
            }
        }
    }

    ctx.written[op.c] = true;
    ctx.lastWriter[op.c] = last_collect;
}

void
Planner::lowerElementWise(LowerCtx &ctx, const TaskGraph &g,
                          const MatrixOp &op) const
{
    const MatrixDesc &a = g.matrices[op.a];
    const bool is_add = op.kind == MatOpKind::MatAdd;
    const VpcKind kind = is_add ? VpcKind::Add : VpcKind::Smul;
    const auto slots = std::uint32_t(computeSet_.size());

    bool barrier = ctx.written[op.a] ||
                   (is_add && ctx.written[op.b]);

    if (a.cols == 1) {
        // Vector-shaped element-wise op: the operands live whole on
        // their home subarrays; distribute chunks, compute, collect.
        // Chunks are kept at a useful granularity — spreading a
        // 2000-element add over 512 subarrays would pay one bus
        // fill per 4 elements, so the task caps the fan-out (part
        // of the Fig. 16 layout optimization).
        const std::uint32_t n = a.rows;
        const std::uint32_t min_chunk = 256;
        const std::uint32_t used = std::max<std::uint32_t>(
            1, std::min<std::uint32_t>(
                   slots, (n + min_chunk - 1) / min_chunk));
        auto chunk_on = [&](std::uint32_t i) {
            return i < used ? n / used + (i < n % used ? 1 : 0) : 0;
        };
        for (std::uint32_t i = 0; i < slots; ++i) {
            std::uint32_t chunk = chunk_on(i);
            if (chunk == 0)
                continue;
            // Copy chunk of a (and b) from their vector homes; the
            // compute must wait for *both* copies, not just the
            // last one pushed.
            VpcBatch ca;
            ca.kind = VpcKind::Tran;
            ca.subarray = vectorHome(op.a);
            ca.dstSubarray = computeSet_[i];
            ca.vpcCount = 1;
            ca.vectorLen = chunk;
            ca.depA = ctx.lastWriter[op.a];
            ca.barrier = barrier;
            barrier = false;
            std::uint32_t dep_a = ctx.sched->push(ca);
            std::uint32_t dep_b = kNoBatch;
            if (is_add) {
                VpcBatch cb = ca;
                cb.subarray = vectorHome(op.b);
                cb.depA = ctx.lastWriter[op.b];
                cb.barrier = false;
                dep_b = ctx.sched->push(cb);
            }
            std::uint32_t comp = emitCompute(
                ctx, kind, computeSet_[i], 1, chunk, dep_a, dep_b);
            VpcBatch out;
            out.kind = VpcKind::Tran;
            out.subarray = computeSet_[i];
            out.dstSubarray = vectorHome(op.c);
            out.vpcCount = 1;
            out.vectorLen = chunk;
            out.depA = comp;
            ctx.lastWriter[op.c] = ctx.sched->push(out);
        }
    } else {
        // Matrix-shaped: rows are resident (row-distributed); one
        // batch per slot, results in place.
        for (std::uint32_t i = 0; i < slots; ++i) {
            std::uint32_t rows = rowsOnSlot(a.rows, i);
            if (rows == 0)
                continue;
            // Row-resident operands: no copies needed; the batch
            // that published each operand (and, on the first slot,
            // the inter-op barrier) still orders us after the
            // producing op.
            std::uint32_t dep = ctx.lastWriter[op.a];
            std::uint32_t dep_b =
                is_add ? ctx.lastWriter[op.b] : kNoBatch;
            if (barrier) {
                VpcBatch fence;
                fence.kind = VpcKind::Tran;
                fence.subarray = computeSet_[i];
                fence.dstSubarray = computeSet_[i];
                fence.vpcCount = 1;
                fence.vectorLen = 1;
                fence.barrier = true;
                barrier = false;
                dep = ctx.sched->push(fence);
            }
            ctx.lastWriter[op.c] = emitCompute(
                ctx, kind, computeSet_[i], rows, a.cols, dep,
                dep_b);
        }
    }
    ctx.written[op.c] = true;
}

VpcSchedule
Planner::plan(const TaskGraph &graph) const
{
    VpcSchedule sched;
    LowerCtx ctx;
    ctx.sched = &sched;
    ctx.lastWriter.assign(graph.matrices.size(), kNoBatch);
    ctx.written.assign(graph.matrices.size(), false);
    stats_ = PlanStats{};

    const Tiler tiler(cfg_, tilerCfg_);
    for (const MatrixOp &op : graph.ops) {
        switch (op.kind) {
          case MatOpKind::MatMul:
            if (tiler.needsTiling(graph, op))
                lowerTiledMatMul(ctx, graph, op);
            else
                lowerMatMul(ctx, graph, op);
            break;
          case MatOpKind::MatVec:
            lowerMatVec(ctx, graph, op, false);
            break;
          case MatOpKind::MatVecT:
            lowerMatVec(ctx, graph, op, true);
            break;
          case MatOpKind::MatAdd:
          case MatOpKind::Scale:
            lowerElementWise(ctx, graph, op);
            break;
          case MatOpKind::Nonlinear:
            // Host-side; contributes no VPCs (the DNN harness adds
            // the host time separately), so it publishes no batch.
            // Any device-side writer of c stays recorded.
            ctx.written[op.c] = true;
            break;
        }
        sched.opResultBatch.push_back(
            op.kind == MatOpKind::Nonlinear ? kNoBatch
                                            : ctx.lastWriter[op.c]);
    }

    stats_.pimVpcs = sched.pimVpcs();
    stats_.moveVpcs = sched.moveVpcs();
    stats_.batches = sched.batches.size();
    return sched;
}

VpcSchedule
Planner::planTiledMatmul(std::uint32_t n, std::uint32_t k,
                         std::uint32_t m) const
{
    TaskGraph g;
    g.name = "tiled_matmul";
    MatrixId a = g.addMatrix("A", n, k);
    MatrixId b = g.addMatrix("B", k, m);
    MatrixId c = g.addMatrix("C", n, m);
    g.addTiledMatmul(a, b, c);
    return plan(g);
}

} // namespace streampim
