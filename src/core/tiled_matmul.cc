#include "core/tiled_matmul.hh"

#include <algorithm>
#include <tuple>

#include "common/log.hh"
#include "runtime/tiler.hh"

namespace streampim
{

std::vector<std::uint8_t>
hostMatmulReference(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b, std::uint32_t n,
                    std::uint32_t k, std::uint32_t m)
{
    SPIM_ASSERT(a.size() == std::uint64_t(n) * k,
                "A shape mismatch: ", a.size(), " vs ", n, "x", k);
    SPIM_ASSERT(b.size() == std::uint64_t(k) * m,
                "B shape mismatch: ", b.size(), " vs ", k, "x", m);
    std::vector<std::uint8_t> c(std::uint64_t(n) * m);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < m; ++j) {
            std::uint32_t acc = 0;
            for (std::uint32_t kk = 0; kk < k; ++kk)
                acc += std::uint32_t(a[std::uint64_t(i) * k + kk]) *
                       b[std::uint64_t(kk) * m + j];
            c[std::uint64_t(i) * m + j] = std::uint8_t(acc);
        }
    }
    return c;
}

std::vector<std::uint8_t>
runTiledMatmul(StreamPimSystem &device,
               std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b, std::uint32_t n,
               std::uint32_t k, std::uint32_t m,
               const TiledMatmulConfig &config,
               TiledMatmulStats *stats)
{
    SPIM_ASSERT(n > 0 && k > 0 && m > 0,
                "degenerate matmul shape ", n, "x", k, "x", m);
    SPIM_ASSERT(a.size() == std::uint64_t(n) * k,
                "A shape mismatch: ", a.size(), " vs ", n, "x", k);
    SPIM_ASSERT(b.size() == std::uint64_t(k) * m,
                "B shape mismatch: ", b.size(), " vs ", k, "x", m);

    const RmParams &rm = device.params();
    const unsigned total = rm.totalSubarrays();
    SPIM_ASSERT(total >= 2,
                "tiled matmul needs a compute and a backing "
                "subarray; geometry has ",
                total);
    const std::uint64_t sub_bytes = rm.bytesPerSubarray();

    // Subarray roles: last = backing store, second-to-last = tile
    // staging (sharing the backing subarray in 2-subarray
    // geometries), the rest compute.
    const unsigned backing_sub = total - 1;
    const unsigned staging_sub = total >= 3 ? total - 2 : backing_sub;
    const unsigned compute_subs =
        staging_sub == backing_sub ? total - 1 : total - 2;

    // Tile grid: a square edge sized so one tile's full working set
    // (A tile + B tile + 4-byte partial dots + accumulator) fits a
    // compute subarray with headroom — footprint 8 bytes/element.
    MatmulTiling t;
    t.n = n;
    t.k = k;
    t.m = m;
    const std::uint32_t edge = Tiler::tileEdgeForBudget(sub_bytes, 8);
    t.tileRows = std::min(
        n, config.tileRows != 0 ? config.tileRows : edge);
    t.tileK = std::min(k, config.tileK != 0 ? config.tileK : edge);
    t.tileCols = std::min(
        m, config.tileCols != 0 ? config.tileCols : edge);
    t.iTiles = (n + t.tileRows - 1) / t.tileRows;
    t.kTiles = (k + t.tileK - 1) / t.tileK;
    t.jTiles = (m + t.tileCols - 1) / t.tileCols;

    // Per-compute-subarray layout for one tile task. The trailing 64
    // bytes stay free: executeOne stages remote operands into the
    // subarray tail, and keeping clear of it preserves the shadow-
    // simulation memory-comparison convention.
    const std::uint64_t a_off = 0;
    const std::uint64_t b_off =
        std::uint64_t(t.tileRows) * t.tileK;
    const std::uint64_t partial_off =
        b_off + std::uint64_t(t.tileCols) * t.tileK;
    const std::uint64_t acc_off =
        partial_off + 4ull * t.tileRows * t.tileCols;
    const std::uint64_t compute_end =
        acc_off + std::uint64_t(t.tileRows) * t.tileCols;
    SPIM_ASSERT(compute_end + 64 <= sub_bytes,
                "tile working set (", compute_end,
                " B) does not fit a compute subarray (", sub_bytes,
                " B); shrink the tile shape");

    // Backing layout: A row-major, then B transposed (so a column's
    // K elements are contiguous for staging), then C.
    const std::uint64_t a_bytes = std::uint64_t(n) * k;
    const std::uint64_t bt_bytes = std::uint64_t(m) * k;
    const std::uint64_t c_bytes = std::uint64_t(n) * m;
    const Addr backing_base = Addr(backing_sub) * sub_bytes;
    const Addr a_base = backing_base;
    const Addr bt_base = a_base + a_bytes;
    const Addr c_base = bt_base + bt_bytes;

    // Staging: two packed tile buffers (parity-alternated when
    // double-buffered), after C when sharing the backing subarray.
    const std::uint64_t stage_bytes =
        (std::uint64_t(t.tileRows) + t.tileCols) * t.tileK;
    const Addr stage_base =
        staging_sub == backing_sub
            ? c_base + c_bytes
            : Addr(staging_sub) * sub_bytes;
    const std::uint64_t backing_used =
        a_bytes + bt_bytes + c_bytes +
        (staging_sub == backing_sub ? 2 * stage_bytes : 0);
    SPIM_ASSERT(backing_used + 64 <= sub_bytes,
                "operands (", backing_used,
                " B) do not fit the backing subarray (", sub_bytes,
                " B)");
    if (staging_sub != backing_sub)
        SPIM_ASSERT(2 * stage_bytes + 64 <= sub_bytes,
                    "staging buffers do not fit their subarray");

    // Load the operands: A as-is, B transposed.
    device.write(a_base, a);
    {
        std::vector<std::uint8_t> bt(bt_bytes);
        for (std::uint32_t kk = 0; kk < k; ++kk)
            for (std::uint32_t j = 0; j < m; ++j)
                bt[std::uint64_t(j) * k + kk] =
                    b[std::uint64_t(kk) * m + j];
        device.write(bt_base, bt);
    }

    TiledMatmulStats st;
    const bool transactional = config.recovery.enabled;
    if (transactional)
        config.recovery.validate();
    RecoveryStats &rs = st.recovery;
    BatchJournal journal;
    std::vector<bool> quarantined(compute_subs, false);
    unsigned lost_subs = 0;
    std::uint32_t cur_tile_k = t.tileK;
    std::uint64_t slices = 0; // staging-buffer parity

    // The queue is finite: flush through the parallel engine
    // whenever submission backs up and once at the end (plus after
    // every slice transaction when recovering). Conflicting VPCs
    // keep submit order across rounds, so accumulator and
    // staging-buffer reuse is safe by construction.
    bool slice_failed = false;
    std::vector<VpcExecutionRecord> records;
    auto drain = [&]() {
        device.processQueueInto(records, config.jobs);
        if (!records.empty())
            st.rounds++;
        for (const auto &rec : records) {
            st.worstFault = std::max(st.worstFault, rec.fault.status);
            if (rec.fault.status == FaultStatus::Failed)
                slice_failed = true;
        }
    };
    auto issue = [&](const Vpc &vpc) {
        if (!device.submit(vpc)) {
            drain();
            const bool ok = device.submit(vpc);
            SPIM_ASSERT(ok, "VPC rejected by a drained queue");
        }
        st.vpcs++;
        if (isPimVpc(vpc.kind))
            st.pimVpcs++;
    };

    // The VPCs of the [kpos, kpos + tk) slice of tile (i, j) on
    // compute subarray @p sub.
    auto emitSlice = [&](unsigned sub, std::uint32_t i,
                         std::uint32_t j, std::uint32_t kpos,
                         std::uint32_t tk, bool collect) {
        const Addr compute_base = Addr(sub) * sub_bytes;
        const std::uint32_t tr = t.rowsOf(i);
        const std::uint32_t tc = t.colsOf(j);
        const Addr buf =
            stage_base +
            (config.doubleBuffer ? (slices & 1) : 0) * stage_bytes;
        slices++;

        // Gather the tile slices into the staging buffer: A rows
        // first, then B columns, densely packed.
        for (std::uint32_t r = 0; r < tr; ++r)
            issue({VpcKind::Tran,
                   a_base + std::uint64_t(i * t.tileRows + r) * k +
                       kpos,
                   0, buf + std::uint64_t(r) * tk, tk});
        for (std::uint32_t c = 0; c < tc; ++c)
            issue({VpcKind::Tran,
                   bt_base + std::uint64_t(j * t.tileCols + c) * k +
                       kpos,
                   0,
                   buf + std::uint64_t(tr) * tk +
                       std::uint64_t(c) * tk,
                   tk});

        // Spread the packed tiles to the compute subarray.
        issue({VpcKind::Tran, buf, 0, compute_base + a_off, tr * tk});
        issue({VpcKind::Tran, buf + std::uint64_t(tr) * tk, 0,
               compute_base + b_off, tc * tk});

        // Partial dot products over this k-slice.
        for (std::uint32_t r = 0; r < tr; ++r)
            for (std::uint32_t c = 0; c < tc; ++c)
                issue({VpcKind::Mul,
                       compute_base + a_off + std::uint64_t(r) * tk,
                       compute_base + b_off + std::uint64_t(c) * tk,
                       compute_base + partial_off +
                           4ull * (r * tc + c),
                       tk});

        // Output-stationary accumulation of the partial low bytes;
        // the first slice initializes device-side.
        for (std::uint32_t r = 0; r < tr; ++r)
            for (std::uint32_t c = 0; c < tc; ++c) {
                const Addr partial = compute_base + partial_off +
                                     4ull * (r * tc + c);
                const Addr acc =
                    compute_base + acc_off + std::uint64_t(r) * tc + c;
                if (kpos == 0)
                    issue({VpcKind::Tran, partial, 0, acc, 1});
                else
                    issue({VpcKind::Add, acc, partial, acc, 1});
            }

        // Last slice: the C tile is final; collect it row by row to
        // the backing store.
        if (collect)
            for (std::uint32_t r = 0; r < tr; ++r)
                issue({VpcKind::Tran,
                       compute_base + acc_off + std::uint64_t(r) * tc,
                       0,
                       c_base +
                           std::uint64_t(i * t.tileRows + r) * m +
                           std::uint64_t(j) * t.tileCols,
                       tc});
    };

    // One transactional attempt at a slice; true when no VPC came
    // back Failed.
    auto attemptSlice = [&](unsigned sub, std::uint32_t i,
                            std::uint32_t j, std::uint32_t kpos,
                            std::uint32_t tk, bool collect) {
        slice_failed = false;
        emitSlice(sub, i, j, kpos, tk, collect);
        drain();
        return !slice_failed;
    };

    // Least-worn live compute subarray other than @p avoid, or
    // compute_subs when none survive — the same total order as
    // RecoveryManager::pickTarget, so evacuation targets are
    // deterministic.
    auto pickHealthier = [&](unsigned avoid) {
        const std::vector<SubarrayWear> wear = device.wearSummaries();
        auto key = [&](unsigned s) {
            const SubarrayWear &w = wear[s];
            return std::make_tuple(w.exhaustedMats, w.sparesUsed,
                                   w.maxTrackWear, w.deposits, s);
        };
        unsigned best = compute_subs;
        for (unsigned s = 0; s < compute_subs; ++s) {
            if (s == avoid || quarantined[s])
                continue;
            if (best == compute_subs || key(s) < key(best))
                best = s;
        }
        return best;
    };

    // One task per (i, j, k-slice). With recovery on (DESIGN.md
    // §10) each slice is a transaction: the only state it carries
    // forward is its C-tile accumulator (plus the C rows on the
    // collecting slice) — staging buffers, spread operand tiles and
    // partial dots are re-staged from the backing store on every
    // attempt — so journaling that state before the slice and
    // draining after it lets a Failed slice roll back bit-exact and
    // climb the ladder at slice granularity:
    //
    //   rung 1 — rollback + retry in place (retryBudget per episode);
    //   rungs 3/4 — quarantine the blamed compute subarray (it
    //       absorbs essentially every deposit of the slice),
    //       evacuate the in-flight accumulator onto the least-worn
    //       survivor, derate the k-edge for the shrunken pool, and
    //       re-run the slice there (replanBudget escalations per
    //       episode);
    //
    // after which the slice surfaces unrecoverable: rolled back to
    // its pre-slice bytes — stale, never corrupt. Deterministic at
    // any job count: drains are count-driven, quarantine/evacuation
    // decisions are pure functions of wear telemetry with a total
    // order, and journal/rollback/evacuation traffic runs
    // injection-detached.
    for (std::uint32_t i = 0; i < t.iTiles; ++i) {
        for (std::uint32_t j = 0; j < t.jTiles; ++j) {
            if (lost_subs == compute_subs) {
                // The whole compute pool is quarantined: the tile
                // never runs; its C bytes stay stale and the loss
                // is surfaced honestly.
                rs.failedVpcs++;
                rs.unrecoverable++;
                st.worstFault = FaultStatus::Failed;
                continue;
            }
            // Round-robin over the live (unquarantined) compute
            // subarrays.
            std::uint64_t nth = (std::uint64_t(i) * t.jTiles + j) %
                                (compute_subs - lost_subs);
            unsigned sub = 0;
            while (quarantined[sub] || nth-- > 0)
                ++sub;
            const std::uint32_t tr = t.rowsOf(i);
            const std::uint32_t tc = t.colsOf(j);
            std::uint32_t kpos = 0;
            unsigned escalations = 0;
            bool episode = false;
            bool episode_retiled = false;
            bool episode_escalated = false;
            bool tile_lost = false;
            while (kpos < k) {
                const std::uint32_t tk =
                    std::min(cur_tile_k, k - kpos);
                const bool collect = kpos + tk == k;
                if (!episode)
                    st.tileTasks++;
                if (!transactional) {
                    emitSlice(sub, i, j, kpos, tk, collect);
                    kpos += tk;
                    continue;
                }

                // Journal the slice transaction: the live
                // accumulator (a synthetic self-TRAN's write set is
                // exactly that region), plus the C rows the
                // collecting slice overwrites.
                const Addr acc_addr = Addr(sub) * sub_bytes + acc_off;
                journal.clear();
                device.journalVpc(journal, {VpcKind::Tran, acc_addr,
                                            0, acc_addr, tr * tc});
                if (collect)
                    for (std::uint32_t r = 0; r < tr; ++r)
                        device.journalExtra(
                            journal, 0,
                            c_base +
                                std::uint64_t(i * t.tileRows + r) *
                                    m +
                                std::uint64_t(j) * t.tileCols,
                            tc);
                rs.batches++;
                rs.snapshots += journal.regionCount();
                rs.snapshotBytes += journal.snapshotBytes();

                bool ok = attemptSlice(sub, i, j, kpos, tk, collect);
                if (!ok) {
                    if (!episode) {
                        rs.failedVpcs++;
                        episode = true;
                    }
                    rs.rollbacks++;
                    rs.rollbackBytes +=
                        device.rollbackGroup(journal, 0);
                    // Rung 1: retry in place.
                    for (unsigned r = 0;
                         r < config.recovery.retryBudget && !ok;
                         ++r) {
                        rs.retries++;
                        ok = attemptSlice(sub, i, j, kpos, tk,
                                          collect);
                        if (!ok) {
                            rs.rollbacks++;
                            rs.rollbackBytes +=
                                device.rollbackGroup(journal, 0);
                        }
                    }
                }
                if (ok) {
                    if (episode) {
                        rs.recovered++;
                        if (episode_retiled)
                            rs.recoveredByRetile++;
                        else if (episode_escalated)
                            rs.recoveredByReplan++;
                        else
                            rs.recoveredByRetry++;
                        episode = false;
                        episode_retiled = false;
                        episode_escalated = false;
                        escalations = 0;
                    }
                    kpos += tk;
                    continue;
                }

                // Rungs 3/4: quarantine, evacuate, re-tile.
                if (escalations >= config.recovery.replanBudget) {
                    tile_lost = true;
                    break;
                }
                quarantined[sub] = true;
                lost_subs++;
                rs.replans++;
                const unsigned to = pickHealthier(sub);
                if (to >= compute_subs) {
                    tile_lost = true;
                    break;
                }
                // Each lost compute subarray quadruples the
                // per-element derating footprint, halving the
                // power-of-two k-edge: the survivors absorb the
                // quarantined subarray's traffic, so smaller slices
                // bound every later transaction's blast radius and
                // retry cost.
                const std::uint32_t derated = Tiler::tileEdgeForBudget(
                    sub_bytes, 8u << std::min(2 * lost_subs, 20u));
                if (derated < cur_tile_k) {
                    cur_tile_k = derated;
                    rs.retiles++;
                    episode_retiled = true;
                }
                device.controllerCopy(
                    acc_addr, Addr(to) * sub_bytes + acc_off, tr * tc);
                rs.rehomes++;
                episode_escalated = true;
                escalations++;
                sub = to;
                // Re-enter at the same kpos: the rolled-back
                // accumulated k-tiles are preserved at the new home
                // and the remaining range re-chunks at the
                // (possibly smaller) current k-edge.
            }
            if (tile_lost) {
                // Every failed attempt already rolled back, so the
                // pre-slice bytes are in place — stale, never
                // corrupt.
                rs.unrecoverable++;
            }
        }
    }
    drain();
    if (transactional)
        st.finalTileK = cur_tile_k;

    std::vector<std::uint8_t> c = device.read(c_base, c_bytes);
    if (stats != nullptr)
        *stats = st;
    return c;
}

} // namespace streampim
