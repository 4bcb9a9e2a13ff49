#include "core/fault_campaign.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/sharded_system.hh"
#include "core/system_config.hh"

namespace streampim
{

namespace
{

/** Read-only input bytes per subarray. */
constexpr std::uint64_t kInputBytes = 4096;
/** Start of the per-VPC destination slices. */
constexpr std::uint64_t kDstBase = kInputBytes;
/** Destination slice stride. A Failed VPC's stray writes land at
 * most maxCorrectable() + 1 domains (= that many rows of 8 bytes)
 * from its slice, so the padding between 48-element slices absorbs
 * them and Failed VPCs cannot cascade into their neighbours'
 * comparisons. */
constexpr std::uint64_t kDstStride = 64;

/**
 * The two live operand regions of the campaign program, by home
 * subarray. Region 0 carries every src1 (and most src2) plus the
 * bulk of the destination slices; region 1 carries the remote src2
 * stream and the remote store-outs. The health policy migrates
 * regions between subarrays, so addresses are always derived from
 * the current homes — homes {0, 1} reproduce the historical static
 * layout bit-for-bit.
 */
using CampaignHomes = std::array<std::uint32_t, 2>;

/** The campaign program: a deterministic Add/Smul/Mul/Tran mix
 * with sources drawn only from the read-only input regions of the
 * two home subarrays and one disjoint destination slice per VPC
 * (some remote, to exercise operand staging and store-out). */
/** One program entry (index @p i) at the current region homes. */
FaultCampaignVpc
buildEntry(const FaultCampaignConfig &cfg, std::uint64_t per_sub,
           const CampaignHomes &homes, unsigned i)
{
    const std::uint32_t n = cfg.vectorLen;
    FaultCampaignVpc entry;
    Vpc &v = entry.vpc;
    v.kind = static_cast<VpcKind>(i % 4);
    v.size = n;
    v.src1 = homes[0] * per_sub +
             (std::uint64_t(i) * 131) % (kInputBytes - n);
    const std::uint32_t operand_len =
        v.kind == VpcKind::Smul ? 1 : n;
    const std::uint64_t src2_off =
        (std::uint64_t(i) * 257 + 512) %
        (kInputBytes - operand_len);
    // Every third VPC stages its second operand from the other
    // region (remote collection through read/write commands).
    v.src2 = homes[i % 3 == 2 ? 1 : 0] * per_sub + src2_off;
    entry.resultLen = v.kind == VpcKind::Mul ? 4 : n;
    // Every fifth VPC stores out to the other region.
    v.dst = homes[i % 5 == 4 ? 1 : 0] * per_sub + kDstBase +
            std::uint64_t(i) * kDstStride;
    return entry;
}

std::vector<FaultCampaignVpc>
buildProgram(const FaultCampaignConfig &cfg, std::uint64_t per_sub,
             const CampaignHomes &homes)
{
    std::vector<FaultCampaignVpc> prog;
    prog.reserve(cfg.vpcs);
    for (unsigned i = 0; i < cfg.vpcs; ++i)
        prog.push_back(buildEntry(cfg, per_sub, homes, i));
    return prog;
}

/** Bytes of one live region: inputs + every destination slice. */
std::uint64_t
regionBytes(const FaultCampaignConfig &cfg)
{
    return kDstBase + std::uint64_t(cfg.vpcs) * kDstStride;
}

void
stageInputs(StreamPimSystem &sys, std::uint64_t per_sub,
            std::uint64_t seed, const CampaignHomes &homes)
{
    // Identical bytes in both systems; staged before injection is
    // enabled (host-side DMA runs on the controller's own ECC'd
    // path — the campaign targets the PIM datapath). Blob seeds are
    // tied to the logical region, not the physical home, so data
    // follows the region through migrations.
    for (unsigned region = 0; region < 2; ++region) {
        Rng rng(seed ^ (0xDA7AULL + region));
        std::vector<std::uint8_t> blob(kInputBytes);
        for (auto &b : blob)
            b = std::uint8_t(rng.next() & 0xFF);
        sys.write(per_sub * homes[region], blob);
    }
}

/** Device parameters of one campaign cell. */
RmParams
campaignParams(const FaultCampaignConfig &cfg)
{
    RmParams params = smallFunctionalParams();
    params.busSegmentSize = cfg.busSegmentSize;
    params.shiftFaultPStep = cfg.pStep;
    params.guardCoverage = cfg.guardCoverage;
    params.guardDomains = cfg.guardDomains;
    params.realignRetryBudget = cfg.realignRetryBudget;
    params.writeFaultP0 = cfg.pWrite0;
    params.writeEndurance = cfg.writeEndurance;
    params.weibullShape = cfg.weibullShape;
    params.redepositRetryBudget = cfg.redepositRetryBudget;
    params.spareTracksPerMat = cfg.spareTracks;
    params.validate();
    return params;
}

/** Injector knobs of one campaign cell. */
FaultConfig
campaignFaultConfig(const FaultCampaignConfig &cfg)
{
    FaultConfig fault_cfg;
    fault_cfg.pStep = cfg.pStep;
    fault_cfg.guardCoverage = cfg.guardCoverage;
    fault_cfg.guardDomains = cfg.guardDomains;
    fault_cfg.realignRetryBudget = cfg.realignRetryBudget;
    fault_cfg.seed = cfg.seed;
    fault_cfg.pWrite0 = cfg.pWrite0;
    fault_cfg.writeEndurance = cfg.writeEndurance;
    fault_cfg.weibullShape = cfg.weibullShape;
    fault_cfg.redepositRetryBudget = cfg.redepositRetryBudget;
    fault_cfg.remapAfterExhaustions = cfg.remapAfterExhaustions;
    return fault_cfg;
}

/**
 * Post-run verification readout of one golden/faulty pair: per-VPC
 * destination comparison against the golden bytes plus the status
 * tally. The caller must have disabled the faulty system's
 * injection first — host reads must not sample further faults.
 */
FaultCampaignResult
verifyCampaign(StreamPimSystem &golden, StreamPimSystem &faulty,
               std::vector<FaultCampaignVpc> program,
               const std::vector<VpcExecutionRecord> &records)
{
    SPIM_ASSERT(records.size() == program.size(),
                "campaign run lost VPCs");
    FaultCampaignResult res;
    res.stats = faulty.totalFaultStats();
    res.health = faulty.bankHealth();
    res.perVpc = std::move(program);
    for (std::size_t i = 0; i < res.perVpc.size(); ++i) {
        FaultCampaignVpc &entry = res.perVpc[i];
        entry.fault = records[i].fault;
        entry.status = entry.fault.status;
        auto g = golden.read(entry.vpc.dst, entry.resultLen);
        auto f = faulty.read(entry.vpc.dst, entry.resultLen);
        entry.bitExact = g == f;
        switch (entry.status) {
          case FaultStatus::Clean:
            res.clean++;
            break;
          case FaultStatus::Corrected:
            res.corrected++;
            break;
          case FaultStatus::Retried:
            res.retried++;
            break;
          case FaultStatus::Failed:
            res.failed++;
            break;
        }
        if (entry.status != FaultStatus::Failed && !entry.bitExact)
            res.mismatchedRecovered++;
        if (entry.status == FaultStatus::Failed && entry.bitExact)
            res.failedButIntact++;
    }
    return res;
}

} // namespace

ShardedFaultCampaignResult
runShardedFaultCampaign(const ShardedCampaignConfig &cfg)
{
    const FaultCampaignConfig &base = cfg.base;
    SPIM_ASSERT(base.vpcs >= 1 && base.vpcs <= 128,
                "campaign program size out of range");
    SPIM_ASSERT(base.vectorLen >= 1 && base.vectorLen <= 48,
                "vector length must fit a destination slice");
    SPIM_ASSERT(cfg.devices >= 1 && cfg.devices <= 64,
                "sharded campaign device count out of range");

    RmParams params = campaignParams(base);
    const std::uint64_t per_sub = params.bytesPerSubarray();
    const CampaignHomes homes = {0, 1};
    const auto program = buildProgram(base, per_sub, homes);

    // Two fleets, drained through the two-level engine. The faulty
    // fleet's enableFaultInjection derives device d's injector seeds
    // from deviceSeed(base.seed, d): device 0 keeps the master seed,
    // and every device's sample path is a pure function of
    // (base config, d) — never of the fleet size or the
    // (deviceJobs x engineJobs) schedule.
    ShardedSystem golden(params, cfg.devices);
    ShardedSystem faulty(params, cfg.devices);
    for (unsigned d = 0; d < cfg.devices; ++d) {
        stageInputs(golden.device(d), per_sub, base.seed, homes);
        stageInputs(faulty.device(d), per_sub, base.seed, homes);
        for (const auto &entry : program) {
            bool ok = golden.submit(d, entry.vpc);
            ok = faulty.submit(d, entry.vpc) && ok;
            SPIM_ASSERT(ok,
                        "campaign program overflowed the VPC queue");
        }
    }
    faulty.enableFaultInjection(campaignFaultConfig(base));

    std::vector<std::vector<VpcExecutionRecord>> golden_records;
    std::vector<std::vector<VpcExecutionRecord>> faulty_records;
    golden.processAll(golden_records, cfg.deviceJobs,
                      base.engineJobs);
    faulty.processAll(faulty_records, cfg.deviceJobs,
                      base.engineJobs);

    // Verification readout must not sample further faults.
    faulty.disableFaultInjection();

    ShardedFaultCampaignResult res;
    res.perDevice.reserve(cfg.devices);
    for (unsigned d = 0; d < cfg.devices; ++d) {
        res.perDevice.push_back(
            verifyCampaign(golden.device(d), faulty.device(d),
                           program, faulty_records[d]));
        const FaultCampaignResult &dev = res.perDevice.back();
        res.clean += dev.clean;
        res.corrected += dev.corrected;
        res.retried += dev.retried;
        res.failed += dev.failed;
        res.mismatchedRecovered += dev.mismatchedRecovered;
        res.failedButIntact += dev.failedButIntact;
    }
    res.stats = faulty.totalFaultStats();
    return res;
}

EnduranceCampaignResult
runEnduranceCampaign(const EnduranceCampaignConfig &cfg)
{
    const FaultCampaignConfig &base = cfg.base;
    SPIM_ASSERT(base.vpcs >= 1 && base.vpcs <= 128,
                "campaign program size out of range");
    SPIM_ASSERT(base.vectorLen >= 1 && base.vectorLen <= 48,
                "vector length must fit a destination slice");
    SPIM_ASSERT(cfg.rounds >= 1 && cfg.rounds <= 512,
                "endurance campaign rounds out of range");

    cfg.adaptive.validate();

    RmParams params = campaignParams(base);
    const std::uint64_t per_sub = params.bytesPerSubarray();
    CampaignHomes homes = {0, 1};
    auto program = buildProgram(base, per_sub, homes);

    StreamPimSystem golden(params);
    StreamPimSystem faulty(params);
    stageInputs(golden, per_sub, base.seed, homes);
    stageInputs(faulty, per_sub, base.seed, homes);

    faulty.enableFaultInjection(campaignFaultConfig(base));

    // The closed loop (runtime/health_policy.hh): a campaign-shaped
    // planner gives the policy the wear-ranked candidate ordering
    // (Distribute — every subarray of the small geometry is a PIM
    // subarray, so Unblock's disjoint staging set cannot exist).
    SystemConfig planner_cfg;
    planner_cfg.rm = params;
    planner_cfg.optLevel = OptLevel::Distribute;
    Planner planner(planner_cfg);
    HealthPolicy policy(cfg.adaptive, params.totalSubarrays(),
                        params.subarraysPerBank);
    policy.attachPlanner(&planner);

    // The recovery ladder (runtime/recovery.hh): per-round batch
    // journal + per-Failed-VPC escalation, serial and in submit
    // order so the campaign stays one deterministic sample path.
    RecoveryManager recovery(cfg.recovery, faulty, &policy);
    BatchJournal journal;
    std::vector<VpcRecoveryOutcome> outcomes;
    // Records vectors reused by every drain below.
    std::vector<VpcExecutionRecord> golden_records;
    std::vector<VpcExecutionRecord> faulty_records;
    /** Which region a Failed group's blame landed on (-1 unset). */
    std::vector<int> blamedRegion;

    EnduranceCampaignResult res;
    res.perRound.reserve(cfg.rounds);
    // Deposit pulses committed up to and including each inspected
    // VPC, accumulated from the per-VPC attribution records (exact,
    // unlike a round-end snapshot).
    std::uint64_t deposits_seen = 0;
    std::uint64_t migration_deposits = 0;
    std::uint64_t recovery_deposits = 0;
    std::uint64_t remaps_prev = 0;
    std::uint64_t redeposits_prev = 0;

    for (unsigned round = 0; round < cfg.rounds; ++round) {
        for (const auto &entry : program) {
            bool ok = golden.submit(entry.vpc);
            ok = faulty.submit(entry.vpc) && ok;
            SPIM_ASSERT(ok,
                        "campaign program overflowed the VPC queue");
        }
        golden.processQueueInto(golden_records, base.engineJobs);
        // With recovery on, a transactional drain: pre-batch
        // snapshots of every write region land in the journal
        // (fault-free, RNG streams untouched) before the batch
        // executes.
        faulty.processQueueInto(faulty_records, base.engineJobs,
                                cfg.recovery.enabled ? &journal
                                                     : nullptr);
        if (cfg.recovery.enabled)
            recovery.noteBatch(journal);
        SPIM_ASSERT(faulty_records.size() == program.size(),
                    "campaign run lost VPCs");

        EnduranceRound rr;
        outcomes.assign(program.size(), VpcRecoveryOutcome{});
        bool rehomed_this_round = false;

        if (cfg.recovery.enabled) {
            // The escalation ladder runs with injection still
            // attached (re-executions sample faults honestly),
            // serially, in submit order. Rollbacks and re-home
            // copies inside it always run fault-free.
            const std::uint64_t pulses_before =
                faulty.totalFaultStats().depositPulses;
            blamedRegion.assign(program.size(), -1);

            RecoveryManager::Hooks hooks;
            hooks.failingSubarray = [&](std::size_t g) {
                // Blame the worst-worn home subarray the VPC
                // touches (deposit failures concentrate where its
                // writes land). Deterministic: total (wear..., id)
                // order over at most three candidates.
                const Vpc &v = program[g].vpc;
                const auto wear = faulty.wearSummaries();
                auto key = [&](std::uint32_t s) {
                    const SubarrayWear &w = wear[s];
                    return std::make_tuple(w.exhaustedMats,
                                           w.sparesUsed,
                                           w.maxTrackWear,
                                           w.deposits, s);
                };
                std::uint32_t blamed =
                    std::uint32_t(v.src1 / per_sub);
                for (std::uint64_t addr : {v.src2, v.dst}) {
                    const auto s = std::uint32_t(addr / per_sub);
                    if (key(s) > key(blamed))
                        blamed = s;
                }
                for (unsigned r = 0; r < homes.size(); ++r)
                    if (homes[r] == blamed)
                        blamedRegion[g] = int(r);
                return blamed;
            };
            hooks.excluded = [&](std::uint32_t s) {
                // Never re-home onto a live region's current home —
                // the copy would clobber its data.
                return s == homes[0] || s == homes[1];
            };
            hooks.rehome = [&](std::size_t g, std::uint32_t to,
                               Vpc &out) {
                const int r = blamedRegion[g];
                if (r < 0)
                    return false;
                // Move the whole blamed region (inputs + every
                // destination slice) on BOTH systems through the
                // fault-free controller path. The golden copy
                // replicates the reference bytes — including this
                // round's already-computed outputs — at the new
                // home, so the pair stays comparable there.
                const std::uint64_t bytes = regionBytes(base);
                const Addr from = std::uint64_t(homes[unsigned(r)]) *
                                  per_sub;
                const Addr dest = std::uint64_t(to) * per_sub;
                golden.controllerCopy(from, dest, bytes);
                faulty.controllerCopy(from, dest, bytes);
                homes[unsigned(r)] = to;
                // Only the failed entry is rewritten for this
                // round's readout; every other entry's output
                // already sits at its old (still valid) address.
                program[g] = buildEntry(base, per_sub, homes,
                                        unsigned(g));
                out = program[g].vpc;
                // Journal the rewritten destination so a further
                // rollback of this group also restores it.
                faulty.journalExtra(journal, g, out.dst,
                                    program[g].resultLen);
                rehomed_this_round = true;
                return true;
            };

            for (std::size_t i = 0; i < faulty_records.size(); ++i) {
                if (faulty_records[i].fault.status !=
                    FaultStatus::Failed)
                    continue;
                outcomes[i] = recovery.recoverVpc(i, journal, hooks);
                if (outcomes[i].recovered()) {
                    rr.recoveredVpcs++;
                    res.recovered++;
                    switch (outcomes[i].rung) {
                      case RecoveryRung::RetryInPlace:
                        res.recoveredByRetry++;
                        break;
                      case RecoveryRung::Rehome:
                        res.recoveredByRehome++;
                        break;
                      case RecoveryRung::Replan:
                        res.recoveredByReplan++;
                        break;
                      default:
                        break;
                    }
                } else {
                    rr.unrecoverableVpcs++;
                }
            }
            rr.recoveryDeposits =
                faulty.totalFaultStats().depositPulses -
                pulses_before;
        }

        // Verification readout must not sample further faults (and
        // host reads do not wear tracks: only deposits do).
        faulty.disableFaultInjection();

        for (std::size_t i = 0; i < program.size(); ++i) {
            const VpcFaultInfo &fault = faulty_records[i].fault;
            deposits_seen += fault.depositPulses;
            auto g = golden.read(program[i].vpc.dst,
                                 program[i].resultLen);
            auto f = faulty.read(program[i].vpc.dst,
                                 program[i].resultLen);
            const bool exact = g == f;
            switch (fault.status) {
              case FaultStatus::Clean:
                res.clean++;
                break;
              case FaultStatus::Corrected:
                res.corrected++;
                break;
              case FaultStatus::Retried:
                res.retried++;
                break;
              case FaultStatus::Failed:
                res.failed++;
                rr.failed++;
                if (res.firstFailedVpc < 0) {
                    res.firstFailedVpc =
                        long(round) * long(program.size()) + long(i);
                    res.firstFailedRound = long(round);
                    res.firstFailedDeposits = deposits_seen;
                    res.firstFailedProgramDeposits =
                        deposits_seen - migration_deposits;
                }
                break;
            }
            // Post-ladder truth: a VPC is lost only when it came
            // back Failed AND the ladder could not save it. With
            // recovery disabled every Failed VPC is lost, so
            // unrecoverable/firstUnrecoverable* mirror
            // failed/firstFailed* exactly.
            const bool lost = fault.status == FaultStatus::Failed &&
                              !outcomes[i].recovered();
            if (lost) {
                res.unrecoverable++;
                if (res.firstUnrecoverableVpc < 0) {
                    res.firstUnrecoverableVpc =
                        long(round) * long(program.size()) + long(i);
                    res.firstUnrecoverableRound = long(round);
                    // Ladder pulses of the current round are
                    // accounted after the readout, so these match
                    // firstFailedDeposits' accounting exactly.
                    res.firstUnrecoverableDeposits = deposits_seen;
                    res.firstUnrecoverableProgramDeposits =
                        deposits_seen - migration_deposits -
                        recovery_deposits;
                }
            }
            if (!lost && !exact)
                res.mismatchedRecovered++;
            if (lost && exact)
                res.failedButIntact++;
        }
        deposits_seen += rr.recoveryDeposits;
        recovery_deposits += rr.recoveryDeposits;

        // Re-homes moved a whole region: rebuild the next round's
        // program from the new homes (this round's readout above
        // used the selectively-rewritten entries).
        if (rehomed_this_round)
            program = buildProgram(base, per_sub, homes);

        const FaultStats snap = faulty.totalFaultStats();
        rr.remaps = unsigned(snap.trackRemaps - remaps_prev);
        rr.redeposits = snap.redeposits - redeposits_prev;
        rr.depositPulses = snap.depositPulses;
        remaps_prev = snap.trackRemaps;
        redeposits_prev = snap.redeposits;

        // Health trajectory at round end (degradation curves).
        rr.health = faulty.bankHealth();
        for (const BankHealth &h : rr.health) {
            rr.remainingSpares += h.remainingSpares();
            rr.sparesTotal += h.sparesTotal;
            rr.maxWear = std::max(rr.maxWear, h.maxWear);
        }

        // Closed loop: snapshot -> re-plan -> quarantine -> migrate,
        // between rounds only (never before the readout above), on
        // the same deterministic sample path.
        if (round + 1 < cfg.rounds && policy.shouldEvaluate(round)) {
            const HealthDecision decision = policy.evaluate(
                rr.health, faulty.wearSummaries(), homes);
            rr.newlyQuarantined =
                unsigned(decision.newlyQuarantined.size());

            if (!decision.migrations.empty()) {
                // Migration copies run with injection resumed: the
                // wear they add is physical reality, and both
                // systems execute the same TRANs so the pair stays
                // in lockstep.
                faulty.resumeFaultInjection();
                for (const MigrationStep &m : decision.migrations) {
                    Vpc mv;
                    mv.kind = VpcKind::Tran;
                    mv.src1 = std::uint64_t(m.from) * per_sub;
                    mv.dst = std::uint64_t(m.to) * per_sub;
                    mv.size = std::uint32_t(kInputBytes);
                    bool ok = golden.submit(mv);
                    ok = faulty.submit(mv) && ok;
                    SPIM_ASSERT(
                        ok, "migration overflowed the VPC queue");
                }
                golden.processQueueInto(golden_records,
                                        base.engineJobs);
                faulty.processQueueInto(faulty_records,
                                        base.engineJobs);
                SPIM_ASSERT(faulty_records.size() ==
                                decision.migrations.size(),
                            "migration run lost VPCs");
                faulty.disableFaultInjection();

                for (std::size_t k = 0; k < faulty_records.size();
                     ++k) {
                    const MigrationStep &m = decision.migrations[k];
                    const VpcFaultInfo &fault =
                        faulty_records[k].fault;
                    deposits_seen += fault.depositPulses;
                    migration_deposits += fault.depositPulses;
                    rr.migrationDeposits += fault.depositPulses;
                    if (fault.status == FaultStatus::Failed) {
                        // The copy may be corrupt at the target:
                        // keep the region at its old home, whose
                        // read-only bytes are intact (TRAN reads do
                        // not mutate the source). Golden ran the
                        // same TRAN, so its stray copy is never
                        // read and lockstep is preserved.
                        rr.migrationFailed++;
                        res.migrationFailed++;
                        continue;
                    }
                    // Non-Failed migration: the recovery invariant
                    // extends to the migrated bytes.
                    auto g = golden.read(
                        std::uint64_t(m.to) * per_sub, kInputBytes);
                    auto f = faulty.read(
                        std::uint64_t(m.to) * per_sub, kInputBytes);
                    if (g != f)
                        res.mismatchedRecovered++;
                    homes[m.operand] = m.to;
                    rr.migrations++;
                    res.migrations++;
                    res.migrationBytes += kInputBytes;
                }
                program = buildProgram(base, per_sub, homes);
            }
        }
        res.perRound.push_back(rr);

        if (round + 1 < cfg.rounds)
            faulty.resumeFaultInjection();
    }

    res.stats = faulty.totalFaultStats();
    res.wear = faulty.wearSummaries();
    res.health = faulty.bankHealth();
    res.policyEvaluations = policy.evaluations();
    res.quarantinedSubarrays = policy.quarantinedCount();
    res.migrationDeposits = migration_deposits;
    res.finalHomes.assign(homes.begin(), homes.end());
    res.recoveryStats = recovery.stats();
    res.recoveryDeposits = recovery_deposits;
    return res;
}

} // namespace streampim
