#include "workloads.hh"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <thread>

#include "common/rng.hh"
#include "core/executor.hh"
#include "core/fault_campaign.hh"
#include "core/sharded_system.hh"
#include "core/stream_pim.hh"
#include "core/tiled_matmul.hh"
#include "parallel/thread_pool.hh"
#include "runtime/planner.hh"
#include "workloads/polybench.hh"

using namespace streampim;

namespace spimbench
{

namespace
{

/** splitmix64: decorrelates the derived seeds of one bench seed. */
std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(std::span<const std::uint8_t> bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ULL;
    return h;
}

/** Appends "key=value " pairs; the digest of one iteration. */
class Digest
{
  public:
    void
    add(const char *key, std::uint64_t v)
    {
        text_ += key;
        text_ += '=';
        text_ += std::to_string(v);
        text_ += ' ';
    }

    /** Doubles go in as their exact bit pattern. */
    void
    addExact(const char *key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%a", v);
        text_ += key;
        text_ += '=';
        text_ += buf;
        text_ += ' ';
    }

    std::string text_;
};

/** Self time of span @p name over the whole run. */
Tracer::SelfTime
selfTime(const Tracer &tr, const char *name)
{
    const auto self = tr.selfTimes();
    auto it = self.find(name);
    return it == self.end() ? Tracer::SelfTime{} : it->second;
}

/** Per-layer rows every workload reports; each sets what it has. */
void
zeroWorkloadRows(Metrics &out)
{
    for (const char *n :
         {"core.vpcs", "core.pim_vpcs", "core.tile_tasks", "core.drains"})
        out.set(n, 0, "count");
    out.set("core.vpcs_per_drain", 0, "count");
    out.set("core.fleet_utilization", 0, "ratio");
    out.set("core.fleet_device_s_max", 0, "s");
    out.set("core.fleet_merge_s", 0, "s");
    for (const char *n :
         {"rm.shift_faults", "rm.corrections", "rm.redeposits",
          "rm.remaps", "runtime.snapshots", "runtime.rollbacks",
          "runtime.migrations", "runtime.quarantines"})
        out.set(n, 0, "count");
    out.set("runtime.useful_vpc_frac", 0, "ratio");
    out.set("runtime.plan_vpcs_per_s", 0, "1/s");
    out.set("core.executor_vpcs_per_s", 0, "1/s");
    out.set("core.executor_batches_per_s", 0, "1/s");
    for (const char *n :
         {"sim.makespan_s", "sim.read_s", "sim.write_s", "sim.shift_s",
          "sim.process_s", "sim.overlapped_s",
          "sim.exclusive_transfer_s", "sim.exclusive_process_s",
          "sim.idle_s", "sim.max_subarray_busy_s",
          "sim.bank_bus_busy_s", "sim.host_link_busy_s"})
        out.set(n, 0, "sim_s");
    out.set("sim.energy_j", 0, "J");
    out.set("sim.lost_vpc_frac", 0, "ratio");
}

/** The spans whose self time the traced run reports. */
const struct
{
    const char *span;
    const char *metric;
} kSpans[] = {
    {"StreamPimSystem::StreamPimSystem",
     "span.StreamPimSystem.ctor.self_s"},
    {"ShardedSystem::ShardedSystem", "span.ShardedSystem.ctor.self_s"},
    {"hostMatmulReference", "span.hostMatmulReference.self_s"},
    {"runTiledMatmul", "span.runTiledMatmul.self_s"},
    {"runShardedMatmul", "span.runShardedMatmul.self_s"},
    {"runEnduranceCampaign", "span.runEnduranceCampaign.self_s"},
    {"makePolybench", "span.makePolybench.self_s"},
    {"Planner::plan", "span.Planner.plan.self_s"},
    {"Executor::run", "span.Executor.run.self_s"},
};

/** Mean self time per call of each span (0 when never called). */
void
spanRows(Metrics &out, const Tracer &tr)
{
    for (const auto &s : kSpans) {
        const Tracer::SelfTime t = selfTime(tr, s.span);
        out.set(s.metric, t.calls ? t.seconds / t.calls : 0.0, "s");
    }
}

void
tiledRows(Metrics &out, const std::vector<TiledMatmulStats> &per)
{
    std::uint64_t vpcs = 0, pim = 0, tasks = 0, drains = 0;
    for (const TiledMatmulStats &s : per) {
        vpcs += s.vpcs;
        pim += s.pimVpcs;
        tasks += s.tileTasks;
        drains += s.rounds;
    }
    out.set("core.vpcs", double(vpcs), "count");
    out.set("core.pim_vpcs", double(pim), "count");
    out.set("core.tile_tasks", double(tasks), "count");
    out.set("core.drains", double(drains), "count");
    out.set("core.vpcs_per_drain",
            drains ? double(vpcs) / double(drains) : 0.0, "count");
}

void
digestTiled(Digest &d, const TiledMatmulStats &s)
{
    d.add("vpcs", s.vpcs);
    d.add("pim_vpcs", s.pimVpcs);
    d.add("tile_tasks", s.tileTasks);
    d.add("drains", s.rounds);
    d.add("worst_fault", unsigned(s.worstFault));
    d.add("final_tile_k", s.finalTileK);
}

// ---------------------------------------------------------------
// matmul_device: one device, parallel drain engine.

class MatmulDevice : public Workload
{
  public:
    MatmulDevice(std::uint64_t seed, bool tiny, unsigned threads)
        : seed_(seed), threads_(threads), n_(tiny ? 24 : 96),
          k_(tiny ? 16 : 64), m_(tiny ? 12 : 48)
    {}

    const char *name() const override { return "matmul_device"; }
    unsigned threads() const override { return threads_; }

    void
    setup(Tracer &tr) override
    {
        {
            ScopedSpan s(tr, "StreamPimSystem::StreamPimSystem");
            device_ = std::make_unique<StreamPimSystem>(
                smallFunctionalParams());
        }
        Rng rng(mixSeed(seed_));
        a_ = randomBytes(rng, std::size_t(n_) * k_);
        b_ = randomBytes(rng, std::size_t(k_) * m_);
        ScopedSpan s(tr, "hostMatmulReference");
        ref_ = hostMatmulReference(a_, b_, n_, k_, m_);
    }

    IterationOutcome
    iterate(Tracer &tr) override
    {
        TiledMatmulConfig cfg;
        cfg.jobs = threads_;
        std::vector<std::uint8_t> c;
        {
            ScopedSpan s(tr, "runTiledMatmul");
            c = runTiledMatmul(*device_, a_, b_, n_, k_, m_, cfg,
                               &stats_);
        }
        checksum_ = fnv1a(c);
        IterationOutcome o;
        o.vpcs = stats_.vpcs;
        o.macs = std::uint64_t(n_) * k_ * m_;
        o.checks = 1;
        o.failedChecks = c == ref_ ? 0 : 1;
        return o;
    }

    std::string
    simDigest() const override
    {
        Digest d;
        digestTiled(d, stats_);
        d.add("c_fnv", checksum_);
        return d.text_;
    }

    void
    layerMetrics(Metrics &out, const Tracer &tr,
                 unsigned) const override
    {
        zeroWorkloadRows(out);
        tiledRows(out, {stats_});
        spanRows(out, tr);
    }

    LadderShape
    ladderShape() const override
    {
        LadderShape s;
        s.vectorLen = k_;
        s.vpcsPerDrain = std::uint32_t(std::min<std::uint64_t>(
            1024, stats_.rounds ? stats_.vpcs / stats_.rounds : 1));
        s.portBytes = a_.size() + b_.size();
        s.tiledN = n_;
        s.tiledK = k_;
        s.tiledM = m_;
        return s;
    }

  private:
    std::uint64_t seed_;
    unsigned threads_;
    std::uint32_t n_, k_, m_;
    std::unique_ptr<StreamPimSystem> device_;
    std::vector<std::uint8_t> a_, b_, ref_;
    TiledMatmulStats stats_;
    std::uint64_t checksum_ = 0;
};

// ---------------------------------------------------------------
// matmul_fleet: four devices, device fan-out, inline drains.

class MatmulFleet : public Workload
{
  public:
    MatmulFleet(std::uint64_t seed, bool tiny, unsigned threads)
        : seed_(seed), threads_(threads), n_(tiny ? 48 : 384),
          k_(tiny ? 16 : 64), m_(tiny ? 12 : 48)
    {}

    const char *name() const override { return "matmul_fleet"; }
    unsigned threads() const override { return threads_; }

    void
    setup(Tracer &tr) override
    {
        {
            ScopedSpan s(tr, "ShardedSystem::ShardedSystem");
            fleet_ = std::make_unique<ShardedSystem>(
                smallFunctionalParams(), kDevices);
        }
        Rng rng(mixSeed(seed_));
        a_ = randomBytes(rng, std::size_t(n_) * k_);
        b_ = randomBytes(rng, std::size_t(k_) * m_);
        ScopedSpan s(tr, "hostMatmulReference");
        ref_ = hostMatmulReference(a_, b_, n_, k_, m_);
    }

    IterationOutcome
    iterate(Tracer &tr) override
    {
        // The library's own budget split of min(nproc, 4) threads.
        const ThreadPool::JobSplit split =
            ThreadPool::splitJobs(kDevices, threads_);
        ShardedMatmulConfig cfg;
        cfg.deviceJobs = split.outer;
        cfg.tiled.jobs = split.inner;
        std::vector<std::uint8_t> c;
        {
            ScopedSpan s(tr, "runShardedMatmul");
            c = runShardedMatmul(*fleet_, a_, b_, n_, k_, m_, cfg,
                                 &stats_);
        }
        checksum_ = fnv1a(c);
        utilization_.push_back(stats_.utilization());
        deviceMax_.push_back(*std::max_element(
            stats_.deviceSeconds.begin(), stats_.deviceSeconds.end()));
        merge_.push_back(stats_.mergeSeconds);
        IterationOutcome o;
        o.vpcs = stats_.vpcs;
        o.macs = std::uint64_t(n_) * k_ * m_;
        o.checks = 1;
        o.failedChecks = c == ref_ ? 0 : 1;
        return o;
    }

    std::string
    simDigest() const override
    {
        Digest d;
        d.add("vpcs", stats_.vpcs);
        d.add("tile_tasks", stats_.tileTasks);
        d.add("active_devices", stats_.activeDevices);
        d.add("merged_bytes", stats_.mergedBytes);
        for (const TiledMatmulStats &s : stats_.perDevice)
            digestTiled(d, s);
        d.add("c_fnv", checksum_);
        return d.text_;
    }

    void
    layerMetrics(Metrics &out, const Tracer &tr,
                 unsigned) const override
    {
        zeroWorkloadRows(out);
        tiledRows(out, stats_.perDevice);
        out.set("core.fleet_utilization", median(utilization_),
                "ratio");
        out.set("core.fleet_device_s_max", median(deviceMax_), "s");
        out.set("core.fleet_merge_s", median(merge_), "s");
        spanRows(out, tr);
    }

    LadderShape
    ladderShape() const override
    {
        std::uint64_t vpcs = 0, drains = 0;
        for (const TiledMatmulStats &s : stats_.perDevice) {
            vpcs += s.vpcs;
            drains += s.rounds;
        }
        LadderShape s;
        s.vectorLen = k_;
        s.vpcsPerDrain = std::uint32_t(
            std::min<std::uint64_t>(1024, drains ? vpcs / drains : 1));
        s.portBytes = a_.size() / kDevices + b_.size();
        // Each device tiles one row block of A, ceil(n / devices)
        // rows (ShardPlanner::partitionRows).
        s.tiledN = (n_ + kDevices - 1) / kDevices;
        s.tiledK = k_;
        s.tiledM = m_;
        return s;
    }

  private:
    static constexpr unsigned kDevices = 4;
    std::uint64_t seed_;
    unsigned threads_;
    std::uint32_t n_, k_, m_;
    std::unique_ptr<ShardedSystem> fleet_;
    std::vector<std::uint8_t> a_, b_, ref_;
    ShardedMatmulStats stats_;
    std::uint64_t checksum_ = 0;
    std::vector<double> utilization_, deviceMax_, merge_;
};

// ---------------------------------------------------------------
// fault_campaign: the fallible per-bit oracle path under shift and
// write faults, with the health policy and recovery ladder on.

class FaultCampaign : public Workload
{
  public:
    FaultCampaign(std::uint64_t seed, bool tiny)
        : seed_(seed), rounds_(tiny ? 4 : 48), vpcs_(tiny ? 16 : 128)
    {}

    const char *name() const override { return "fault_campaign"; }
    unsigned threads() const override { return 1; }

    void
    setup(Tracer &) override
    {
        EnduranceCampaignConfig cfg;
        cfg.base.pStep = 1e-4;
        cfg.base.pWrite0 = 1e-4;
        // Mid-to-late life: at eta 500 the device dies within three
        // rounds and the run would mostly time ladder thrash.
        cfg.base.writeEndurance = 2000.0;
        cfg.base.weibullShape = 6.0;
        cfg.base.spareTracks = 4;
        cfg.base.vpcs = vpcs_;
        cfg.base.engineJobs = 1;
        cfg.base.seed = mixSeed(seed_);
        cfg.rounds = rounds_;
        cfg.adaptive.enabled = true;
        cfg.adaptive.migrationSpareThreshold = 0;
        cfg.adaptive.migrationWearThreshold =
            std::uint64_t(cfg.base.writeEndurance * 1.5);
        cfg.recovery.enabled = true;
        cfg_ = cfg;
    }

    IterationOutcome
    iterate(Tracer &tr) override
    {
        {
            ScopedSpan s(tr, "runEnduranceCampaign");
            res_ = runEnduranceCampaign(cfg_);
        }
        IterationOutcome o;
        o.vpcs = programVpcs();
        o.checks = 1;
        o.failedChecks = res_.invariantHolds() ? 0 : 1;
        return o;
    }

    std::string
    simDigest() const override
    {
        const EnduranceCampaignResult &r = res_;
        Digest d;
        d.add("clean", r.clean);
        d.add("corrected", r.corrected);
        d.add("retried", r.retried);
        d.add("failed", r.failed);
        d.add("mismatched", r.mismatchedRecovered);
        d.add("failed_intact", r.failedButIntact);
        d.add("first_failed", std::uint64_t(r.firstFailedVpc));
        d.add("first_lost", std::uint64_t(r.firstUnrecoverableVpc));
        d.add("first_lost_deposits", r.firstUnrecoverableDeposits);
        d.add("recovered", r.recovered);
        d.add("unrecoverable", r.unrecoverable);
        d.add("migrations", r.migrations);
        d.add("quarantined", r.quarantinedSubarrays);
        d.add("migration_deposits", r.migrationDeposits);
        d.add("recovery_deposits", r.recoveryDeposits);
        const FaultStats &s = r.stats;
        d.add("pulses", s.pulses);
        d.add("faults", s.faultsInjected);
        d.add("guard_checks", s.guardChecks);
        d.add("correction_shifts", s.correctionShifts);
        d.add("realign_retries", s.realignRetries);
        d.add("deposit_pulses", s.depositPulses);
        d.add("write_faults", s.writeFaultsInjected);
        d.add("redeposits", s.redeposits);
        d.add("remaps", s.trackRemaps);
        d.add("write_failures", s.writeFailures);
        const RecoveryStats &q = r.recoveryStats;
        d.add("snapshots", q.snapshots);
        d.add("rollbacks", q.rollbacks);
        d.add("retries", q.retries);
        d.add("rehomes", q.rehomes);
        d.add("replans", q.replans);
        for (const EnduranceRound &round : r.perRound) {
            d.add("r_failed", round.failed);
            d.add("r_deposits", round.depositPulses);
        }
        return d.text_;
    }

    void
    modelMetrics(Metrics &out) const override
    {
        out.set("sim_lost_vpc_frac",
                double(res_.unrecoverable) / double(programVpcs()),
                "ratio");
    }

    void
    layerMetrics(Metrics &out, const Tracer &tr,
                 unsigned) const override
    {
        const EnduranceCampaignResult &r = res_;
        const RecoveryStats &q = r.recoveryStats;
        zeroWorkloadRows(out);
        out.set("core.vpcs", double(programVpcs()), "count");
        out.set("rm.shift_faults", double(r.stats.faultsInjected),
                "count");
        out.set("rm.corrections", double(r.stats.correctionShifts),
                "count");
        out.set("rm.redeposits", double(r.stats.redeposits), "count");
        out.set("rm.remaps", double(r.stats.trackRemaps), "count");
        out.set("runtime.snapshots", double(q.snapshots), "count");
        out.set("runtime.rollbacks", double(q.rollbacks), "count");
        out.set("runtime.migrations", double(r.migrations), "count");
        out.set("runtime.quarantines", double(r.quarantinedSubarrays),
                "count");
        // Every ladder rung re-executes the VPC once (retry, re-home
        // and re-plan, the last counted under rehomes); a recovered
        // episode ends on its one successful re-execution.
        const double reexec = double(q.retries + q.rehomes);
        const double executions = double(programVpcs()) + reexec;
        const double failedExec =
            double(r.failed) + reexec - double(q.recovered);
        out.set("runtime.useful_vpc_frac",
                (executions - failedExec) / executions, "ratio");
        out.set("sim.lost_vpc_frac",
                double(r.unrecoverable) / double(programVpcs()),
                "ratio");
        spanRows(out, tr);
    }

    LadderShape
    ladderShape() const override
    {
        LadderShape s;
        s.vectorLen = cfg_.base.vectorLen;
        s.vpcsPerDrain = vpcs_;
        s.portBytes = std::uint64_t(vpcs_) * cfg_.base.vectorLen * 2;
        return s;
    }

  private:
    std::uint64_t programVpcs() const
    {
        return std::uint64_t(rounds_) * vpcs_;
    }

    std::uint64_t seed_;
    unsigned rounds_, vpcs_;
    EnduranceCampaignConfig cfg_;
    EnduranceCampaignResult res_;
};

// ---------------------------------------------------------------
// timed_polybench: planner + timed executor only.

class TimedPolybench : public Workload
{
  public:
    TimedPolybench(std::uint64_t seed, bool tiny)
        : seed_(seed), dim_(tiny ? 64 : 2000)
    {}

    const char *name() const override { return "timed_polybench"; }
    unsigned threads() const override { return 1; }

    void
    setup(Tracer &tr) override
    {
        // The timed model is data-independent: the seed only fixes
        // the order the kernels run in, which must not matter. The
        // graphs are built in one fixed order, so set-up does the
        // same work for every seed.
        order_.resize(kKernels.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        Rng rng(mixSeed(seed_));
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng.below(i)]);
        graphs_.clear();
        {
            ScopedSpan s(tr, "makePolybench");
            for (PolybenchKernel k : kKernels)
                graphs_.push_back(makePolybench(k, dim_));
        }
        const SystemConfig cfg = SystemConfig::paperDefault();
        planner_ = std::make_unique<Planner>(cfg);
        executor_ = std::make_unique<Executor>(cfg);
        reports_.assign(kKernels.size(), ExecutionReport{});
    }

    IterationOutcome
    iterate(Tracer &tr) override
    {
        IterationOutcome o;
        plannedVpcs_ = 0;
        for (std::size_t slot : order_) {
            VpcSchedule sched;
            {
                ScopedSpan s(tr, "Planner::plan");
                sched = planner_->plan(graphs_[slot]);
            }
            const PlanStats plan = planner_->stats();
            ExecutionReport rep;
            {
                ScopedSpan s(tr, "Executor::run");
                rep = executor_->run(sched);
            }
            // The executor must replay exactly what was planned.
            o.checks++;
            if (rep.pimVpcs != plan.pimVpcs ||
                rep.moveVpcs != plan.moveVpcs ||
                rep.batches != plan.batches || rep.makespan == 0)
                o.failedChecks++;
            o.vpcs += rep.pimVpcs + rep.moveVpcs;
            plannedVpcs_ += plan.pimVpcs + plan.moveVpcs;
            reports_[slot] = rep;
        }
        return o;
    }

    std::string
    simDigest() const override
    {
        // Canonical kernel order, so every seed digests alike.
        Digest d;
        for (std::size_t i = 0; i < kKernels.size(); ++i) {
            const ExecutionReport &r = reports_[i];
            d.add(polybenchName(kKernels[i]), 0);
            d.add("makespan", r.makespan);
            d.addExact("energy_pj", r.energy.totalPj());
            d.add("pim_vpcs", r.pimVpcs);
            d.add("move_vpcs", r.moveVpcs);
            d.add("batches", r.batches);
            const TimeBreakdown &b = r.breakdown;
            for (Tick t : {b.readTicks, b.writeTicks, b.shiftTicks,
                           b.processTicks, b.migrationTicks,
                           b.recoveryTicks, b.exclusiveTransfer,
                           b.exclusiveProcess, b.overlapped, b.idle,
                           r.maxSubarrayBusy, r.maxBankBusBusy,
                           r.deviceBusBusy, r.hostLinkBusy})
                d.add("t", t);
        }
        return d.text_;
    }

    void
    modelMetrics(Metrics &out) const override
    {
        double s = 0.0, j = 0.0;
        for (const ExecutionReport &r : reports_) {
            s += r.seconds();
            j += r.joules();
        }
        out.set("sim_makespan_s", s, "sim_s");
        out.set("sim_energy_j", j, "J");
    }

    void
    layerMetrics(Metrics &out, const Tracer &tr,
                 unsigned traced) const override
    {
        zeroWorkloadRows(out);
        std::uint64_t vpcs = 0, pim = 0, batches = 0;
        TimeBreakdown sum;
        Tick makespan = 0, sub = 0, bank = 0, link = 0;
        double joules = 0.0;
        for (const ExecutionReport &r : reports_) {
            vpcs += r.pimVpcs + r.moveVpcs;
            pim += r.pimVpcs;
            batches += r.batches;
            makespan += r.makespan;
            joules += r.joules();
            const TimeBreakdown &b = r.breakdown;
            sum.readTicks += b.readTicks;
            sum.writeTicks += b.writeTicks;
            sum.shiftTicks += b.shiftTicks;
            sum.processTicks += b.processTicks;
            sum.overlapped += b.overlapped;
            sum.exclusiveTransfer += b.exclusiveTransfer;
            sum.exclusiveProcess += b.exclusiveProcess;
            sum.idle += b.idle;
            sub += r.maxSubarrayBusy;
            bank += r.maxBankBusBusy;
            link += r.hostLinkBusy;
        }
        out.set("core.vpcs", double(vpcs), "count");
        out.set("core.pim_vpcs", double(pim), "count");
        // Every plan/run span lies in a traced iteration.
        const double plan_s =
            selfTime(tr, "Planner::plan").seconds / std::max(1u, traced);
        const double exec_s =
            selfTime(tr, "Executor::run").seconds / std::max(1u, traced);
        out.set("runtime.plan_vpcs_per_s",
                plan_s > 0 ? double(plannedVpcs_) / plan_s : 0.0,
                "1/s");
        out.set("core.executor_vpcs_per_s",
                exec_s > 0 ? double(vpcs) / exec_s : 0.0, "1/s");
        out.set("core.executor_batches_per_s",
                exec_s > 0 ? double(batches) / exec_s : 0.0, "1/s");
        auto sim = [&](const char *n, Tick t) {
            out.set(n, ticksToSeconds(t), "sim_s");
        };
        sim("sim.makespan_s", makespan);
        sim("sim.read_s", sum.readTicks);
        sim("sim.write_s", sum.writeTicks);
        sim("sim.shift_s", sum.shiftTicks);
        sim("sim.process_s", sum.processTicks);
        sim("sim.overlapped_s", sum.overlapped);
        sim("sim.exclusive_transfer_s", sum.exclusiveTransfer);
        sim("sim.exclusive_process_s", sum.exclusiveProcess);
        sim("sim.idle_s", sum.idle);
        sim("sim.max_subarray_busy_s", sub);
        sim("sim.bank_bus_busy_s", bank);
        sim("sim.host_link_busy_s", link);
        out.set("sim.energy_j", joules, "J");
        spanRows(out, tr);
    }

    LadderShape
    ladderShape() const override
    {
        // The functional ladder has no dim-2000 device; 512 is the
        // longest operand whose 8-row PrIM tile still fits one mat.
        LadderShape s;
        s.vectorLen = std::min<std::uint32_t>(dim_, 512);
        s.vpcsPerDrain = 1024;
        s.portBytes = std::uint64_t(s.vectorLen) * 32;
        return s;
    }

  private:
    static inline const std::vector<PolybenchKernel> kKernels = {
        PolybenchKernel::Gemm, PolybenchKernel::Atax,
        PolybenchKernel::Bicg, PolybenchKernel::Gesummv,
        PolybenchKernel::Mvt};

    std::uint64_t seed_;
    unsigned dim_;
    std::vector<TaskGraph> graphs_;  //!< in kKernels order
    std::vector<std::size_t> order_; //!< seeded run order of graphs_
    std::unique_ptr<Planner> planner_;
    std::unique_ptr<Executor> executor_;
    std::vector<ExecutionReport> reports_;
    std::uint64_t plannedVpcs_ = 0;
};

} // namespace

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = std::uint8_t(rng.below(256));
    return v;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny,
             unsigned threads)
{
    if (name == "matmul_device")
        return std::make_unique<MatmulDevice>(seed, tiny, threads);
    if (name == "matmul_fleet")
        return std::make_unique<MatmulFleet>(seed, tiny, threads);
    if (name == "fault_campaign")
        return std::make_unique<FaultCampaign>(seed, tiny);
    if (name == "timed_polybench")
        return std::make_unique<TimedPolybench>(seed, tiny);
    return nullptr;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return unsigned(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
benchThreads()
{
    return std::min(hostCpus(), 4u);
}

} // namespace spimbench
