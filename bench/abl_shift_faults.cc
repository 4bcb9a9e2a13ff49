/**
 * @file
 * Ablation — end-to-end shift-fault injection through the
 * functional datapath (Secs. III-D and VI).
 *
 * Each cell runs a full FaultCampaign: a golden StreamPimSystem and
 * a fault-injected twin execute the same VPC program, then every
 * destination is compared bit for bit. The sweep crosses the bus
 * segment size against (p_step, guard coverage) operating points,
 * measuring how many VPCs finish Clean / Corrected / Retried /
 * Failed and verifying the recovery invariant: a VPC not marked
 * Failed is bit-exact against the golden run.
 *
 * Segmentation bounds each pulse fault to a +-1 misalignment and
 * the guard domains localize it; in-flight coverage < 1 only delays
 * detection to the next exact checkpoint, converting silent
 * corruption into visible escalation. Every cell is deterministic
 * in its config, so the table and JSON report are identical at any
 * STREAMPIM_JOBS.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/fault_campaign.hh"
#include "core/report.hh"
#include "parallel/sweep.hh"
#include "rm/fault.hh"

using namespace streampim;
using namespace streampim::bench;

namespace
{

struct OperatingPoint
{
    const char *name;
    double pStep;
    double coverage;
};

/** Rebuild the per-bank SMART telemetry from a cell's bank<N>_*
 * metrics (the cells run on pool workers, so printing happens here,
 * deterministically, from the recorded metrics — same convention as
 * abl_endurance). */
std::vector<BankHealth>
bankHealthFromMetrics(const SweepCellResult &c)
{
    std::vector<BankHealth> health;
    for (unsigned b = 0;; ++b) {
        const std::string p = "bank" + std::to_string(b) + "_";
        auto it = c.metrics.find(p + "spares_total");
        if (it == c.metrics.end())
            break;
        BankHealth h;
        h.bank = b;
        h.sparesTotal = unsigned(it->second);
        h.sparesUsed =
            h.sparesTotal -
            unsigned(c.metrics.at(p + "remaining_spares"));
        h.maxWear = std::uint64_t(c.metrics.at(p + "max_wear"));
        h.deposits = std::uint64_t(c.metrics.at(p + "deposits"));
        h.trackRemaps =
            std::uint64_t(c.metrics.at(p + "track_remaps"));
        h.redeposits =
            std::uint64_t(c.metrics.at(p + "redeposits"));
        h.writeFailures =
            std::uint64_t(c.metrics.at(p + "write_failures"));
        health.push_back(h);
    }
    return health;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Ablation: end-to-end shift-fault campaigns "
                "(golden vs injected datapath)\n\n");

    const std::vector<unsigned> segments = {64, 128, 256};
    const std::vector<OperatingPoint> points = {
        {"p1e-4/cov.999", 1e-4, 0.999},
        {"p1e-3/cov.999", 1e-3, 0.999},
        {"p1e-3/cov.90", 1e-3, 0.90},
        {"p1e-2/cov.90", 1e-2, 0.90},
    };
    const unsigned vpcs = 16;

    SweepRunner sweep("abl_shift_faults", argc, argv);
    for (unsigned seg : segments)
        for (const auto &pt : points) {
            FaultCampaignConfig cfg;
            cfg.busSegmentSize = seg;
            cfg.pStep = pt.pStep;
            cfg.guardCoverage = pt.coverage;
            cfg.vpcs = vpcs;
            // Per-cell seed derived from the cell coordinates, so
            // streams are decorrelated and independent of execution
            // order.
            cfg.seed = 0x5eedULL ^ (seg * 0x9e3779b9ULL) ^
                       std::uint64_t(pt.pStep * 1e7) ^
                       std::uint64_t(pt.coverage * 1e3);
            sweep.add(std::to_string(seg), pt.name, [cfg] {
                auto res =
                    runShardedFaultCampaign({.base = cfg}).perDevice[0];
                SweepCellResult cell;
                cell.value =
                    100.0 * double(res.failed) / double(res.vpcs());
                cell.metrics["clean"] = res.clean;
                cell.metrics["corrected"] = res.corrected;
                cell.metrics["retried"] = res.retried;
                cell.metrics["failed"] = res.failed;
                cell.metrics["mismatched_recovered"] =
                    res.mismatchedRecovered;
                cell.metrics["failed_but_intact"] =
                    res.failedButIntact;
                cell.metrics["faults_injected"] =
                    double(res.stats.faultsInjected);
                cell.metrics["correction_shifts"] =
                    double(res.stats.correctionShifts);
                cell.metrics["realign_retries"] =
                    double(res.stats.realignRetries);
                cell.metrics["guard_checks"] =
                    double(res.stats.guardChecks);
                cell.metrics["pulses"] = double(res.stats.pulses);
                // SMART-style per-bank health telemetry, for parity
                // with abl_endurance (shift campaigns still deposit
                // and wear tracks on every write).
                for (const BankHealth &h : res.health) {
                    const std::string p =
                        "bank" + std::to_string(h.bank) + "_";
                    cell.metrics[p + "remaining_spares"] =
                        double(h.remainingSpares());
                    cell.metrics[p + "spares_total"] =
                        double(h.sparesTotal);
                    cell.metrics[p + "max_wear"] =
                        double(h.maxWear);
                    cell.metrics[p + "deposits"] =
                        double(h.deposits);
                    cell.metrics[p + "track_remaps"] =
                        double(h.trackRemaps);
                    cell.metrics[p + "redeposits"] =
                        double(h.redeposits);
                    cell.metrics[p + "write_failures"] =
                        double(h.writeFailures);
                }
                // Reserved perf metric: bus segment pulses are the
                // functional unit of work this campaign executes.
                cell.metrics["functional_ops"] =
                    double(res.stats.pulses);
                cell.metrics["observed_pulse_fault_rate"] =
                    res.stats.pulses
                        ? double(res.stats.faultsInjected) /
                              double(res.stats.pulses)
                        : 0.0;
                return cell;
            });
        }
    sweep.run();

    bool invariant_ok = true;
    for (const auto &pt : points) {
        std::printf("operating point %s:\n", pt.name);
        Table t({"segment", "clean", "corrected", "retried",
                 "failed", "faults", "corr. shifts",
                 "observed P(pulse fault)", "model P"});
        ShiftFaultModel model(pt.pStep);
        for (unsigned seg : segments) {
            const auto &c =
                sweep.cell(std::to_string(seg), pt.name);
            if (c.metrics.at("mismatched_recovered") != 0.0)
                invariant_ok = false;
            t.addRow({std::to_string(seg),
                      fmt(c.metrics.at("clean"), 0),
                      fmt(c.metrics.at("corrected"), 0),
                      fmt(c.metrics.at("retried"), 0),
                      fmt(c.metrics.at("failed"), 0),
                      fmt(c.metrics.at("faults_injected"), 0),
                      fmt(c.metrics.at("correction_shifts"), 0),
                      fmtSci(c.metrics.at(
                          "observed_pulse_fault_rate")),
                      fmtSci(model.pulseFaultProbability(seg))});
        }
        t.print();
        // SMART host queries: what the device reports per bank at
        // campaign end (StreamPimSystem::bankHealth()), one summary
        // per operating point at the largest segment size.
        const auto &last = sweep.cell(
            std::to_string(segments.back()), pt.name);
        std::printf("SMART, segment %u:\n%s\n", segments.back(),
                    summarizeBankHealth(bankHealthFromMetrics(last))
                        .c_str());
        std::printf("\n");
    }

    std::printf("%s: every VPC not marked Failed was bit-exact "
                "against its golden run.\n",
                invariant_ok ? "invariant held"
                             : "INVARIANT VIOLATED");
    std::printf("Escalation replaces silent corruption: lower "
                "coverage and higher p_step raise the\nRetried and "
                "Failed counts, never the number of undetected "
                "mismatches.\n");

    // Opt-in (STREAMPIM_PERF_REF=1): serial reference timing +
    // byte-identity re-check of every cell, recorded in the report's
    // perf section as the engine-speedup trajectory.
    sweep.measureSerialReference();
    printPerf("bus pulses", sweep.functionalOps(),
              sweep.wallSeconds());
    sweep.note("vpcs_per_cell", vpcs);
    sweep.note("cell_unit", "failed_vpc_pct");
    sweep.note("invariant_held", invariant_ok ? 1.0 : 0.0);
    sweep.writeReport();
    return invariant_ok ? 0 : 1;
}
