/**
 * @file
 * spimbench: runs one benchmark workload for a fixed host-time
 * budget and prints its metrics.
 *
 *   spimbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--tiny] [--max-iters N] [--trace-out FILE]
 *             [--digest-file FILE] [--digest-dir DIR]
 *
 * Untraced (--trace 0), it times the workload's iterations and
 * prints the end-to-end metrics. Traced (--trace 1), it alternates
 * untraced and traced iterations (the difference is the tracing
 * overhead), records spans around every call into a layer, then
 * runs the layer ladder, and prints the per-layer metrics.
 *
 * The last line of stdout is "spimbench-result " followed by one
 * JSON object: correct/attempted/failed plus every metric with its
 * unit. spimbench/run.py keeps the metrics BENCHMARK.json names.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "cpu_rotator.hh"
#include "ladder.hh"
#include "metrics.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace spimbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::uint64_t maxIters = 0; //!< 0 = until the budget is spent
    std::string traceOut;
    std::string digestFile; //!< committed digests (update_digests.py)
    std::string digestDir;  //!< first-run digests of seeds not in it
};

/**
 * Version of the digest text. Bump it whenever a workload's
 * simDigest() changes what it lists, and regenerate the committed
 * digests with spimbench/update_digests.py.
 */
constexpr unsigned kDigestFormat = 1;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "spimbench: %s\nusage: spimbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--tiny] "
                 "[--max-iters N] [--trace-out FILE] "
                 "[--digest-file FILE] [--digest-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds > 0 && a.seconds <= 600))
                usage("--seconds must be in (0, 600]");
        } else if (k == "--trace") {
            a.trace = std::string(v) == "1";
            if (!a.trace && std::string(v) != "0")
                usage("--trace takes 0 or 1");
        } else if (k == "--max-iters") {
            a.maxIters = std::strtoull(v, &end, 10);
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else if (k == "--digest-file") {
            a.digestFile = v;
        } else if (k == "--digest-dir") {
            a.digestDir = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
        if (end && *end)
            usage(("bad number for " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Peak resident set of this process (VmHWM), in MiB. */
double
peakRssMib()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

constexpr bool kNdebug =
#ifdef NDEBUG
    true;
#else
    false;
#endif

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

/** The host/build stamp, as a JSON object. */
std::string
stamp(const Args &a, unsigned threads)
{
    std::ostringstream o;
    o << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"tiny\": " << (a.tiny ? "true" : "false")
      << ", \"nproc\": " << hostCpus() << ", \"threads\": " << threads
      << ", \"simd\": \"" << streampim::simd::backendName()
      << "\", \"build_type\": \"" << SPIMBENCH_BUILD_TYPE
      << "\", \"ndebug\": " << (kNdebug ? "true" : "false")
      << ", \"optimized\": " << (kOptimized ? "true" : "false")
      << ", \"compiler\": \"" << jsonEscape(compilerName()) << "\"}";
    return o.str();
}

std::string
trimRight(std::string s)
{
    while (!s.empty() && (s.back() == ' ' || s.back() == '\n'))
        s.pop_back();
    return s;
}

/**
 * The committed digest of this workload, size and seed: the line
 * "<format> <full|tiny> <seed> <digest>" of @p path with the current
 * digest format, or nothing when the file does not list it.
 */
std::optional<std::string>
committedDigest(const std::string &path, const Args &a)
{
    std::ifstream in(path);
    const std::string key = std::to_string(kDigestFormat) +
                            (a.tiny ? " tiny " : " full ") +
                            std::to_string(a.seed) + " ";
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0)
            return trimRight(line.substr(key.size()));
    return std::nullopt;
}

/**
 * Check @p digest against the committed one when @p a's seed has
 * one; otherwise against the digest the first run of the same
 * workload, size and seed stored under --digest-dir (which run.py
 * keys by a hash of the sources), storing it when none exists.
 * Returns false on a mismatch; @p against says what was compared.
 */
bool
crossRunDigestMatches(const Args &a, const std::string &digest,
                      std::string &against)
{
    const std::string mine = trimRight(digest);
    if (const auto c = committedDigest(a.digestFile, a)) {
        against = "committed " + a.digestFile;
        return *c == mine;
    }
    if (a.digestDir.empty()) {
        against = "none";
        return true;
    }
    const std::string path =
        a.digestDir + "/" + a.workload + (a.tiny ? "-tiny-" : "-") +
        std::to_string(a.seed) + "-v" + std::to_string(kDigestFormat) +
        ".digest";
    std::ifstream in(path);
    if (in) {
        std::stringstream prev;
        prev << in.rdbuf();
        against = "stored " + path;
        return prev.str() == mine;
    }
    std::ofstream(path) << mine;
    against = "none (first run on these sources; stored)";
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const unsigned threads = benchThreads();
    std::unique_ptr<Workload> w =
        makeWorkload(args.workload, args.seed, args.tiny, threads);
    if (!w)
        usage(("unknown workload " + args.workload).c_str());

    const std::string host = stamp(args, w->threads());
    std::printf("host: %s\n", host.c_str());
    if (!kOptimized || !kNdebug)
        std::printf("WARNING: non-optimised build (optimized=%d "
                    "ndebug=%d): host timings are not comparable\n",
                    int(kOptimized), int(kNdebug));

    // Spread the benchmark thread over every CPU (cpu_rotator.hh).
    // A thread inherits its creator's affinity, so only threads that
    // start no workers rotate: a single-threaded workload for its
    // whole measured run, any other only inside set-up batches.
    const bool singleThreaded = w->threads() == 1;
    std::optional<CpuRotator> runRotator;
    if (singleThreaded)
        runRotator.emplace(std::chrono::milliseconds(50));
    Tracer tr(args.trace);
    unsigned attempted = 0, failed = 0;
    auto tally = [&](unsigned checks, unsigned bad) {
        attempted += checks;
        failed += bad;
    };

    // Set-up time is the median over several batches of the mean
    // set-up in each batch. A batch repeats set-up for at least
    // 30 ms, so even a set-up of a few nanoseconds is resolved, and
    // the batches are spread over the run (on a second instance,
    // made at the first batch, so the measured one stays warm)
    // rather than taken in one burst that a shared host may happen
    // to slow down.
    std::unique_ptr<Workload> setupOnly;
    const unsigned setupBatches = args.tiny ? 2 : 11;
    std::vector<double> setup;
    auto setupBatch = [&] {
        if (!setupOnly)
            setupOnly = makeWorkload(args.workload, args.seed,
                                     args.tiny, threads);
        std::optional<CpuRotator> batchRotator;
        if (!singleThreaded)
            batchRotator.emplace(std::chrono::milliseconds(5));
        const bool on = tr.enabled();
        tr.setEnabled(args.trace);
        tr.setIteration(-1);
        const double t0 = nowSeconds();
        double dt = 0.0;
        unsigned n = 0;
        do {
            setupOnly->setup(tr);
            ++n;
            dt = nowSeconds() - t0;
        } while (dt < (args.tiny ? 0.002 : 0.03));
        setup.push_back(dt / n);
        tr.setEnabled(on);
    };

    w->setup(tr);
    // Warm-up iteration: fills caches, builds lazy thread pools, and
    // fixes the simulated statistics every later iteration repeats.
    tr.setEnabled(false);
    IterationOutcome warm = w->iterate(tr);
    tally(warm.checks, warm.failedChecks);
    const std::string digest = w->simDigest();
    // Every iteration repeats the warm-up's work, so this is the
    // program's peak; read before the set-up instance exists.
    const double peakRss = peakRssMib();

    std::vector<double> iterS, tracedS;
    const double start = nowSeconds();
    for (std::uint64_t i = 0;; ++i) {
        if (nowSeconds() - start >=
            args.seconds * double(setup.size()) / setupBatches &&
            setup.size() < setupBatches)
            setupBatch();
        // Traced runs alternate: even iterations untraced, odd ones
        // traced, so both see the same machine state.
        const bool traced = args.trace && i % 2 == 1;
        tr.setEnabled(traced);
        tr.setIteration(std::int64_t(i));
        const double t0 = nowSeconds();
        IterationOutcome o = w->iterate(tr);
        const double dt = nowSeconds() - t0;
        (traced ? tracedS : iterS).push_back(dt);
        tally(o.checks, o.failedChecks);
        tally(1, w->simDigest() == digest ? 0 : 1);
        const bool budgetSpent = nowSeconds() - start >= args.seconds;
        const bool itersDone = args.maxIters && i + 1 >= args.maxIters;
        if ((budgetSpent || itersDone) && (!args.trace || traced))
            break;
    }
    tr.setIteration(-1);
    while (setup.size() < setupBatches)
        setupBatch();
    // The ladder's drain row starts a thread pool.
    runRotator.reset();

    std::string digestAgainst;
    const bool digestOk =
        crossRunDigestMatches(args, digest, digestAgainst);
    tally(1, digestOk ? 0 : 1);

    Metrics m;
    if (!args.trace) {
        // Every iteration does the same work (the digest check holds
        // it to that), so throughput is per-iteration work over the
        // median iteration: robust to bursts from other tenants.
        const Tail t = tail(iterS);
        const double p50 = median(iterS);
        m.set("vpcs_per_s", double(warm.vpcs) / p50, "1/s");
        if (warm.macs)
            m.set("macs_per_s", double(warm.macs) / p50, "1/s");
        m.set("iter_s_p50", p50, "s");
        m.set("iter_s_tail", t.value, "s");
        m.set("iter_s_tail_percentile", t.percentile, "%");
        m.set("iter_samples", double(iterS.size()), "count");
        m.set("setup_s", median(setup), "s");
        m.set("peak_rss_mib", peakRss, "MiB");
        w->modelMetrics(m);
    } else {
        tr.setEnabled(true);
        const LadderChecks lc = runLadder(
            w->ladderShape(), threads,
            std::min(0.4, std::max(0.01, args.seconds / 50)), args.seed,
            m, tr);
        tally(lc.attempted, lc.failed);
        w->layerMetrics(m, tr, unsigned(tracedS.size()));
        const double plain = median(iterS), traced = median(tracedS);
        m.set("trace.iter_s_p50_untraced", plain, "s");
        m.set("trace.iter_s_p50_traced", traced, "s");
        m.set("trace.overhead_ratio", plain > 0 ? traced / plain : 0.0,
              "ratio");
        if (!args.traceOut.empty() &&
            !tr.writeJson(args.traceOut, host)) {
            std::fprintf(stderr, "spimbench: cannot write %s\n",
                         args.traceOut.c_str());
            return 1;
        }
    }
    m.set("fail_frac", attempted ? double(failed) / attempted : 1.0,
          "ratio");

    std::printf("digest: %s\n", digest.c_str());
    std::printf("digest-check: %s against %s\n",
                digestOk ? "match" : "MISMATCH", digestAgainst.c_str());
    for (const Metric &x : m.all())
        std::printf("metric %-34s %.9g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());

    std::printf("spimbench-result {\"correct\": %s, \"attempted\": %u, "
                "\"failed\": %u, \"metrics\": {",
                failed == 0 && attempted > 0 ? "true" : "false",
                attempted, failed);
    for (std::size_t i = 0; i < m.all().size(); ++i) {
        const Metric &x = m.all()[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", x.name.c_str(), x.value,
                    x.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
