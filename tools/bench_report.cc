/**
 * @file
 * bench_report — the quantitative regression gates.
 *
 * Default leg (sampled simulation): runs the fig10 SpMV reference
 * configuration (default machine, VIA CSB kernel, one large uniform
 * matrix) under all three execution modes, wall-clocks each, and
 * compares sampled-mode extrapolated cycles against the detailed
 * makespan. Also measures the checkpoint layer: image size,
 * capture/restore cost, and a SweepExecutor fan-out where every
 * point restores from one shared warm image instead of re-running
 * the kernel, verifying each restored machine reports the identical
 * cycle count. Results go to BENCH_sampling.json and the exit code
 * enforces:
 *
 *   - sampled-mode end-to-end cycle error <= 5% of detailed
 *   - functional-mode wall-clock speedup >= 10x over detailed
 *
 * simspeed=1 leg (detailed-mode simulator speed): wall-clocks the
 * fig10 SpMV and fig11 SpMA reference workloads in detailed mode
 * (timed region = machine construction + kernel, best-of-repeats),
 * fingerprints the statistics (cycles, instructions, and an FNV-64
 * hash of the full JSON stats dump), and gates against the
 * committed BENCH_simspeed.json:
 *
 *   - the stats fingerprint must match the baseline exactly (a
 *     speedup that changes simulated behavior is a bug, not a win)
 *   - host ns per simulated cycle must not regress >10%
 *
 * serve=1 leg (serving subsystem, docs/serving.md): runs the
 * reference serving configuration — a two-class SpMV mix through
 * the batch executor and the queueing loop, open and closed loop,
 * base and VIA — and fingerprints the simulated results (request
 * counts, makespan, latency percentiles, energy per request).
 * Everything in the fingerprint is simulated-deterministic, so the
 * gate against the committed BENCH_serving.json is exact:
 *
 *   - the serving fingerprint must match the baseline bit-for-bit
 *   - VIA must not lose to the baseline at the p99 latency tail
 *
 * A gated leg reads the committed baseline and writes its report
 * to a file of its own (BENCH_simspeed_ci.json,
 * BENCH_serving_ci.json); naming one file for both is a usage error
 * (exit 2), since the next run would gate against this run's
 * output. To re-baseline, copy the report over the baseline. When
 * the baseline file is missing a leg bootstraps: it writes the
 * report and passes. CI runs all legs on every push (see
 * .github/workflows/ci.yml).
 *
 * Usage:
 *   bench_report [key=value ...]      (help=1 for the key table)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "kernels/parallel.hh"
#include "kernels/reference.hh"
#include "kernels/spma.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "simcore/fnv.hh"
#include "simcore/log.hh"
#include "simcore/options.hh"
#include "serve/executor.hh"
#include "serve/request.hh"
#include "serve/sim.hh"
#include "simcore/parallel.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

using namespace via;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct ModeTiming
{
    double wall = 0.0; //!< best-of-repeats seconds
    sample::SampleEstimate est;
};

// ==================================================================
// simspeed=1: the detailed-mode simulator speed gate.
// ==================================================================

/**
 * Seed-build wall clocks of the two legs (same timed region, same
 * best-of-3 discipline, measured on the build predating the event
 * queue / stats / schedule fast-path overhaul). The committed
 * report's speedup_vs_seed fields are relative to these.
 */
constexpr double kSeedWallSpmv = 1.4200;
constexpr double kSeedWallSpma = 0.4172;

/** One timed workload: wall clock plus the stats fingerprint. */
struct SpeedLeg
{
    std::string name;
    double seedWall = 0.0; //!< seed-build wall clock (constant)
    double wall = 0.0;     //!< best-of-repeats seconds
    Tick cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t statsHash = 0; //!< FNV-64 of the JSON stats dump

    double
    nsPerCycle() const
    {
        return cycles ? wall * 1e9 / double(cycles) : 0.0;
    }
    double
    mips() const
    {
        return wall > 0.0 ? double(insts) / wall / 1e6 : 0.0;
    }
};

/**
 * Time one kernel, best-of @p repeats. The timed region is machine
 * construction + kernel execution — exactly the code the detailed
 * hot path covers; input generation is excluded.
 */
template <typename RunFn>
SpeedLeg
timeLeg(const std::string &name, double seed_wall,
        std::size_t repeats, RunFn &&run)
{
    SpeedLeg leg;
    leg.name = name;
    leg.seedWall = seed_wall;
    for (std::size_t r = 0; r < repeats; ++r) {
        auto start = std::chrono::steady_clock::now();
        Machine m((MachineParams()));
        run(m);
        double wall = secondsSince(start);
        if (r == 0 || wall < leg.wall)
            leg.wall = wall;
        leg.cycles = m.cycles();
        leg.insts = m.core().stats().insts;
        std::ostringstream os;
        m.stats().dumpJson(os);
        leg.statsHash = fnv1a64(os.str());
    }
    return leg;
}

/** The {...} object following "name" in @p text ("" if absent). */
std::string
jsonSection(const std::string &text, const std::string &name)
{
    auto pos = text.find("\"" + name + "\"");
    if (pos == std::string::npos)
        return "";
    auto open = text.find('{', pos);
    auto close = text.find('}', open);
    if (open == std::string::npos || close == std::string::npos)
        return "";
    return text.substr(open, close - open + 1);
}

bool
jsonNumber(const std::string &sect, const std::string &key,
           double &out)
{
    auto pos = sect.find("\"" + key + "\":");
    if (pos == std::string::npos)
        return false;
    out = std::strtod(sect.c_str() + pos + key.size() + 3, nullptr);
    return true;
}

bool
jsonHash(const std::string &sect, const std::string &key,
         std::uint64_t &out)
{
    auto pos = sect.find("\"" + key + "\": \"");
    if (pos == std::string::npos)
        return false;
    out = std::strtoull(sect.c_str() + pos + key.size() + 5,
                        nullptr, 16);
    return true;
}

/**
 * A gated leg's report path @p out_key and baseline path @p base_key
 * must each name a file, and not the same one (usage error, exit 2).
 */
void
requireSeparatePaths(const Options &opts, const std::string &out_key,
                     const std::string &base_key)
{
    namespace fs = std::filesystem;
    std::string out = opts.getString(out_key);
    std::string base = opts.getString(base_key);
    if (out.empty())
        opts.usageError(out_key + "= must name a file");
    if (base.empty())
        opts.usageError(base_key + "= must name a file");
    // Compare the files the paths resolve to, or the strings when
    // either cannot be resolved.
    auto resolve = [](const std::string &path, std::error_code &ec) {
        fs::path abs = fs::absolute(path, ec);
        return ec ? abs : fs::weakly_canonical(abs, ec);
    };
    std::error_code eo, eb;
    fs::path ro = resolve(out, eo);
    fs::path rb = resolve(base, eb);
    if ((eo || eb) ? out == base : ro == rb)
        opts.usageError(out_key + "= and " + base_key +
                        "= name the same file (" + out +
                        "); write the report elsewhere and copy it "
                        "over the baseline to re-baseline");
}

int
runSimspeed(const Options &opts)
{
    requireSeparatePaths(opts, "simspeed_out", "simspeed_baseline");
    auto repeats = std::size_t(opts.getUInt("repeats"));
    std::string out_path = opts.getString("simspeed_out");
    std::string base_path = opts.getString("simspeed_baseline");

    std::printf("bench_report: simspeed gate (detailed mode, "
                "best of %zu)\n",
                repeats);

    std::vector<SpeedLeg> legs;
    {
        // fig10 reference workload: SpMV, VIA CSB.
        Rng rng(1);
        Csr a = genUniform(16384, 16384, 0.005, rng);
        DenseVector x = randomVector(a.cols(), rng);
        legs.push_back(timeLeg("spmv", kSeedWallSpmv, repeats,
                               [&](Machine &m) {
                                   kernels::spmvRun(m, m.backendKind(),
                                                    a, "csb", x);
                               }));
    }
    {
        // fig11 reference workload: SpMA, VIA CAM.
        Rng rng(1);
        Csr a = genUniform(8192, 8192, 0.004, rng);
        Csr b = genUniform(8192, 8192, 0.004, rng);
        legs.push_back(timeLeg("spma", kSeedWallSpma, repeats,
                               [&](Machine &m) {
                                   kernels::spmaViaCsr(m, a, b);
                               }));
    }

    for (const SpeedLeg &leg : legs)
        std::printf("  %-5s %8.3fs  %10llu cycles  %8llu insts  "
                    "%7.1f ns/cyc  %6.2f MIPS  %5.2fx vs seed\n",
                    leg.name.c_str(), leg.wall,
                    static_cast<unsigned long long>(leg.cycles),
                    static_cast<unsigned long long>(leg.insts),
                    leg.nsPerCycle(), leg.mips(),
                    leg.seedWall / leg.wall);

    // Gate against the committed baseline, if one exists.
    bool stats_ok = true;
    bool speed_ok = true;
    std::ifstream in(base_path);
    if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        std::string text = ss.str();
        for (const SpeedLeg &leg : legs) {
            std::string sect = jsonSection(text, leg.name);
            double bcycles = 0, binsts = 0, bns = 0;
            std::uint64_t bhash = 0;
            if (sect.empty() ||
                !jsonNumber(sect, "cycles", bcycles) ||
                !jsonNumber(sect, "insts", binsts) ||
                !jsonNumber(sect, "ns_per_cycle", bns) ||
                !jsonHash(sect, "stats_fnv64", bhash)) {
                std::fprintf(stderr,
                             "bench_report: baseline %s lacks leg "
                             "'%s'\n",
                             base_path.c_str(), leg.name.c_str());
                stats_ok = false;
                continue;
            }
            if (double(leg.cycles) != bcycles ||
                double(leg.insts) != binsts ||
                leg.statsHash != bhash) {
                std::fprintf(
                    stderr,
                    "bench_report: FAIL %s stats fingerprint "
                    "changed (cycles %llu vs %.0f, insts %llu vs "
                    "%.0f, hash %016llx vs %016llx)\n",
                    leg.name.c_str(),
                    static_cast<unsigned long long>(leg.cycles),
                    bcycles,
                    static_cast<unsigned long long>(leg.insts),
                    binsts,
                    static_cast<unsigned long long>(leg.statsHash),
                    static_cast<unsigned long long>(bhash));
                stats_ok = false;
            }
            if (leg.nsPerCycle() > bns * 1.10) {
                std::fprintf(stderr,
                             "bench_report: FAIL %s host time "
                             "%.1f ns/cycle > baseline %.1f +10%%\n",
                             leg.name.c_str(), leg.nsPerCycle(),
                             bns);
                speed_ok = false;
            }
        }
    } else {
        std::printf("  no baseline at %s; bootstrapping\n",
                    base_path.c_str());
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr)
        via_fatal("cannot write ", out_path);
    std::fprintf(f, "{\n");
    for (const SpeedLeg &leg : legs)
        std::fprintf(
            f,
            "  \"%s\": {\"wall_s\": %.4f, \"cycles\": %llu, "
            "\"insts\": %llu, \"ns_per_cycle\": %.3f, \"mips\": "
            "%.3f, \"stats_fnv64\": \"%016llx\", \"seed_wall_s\": "
            "%.4f, \"speedup_vs_seed\": %.2f},\n",
            leg.name.c_str(), leg.wall,
            static_cast<unsigned long long>(leg.cycles),
            static_cast<unsigned long long>(leg.insts),
            leg.nsPerCycle(), leg.mips(),
            static_cast<unsigned long long>(leg.statsHash),
            leg.seedWall, leg.seedWall / leg.wall);
    std::fprintf(f,
                 "  \"pass\": {\"stats_identical\": %s, "
                 "\"ns_per_cycle_within_10pct\": %s}\n}\n",
                 stats_ok ? "true" : "false",
                 speed_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    return (stats_ok && speed_ok) ? 0 : 1;
}

// ==================================================================
// serve=1: the serving-subsystem regression gate.
// ==================================================================

/** One serving scenario, base and VIA on identical traffic. */
struct ServeLeg
{
    std::string name;
    serve::ServeReport base;
    serve::ServeReport via;

    double
    speedupP99() const
    {
        return via.latency.p99() > 0.0
                   ? base.latency.p99() / via.latency.p99()
                   : 0.0;
    }

    /** Canonical byte image of every simulated-deterministic
     *  quantity the leg reports; the gate hashes this. */
    std::string
    fingerprint() const
    {
        char buf[512];
        auto one = [&](const serve::ServeReport &r) {
            std::snprintf(
                buf, sizeof(buf),
                "req=%llu batches=%llu makespan=%llu "
                "p50=%.17g p95=%.17g p99=%.17g q99=%.17g "
                "pj=%.17g;",
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.makespan),
                r.latency.p50(), r.latency.p95(), r.latency.p99(),
                r.queueing.p99(), r.energyPerRequestPj);
            return std::string(buf);
        };
        return name + ":base " + one(base) + "via " + one(via);
    }
};

int
runServing(const Options &opts)
{
    requireSeparatePaths(opts, "serve_out", "serve_baseline");
    std::string out_path = opts.getString("serve_out");
    std::string base_path = opts.getString("serve_baseline");

    // The reference serving configuration: two SpMV classes (CSR and
    // SELL-C-sigma), arrivals fast enough that the scheduler
    // actually batches, measured on the default single-core machine.
    auto mix = serve::parseMix(
        "spmv:csr:96:0.05:1,spmv:sell:96:0.05:1@2");
    serve::ExecutorConfig ex;
    ex.batchMax = 4;
    ex.threads = unsigned(opts.getUInt("threads"));
    ex.seed = 1;
    serve::ExecutorConfig exv = ex;
    exv.via = true;

    std::printf("bench_report: serving gate (%zu classes, "
                "batch<=%u)\n",
                mix.size(), ex.batchMax);
    serve::TableServiceModel base_table =
        serve::measureServiceTable(mix, ex);
    serve::TableServiceModel via_table =
        serve::measureServiceTable(mix, exv);

    std::vector<ServeLeg> legs;
    {
        serve::ServeConfig sc;
        sc.requests = 200;
        sc.ratePerMcycle = 2000.0; // ~500-cycle gaps vs ~700 service
        sc.batchMax = 4;
        sc.seed = 1;
        legs.push_back({"open", runServe(mix, base_table, sc),
                        runServe(mix, via_table, sc)});
    }
    {
        serve::ServeConfig sc;
        sc.closed = true;
        sc.requests = 200;
        sc.clients = 8;
        sc.thinkCycles = 500.0;
        sc.batchMax = 4;
        sc.seed = 1;
        legs.push_back({"closed", runServe(mix, base_table, sc),
                        runServe(mix, via_table, sc)});
    }

    for (const ServeLeg &leg : legs)
        std::printf("  %-6s base p99 %6.0f  via p99 %6.0f  "
                    "(%.3fx)  mean batch %.2f  energy %0.f/%0.f "
                    "pJ/req\n",
                    leg.name.c_str(), leg.base.latency.p99(),
                    leg.via.latency.p99(), leg.speedupP99(),
                    leg.base.meanBatch, leg.base.energyPerRequestPj,
                    leg.via.energyPerRequestPj);

    bool finger_ok = true;
    bool tail_ok = true;
    std::ifstream in(base_path);
    if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        std::string text = ss.str();
        for (const ServeLeg &leg : legs) {
            std::string sect = jsonSection(text, leg.name);
            std::uint64_t bhash = 0;
            if (sect.empty() ||
                !jsonHash(sect, "fingerprint_fnv64", bhash)) {
                std::fprintf(stderr,
                             "bench_report: baseline %s lacks "
                             "serving leg '%s'\n",
                             base_path.c_str(), leg.name.c_str());
                finger_ok = false;
                continue;
            }
            std::uint64_t hash = fnv1a64(leg.fingerprint());
            if (hash != bhash) {
                std::fprintf(
                    stderr,
                    "bench_report: FAIL %s serving fingerprint "
                    "changed (%016llx vs %016llx): %s\n",
                    leg.name.c_str(),
                    static_cast<unsigned long long>(hash),
                    static_cast<unsigned long long>(bhash),
                    leg.fingerprint().c_str());
                // Per-field breakdown against the baseline record,
                // so a drifting leg points at the quantity that
                // moved instead of just two hashes.
                struct Field
                {
                    const char *key;
                    double actual;
                };
                const Field fields[] = {
                    {"requests", double(leg.base.requests)},
                    {"batches", double(leg.base.batches)},
                    {"mean_batch", leg.base.meanBatch},
                    {"makespan_cycles", double(leg.base.makespan)},
                    {"base_p99", leg.base.latency.p99()},
                    {"via_p99", leg.via.latency.p99()},
                    {"via_speedup_p99", leg.speedupP99()},
                    {"base_pj_per_request",
                     leg.base.energyPerRequestPj},
                    {"via_pj_per_request",
                     leg.via.energyPerRequestPj},
                };
                for (const Field &fd : fields) {
                    double expect = 0;
                    if (!jsonNumber(sect, fd.key, expect)) {
                        std::fprintf(stderr,
                                     "  %-20s missing from "
                                     "baseline, actual %.6g\n",
                                     fd.key, fd.actual);
                        continue;
                    }
                    // The JSON rounds (%.2f/%.1f/%.3f), so compare
                    // at the printed precision, not bit-exactly.
                    bool differs =
                        std::fabs(expect - fd.actual) > 5e-4 *
                            std::max(1.0, std::fabs(expect));
                    std::fprintf(stderr,
                                 "  %-20s expected %-12.6g actual "
                                 "%-12.6g%s\n",
                                 fd.key, expect, fd.actual,
                                 differs ? "  <-- differs" : "");
                }
                finger_ok = false;
            }
        }
    } else {
        std::printf("  no baseline at %s; bootstrapping\n",
                    base_path.c_str());
    }
    for (const ServeLeg &leg : legs) {
        if (leg.speedupP99() < 1.0) {
            std::fprintf(stderr,
                         "bench_report: FAIL %s VIA p99 %.0f worse "
                         "than base %.0f\n",
                         leg.name.c_str(), leg.via.latency.p99(),
                         leg.base.latency.p99());
            tail_ok = false;
        }
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr)
        via_fatal("cannot write ", out_path);
    std::fprintf(f, "{\n");
    for (const ServeLeg &leg : legs)
        std::fprintf(
            f,
            "  \"%s\": {\"requests\": %llu, \"batches\": %llu, "
            "\"mean_batch\": %.2f, \"makespan_cycles\": %llu, "
            "\"base_p99\": %.1f, \"via_p99\": %.1f, "
            "\"via_speedup_p99\": %.3f, \"base_pj_per_request\": "
            "%.1f, \"via_pj_per_request\": %.1f, "
            "\"fingerprint_fnv64\": \"%016llx\"},\n",
            leg.name.c_str(),
            static_cast<unsigned long long>(leg.base.requests),
            static_cast<unsigned long long>(leg.base.batches),
            leg.base.meanBatch,
            static_cast<unsigned long long>(leg.base.makespan),
            leg.base.latency.p99(), leg.via.latency.p99(),
            leg.speedupP99(), leg.base.energyPerRequestPj,
            leg.via.energyPerRequestPj,
            static_cast<unsigned long long>(
                fnv1a64(leg.fingerprint())));
    std::fprintf(f,
                 "  \"pass\": {\"fingerprint_identical\": %s, "
                 "\"via_p99_no_worse\": %s}\n}\n",
                 finger_ok ? "true" : "false",
                 tail_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    return (finger_ok && tail_ok) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("bench_report",
                 "Quantitative regression gates: sampled "
                 "simulation and checkpointing (default), or "
                 "detailed-mode simulator speed (simspeed=1)");
    opts.addUInt("rows", 16384, "reference matrix rows", 1)
        .addDouble("density", 0.005, "reference matrix density",
                   0.0, 1.0)
        .addUInt("seed", 1, "generator seed")
        .addString("format", "csb", "SpMV format: csr|spc5|sell|csb",
                   kernels::spmvFormats())
        .addString("backend", "via",
                   "sampling-leg accelerated backend: "
                   "base|via|ssr|indexmac (the simspeed/serve "
                   "regression gates stay pinned to via)",
                   backendNames())
        .addUInt("sample_interval", 100000,
                 "instructions per sampling unit", 1)
        .addUInt("sample_warmup", 500,
                 "detailed warmup instructions per unit")
        .addUInt("sample_measure", 1500,
                 "measured instructions per unit", 1)
        .addUInt("repeats", 5, "timing repetitions, best-of", 1)
        .addUInt("sweep_points", 4, "restore fan-out width")
        .addString("out", "BENCH_sampling.json",
                   "sampling-leg JSON report path")
        .addFlag("simspeed",
                 "run the detailed-mode simulator speed gate "
                 "instead of the sampling leg")
        .addString("simspeed_out", "BENCH_simspeed_ci.json",
                   "simspeed-leg JSON report path")
        .addString("simspeed_baseline", "BENCH_simspeed.json",
                   "baseline JSON to gate against")
        .addFlag("serve",
                 "run the serving-subsystem gate instead of the "
                 "sampling leg")
        .addString("serve_out", "BENCH_serving_ci.json",
                   "serving-leg JSON report path")
        .addString("serve_baseline", "BENCH_serving.json",
                   "baseline JSON to gate against");
    addThreadsOption(opts);
    addSelfProfOption(opts);
    opts.parse(argc, argv);
    applySelfProfOption(opts);

    if (opts.getBool("simspeed"))
        return runSimspeed(opts);
    if (opts.getBool("serve"))
        return runServing(opts);

    auto rows = Index(opts.getUInt("rows"));
    double density = opts.getDouble("density");
    std::string fmt = opts.getString("format");
    auto repeats = std::size_t(opts.getUInt("repeats"));
    auto sweep_points = std::size_t(opts.getUInt("sweep_points"));
    std::string out_path = opts.getString("out");

    sample::SampleOptions sopts;
    sopts.interval = opts.getUInt("sample_interval");
    sopts.warmup = opts.getUInt("sample_warmup");
    sopts.measure = opts.getUInt("sample_measure");
    sopts.requirePhasesFit(opts);

    Rng rng(opts.getUInt("seed"));
    Csr a = genUniform(rows, rows, density, rng);
    DenseVector x = randomVector(a.cols(), rng);
    DenseVector golden = a.multiply(x);
    std::printf("bench_report: SpMV %s on %dx%d, %zu nnz "
                "(fig10 reference machine)\n",
                fmt.c_str(), a.rows(), a.cols(), a.nnz());

    MachineParams params{};
    params.backend.kind = parseBackendKind(opts.getString("backend"));

    // The timed region is machine construction + kernel execution:
    // exactly the work a mode changes. Input generation, the golden
    // reference and JSON writing are shared and excluded. Repeats
    // interleave the modes round-robin so that host-load drift over
    // the measurement hits every mode equally — the speedup ratios
    // stay honest even when absolute wall clock wobbles.
    auto timeOnce = [&](sample::SimMode mode, std::size_t r,
                        ModeTiming &best) {
        sample::SampleOptions mopts = sopts;
        mopts.mode = mode;
        auto start = std::chrono::steady_clock::now();
        Machine m(params);
        sample::SampleEstimate est = sample::runWith(m, mopts, [&] {
            kernels::spmvRun(m, m.backendKind(), a, fmt, x);
        });
        double wall = secondsSince(start);
        if (r == 0 || wall < best.wall) {
            best.wall = wall;
            best.est = est;
        }
    };

    ModeTiming detailed, functional, sampled;
    for (std::size_t r = 0; r < repeats; ++r) {
        timeOnce(sample::SimMode::Detailed, r, detailed);
        timeOnce(sample::SimMode::Functional, r, functional);
        timeOnce(sample::SimMode::Sampled, r, sampled);
    }

    // One verification run: every mode executes the identical
    // architectural stream, so checking the functional result covers
    // all three.
    {
        Machine m(params);
        sample::SampleOptions mopts = sopts;
        mopts.mode = sample::SimMode::Functional;
        kernels::SpmvResult res;
        sample::runWith(m, mopts, [&] {
            res = kernels::spmvRun(m, m.backendKind(), a, fmt, x);
        });
        if (!allClose(res.y, golden)) {
            std::fprintf(stderr,
                         "bench_report: result MISMATCH in "
                         "functional mode\n");
            return 1;
        }
    }

    double rel_error =
        std::abs(sampled.est.cycles - detailed.est.cycles) /
        detailed.est.cycles;
    double func_speedup = detailed.wall / functional.wall;
    double sampled_speedup = detailed.wall / sampled.wall;

    // Checkpoint leg: capture one warm image, then fan restore out
    // over a SweepExecutor — every point gets the full post-run
    // machine state without re-running the kernel, and must report
    // the identical cycle count.
    Machine warm(params);
    kernels::spmvRun(warm, warm.backendKind(), a, fmt, x);
    Tick warm_cycles = warm.cycles();

    auto cap_start = std::chrono::steady_clock::now();
    sample::Checkpoint cp = sample::Checkpoint::capture(warm);
    double capture_s = secondsSince(cap_start);

    SweepExecutor exec(unsigned(opts.getUInt("threads")));
    auto restore_start = std::chrono::steady_clock::now();
    std::vector<int> identical =
        exec.run(sweep_points, [&](std::size_t) {
            Machine m(params);
            cp.restore(m);
            return m.cycles() == warm_cycles ? 1 : 0;
        });
    double restore_s = secondsSince(restore_start) /
                       double(sweep_points ? sweep_points : 1);
    bool restore_ok = true;
    for (int id : identical)
        restore_ok = restore_ok && id == 1;

    bool error_ok = rel_error <= 0.05;
    bool speedup_ok = func_speedup >= 10.0;

    std::printf("  detailed    %8.3fs  %12.0f cycles\n",
                detailed.wall, detailed.est.cycles);
    std::printf("  functional  %8.3fs  (%5.1fx, %llu insts)\n",
                functional.wall, func_speedup,
                static_cast<unsigned long long>(
                    functional.est.totalInsts));
    std::printf("  sampled     %8.3fs  %12.0f cycles  (%5.1fx, "
                "%.2f%% error, %llu windows)\n",
                sampled.wall, sampled.est.cycles, sampled_speedup,
                rel_error * 100.0,
                static_cast<unsigned long long>(
                    sampled.est.intervals));
    std::printf("  checkpoint  %zu bytes, capture %.3fs, restore "
                "%.3fs/point x %zu points (%s)\n",
                cp.bytes().size(), capture_s, restore_s,
                sweep_points,
                restore_ok ? "bit-identical" : "MISMATCH");

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr)
        via_fatal("cannot write ", out_path);
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"config\": {\"kernel\": \"spmv\", \"format\": "
                 "\"%s\", \"rows\": %d, \"nnz\": %zu, "
                 "\"sample_interval\": %llu, \"sample_warmup\": "
                 "%llu, \"sample_measure\": %llu},\n",
                 fmt.c_str(), a.rows(), a.nnz(),
                 static_cast<unsigned long long>(sopts.interval),
                 static_cast<unsigned long long>(sopts.warmup),
                 static_cast<unsigned long long>(sopts.measure));
    std::fprintf(f,
                 "  \"detailed\": {\"wall_s\": %.4f, \"cycles\": "
                 "%.0f, \"insts\": %llu},\n",
                 detailed.wall, detailed.est.cycles,
                 static_cast<unsigned long long>(
                     detailed.est.totalInsts));
    std::fprintf(f,
                 "  \"functional\": {\"wall_s\": %.4f, \"speedup\": "
                 "%.2f},\n",
                 functional.wall, func_speedup);
    std::fprintf(f,
                 "  \"sampled\": {\"wall_s\": %.4f, \"speedup\": "
                 "%.2f, \"cycles\": %.0f, \"rel_error\": %.4f, "
                 "\"windows\": %llu, \"ci_low\": %.0f, \"ci_high\": "
                 "%.0f},\n",
                 sampled.wall, sampled_speedup, sampled.est.cycles,
                 rel_error,
                 static_cast<unsigned long long>(
                     sampled.est.intervals),
                 sampled.est.ciLow, sampled.est.ciHigh);
    std::fprintf(f,
                 "  \"checkpoint\": {\"bytes\": %zu, \"capture_s\": "
                 "%.4f, \"restore_s_per_point\": %.4f, "
                 "\"sweep_points\": %zu, \"restore_identical\": "
                 "%s},\n",
                 cp.bytes().size(), capture_s, restore_s,
                 sweep_points, restore_ok ? "true" : "false");
    std::fprintf(f,
                 "  \"pass\": {\"sampled_error_le_5pct\": %s, "
                 "\"functional_speedup_ge_10x\": %s, "
                 "\"restore_identical\": %s}\n",
                 error_ok ? "true" : "false",
                 speedup_ok ? "true" : "false",
                 restore_ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());

    if (!error_ok)
        std::fprintf(stderr,
                     "bench_report: FAIL sampled cycle error %.2f%% "
                     "> 5%%\n",
                     rel_error * 100.0);
    if (!speedup_ok)
        std::fprintf(stderr,
                     "bench_report: FAIL functional speedup %.1fx "
                     "< 10x\n",
                     func_speedup);
    if (!restore_ok)
        std::fprintf(stderr, "bench_report: FAIL restored machines "
                             "diverged from the warm image\n");
    return (error_ok && speedup_ok && restore_ok) ? 0 : 1;
}
