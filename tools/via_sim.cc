/**
 * @file
 * via_sim — command-line driver for the VIA simulator.
 *
 * Runs one kernel on one matrix (synthetic or a Matrix Market file)
 * on a configured machine, with and without VIA, and dumps the
 * statistics. This is the "try it on your own matrix" entry point.
 * With sweep=1 the same kernel and input instead run across a grid
 * of SSPM configurations in parallel (see below).
 *
 * Usage:
 *   via_sim <kernel> [key=value ...]
 *   via_sim kernel=<kernel> [key=value ...]
 *
 * Kernels (kernels/registry.hh): spmv | spma | spmm | histogram |
 * stencil. An unknown kernel, a format= the kernel has no variant
 * for at the run's core count, or an unknown partition= is a usage
 * error (exit 2), caught before any input is built.
 *
 * Keys are registered with the shared Options registry
 * (simcore/options.hh): help=1 / --help prints the generated key
 * table, and an unknown key is an error (exit 2) printing the valid
 * set, so a typo like treads=4 cannot silently run a default
 * configuration.
 *
 * Common keys:
 *   mtx=PATH        load a Matrix Market file (else synthetic)
 *   matrix=PATH     alias for mtx= (real-world workload entry)
 *   rows=N          synthetic matrix size         (default 512)
 *   density=D       synthetic matrix density      (default 0.01)
 *   family=F        banded|uniform|rmat|blocked|diag (default uniform)
 *   seed=S          generator seed                (default 1)
 *   sspm_kb=K       SSPM size in KB               (default 16)
 *   ports=P         SSPM ports                    (default 2)
 *   format=FMT      spmv only: csr|spc5|sell|csb  (default csb)
 *   keys=N          histogram input size          (default 16384)
 *   buckets=B       histogram buckets             (default 1024)
 *   px=N            stencil image side            (default 256)
 *   stats=1         dump the full statistics tables
 *   json=1          dump statistics as JSON instead
 *   timeline=C      (spmv) sample IPC every C simulated cycles
 *   debug=1         per-instruction debug log to stderr
 *
 * Multi-core (docs/multicore.md):
 *   cores=N         cores sharing one LLC/DRAM (default 1; the
 *                   cores=1 path is the unchanged, bit-identical
 *                   single-core machine). cores>1 runs the parallel
 *                   kernel variants and supports mode=detailed only
 *                   (no sweep/checkpoint/restore).
 *   partition=P     static | steal row partitioning
 *   llc_banks=B     shared-LLC bank pipes (default 8)
 *
 * Sampled simulation (the VIA run; see docs/sampling.md):
 *   mode=M          detailed | functional | sampled (default
 *                   detailed). functional warms caches/predictor
 *                   and checks the result but models no timing;
 *                   sampled extrapolates cycles from measured
 *                   windows with a 95% confidence interval. With
 *                   VIA_CHECK=1, mode=sampled also audits the
 *                   estimate against a detailed run and fails on a
 *                   >5% cycle error.
 *   sample_interval=N  instructions per sampling unit (default 100k)
 *   sample_warmup=N    detailed warmup per unit       (default 2000)
 *   sample_measure=N   measured instructions per unit (default 3000)
 *   checkpoint=PATH write the post-run machine state (all modes)
 *   restore=PATH    restore machine state before the run; the file
 *                   must come from an identically configured machine
 *
 * Tracing (the VIA-run Machine; see docs/tracing.md):
 *   trace=PATH      write an event trace of the VIA run
 *   trace_format=F  perfetto (Chrome trace-event JSON) | konata
 *   trace_limit=N   ring capacity in events (default 1M)
 *   trace_summary=1 print a per-component busy/stall breakdown
 *
 * Sweep mode (design-space exploration over one input):
 *   sweep=1         run the VIA kernel across sweep_kb x sweep_ports
 *   sweep_kb=LIST   SSPM sizes in KB              (default 4,8,16)
 *   sweep_ports=LIST SSPM port counts             (default 2,4)
 *   threads=N       sweep worker threads (0 = hardware concurrency)
 *
 * Every sweep point runs on its own Machine; results are collected
 * in submission order, so sweep output is bit-identical at any
 * thread count. Each point self-checks against the host reference
 * and the exit code is nonzero on any mismatch.
 *
 * Testing hook: inject_error=1 (stencil) fails the VIA result check
 * to exercise the mismatch exit path.
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "check/invariants.hh"
#include "check/sampling_audit.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "kernels/registry.hh"
#include "kernels/runner.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "simcore/config.hh"
#include "simcore/log.hh"
#include "simcore/options.hh"
#include "simcore/parallel.hh"
#include "simcore/rng.hh"
#include "simcore/serialize.hh"
#include "trace/trace_io.hh"

using namespace via;

namespace
{

/**
 * The full key table: driver keys here, the machine / sampling /
 * tracing groups from their owning layers. A typo (treads=4) exits
 * 2 with the valid set instead of silently running defaults.
 */
Options
simOptions()
{
    Options opts("via_sim",
                 "Run one kernel on one matrix, with and without "
                 "VIA (spmv|spma|spmm|histogram|stencil); sweep=1 "
                 "runs a grid of SSPM configurations instead");
    opts.addString("kernel", "",
                   "kernel to run (or first positional argument)")
        .addFlag("stats", "dump the full statistics tables")
        .addFlag("json", "dump statistics as JSON instead")
        .addUInt("timeline", 0,
                 "(spmv) sample IPC every N simulated cycles")
        .addFlag("debug", "per-instruction debug log to stderr")
        .addFlag("inject_error",
                 "(stencil) perturb the VIA result to exercise "
                 "the failure path")
        .addString("checkpoint", "",
                   "write the post-run machine state here")
        .addString("restore", "",
                   "restore machine state before the run")
        .addFlag("sweep",
                 "run the VIA kernel across sweep_kb x sweep_ports")
        .addString("sweep_kb", "4,8,16",
                   "SSPM sizes in KB to sweep (comma list)")
        .addString("sweep_ports", "2,4",
                   "SSPM port counts to sweep (comma list)");
    kernels::addInputOptions(opts, 256, true);
    addThreadsOption(opts);
    addSelfProfOption(opts);
    addMachineOptions(opts);
    addMultiCoreOptions(opts);
    sample::addSampleOptions(opts);
    addTraceOptions(opts);
    return opts;
}

void
report(const char *name, const Machine &m, Tick baseline_cycles)
{
    auto metrics = kernels::collectMetrics(m);
    std::printf("%-18s %12llu cycles", name,
                static_cast<unsigned long long>(metrics.cycles));
    if (baseline_cycles)
        std::printf("  (%5.2fx)", double(baseline_cycles) /
                                      double(metrics.cycles));
    std::printf("  ipc %.2f  dram %.1f MB  energy %.1f uJ\n",
                metrics.ipc, double(metrics.dramBytes()) / 1e6,
                metrics.energy.totalPj() / 1e6);
}

/** json=1/stats=1 statistics dump, uniform across all kernels. */
void
dumpStats(const Config &cfg, Machine &m)
{
    if (cfg.getBool("json", false))
        m.stats().dumpJson(std::cout);
    else if (cfg.getBool("stats", false))
        m.stats().dump(std::cout);
}

/** restore=PATH: load a machine image before the kernel runs. */
void
maybeRestore(const Config &cfg, Machine &m)
{
    if (!cfg.has("restore"))
        return;
    std::string path = cfg.getString("restore", "");
    try {
        sample::Checkpoint::readFile(path).restore(m);
    } catch (const SerializeError &e) {
        via_fatal("restore=", path, ": ", e.what());
    }
    std::printf("restored machine state from %s\n", path.c_str());
}

/** checkpoint=PATH: write the post-run machine image. */
void
maybeCheckpoint(const Config &cfg, const Machine &m)
{
    if (!cfg.has("checkpoint"))
        return;
    std::string path = cfg.getString("checkpoint", "");
    try {
        sample::Checkpoint::capture(m).writeFile(path);
    } catch (const SerializeError &e) {
        via_fatal("checkpoint=", path, ": ", e.what());
    }
    std::printf("checkpoint written to %s\n", path.c_str());
}

/** The mode=functional / mode=sampled counterpart of report(). */
void
reportEstimate(const std::string &name,
               const sample::SampleOptions &sopts,
               const sample::SampleEstimate &est)
{
    if (sopts.mode == sample::SimMode::Functional) {
        std::printf("%-18s %12llu insts  (functional: no timing "
                    "modelled)\n",
                    name.c_str(),
                    static_cast<unsigned long long>(est.totalInsts));
        return;
    }
    if (est.exact) {
        std::printf("%-18s %12.0f cycles  (exact: run shorter than "
                    "one sampling unit)\n",
                    name.c_str(), est.cycles);
        return;
    }
    std::printf("%-18s %12.0f cycles  (sampled, 95%% CI "
                "[%.0f, %.0f], %llu windows, cpi %.2f)\n",
                name.c_str(), est.cycles, est.ciLow, est.ciHigh,
                static_cast<unsigned long long>(est.intervals),
                est.cpi);
}

/**
 * Run one kernel body under mode=functional or mode=sampled: a
 * single VIA-configured machine (no software baseline — comparative
 * timing is detailed mode's job), optional restore before and
 * checkpoint after, and, for sampled runs under VIA_CHECK=1, the
 * sampled-vs-detailed error audit folded into the exit code.
 */
int
runModal(const Config &cfg, const MachineParams &params,
         const sample::SampleOptions &sopts, const std::string &name,
         const std::function<bool(Machine &)> &body)
{
    Machine m(params);
    maybeRestore(cfg, m);
    bool ok = false;
    sample::SampleEstimate est =
        sample::runWith(m, sopts, [&] { ok = body(m); });
    reportEstimate(name, sopts, est);
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");

    if (sopts.mode == sample::SimMode::Sampled &&
        check::envEnabled()) {
        check::SamplingAudit audit = check::auditEstimate(
            params, est, [&](Machine &dm) { body(dm); });
        std::printf("%s\n", audit.summary().c_str());
        ok = ok && audit.ok;
    }

    maybeCheckpoint(cfg, m);
    dumpStats(cfg, m);
    return ok ? 0 : 1;
}

/**
 * Periodic IPC sampling through the machine's simulated-time event
 * queue (timeline=CYCLES): prints instructions retired per window.
 */
struct Timeline
{
    struct Sample
    {
        Tick tick;
        std::uint64_t insts;
    };

    void
    install(Machine &m, Tick window)
    {
        if (window == 0)
            return;
        _machine = &m;
        _window = window;
        m.events().scheduleIn<&Timeline::tick>(window, this,
                                               "timeline");
    }

    void
    tick()
    {
        samples.push_back(Sample{_machine->events().curTick(),
                                 _machine->core().stats().insts});
        _machine->events().scheduleIn<&Timeline::tick>(_window, this,
                                                       "timeline");
    }

    void
    print() const
    {
        if (samples.empty())
            return;
        std::printf("timeline (IPC per window):\n");
        std::uint64_t prev_i = 0;
        Tick prev_t = 0;
        for (const Sample &s : samples) {
            // A duplicate sample at the same tick would divide by
            // zero; fold it into the next nonzero-width window.
            if (s.tick == prev_t)
                continue;
            std::printf("  @%-10llu ipc %.2f\n",
                        static_cast<unsigned long long>(s.tick),
                        double(s.insts - prev_i) /
                            double(s.tick - prev_t));
            prev_i = s.insts;
            prev_t = s.tick;
        }
    }

    std::vector<Sample> samples;
    Machine *_machine = nullptr;
    Tick _window = 0;
};

/** inject_error=1: fail the result check to exercise the mismatch
 *  exit path (stencil only; sweep points ignore it). */
bool
injectError(const kernels::KernelSpec &spec, const Config &cfg)
{
    return spec.injectable && cfg.getBool("inject_error", false);
}

/**
 * The single-core comparison: each software baseline on its own
 * machine, then the accelerated kernel on a machine that takes the
 * restore=, trace=, timeline= and checkpoint= keys.
 */
int
runSingle(const kernels::KernelSpec &spec, const kernels::KernelInput &k,
          const Config &cfg, const MachineParams &params)
{
    std::printf("%s: %s\n", spec.title.c_str(), k.shape.c_str());
    const bool inject = injectError(spec, cfg);
    auto sopts = sample::SampleOptions::fromConfig(cfg);
    if (sopts.mode != sample::SimMode::Detailed)
        return runModal(cfg, params, sopts, k.accelLabel,
                        [&](Machine &m) {
                            return k.accel(m).ok && !inject;
                        });

    Tick base_cycles = 0;
    for (const kernels::KernelInput::Baseline &b : k.baselines) {
        Machine base(params);
        Tick cycles = b.run(base);
        report(b.label.c_str(), base, base_cycles);
        if (base_cycles == 0)
            base_cycles = cycles;
    }

    Machine viam(params);
    maybeRestore(cfg, viam);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    enableTracing(viam, topts);
    viam.tracePhase(k.phase);
    Timeline timeline;
    if (spec.timeline)
        timeline.install(viam, Tick(cfg.getUInt("timeline", 0)));
    kernels::RunOutcome vres = k.accel(viam);
    report(k.accelLabel.c_str(), viam, base_cycles);
    timeline.print();

    bool ok = vres.ok && !inject;
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    ok = finishTracing(viam, topts) && ok;
    maybeCheckpoint(cfg, viam);
    dumpStats(cfg, viam);
    return ok ? 0 : 1;
}

// ==================================================================
// cores>1: the multi-core machine and the parallel kernel variants.
// ==================================================================

/** Per-run report line for a MultiMachine. */
void
reportMulti(const char *name, const MultiMachine &mm, Tick cycles,
            Tick baseline_cycles)
{
    std::printf("%-18s %12llu cycles", name,
                static_cast<unsigned long long>(cycles));
    if (baseline_cycles)
        std::printf("  (%5.2fx)",
                    double(baseline_cycles) / double(cycles));
    const SharedLlcStats &ls = mm.llc().stats();
    std::printf("  llc inval %llu  fwd %llu  bankq %llu\n",
                static_cast<unsigned long long>(ls.invalidations),
                static_cast<unsigned long long>(ls.dirtyForwards),
                static_cast<unsigned long long>(ls.bankQueueCycles));
}

/** stats=1 / json=1 for a multi-core run: shared level + per core. */
void
dumpStatsMulti(const Config &cfg, MultiMachine &mm)
{
    if (cfg.getBool("json", false)) {
        std::cout << "{\"shared\": ";
        mm.stats().dumpJson(std::cout);
        for (unsigned c = 0; c < mm.cores(); ++c) {
            std::cout << ", \"core" << c << "\": ";
            mm.core(c).stats().dumpJson(std::cout);
        }
        std::cout << "}\n";
    } else if (cfg.getBool("stats", false)) {
        std::cout << "== shared (llc/dram) ==\n";
        mm.stats().dump(std::cout);
        for (unsigned c = 0; c < mm.cores(); ++c) {
            std::cout << "== core " << c << " ==\n";
            mm.core(c).stats().dump(std::cout);
        }
    }
}

/** Per-core trace export (suffix _coreN before the extension). */
bool
finishTracingMulti(MultiMachine &mm, const TraceOptions &topts)
{
    bool ok = true;
    for (unsigned c = 0; c < mm.cores(); ++c)
        ok = finishTracing(mm.core(c), topts,
                           "_core" + std::to_string(c)) &&
             ok;
    return ok;
}

/** cores>1: the parallel baseline, then the parallel VIA kernel,
 *  each on a fresh machine set; a run's cycles are the makespan,
 *  the slowest core's commit front. */
int
runParallel(const kernels::KernelSpec &spec,
            const kernels::KernelInput &k, const Config &cfg,
            const MachineParams &params, unsigned cores)
{
    auto part =
        kernels::parsePartition(cfg.getString("partition", "static"));
    SharedLlcParams llcp = sharedLlcParamsFrom(cfg, params, cores);
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    std::printf("%s: %s  (%u cores, %s)\n", spec.title.c_str(),
                k.shape.c_str(), cores, kernels::partitionName(part));

    MultiMachine base(params, cores, llcp);
    Tick bcycles = k.parallel(base, part, false).cycles;
    reportMulti(k.parallelBaseLabel.c_str(), base, bcycles, 0);

    MultiMachine viam(params, cores, llcp);
    if (topts.active())
        viam.enableTracing(topts.limit);
    kernels::RunOutcome vres = k.parallel(viam, part, true);
    reportMulti(k.accelLabel.c_str(), viam, vres.cycles, bcycles);

    bool ok = vres.ok && !injectError(spec, cfg);
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    if (topts.active())
        ok = finishTracingMulti(viam, topts) && ok;
    dumpStatsMulti(cfg, viam);
    return ok ? 0 : 1;
}

// ==================================================================
// sweep=1: one kernel, one input, a grid of SSPM configurations.
// ==================================================================

/** Outcome of one sweep point. */
struct SweepPoint
{
    Tick cycles = 0;
    bool ok = false;
    bool skipped = false; //!< input does not fit this configuration
};

std::vector<std::uint64_t>
parseU64List(const std::string &text, const char *what)
{
    std::vector<std::uint64_t> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        try {
            out.push_back(std::stoull(item));
        } catch (const std::exception &) {
            via_fatal("bad ", what, " entry '", item, "'");
        }
    }
    if (out.empty())
        via_fatal("empty list for ", what);
    return out;
}

int
runSweep(const kernels::KernelSpec &spec, const kernels::KernelInput &k,
         const Config &cfg)
{
    // Each sweep point has its own Machine, so tracing stays
    // race-free: every point writes its own file, distinguished by
    // a _<kb>_<ports>p suffix before the extension. The stdout
    // roll-up would interleave across worker threads, so it is
    // disabled here.
    TraceOptions topts = TraceOptions::fromConfig(cfg);
    if (topts.summary) {
        std::fprintf(stderr,
                     "trace_summary=1 is ignored in sweep mode\n");
        topts.summary = false;
    }

    std::string tag = k.variant.empty() ? "" : " (" + k.variant + ")";
    std::printf("sweep %s%s: %s\n", spec.title.c_str(), tag.c_str(),
                k.shape.c_str());
    // The points run concurrently and share the input read-only.
    auto point = [&](const MachineParams &params) {
        if (k.fits && !k.fits(params))
            return SweepPoint{0, true, true};
        Machine m(params);
        enableTracing(m, topts);
        m.tracePhase(k.phase);
        kernels::RunOutcome res = k.accel(m);
        bool ok = finishTracing(m, topts, "_" + params.via.name());
        return SweepPoint{res.cycles, ok && res.ok, false};
    };

    auto kbs = parseU64List(cfg.getString("sweep_kb", "4,8,16"),
                            "sweep_kb");
    auto port_list = parseU64List(
        cfg.getString("sweep_ports", "2,4"), "sweep_ports");

    struct GridCfg
    {
        std::uint64_t kb;
        std::uint32_t ports;
    };
    std::vector<GridCfg> grid;
    for (std::uint64_t kb : kbs)
        for (std::uint64_t p : port_list)
            grid.push_back({kb, std::uint32_t(p)});

    SweepExecutor exec(unsigned(cfg.getUInt("threads", 0)));
    std::fprintf(stderr, "sweeping %zu configs on %u threads\n",
                 grid.size(), exec.threads());
    auto results = exec.run(grid.size(), [&](std::size_t i) {
        Config pc = cfg;
        pc.set("sspm_kb", std::to_string(grid[i].kb));
        pc.set("ports", std::to_string(grid[i].ports));
        return point(machineParamsFrom(pc));
    });

    // First non-skipped config is the normalization baseline.
    double base_cycles = 0.0;
    for (const SweepPoint &r : results)
        if (!r.skipped) {
            base_cycles = double(r.cycles);
            break;
        }

    std::printf("%-10s %14s %9s  %s\n", "config", "cycles",
                "speedup", "check");
    bool all_ok = true;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        std::string name = std::to_string(grid[i].kb) + "_" +
                           std::to_string(grid[i].ports) + "p";
        if (results[i].skipped) {
            std::printf("%-10s %14s %9s  %s\n", name.c_str(), "-",
                        "-", "skipped (exceeds CAM)");
            continue;
        }
        all_ok = all_ok && results[i].ok;
        std::printf("%-10s %14llu %8.2fx  %s\n", name.c_str(),
                    static_cast<unsigned long long>(
                        results[i].cycles),
                    base_cycles / double(results[i].cycles),
                    results[i].ok ? "ok" : "MISMATCH");
    }
    return all_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = simOptions();

    // The kernel is either the first positional argument or a
    // kernel= key; everything else is key=value (or --help).
    std::string kernel;
    int first = 1;
    if (argc >= 2) {
        std::string head = argv[1];
        if (head.find('=') == std::string::npos && head[0] != '-') {
            kernel = head;
            first = 2;
        }
    }
    std::vector<std::string> args;
    for (int i = first; i < argc; ++i)
        args.emplace_back(argv[i]);
    opts.parse(args);
    applySelfProfOption(opts);
    const Config &cfg = opts.config();
    if (kernel.empty())
        kernel = opts.getString("kernel");
    if (kernel.empty()) {
        std::string names;
        for (const kernels::KernelSpec &spec : kernels::kernelRegistry())
            names += (names.empty() ? "" : "|") + spec.name;
        std::fprintf(stderr,
                     "usage: via_sim <%s> [key=value ...]\n"
                     "       (via_sim help=1 for the key table)\n",
                     names.c_str());
        return 2;
    }
    auto cores = unsigned(cfg.getUInt("cores", 1));
    const kernels::KernelSpec &spec =
        kernels::selectKernel(opts, kernel, cores);

    if (cfg.getBool("debug", false))
        setLogLevel(LogLevel::Debug);
    Rng rng(cfg.getUInt("seed", 1));

    MachineParams params = machineParamsFrom(cfg);
    const bool sweep = cfg.getBool("sweep", false);
    if (sweep) {
        if (cores > 1)
            via_fatal("sweep=1 is single-core; drop cores=");
        if (params.backend.kind != BackendKind::Via)
            via_fatal("sweep=1 sweeps VIA SSPM configurations; "
                      "it requires backend=via");
    } else if (cores > 1) {
        if (params.backend.kind != BackendKind::Via)
            via_fatal("cores>1 runs the VIA parallel kernels; "
                      "backend=",
                      backendName(params.backend.kind),
                      " is single-core only");
        if (sample::SampleOptions::fromConfig(cfg).mode !=
            sample::SimMode::Detailed)
            via_fatal("cores>1 supports mode=detailed only (sampling "
                      "and checkpoints are single-core)");
        if (cfg.has("checkpoint") || cfg.has("restore"))
            via_fatal("cores>1 cannot checkpoint/restore: the cores "
                      "share one memory image");
    }

    const kernels::KernelInput k =
        spec.build(opts, params.backend.kind, rng);
    if (sweep)
        return runSweep(spec, k, cfg);
    if (cores > 1)
        return runParallel(spec, k, cfg, params, cores);
    return runSingle(spec, k, cfg, params);
}
