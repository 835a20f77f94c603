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
 * stencil. An input the VIA kernel cannot run (an SpMM row that
 * overflows the CAM) exits 1 as soon as it is built, before any
 * baseline is simulated; sweep=1 instead reports each such
 * configuration as skipped.
 *
 * Keys are registered with the shared Options registry
 * (simcore/options.hh): help=1 / --help prints the generated key
 * table, with each key's type and default. An unknown key, a value
 * outside a key's range or set (an unknown kernel, format= or
 * partition=), and a key combination this driver rejects are usage
 * errors (exit 2), caught before any input is built, so a typo like
 * treads=4 cannot silently run a default configuration.
 *
 * The modes:
 *
 *   cores=N         N cores sharing one LLC/DRAM run the parallel
 *                   kernel variants (docs/multicore.md); cores=1 is
 *                   the unchanged, bit-identical single-core
 *                   machine. cores>1 supports mode=detailed only (no
 *                   sweep/checkpoint/restore).
 *   mode=M          detailed | functional | sampled, for the VIA run
 *                   (docs/sampling.md). functional warms
 *                   caches/predictor and checks the result but
 *                   models no timing; sampled extrapolates cycles
 *                   from measured windows with a 95% confidence
 *                   interval. With VIA_CHECK=1, mode=sampled also
 *                   audits the estimate against a detailed run and
 *                   fails on a >5% cycle error. checkpoint= and
 *                   restore= write and load the machine state (the
 *                   image must come from an identically configured
 *                   machine).
 *   trace=PATH      an event trace of the VIA run (docs/tracing.md)
 *   sweep=1         the VIA kernel across sweep_kb x sweep_ports,
 *                   each item checked as the sspm_kb= / ports= value
 *                   it replaces, on threads=N workers
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
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "check/sampling_audit.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "kernels/registry.hh"
#include "kernels/runner.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
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
                   "kernel to run (or first positional argument)",
                   kernels::kernelNames())
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
    kernels::addInputOptions(opts, 256);
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
dumpStats(const Options &opts, Machine &m)
{
    if (opts.getBool("json"))
        m.stats().dumpJson(std::cout);
    else if (opts.getBool("stats"))
        m.stats().dump(std::cout);
}

/** restore=PATH: load a machine image before the kernel runs. */
void
maybeRestore(const Options &opts, Machine &m)
{
    if (!opts.given("restore"))
        return;
    std::string path = opts.getString("restore");
    try {
        sample::Checkpoint::readFile(path).restore(m);
    } catch (const SerializeError &e) {
        via_fatal("restore=", path, ": ", e.what());
    }
    std::printf("restored machine state from %s\n", path.c_str());
}

/** checkpoint=PATH: write the post-run machine image. */
void
maybeCheckpoint(const Options &opts, const Machine &m)
{
    if (!opts.given("checkpoint"))
        return;
    std::string path = opts.getString("checkpoint");
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
runModal(const Options &opts, const MachineParams &params,
         const sample::SampleOptions &sopts, const std::string &name,
         const std::function<bool(Machine &)> &body)
{
    Machine m(params);
    maybeRestore(opts, m);
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

    maybeCheckpoint(opts, m);
    dumpStats(opts, m);
    return ok ? 0 : 1;
}

/**
 * Periodic IPC sampling (timeline=CYCLES): prints instructions
 * retired per window. A commit observer on the accelerated machine's
 * core: each committed instruction closes every window boundary at
 * or before its commit tick, with the instructions retired so far.
 * Windows start at the machine's commit front and instruction count
 * when the observer is installed, so after restore= the first window
 * counts only its own instructions.
 */
class Timeline : public TimingObserver
{
  public:
    Timeline() = default;
    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;
    /** Declare after the machine, so this detaches first. */
    ~Timeline() override
    {
        if (_core != nullptr)
            _core->removeTimingObserver(this);
    }

    void
    install(Machine &m, Tick window)
    {
        if (window == 0)
            return;
        _core = &m.core();
        _window = window;
        _start = Sample{m.cycles(), _core->stats().insts};
        _next = _start.tick + window;
        _core->addTimingObserver(this);
    }

    void
    onInstTiming(const Inst &, const InstTiming &timing) override
    {
        for (; _next <= timing.commit; _next += _window)
            _samples.push_back(Sample{_next, _core->stats().insts});
    }

    void onTimingReset() override {}

    void
    print() const
    {
        if (_samples.empty())
            return;
        std::printf("timeline (IPC per window):\n");
        Sample prev = _start;
        for (const Sample &s : _samples) {
            std::printf("  @%-10llu ipc %.2f\n",
                        static_cast<unsigned long long>(s.tick),
                        double(s.insts - prev.insts) /
                            double(s.tick - prev.tick));
            prev = s;
        }
    }

  private:
    struct Sample
    {
        Tick tick;
        std::uint64_t insts;
    };

    OoOCore *_core = nullptr;
    Tick _window = 0;
    Tick _next = 0;
    Sample _start{0, 0};
    std::vector<Sample> _samples;
};

/** inject_error=1: fail the result check to exercise the mismatch
 *  exit path (stencil only; sweep points ignore it). */
bool
injectError(const kernels::KernelSpec &spec, const Options &opts)
{
    return spec.injectable && opts.getBool("inject_error");
}

/**
 * The single-core comparison: each software baseline on its own
 * machine, then the accelerated kernel on a machine that takes the
 * restore=, trace=, timeline= and checkpoint= keys.
 */
int
runSingle(const kernels::KernelSpec &spec, const kernels::KernelInput &k,
          const Options &opts, const MachineParams &params,
          const sample::SampleOptions &sopts)
{
    std::printf("%s: %s\n", spec.title.c_str(), k.shape.c_str());
    const bool inject = injectError(spec, opts);
    if (sopts.mode != sample::SimMode::Detailed)
        return runModal(opts, params, sopts, k.accelLabel,
                        [&](Machine &m) {
                            bool ok =
                                k.run(m, kernels::Partition::Static, true).ok;
                            return ok && !inject;
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
    maybeRestore(opts, viam);
    TraceOptions topts = TraceOptions::fromOptions(opts);
    enableTracing(viam, topts);
    viam.tracePhase(k.phase);
    Timeline timeline;
    if (spec.timeline)
        timeline.install(viam, Tick(opts.getUInt("timeline")));
    kernels::RunOutcome vres =
        k.run(viam, kernels::Partition::Static, true);
    report(k.accelLabel.c_str(), viam, base_cycles);
    timeline.print();

    bool ok = vres.ok && !inject;
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    ok = finishTracing(viam, topts) && ok;
    maybeCheckpoint(opts, viam);
    dumpStats(opts, viam);
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
dumpStatsMulti(const Options &opts, MultiMachine &mm)
{
    if (opts.getBool("json")) {
        std::cout << "{\"shared\": ";
        mm.stats().dumpJson(std::cout);
        for (unsigned c = 0; c < mm.cores(); ++c) {
            std::cout << ", \"core" << c << "\": ";
            mm.core(c).stats().dumpJson(std::cout);
        }
        std::cout << "}\n";
    } else if (opts.getBool("stats")) {
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

/** cores>1: the parallel baseline, then the parallel kernel of the
 *  machine's backend, each on a fresh machine set; a run's cycles
 *  are the makespan, the slowest core's commit front. */
int
runParallel(const kernels::KernelSpec &spec,
            const kernels::KernelInput &k, const Options &opts,
            const MachineParams &params, unsigned cores)
{
    auto part = kernels::parsePartition(opts.getString("partition"));
    SharedLlcParams llcp = sharedLlcParamsFrom(opts, params, cores);
    TraceOptions topts = TraceOptions::fromOptions(opts);
    std::printf("%s: %s  (%u cores, %s)\n", spec.title.c_str(),
                k.shape.c_str(), cores, kernels::partitionName(part));

    MultiMachine base(params, cores, llcp);
    Tick bcycles = k.run(base, part, false).cycles;
    reportMulti(k.parallelBaseLabel.c_str(), base, bcycles, 0);

    MultiMachine viam(params, cores, llcp);
    if (topts.active())
        viam.enableTracing(topts.limit);
    kernels::RunOutcome vres = k.run(viam, part, true);
    reportMulti(k.accelLabel.c_str(), viam, vres.cycles, bcycles);

    bool ok = vres.ok && !injectError(spec, opts);
    std::printf("result check: %s\n", ok ? "ok" : "MISMATCH");
    if (topts.active())
        ok = finishTracingMulti(viam, topts) && ok;
    dumpStatsMulti(opts, viam);
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

/**
 * The sweep_kb x sweep_ports grid. Each point's machine is the
 * command line's with sspm_kb= and ports= replaced, and each item
 * is checked as the key it replaces, so a bad point is a usage
 * error (exit 2) before any point runs.
 */
std::vector<MachineParams>
sweepGrid(const Options &opts)
{
    const auto kbs = opts.getList("sweep_kb", "sspm_kb");
    const auto port_list = opts.getList("sweep_ports", "ports");
    std::vector<MachineParams> grid;
    for (const std::string &kb : kbs)
        for (const std::string &ports : port_list)
            grid.push_back(machineParamsFrom(
                opts.with("sspm_kb", kb).with("ports", ports)));
    return grid;
}

int
runSweep(const kernels::KernelSpec &spec, const kernels::KernelInput &k,
         const Options &opts, const std::vector<MachineParams> &grid)
{
    // Each sweep point has its own Machine, so tracing stays
    // race-free: every point writes its own file, distinguished by
    // a _<kb>_<ports>p suffix before the extension. The stdout
    // roll-up would interleave across worker threads, so it is
    // disabled here.
    TraceOptions topts = TraceOptions::fromOptions(opts);
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
        kernels::RunOutcome res =
            k.run(m, kernels::Partition::Static, true);
        bool ok = finishTracing(m, topts, "_" + params.via.name());
        return SweepPoint{res.cycles, ok && res.ok, false};
    };

    SweepExecutor exec(unsigned(opts.getUInt("threads")));
    std::fprintf(stderr, "sweeping %zu configs on %u threads\n",
                 grid.size(), exec.threads());
    auto results = exec.run(grid.size(),
                            [&](std::size_t i) { return point(grid[i]); });

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
        std::string name = grid[i].via.name();
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
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!args.empty() && args[0].find('=') == std::string::npos &&
        args[0][0] != '-')
        args[0] = "kernel=" + args[0];
    opts.parse(args);
    applySelfProfOption(opts);
    if (!opts.given("kernel")) {
        std::string names;
        for (const std::string &name : kernels::kernelNames())
            names += (names.empty() ? "" : "|") + name;
        std::fprintf(stderr,
                     "usage: via_sim <%s> [key=value ...]\n"
                     "       (via_sim help=1 for the key table)\n",
                     names.c_str());
        return 2;
    }
    const kernels::KernelSpec &spec = kernels::selectKernel(opts);
    auto cores = unsigned(opts.getUInt("cores"));

    if (opts.getBool("debug"))
        setLogLevel(LogLevel::Debug);
    Rng rng(opts.getUInt("seed"));

    MachineParams params = machineParamsFrom(opts);
    const sample::SampleOptions sopts =
        sample::SampleOptions::fromOptions(opts);
    const bool sweep = opts.getBool("sweep");
    std::vector<MachineParams> grid;
    if (sweep) {
        if (cores > 1)
            opts.usageError("sweep=1 is single-core; drop cores=");
        if (params.backend.kind != BackendKind::Via)
            opts.usageError("sweep=1 sweeps VIA SSPM configurations; "
                            "it requires backend=via");
        grid = sweepGrid(opts);
    } else if (cores > 1) {
        if (sopts.mode != sample::SimMode::Detailed)
            opts.usageError("cores>1 supports mode=detailed only "
                            "(sampling and checkpoints are "
                            "single-core)");
        if (opts.given("checkpoint") || opts.given("restore"))
            opts.usageError("cores>1 cannot checkpoint/restore: the "
                            "cores share one memory image");
    }

    const kernels::KernelInput k =
        spec.build(opts, params.backend.kind, rng);
    if (sweep)
        return runSweep(spec, k, opts, grid);
    kernels::requireFits(spec, k, params);
    if (cores > 1)
        return runParallel(spec, k, opts, params, cores);
    return runSingle(spec, k, opts, params, sopts);
}
