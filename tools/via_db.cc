/**
 * @file
 * via_db — interactive cycle-level debugger for the VIA simulator.
 *
 * Wraps one kernel run (the same kernels and inputs via_sim drives)
 * in a debug::DebugSession: set breakpoints on opcodes, watch
 * addresses / cache lines / CAM and SSPM pressure, step or run to a
 * cycle or instruction count, inspect ROB/LSQ/SSPM/CAM/cache state,
 * and save/load in-session checkpoints (rewind by deterministic
 * replay, byte-verified). See docs/debugger.md.
 *
 * Usage:
 *   via_db [key=value ...]            interactive (stdin commands)
 *   via_db script=session.dbg ...     scripted, deterministic output
 *
 * Keys:
 *   kernel=K        spmv|spma|spmm|histogram|stencil (default spmv)
 *   format=FMT      spmv format: csr|spc5|sell|csb   (default csb)
 *   mtx=/matrix=    Matrix Market input (else synthetic)
 *   rows=N density=D family=F seed=S  synthetic input (as via_sim)
 *   keys=N buckets=B px=N             histogram / stencil inputs
 *   script=PATH     read commands from PATH instead of stdin
 *   echo=0          suppress command echo in script mode
 *   cores=N         debug the kernel on N cores over a shared LLC
 *                   (checkpoints need cores=1)
 *
 * The machine group (backend=, sspm_kb=, rob=, ...) matches every
 * other harness. The observer-based stop engine cannot perturb the
 * schedule, so a stopped-and-continued session prints a `final:`
 * line bit-identical to an uninterrupted run — CTest pins this.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "debug/session.hh"
#include "kernels/registry.hh"
#include "simcore/log.hh"
#include "simcore/options.hh"
#include "simcore/rng.hh"

using namespace via;

namespace
{

Options
dbOptions()
{
    Options opts("via_db",
                 "Interactive / scripted cycle-level debugger: run "
                 "one kernel under breakpoints, watchpoints, state "
                 "inspection and checkpoint rewind");
    opts.addString("kernel", "spmv",
                   "kernel to debug: "
                   "spmv|spma|spmm|histogram|stencil",
                   kernels::kernelNames())
        .addString("script", "",
                   "command script (default: interactive stdin)")
        .addBool("echo", true, "echo script commands as they run");
    kernels::addInputOptions(opts, 64);
    addMachineOptions(opts);
    addMultiCoreOptions(opts);
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = dbOptions();
    opts.parse(argc, argv);

    const auto cores = unsigned(opts.getUInt("cores"));
    const kernels::KernelSpec &spec = kernels::selectKernel(opts);
    MachineParams params = machineParamsFrom(opts);

    // The input and its golden are built once here, so every rewind
    // replay re-runs the identical work.
    Rng rng(opts.getUInt("seed"));
    auto k = std::make_shared<const kernels::KernelInput>(
        spec.build(opts, params.backend.kind, rng));
    kernels::requireFits(spec, *k, params);
    std::string tag = k->variant.empty() ? "" : " (" + k->variant + ")";
    std::printf("target: %s%s, %s\n", spec.name.c_str(), tag.c_str(),
                k->shape.c_str());
    const auto part = kernels::parsePartition(opts.getString("partition"));
    debug::KernelFn kfn = [k, part](MultiMachine &mm) {
        return k->run(mm, part, true).ok;
    };
    SharedLlcParams llcp = sharedLlcParamsFrom(opts, params, cores);
    debug::TargetFactory factory = [params, cores, llcp] {
        return std::make_unique<MultiMachine>(params, cores, llcp);
    };

    const std::string script = opts.getString("script");
    std::ifstream script_in;
    debug::SessionConfig scfg;
    if (!script.empty()) {
        script_in.open(script);
        if (!script_in)
            via_fatal("cannot open script '", script, "'");
        scfg.commands = &script_in;
        scfg.echo = opts.getBool("echo");
        scfg.prompt = false;
    } else {
        scfg.commands = &std::cin;
        scfg.echo = false;
        scfg.prompt = true;
    }
    scfg.out = &std::cout;

    debug::DebugSession session(std::move(factory), std::move(kfn),
                                scfg);
    return session.run();
}
