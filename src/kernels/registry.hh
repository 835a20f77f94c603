/**
 * @file
 * The kernel registry: the one place a kernel is defined for the
 * drivers (via_sim, via_db).
 *
 * An entry names a kernel and builds its input from the shared input
 * keys (addInputOptions). The built KernelInput carries the header
 * shape, the report labels and closures for every way a driver runs
 * the kernel: the single-core software baselines, and one run
 * closure over any cores (a Machine or a MultiMachine) for the
 * accelerated kernel matching the machine's backend or the software
 * baseline, each checked against a host golden computed once. A
 * driver is then one generic loop over an entry, whatever the kernel
 * and however many cores.
 *
 * Adding a kernel: write its range bodies, their backend table and
 * its runner (kernels/ranges.hh, kernels/parallel.hh), and one
 * builder here.
 */

#ifndef VIA_KERNELS_REGISTRY_HH
#define VIA_KERNELS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/parallel.hh"
#include "simcore/options.hh"
#include "simcore/rng.hh"

namespace via::kernels
{

/** Cycles and golden-check verdict of one kernel run. */
struct RunOutcome
{
    Tick cycles = 0;
    bool ok = false;
};

/**
 * One kernel's input, built once, and every way a driver runs it.
 * The closures share the input and its golden read-only, so sweep
 * workers may call them concurrently and a debugger rewind replays
 * them verbatim.
 */
struct KernelInput
{
    /** A single-core software baseline; returns its cycles. */
    struct Baseline
    {
        std::string label;
        std::function<Tick(Machine &)> run;
    };

    std::string shape;   //!< "128x128, 464 nnz": every header's tail
    std::string variant; //!< the SpMV format; empty for the others
    std::string phase;   //!< trace phase of the accelerated run

    /** Baseline rows in print order; the rows after the first and
     *  the accelerated row report speedup over the first. */
    std::vector<Baseline> baselines;

    std::string accelLabel;
    /** cores>1: the label of the run with accel=false. */
    std::string parallelBaseLabel;
    /** The kernel's runner on @p cores: the variant matching the
     *  machine's backend, or with accel=false the software baseline. */
    std::function<RunOutcome(Cores cores, Partition, bool accel)> run;

    /** False when the accelerated kernel cannot run on a machine
     *  (SpMM on backend=via: every row of A must fit the CAM);
     *  unset: always. */
    std::function<bool(const MachineParams &)> fits;
};

/** One registry entry. */
struct KernelSpec
{
    std::string name;  //!< kernel= value
    std::string title; //!< header title ("SpMV")
    /** timeline= samples the accelerated run (SpMV only). */
    bool timeline = false;
    /** inject_error= fails the result check (stencil only). */
    bool injectable = false;
    /** Build the input, drawing from @p rng; the accelerated
     *  label follows @p backend. */
    KernelInput (*build)(const Options &opts, BackendKind backend,
                         Rng &rng) = nullptr;
};

/** Every kernel, in the order usage errors list them. */
const std::vector<KernelSpec> &kernelRegistry();

/** Every kernel name, in registry order: the values of kernel=. */
std::vector<std::string> kernelNames();

/**
 * Register the input keys the builders read: mtx=/matrix=, rows=,
 * density=, family=, seed=, format=, keys=, buckets= and px=
 * (default @p px; at least 4, the stencil filter's side). family=
 * and format= accept only their listed values. With mtx=/matrix=,
 * SpMA and SpMM read the file once and use it for both operands.
 */
void addInputOptions(Options &opts, std::uint64_t px);

/**
 * Exit 1 when the accelerated kernel cannot run @p k on a machine
 * built from @p params (KernelInput::fits), naming the CAM size and
 * the keys that raise it. Drivers call it as soon as the input is
 * built, so such an input fails before any baseline is simulated.
 */
void requireFits(const KernelSpec &spec, const KernelInput &k,
                 const MachineParams &params);

/**
 * The entry named by the kernel= key of @p opts, registered with
 * kernelNames() as its values, so parse() has already rejected
 * any other name (exit 2).
 */
const KernelSpec &selectKernel(const Options &opts);

} // namespace via::kernels

#endif // VIA_KERNELS_REGISTRY_HH
