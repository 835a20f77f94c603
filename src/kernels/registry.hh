/**
 * @file
 * The kernel registry: the one place a kernel is defined for the
 * drivers (via_sim, via_db).
 *
 * An entry names a kernel and builds its input from the shared input
 * keys (addInputOptions). The built KernelInput carries the header
 * shape, the report labels and closures for every way a driver runs
 * the kernel: the single-core software baselines, the accelerated
 * kernel matching the machine's backend, and the cores>1 kernel,
 * each checked against a host golden computed once. A driver is
 * then one generic loop over an entry, whatever the kernel.
 *
 * Adding a kernel: write its range bodies (kernels/ranges.hh), its
 * single-core and parallel entry points, and one builder here.
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
    /** The kernel variant matching the machine's backend. */
    std::function<RunOutcome(Machine &)> accel;

    std::string parallelBaseLabel;
    /** cores>1: the VIA kernel, or with via=false the baseline. */
    std::function<RunOutcome(MultiMachine &, Partition, bool via)>
        parallel;

    /** False when the accelerated kernel cannot run on a machine
     *  (SpMM: every row of A must fit the CAM); unset: always. */
    std::function<bool(const MachineParams &)> fits;
};

/** One registry entry. */
struct KernelSpec
{
    std::string name;  //!< kernel= value
    std::string title; //!< header title ("SpMV")
    /** format= values; empty when the kernel takes no format. */
    std::vector<std::string> formats{};
    /** format= values with a cores>1 kernel. */
    std::vector<std::string> parallelFormats{};
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

/**
 * Register the input keys the builders read: mtx=/matrix=, rows=,
 * density=, family=, seed=, format=, keys=, buckets=, px= (default
 * @p px) and, with @p stream, stream=.
 */
void addInputOptions(Options &opts, std::uint64_t px, bool stream);

/**
 * The entry named @p name, once it and format= / partition= (when
 * the harness registers the multi-core keys) are known to be valid
 * for a run on @p cores. Anything else is a usage error (exit 2)
 * naming the valid values, before any input is built.
 */
const KernelSpec &selectKernel(const Options &opts,
                               const std::string &name,
                               unsigned cores);

} // namespace via::kernels

#endif // VIA_KERNELS_REGISTRY_HH
