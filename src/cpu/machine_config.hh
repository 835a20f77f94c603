/**
 * @file
 * Build MachineParams from the machine keys of an Options registry,
 * so every harness and the CLI expose the same sweep knobs;
 * addMachineOptions registers them (help=1 lists them).
 */

#ifndef VIA_CPU_MACHINE_CONFIG_HH
#define VIA_CPU_MACHINE_CONFIG_HH

#include "cpu/core_params.hh"
#include "mem/shared_llc.hh"
#include "simcore/options.hh"

namespace via
{

/**
 * The machine the keys of @p opts describe: Table I defaults with
 * every given key applied. A cam_kb= above sspm_kb= is a usage
 * error (exit 2). @p opts must have the addMachineOptions keys.
 */
MachineParams machineParamsFrom(const Options &opts);

/**
 * Register every machineParamsFrom key with an Options registry —
 * defaults mirror the Table I machine so the generated help table
 * shows what each knob resolves to when omitted.
 */
void addMachineOptions(Options &opts);

/**
 * Register the multi-core keys (cores=, partition=, llc_banks=)
 * with the harnesses that implement a cores>1 path. Kept separate
 * from addMachineOptions so a harness without a multi-core mode
 * rejects cores= as an unknown key instead of silently running
 * single-core.
 */
void addMultiCoreOptions(Options &opts);

/**
 * Shared-LLC parameters for a cores>1 run: the private hierarchy's
 * last level scaled by the core count (SharedLlcParams::from), with
 * the llc_banks= override applied.
 */
SharedLlcParams sharedLlcParamsFrom(const Options &opts,
                                    const MachineParams &params,
                                    unsigned cores);

} // namespace via

#endif // VIA_CPU_MACHINE_CONFIG_HH
