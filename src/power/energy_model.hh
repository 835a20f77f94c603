/**
 * @file
 * Event-energy accounting (the paper uses McPAT + CACTI at 22 nm,
 * 0.8 V; Section V-A).
 *
 * Dynamic energy is per-event: each statistic counter in the machine
 * maps to a CACTI-class per-access energy. Leakage integrates the
 * SSPM leakage (area model) and a core leakage constant over the
 * simulated time. The absolute joules matter less than the ratio
 * between baseline and VIA runs — the paper's headline is a 3.8x
 * total-energy reduction for CSB SpMV.
 */

#ifndef VIA_POWER_ENERGY_MODEL_HH
#define VIA_POWER_ENERGY_MODEL_HH

#include <cstdint>

#include "simcore/types.hh"

namespace via
{

class Machine;

/**
 * Per-event energies in picojoules (22 nm class numbers).
 *
 * The per-instruction overhead covers the whole out-of-order engine
 * (fetch, rename, wakeup/select, ROB) — McPAT attributes most of a
 * core's dynamic power there, a few hundred pJ per instruction for
 * a Haswell-class design.
 */
struct EnergyParams
{
    double instOverheadPj = 180.0; //!< OoO engine per instruction
    double scalarOpPj = 15.0;
    double vectorOpPj = 55.0;      //!< 256-bit ALU op
    double l1AccessPj = 20.0;
    double l2AccessPj = 80.0;
    double dramPjPerByte = 60.0;
    double sspmElementPj = 2.0;    //!< one 4-byte SSPM port transfer
    double camComparePj = 0.05;    //!< one comparator activation
    double coreLeakageMw = 150.0;  //!< whole-core leakage
    double clockGhz = 2.0;
};

/** Breakdown of one run's energy. */
struct EnergyBreakdown
{
    double corePj = 0.0;   //!< pipeline + ALUs
    double cachePj = 0.0;  //!< L1 + L2 dynamic
    double dramPj = 0.0;
    double sspmPj = 0.0;   //!< SSPM + CAM dynamic
    double leakagePj = 0.0;

    double
    totalPj() const
    {
        return corePj + cachePj + dramPj + sspmPj + leakagePj;
    }
};

/** Compute the breakdown from a machine's counters. */
EnergyBreakdown computeEnergy(const Machine &m,
                              const EnergyParams &params = {});

class MultiMachine;

/**
 * The breakdown for a multi-core machine: per-core terms summed
 * over every core, plus, at cores>1, the shared level the cores'
 * private DRAM counters never see (LLC tag walks at the L2 access
 * energy, shared DRAM traffic per byte). Leakage integrates every
 * core over the makespan — an early-finishing core keeps leaking
 * until the slowest core commits its last instruction. At one core
 * it equals computeEnergy(mm.core(0)).
 */
EnergyBreakdown computeEnergyMulti(const MultiMachine &mm,
                                   const EnergyParams &params = {});

} // namespace via

#endif // VIA_POWER_ENERGY_MODEL_HH
