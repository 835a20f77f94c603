#include "power/energy_model.hh"

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"

namespace via
{

EnergyBreakdown
computeEnergy(const Machine &m, const EnergyParams &params)
{
    EnergyBreakdown e;
    const CoreStats &core = m.core().stats();

    e.corePj = double(core.insts) * params.instOverheadPj +
               double(core.scalarInsts) * params.scalarOpPj +
               double(core.vectorInsts) * params.vectorOpPj;

    const MemSystem &mem = m.memSystem();
    for (std::size_t lvl = 0; lvl < mem.numLevels(); ++lvl) {
        const CacheStats &cs = mem.level(lvl).stats();
        double per = lvl == 0 ? params.l1AccessPj
                              : params.l2AccessPj;
        e.cachePj += double(cs.accesses()) * per;
    }
    const DramStats &ds = mem.dram().stats();
    e.dramPj = double(ds.bytesRead + ds.bytesWritten) *
               params.dramPjPerByte;

    // The accelerator's share comes from the backend: SSPM/CAM
    // events for VIA, stream transfers for SSR, row-buffer tag
    // matches for IndexMAC.
    e.sspmPj = m.backend().accelDynamicPj(params.sspmElementPj,
                                          params.camComparePj);

    // Leakage: core + accelerator over the simulated interval.
    double seconds = double(m.cycles()) /
                     (params.clockGhz * 1e9);
    double accel_leak_mw = m.backend().accelLeakageMw();
    e.leakagePj = (params.coreLeakageMw + accel_leak_mw) * 1e-3 *
                  seconds * 1e12;
    return e;
}

EnergyBreakdown
computeEnergyMulti(const MultiMachine &mm,
                   const EnergyParams &params)
{
    EnergyBreakdown total;
    double seconds = double(mm.cycles()) /
                     (params.clockGhz * 1e9);
    for (unsigned i = 0; i < mm.cores(); ++i) {
        const Machine &m = mm.core(i);
        EnergyBreakdown e = computeEnergy(m, params);
        total.corePj += e.corePj;
        total.cachePj += e.cachePj;
        total.dramPj += e.dramPj; // zero at cores>1 (shared DRAM)
        total.sspmPj += e.sspmPj;
        // Re-integrate this core's leakage over the makespan: the
        // per-machine breakdown stops at the core's own commit
        // front, but an idle core leaks until the slowest finishes.
        double accel_leak_mw = m.backend().accelLeakageMw();
        total.leakagePj += (params.coreLeakageMw + accel_leak_mw) *
                           1e-3 * seconds * 1e12;
    }
    // The shared level (cores>1): LLC tag walks cost an L2-class
    // access, misses pay the single shared DRAM per byte. One core
    // has none, so its breakdown is computeEnergy's.
    if (mm.cores() > 1) {
        total.cachePj += double(mm.llc().tags().stats().accesses()) *
                         params.l2AccessPj;
        const DramStats &ds = mm.llc().dram().stats();
        total.dramPj += double(ds.bytesRead + ds.bytesWritten) *
                        params.dramPjPerByte;
    }
    return total;
}

} // namespace via
