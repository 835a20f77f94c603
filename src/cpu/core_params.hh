/**
 * @file
 * Parameters of the simulated out-of-order core (paper Table I).
 *
 * The defaults model a Haswell-class x86 core at 2 GHz with AVX2-like
 * 256-bit vectors, which is the machine class the paper simulates in
 * gem5 and compares against for area.
 */

#ifndef VIA_CPU_CORE_PARAMS_HH
#define VIA_CPU_CORE_PARAMS_HH

#include <cstdint>
#include <ostream>

#include "cpu/backend_params.hh"
#include "isa/inst.hh"
#include "isa/vreg.hh"
#include "mem/mem_system.hh"
#include "simcore/types.hh"
#include "via/via_config.hh"

namespace via
{

/** Issue/commit widths, window sizes, and FU counts. */
struct CoreParams
{
    double clockGhz = 2.0;

    std::uint32_t dispatchWidth = 4; //!< insts renamed+dispatched/cycle
    std::uint32_t commitWidth = 4;
    std::uint32_t robSize = 192;

    // Functional-unit counts.
    std::uint32_t intAluUnits = 4;
    std::uint32_t vecAluUnits = 2;
    std::uint32_t vecFpUnits = 2;
    std::uint32_t vecFpMulUnits = 2;
    std::uint32_t vecRedUnits = 1;
    std::uint32_t vecPermUnits = 1;
    std::uint32_t loadPorts = 2;  //!< L1D read ports
    std::uint32_t storePorts = 1; //!< L1D write ports

    /** Stores tracked for load-ordering (store buffer depth). */
    std::uint32_t storeBuffer = 64;

    /** Load-queue entries: bounds loads in flight. */
    std::uint32_t lqEntries = 72;
    /** Store-queue entries: bounds stores awaiting cache drain. */
    std::uint32_t sqEntries = 56;

    /**
     * VIA execution eligibility (Section IV-E). The hardware defers
     * VIA instructions until they are non-speculative. In this
     * perfect-branch-prediction trace model the faithful equivalent
     * is "all older branches resolved" (false, default). Setting
     * true instead delays each VIA instruction until every older
     * instruction has *committed* — a strictly more conservative
     * reading used by the commit-mode ablation benchmark.
     */
    bool viaAtCommit = false;

    OpLatencies latencies;

    /** Units available for a given core FU class, None through
     *  StorePort (the FIVU is not a core FU). */
    std::uint32_t unitsFor(FuClass cls) const;
};

/** Everything needed to build a Machine. */
struct MachineParams
{
    CoreParams core;
    MemSystemParams mem = MemSystemParams::defaults();
    ViaConfig via;
    BackendParams backend;
    ElemType valueType = ElemType::F32;
    ElemType indexType = ElemType::I32;

    /** Print a Table I-style parameter summary. */
    void print(std::ostream &os) const;
};

} // namespace via

#endif // VIA_CPU_CORE_PARAMS_HH
