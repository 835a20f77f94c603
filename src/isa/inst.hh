/**
 * @file
 * Timing metadata for one dynamic instruction.
 *
 * Functional execution happens eagerly in the Machine facade; the
 * timing model only needs dependencies, the functional-unit class,
 * the memory footprint, and (for VIA ops) the SSPM request counts.
 * Inst is therefore a small POD that flows from the assembler into
 * the out-of-order scheduler.
 */

#ifndef VIA_ISA_INST_HH
#define VIA_ISA_INST_HH

#include <array>
#include <cstdint>

#include "isa/opcodes.hh"
#include "simcore/types.hh"

namespace via
{

/** One cache-visible memory access made by an instruction. */
struct MemAccess
{
    Addr addr = 0;
    std::uint32_t bytes = 0;
    bool isWrite = false;
};

/**
 * Register-id namespace shared by scalar and vector registers:
 * scalar regs occupy ids [0, NUM_SREGS), vector regs follow.
 */
constexpr int REG_NONE = -1;

/** Maximum source operands an instruction can name. */
constexpr int MAX_SRCS = 3;

/** Maximum cache accesses one instruction can carry: up to one per
 *  gather/scatter lane, plus the stream-descriptor chunks an SSR
 *  fused op reads alongside its lanes. */
constexpr std::uint32_t MAX_INST_ACCESSES = 12;

/** Dynamic-instruction timing record. */
struct Inst
{
    Op op = Op::Nop;
    std::uint8_t vl = 0;       //!< active elements (0 for scalar ops)
    std::int16_t dst = REG_NONE;
    std::array<std::int16_t, MAX_SRCS> src{REG_NONE, REG_NONE,
                                           REG_NONE};

    /** Memory accesses (up to one per lane for gathers/scatters). */
    std::array<MemAccess, MAX_INST_ACCESSES> accesses{};
    std::uint8_t numAccesses = 0;

    /** SSPM element requests (VIA ops only). */
    std::uint16_t sspmReads = 0;
    std::uint16_t sspmWrites = 0;
    /** CAM searches performed (VIA CAM-mode ops only). */
    std::uint16_t camSearches = 0;

    /** Data-dependent branch metadata (SBranch only). */
    bool isDataBranch = false;
    bool branchTaken = false;
    std::uint32_t branchSite = 0;

    SeqNum seq = 0;

    void
    addAccess(Addr addr, std::uint32_t bytes, bool is_write)
    {
        accesses[numAccesses++] = MemAccess{addr, bytes, is_write};
    }

    bool isMem() const { return isMemOp(op); }
    bool isVia() const { return isViaOp(op); }
};

/** Per-op execution latencies (cycles in the functional unit). */
struct OpLatencies
{
    Tick intAlu = 1;
    Tick vecAlu = 1;
    Tick vecFp = 4;      //!< FP add/sub
    Tick vecFpMul = 5;   //!< FP mul / FMA
    Tick vecRed = 8;     //!< horizontal reduction
    Tick vecPerm = 3;    //!< cross-lane shuffle
    Tick vecConflict = 17; //!< vpconflictd measured cost on Skylake-X
    /**
     * Fixed startup beyond the per-element cache accesses. The paper
     * cites 22 cycles best case for an 8-lane gather on Intel cores;
     * with 8 L1 hits on 2 ports (4 cycles) that leaves ~18 cycles of
     * index-extraction/merge overhead.
     */
    Tick gatherOverhead = 18;
    Tick scatterOverhead = 14;
    /**
     * L1-port slots consumed per gathered/scattered element: indexed
     * accesses split into address-generation + load uops, so their
     * sustained throughput is well below one element per port-cycle
     * (Haswell: ~0.5-0.7 elements/cycle for vgatherdps).
     */
    Tick gatherPortFactor = 2;
    Tick viaOp = 2;      //!< FIVU pre/post processing overhead
    /**
     * Cycles to (re)program one SSR stream descriptor: address
     * bounds, stride and element type land in the streamer before
     * the first pop can issue (backend=ssr only).
     */
    Tick ssrSetup = 6;
    /**
     * Fixed cost of one indexed-MAC macro-op beyond its cache
     * accesses: index extraction and in-cache accumulate sequencing
     * (backend=indexmac only).
     */
    Tick imacOverhead = 8;
    /** Front-end redirect cost after a mispredicted branch. */
    Tick mispredictPenalty = 14;
    /**
     * Extra stall when a load hits data still sitting in the store
     * queue. Simple aligned scalar cases forward cheaply on real
     * cores, but the scattered partial-result updates of BBF sparse
     * kernels routinely fail fast-forwarding and replay (the
     * "store-load forwarding" cost of paper Section II-C).
     */
    Tick storeForwardPenalty = 10;

    /** Execution latency for @p op, excluding cache/SSPM time. */
    Tick latencyOf(Op op) const;
};

} // namespace via

#endif // VIA_ISA_INST_HH
