/**
 * @file
 * The simulated instruction set: an AVX2-like vector ISA plus the
 * nine VIA extensions from the paper (Section IV-C).
 *
 * Naming note: the paper's OCR'd mnemonics (vldxload, vldxmov, ...)
 * are normalized here to a vidx.* family:
 *
 *   paper                  | here
 *   -----------------------+---------------------------
 *   vldxload.{d,c}         | VidxLoadD / VidxLoadC
 *   vldxmov                | VidxMov      (SSPM -> VRF)
 *   vldxcount              | VidxCount
 *   "load VL consecutive   | VidxKeys     (index table -> VRF,
 *    indices from table"   |               used by SpMA extraction)
 *   vldxclear              | VidxClear
 *   vldx{add,sub,mult}.{d,c}| Vidx{Add,Sub,Mul}{D,C}
 *   vldxblkmult            | VidxBlkMulD
 */

#ifndef VIA_ISA_OPCODES_HH
#define VIA_ISA_OPCODES_HH

#include <cstdint>
#include <string_view>

namespace via
{

/** Every simulated operation. */
enum class Op : std::uint8_t
{
    Nop = 0,

    // --- scalar ---
    SAlu,    //!< integer ALU op (add, and, shifts, ...)
    SFAdd,   //!< scalar FP add (shares the vector FP adder)
    SFMul,   //!< scalar FP multiply (shares the FP multiplier)
    SBranch, //!< (predicted) conditional branch
    SLoad,   //!< scalar load
    SStore,  //!< scalar store

    // --- vector memory ---
    VLoad,    //!< unit-stride vector load
    VStore,   //!< unit-stride vector store
    VGather,  //!< indexed load, one cache access per active element
    VScatter, //!< indexed store, one cache access per active element

    // --- vector arithmetic ---
    VAddF, VMulF, VFmaF,
    VAddI,
    VAndI, VShrI, //!< immediate bitwise ops (CSB index unpack)
    VCmpLtI,
    VRedSumF, //!< horizontal sum into a scalar register
    VBroadcastF, VBroadcastI,
    VIota,    //!< lane-index constant generation

    // --- vector shuffles / AVX512CD-style helpers ---
    VCompress, //!< pack active lanes to the front
    VExpand,   //!< inverse of compress
    VConflict, //!< vpconflictd-like duplicate-index detection
    VMergeIdx, //!< conflict-merge macro-op: sum lanes w/ equal index
               //!< (the log2(VL) permute+add sequence of [39])

    // --- VIA extensions ---
    VidxLoadD,  //!< VRF -> SSPM[idx], direct-mapped
    VidxLoadC,  //!< VRF -> SSPM, CAM insert/update by key
    VidxMov,    //!< SSPM[idx] -> VRF, direct-mapped read
    VidxKeys,   //!< index table[offset..offset+VL) -> VRF
    VidxVals,   //!< SRAM slot contents [offset..offset+VL) -> VRF
    VidxCount,  //!< element count register -> scalar register
    VidxClear,  //!< flash-clear bitmap / index table
    VidxAddD, VidxAddC,
    VidxSubD, VidxSubC,
    VidxMulD, VidxMulC,
    VidxBlkMulD, //!< CSB block multiply-accumulate inside the SSPM

    // --- SSR baseline extensions (stream semantic registers) ---
    SsrCfg,  //!< bind an affine/indirect stream to a stream register
    SsrPopV, //!< pop VL elements from a stream into a vector register
    SsrPopS, //!< pop one element from a stream into a scalar register
    SsrFma,  //!< fused acc += val_stream * mem[idx_stream], per lane

    // --- IndexMAC baseline extensions (indexed MAC via the caches) ---
    VImacF,   //!< acc[l] += val[l] * mem[base + idx[l]], per lane
    VImacStF, //!< mem[base + idx[l]] += val[l], per lane

    NumOps
};

/** Functional-unit classes used by the issue model. */
enum class FuClass : std::uint8_t
{
    None = 0, //!< zero-latency / folded
    IntAlu,
    VecAlu,   //!< vector int/compare/mask
    VecFp,    //!< vector FP add/sub
    VecFpMul, //!< vector FP mul / FMA
    VecRed,   //!< horizontal reductions
    VecPerm,  //!< cross-lane shuffles, compress, conflict
    LoadPort,
    StorePort,
    Fivu,     //!< VIA instructions
    NumClasses
};

/** True for loads/stores/gathers/scatters (they visit the caches). */
bool isMemOp(Op op);

/** True for any VIA instruction (executes at commit in the FIVU). */
bool isViaOp(Op op);

/** True for the SSR stream ops (backend=ssr only). */
bool isSsrOp(Op op);

/** The functional unit class an op issues to. */
FuClass fuClassOf(Op op);

/** Human-readable mnemonic. */
std::string_view mnemonic(Op op);

} // namespace via

#endif // VIA_ISA_OPCODES_HH
