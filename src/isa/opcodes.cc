#include "isa/opcodes.hh"

#include <iterator>

#include "simcore/log.hh"

namespace via
{

namespace
{

/** The op properties a row can set. */
enum OpFlags : unsigned
{
    kMem = 1, //!< visits the caches (isMemOp)
    kVia = 2, //!< a VIA instruction (isViaOp)
    kSsr = 4, //!< an SSR stream op (isSsrOp)
};

/** Everything the simulator asks of one op. */
struct OpInfo
{
    Op op;
    std::string_view mnemonic;
    FuClass fu;
    unsigned flags = 0;
};

/** One row per Op, in enum order. */
constexpr OpInfo kOps[] = {
    {Op::Nop, "nop", FuClass::None},

    {Op::SAlu, "salu", FuClass::IntAlu},
    {Op::SFAdd, "sfadd", FuClass::VecFp},
    {Op::SFMul, "sfmul", FuClass::VecFpMul},
    {Op::SBranch, "sbr", FuClass::IntAlu},
    {Op::SLoad, "sld", FuClass::LoadPort, kMem},
    {Op::SStore, "sst", FuClass::StorePort, kMem},

    {Op::VLoad, "vld", FuClass::LoadPort, kMem},
    {Op::VStore, "vst", FuClass::StorePort, kMem},
    {Op::VGather, "vgather", FuClass::LoadPort, kMem},
    {Op::VScatter, "vscatter", FuClass::StorePort, kMem},

    {Op::VAddF, "vaddf", FuClass::VecFp},
    {Op::VMulF, "vmulf", FuClass::VecFpMul},
    {Op::VFmaF, "vfmaf", FuClass::VecFpMul},
    {Op::VAddI, "vaddi", FuClass::VecAlu},
    {Op::VAndI, "vandi", FuClass::VecAlu},
    {Op::VShrI, "vshri", FuClass::VecAlu},
    {Op::VCmpLtI, "vcmplti", FuClass::VecAlu},
    {Op::VRedSumF, "vredsumf", FuClass::VecRed},
    {Op::VBroadcastF, "vbcastf", FuClass::VecAlu},
    {Op::VBroadcastI, "vbcasti", FuClass::VecAlu},
    {Op::VIota, "viota", FuClass::VecAlu},

    {Op::VCompress, "vcompress", FuClass::VecPerm},
    {Op::VExpand, "vexpand", FuClass::VecPerm},
    {Op::VConflict, "vconflict", FuClass::VecPerm},
    {Op::VMergeIdx, "vmergeidx", FuClass::VecPerm},

    {Op::VidxLoadD, "vidx.load.d", FuClass::Fivu, kVia},
    {Op::VidxLoadC, "vidx.load.c", FuClass::Fivu, kVia},
    {Op::VidxMov, "vidx.mov", FuClass::Fivu, kVia},
    {Op::VidxKeys, "vidx.keys", FuClass::Fivu, kVia},
    {Op::VidxVals, "vidx.vals", FuClass::Fivu, kVia},
    {Op::VidxCount, "vidx.count", FuClass::Fivu, kVia},
    {Op::VidxClear, "vidx.clear", FuClass::Fivu, kVia},
    {Op::VidxAddD, "vidx.add.d", FuClass::Fivu, kVia},
    {Op::VidxAddC, "vidx.add.c", FuClass::Fivu, kVia},
    {Op::VidxSubD, "vidx.sub.d", FuClass::Fivu, kVia},
    {Op::VidxSubC, "vidx.sub.c", FuClass::Fivu, kVia},
    {Op::VidxMulD, "vidx.mul.d", FuClass::Fivu, kVia},
    {Op::VidxMulC, "vidx.mul.c", FuClass::Fivu, kVia},
    {Op::VidxBlkMulD, "vidx.blkmul.d", FuClass::Fivu, kVia},

    {Op::SsrCfg, "ssr.cfg", FuClass::None, kSsr},
    {Op::SsrPopV, "ssr.popv", FuClass::LoadPort, kMem | kSsr},
    {Op::SsrPopS, "ssr.pops", FuClass::LoadPort, kMem | kSsr},
    {Op::SsrFma, "ssr.fma", FuClass::LoadPort, kMem | kSsr},

    {Op::VImacF, "vimac.f", FuClass::LoadPort, kMem},
    {Op::VImacStF, "vimac.st.f", FuClass::StorePort, kMem},
};

static_assert(std::size(kOps) == std::size_t(Op::NumOps),
              "one kOps row per Op");

constexpr bool
rowsInEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kOps); ++i)
        if (kOps[i].op != Op(i))
            return false;
    return true;
}
static_assert(rowsInEnumOrder(), "kOps rows must follow the Op enum");

/** The row of @p op; null for a value past the last op. */
const OpInfo *
infoOf(Op op)
{
    return std::size_t(op) < std::size(kOps) ? &kOps[std::size_t(op)]
                                             : nullptr;
}

bool
hasFlag(Op op, unsigned flag)
{
    const OpInfo *row = infoOf(op);
    return row != nullptr && (row->flags & flag) != 0;
}

} // namespace

bool
isMemOp(Op op)
{
    return hasFlag(op, kMem);
}

bool
isViaOp(Op op)
{
    return hasFlag(op, kVia);
}

bool
isSsrOp(Op op)
{
    return hasFlag(op, kSsr);
}

FuClass
fuClassOf(Op op)
{
    const OpInfo *row = infoOf(op);
    if (row == nullptr)
        via_panic("fuClassOf: unhandled op ", int(op));
    return row->fu;
}

std::string_view
mnemonic(Op op)
{
    const OpInfo *row = infoOf(op);
    return row != nullptr ? row->mnemonic : "<bad-op>";
}

} // namespace via
