#include "isa/opcodes.hh"

#include "simcore/log.hh"

namespace via
{

bool
isMemOp(Op op)
{
    switch (op) {
      case Op::SLoad:
      case Op::SStore:
      case Op::VLoad:
      case Op::VStore:
      case Op::VGather:
      case Op::VScatter:
      case Op::SsrPopV:
      case Op::SsrPopS:
      case Op::SsrFma:
      case Op::VImacF:
      case Op::VImacStF:
        return true;
      default:
        return false;
    }
}

bool
isViaOp(Op op)
{
    switch (op) {
      case Op::VidxLoadD:
      case Op::VidxLoadC:
      case Op::VidxMov:
      case Op::VidxKeys:
      case Op::VidxVals:
      case Op::VidxCount:
      case Op::VidxClear:
      case Op::VidxAddD:
      case Op::VidxAddC:
      case Op::VidxSubD:
      case Op::VidxSubC:
      case Op::VidxMulD:
      case Op::VidxMulC:
      case Op::VidxBlkMulD:
        return true;
      default:
        return false;
    }
}

bool
isSsrOp(Op op)
{
    switch (op) {
      case Op::SsrCfg:
      case Op::SsrPopV:
      case Op::SsrPopS:
      case Op::SsrFma:
        return true;
      default:
        return false;
    }
}

FuClass
fuClassOf(Op op)
{
    switch (op) {
      case Op::Nop:
        return FuClass::None;
      case Op::SAlu:
      case Op::SBranch:
        return FuClass::IntAlu;
      case Op::SFAdd:
        return FuClass::VecFp;
      case Op::SFMul:
        return FuClass::VecFpMul;
      case Op::SLoad:
      case Op::VLoad:
      case Op::VGather:
      case Op::SsrPopV:
      case Op::SsrPopS:
      case Op::SsrFma:
      case Op::VImacF:
        return FuClass::LoadPort;
      case Op::SStore:
      case Op::VStore:
      case Op::VScatter:
      case Op::VImacStF:
        return FuClass::StorePort;
      case Op::SsrCfg:
        return FuClass::None;
      case Op::VAddF:
        return FuClass::VecFp;
      case Op::VMulF:
      case Op::VFmaF:
        return FuClass::VecFpMul;
      case Op::VAddI:
      case Op::VAndI:
      case Op::VShrI:
      case Op::VCmpLtI:
      case Op::VBroadcastF:
      case Op::VBroadcastI:
      case Op::VIota:
        return FuClass::VecAlu;
      case Op::VRedSumF:
        return FuClass::VecRed;
      case Op::VCompress:
      case Op::VExpand:
      case Op::VConflict:
      case Op::VMergeIdx:
        return FuClass::VecPerm;
      default:
        break;
    }
    if (isViaOp(op))
        return FuClass::Fivu;
    via_panic("fuClassOf: unhandled op ", int(op));
}

std::string_view
mnemonic(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::SAlu: return "salu";
      case Op::SFAdd: return "sfadd";
      case Op::SFMul: return "sfmul";
      case Op::SBranch: return "sbr";
      case Op::SLoad: return "sld";
      case Op::SStore: return "sst";
      case Op::VLoad: return "vld";
      case Op::VStore: return "vst";
      case Op::VGather: return "vgather";
      case Op::VScatter: return "vscatter";
      case Op::VAddF: return "vaddf";
      case Op::VMulF: return "vmulf";
      case Op::VFmaF: return "vfmaf";
      case Op::VAddI: return "vaddi";
      case Op::VAndI: return "vandi";
      case Op::VShrI: return "vshri";
      case Op::VCmpLtI: return "vcmplti";
      case Op::VRedSumF: return "vredsumf";
      case Op::VBroadcastF: return "vbcastf";
      case Op::VBroadcastI: return "vbcasti";
      case Op::VIota: return "viota";
      case Op::VCompress: return "vcompress";
      case Op::VExpand: return "vexpand";
      case Op::VConflict: return "vconflict";
      case Op::VMergeIdx: return "vmergeidx";
      case Op::VidxLoadD: return "vidx.load.d";
      case Op::VidxLoadC: return "vidx.load.c";
      case Op::VidxMov: return "vidx.mov";
      case Op::VidxKeys: return "vidx.keys";
      case Op::VidxVals: return "vidx.vals";
      case Op::VidxCount: return "vidx.count";
      case Op::VidxClear: return "vidx.clear";
      case Op::VidxAddD: return "vidx.add.d";
      case Op::VidxAddC: return "vidx.add.c";
      case Op::VidxSubD: return "vidx.sub.d";
      case Op::VidxSubC: return "vidx.sub.c";
      case Op::VidxMulD: return "vidx.mul.d";
      case Op::VidxMulC: return "vidx.mul.c";
      case Op::VidxBlkMulD: return "vidx.blkmul.d";
      case Op::SsrCfg: return "ssr.cfg";
      case Op::SsrPopV: return "ssr.popv";
      case Op::SsrPopS: return "ssr.pops";
      case Op::SsrFma: return "ssr.fma";
      case Op::VImacF: return "vimac.f";
      case Op::VImacStF: return "vimac.st.f";
      default: return "<bad-op>";
    }
}

} // namespace via
