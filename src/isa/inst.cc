#include "isa/inst.hh"

namespace via
{

Tick
OpLatencies::latencyOf(Op op) const
{
    if (op == Op::VConflict)
        return vecConflict;
    if (op == Op::VMergeIdx) {
        // log2(VL) permute+add stages executed as one macro-op.
        return 3 * (vecPerm + vecFp);
    }
    switch (fuClassOf(op)) {
      case FuClass::None:
        return 0;
      case FuClass::IntAlu:
        return intAlu;
      case FuClass::VecAlu:
        return vecAlu;
      case FuClass::VecFp:
        return vecFp;
      case FuClass::VecFpMul:
        return vecFpMul;
      case FuClass::VecRed:
        return vecRed;
      case FuClass::VecPerm:
        return vecPerm;
      case FuClass::LoadPort:
      case FuClass::StorePort:
        // Memory time is computed by the LSQ/MemSystem; the fixed
        // part here covers address generation.
        return op == Op::VGather ? gatherOverhead
             : op == Op::VScatter ? scatterOverhead
             : op == Op::SsrFma ? vecFpMul
             : (op == Op::VImacF || op == Op::VImacStF)
                 ? imacOverhead
             : 1;
      case FuClass::Fivu: {
        // SSPM request serialization is added by the FIVU model.
        switch (op) {
          case Op::VidxMulD:
          case Op::VidxMulC:
          case Op::VidxBlkMulD:
            return viaOp + vecFpMul;
          case Op::VidxAddD:
          case Op::VidxAddC:
          case Op::VidxSubD:
          case Op::VidxSubC:
            return viaOp + vecFp;
          default:
            return viaOp;
        }
      }
      default:
        return 1;
    }
}

} // namespace via
