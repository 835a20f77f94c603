#include "cpu/core_params.hh"

#include "simcore/log.hh"

namespace via
{

std::uint32_t
CoreParams::unitsFor(FuClass cls) const
{
    switch (cls) {
      case FuClass::None:
        return 0;
      case FuClass::IntAlu:
        return intAluUnits;
      case FuClass::VecAlu:
        return vecAluUnits;
      case FuClass::VecFp:
        return vecFpUnits;
      case FuClass::VecFpMul:
        return vecFpMulUnits;
      case FuClass::VecRed:
        return vecRedUnits;
      case FuClass::VecPerm:
        return vecPermUnits;
      case FuClass::LoadPort:
        return loadPorts;
      case FuClass::StorePort:
        return storePorts;
      default:
        via_panic("unitsFor: bad FU class");
    }
}

void
MachineParams::print(std::ostream &os) const
{
    os << "Core (Table I)\n"
       << "  clock               " << core.clockGhz << " GHz\n"
       << "  pipeline            out-of-order, dispatch "
       << core.dispatchWidth << "-wide, commit " << core.commitWidth
       << "-wide\n"
       << "  ROB                 " << core.robSize << " entries\n"
       << "  vector width        " << VECTOR_BITS << " bit (AVX2-like, "
       << lanesFor(valueType) << " lanes of "
       << 8 * elemBytes(valueType) << "-bit)\n"
       << "  L1D ports           " << core.loadPorts << " load, "
       << core.storePorts << " store\n";
    os << "Memory hierarchy\n";
    for (const auto &l : mem.levels) {
        os << "  " << l.name << "                 "
           << l.sizeBytes / 1024 << " KB, " << l.assoc << "-way, "
           << l.hitLatency << "-cycle, " << l.mshrs << " MSHRs\n";
    }
    os << "  dram                " << mem.dram.latency
       << "-cycle latency, " << mem.dram.bytesPerCycle
       << " B/cycle (" << mem.dram.bytesPerCycle * core.clockGhz
       << " GB/s)\n";
    os << "  backend             " << backendName(backend.kind);
    if (backend.kind == BackendKind::Ssr)
        os << " (" << backend.ssrStreams << " stream registers)";
    else if (backend.kind == BackendKind::IndexMac)
        os << " (" << backend.imacRows << " row-buffer entries)";
    os << "\n";
    os << "VIA (" << via.name() << ")\n"
       << "  SSPM                " << via.sspmBytes / 1024 << " KB, "
       << via.ports << " ports, " << via.valueBytes
       << "-byte blocks\n"
       << "  index table (CAM)   " << via.camBytes / 1024 << " KB, "
       << via.camEntries() << " entries, banks of "
       << via.bankEntries << "\n";
}

} // namespace via
