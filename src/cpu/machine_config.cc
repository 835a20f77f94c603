#include "cpu/machine_config.hh"

#include <limits>

#include "simcore/resource.hh"

namespace via
{

MachineParams
machineParamsFrom(const Options &opts)
{
    MachineParams p;

    const std::uint64_t sspm_kb = opts.getUInt("sspm_kb");
    p.via = ViaConfig::make(sspm_kb,
                            std::uint32_t(opts.getUInt("ports")));
    // The CAM follows the SSPM (a quarter of it) unless cam_kb= is
    // given, so only a given cam_kb= can outgrow the SRAM.
    if (opts.given("cam_kb")) {
        const std::uint64_t cam_kb = opts.getUInt("cam_kb");
        if (cam_kb > sspm_kb)
            opts.usageError(
                "cam_kb=" + std::to_string(cam_kb) + " exceeds sspm_kb=" +
                std::to_string(sspm_kb) +
                ": the CAM cannot track more entries than the SRAM "
                "holds");
        p.via.camBytes = cam_kb * 1024;
    }
    p.via.bankEntries = std::uint32_t(opts.getUInt("cam_bank"));

    p.backend.kind = parseBackendKind(opts.getString("backend"));
    p.backend.ssrStreams = std::uint32_t(opts.getUInt("ssr_streams"));
    p.backend.imacRows = std::uint32_t(opts.getUInt("imac_rows"));

    CoreParams &core = p.core;
    core.robSize = std::uint32_t(opts.getUInt("rob"));
    core.dispatchWidth = std::uint32_t(opts.getUInt("dispatch"));
    core.commitWidth = std::uint32_t(opts.getUInt("commit"));
    core.lqEntries = std::uint32_t(opts.getUInt("lq"));
    core.sqEntries = std::uint32_t(opts.getUInt("sq"));
    core.viaAtCommit = opts.getBool("via_at_commit");

    OpLatencies &lat = core.latencies;
    lat.gatherOverhead = opts.getUInt("gather_overhead");
    lat.gatherPortFactor = opts.getUInt("gather_ports");
    lat.mispredictPenalty = opts.getUInt("mispredict");
    lat.storeForwardPenalty = opts.getUInt("store_forward");
    lat.ssrSetup = opts.getUInt("ssr_setup");
    lat.imacOverhead = opts.getUInt("imac_overhead");

    MemSystemParams &mem = p.mem;
    mem.levels[0].sizeBytes = opts.getUInt("l1_kb") * 1024;
    mem.levels[1].sizeBytes = opts.getUInt("l2_kb") * 1024;
    mem.levels[0].hitLatency = opts.getUInt("l1_lat");
    mem.levels[1].hitLatency = opts.getUInt("l2_lat");
    if (opts.given("mshrs")) {
        mem.levels[0].mshrs = std::uint32_t(opts.getUInt("mshrs"));
        mem.levels[1].mshrs = 2 * mem.levels[0].mshrs;
    }
    mem.dram.latency = opts.getUInt("dram_lat");
    mem.dram.bytesPerCycle = opts.getDouble("dram_bw");
    mem.prefetch.degree = std::uint32_t(opts.getUInt("prefetch"));

    return p;
}

void
addMachineOptions(Options &opts)
{
    // Defaults below are what machineParamsFrom resolves each key to
    // when it is omitted; pull them from the default structs so the
    // help table cannot drift from the model.
    MachineParams d;
    d.via = ViaConfig::make(16, 2);
    const CoreParams &core = d.core;
    const OpLatencies &lat = core.latencies;
    const MemSystemParams &mem = d.mem;
    // Keys read into 32-bit fields stop at that field's maximum; the
    // L2 gets twice mshrs=, so that key stops at half of it. The keys
    // that size a per-cycle Resource (ports=, dispatch=, commit=) stop
    // at the units its one-byte slot counts.
    constexpr std::uint64_t u32max =
        std::numeric_limits<std::uint32_t>::max();
    constexpr std::uint64_t slot_max = Resource::maxUnits;

    opts.addUInt("sspm_kb", 16, "VIA scratchpad (SSPM) size in KB",
                 1)
        .addUInt("ports", 2, "SSPM ports (element moves per cycle)",
                 1, slot_max)
        .addUInt("cam_kb", d.via.camBytes / 1024,
                 "VIA CAM capacity in KB", 1)
        .addUInt("cam_bank", d.via.bankEntries,
                 "CAM entries compared per bank access", 1, u32max)
        .addUInt("rob", core.robSize, "reorder-buffer entries", 1, u32max)
        .addUInt("dispatch", core.dispatchWidth,
                 "instructions dispatched per cycle", 1, slot_max)
        .addUInt("commit", core.commitWidth,
                 "instructions committed per cycle", 1, slot_max)
        .addUInt("lq", core.lqEntries, "load-queue entries", 1, u32max)
        .addUInt("sq", core.sqEntries, "store-queue entries", 1, u32max)
        .addBool("via_at_commit", core.viaAtCommit,
                 "strict commit-time VIA execution (Section IV-E)")
        .addString("backend", "via",
                   "vector backend: base|via|ssr|indexmac",
                   backendNames())
        .addUInt("ssr_streams", d.backend.ssrStreams,
                 "SSR architected stream registers", 1, 32)
        .addUInt("imac_rows", d.backend.imacRows,
                 "IndexMAC row-buffer entries", 1, 64)
        .addUInt("ssr_setup", lat.ssrSetup,
                 "SSR stream bind (ssr.cfg) cycles", 1)
        .addUInt("imac_overhead", lat.imacOverhead,
                 "indexed-MAC macro-op issue overhead cycles", 1)
        .addUInt("gather_overhead", lat.gatherOverhead,
                 "fixed gather/scatter startup cycles")
        .addUInt("gather_ports", lat.gatherPortFactor,
                 "L1 port cycles per gathered element", 1)
        .addUInt("mispredict", lat.mispredictPenalty,
                 "branch mispredict refill cycles")
        .addUInt("store_forward", lat.storeForwardPenalty,
                 "store-to-load forwarding replay cycles")
        .addUInt("l1_kb", mem.levels[0].sizeBytes / 1024,
                 "L1D capacity in KB", 1)
        .addUInt("l2_kb", mem.levels[1].sizeBytes / 1024,
                 "L2 capacity in KB", 1)
        .addUInt("l1_lat", mem.levels[0].hitLatency,
                 "L1D hit latency in cycles", 1)
        .addUInt("l2_lat", mem.levels[1].hitLatency,
                 "L2 hit latency in cycles", 1)
        .addUInt("mshrs", mem.levels[0].mshrs,
                 "L1 MSHRs (L2 gets twice as many)", 1, u32max / 2)
        .addUInt("dram_lat", mem.dram.latency,
                 "DRAM access latency in cycles", 1)
        .addDouble("dram_bw", mem.dram.bytesPerCycle,
                   "DRAM bandwidth in bytes per core cycle", 0.001)
        .addUInt("prefetch", mem.prefetch.degree,
                 "L2 next-N-line prefetch degree", 0, 64);
}

void
addMultiCoreOptions(Options &opts)
{
    SharedLlcParams d;
    opts.addUInt("cores", 1,
                 "number of cores (1 = the bit-identical "
                 "single-core machine)",
                 1, 32)
        .addString("partition", "static",
                   "multi-core work partitioning: static|steal",
                   {"static", "steal"})
        .addUInt("llc_banks", d.banks,
                 "shared-LLC bank pipes (cores>1)", 1, 64);
}

SharedLlcParams
sharedLlcParamsFrom(const Options &opts, const MachineParams &params,
                    unsigned cores)
{
    SharedLlcParams llc = SharedLlcParams::from(params.mem, cores);
    llc.banks = std::uint32_t(opts.getUInt("llc_banks"));
    return llc;
}

} // namespace via
