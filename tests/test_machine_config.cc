/**
 * @file
 * machineParamsFrom: every registered machine key must land in the
 * right field and its defaults must be the model's; and F64 lanes
 * must work through the ISA (the SSPM's 4-byte block granularity is
 * a configuration, not a hard limit of the model).
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "simcore/stats.hh"

#include <cmath>
#include <sstream>

namespace via
{
namespace
{

/** The machine keys, parsed from @p args the way a harness does. */
Options
machineOptions(const std::vector<std::string> &args)
{
    Options opts("machine_test", "machine keys");
    addMachineOptions(opts);
    opts.parse(args);
    return opts;
}

MachineParams
paramsFrom(const std::vector<std::string> &args)
{
    return machineParamsFrom(machineOptions(args));
}

/** Every MachineParams field a machine key may set, as text. */
std::string
fields(const MachineParams &p)
{
    std::ostringstream os;
    os << p.via.sspmBytes << ' ' << p.via.ports << ' '
       << p.via.camBytes << ' ' << p.via.bankEntries << ' '
       << backendName(p.backend.kind) << ' ' << p.backend.ssrStreams
       << ' ' << p.backend.imacRows;
    const CoreParams &c = p.core;
    os << ' ' << c.robSize << ' ' << c.dispatchWidth << ' '
       << c.commitWidth << ' ' << c.lqEntries << ' ' << c.sqEntries
       << ' ' << c.viaAtCommit;
    const OpLatencies &l = c.latencies;
    os << ' ' << l.gatherOverhead << ' ' << l.gatherPortFactor << ' '
       << l.mispredictPenalty << ' ' << l.storeForwardPenalty << ' '
       << l.ssrSetup << ' ' << l.imacOverhead;
    for (const CacheParams &cache : p.mem.levels)
        os << ' ' << cache.sizeBytes << ' ' << cache.hitLatency << ' '
           << cache.mshrs;
    os << ' ' << p.mem.dram.latency << ' ' << p.mem.dram.bytesPerCycle
       << ' ' << p.mem.prefetch.degree;
    return os.str();
}

/** A valid value of @p spec's key other than its default. */
std::string
otherValue(const OptionSpec &spec)
{
    switch (spec.type) {
    case OptType::String:
        for (const std::string &v : spec.values)
            if (v != spec.dflt)
                return v;
        return spec.dflt + "_other";
    case OptType::Bool:
        return spec.dflt == "1" ? "0" : "1";
    case OptType::Int:
    case OptType::UInt: {
        const double v = std::stod(spec.dflt);
        return std::to_string(
            std::int64_t(v + 1 <= spec.max ? v + 1 : v - 1));
    }
    case OptType::Double:
        return std::to_string(2 * std::stod(spec.dflt));
    }
    return spec.dflt;
}

TEST(MachineConfig, DefaultsMatchTableOne)
{
    MachineParams p = paramsFrom({});
    EXPECT_EQ(p.via.sspmBytes, 16u * 1024);
    EXPECT_EQ(p.via.ports, 2u);
    EXPECT_EQ(p.core.robSize, 192u);
    EXPECT_DOUBLE_EQ(p.mem.dram.bytesPerCycle, 6.4);
    EXPECT_FALSE(p.core.viaAtCommit);
    // The registered defaults reproduce the model's own defaults.
    EXPECT_EQ(fields(p), fields(MachineParams{}));
}

TEST(MachineConfig, EveryKnobLands)
{
    MachineParams p = paramsFrom(
        {"sspm_kb=8", "ports=4", "cam_kb=1", "cam_bank=16",
         "rob=64", "dispatch=2", "commit=2", "lq=16", "sq=8",
         "l1_kb=16", "l2_kb=256", "l1_lat=3", "l2_lat=10",
         "mshrs=8", "dram_lat=99", "dram_bw=3.2", "prefetch=4",
         "gather_overhead=5", "gather_ports=1", "mispredict=20",
         "store_forward=7", "via_at_commit=1", "backend=ssr",
         "ssr_streams=8", "imac_rows=16", "ssr_setup=3",
         "imac_overhead=2"});
    EXPECT_EQ(p.via.sspmBytes, 8u * 1024);
    EXPECT_EQ(p.via.ports, 4u);
    EXPECT_EQ(p.via.camBytes, 1u * 1024);
    EXPECT_EQ(p.via.bankEntries, 16u);
    EXPECT_EQ(p.core.robSize, 64u);
    EXPECT_EQ(p.core.dispatchWidth, 2u);
    EXPECT_EQ(p.core.commitWidth, 2u);
    EXPECT_EQ(p.core.lqEntries, 16u);
    EXPECT_EQ(p.core.sqEntries, 8u);
    EXPECT_EQ(p.mem.levels[0].sizeBytes, 16u * 1024);
    EXPECT_EQ(p.mem.levels[1].sizeBytes, 256u * 1024);
    EXPECT_EQ(p.mem.levels[0].hitLatency, 3u);
    EXPECT_EQ(p.mem.levels[1].hitLatency, 10u);
    EXPECT_EQ(p.mem.levels[0].mshrs, 8u);
    EXPECT_EQ(p.mem.levels[1].mshrs, 16u);
    EXPECT_EQ(p.mem.dram.latency, 99u);
    EXPECT_DOUBLE_EQ(p.mem.dram.bytesPerCycle, 3.2);
    EXPECT_EQ(p.mem.prefetch.degree, 4u);
    EXPECT_EQ(p.core.latencies.gatherOverhead, 5u);
    EXPECT_EQ(p.core.latencies.gatherPortFactor, 1u);
    EXPECT_EQ(p.core.latencies.mispredictPenalty, 20u);
    EXPECT_EQ(p.core.latencies.storeForwardPenalty, 7u);
    EXPECT_TRUE(p.core.viaAtCommit);
    EXPECT_EQ(p.backend.kind, BackendKind::Ssr);
    EXPECT_EQ(p.backend.ssrStreams, 8u);
    EXPECT_EQ(p.backend.imacRows, 16u);
    EXPECT_EQ(p.core.latencies.ssrSetup, 3u);
    EXPECT_EQ(p.core.latencies.imacOverhead, 2u);
}

TEST(MachineConfig, EveryRegisteredKeyIsRead)
{
    // Each key addMachineOptions registers, set alone to a valid
    // non-default value, must change the machine: a key that is
    // registered but never read fails here.
    Options registry("machine_test", "machine keys");
    addMachineOptions(registry);
    const std::string dflt = fields(paramsFrom({}));
    std::size_t walked = 0;
    for (const OptionSpec &spec : registry.specs()) {
        if (spec.key == "help")
            continue;
        const std::string arg = spec.key + "=" + otherValue(spec);
        EXPECT_NE(fields(paramsFrom({arg})), dflt)
            << arg << " leaves the machine unchanged";
        ++walked;
    }
    EXPECT_EQ(walked, 27u);
}

TEST(MachineConfig, CamFollowsSspmUnlessGiven)
{
    EXPECT_EQ(paramsFrom({"sspm_kb=8"}).via.camBytes, 2u * 1024);
    EXPECT_EQ(paramsFrom({"sspm_kb=8", "cam_kb=8"}).via.camBytes,
              8u * 1024);
}

TEST(MachineConfig, SweepPointIsTheCommandLineWithOneKeyReplaced)
{
    // A sweep point keeps every other given key (cam_bank= here).
    Options opts = machineOptions({"sspm_kb=16", "cam_bank=16"});
    EXPECT_EQ(fields(machineParamsFrom(opts.with("sspm_kb", "8"))),
              fields(paramsFrom({"sspm_kb=8", "cam_bank=16"})));
}

TEST(MachineConfigDeath, CamAboveSspmExits2)
{
    EXPECT_EXIT(paramsFrom({"sspm_kb=4", "cam_kb=8"}),
                ::testing::ExitedWithCode(2),
                "cam_kb=8 exceeds sspm_kb=4");
}

TEST(MachineConfig, ConfiguredMachineIsUsable)
{
    Machine m(paramsFrom({"sspm_kb=4", "ports=1"}));
    EXPECT_EQ(m.sspm().config().sramEntries(), 1024u);
    VReg v0{0}, v1{1};
    m.viotaI(v1, 0);
    m.vbroadcastF(v0, 1.0);
    m.vidxClear();
    m.vidxLoadD(v0, v1);
    m.vidxMov(v0, v1);
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(3), 1.0f);
}

TEST(StatSetJson, EmitsParsableObject)
{
    StatSet stats;
    std::uint64_t c = 7;
    stats.addScalar("a.b", "counter", &c);
    stats.addFormula("bad", "nan",
                     [] { return std::nan(""); });
    std::ostringstream os;
    stats.dumpJson(os);
    std::string s = os.str();
    EXPECT_NE(s.find("\"a.b\": 7"), std::string::npos);
    EXPECT_NE(s.find("\"bad\": null"), std::string::npos);
    EXPECT_EQ(s.front(), '{');
}

TEST(F64Lanes, VectorOpsWorkInDoublePrecision)
{
    // The simulated ISA supports 4x64-bit lanes; the sparse kernels
    // choose F32 to match the SSPM's 4-byte blocks, but the machine
    // itself is type-complete.
    Machine m{MachineParams{}};
    std::vector<double> host{1.5, -2.5, 3.25, 8.0};
    Addr a = m.mem().allocArray(host);
    VReg v0{0}, v1{1};
    m.vload(v0, a, ElemType::F64, 4);
    EXPECT_DOUBLE_EQ(m.vreg(v0).f64(2), 3.25);

    // Gather in f64.
    m.vreg(v1).setI(0, 3);
    m.vreg(v1).setI(1, 0);
    m.vgather(v1, a, v1, ElemType::F64, 2);
    EXPECT_DOUBLE_EQ(m.vreg(v1).f64(0), 8.0);
    EXPECT_DOUBLE_EQ(m.vreg(v1).f64(1), 1.5);

    // Store back.
    Addr b = m.mem().alloc(32);
    m.vstore(b, v0, ElemType::F64, 4);
    EXPECT_EQ(m.mem().readArray<double>(b, 4), host);
}

} // namespace
} // namespace via
