/**
 * @file
 * Area/leakage model calibration and energy-accounting tests.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/parallel.hh"
#include "power/area_model.hh"
#include "power/energy_model.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

TEST(AreaModel, MatchesPaperAnchorsWithin10Percent)
{
    struct P
    {
        std::uint64_t kb;
        std::uint32_t ports;
    };
    for (P p : {P{16, 4}, P{16, 2}, P{8, 4}, P{8, 2}, P{4, 4},
                P{4, 2}}) {
        auto anchor = AreaModel::paperAnchor(p.kb, p.ports);
        ASSERT_TRUE(anchor.has_value());
        auto est = AreaModel::estimate(p.kb, p.ports);
        EXPECT_NEAR(est.areaMm2, anchor->areaMm2,
                    0.16 * anchor->areaMm2)
            << p.kb << "_" << p.ports;
        EXPECT_NEAR(est.leakageMw, anchor->leakageMw,
                    0.16 * anchor->leakageMw)
            << p.kb << "_" << p.ports;
    }
}

TEST(AreaModel, MonotoneInSizeAndPorts)
{
    auto a = AreaModel::estimate(4, 2);
    auto b = AreaModel::estimate(8, 2);
    auto c = AreaModel::estimate(8, 4);
    EXPECT_LT(a.areaMm2, b.areaMm2);
    EXPECT_LT(b.areaMm2, c.areaMm2);
    EXPECT_LT(a.leakageMw, b.leakageMw);
    EXPECT_LT(b.leakageMw, c.leakageMw);
}

TEST(AreaModel, NoAnchorForUnpublishedPoints)
{
    EXPECT_FALSE(AreaModel::paperAnchor(32, 2).has_value());
    EXPECT_FALSE(AreaModel::paperAnchor(16, 8).has_value());
}

TEST(AreaModel, ViaConfigOverloadAgrees)
{
    ViaConfig cfg = ViaConfig::make(16, 2);
    auto a = AreaModel::estimate(cfg);
    auto b = AreaModel::estimate(16, 2);
    EXPECT_DOUBLE_EQ(a.areaMm2, b.areaMm2);
}

TEST(EnergyModel, ZeroWorkZeroDynamicEnergy)
{
    Machine m{MachineParams{}};
    auto e = computeEnergy(m);
    EXPECT_DOUBLE_EQ(e.corePj, 0.0);
    EXPECT_DOUBLE_EQ(e.cachePj, 0.0);
    EXPECT_DOUBLE_EQ(e.dramPj, 0.0);
    EXPECT_DOUBLE_EQ(e.sspmPj, 0.0);
}

TEST(EnergyModel, CountsEveryComponent)
{
    Machine m{MachineParams{}};
    Addr a = m.mem().alloc(64);
    m.sload(SReg{0}, a, 4); // DRAM miss: core + cache + dram
    VReg v0{0}, v1{1};
    m.viotaI(v1, 0);
    m.vbroadcastF(v0, 1.0);
    m.vidxClear();
    m.vidxLoadD(v0, v1); // SSPM writes
    auto e = computeEnergy(m);
    EXPECT_GT(e.corePj, 0.0);
    EXPECT_GT(e.cachePj, 0.0);
    EXPECT_GT(e.dramPj, 0.0);
    EXPECT_GT(e.sspmPj, 0.0);
    EXPECT_GT(e.leakagePj, 0.0);
    EXPECT_NEAR(e.totalPj(),
                e.corePj + e.cachePj + e.dramPj + e.sspmPj +
                    e.leakagePj,
                1e-9);
}

TEST(EnergyModel, LeakageScalesWithTime)
{
    MachineParams p;
    Machine m1(p), m2(p);
    m1.simm(SReg{0}, 1);
    for (int i = 0; i < 1000; ++i)
        m2.salu(SReg{0}, i, SReg{0});
    auto e1 = computeEnergy(m1);
    auto e2 = computeEnergy(m2);
    EXPECT_GT(e2.leakagePj, 100.0 * e1.leakagePj);
}

TEST(EnergyModel, CamComparisonsCostEnergy)
{
    MachineParams p;
    Machine m(p);
    VReg v0{0}, v1{1};
    m.vbroadcastF(v0, 1.0);
    m.viotaI(v1, 0);
    m.vidxClear();
    m.vidxLoadC(v0, v1);
    double before = computeEnergy(m).sspmPj;
    // Searches over a now-populated table burn comparator energy.
    for (int i = 0; i < 50; ++i)
        m.vidxMulC(v0, v1, ViaOut::Vrf, VReg{2});
    EXPECT_GT(computeEnergy(m).sspmPj, before);
}

TEST(EnergyModel, MultiCoreCountsTheSharedLevel)
{
    Rng rng(31);
    Csr a = genUniform(96, 96, 0.06, rng);
    DenseVector x = randomVector(a.cols(), rng);

    MultiMachine mm(MachineParams{}, 2);
    kernels::spmvRun(mm, BackendKind::Base, a, "csr", x);

    auto e = computeEnergyMulti(mm);
    EXPECT_GT(e.corePj, 0.0);
    EXPECT_GT(e.cachePj, 0.0);
    EXPECT_GT(e.dramPj, 0.0) << "shared DRAM traffic not counted";
    EXPECT_GT(e.leakagePj, 0.0);

    // The per-core private DRAMs carry no traffic in multicore mode;
    // the breakdown must exceed the summed per-core views by exactly
    // the shared-level terms (LLC tag walks + shared DRAM bytes).
    EnergyParams params{};
    double core_sum = 0.0;
    for (unsigned i = 0; i < mm.cores(); ++i) {
        auto ec = computeEnergy(mm.core(i), params);
        EXPECT_EQ(ec.dramPj, 0.0) << "core " << i;
        core_sum += ec.corePj + ec.cachePj + ec.sspmPj;
    }
    const DramStats &ds = mm.llc().dram().stats();
    double shared =
        double(mm.llc().tags().stats().accesses()) *
            params.l2AccessPj +
        double(ds.bytesRead + ds.bytesWritten) * params.dramPjPerByte;
    EXPECT_NEAR(e.corePj + e.cachePj + e.dramPj + e.sspmPj,
                core_sum + shared, 1e-6);

    // Leakage integrates every core over the makespan, so it is at
    // least cores x the single-core leakage for the same interval.
    double seconds = double(mm.cycles()) / (params.clockGhz * 1e9);
    EXPECT_GE(e.leakagePj,
              double(mm.cores()) * params.coreLeakageMw * 1e-3 *
                  seconds * 1e12 * 0.999);
}

} // namespace
} // namespace via
