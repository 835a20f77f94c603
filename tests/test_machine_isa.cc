/**
 * @file
 * Functional semantics of the simulated ISA through the Machine
 * facade: every vector/scalar/VIA operation.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "sparse/sparse_types.hh"

namespace via
{
namespace
{

class MachineIsa : public ::testing::Test
{
  protected:
    MachineIsa() : m(MachineParams{}) {}

    void
    setF(VReg r, std::initializer_list<float> vals)
    {
        std::uint32_t l = 0;
        for (float v : vals)
            m.vreg(r).setF32(l++, v);
    }

    void
    setI(VReg r, std::initializer_list<std::int64_t> vals)
    {
        std::uint32_t l = 0;
        for (auto v : vals)
            m.vreg(r).setI(l++, v);
    }

    Machine m;
    VReg v0{0}, v1{1}, v2{2}, v3{3};
    SReg s0{0}, s1{1};
};

TEST_F(MachineIsa, ScalarImmediateAndAlu)
{
    m.simm(s0, 41);
    EXPECT_EQ(m.sregI(s0), 41);
    m.salu(s1, 42, s0);
    EXPECT_EQ(m.sregI(s1), 42);
}

TEST_F(MachineIsa, ScalarFpOps)
{
    m.setSregF(s0, 2.5);
    m.setSregF(s1, 4.0);
    m.sfadd(s0, s0, s1);
    EXPECT_DOUBLE_EQ(m.sregF(s0), 6.5);
    m.sfmul(s0, s0, s1);
    EXPECT_DOUBLE_EQ(m.sregF(s0), 26.0);
}

TEST_F(MachineIsa, ScalarLoadSignExtends32Bit)
{
    Addr a = m.mem().alloc(8);
    m.mem().store<std::int32_t>(a, -5);
    m.sload(s0, a, 4);
    EXPECT_EQ(m.sregI(s0), -5);
}

TEST_F(MachineIsa, ScalarFpLoadStore)
{
    Addr a = m.mem().alloc(8);
    m.mem().store<float>(a, 1.25f);
    m.sloadF(s0, a, ElemType::F32);
    EXPECT_DOUBLE_EQ(m.sregF(s0), 1.25);
    m.setSregF(s1, -8.5);
    m.sstoreF(a, s1, ElemType::F32);
    EXPECT_FLOAT_EQ(m.mem().load<float>(a), -8.5f);
}

TEST_F(MachineIsa, VectorLoadStoreRoundTrip)
{
    std::vector<float> host{1, 2, 3, 4, 5, 6, 7, 8};
    Addr a = m.mem().allocArray(host);
    Addr b = m.mem().alloc(32);
    m.vload(v0, a, ElemType::F32);
    m.vstore(b, v0, ElemType::F32);
    EXPECT_EQ(m.mem().readArray<float>(b, 8), host);
}

TEST_F(MachineIsa, PartialVlLeavesTailZero)
{
    std::vector<float> host{9, 9, 9, 9, 9, 9, 9, 9};
    Addr a = m.mem().allocArray(host);
    m.vload(v0, a, ElemType::F32, 3);
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(2), 9.0f);
    EXPECT_EQ(m.vreg(v0).raw[3], 0u);
}

TEST_F(MachineIsa, IndexLoadSignExtends)
{
    std::vector<Index> host{-3, 7};
    Addr a = m.mem().allocArray(host);
    m.vload(v0, a, ElemType::I32, 2);
    EXPECT_EQ(m.vreg(v0).i(0), -3);
    EXPECT_EQ(m.vreg(v0).i(1), 7);
}

TEST_F(MachineIsa, GatherScatter)
{
    std::vector<float> table{0, 10, 20, 30, 40, 50, 60, 70};
    Addr a = m.mem().allocArray(table);
    setI(v1, {7, 0, 3, 3, 1, 6, 2, 5});
    m.vgather(v0, a, v1, ElemType::F32);
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(0), 70.0f);
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(3), 30.0f);

    Addr b = m.mem().alloc(32);
    setI(v2, {1, 0, 3, 2, 5, 4, 7, 6});
    m.vscatter(b, v2, v0, ElemType::F32);
    auto out = m.mem().readArray<float>(b, 8);
    EXPECT_FLOAT_EQ(out[1], 70.0f); // lane 0 went to index 1
    EXPECT_FLOAT_EQ(out[0], 0.0f);  // lane 1 (idx 0) carried 0
}

TEST_F(MachineIsa, FpArithmetic)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setF(v1, {10, 20, 30, 40, 50, 60, 70, 80});
    m.vaddF(v2, v0, v1);
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(7), 88.0f);
    m.vmulF(v2, v0, v1);
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(1), 40.0f);
    m.vfmaF(v3, v0, v1, v2); // v0*v1 + v2 = 2*40
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(1), 80.0f);
}

TEST_F(MachineIsa, IntArithmeticAndCompares)
{
    setI(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setI(v1, {8, 7, 6, 5, 4, 3, 2, 1});
    m.vaddI(v2, v0, v1);
    EXPECT_EQ(m.vreg(v2).i(0), 9);
    m.vcmpLtI(v2, v0, v1);
    EXPECT_EQ(m.vreg(v2).i(0), 1);
    EXPECT_EQ(m.vreg(v2).i(7), 0);
    m.vandI(v2, v0, 1);
    EXPECT_EQ(m.vreg(v2).i(2), 1);
    m.vshrI(v2, v0, 1);
    EXPECT_EQ(m.vreg(v2).i(7), 4);
}

TEST_F(MachineIsa, BroadcastIotaPatternMove)
{
    m.vbroadcastF(v0, 2.5);
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(5), 2.5f);
    m.vbroadcastI(v0, -4);
    EXPECT_EQ(m.vreg(v0).i(3), -4);
    m.viotaI(v0, 10, 2);
    EXPECT_EQ(m.vreg(v0).i(3), 16);
    m.vpatternI(v1, {5, 4, 3});
    EXPECT_EQ(m.vreg(v1).i(0), 5);
    EXPECT_EQ(m.vreg(v1).i(3), 0);
}

TEST_F(MachineIsa, RedSum)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    m.vredsumF(s0, v0);
    EXPECT_DOUBLE_EQ(m.sregF(s0), 36.0);
    m.vredsumF(s0, v0, 3);
    EXPECT_DOUBLE_EQ(m.sregF(s0), 6.0);
}

TEST_F(MachineIsa, CompressExpandPermute)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setI(v1, {0, 1, 0, 1, 0, 1, 0, 1}); // mask
    m.vcompress(v2, v0, v1);
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(0), 2.0f);
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(3), 8.0f);
    EXPECT_EQ(m.vreg(v2).raw[4], 0u);

    m.vexpandMask(v3, v2, 0b10101010u);
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(1), 2.0f);
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(7), 8.0f);
}

TEST_F(MachineIsa, ConflictDetection)
{
    setI(v0, {3, 5, 3, 7, 5, 3, 9, 9});
    m.vconflict(v1, v0);
    EXPECT_EQ(m.vreg(v1).i(0), 0);
    EXPECT_EQ(m.vreg(v1).i(2), 0b1);      // matches lane 0
    EXPECT_EQ(m.vreg(v1).i(4), 0b10);     // matches lane 1
    EXPECT_EQ(m.vreg(v1).i(5), 0b101);    // lanes 0 and 2
    EXPECT_EQ(m.vreg(v1).i(7), 0b1000000);
}

TEST_F(MachineIsa, MergeIdxSumsEqualIndexLanes)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setI(v1, {0, 1, 0, 1, 2, 2, 2, 3});
    m.vmergeIdx(v2, v0, v1);
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(0), 4.0f);  // 1+3
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(1), 6.0f);  // 2+4
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(4), 18.0f); // 5+6+7
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(7), 8.0f);
}

// ---------------- VIA instruction semantics ----------------------

TEST_F(MachineIsa, VidxLoadDMovRoundTrip)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setI(v1, {10, 20, 30, 40, 50, 60, 70, 80});
    m.vidxClear();
    m.vidxLoadD(v0, v1);
    m.vidxMov(v2, v1);
    for (std::uint32_t l = 0; l < 8; ++l)
        EXPECT_FLOAT_EQ(m.vreg(v2).f32(l), float(l + 1));
}

TEST_F(MachineIsa, VidxArithDirectToVrf)
{
    setF(v0, {10, 20, 30, 40, 50, 60, 70, 80});
    setI(v1, {0, 1, 2, 3, 4, 5, 6, 7});
    m.vidxClear();
    m.vidxLoadD(v0, v1); // SSPM[l] = 10(l+1)
    setF(v2, {1, 1, 1, 1, 1, 1, 1, 1});
    m.vidxAddD(v2, v1, ViaOut::Vrf, v3, 0);
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(2), 31.0f);
    m.vidxSubD(v2, v1, ViaOut::Vrf, v3, 0);
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(2), 29.0f); // SSPM - data
    m.vidxMulD(v2, v1, ViaOut::Vrf, v3, 0);
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(2), 30.0f);
}

TEST_F(MachineIsa, VidxAddDOffsetWritesShiftedRegion)
{
    setF(v0, {5, 5, 5, 5, 5, 5, 5, 5});
    setI(v1, {0, 1, 2, 3, 4, 5, 6, 7});
    m.vidxClear();
    m.vidxAddD(v0, v1, ViaOut::Sspm, v3, 100);
    // Reads of [0..8) were invalid (0); writes landed at +100.
    EXPECT_FLOAT_EQ(
        float(VecValue{{m.sspm().readDirect(103)}}.f32(0)), 5.0f);
    EXPECT_FALSE(m.sspm().validAt(3));
}

TEST_F(MachineIsa, VidxAddDAccumulatesSequentiallyOnDuplicates)
{
    setF(v0, {1, 1, 1, 1, 1, 1, 1, 1});
    setI(v1, {4, 4, 4, 4, 4, 4, 4, 4});
    m.vidxClear();
    m.vidxAddD(v0, v1, ViaOut::Sspm, v3, 0);
    m.vidxMov(v2, v1, 1);
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(0), 8.0f);
}

TEST_F(MachineIsa, VidxCamLoadAndMatch)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setI(v1, {100, 200, 300, 400, 500, 600, 700, 800});
    m.vidxClear();
    m.vidxLoadC(v0, v1);
    m.vidxCount(s0);
    EXPECT_EQ(m.sregI(s0), 8);

    // Match half the keys; misses produce zero.
    setI(v2, {100, 999, 300, 998, 500, 997, 700, 996});
    setF(v0, {2, 2, 2, 2, 2, 2, 2, 2});
    m.vidxMulC(v0, v2, ViaOut::Vrf, v3);
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(0), 2.0f);  // 1*2
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(1), 0.0f);  // miss
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(2), 6.0f);  // 3*2
}

TEST_F(MachineIsa, VidxCamUnionUpdate)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setI(v1, {10, 20, 30, 40, 50, 60, 70, 80});
    m.vidxClear();
    m.vidxLoadC(v0, v1, 4); // keys 10..40
    setI(v2, {10, 20, 90, 95, 0, 0, 0, 0});
    setF(v3, {100, 100, 100, 100, 0, 0, 0, 0});
    m.vidxAddC(v3, v2, ViaOut::Sspm, v0, 4);
    m.vidxCount(s0);
    EXPECT_EQ(m.sregI(s0), 6); // 4 original + 2 new
    bool found = false;
    auto raw = m.sspm().camRead(10, found);
    EXPECT_FLOAT_EQ(VecValue{{raw}}.f32(0), 101.0f);
    raw = m.sspm().camRead(90, found);
    EXPECT_FLOAT_EQ(VecValue{{raw}}.f32(0), 100.0f);
}

TEST_F(MachineIsa, VidxCamSubtract)
{
    setF(v0, {10, 20, 30, 40, 0, 0, 0, 0});
    setI(v1, {1, 2, 3, 4, 0, 0, 0, 0});
    m.vidxClear();
    m.vidxLoadC(v0, v1, 4); // keys 1..4 hold 10..40

    // out=Vrf: a match reads SSPM[slot] - data, a miss reads zero,
    // and nothing is inserted.
    setI(v2, {1, 9, 3, 8, 0, 0, 0, 0});
    setF(v3, {1, 1, 2, 2, 0, 0, 0, 0});
    m.vidxSubC(v3, v2, ViaOut::Vrf, v0, 4);
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(0), 9.0f);  // 10 - 1
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(1), 0.0f);  // miss
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(2), 28.0f); // 30 - 2
    EXPECT_FLOAT_EQ(m.vreg(v0).f32(3), 0.0f);  // miss
    m.vidxCount(s0);
    EXPECT_EQ(m.sregI(s0), 4);

    // out=Sspm: union read-modify-write — a match subtracts in
    // place, a miss inserts the incoming value.
    setI(v2, {2, 4, 90, 0, 0, 0, 0, 0});
    setF(v3, {5, 15, 7, 0, 0, 0, 0, 0});
    m.vidxSubC(v3, v2, ViaOut::Sspm, v0, 3);
    m.vidxCount(s0);
    EXPECT_EQ(m.sregI(s0), 5); // 4 original + 1 new
    bool found = false;
    auto raw = m.sspm().camRead(2, found);
    EXPECT_TRUE(found);
    EXPECT_FLOAT_EQ(VecValue{{raw}}.f32(0), 15.0f); // 20 - 5
    raw = m.sspm().camRead(4, found);
    EXPECT_FLOAT_EQ(VecValue{{raw}}.f32(0), 25.0f); // 40 - 15
    raw = m.sspm().camRead(90, found);
    EXPECT_TRUE(found);
    EXPECT_FLOAT_EQ(VecValue{{raw}}.f32(0), 7.0f);
    raw = m.sspm().camRead(1, found);
    EXPECT_FLOAT_EQ(VecValue{{raw}}.f32(0), 10.0f); // untouched
}

TEST_F(MachineIsa, VidxKeysValsExtraction)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setI(v1, {11, 22, 33, 44, 55, 66, 77, 88});
    m.vidxClear();
    m.vidxLoadC(v0, v1, 5);
    m.vidxKeys(v2, 0);
    m.vidxVals(v3, 0);
    EXPECT_EQ(m.vreg(v2).i(0), 11);
    EXPECT_EQ(m.vreg(v2).i(4), 55);
    EXPECT_EQ(m.vreg(v2).i(5), 0); // beyond element count
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(4), 5.0f);
    EXPECT_FLOAT_EQ(m.vreg(v3).f32(7), 0.0f);
}

TEST_F(MachineIsa, VidxBlkMulAccumulates)
{
    // x chunk: SSPM[0..4) = {1, 2, 3, 4}
    setF(v0, {1, 2, 3, 4, 0, 0, 0, 0});
    setI(v1, {0, 1, 2, 3, 0, 0, 0, 0});
    m.vidxClear();
    m.vidxLoadD(v0, v1, 4);

    // Two elements of a 4-wide block: (row 0, col 1, val 10) and
    // (row 1, col 3, val 100); colBits = 2.
    setI(v2, {(0 << 2) | 1, (1 << 2) | 3, 0, 0, 0, 0, 0, 0});
    setF(v3, {10, 100, 0, 0, 0, 0, 0, 0});
    m.vidxBlkMulD(v3, v2, 2, 8, 2);
    // y[0] at SSPM[8] = 2*10; y[1] at SSPM[9] = 4*100.
    EXPECT_FLOAT_EQ(VecValue{{m.sspm().readDirect(8)}}.f32(0),
                    20.0f);
    EXPECT_FLOAT_EQ(VecValue{{m.sspm().readDirect(9)}}.f32(0),
                    400.0f);
}

TEST_F(MachineIsa, VidxClearSegmentKeepsOtherRegion)
{
    setF(v0, {1, 2, 3, 4, 5, 6, 7, 8});
    setI(v1, {0, 1, 2, 3, 4, 5, 6, 7});
    m.vidxClear();
    m.vidxLoadD(v0, v1);
    m.vidxClearSegment(0, 4);
    m.vidxMov(v2, v1);
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(0), 0.0f);
    EXPECT_FLOAT_EQ(m.vreg(v2).f32(4), 5.0f);
}

TEST_F(MachineIsa, CyclesAdvanceMonotonically)
{
    Tick t0 = m.cycles();
    m.vbroadcastF(v0, 1.0);
    m.vaddF(v1, v0, v0);
    EXPECT_GE(m.cycles(), t0);
    EXPECT_GT(m.cycles(), 0u);
}

} // namespace
} // namespace via
