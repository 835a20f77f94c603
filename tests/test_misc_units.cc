/**
 * @file
 * Remaining unit coverage: opcode metadata, ViaConfig, core param
 * helpers, the run-metrics collector, RobModel / SlotPool, and the
 * dense helpers.
 */

#include <gtest/gtest.h>

#include "cpu/lsq.hh"
#include "cpu/machine.hh"
#include "cpu/rob.hh"
#include "isa/opcodes.hh"
#include "kernels/runner.hh"
#include "simcore/rng.hh"
#include "sparse/dense.hh"

namespace via
{
namespace
{

TEST(Opcodes, EveryOpHasMnemonicAndFuClass)
{
    for (int o = 0; o < int(Op::NumOps); ++o) {
        Op op = Op(o);
        EXPECT_NE(mnemonic(op), "<bad-op>") << o;
        // SsrCfg occupies the SSR backend's descriptor sequencer,
        // not a core FU (see OooCore::issueOne), so like Nop it has
        // no functional-unit class.
        if (op != Op::Nop && op != Op::SsrCfg) {
            EXPECT_NE(int(fuClassOf(op)), int(FuClass::None)) << o;
        }
    }
}

TEST(Opcodes, ClassPredicatesAreConsistent)
{
    for (int o = 0; o < int(Op::NumOps); ++o) {
        Op op = Op(o);
        if (isViaOp(op)) {
            EXPECT_EQ(int(fuClassOf(op)), int(FuClass::Fivu));
            EXPECT_FALSE(isMemOp(op));
        }
    }
}

TEST(Opcodes, LatenciesArePositiveForRealWork)
{
    OpLatencies lat;
    for (Op op : {Op::SAlu, Op::VAddF, Op::VMulF, Op::VRedSumF,
                  Op::VConflict, Op::VidxMov, Op::VidxBlkMulD})
        EXPECT_GE(lat.latencyOf(op), 1u) << mnemonic(op);
    EXPECT_GT(lat.latencyOf(Op::VConflict),
              lat.latencyOf(Op::VAddF));
}

TEST(ViaConfig, NamesFollowThePaper)
{
    EXPECT_EQ(ViaConfig::make(16, 2).name(), "16_2p");
    EXPECT_EQ(ViaConfig::make(4, 4).name(), "4_4p");
}

TEST(ViaConfig, MakeKeepsTheCamRatio)
{
    ViaConfig cfg = ViaConfig::make(8, 2);
    EXPECT_EQ(cfg.sspmBytes, 8u * 1024);
    EXPECT_EQ(cfg.camBytes, 2u * 1024);
    EXPECT_EQ(cfg.sramEntries(), 2048u);
    EXPECT_EQ(cfg.camEntries(), 512u);
}

TEST(CoreParams, UnitsForCoversEveryClass)
{
    CoreParams p;
    for (int c = 1; c <= int(FuClass::StorePort); ++c)
        EXPECT_GT(p.unitsFor(FuClass(c)), 0u) << c;
    EXPECT_EQ(p.unitsFor(FuClass::None), 0u);
}

TEST(MachineParams, PrintMentionsKeyNumbers)
{
    MachineParams p;
    std::ostringstream os;
    p.print(os);
    EXPECT_NE(os.str().find("16 KB"), std::string::npos);
    EXPECT_NE(os.str().find("ROB"), std::string::npos);
    EXPECT_NE(os.str().find("dram"), std::string::npos);
}

TEST(RobModel, CommitIsInOrderAndWidthLimited)
{
    RobModel rob(8, 2);
    // Four instructions all complete at t=10: 2 commit at 10, 2 at
    // 11 (commit width).
    EXPECT_EQ(rob.commit(10), 10u);
    EXPECT_EQ(rob.commit(10), 10u);
    EXPECT_EQ(rob.commit(10), 11u);
    EXPECT_EQ(rob.commit(10), 11u);
    // A fast instruction behind a slow one cannot commit earlier;
    // cycle 11 is already full, so it lands on 12.
    EXPECT_EQ(rob.commit(5), 12u);
}

TEST(RobModel, DispatchReadyTracksTheRing)
{
    RobModel rob(4, 4);
    EXPECT_EQ(rob.dispatchReady(), 0u);
    for (int i = 0; i < 4; ++i)
        rob.commit(Tick(100 + i));
    // Entry 0 is reused by instruction 4; it retired at 100.
    EXPECT_EQ(rob.dispatchReady(), 100u);
}

TEST(SlotPool, GatesOnEarliestSlot)
{
    SlotPool pool(2);
    EXPECT_EQ(pool.freeAt(), 0u);
    pool.reserve(100);
    pool.reserve(50);
    EXPECT_EQ(pool.freeAt(), 50u);
    pool.reserve(80); // takes the slot that freed at 50
    EXPECT_EQ(pool.freeAt(), 80u);
}

TEST(StoreTracker, DetectsOverlapOnly)
{
    StoreTracker t(8);
    t.recordStore(100, 4, 50);
    EXPECT_EQ(t.loadReady(100, 4), 50u);
    EXPECT_EQ(t.loadReady(102, 4), 50u); // partial overlap
    EXPECT_EQ(t.loadReady(104, 4), 0u);  // adjacent, no overlap
    EXPECT_EQ(t.loadReady(96, 4), 0u);
}

TEST(StoreTracker, RingEvictsOldEntries)
{
    StoreTracker t(2);
    t.recordStore(0, 4, 10);
    t.recordStore(100, 4, 20);
    t.recordStore(200, 4, 30); // evicts the store at 0
    EXPECT_EQ(t.loadReady(0, 4), 0u);
    EXPECT_EQ(t.loadReady(200, 4), 30u);
}

TEST(RunMetrics, CollectsConsistentNumbers)
{
    Machine m{MachineParams{}};
    Addr a = m.mem().alloc(1024);
    for (int i = 0; i < 16; ++i)
        m.sload(SReg{0}, a + Addr(i) * 64, 4);
    auto r = kernels::collectMetrics(m);
    EXPECT_EQ(r.cycles, m.cycles());
    EXPECT_EQ(r.insts, 16u);
    EXPECT_GT(r.dramReadBytes, 0u);
    EXPECT_GT(r.dramBytesPerCycle, 0.0);
    EXPECT_NEAR(r.ipc, 16.0 / double(r.cycles), 1e-9);
    EXPECT_GT(r.energy.totalPj(), 0.0);
}

TEST(Dense, MatrixAccessors)
{
    DenseMatrix m(2, 3);
    m.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
    EXPECT_EQ(m.data().size(), 6u);
}

TEST(DenseDeathTest, OutOfRangePanics)
{
    DenseMatrix m(2, 2);
    EXPECT_DEATH(m.at(2, 0), "out of range");
}

TEST(Dense, AllCloseAndMaxDiff)
{
    DenseVector a{1.0f, 2.0f};
    DenseVector b{1.0f, 2.0001f};
    EXPECT_TRUE(allClose(a, b));
    EXPECT_FALSE(allClose(a, DenseVector{1.0f, 3.0f}));
    EXPECT_FALSE(allClose(a, DenseVector{1.0f}));
}

TEST(Dense, RandomVectorInRange)
{
    Rng rng(4);
    DenseVector v = randomVector(100, rng);
    for (float x : v) {
        EXPECT_GE(x, -1.0f);
        EXPECT_LT(x, 1.0f);
    }
}

} // namespace
} // namespace via
