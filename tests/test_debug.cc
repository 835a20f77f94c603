/**
 * @file
 * The debugger subsystem (src/debug) and the streaming million-row
 * input paths that ride with it.
 *
 * The debugger's core contract is non-perturbation: the stop engine
 * observes commits through the passive TimingObserver hook, so a
 * session that stops, inspects, and continues must print a `final:`
 * line (cycles / insts / stats fingerprint) bit-identical to an
 * uninterrupted run — per backend, and on a MultiMachine. The
 * BreakpointEngine itself is tested as a pure condition evaluator:
 * opcode matches, access-window overlap, line alignment, once
 * removal, and the edge-trigger/re-arm latch on threshold watches.
 *
 * The streaming generators must agree with their Coo-based
 * counterparts: genBandedCsr bit-identically (same draw order, no
 * reordering), genRmatCsr structurally with allClose values and
 * identical Rng end state. Golden hashes pin both RMAT generators'
 * output bit for bit, so a change that alters both alike still
 * fails. The streaming .mtx reader and writer must round-trip
 * against the one-pass implementations.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "debug/breakpoints.hh"
#include "debug/session.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "simcore/rng.hh"
#include "sparse/dense.hh"
#include "sparse/generators.hh"
#include "sparse/mm_io.hh"

namespace via
{
namespace
{

using debug::BreakpointEngine;
using debug::StopContext;
using debug::StopKind;
using debug::StopSpec;

Inst
instWithOp(Op op)
{
    Inst i;
    i.op = op;
    return i;
}

Inst
instWithAccess(Addr addr, std::uint32_t bytes)
{
    Inst i;
    i.op = Op::VLoad;
    i.addAccess(addr, bytes, false);
    return i;
}

StopContext
ctxFor(const Inst &inst)
{
    StopContext ctx;
    ctx.inst = &inst;
    return ctx;
}

TEST(BreakpointEngine, OpBreakMatchesOnlyThatOpcode)
{
    BreakpointEngine eng;
    int id = eng.addOpBreak(Op::VLoad);
    EXPECT_EQ(id, 1);

    Inst miss = instWithOp(Op::VStore);
    EXPECT_TRUE(eng.evaluate(ctxFor(miss)).empty());

    Inst hit = instWithOp(Op::VLoad);
    auto fired = eng.evaluate(ctxFor(hit));
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].id, id);
    EXPECT_EQ(fired[0].kind, StopKind::OpBreak);

    // Persistent breakpoints keep firing.
    EXPECT_EQ(eng.evaluate(ctxFor(hit)).size(), 1u);
}

TEST(BreakpointEngine, OnceSpecRemovedAfterFirstHit)
{
    BreakpointEngine eng;
    eng.addOpBreak(Op::VLoad, /*once=*/true);
    Inst hit = instWithOp(Op::VLoad);
    ASSERT_EQ(eng.evaluate(ctxFor(hit)).size(), 1u);
    EXPECT_TRUE(eng.empty());
    EXPECT_TRUE(eng.evaluate(ctxFor(hit)).empty());
}

TEST(BreakpointEngine, AddrWatchOverlapWindows)
{
    BreakpointEngine eng;
    eng.addAddrWatch(0x1000, 8); // watches [0x1000, 0x1008)

    // Access ending exactly at the window start does not overlap.
    Inst before = instWithAccess(0xff8, 8);
    EXPECT_TRUE(eng.evaluate(ctxFor(before)).empty());

    // One-byte overlap at the window's last byte.
    Inst tail = instWithAccess(0x1007, 4);
    EXPECT_EQ(eng.evaluate(ctxFor(tail)).size(), 1u);

    // Access starting at the window's exclusive end misses.
    Inst after = instWithAccess(0x1008, 8);
    EXPECT_TRUE(eng.evaluate(ctxFor(after)).empty());

    // A wide access spanning the whole window hits.
    Inst span = instWithAccess(0xff0, 64);
    EXPECT_EQ(eng.evaluate(ctxFor(span)).size(), 1u);

    // Second access of a multi-access instruction is checked too.
    Inst multi = instWithAccess(0x200, 4);
    multi.addAccess(0x1004, 4, true);
    EXPECT_EQ(eng.evaluate(ctxFor(multi)).size(), 1u);
}

TEST(BreakpointEngine, LineWatchAlignsToTheLine)
{
    BreakpointEngine eng;
    // 0x107f with 64-byte lines aligns down to [0x1040, 0x1080).
    eng.addLineWatch(0x107f, 64);

    Inst inside = instWithAccess(0x1050, 4);
    EXPECT_EQ(eng.evaluate(ctxFor(inside)).size(), 1u);

    Inst next_line = instWithAccess(0x1080, 4);
    EXPECT_TRUE(eng.evaluate(ctxFor(next_line)).empty());

    Inst prev_line = instWithAccess(0x103c, 4);
    EXPECT_TRUE(eng.evaluate(ctxFor(prev_line)).empty());
}

TEST(BreakpointEngine, ThresholdEdgeTriggerAndRearm)
{
    BreakpointEngine eng;
    eng.addCamWatch(4);
    Inst nop = instWithOp(Op::Nop);
    StopContext ctx = ctxFor(nop);

    ctx.camCount = 3; // below: armed, no hit
    EXPECT_TRUE(eng.evaluate(ctx).empty());
    ctx.camCount = 4; // crosses the threshold: fires
    EXPECT_EQ(eng.evaluate(ctx).size(), 1u);
    ctx.camCount = 5; // still above: latched, silent
    EXPECT_TRUE(eng.evaluate(ctx).empty());
    ctx.camCount = 3; // drops below: re-arms, no hit yet
    EXPECT_TRUE(eng.evaluate(ctx).empty());
    ctx.camCount = 4; // second crossing fires again
    EXPECT_EQ(eng.evaluate(ctx).size(), 1u);
}

TEST(BreakpointEngine, RemoveByIdAndIdsStayUnique)
{
    BreakpointEngine eng;
    int a = eng.addOpBreak(Op::VLoad);
    int b = eng.addSspmWatch(16);
    EXPECT_NE(a, b);
    EXPECT_TRUE(eng.remove(a));
    EXPECT_FALSE(eng.remove(a)); // already gone
    EXPECT_EQ(eng.size(), 1u);
    // New ids are never recycled.
    int c = eng.addOpBreak(Op::VStore);
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
    EXPECT_TRUE(eng.remove(b));
    EXPECT_TRUE(eng.remove(c));
    EXPECT_TRUE(eng.empty());
}

// ------------------------------------------------------------------
// Session determinism: a stopped-and-continued run must print the
// same `final:` line (cycles, insts, stats fingerprint) as an
// uninterrupted one.
// ------------------------------------------------------------------

/** Run one SpMV debug session from a command script; returns the
 *  `final:` line. Fails the test if the session exits non-zero. */
std::string
runSession(BackendKind kind, unsigned cores,
           const std::string &script)
{
    MachineParams params;
    params.backend.kind = kind;

    // Inputs are rebuilt per call from a fixed seed so every session
    // sees identical work (mirroring via_db's shared closures).
    Rng rng(7);
    auto a = std::make_shared<Csr>(genUniform(96, 96, 0.05, rng));
    auto x = std::make_shared<DenseVector>(
        randomVector(a->cols(), rng));
    auto golden = std::make_shared<DenseVector>(a->multiply(*x));

    debug::TargetFactory factory;
    if (cores > 1) {
        factory = [params, cores] {
            debug::DebugTarget t;
            t.multi = std::make_unique<MultiMachine>(params, cores);
            return t;
        };
    } else {
        factory = [params] {
            debug::DebugTarget t;
            t.machine = std::make_unique<Machine>(params);
            return t;
        };
    }
    debug::KernelFn kfn = [a, x, golden,
                           cores](debug::DebugTarget &t) {
        auto res = cores > 1
                       ? kernels::spmvParallel(
                             *t.multi, *a, *x, "csr",
                             kernels::Partition::Static, true)
                       : kernels::spmvAccel(*t.machine, *a, *x,
                                            "csr");
        return allClose(res.y, *golden);
    };

    std::istringstream in(script);
    std::ostringstream out;
    debug::SessionConfig scfg;
    scfg.commands = &in;
    scfg.out = &out;
    debug::DebugSession session(std::move(factory), std::move(kfn),
                                scfg);
    EXPECT_EQ(session.run(), 0) << out.str();

    std::istringstream lines(out.str());
    std::string line, final_line;
    while (std::getline(lines, line))
        if (line.rfind("final:", 0) == 0)
            final_line = line;
    EXPECT_FALSE(final_line.empty()) << out.str();
    return final_line;
}

/** Stop several ways mid-run, inspect state, then continue. */
const char *const kInterrupted =
    "break vld once\n"
    "continue\n"
    "info rob\n"
    "info backend\n"
    "step 5\n"
    "run-to-inst 40\n"
    "info stats\n"
    "continue\n";

TEST(DebugSession, StopContinueBitIdenticalVia)
{
    std::string plain = runSession(BackendKind::Via, 1, "");
    std::string stopped =
        runSession(BackendKind::Via, 1, kInterrupted);
    EXPECT_EQ(plain, stopped);
}

TEST(DebugSession, StopContinueBitIdenticalBase)
{
    std::string plain = runSession(BackendKind::Base, 1, "");
    std::string stopped =
        runSession(BackendKind::Base, 1, kInterrupted);
    EXPECT_EQ(plain, stopped);
}

TEST(DebugSession, StopContinueBitIdenticalSsr)
{
    std::string plain = runSession(BackendKind::Ssr, 1, "");
    std::string stopped =
        runSession(BackendKind::Ssr, 1, kInterrupted);
    EXPECT_EQ(plain, stopped);
}

TEST(DebugSession, StopContinueBitIdenticalIndexMac)
{
    std::string plain = runSession(BackendKind::IndexMac, 1, "");
    std::string stopped =
        runSession(BackendKind::IndexMac, 1, kInterrupted);
    EXPECT_EQ(plain, stopped);
}

TEST(DebugSession, StopContinueBitIdenticalTwoCores)
{
    std::string plain = runSession(BackendKind::Via, 2, "");
    std::string stopped =
        runSession(BackendKind::Via, 2, kInterrupted);
    EXPECT_EQ(plain, stopped);
}

TEST(DebugSession, CheckpointRewindReplaysBitIdentical)
{
    // The rewind path re-runs the kernel from scratch and
    // byte-compares the re-captured image against the saved one; a
    // zero exit proves the comparison passed, and the final line
    // must still match an untouched run.
    std::string plain = runSession(BackendKind::Via, 1, "");
    std::string rewound = runSession(BackendKind::Via, 1,
                                     "run-to-inst 20\n"
                                     "checkpoint save mid\n"
                                     "continue\n"
                                     "checkpoint load mid\n"
                                     "continue\n");
    EXPECT_EQ(plain, rewound);
}

// ------------------------------------------------------------------
// Streaming generators.
// ------------------------------------------------------------------

TEST(StreamingGenerators, BandedCsrBitIdenticalToGenBanded)
{
    Rng rng_a(11), rng_b(11);
    Csr coo_path = genBanded(300, 9, 0.4, rng_a);
    Csr direct = genBandedCsr(300, 9, 0.4, rng_b);

    EXPECT_EQ(coo_path.rowPtr(), direct.rowPtr());
    EXPECT_EQ(coo_path.colIdx(), direct.colIdx());
    EXPECT_EQ(coo_path.values(), direct.values()); // bit-identical
    EXPECT_EQ(rng_a.state(), rng_b.state());
}

TEST(StreamingGenerators, RmatCsrMatchesGenRmat)
{
    // Small n with a high edge target forces duplicate edges, so
    // the merge path is exercised. Structure must match exactly;
    // values are allClose (3+-way duplicate sums may associate
    // differently than the global canonicalize sort).
    Rng rng_a(5), rng_b(5);
    Csr coo_path = genRmat(64, 2000, rng_a);
    Csr direct = genRmatCsr(64, 2000, rng_b);

    EXPECT_EQ(coo_path.rowPtr(), direct.rowPtr());
    EXPECT_EQ(coo_path.colIdx(), direct.colIdx());
    ASSERT_EQ(coo_path.values().size(), direct.values().size());
    for (std::size_t i = 0; i < direct.values().size(); ++i)
        EXPECT_NEAR(coo_path.values()[i], direct.values()[i], 1e-5)
            << "value " << i;
    // Both consume the random stream identically.
    EXPECT_EQ(rng_a.state(), rng_b.state());
}

TEST(StreamingGenerators, RmatCsrMatchesAtLargerScale)
{
    // A larger, sparser instance (hub rows still collide — RMAT
    // always has duplicate pressure at the top-left corner).
    Rng rng_a(9), rng_b(9);
    Csr coo_path = genRmat(1024, 3000, rng_a);
    Csr direct = genRmatCsr(1024, 3000, rng_b);
    EXPECT_EQ(coo_path.rowPtr(), direct.rowPtr());
    EXPECT_EQ(coo_path.colIdx(), direct.colIdx());
    ASSERT_EQ(coo_path.values().size(), direct.values().size());
    for (std::size_t i = 0; i < direct.values().size(); ++i)
        EXPECT_NEAR(coo_path.values()[i], direct.values()[i], 1e-5)
            << "value " << i;
    EXPECT_EQ(rng_a.state(), rng_b.state());
}

/** FNV-1a-64 of @p bytes bytes at @p data, continuing from @p h. */
std::uint64_t
fnv1a64(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Hex FNV-1a-64 of a matrix's arrays and the Rng state after it. */
std::string
generatorHash(const Csr &m, const Rng &rng)
{
    std::uint64_t h = 1469598103934665603ull;
    h = fnv1a64(h, m.rowPtr().data(),
                m.rowPtr().size() * sizeof(Index));
    h = fnv1a64(h, m.colIdx().data(),
                m.colIdx().size() * sizeof(Index));
    h = fnv1a64(h, m.values().data(),
                m.values().size() * sizeof(Value));
    const auto state = rng.state();
    h = fnv1a64(h, state.data(), sizeof(state));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

TEST(StreamingGenerators, RmatGeneratorsMatchGoldenHashes)
{
    // Both RMAT generators, bit for bit: row_ptr, col_idx and value
    // bytes plus the end Rng state. The cases cover n=1 (no descent
    // levels), tiny n with heavy duplication, the two allClose cases
    // above, and a 2^16-row instance whose hub rows are longer than
    // the insertion-sort cutoff.
    struct Case
    {
        Index n;
        std::size_t nnz;
        std::uint64_t seed;
        const char *csr;
        const char *coo;
    };
    const Case cases[] = {
        {1, 10, 3, "df152c934b17ccc1", "df152c934b17ccc1"},
        {2, 100, 4, "bf3ff665a0f7fc5c", "61a53b3c259a61ac"},
        {64, 2000, 5, "3f797d8e08f736f3", "9cb4a8ebb8d735bd"},
        {1024, 3000, 9, "97133c4393e134d8", "290c95700a0661c5"},
        {65536, 524288, 7, "f082ea5d566fe5a7", "b0e5443f298210d7"},
    };
    for (const Case &c : cases) {
        Rng rng_csr(c.seed), rng_coo(c.seed);
        const Csr direct = genRmatCsr(c.n, c.nnz, rng_csr);
        const Csr coo_path = genRmat(c.n, c.nnz, rng_coo);
        EXPECT_EQ(generatorHash(direct, rng_csr), c.csr)
            << "genRmatCsr(" << c.n << ", " << c.nnz << ", seed "
            << c.seed << ")";
        EXPECT_EQ(generatorHash(coo_path, rng_coo), c.coo)
            << "genRmat(" << c.n << ", " << c.nnz << ", seed "
            << c.seed << ")";
    }
}

// ------------------------------------------------------------------
// Streaming Matrix Market I/O.
// ------------------------------------------------------------------

class TempMtx
{
  public:
    explicit TempMtx(const char *name)
        : _path(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempMtx() { std::remove(_path.c_str()); }
    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(StreamingMmIo, WriterOutputMatchesWriteMatrixMarket)
{
    Rng rng(3);
    Csr m = genUniform(40, 30, 0.1, rng);

    TempMtx whole("via_mm_whole.mtx");
    TempMtx streamed("via_mm_streamed.mtx");
    writeMatrixMarket(m, whole.path());

    MatrixMarketWriter w(streamed.path(), m.rows(), m.cols(),
                         m.nnz());
    for (Index r = 0; r < m.rows(); ++r)
        for (Index k = m.rowPtr()[std::size_t(r)];
             k < m.rowPtr()[std::size_t(r) + 1]; ++k)
            w.add(r, m.colIdx()[std::size_t(k)],
                  m.values()[std::size_t(k)]);
    w.close();

    EXPECT_EQ(slurp(whole.path()), slurp(streamed.path()));
}

TEST(StreamingMmIo, StreamingReadMatchesOnePassReader)
{
    Rng rng(13);
    Csr m = genUniform(64, 64, 0.08, rng);
    TempMtx file("via_mm_roundtrip.mtx");
    writeMatrixMarket(m, file.path());

    Csr one_pass = readMatrixMarket(file.path());
    Csr streaming = readMatrixMarketStreaming(file.path());
    EXPECT_EQ(one_pass.rowPtr(), streaming.rowPtr());
    EXPECT_EQ(one_pass.colIdx(), streaming.colIdx());
    EXPECT_EQ(one_pass.values(), streaming.values());
    // And both round-trip the original matrix.
    EXPECT_EQ(streaming.rowPtr(), m.rowPtr());
    EXPECT_EQ(streaming.colIdx(), m.colIdx());
}

TEST(StreamingMmIo, StreamingReadSymmetricWithDuplicates)
{
    // Hand-written file: symmetric expansion plus a duplicated
    // entry (summed on load), with comments between entries.
    TempMtx file("via_mm_sym.mtx");
    {
        std::ofstream out(file.path());
        out << "%%MatrixMarket matrix coordinate real symmetric\n"
            << "% hand-made\n"
            << "4 4 5\n"
            << "1 1 2.0\n"
            << "% a comment mid-stream\n"
            << "3 1 1.5\n"
            << "3 1 0.5\n"
            << "4 2 -1.0\n"
            << "4 4 3.0\n";
    }
    Csr one_pass = readMatrixMarket(file.path());
    Csr streaming = readMatrixMarketStreaming(file.path());
    EXPECT_EQ(one_pass.rowPtr(), streaming.rowPtr());
    EXPECT_EQ(one_pass.colIdx(), streaming.colIdx());
    EXPECT_EQ(one_pass.values(), streaming.values());
    // Unique positions: (0,0), (2,0)+mirror, (3,1)+mirror, (3,3) —
    // the duplicated (3,1) entries merged to a single 2.0.
    EXPECT_EQ(streaming.nnz(), 6u);
}

} // namespace
} // namespace via
