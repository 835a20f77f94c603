/**
 * @file
 * The debugger subsystem (src/debug) and the streaming million-row
 * input paths that ride with it.
 *
 * The debugger's core contract is non-perturbation: the stop engine
 * observes commits through the passive TimingObserver hook, so a
 * session that stops, inspects, and continues must print a `final:`
 * line (cycles / insts / stats fingerprint) bit-identical to an
 * uninterrupted run — per backend, at one core and at two. The
 * BreakpointEngine itself is tested as a pure condition evaluator:
 * opcode matches, access-window overlap, line alignment, once
 * removal, and the edge-trigger/re-arm latch on threshold watches.
 *
 * Golden hashes pin the banded, RMAT, uniform and diagonal-heavy
 * generators' arrays and Rng end state, and the two-pass .mtx
 * reader's arrays on hand-written fixtures, bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "cpu/multi_machine.hh"
#include "debug/breakpoints.hh"
#include "debug/session.hh"
#include "kernels/parallel.hh"
#include "simcore/fnv.hh"
#include "simcore/rng.hh"
#include "sparse/coo.hh"
#include "sparse/dense.hh"
#include "sparse/generators.hh"
#include "sparse/mm_io.hh"

#include "hash_util.hh"

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

    debug::TargetFactory factory = [params, cores] {
        return std::make_unique<MultiMachine>(params, cores);
    };
    debug::KernelFn kfn = [a, x, golden, kind](MultiMachine &mm) {
        auto res = kernels::spmvRun(mm, kind, *a, "csr", *x);
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

/** FNV-1a-64 of a matrix's row_ptr, col_idx and value bytes. */
std::uint64_t
arraysHash(const Csr &m)
{
    std::uint64_t h = fnv1a64(bytesOf(m.rowPtr()));
    h = fnv1a64(bytesOf(m.colIdx()), h);
    return fnv1a64(bytesOf(m.values()), h);
}

/** Hex FNV-1a-64 of a matrix's arrays and the Rng state after it. */
std::string
generatorHash(const Csr &m, const Rng &rng)
{
    const auto state = rng.state();
    return hex(fnv1a64(bytesOf(state), arraysHash(m)));
}

TEST(StreamingGenerators, RmatGeneratorsMatchGoldenHashes)
{
    // genRmatCsr bit for bit: row_ptr, col_idx and value bytes plus
    // the end Rng state. The cases cover n=1 (no descent levels),
    // tiny n with heavy duplication, two mid-size instances whose
    // hub rows collide, and a 2^16-row instance whose hub rows are
    // longer than the insertion-sort cutoff.
    struct Case
    {
        Index n;
        std::size_t nnz;
        std::uint64_t seed;
        const char *csr;
    };
    const Case cases[] = {
        {1, 10, 3, "df152c934b17ccc1"},
        {2, 100, 4, "bf3ff665a0f7fc5c"},
        {64, 2000, 5, "3f797d8e08f736f3"},
        {1024, 3000, 9, "97133c4393e134d8"},
        {65536, 524288, 7, "f082ea5d566fe5a7"},
    };
    for (const Case &c : cases) {
        Rng rng(c.seed);
        const Csr m = genRmatCsr(c.n, c.nnz, rng);
        EXPECT_EQ(generatorHash(m, rng), c.csr)
            << "genRmatCsr(" << c.n << ", " << c.nnz << ", seed "
            << c.seed << ")";
    }
}

TEST(StreamingGenerators, RmatIsIdenticalAtEverySegmentCount)
{
    // Every segment count gives one segment's arrays and end state:
    // the golden cases above, and more segments than edges.
    struct Case
    {
        Index n;
        std::size_t nnz;
        std::uint64_t seed;
    };
    const Case cases[] = {{1, 10, 3},      {2, 100, 4},
                          {64, 2000, 5},   {1024, 3000, 9},
                          {65536, 524288, 7}, {16, 3, 11}};
    for (const Case &c : cases) {
        Rng one_rng(c.seed);
        const Csr one = genRmatCsr(c.n, c.nnz, one_rng, 1);
        for (unsigned segments : {2u, 3u, 4u, 5u, 7u}) {
            Rng rng(c.seed);
            const Csr m = genRmatCsr(c.n, c.nnz, rng, segments);
            EXPECT_TRUE(m == one && rng.state() == one_rng.state())
                << "genRmatCsr(" << c.n << ", " << c.nnz << ", seed "
                << c.seed << ") at " << segments << " segments";
        }
    }
}

/** One genUniform golden case. */
struct UniformCase
{
    Index rows, cols;
    double density;
    std::uint64_t seed;
    const char *hash;
};

/**
 * genUniform bit for bit: 16384^2 seeds with runs of three draws on
 * one position (at seed 8 some of them sum to different floats in
 * different orders; they sum in draw order), an 8192^2 seed with one
 * such run, a dense 10x10 with long runs, a non-square shape, a
 * target of 0 (so the draws outrun the target), and density 0 (the
 * empty matrix, with the Rng untouched).
 */
const UniformCase kUniformCases[] = {
    {16384, 16384, 0.005, 1, "2f3761d5b4c0fe16"},
    {16384, 16384, 0.005, 2, "301a42f78dccff87"},
    {16384, 16384, 0.005, 8, "6ed1b6965e991ee3"},
    {8192, 8192, 0.004, 2, "601160541ce0ed79"},
    {10, 10, 1.0, 3, "a35aee38dd938009"},
    {300, 70, 0.5, 4, "87a39ece8e2abf9b"},
    {3, 1000000, 1e-7, 7, "6c0807e2ddf29fdd"},
    {1000, 1000, 0.0, 6, "ab51e64b8c8a35e5"},
};

TEST(StreamingGenerators, UniformMatchesGoldenHashes)
{
    for (const UniformCase &c : kUniformCases) {
        Rng rng(c.seed);
        const Csr m = genUniform(c.rows, c.cols, c.density, rng);
        EXPECT_EQ(generatorHash(m, rng), c.hash)
            << "genUniform(" << c.rows << ", " << c.cols << ", "
            << c.density << ", seed " << c.seed << ")";
    }
    Rng rng(6);
    EXPECT_EQ(genUniform(1000, 1000, 0.0, rng).nnz(), 0u);
    EXPECT_EQ(rng.state(), Rng(6).state());
}

TEST(StreamingGenerators, UniformIsIdenticalAtEverySegmentCount)
{
    // The golden arrays and end state at every segment count, also
    // with more segments than entries (3 entries, and none).
    for (const UniformCase &c : kUniformCases) {
        for (unsigned segments : {1u, 2u, 3u, 4u, 5u, 7u}) {
            Rng rng(c.seed);
            const Csr m =
                genUniform(c.rows, c.cols, c.density, rng, segments);
            EXPECT_EQ(generatorHash(m, rng), c.hash)
                << "genUniform(" << c.rows << ", " << c.cols << ", "
                << c.density << ", seed " << c.seed << ") at "
                << segments << " segments";
        }
    }
}

/**
 * The uniform generator as a triplet loop: exponential gaps over the
 * linearized positions, one value per entry, then Csr::fromCoo, which
 * sums the draws of one position in draw order.
 */
Csr
uniformViaCoo(Index rows, Index cols, double density, Rng &rng)
{
    const double total = double(rows) * double(cols);
    const auto target = std::size_t(total * density);
    Coo coo(rows, cols);
    if (density == 0.0)
        return Csr::fromCoo(std::move(coo));
    const double skip_mean =
        total / double(std::max<std::size_t>(target, 1));
    double pos = 0.0;
    while (true) {
        const double u = std::max(rng.uniform(), 1e-12);
        pos += -std::log(u) * skip_mean;
        if (pos >= total)
            break;
        const auto linear = std::uint64_t(pos);
        coo.add(Index(linear / std::uint64_t(cols)),
                Index(linear % std::uint64_t(cols)),
                Value(rng.uniform() * 2.0 - 1.0));
    }
    return Csr::fromCoo(std::move(coo));
}

TEST(StreamingGenerators, UniformMatchesTheTripletLoop)
{
    // Every golden case, so each golden hash is also the serial
    // loop's, then random shapes from one row or column up, sparse to
    // full, where a full matrix draws each position about once, so
    // runs of three or more draws on one position are common.
    for (const UniformCase &c : kUniformCases) {
        Rng want_rng(c.seed), rng(c.seed);
        const Csr want = uniformViaCoo(c.rows, c.cols, c.density, want_rng);
        const Csr m = genUniform(c.rows, c.cols, c.density, rng);
        EXPECT_TRUE(m == want && rng.state() == want_rng.state())
            << "genUniform(" << c.rows << ", " << c.cols << ", "
            << c.density << ", seed " << c.seed << ")";
    }
    Rng shapes(17);
    for (int i = 0; i < 60; ++i) {
        const auto rows = Index(1 + shapes.below(i % 3 ? 200 : 4));
        const auto cols = Index(1 + shapes.below(i % 4 ? 300 : 3));
        const double density =
            i % 5 == 0 ? 1.0 : shapes.uniform() * (i % 2 ? 1.0 : 0.05);
        const std::uint64_t seed = shapes.next();
        Rng want_rng(seed), rng(seed);
        const Csr want = uniformViaCoo(rows, cols, density, want_rng);
        const Csr m = genUniform(rows, cols, density, rng);
        EXPECT_TRUE(m == want && rng.state() == want_rng.state())
            << "genUniform(" << rows << ", " << cols << ", " << density
            << ", seed " << seed << ")";
    }
}

TEST(StreamingGenerators, DiagHeavyMatchesGoldenHashes)
{
    // genDiagHeavy bit for bit: n=1 (every extra lands on the
    // diagonal and is dropped), a 4-row case whose rows draw the same
    // extra column twice, and three larger ones, the last with rows
    // plus entries above 2^17, so Csr::fromRows merges its rows on
    // more than one thread when the process may use more than one CPU.
    struct Case
    {
        Index n;
        double off_diag;
        std::uint64_t seed;
        const char *hash;
    };
    const Case cases[] = {
        {1, 3.0, 1, "3106a08f0b35f712"},
        {4, 3.5, 2, "38f258c31f16fe76"},
        {300, 2.5, 3, "310e319489dee862"},
        {5000, 4.2, 4, "c1bbe0f30c179cfc"},
        {65536, 3.0, 5, "da7a9c97008eccdb"},
    };
    for (const Case &c : cases) {
        Rng rng(c.seed);
        const Csr m = genDiagHeavy(c.n, c.off_diag, rng);
        EXPECT_EQ(generatorHash(m, rng), c.hash)
            << "genDiagHeavy(" << c.n << ", " << c.off_diag
            << ", seed " << c.seed << ")";
    }
}

TEST(StreamingGenerators, BandedCsrMatchesGoldenHashes)
{
    // genBandedCsr bit for bit, hashed as above: n=1 (the diagonal
    // alone), a band wider than the matrix (every position is in
    // band), a 300-row case and a few thousand rows.
    struct Case
    {
        Index n;
        Index bandwidth;
        double fill;
        std::uint64_t seed;
        const char *hash;
    };
    const Case cases[] = {
        {1, 4, 0.5, 1, "50f7f2e54b54c5b8"},
        {20, 50, 0.5, 2, "94c677e7636efe88"},
        {300, 9, 0.4, 11, "03bc29fe8579c9aa"},
        {4000, 24, 0.3, 12, "8a5a4053640660cc"},
    };
    for (const Case &c : cases) {
        Rng rng(c.seed);
        const Csr m = genBandedCsr(c.n, c.bandwidth, c.fill, rng);
        EXPECT_EQ(generatorHash(m, rng), c.hash)
            << "genBandedCsr(" << c.n << ", " << c.bandwidth << ", "
            << c.fill << ", seed " << c.seed << ")";
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

/** A stream buffer that cannot seek, as a pipe's cannot. */
class UnseekableBuf : public std::stringbuf
{
  public:
    using std::stringbuf::stringbuf;

  protected:
    pos_type
    seekoff(off_type, std::ios_base::seekdir,
            std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }

    pos_type
    seekpos(pos_type, std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }
};

TEST(StreamingMmIo, ReaderMatchesGoldenHashes)
{
    // The .mtx reader bit for bit: row_ptr, col_idx and value bytes
    // for symmetric expansion, a pattern field, an integer field,
    // comments and blank lines between entries, and one position
    // given three times, twice. The values 1e8, 1 and -1e8 sum to 0
    // in file order (1e8 + 1 rounds back to 1e8 in float) but to 1
    // if the two large ones were summed first; the exact zero is
    // kept. The values 1, 0.2 and -1 round differently for each
    // pair summed first, so file order (1 + 0.2 first) gives a sum
    // that neither reverse order nor 1 + -1 first gives.
    struct Case
    {
        const char *text;
        Index rows;
        Index cols;
        const char *hash;
    };
    const Case cases[] = {
        {"%%MatrixMarket matrix coordinate real symmetric\n"
         "5 5 6\n"
         "1 1 4.0\n"
         "2 1 -1.25\n"
         "3 2 0.5\n"
         "5 3 2.0\n"
         "4 4 1.0\n"
         "5 5 -3.5\n",
         5, 5, "8fbcad50116b269f"},
        {"%%MatrixMarket matrix coordinate pattern general\n"
         "3 4 4\n"
         "1 4\n"
         "3 4\n"
         "2 1\n"
         "1 2\n",
         3, 4, "d3f4a4ee2b9a7547"},
        {"%%MatrixMarket matrix coordinate integer general\n"
         "3 3 4\n"
         "1 1 7\n"
         "2 3 -2\n"
         "3 1 100000\n"
         "3 3 0\n",
         3, 3, "e73829bbdd05ea06"},
        {"%%MatrixMarket matrix coordinate real general\n"
         "% a header comment\n"
         "4 3 3\n"
         "1 1 1.5\n"
         "% a comment between entries\n"
         "\n"
         "4 3 2.5\n"
         "%\n"
         "2 2 -0.75\n",
         4, 3, "40ad27ec6fc14a62"},
        {"%%MatrixMarket matrix coordinate real general\n"
         "2 2 4\n"
         "1 2 100000000\n"
         "2 1 1.0\n"
         "1 2 1\n"
         "1 2 -100000000\n",
         2, 2, "5e8b54452005ebfc"},
        {"%%MatrixMarket matrix coordinate real general\n"
         "1 1 3\n"
         "1 1 1.0\n"
         "1 1 0.2\n"
         "1 1 -1.0\n",
         1, 1, "f8dd1b1131fa35d8"},
    };
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const Case &c = cases[i];
        TempMtx file(("via_mm_golden_" + std::to_string(i) + ".mtx")
                         .c_str());
        {
            std::ofstream out(file.path());
            out << c.text;
        }
        const Csr m = readMatrixMarket(file.path());
        EXPECT_EQ(m.rows(), c.rows) << "fixture " << i;
        EXPECT_EQ(m.cols(), c.cols) << "fixture " << i;
        EXPECT_EQ(hex(arraysHash(m)), c.hash) << "fixture " << i;

        UnseekableBuf pipe{std::string(c.text)};
        std::istream piped(&pipe);
        EXPECT_EQ(hex(arraysHash(readMatrixMarketStream(piped))),
                  c.hash)
            << "fixture " << i << " through a stream that cannot seek";
    }
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
    const Csr m = readMatrixMarket(file.path());
    // Unique positions: (0,0), (2,0)+mirror, (3,1)+mirror, (3,3) —
    // the duplicated (2,0) entries merged to a single 2.0.
    EXPECT_EQ(m.rowPtr(), (std::vector<Index>{0, 2, 3, 4, 6}));
    EXPECT_EQ(m.colIdx(), (std::vector<Index>{0, 2, 3, 0, 1, 3}));
    EXPECT_EQ(m.values(), (std::vector<Value>{2.0f, 2.0f, -1.0f, 2.0f,
                                              -1.0f, 3.0f}));
}

TEST(StreamingMmIoDeathTest, EmptyInputThatCannotSeek)
{
    // An empty pipe, and a stream already read to its end, both
    // cannot report a position; each is read into memory once and
    // then rejected as empty.
    UnseekableBuf empty{std::string()};
    std::istream piped(&empty);
    EXPECT_DEATH(readMatrixMarketStream(piped),
                 "empty Matrix Market input");
    std::istringstream spent("%%MatrixMarket\n");
    std::string line;
    while (std::getline(spent, line)) {
    }
    EXPECT_DEATH(readMatrixMarketStream(spent),
                 "empty Matrix Market input");
}

} // namespace
} // namespace via
