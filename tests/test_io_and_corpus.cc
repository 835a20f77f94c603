/**
 * @file
 * Matrix Market I/O, generators, corpus and corpus-bucketing
 * tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "simcore/rng.hh"
#include "sparse/corpus.hh"
#include "sparse/generators.hh"
#include "sparse/mm_io.hh"

namespace via
{
namespace
{

TEST(MatrixMarket, ParsesCoordinateReal)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "3 4 2\n"
        "1 1 1.5\n"
        "3 4 -2.0\n");
    Csr m = readMatrixMarketStream(in);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_FLOAT_EQ(m.values()[0], 1.5f);
}

TEST(MatrixMarket, SymmetricExpands)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 5.0\n"
        "3 3 7.0\n");
    Csr m = readMatrixMarketStream(in);
    EXPECT_EQ(m.nnz(), 3u); // (2,1), (1,2), (3,3)
}

TEST(MatrixMarket, PatternReadsAsOnes)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 1\n"
        "1 2\n");
    Csr m = readMatrixMarketStream(in);
    EXPECT_FLOAT_EQ(m.values()[0], 1.0f);
}

TEST(MatrixMarketDeathTest, RejectsMalformedInput)
{
    std::istringstream bad1("not a banner\n1 1 0\n");
    EXPECT_DEATH(readMatrixMarketStream(bad1), "banner");
    std::istringstream bad2(
        "%%MatrixMarket matrix array real general\n");
    EXPECT_DEATH(readMatrixMarketStream(bad2), "coordinate");
    std::istringstream bad3(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "5 5 1.0\n");
    EXPECT_DEATH(readMatrixMarketStream(bad3), "bad entry");
    // The count pass skips values; the place pass still rejects one.
    std::istringstream bad3v(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 x\n");
    EXPECT_DEATH(readMatrixMarketStream(bad3v), "bad entry line '2 2 x'");
    std::istringstream bad4(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 1073741824\n"
        "1 1 1.0\n");
    EXPECT_DEATH(readMatrixMarketStream(bad4), "entries exceed");
    // A symmetric entry's mirror must land inside the matrix.
    std::istringstream bad5(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 5 1\n"
        "1 5 1.0\n");
    EXPECT_DEATH(readMatrixMarketStream(bad5), "must be square");
    std::istringstream bad6(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "5 3 1\n"
        "5 1 1.0\n");
    EXPECT_DEATH(readMatrixMarketStream(bad6), "must be square");
}

TEST(MatrixMarket, FileRoundTrip)
{
    Rng rng(3);
    Csr m = genUniform(40, 40, 0.1, rng);
    auto path = std::filesystem::temp_directory_path() /
                "via_test_roundtrip.mtx";
    writeMatrixMarket(m, path.string());
    Csr back = readMatrixMarket(path.string());
    std::filesystem::remove(path);
    EXPECT_EQ(back.rows(), m.rows());
    EXPECT_EQ(back.nnz(), m.nnz());
    EXPECT_EQ(back.colIdx(), m.colIdx());
    for (std::size_t i = 0; i < m.nnz(); ++i)
        EXPECT_NEAR(back.values()[i], m.values()[i], 1e-5);
}

TEST(Generators, BandedStaysInBand)
{
    Rng rng(1);
    Index bw = 3;
    Csr m = genBandedCsr(64, bw, 0.8, rng);
    Coo coo = m.toCoo();
    for (const Triplet &t : coo.elems())
        EXPECT_LE(std::abs(t.row - t.col), bw);
    // Diagonal always present.
    for (Index r = 0; r < 64; ++r)
        EXPECT_GE(m.rowNnz(r), 1);
}

TEST(Generators, UniformHitsTargetDensity)
{
    Rng rng(2);
    Csr m = genUniform(256, 256, 0.05, rng);
    double got = double(m.nnz()) / (256.0 * 256.0);
    EXPECT_NEAR(got, 0.05, 0.01);
}

TEST(Generators, RmatIsSkewed)
{
    Rng rng(3);
    Csr m = genRmatCsr(256, 4096, rng);
    // Power-law: the busiest row should far exceed the mean.
    double mean = double(m.nnz()) / 256.0;
    EXPECT_GT(double(m.maxRowNnz()), 3.0 * mean);
}

TEST(Generators, DiagHeavyHasFullDiagonal)
{
    Rng rng(4);
    Csr m = genDiagHeavy(50, 2.0, rng);
    DenseVector ones(50, 1.0f);
    for (Index r = 0; r < 50; ++r) {
        bool has_diag = false;
        for (Index k = m.rowPtr()[std::size_t(r)];
             k < m.rowPtr()[std::size_t(r) + 1]; ++k)
            has_diag |= m.colIdx()[std::size_t(k)] == r;
        EXPECT_TRUE(has_diag) << "row " << r;
    }
}

TEST(Generators, DeterministicForSeed)
{
    Rng a(9), b(9);
    Csr m1 = genUniform(64, 64, 0.1, a);
    Csr m2 = genUniform(64, 64, 0.1, b);
    EXPECT_TRUE(m1 == m2);
}

TEST(Corpus, RespectsSpecBounds)
{
    CorpusSpec spec;
    spec.count = 12;
    spec.minRows = 100;
    spec.maxRows = 500;
    auto corpus = buildCorpus(spec);
    ASSERT_EQ(corpus.size(), 12u);
    for (const auto &e : corpus) {
        EXPECT_GE(e.matrix.rows(), 64);  // rmat rounds to pow2
        EXPECT_LE(e.matrix.rows(), 512);
        EXPECT_GT(e.matrix.nnz(), 0u);
        EXPECT_FALSE(e.name.empty());
        EXPECT_FALSE(e.family.empty());
    }
}

TEST(Corpus, DeterministicForSeed)
{
    CorpusSpec spec;
    spec.count = 4;
    auto a = buildCorpus(spec);
    auto b = buildCorpus(spec);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_TRUE(a[i].matrix == b[i].matrix);
    }
}

TEST(Corpus, CoversMultipleFamilies)
{
    CorpusSpec spec;
    spec.count = 30;
    auto corpus = buildCorpus(spec);
    std::set<std::string> families;
    for (const auto &e : corpus)
        families.insert(e.family);
    EXPECT_GE(families.size(), 3u);
}

TEST(Corpus, LoadDirReadsMtxFiles)
{
    namespace fs = std::filesystem;
    auto dir = fs::temp_directory_path() / "via_test_corpus";
    fs::create_directories(dir);
    Rng rng(5);
    writeMatrixMarket(genUniform(16, 16, 0.2, rng),
                      (dir / "a.mtx").string());
    writeMatrixMarket(genUniform(24, 24, 0.2, rng),
                      (dir / "b.mtx").string());
    auto corpus = loadCorpusDir(dir.string());
    fs::remove_all(dir);
    ASSERT_EQ(corpus.size(), 2u);
    EXPECT_EQ(corpus[0].name, "a");
    EXPECT_EQ(corpus[1].matrix.rows(), 24);
}

TEST(StructureStats, EvenBucketsBalancesAndOrders)
{
    std::vector<double> keys{5, 1, 9, 3, 7, 2, 8, 4};
    auto b = evenBuckets(keys, 4);
    // Smallest two keys -> bucket 0, largest two -> bucket 3.
    EXPECT_EQ(b[1], 0u); // key 1
    EXPECT_EQ(b[5], 0u); // key 2
    EXPECT_EQ(b[2], 3u); // key 9
    EXPECT_EQ(b[6], 3u); // key 8
    std::size_t counts[4] = {0, 0, 0, 0};
    for (auto x : b)
        ++counts[x];
    for (auto c : counts)
        EXPECT_EQ(c, 2u);
}

} // namespace
} // namespace via
