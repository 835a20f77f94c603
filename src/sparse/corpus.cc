#include "sparse/corpus.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "simcore/log.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"
#include "sparse/mm_io.hh"

namespace via
{

namespace
{

/** Log-uniform sample in [lo, hi]. */
double
logUniform(double lo, double hi, Rng &rng)
{
    return lo * std::exp(rng.uniform() * std::log(hi / lo));
}

Index
roundToPow2(Index n)
{
    return Index(std::bit_floor(std::uint64_t(n)));
}

} // namespace

std::vector<CorpusEntry>
buildCorpus(const CorpusSpec &spec)
{
    via_assert(spec.count > 0, "empty corpus requested");
    via_assert(spec.minRows > 0 && spec.minRows <= spec.maxRows,
               "bad corpus row range");
    Rng rng(spec.seed);
    std::vector<CorpusEntry> corpus;
    corpus.reserve(spec.count);

    // Family mix loosely follows the UF collection: structured
    // problems dominate, graphs and unstructured matrices follow.
    const char *families[] = {"banded", "blocked", "rmat", "uniform",
                              "diag"};
    const double weights[] = {0.30, 0.25, 0.20, 0.15, 0.10};

    for (std::size_t i = 0; i < spec.count; ++i) {
        double pick = rng.uniform();
        std::size_t fam = 0;
        double acc = 0.0;
        for (std::size_t f = 0; f < 5; ++f) {
            acc += weights[f];
            if (pick < acc) {
                fam = f;
                break;
            }
        }

        auto n = Index(logUniform(double(spec.minRows),
                                  double(spec.maxRows), rng));
        double density = logUniform(spec.minDensity,
                                    spec.maxDensity, rng);
        // Real matrices essentially never average below ~1.5
        // non-zeros per row; the UF density floor of 0.01% applies
        // to the 20k-row end of the collection.
        density = std::max(density, 1.5 / double(n));

        Csr m;
        switch (fam) {
          case 0: {
            // Band chosen so in-band fill stays plausible.
            auto bw = Index(std::max<double>(
                1.0, density * double(n) * (2.0 + rng.uniform())));
            double fill = density * double(n) / (2.0 * bw + 1.0);
            m = genBandedCsr(n, bw, std::min(fill, 0.9), rng);
            break;
          }
          case 1: {
            Index side = std::max<Index>(
                4, Index(logUniform(4.0, 64.0, rng)));
            double blocks = std::sqrt(density);
            m = genBlocked(n, side, std::min(blocks, 0.5),
                           std::min(4.0 * std::sqrt(density), 0.8),
                           rng);
            break;
          }
          case 2: {
            Index n2 = roundToPow2(n);
            auto nnz = std::size_t(density * double(n2) *
                                   double(n2));
            m = genRmatCsr(n2, std::max<std::size_t>(nnz, n2), rng);
            break;
          }
          case 3:
            m = genUniform(n, n, density, rng);
            break;
          default:
            m = genDiagHeavy(n, std::max(1.0,
                                         density * double(n)), rng);
            break;
        }

        std::ostringstream name;
        name << families[fam] << '_' << i << "_n" << m.rows()
             << "_nnz" << m.nnz();
        corpus.push_back(CorpusEntry{name.str(), families[fam],
                                     std::move(m)});
    }
    return corpus;
}

std::vector<CorpusEntry>
loadCorpusDir(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<CorpusEntry> corpus;
    if (!fs::is_directory(dir))
        via_fatal("corpus directory '", dir, "' does not exist");
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".mtx")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const auto &path : files) {
        corpus.push_back(CorpusEntry{path.stem().string(), "mtx",
                                     readMatrixMarket(path.string())});
    }
    return corpus;
}

std::vector<std::size_t>
evenBuckets(const std::vector<double> &keys, std::size_t buckets)
{
    via_assert(buckets > 0, "need at least one bucket");
    std::vector<std::size_t> order(keys.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return keys[a] < keys[b];
                     });
    std::vector<std::size_t> bucket(keys.size(), 0);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        bucket[order[pos]] = std::min(buckets - 1,
                                      pos * buckets / order.size());
    }
    return bucket;
}

} // namespace via
