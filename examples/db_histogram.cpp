/**
 * @file
 * Database-style histogram for query planning (paper Section II-E):
 * build an equi-width histogram over a skewed "sales amount" column
 * to estimate selectivities, on the simulated machine with the
 * scalar, vector (conflict-detect) and VIA kernels.
 */

#include <cstdio>
#include <vector>

#include "cpu/machine.hh"
#include "kernels/histogram.hh"
#include "kernels/reference.hh"
#include "simcore/rng.hh"

using namespace via;

namespace
{

/** A skewed column: many small transactions, a fat tail. */
std::vector<Index>
salesColumn(std::size_t rows, Index buckets, Rng &rng)
{
    std::vector<Index> col(rows);
    for (auto &v : col) {
        // Approximate lognormal via the product of uniforms.
        double u = rng.uniform() * rng.uniform() * rng.uniform();
        v = Index(double(buckets - 1) * u);
    }
    return col;
}

} // namespace

int
main()
{
    const std::size_t rows = 20000;
    const Index buckets = 1024;
    Rng rng(11);
    auto column = salesColumn(rows, buckets, rng);

    MachineParams params;

    Machine m1(params), m2(params), m3(params);
    auto scalar = kernels::histScalar(m1, column, buckets);
    auto vec = kernels::histVector(m2, column, buckets);
    auto viak = kernels::histVia(m3, column, buckets);

    auto want = kernels::refHistogram(column, buckets);
    bool ok = viak.hist == want && vec.hist == want &&
              scalar.hist == want;
    std::printf("%zu rows into %d buckets, all kernels exact: %s\n",
                rows, buckets, ok ? "yes" : "NO");

    std::printf("%-22s %12s %9s\n", "kernel", "cycles", "speedup");
    auto row = [&](const char *name, Tick c) {
        std::printf("%-22s %12llu %8.2fx\n", name,
                    static_cast<unsigned long long>(c),
                    double(scalar.cycles) / double(c));
    };
    row("scalar", scalar.cycles);
    row("vector (AVX512CD)", vec.cycles);
    row("VIA", viak.cycles);

    // Query-planning use: estimate selectivity of amount < 10% max.
    double below = 0.0, total = 0.0;
    for (Index b = 0; b < buckets; ++b) {
        total += double(viak.hist[std::size_t(b)]);
        if (b < buckets / 10)
            below += double(viak.hist[std::size_t(b)]);
    }
    std::printf("\nestimated selectivity of `amount < p10`: %.1f%%\n",
                100.0 * below / total);
    return ok ? 0 : 1;
}
