/**
 * @file
 * PageRank on a power-law graph — the "SpMV is the key graph
 * kernel" motivation from the paper's introduction (GraphBLAS).
 *
 * Each PageRank iteration is y = alpha * A^T x + (1-alpha)/N; the
 * SpMV runs on the simulated machine with and without VIA and the
 * example reports both the ranking and the cycle advantage.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "cpu/machine.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/csc.hh"
#include "sparse/generators.hh"

using namespace via;

namespace
{

/** Column-normalized transpose of the adjacency matrix. */
Csr
pagerankOperator(const Csr &adj)
{
    // out-degree of each vertex
    std::vector<double> outdeg(std::size_t(adj.rows()), 0.0);
    Coo coo = adj.toCoo();
    for (const Triplet &t : coo.elems())
        outdeg[std::size_t(t.row)] += 1.0;
    Coo op(adj.cols(), adj.rows());
    for (const Triplet &t : coo.elems())
        op.add(t.col, t.row, Value(1.0 / outdeg[std::size_t(t.row)]));
    return Csr::fromCoo(std::move(op));
}

} // namespace

int
main()
{
    const Index n = 1024;
    const int iterations = 10;
    const float alpha = 0.85f;

    Rng rng(2024);
    Csr adj = genRmatCsr(n, 8 * std::size_t(n), rng);
    Csr op = pagerankOperator(adj);
    std::printf("graph: %d vertices, %zu edges\n", n, adj.nnz());

    MachineParams params;

    auto run = [&](bool use_via, Tick &cycles) {
        DenseVector rank(std::size_t(n), Value(1.0 / double(n)));
        Machine m(params);
        Csb csb = use_via ? Csb::fromCsr(op, kernels::viaCsbBeta(m))
                          : Csb();
        for (int it = 0; it < iterations; ++it) {
            auto res = use_via
                           ? kernels::spmvViaCsb(m, csb, rank)
                           : kernels::spmvVectorCsr(m, op, rank);
            for (std::size_t v = 0; v < rank.size(); ++v)
                rank[v] = alpha * res.y[v] +
                          (1.0f - alpha) / float(n);
        }
        cycles = m.cycles();
        return rank;
    };

    Tick base_cycles = 0, via_cycles = 0;
    DenseVector base_rank = run(false, base_cycles);
    DenseVector via_rank = run(true, via_cycles);

    std::printf("ranks agree: %s\n",
                allClose(base_rank, via_rank, 1e-3, 1e-5) ? "yes"
                                                          : "NO");
    std::printf("%d iterations: baseline %llu cycles, VIA %llu "
                "cycles (%.2fx)\n",
                iterations,
                static_cast<unsigned long long>(base_cycles),
                static_cast<unsigned long long>(via_cycles),
                double(base_cycles) / double(via_cycles));

    // Top-5 vertices.
    std::vector<Index> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), Index(0));
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](Index a, Index b) {
                          return via_rank[std::size_t(a)] >
                                 via_rank[std::size_t(b)];
                      });
    std::printf("top vertices:");
    for (int i = 0; i < 5; ++i)
        std::printf(" %d(%.4f)", order[std::size_t(i)],
                    double(via_rank[std::size_t(order[
                        std::size_t(i)])]));
    std::printf("\n");
    return 0;
}
