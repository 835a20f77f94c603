/**
 * @file
 * Sparse feature co-occurrence via SpMM — the AI motivation from
 * the paper's introduction (SpMM in SVM/gradient-descent training).
 *
 * Rows of A are samples with sparse binary-ish features; A * A^T is
 * the sample-similarity Gram matrix. Runs the scalar inner-product
 * baseline against the VIA CAM kernel and verifies the results.
 */

#include <cstdio>

#include "cpu/machine.hh"
#include "kernels/spmm.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/csc.hh"
#include "sparse/generators.hh"

using namespace via;

int
main()
{
    const Index samples = 160;
    const Index features = 160;
    Rng rng(5);
    Csr a = genUniform(samples, features, 0.06, rng);

    // B = A^T in CSC (shares A's layout column-wise).
    Csr at = transpose(a);
    Csc b = Csc::fromCsr(at);

    std::printf("Gram matrix of %d samples x %d features "
                "(%zu non-zeros)\n",
                samples, features, a.nnz());

    MachineParams params;
    Machine m1(params), m2(params);
    auto scalar = kernels::spmmScalarInner(m1, a, b);
    auto viak = kernels::spmmViaInner(m2, a, b);

    // Host golden: A * A^T.
    Csr golden = mulCsr(a, at);
    const bool scalar_ok = closeElements(scalar.c, golden, 1e-3);
    const bool via_ok = closeElements(viak.c, golden, 1e-3);

    std::printf("results match golden: scalar=%s via=%s "
                "(%zu non-zeros in C)\n",
                scalar_ok ? "yes" : "NO", via_ok ? "yes" : "NO",
                golden.nnz());
    std::printf("scalar %llu cycles, VIA %llu cycles (%.2fx)\n",
                static_cast<unsigned long long>(scalar.cycles),
                static_cast<unsigned long long>(viak.cycles),
                double(scalar.cycles) / double(viak.cycles));
    return scalar_ok && via_ok ? 0 : 1;
}
