/**
 * @file
 * Quickstart: build a machine, run SpMV three ways (scalar, vector,
 * VIA+CSB), check the results and compare cycle counts.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/example_quickstart
 */

#include <cstdio>

#include "cpu/machine.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

int
main()
{
    using namespace via;

    // 1. A sparse matrix (1% dense, 512x512) and a dense vector.
    Rng rng(42);
    Csr a = genUniform(512, 512, 0.01, rng);
    DenseVector x = randomVector(a.cols(), rng);
    std::printf("matrix: %dx%d, %zu non-zeros\n", a.rows(),
                a.cols(), a.nnz());

    // 2. The machine: Table I defaults — OoO core, 32 KB L1 / 1 MB
    //    L2 / DDR3, and a 16 KB 2-port SSPM.
    MachineParams params;

    // 3. Run the kernels. Each variant executes functionally on the
    //    simulated machine *and* is timed cycle-accurately.
    Machine m_scalar(params);
    auto scalar = kernels::spmvScalarCsr(m_scalar, a, x);

    Machine m_vector(params);
    auto vector = kernels::spmvVectorCsr(m_vector, a, x);

    Machine m_via(params);
    Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(m_via));
    auto viak = kernels::spmvViaCsb(m_via, csb, x);

    // 4. Verify against the host golden kernel.
    DenseVector golden = a.multiply(x);
    const bool scalar_ok = allClose(scalar.y, golden);
    const bool vector_ok = allClose(vector.y, golden);
    const bool via_ok = allClose(viak.y, golden);
    std::printf("results match golden: scalar=%s vector=%s via=%s\n",
                scalar_ok ? "yes" : "NO", vector_ok ? "yes" : "NO",
                via_ok ? "yes" : "NO");

    // 5. Compare.
    std::printf("\n%-22s %12s %9s\n", "kernel", "cycles", "speedup");
    auto row = [&](const char *name, Tick cycles) {
        std::printf("%-22s %12llu %8.2fx\n", name,
                    static_cast<unsigned long long>(cycles),
                    double(scalar.cycles) / double(cycles));
    };
    row("scalar CSR", scalar.cycles);
    row("vector CSR (gather)", vector.cycles);
    row("VIA CSB (scratchpad)", viak.cycles);

    std::printf("\nSSPM activity: %llu direct reads, "
                "%llu direct writes\n",
                static_cast<unsigned long long>(
                    m_via.sspm().stats().directReads),
                static_cast<unsigned long long>(
                    m_via.sspm().stats().directWrites));
    return scalar_ok && vector_ok && via_ok ? 0 : 1;
}
