/**
 * @file
 * Gaussian smoothing of a synthetic image — the stencil use case of
 * paper Section IV-F2. Applies the 4x4 filter twice (stronger blur)
 * on the simulated machine with the baseline vector kernel and with
 * VIA, and verifies both against the host reference (exit 1 when a
 * pixel of either is off by more than 1e-3).
 */

#include <cstdio>

#include "cpu/machine.hh"
#include "kernels/reference.hh"
#include "kernels/stencil.hh"
#include "simcore/rng.hh"

using namespace via;

namespace
{

/** A synthetic "photograph": soft gradients plus speckle noise. */
DenseMatrix
makeImage(Index side, Rng &rng)
{
    DenseMatrix img(side, side);
    for (Index y = 0; y < side; ++y) {
        for (Index x = 0; x < side; ++x) {
            double v = 96.0 + 64.0 * double(x + y) / double(2 * side);
            if (rng.chance(0.05))
                v += rng.uniform() * 120.0 - 60.0; // speckle
            img.at(y, x) = Value(v);
        }
    }
    return img;
}

double
meanAbs(const DenseMatrix &m)
{
    double acc = 0.0;
    for (Value v : m.data())
        acc += std::abs(double(v));
    return acc / double(m.data().size());
}

} // namespace

int
main()
{
    const Index side = 192;
    Rng rng(7);
    DenseMatrix img = makeImage(side, rng);
    std::printf("image: %dx%d px\n", side, side);

    MachineParams params;

    Tick base_cycles = 0, via_cycles = 0;
    DenseMatrix out_base, out_via;
    {
        Machine m(params);
        DenseMatrix pass1 =
            kernels::stencilVector(m, img).out;
        out_base = kernels::stencilVector(m, pass1).out;
        base_cycles = m.cycles();
    }
    {
        Machine m(params);
        DenseMatrix pass1 = kernels::stencilVia(m, img).out;
        out_via = kernels::stencilVia(m, pass1).out;
        via_cycles = m.cycles();
    }

    DenseMatrix golden =
        kernels::refConvolve4x4(kernels::refConvolve4x4(img));
    auto max_err = [&](const DenseMatrix &out) {
        double e = 0.0;
        for (std::size_t i = 0; i < golden.data().size(); ++i)
            e = std::max(e, std::abs(double(golden.data()[i]) -
                                     double(out.data()[i])));
        return e;
    };
    const double err = max_err(out_via);

    std::printf("two blur passes -> %dx%d output, mean |px| %.1f, "
                "max err vs reference %.2e\n",
                out_via.rows(), out_via.cols(), meanAbs(out_via),
                err);
    std::printf("baseline %llu cycles, VIA %llu cycles (%.2fx)\n",
                static_cast<unsigned long long>(base_cycles),
                static_cast<unsigned long long>(via_cycles),
                double(base_cycles) / double(via_cycles));
    return err <= 1e-3 && max_err(out_base) <= 1e-3 ? 0 : 1;
}
