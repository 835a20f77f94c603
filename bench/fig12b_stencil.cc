/**
 * @file
 * Figure 12.b — 4x4 Gaussian filter speedup on 128/256/512 px
 * images. Paper average: 3.39x over the vector baseline.
 *
 * Images are drawn serially up front; the three sizes then run as
 * independent points on a SweepExecutor (threads=N), bit-identical
 * at any thread count.
 *
 * backend= picks the accelerated kernel (kernels/dispatch.hh): VIA
 * by default, or the SSR or IndexMAC stencil.
 *
 * Usage: fig12b_stencil [seed=S] [sspm_kb=K] [ports=P] [threads=T]
 *                       [backend=base|via|ssr|indexmac]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "kernels/dispatch.hh"
#include "simcore/rng.hh"

using namespace via;

namespace
{

DenseMatrix
randomImage(Index side, Rng &rng)
{
    DenseMatrix img(side, side);
    for (auto &p : img.data())
        p = Value(rng.uniform() * 255.0);
    return img;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig12b_stencil",
        "Figure 12.b: 4x4 Gaussian filter, VIA vs vector baseline");
    addMachineOptions(opts);
    opts.addUInt("seed", 9, "image generator seed");
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    Rng rng(opts.getUInt("seed"));

    MachineParams params = machineParamsFrom(opts);

    std::printf("== Figure 12.b: 4x4 Gaussian filter ==\n");
    const Index sides[] = {128, 256, 512};
    std::vector<DenseMatrix> images;
    for (Index side : sides)
        images.push_back(randomImage(side, rng));

    SweepExecutor exec = bench::makeExecutor(opts);
    struct Point
    {
        Tick vecCycles = 0;
        Tick accelCycles = 0;
    };
    auto results = exec.run(images.size(), [&](std::size_t i) {
        Machine m1(params), m2(params);
        auto vec = kernels::stencilVector(m1, images[i]);
        auto accel = kernels::stencilAccel(m2, images[i]);
        return Point{vec.cycles, accel.cycles};
    });

    std::vector<std::vector<std::string>> rows;
    std::vector<double> speedups;
    for (std::size_t i = 0; i < results.size(); ++i) {
        double sp = double(results[i].vecCycles) /
                    double(results[i].accelCycles);
        speedups.push_back(sp);
        rows.push_back({std::to_string(sides[i]) + "px",
                        std::to_string(results[i].vecCycles),
                        std::to_string(results[i].accelCycles),
                        bench::fmt(sp)});
    }
    rows.push_back({"average", "-", "-",
                    bench::fmt(bench::geomean(speedups))});
    rows.push_back({"paper avg", "-", "-", "3.39"});
    bench::printTable({"image", "vector cyc", "VIA cyc", "speedup"},
                      rows);
    return 0;
}
