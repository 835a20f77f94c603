/**
 * @file
 * Figure 12.a — histogram speedup. Paper: VIA 5.49x over the Intel
 * scalar kernel and 4.51x over the vector (AVX-512CD) kernel.
 *
 * Inputs: uniform and skewed (hot-bucket) key streams over three
 * sizes; skew is where the store-load-forwarding wall hits the
 * memory-resident baselines hardest.
 *
 * Key streams are drawn serially up front (so they match the
 * historical serial output); the six cases then run as independent
 * points on a SweepExecutor (threads=N), bit-identical at any
 * thread count.
 *
 * backend= picks the accelerated kernel (kernels/dispatch.hh): VIA
 * by default, or the SSR or IndexMAC histogram.
 *
 * Usage: fig12a_histogram [keys=N] [buckets=B] [seed=S] [threads=T]
 *                         [backend=base|via|ssr|indexmac]
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

std::vector<Index>
makeKeys(std::size_t count, Index buckets, double hot_frac,
         Rng &rng)
{
    std::vector<Index> keys(count);
    Index hot = std::max<Index>(buckets / 10, 1);
    for (auto &k : keys) {
        if (rng.chance(hot_frac))
            k = Index(rng.below(std::uint64_t(hot)));
        else
            k = Index(rng.below(std::uint64_t(buckets)));
    }
    return keys;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig12a_histogram",
        "Figure 12.a: histogram speedup of VIA over scalar and "
        "vector baselines");
    addMachineOptions(opts);
    opts.addUInt("keys", 8192, "keys in the mid-size case", 1)
        .addUInt("buckets", 2048, "histogram buckets", 1)
        .addUInt("seed", 5, "key generator seed");
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    auto base_keys = std::size_t(opts.getUInt("keys"));
    auto buckets = Index(opts.getUInt("buckets"));
    Rng rng(opts.getUInt("seed"));

    MachineParams params = machineParamsFrom(opts);

    struct Case
    {
        const char *name;
        std::size_t count;
        double hot;
    };
    const Case cases[] = {
        {"uniform_small", base_keys / 4, 0.0},
        {"uniform_mid", base_keys, 0.0},
        {"uniform_large", base_keys * 4, 0.0},
        {"skewed_small", base_keys / 4, 0.8},
        {"skewed_mid", base_keys, 0.8},
        {"skewed_large", base_keys * 4, 0.8},
    };

    std::printf("== Figure 12.a: histogram speedups ==\n");

    std::vector<std::vector<Index>> inputs;
    for (const Case &c : cases)
        inputs.push_back(makeKeys(c.count, buckets, c.hot, rng));

    SweepExecutor exec = bench::makeExecutor(opts);
    struct Speedups
    {
        double vsScalar = 0.0;
        double vsVector = 0.0;
    };
    auto results =
        exec.run(inputs.size(), [&](std::size_t i) {
            Machine m1(params), m2(params), m3(params);
            auto scalar = kernels::histScalar(m1, inputs[i],
                                              buckets);
            auto vec = kernels::histVector(m2, inputs[i], buckets);
            auto accel = kernels::histAccel(m3, inputs[i], buckets);
            return Speedups{
                double(scalar.cycles) / double(accel.cycles),
                double(vec.cycles) / double(accel.cycles)};
        });

    std::vector<std::vector<std::string>> rows;
    std::vector<double> vs_scalar, vs_vector;
    for (std::size_t i = 0; i < results.size(); ++i) {
        vs_scalar.push_back(results[i].vsScalar);
        vs_vector.push_back(results[i].vsVector);
        rows.push_back({cases[i].name,
                        std::to_string(cases[i].count),
                        bench::fmt(results[i].vsScalar),
                        bench::fmt(results[i].vsVector)});
    }
    rows.push_back({"average", "-",
                    bench::fmt(bench::geomean(vs_scalar)),
                    bench::fmt(bench::geomean(vs_vector))});
    rows.push_back({"paper avg", "-", "5.49", "4.51"});
    bench::printTable({"input", "keys", "vs scalar", "vs vector"},
                      rows);
    return 0;
}
