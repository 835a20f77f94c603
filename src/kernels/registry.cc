#include "kernels/registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <memory>

#include "kernels/dispatch.hh"
#include "kernels/reference.hh"
#include "simcore/log.hh"
#include "sparse/convert.hh"
#include "sparse/generators.hh"
#include "sparse/mm_io.hh"

namespace via::kernels
{

namespace
{

[[gnu::format(printf, 1, 2)]] std::string
formatted(const char *fmt, ...)
{
    char buf[256];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

template <typename T>
std::shared_ptr<const T>
share(T value)
{
    return std::make_shared<const T>(std::move(value));
}

/** True when the input is a Matrix Market file (mtx= or matrix=). */
bool
fileInput(const Options &opts)
{
    return opts.given("matrix") || opts.given("mtx");
}

/** Synthetic-or-file matrix; @p rows sizes a synthetic one. */
Csr
loadMatrix(const Options &opts, Index rows, Rng &rng)
{
    if (fileInput(opts))
        return readMatrixMarket(
            opts.getString(opts.given("matrix") ? "matrix" : "mtx"));
    const Index n = rows;
    const double density = opts.getDouble("density");
    const std::string family = opts.getString("family");
    if (family == "banded")
        return genBandedCsr(n, std::max<Index>(1, n / 32),
                            std::min(1.0, density * n / 16.0), rng);
    if (family == "rmat") {
        Index n2 = 1;
        while (2 * n2 <= n)
            n2 *= 2;
        return genRmatCsr(
            n2, std::size_t(density * double(n2) * double(n2)), rng);
    }
    if (family == "blocked")
        return genBlocked(n, std::min<Index>(16, n), std::sqrt(density),
                          std::min(0.8, 8 * std::sqrt(density)),
                          rng);
    if (family == "diag")
        return genDiagHeavy(n, std::max(1.0, density * n), rng);
    return genUniform(n, n, density, rng);
}

Index
rowsOption(const Options &opts)
{
    return Index(opts.getUInt("rows"));
}

// The accelerated column of every comparison follows the machine's
// vector backend; backend=via keeps the historical VIA labels.

const char *
accelPrefix(BackendKind k)
{
    switch (k) {
      case BackendKind::Base: return "vector";
      case BackendKind::Via: return "VIA";
      case BackendKind::Ssr: return "SSR";
      case BackendKind::IndexMac: return "IndexMAC";
    }
    return "?";
}

const char *
spmaAccelName(BackendKind k)
{
    switch (k) {
      case BackendKind::Base: return "scalar merge";
      case BackendKind::Via: return "VIA CAM";
      case BackendKind::Ssr: return "SSR merge";
      case BackendKind::IndexMac: return "IndexMAC merge";
    }
    return "?";
}

const char *
spmmAccelName(BackendKind k)
{
    switch (k) {
      case BackendKind::Base: return "scalar inner";
      case BackendKind::Via: return "VIA CAM";
      case BackendKind::Ssr: return "SSR inner";
      case BackendKind::IndexMac: return "IndexMAC rows";
    }
    return "?";
}

KernelInput
buildSpmv(const Options &opts, BackendKind backend, Rng &rng)
{
    auto a = share(loadMatrix(opts, rowsOption(opts), rng));
    auto x = share(randomVector(a->cols(), rng));
    auto golden = share(a->multiply(*x));
    const std::string fmt = opts.getString("format");
    auto check = [golden](const SpmvResult &r) {
        return RunOutcome{r.cycles, allClose(r.y, *golden)};
    };

    KernelInput k;
    k.shape = formatted("%dx%d, %zu nnz", a->rows(), a->cols(), a->nnz());
    k.variant = fmt;
    k.phase = "spmv_" + fmt;
    k.baselines = {{"vector CSR", [a, x](Machine &m) {
                        return spmvVectorCsr(m, *a, *x).cycles;
                    }}};
    k.accelLabel = std::string(accelPrefix(backend)) + " " + fmt;
    k.parallelBaseLabel = "vector " + fmt;
    k.run = [=](Cores c, Partition p, bool accel) {
        return check(spmvRun(c, bodyKind(c, accel), *a, fmt, *x, p));
    };
    return k;
}

KernelInput
buildSpma(const Options &opts, BackendKind backend, Rng &rng)
{
    auto a = share(loadMatrix(opts, rowsOption(opts), rng));
    // A file is read once (a pipe cannot be read twice): B is A.
    auto b = fileInput(opts)
                 ? a
                 : share(loadMatrix(opts, rowsOption(opts), rng));
    auto golden = share(addCsr(*a, *b));
    auto check = [golden](const SpmaResult &r) {
        return RunOutcome{r.cycles, closeElements(r.c, *golden, 1e-3)};
    };

    KernelInput k;
    k.shape = formatted("%dx%d, %zu + %zu nnz", a->rows(), a->cols(),
                        a->nnz(), b->nnz());
    k.phase = "spma";
    k.baselines = {{"scalar merge", [a, b](Machine &m) {
                        return spmaScalarCsr(m, *a, *b).cycles;
                    }}};
    k.accelLabel = spmaAccelName(backend);
    k.parallelBaseLabel = "scalar merge";
    k.run = [=](Cores c, Partition p, bool accel) {
        return check(spmaRun(c, bodyKind(c, accel), *a, *b, p));
    };
    return k;
}

KernelInput
buildSpmm(const Options &opts, BackendKind backend, Rng &rng)
{
    // Inner-product SpMM is quadratic in the rows: a smaller default.
    const Index rows = opts.given("rows") ? rowsOption(opts) : 160;
    auto a = share(loadMatrix(opts, rows, rng));
    // A file is read once (a pipe cannot be read twice): B is A.
    auto b_csr = fileInput(opts) ? a : share(loadMatrix(opts, rows, rng));
    auto b = share(Csc::fromCsr(*b_csr));
    auto golden = share(mulCsr(*a, *b_csr));
    auto check = [golden](const SpmmResult &r) {
        return RunOutcome{r.cycles, closeElements(r.c, *golden, 1e-2)};
    };

    KernelInput k;
    k.shape = formatted("%dx%d (%zu nnz) * %dx%d (%zu nnz)", a->rows(),
                        a->cols(), a->nnz(), b->rows(), b->cols(),
                        b->nnz());
    k.phase = "spmm";
    k.baselines = {{"scalar inner", [a, b](Machine &m) {
                        return spmmScalarInner(m, *a, *b).cycles;
                    }}};
    k.accelLabel = spmmAccelName(backend);
    k.parallelBaseLabel = "scalar inner";
    k.run = [=](Cores c, Partition p, bool accel) {
        return check(spmmRun(c, bodyKind(c, accel), *a, *b, p));
    };
    k.fits = [a](const MachineParams &params) {
        return spmmFits(params, *a);
    };
    return k;
}

KernelInput
buildHistogram(const Options &opts, BackendKind backend, Rng &rng)
{
    const auto count = std::size_t(opts.getUInt("keys"));
    const auto buckets = Index(opts.getUInt("buckets"));
    std::vector<Index> draw(count);
    for (auto &key : draw)
        key = Index(rng.below(std::uint64_t(buckets)));
    auto keys = share(std::move(draw));
    auto golden = share(refHistogram(*keys, buckets));
    auto check = [golden](const HistResult &r) {
        return RunOutcome{r.cycles, r.hist == *golden};
    };

    KernelInput k;
    k.shape = formatted("%zu keys, %d buckets", count, buckets);
    k.phase = "histogram";
    k.baselines = {{"scalar",
                    [keys, buckets](Machine &m) {
                        return histScalar(m, *keys, buckets).cycles;
                    }},
                   {"vector CD", [keys, buckets](Machine &m) {
                        return histVector(m, *keys, buckets).cycles;
                    }}};
    k.accelLabel = accelPrefix(backend);
    k.parallelBaseLabel = "vector CD";
    k.run = [=](Cores c, Partition p, bool accel) {
        return check(histRun(c, bodyKind(c, accel), *keys, buckets, p));
    };
    return k;
}

KernelInput
buildStencil(const Options &opts, BackendKind backend, Rng &rng)
{
    const auto side = Index(opts.getUInt("px"));
    DenseMatrix pixels(side, side);
    for (auto &p : pixels.data())
        p = Value(rng.uniform() * 255.0);
    auto img = share(std::move(pixels));
    auto golden = share(refConvolve4x4(*img));
    auto check = [golden](const StencilResult &r) {
        return RunOutcome{r.cycles,
                          allClose(r.out.data(), golden->data())};
    };

    KernelInput k;
    k.shape = formatted("4x4 Gaussian on %dx%d px", side, side);
    k.phase = "stencil";
    k.baselines = {{"vector", [img](Machine &m) {
                        return stencilVector(m, *img).cycles;
                    }}};
    k.accelLabel = accelPrefix(backend);
    k.parallelBaseLabel = "vector";
    k.run = [=](Cores c, Partition p, bool accel) {
        return check(stencilRun(c, bodyKind(c, accel), *img, p));
    };
    return k;
}

} // namespace

const std::vector<KernelSpec> &
kernelRegistry()
{
    static const std::vector<KernelSpec> registry = {
        {.name = "spmv",
         .title = "SpMV",
         .timeline = true,
         .build = buildSpmv},
        {.name = "spma", .title = "SpMA", .build = buildSpma},
        {.name = "spmm", .title = "SpMM", .build = buildSpmm},
        {.name = "histogram",
         .title = "histogram",
         .build = buildHistogram},
        {.name = "stencil",
         .title = "stencil",
         .injectable = true,
         .build = buildStencil},
    };
    return registry;
}

void
addInputOptions(Options &opts, std::uint64_t px)
{
    opts.addString("mtx", "", "Matrix Market input (default: synthetic)")
        .addString("matrix", "", "alias for mtx=")
        .addUInt("rows", 512, "synthetic matrix dimension", 1)
        .addDouble("density", 0.01, "synthetic matrix density", 0.0,
                   1.0)
        .addString("family", "uniform",
                   "synthetic family: banded|uniform|rmat|blocked|diag",
                   {"banded", "uniform", "rmat", "blocked", "diag"})
        .addUInt("seed", 1, "input generator seed")
        .addString("format", "csb",
                   "spmv sparse format: csr|spc5|sell|csb",
                   spmvFormats())
        .addUInt("keys", 16384, "histogram input size", 1)
        .addUInt("buckets", 1024, "histogram buckets", 1)
        .addUInt("px", px, "stencil image side", 4);
}

void
requireFits(const KernelSpec &spec, const KernelInput &k,
            const MachineParams &params)
{
    if (!k.fits || k.fits(params))
        return;
    via_fatal(spec.title, ": the input does not fit the VIA CAM (",
              params.via.camEntries(), " entries); raise sspm_kb= "
              "(the CAM is a quarter of the SSPM) or cam_kb=");
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const KernelSpec &k : kernelRegistry())
        names.push_back(k.name);
    return names;
}

const KernelSpec &
selectKernel(const Options &opts)
{
    const std::string name = opts.getString("kernel");
    const auto &registry = kernelRegistry();
    return *std::find_if(
        registry.begin(), registry.end(),
        [&](const KernelSpec &k) { return k.name == name; });
}

} // namespace via::kernels
