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

std::string
join(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items)
        out += (out.empty() ? "" : ", ") + item;
    return out;
}

template <typename T>
std::shared_ptr<const T>
share(T value)
{
    return std::make_shared<const T>(std::move(value));
}

/** Synthetic-or-file matrix; @p rows sizes a synthetic one. */
Csr
loadMatrix(const Options &opts, Index rows, Rng &rng)
{
    const bool stream = opts.knows("stream") && opts.getBool("stream");
    if (opts.given("matrix") || opts.given("mtx")) {
        const std::string path =
            opts.getString(opts.given("matrix") ? "matrix" : "mtx");
        return stream ? readMatrixMarketStreaming(path)
                      : readMatrixMarket(path);
    }
    const Index n = rows;
    const double density = opts.getDouble("density");
    const std::string family = opts.getString("family");
    if (stream && family != "banded" && family != "rmat")
        via_fatal("stream=1 needs family=banded|rmat or mtx= "
                  "(got family=", family, ")");
    if (family == "banded") {
        const auto bw = std::max<Index>(1, n / 32);
        const double fill = std::min(1.0, density * n / 16.0);
        return stream ? genBandedCsr(n, bw, fill, rng)
                      : genBanded(n, bw, fill, rng);
    }
    if (family == "rmat") {
        Index n2 = 1;
        while (2 * n2 <= n)
            n2 *= 2;
        const auto target =
            std::size_t(density * double(n2) * double(n2));
        return stream ? genRmatCsr(n2, target, rng)
                      : genRmat(n2, target, rng);
    }
    if (family == "blocked")
        return genBlocked(n, 16, std::sqrt(density),
                          std::min(0.8, 8 * std::sqrt(density)),
                          rng);
    if (family == "diag")
        return genDiagHeavy(n, std::max(1.0, density * n), rng);
    if (family != "uniform")
        via_fatal("unknown family '", family, "'");
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
    k.accel = [=](Machine &m) {
        return check(spmvAccel(m, *a, *x, fmt));
    };
    k.parallelBaseLabel = "vector " + fmt;
    k.parallel = [=](MultiMachine &mm, Partition p, bool via) {
        return check(spmvParallel(mm, *a, *x, fmt, p, via));
    };
    return k;
}

KernelInput
buildSpma(const Options &opts, BackendKind backend, Rng &rng)
{
    auto a = share(loadMatrix(opts, rowsOption(opts), rng));
    auto b = share(loadMatrix(opts, rowsOption(opts), rng));
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
    k.accel = [=](Machine &m) { return check(spmaAccel(m, *a, *b)); };
    k.parallelBaseLabel = "scalar merge";
    k.parallel = [=](MultiMachine &mm, Partition p, bool via) {
        return check(spmaParallel(mm, *a, *b, p, via));
    };
    return k;
}

KernelInput
buildSpmm(const Options &opts, BackendKind backend, Rng &rng)
{
    // Inner-product SpMM is quadratic in the rows: a smaller default.
    const Index rows = opts.given("rows") ? rowsOption(opts) : 160;
    auto a = share(loadMatrix(opts, rows, rng));
    Csr b_csr = loadMatrix(opts, rows, rng);
    auto b = share(Csc::fromCsr(b_csr));
    auto golden = share(mulCsr(*a, b_csr));
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
    k.accel = [=](Machine &m) { return check(spmmAccel(m, *a, *b)); };
    k.parallelBaseLabel = "scalar inner";
    k.parallel = [=](MultiMachine &mm, Partition p, bool via) {
        return check(spmmParallel(mm, *a, *b, p, via));
    };
    k.fits = [a](const MachineParams &params) {
        return a->maxRowNnz() <= Index(params.via.camEntries());
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
    k.accel = [=](Machine &m) {
        return check(histAccel(m, *keys, buckets));
    };
    k.parallelBaseLabel = "vector CD";
    k.parallel = [=](MultiMachine &mm, Partition p, bool via) {
        return check(histParallel(mm, *keys, buckets, p, via));
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
    k.accel = [=](Machine &m) { return check(stencilAccel(m, *img)); };
    k.parallelBaseLabel = "vector";
    k.parallel = [=](MultiMachine &mm, Partition p, bool via) {
        return check(stencilParallel(mm, *img, p, via));
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
         .formats = spmvFormats(),
         .parallelFormats = spmvParallelFormats(),
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
addInputOptions(Options &opts, std::uint64_t px, bool stream)
{
    opts.addString("mtx", "", "Matrix Market input (default: synthetic)")
        .addString("matrix", "", "alias for mtx=")
        .addUInt("rows", 512, "synthetic matrix dimension", 1)
        .addDouble("density", 0.01, "synthetic matrix density", 0.0,
                   1.0)
        .addString("family", "uniform",
                   "synthetic family: banded|uniform|rmat|blocked|diag")
        .addUInt("seed", 1, "input generator seed")
        .addString("format", "csb",
                   "spmv sparse format: csr|spc5|sell|csb")
        .addUInt("keys", 16384, "histogram input size", 1)
        .addUInt("buckets", 1024, "histogram buckets", 1)
        .addUInt("px", px, "stencil image side", 1);
    if (stream)
        opts.addFlag("stream",
                     "stream the input with no triplet intermediates "
                     "(family=banded|rmat or mtx=; million-row inputs)");
}

const KernelSpec &
selectKernel(const Options &opts, const std::string &name,
             unsigned cores)
{
    std::vector<std::string> names;
    const KernelSpec *spec = nullptr;
    for (const KernelSpec &k : kernelRegistry()) {
        names.push_back(k.name);
        if (k.name == name)
            spec = &k;
    }
    if (spec == nullptr)
        opts.usageError("unknown kernel '" + name + "' (" +
                        join(names) + ")");

    const auto &formats =
        cores > 1 ? spec->parallelFormats : spec->formats;
    const std::string fmt = opts.getString("format");
    if (!spec->formats.empty() &&
        std::find(formats.begin(), formats.end(), fmt) == formats.end())
        opts.usageError("format '" + fmt + "' is not a " +
                        (cores > 1 ? "cores>1 " : "") + name +
                        " format (" + join(formats) + ")");

    if (!opts.knows("partition"))
        return *spec;
    const std::vector<std::string> partitions = {
        partitionName(Partition::Static),
        partitionName(Partition::Steal)};
    const std::string part = opts.getString("partition");
    if (std::find(partitions.begin(), partitions.end(), part) ==
        partitions.end())
        opts.usageError("unknown partition '" + part + "' (" +
                        join(partitions) + ")");
    return *spec;
}

} // namespace via::kernels
