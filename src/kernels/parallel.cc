#include "kernels/parallel.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "kernels/ranges.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;

/** Steal cuts the iteration space into this many chunks per core. */
constexpr Index kStealChunksPerCore = 8;

Index
stealChunk(Index n, unsigned cores)
{
    Index parts = Index(cores) * kStealChunksPerCore;
    return std::max<Index>(1, (n + parts - 1) / parts);
}

/**
 * Hand contiguous ranges of [0, n) to per-core bodies. Static: one
 * balanced range per core. Steal: chunks in range order, each to the
 * core whose commit front is earliest at assignment time (greedy
 * least-loaded; ties resolve to the lowest core id, so the schedule
 * is deterministic).
 */
template <typename Body>
void
dispatchUnits(MultiMachine &mm, Index n, Partition part, Body &&body)
{
    const unsigned cores = mm.cores();
    if (n <= 0)
        return;
    if (cores == 1) {
        body(0, 0, n);
        return;
    }
    if (part == Partition::Static) {
        // The assignment is static, but the *emission* interleaves
        // chunk-sized slices of the per-core ranges round-robin.
        // The cores run concurrently, so their timelines must
        // advance together: the shared LLC banks and DRAM pipe book
        // cycles on a sliding window (Resource), and emitting one
        // core's whole share first would slide the window past its
        // siblings' start times, serializing them behind it.
        auto ranges = staticRanges(n, cores);
        const Index chunk = stealChunk(n, cores);
        for (bool more = true; more;) {
            more = false;
            for (unsigned c = 0; c < cores; ++c) {
                Index lo = ranges[c].first;
                if (lo >= ranges[c].second)
                    continue;
                Index hi =
                    std::min<Index>(lo + chunk, ranges[c].second);
                body(c, lo, hi);
                ranges[c].first = hi;
                if (hi < ranges[c].second)
                    more = true;
            }
        }
        return;
    }
    const Index chunk = stealChunk(n, cores);
    for (Index lo = 0; lo < n; lo += chunk) {
        Index hi = std::min<Index>(lo + chunk, n);
        unsigned best = 0;
        for (unsigned c = 1; c < cores; ++c)
            if (mm.core(c).cycles() < mm.core(best).cycles())
                best = c;
        body(best, lo, hi);
    }
}

/**
 * Pre-computed per-core range lists, for kernels that must see all
 * of a core's work before emitting (the histogram's bucket-tiled
 * passes re-walk the core's whole key share per bucket range).
 * Steal becomes round-robin chunk interleaving: chunk costs are
 * uniform, so least-loaded and round-robin coincide.
 */
std::vector<std::vector<std::pair<Index, Index>>>
assignRanges(unsigned cores, Index n, Partition part)
{
    std::vector<std::vector<std::pair<Index, Index>>> out(cores);
    if (n <= 0)
        return out;
    if (cores == 1) {
        out[0].push_back({0, n});
        return out;
    }
    if (part == Partition::Static) {
        // Same contiguous share per core as dispatchUnits' static
        // split, but sliced into chunk-sized consecutive pieces so
        // the caller can interleave emission across cores (one
        // piece per core per round) and keep the concurrent
        // timelines within the shared resources' booking windows.
        auto ranges = staticRanges(n, cores);
        const Index chunk = stealChunk(n, cores);
        for (unsigned c = 0; c < cores; ++c)
            for (Index lo = ranges[c].first; lo < ranges[c].second;
                 lo += chunk)
                out[c].push_back(
                    {lo, std::min<Index>(lo + chunk,
                                         ranges[c].second)});
        return out;
    }
    const Index chunk = stealChunk(n, cores);
    unsigned c = 0;
    for (Index lo = 0; lo < n; lo += chunk) {
        out[c].push_back({lo, std::min<Index>(lo + chunk, n)});
        c = (c + 1) % cores;
    }
    return out;
}

} // namespace

Partition
parsePartition(const std::string &name)
{
    if (name == "static")
        return Partition::Static;
    if (name == "steal")
        return Partition::Steal;
    via_fatal("unknown partition '", name, "' (static, steal)");
}

const char *
partitionName(Partition p)
{
    return p == Partition::Static ? "static" : "steal";
}

std::vector<std::pair<Index, Index>>
staticRanges(Index n, unsigned cores)
{
    std::vector<std::pair<Index, Index>> out;
    out.reserve(cores);
    Index base = n / Index(cores);
    Index rem = n % Index(cores);
    Index lo = 0;
    for (unsigned c = 0; c < cores; ++c) {
        Index len = base + (Index(c) < rem ? 1 : 0);
        out.push_back({lo, lo + len});
        lo += len;
    }
    return out;
}

const std::vector<std::string> &
spmvParallelFormats()
{
    static const std::vector<std::string> formats = {"csr", "csb"};
    return formats;
}

// The kernels below own the partitioning, the per-core output
// regions and the stitching of results; every instruction a core
// runs comes from the range bodies in kernels/ranges.hh, except the
// histogram's core-0 reduction.

SpmvResult
spmvParallel(MultiMachine &mm, const Csr &a, const DenseVector &x,
             const std::string &fmt, Partition part, bool via)
{
    via_assert(a.cols() == Index(x.size()), "SpMV shape mismatch");
    Machine &m0 = mm.core(0);
    if (fmt == "csr") {
        CsrImage img = uploadCsr(m0, a);
        Addr xa = upload(m0, x);
        Addr ya = allocValues(m0, std::size_t(a.rows()));
        // The baseline is the VIA body with x gathered from memory.
        const bool x_fits =
            via && std::uint64_t(a.cols()) <=
                       m0.sspm().config().sramEntries();
        std::vector<char> staged(mm.cores(), 0);
        dispatchUnits(mm, a.rows(), part, [&](unsigned c, Index lo,
                                              Index hi) {
            if (x_fits && !staged[c]) {
                spmvCsrStageX(mm.core(c), a.cols(), xa);
                staged[c] = 1;
            }
            spmvViaCsrRows(mm.core(c), a, img, xa, ya, x_fits, lo, hi);
        });
        return SpmvResult{downloadValues(m0, ya, std::size_t(a.rows())),
                          mm.cycles()};
    }
    if (fmt == "csb") {
        // Block rows partition: each owns y rows [br*beta, (br+1)*beta).
        const Csb csb = Csb::fromCsr(a, viaCsbBeta(m0));
        CsbImage img = uploadCsb(m0, csb);
        Addr xa = upload(m0, x);
        Addr ya = allocValues(m0, std::size_t(a.rows()));
        auto rows = via ? spmvViaCsbRows : spmvVectorCsbRows;
        dispatchUnits(mm, csb.blockRows(), part,
                      [&](unsigned c, Index lo, Index hi) {
                          rows(mm.core(c), csb, img, xa, ya, lo, hi);
                      });
        return SpmvResult{downloadValues(m0, ya, std::size_t(a.rows())),
                          mm.cycles()};
    }
    std::string valid;
    for (const std::string &f : spmvParallelFormats())
        valid += (valid.empty() ? "" : ", ") + f;
    via_fatal("spmv format '", fmt, "' has no multi-core variant (",
              valid, ")");
}

SpmaResult
spmaParallel(MultiMachine &mm, const Csr &a, const Csr &b,
             Partition part, bool via)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    Machine &m0 = mm.core(0);
    PairImage img = uploadPair(m0, a, b);
    // Chunks move between cores under stealing, so every core gets a
    // full worst-case output region; the host stitches rows back
    // together afterwards.
    RowOutput out(m0, mm.cores(), a.rows(), a.nnz() + b.nnz());
    auto rows = via ? spmaViaRows : spmaScalarRows;
    dispatchUnits(mm, a.rows(), part,
                  [&](unsigned c, Index lo, Index hi) {
                      rows(mm.core(c), a, b, img, out, c, lo, hi);
                  });
    return SpmaResult{out.collect(m0, a.cols()), mm.cycles()};
}

SpmmResult
spmmParallel(MultiMachine &mm, const Csr &a, const Csc &b,
             Partition part, bool via)
{
    via_assert(a.cols() == b.rows(), "SpMM shape mismatch");
    Machine &m0 = mm.core(0);
    PairImage img = uploadPair(m0, a, b);
    RowOutput out(m0, mm.cores(), a.rows(), spmmOutputBound(a, b));
    if (via)
        spmmAssertCamFit(m0, a);
    auto rows = via ? spmmViaRows : spmmScalarRows;
    dispatchUnits(mm, a.rows(), part,
                  [&](unsigned c, Index lo, Index hi) {
                      rows(mm.core(c), a, b, img, out, c, lo, hi);
                  });
    return SpmmResult{out.collect(m0, b.cols()), mm.cycles()};
}

HistResult
histParallel(MultiMachine &mm, const std::vector<Index> &keys,
             Index buckets, Partition part, bool via)
{
    histCheckKeys(keys, buckets);
    Machine &m0 = mm.core(0);
    Addr key_arr = upload(m0, keys);
    Addr hist = allocValues(m0, std::size_t(buckets));
    const unsigned cores = mm.cores();
    std::vector<Addr> partial(cores);
    for (unsigned c = 0; c < cores; ++c)
        partial[c] = allocValues(m0, std::size_t(buckets));

    // The bucket-tiled VIA flow re-walks a core's whole key share
    // once per bucket range, so each core needs its full range list
    // up front (pre-assigned rather than dispatched per chunk).
    auto shares = assignRanges(cores, Index(keys.size()), part);
    std::size_t rounds = 0;
    for (unsigned c = 0; c < cores; ++c)
        rounds = std::max(rounds, shares[c].size());
    auto each_core = [&](auto &&fn) {
        for (unsigned c = 0; c < cores; ++c)
            if (!shares[c].empty())
                fn(c, mm.core(c));
    };
    // Emission interleaves across cores, one range per core per
    // round: the cores run concurrently, and emitting one core's
    // whole share first would slide the shared resources' booking
    // windows past its siblings' start times (see dispatchUnits).
    auto each_range = [&](auto &&fn) {
        for (std::size_t j = 0; j < rounds; ++j)
            for (unsigned c = 0; c < cores; ++c)
                if (j < shares[c].size())
                    fn(c, mm.core(c), shares[c][j].first,
                       shares[c][j].second);
    };

    each_core([](unsigned, Machine &m) { histLoadOnes(m); });
    if (!via) {
        each_range([&](unsigned c, Machine &m, Index lo, Index hi) {
            histVectorKeys(m, key_arr, partial[c], lo, hi);
        });
    } else {
        for (const HistPass &pass : histViaPasses(m0, buckets)) {
            each_core(
                [&](unsigned, Machine &m) { histViaBegin(m, pass); });
            each_range([&](unsigned, Machine &m, Index lo, Index hi) {
                histViaKeys(m, key_arr, pass, lo, hi);
            });
            each_core([&](unsigned c, Machine &m) {
                histViaDrain(m, partial[c], pass);
            });
        }
    }

    // Core 0 reduces the partial histograms. The reduction runs on
    // core 0's own timeline after its share; the barrier itself is
    // not modeled beyond cycles() taking the slowest core.
    const int vl = int(m0.vl());
    VReg v_acc{0}, v_p{1};
    SReg s_i{3};
    for (Index i = 0; i < buckets; i += vl) {
        int n = std::min<Index>(vl, buckets - i);
        m0.vbroadcastF(v_acc, 0.0);
        for (unsigned c = 0; c < cores; ++c) {
            m0.vload(v_p, partial[c] + 4 * Addr(i), VT, n);
            m0.vaddF(v_acc, v_acc, v_p, n);
        }
        m0.vstore(hist + 4 * Addr(i), v_acc, VT, n, s_i);
        m0.salu(s_i, i + vl, s_i);
        m0.sbranch(s_i);
    }
    return HistResult{downloadValues(m0, hist, std::size_t(buckets)),
                      mm.cycles()};
}

StencilResult
stencilParallel(MultiMachine &mm, const DenseMatrix &img,
                Partition part, bool via)
{
    via_assert(img.rows() >= 4 && img.cols() >= 4, "image too small");
    Machine &m0 = mm.core(0);
    StencilImage s = uploadStencil(m0, img);
    // Output-row stripes; each core loads the taps once.
    std::vector<char> loaded(mm.cores(), 0);
    auto rows = via ? stencilViaRows : stencilVectorRows;
    dispatchUnits(mm, img.rows() - 3, part, [&](unsigned c, Index lo,
                                                Index hi) {
        if (!loaded[c]) {
            stencilLoadTaps(mm.core(c), s, img.cols());
            loaded[c] = 1;
        }
        rows(mm.core(c), s, img, lo, hi);
    });
    return StencilResult{stencilCollect(m0, s, img), mm.cycles()};
}

} // namespace via::kernels
