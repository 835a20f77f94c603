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
    return name == "steal" ? Partition::Steal : Partition::Static;
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

// The kernels below own the partitioning, the per-core output
// regions and the stitching of results; every instruction a core
// runs comes from its kernel's body table (kernels/ranges.hh), at
// the machine's backend when accelerated and at BackendKind::Base
// for the baseline, except the histogram's core-0 reduction.

namespace
{

/** The body kind a parallel run emits. */
BackendKind
bodyKind(const MultiMachine &mm, bool accel)
{
    return accel ? mm.core(0).backendKind() : BackendKind::Base;
}

/** Run @p body over [0, n): its setup once per core, before the
 *  first range dispatchUnits hands that core. */
template <typename Op, typename Body>
void
runRanges(MultiMachine &mm, Index n, Partition part, Op &op,
          const Body &body)
{
    std::vector<CoreState> state(mm.cores());
    std::vector<char> ready(mm.cores(), 0);
    for (unsigned c = 0; c < mm.cores(); ++c)
        state[c].region = c;
    dispatchUnits(mm, n, part, [&](unsigned c, Index lo, Index hi) {
        if (!ready[c]) {
            if (body.setup)
                body.setup(mm.core(c), op, state[c], lo);
            ready[c] = 1;
        }
        body.rows(mm.core(c), op, state[c], lo, hi);
    });
}

/** The body a parallel SpMV runs: its format's, except that the
 *  vector CSR baseline gathers x in the VIA body (see ranges.hh). */
template <typename Body>
const Body &
parallelBody(const Body &body, BackendKind)
{
    return body;
}

const RangeBody<CsrOp> &
parallelBody(const RangeBody<CsrOp> &body, BackendKind kind)
{
    static constexpr RangeBody<CsrOp> gather{.rows = spmvGatherCsrRows};
    return kind == BackendKind::Base ? gather : body;
}

} // namespace

SpmvResult
spmvParallel(MultiMachine &mm, const Csr &a, const DenseVector &x,
             const std::string &fmt, Partition part, bool accel)
{
    via_assert(a.cols() == Index(x.size()), "SpMV shape mismatch");
    Machine &m0 = mm.core(0);
    const BackendKind kind = bodyKind(mm, accel);
    return visitSpmv(kind, a, convertAndUpload(m0, a, fmt),
                     [&](const auto &mat, const auto &img,
                         const auto &body) {
                         SpmvOp op(m0, mat, img, x);
                         runRanges(mm, op.units(), part, op,
                                   parallelBody(body, kind));
                         return SpmvResult{op.readY(m0), mm.cycles()};
                     });
}

SpmaResult
spmaParallel(MultiMachine &mm, const Csr &a, const Csr &b,
             Partition part, bool accel)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    Machine &m0 = mm.core(0);
    // Chunks move between cores under stealing, so every core gets a
    // full worst-case output region; the host stitches rows back
    // together afterwards.
    SpmaOp op{a, b, uploadPair(m0, a, b),
              RowOutput(m0, mm.cores(), a.rows(), a.nnz() + b.nnz())};
    runRanges(mm, a.rows(), part, op, spmaBody(bodyKind(mm, accel)));
    return SpmaResult{op.out.collect(m0, a.cols()), mm.cycles()};
}

SpmmResult
spmmParallel(MultiMachine &mm, const Csr &a, const Csc &b,
             Partition part, bool accel)
{
    via_assert(a.cols() == b.rows(), "SpMM shape mismatch");
    Machine &m0 = mm.core(0);
    const SpmmBody &body = spmmBody(bodyKind(mm, accel));
    SpmmOp op = body.prepare(m0, a, b, mm.cores());
    runRanges(mm, a.rows(), part, op, body);
    return SpmmResult{op.out.collect(m0, b.cols()), mm.cycles()};
}

HistResult
histParallel(MultiMachine &mm, const std::vector<Index> &keys,
             Index buckets, Partition part, bool accel)
{
    histCheckKeys(keys, buckets);
    Machine &m0 = mm.core(0);
    HistOp op{upload(m0, keys), {}};
    Addr hist = allocValues(m0, std::size_t(buckets));
    const unsigned cores = mm.cores();
    for (unsigned c = 0; c < cores; ++c)
        op.out.push_back(allocValues(m0, std::size_t(buckets)));
    const HistBody &body = histBody(bodyKind(mm, accel));

    // The bucket-tiled VIA flow re-walks a core's whole key share
    // once per bucket range, so each core needs its full range list
    // up front (pre-assigned rather than dispatched per chunk).
    auto shares = assignRanges(cores, Index(keys.size()), part);
    std::size_t rounds = 0;
    for (unsigned c = 0; c < cores; ++c)
        rounds = std::max(rounds, shares[c].size());
    std::vector<CoreState> state(cores);
    for (unsigned c = 0; c < cores; ++c)
        state[c].region = c;
    auto each_core = [&](auto &&fn) {
        for (unsigned c = 0; c < cores; ++c)
            if (!shares[c].empty())
                fn(mm.core(c), state[c], shares[c].front().first);
    };
    // Emission interleaves across cores, one range per core per
    // round: the cores run concurrently, and emitting one core's
    // whole share first would slide the shared resources' booking
    // windows past its siblings' start times (see dispatchUnits).
    auto each_range = [&](auto &&fn) {
        for (std::size_t j = 0; j < rounds; ++j)
            for (unsigned c = 0; c < cores; ++c)
                if (j < shares[c].size())
                    fn(mm.core(c), state[c], shares[c][j].first,
                       shares[c][j].second);
    };

    each_core([&](Machine &m, CoreState &core, Index lo) {
        body.setup(m, op, core, lo);
    });
    for (const HistPass &pass : body.passes(m0, buckets)) {
        if (body.begin)
            each_core([&](Machine &m, CoreState &, Index) {
                body.begin(m, pass);
            });
        each_range([&](Machine &m, CoreState &core, Index lo, Index hi) {
            body.keys(m, op, core, pass, lo, hi);
        });
        if (body.drain)
            each_core([&](Machine &m, CoreState &core, Index) {
                body.drain(m, op, core, pass);
            });
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
            m0.vload(v_p, op.out[c] + 4 * Addr(i), VT, n);
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
                Partition part, bool accel)
{
    via_assert(img.rows() >= 4 && img.cols() >= 4, "image too small");
    Machine &m0 = mm.core(0);
    // Output-row stripes; each core loads the taps once.
    StencilOp op{img, uploadStencil(m0, img)};
    runRanges(mm, img.rows() - 3, part, op,
              stencilBody(bodyKind(mm, accel)));
    return StencilResult{stencilCollect(m0, op.s, img), mm.cycles()};
}

} // namespace via::kernels
