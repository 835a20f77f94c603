/**
 * @file
 * The kernels' range bodies: each kernel split into its setup and a
 * body that emits one [lo, hi) range of its iteration space, on
 * every vector backend, and runRanges, the one driver of the bodies.
 *
 * Each kernel has one table of bodies indexed by BackendKind (base,
 * VIA, SSR, IndexMAC) and one runner that reads it (spmvRun,
 * spmaRun, ... in kernels/parallel.hh, defined next to the table).
 * A runner uploads the operands once into core 0's memory image,
 * and runRanges cuts the range into chunks, runs the setup once per
 * core and the body per chunk on the core it assigns. So every
 * kernel's emit loop exists once per backend, and one core running
 * [0, n) is the single-core run. Three rules keep it so:
 *   - SpMA and SpMM store c_ptr[0] exactly when the output has one
 *     region, which is then the result's row_ptr (storeHead);
 *   - the histogram of one core is its partial histogram: there is
 *     no reduction target and no reduction (histRun);
 *   - one core gets its whole range even when it is empty, so it
 *     still emits the setup (and the histogram's per-pass begin and
 *     drain); at cores>1 an empty iteration space emits nothing.
 * tests/test_stream_identity.cc checks that a one-core MultiMachine
 * emits the single-core stream for every kernel.
 *
 * The ranges:
 *   - SpMV: rows (CSR, and SPC5, whose blocks are sorted by row),
 *     CSB block rows, SELL chunks
 *   - SpMA, SpMM: rows of A
 *   - histogram: keys (for VIA, inside one bucket pass)
 *   - stencil: output rows
 *
 * Per-core state a body relies on (x staged in the SSPM, the filter
 * taps in registers, the histogram's ones vector, the IndexMAC
 * accumulators) is set up by a separate call, once per core before
 * its first range, in the order the single-core kernel emits it. An
 * SSR body binds its streams at its range's first element unless
 * the core's previous range ended there.
 */

#ifndef VIA_KERNELS_RANGES_HH
#define VIA_KERNELS_RANGES_HH

#include <algorithm>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "kernels/dispatch.hh"
#include "kernels/kernel_utils.hh"
#include "kernels/parallel.hh"
#include "simcore/log.hh"
#include "sparse/csc.hh"
#include "sparse/csr.hh"
#include "sparse/dense.hh"

namespace via::kernels
{

/** What a core keeps between the ranges it runs. */
struct CoreState
{
    unsigned region = 0; //!< its output region or partial histogram
    /** SSR: the range start its streams are bound for (-1: none). */
    Index next = -1;
    /** IndexMAC SpMA/SpMM: the core's dense accumulators. */
    Addr acc = 0, mark = 0;
};

/** SSR: whether a range starting at @p lo must bind its streams,
 *  which already stand there when the core's last range ended at
 *  lo. Marks them bound at lo. */
inline bool
rebind(CoreState &core, Index lo)
{
    const bool bind = core.next != lo;
    core.next = lo;
    return bind;
}

/** One backend's variant of a kernel in range form. */
template <typename Op>
struct RangeBody
{
    /** Once per core before its first range, which starts at @p lo;
     *  null: nothing to set up. */
    void (*setup)(Machine &m, Op &op, CoreState &core,
                  Index lo) = nullptr;
    /** Emit the range [lo, hi). */
    void (*rows)(Machine &m, Op &op, CoreState &core, Index lo,
                 Index hi) = nullptr;
};

/**
 * Hand contiguous ranges of [0, n) to the cores, @p body(core, lo,
 * hi) per range (parallel.cc). One core gets all of [0, n), even
 * when it is empty. At cores>1, Static emits assignRanges' shares
 * through roundRobin; Steal hands each chunk, in range order, to
 * the core whose commit front is earliest (ties to the lowest core
 * id, so the schedule is deterministic).
 */
void dispatchUnits(Cores cores, Index n, Partition part,
                   const std::function<void(unsigned, Index, Index)>
                       &body);

/**
 * Each core's ranges of [0, n), decided before any is emitted. One
 * core gets [0, n), even when it is empty. At cores>1, Static gives
 * each core one balanced contiguous share in chunk-sized pieces,
 * and Steal deals the chunks round-robin: a kernel that must see all
 * of a core's work up front (the histogram's bucket-tiled passes
 * re-walk the core's whole key share per bucket range) assumes
 * uniform chunk cost, where least-loaded and round-robin coincide.
 */
std::vector<std::vector<std::pair<Index, Index>>>
assignRanges(Cores cores, Index n, Partition part);

/**
 * Emit @p shares (one range list per core) round-robin, @p body(core,
 * lo, hi) per range: every core's j-th range, in core order, before
 * any core's (j+1)-th.
 */
void roundRobin(
    const std::vector<std::vector<std::pair<Index, Index>>> &shares,
    const std::function<void(unsigned, Index, Index)> &body);

/** Run @p body over [0, n) on @p cores: its setup once per core,
 *  before the first range dispatchUnits hands that core. */
template <typename Op, typename Body>
void
runRanges(Cores cores, Index n, Partition part, Op &op,
          const Body &body)
{
    std::vector<CoreState> state(cores.count());
    std::vector<char> ready(cores.count(), 0);
    for (unsigned c = 0; c < cores.count(); ++c)
        state[c].region = c;
    dispatchUnits(cores, n, part, [&](unsigned c, Index lo, Index hi) {
        Machine &m = cores.core(c);
        if (!ready[c]) {
            if (body.setup)
                body.setup(m, op, state[c], lo);
            ready[c] = 1;
        }
        body.rows(m, op, state[c], lo, hi);
    });
}

// ------------------------------------------------------------- SpMV

/** One SpMV run: the uploaded matrix, x uploaded and y allocated. */
template <typename Mat, typename Img>
struct SpmvOp
{
    SpmvOp(Machine &m, const Mat &a, const Img &img,
           const DenseVector &xv)
        : a(a), img(img), x(upload(m, xv)),
          y(allocValues(m, std::size_t(a.rows())))
    {}

    /** Read y back. */
    DenseVector
    readY(const Machine &m) const
    {
        return downloadValues(m, y, std::size_t(a.rows()));
    }

    /** The bodies' iteration space: rows, CSB block rows or SELL
     *  chunks. */
    Index
    units() const
    {
        if constexpr (std::is_same_v<Mat, Csb>)
            return a.blockRows();
        else if constexpr (std::is_same_v<Mat, SellCSigma>)
            return a.numChunks();
        else
            return a.rows();
    }

    const Mat &a;
    Img img;
    Addr x = 0, y = 0;
};

using CsrOp = SpmvOp<Csr, CsrImage>;
using CsbOp = SpmvOp<Csb, CsbImage>;
using Spc5Op = SpmvOp<Spc5, Spc5Image>;
using SellOp = SpmvOp<SellCSigma, SellImage>;

/** Each SpMV format's bodies, indexed by BackendKind. */
const RangeBody<CsrOp> &spmvCsrBody(BackendKind kind);
const RangeBody<CsbOp> &spmvCsbBody(BackendKind kind);
const RangeBody<Spc5Op> &spmvSpc5Body(BackendKind kind);
const RangeBody<SellOp> &spmvSellBody(BackendKind kind);

/** SpMV of @p body against a matrix uploaded onto core 0: x is
 *  uploaded and y allocated there, then the body runs on the cores. */
template <typename Mat, typename Img>
SpmvResult
spmvRun(Cores cores, const RangeBody<SpmvOp<Mat, Img>> &body,
        const Mat &a, const Img &img, const DenseVector &x,
        Partition part = Partition::Static)
{
    Machine &m0 = cores.core(0);
    SpmvOp<Mat, Img> op(m0, a, img, x);
    runRanges(cores, op.units(), part, op, body);
    return SpmvResult{op.readY(m0), cores.cycles()};
}

/**
 * Call @p fn(matrix, image, body) for the format convertAndUpload
 * put in @p s (csr reads @p a itself), with the format's @p kind
 * body. Every SpMV run by format goes through here.
 */
template <typename Fn>
SpmvResult
visitSpmv(BackendKind kind, const Csr &a, const SpmvStorage &s, Fn &&fn)
{
    if (s.spc5)
        return fn(*s.spc5, s.spc5Img, spmvSpc5Body(kind));
    if (s.sell)
        return fn(*s.sell, s.sellImg, spmvSellBody(kind));
    if (s.csb)
        return fn(*s.csb, s.csbImg, spmvCsbBody(kind));
    return fn(a, s.csrImg, spmvCsrBody(kind));
}

/**
 * The CSR row loop every backend's body runs: per row of [lo, hi),
 * zero the accumulator v3, emit @p step(k, n) for each vector of the
 * row's elements, then reduce v3 into y[r].
 */
template <typename Step>
void
csrRowLoop(Machine &m, const CsrOp &op, Index lo, Index hi,
           Step &&step)
{
    const int vl = int(m.vl());
    VReg v_acc{3};
    SReg s_end{1}, s_acc{5}, s_k{0}, s_r{7};
    for (Index r = lo; r < hi; ++r) {
        m.sload(s_end, op.img.rowPtr + 4 * (Addr(r) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        const Index k_lo = op.a.rowPtr()[std::size_t(r)];
        const Index end = op.a.rowPtr()[std::size_t(r) + 1];
        for (Index k = k_lo; k < end; k += vl) {
            step(k, int(std::min<Index>(vl, end - k)));
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        m.vredsumF(s_acc, v_acc);
        m.sstoreF(op.y + 4 * Addr(r), s_acc, ElemType::F32);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
    }
}

/**
 * The CSB block loop of the vector, SSR and IndexMAC bodies: for each
 * non-empty block of block rows [lo, hi), emit @p step(k, n, y, x)
 * per vector of its elements, where y and x address the block's
 * chunks of the two vectors.
 */
template <typename Step>
void
csbBlockLoop(Machine &m, const CsbOp &op, Index lo, Index hi,
             Step &&step)
{
    const int vl = int(m.vl());
    const Index beta = op.a.beta();
    const std::int64_t bcols = op.a.blockCols();
    SReg s_end{1}, s_k{0}, s_b{7};
    for (std::int64_t b = lo * bcols; b < hi * bcols; ++b) {
        m.sload(s_end, op.img.blockPtr + 4 * (Addr(b) + 1), 4);
        const Index k_lo = op.a.blockPtr()[std::size_t(b)];
        const Index end = op.a.blockPtr()[std::size_t(b) + 1];
        if (k_lo == end) {
            m.sbranch(s_end); // skip empty block
            continue;
        }
        const Addr row_base = op.y + 4 * Addr(b / bcols) * Addr(beta);
        const Addr col_base = op.x + 4 * Addr(b % bcols) * Addr(beta);
        for (Index k = k_lo; k < end; k += vl) {
            step(k, int(std::min<Index>(vl, end - k)), row_base,
                 col_base);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        m.salu(s_b, b + 1, s_b);
        m.sbranch(s_b);
    }
}

/**
 * The Sell-C-sigma chunk loop every backend's body runs: per chunk
 * of [lo, hi), zero the accumulator v3, emit @p step(k, n) for each
 * of its column slices (k: the slice's first element, n: the chunk's
 * live lanes), then scatter v3 to the chunk's rows.
 */
template <typename Step>
void
sellChunkLoop(Machine &m, const SellOp &op, Index lo, Index hi,
              Step &&step)
{
    const int vl = int(m.vl());
    via_assert(op.a.c() == Index(vl),
               "Sell-C-sigma chunk height must equal the vector length");
    VReg v_acc{3}, v_rows{4};
    SReg s_w{1}, s_j{0}, s_ch{7};
    for (Index ch = lo; ch < hi; ++ch) {
        m.sload(s_w, op.img.chunkPtr + 4 * (Addr(ch) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        const Index base = op.a.chunkPtr()[std::size_t(ch)];
        const Index width = op.a.chunkWidth()[std::size_t(ch)];
        const int n = int(std::min<Index>(vl, op.a.rows() - ch * vl));
        for (Index j = 0; j < width; ++j) {
            step(base + j * vl, n);
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.vload(v_rows, op.img.rowPerm + 4 * Addr(ch) * Addr(vl),
                ElemType::I32, n);
        m.vscatter(op.y, v_rows, v_acc, ElemType::F32, n);
        m.salu(s_ch, ch + 1, s_ch);
        m.sbranch(s_ch);
    }
}

// ------------------------------------------------------ SpMA, SpMM

/** Base addresses of the two sparse operands of SpMA (CSR + CSR)
 *  or SpMM (CSR + CSC), uploaded once. */
struct PairImage
{
    Addr aPtr = 0, aIdx = 0, aVal = 0;
    Addr bPtr = 0, bIdx = 0, bVal = 0;
};

PairImage uploadPair(Machine &m, const Csr &a, const Csr &b);
PairImage uploadPair(Machine &m, const Csr &a, const Csc &b);

/**
 * Output of the row-producing kernels. Each core writes its own
 * region (column, value and row-pointer arrays sized for the worst
 * case), so rows may move between cores under stealing; each row
 * records the region and span that hold it.
 */
struct RowOutput
{
    struct Region
    {
        Addr col = 0, val = 0, ptr = 0;
        Index used = 0; //!< entries written so far
    };
    struct Span
    {
        unsigned region = 0;
        Index start = 0, count = 0;
    };

    RowOutput(Machine &m, unsigned regions, Index rows,
              std::size_t entries)
        : regions(regions), rows(std::size_t(rows)), capacity(entries)
    {
        for (Region &r : this->regions) {
            r.col = m.mem().alloc(entries * sizeof(Index));
            r.val = m.mem().alloc(entries * sizeof(Value));
            r.ptr = m.mem().alloc((std::size_t(rows) + 1) *
                                  sizeof(Index));
        }
    }

    /**
     * The result matrix: each row's span is read from its region
     * straight into its final slot, then every row goes through
     * Csr::fromRows (the SpMA CAM extracts in insertion order; the
     * other kernels' rows are sorted already). Panics if a kernel
     * wrote past a region's capacity.
     */
    Csr
    collect(const Machine &m, Index cols) const
    {
        for (const Region &r : regions)
            if (std::size_t(r.used) > capacity)
                via_panic("row output region overflowed: ", r.used,
                          " entries written, room for ", capacity);
        std::vector<Index> ptr(rows.size() + 1, 0);
        for (std::size_t row = 0; row < rows.size(); ++row)
            ptr[row + 1] = ptr[row] + rows[row].count;
        std::vector<Index> col_idx(std::size_t(ptr.back()));
        std::vector<Value> vals(col_idx.size());
        for (std::size_t row = 0; row < rows.size(); ++row) {
            const Span &s = rows[row];
            if (s.count == 0)
                continue;
            const Region &r = regions[s.region];
            const auto at = std::size_t(ptr[row]);
            m.mem().read(r.col + sizeof(Index) * Addr(s.start),
                         col_idx.data() + at,
                         std::size_t(s.count) * sizeof(Index));
            m.mem().read(r.val + sizeof(Value) * Addr(s.start),
                         vals.data() + at,
                         std::size_t(s.count) * sizeof(Value));
        }
        return Csr::fromRows(Index(rows.size()), cols, std::move(ptr),
                             std::move(col_idx), std::move(vals));
    }

    /** Store c_ptr[0] through the kernel's output-count register
     *  @p s_out when there is one region, which is then the result's
     *  row_ptr; per-core regions are stitched host-side instead. */
    void
    storeHead(Machine &m, SReg s_out) const
    {
        if (regions.size() == 1)
            m.sstore(regions[0].ptr, s_out, 4);
    }

    std::vector<Region> regions;
    std::vector<Span> rows;
    std::size_t capacity = 0; //!< entries each region holds
};

/** One SpMA run: the operands, their upload and the output. */
struct SpmaOp
{
    const Csr &a, &b;
    PairImage img;
    RowOutput out;
};

/** The SpMA rows body of @p kind. */
const RangeBody<SpmaOp> &spmaBody(BackendKind kind);

/** One SpMM run: the operands, their upload and the output. */
struct SpmmOp
{
    const Csr &a;
    const Csc &b;
    Csr bRows; //!< IndexMAC: B transposed host-side; empty otherwise
    PairImage img;
    RowOutput out;
};

/** One backend's SpMM: its own operand upload plus a range body. */
struct SpmmBody
{
    /** Upload the operands and allocate @p regions output regions
     *  (IndexMAC walks B by rows, so it uploads B transposed). */
    SpmmOp (*prepare)(Machine &m0, const Csr &a, const Csc &b,
                      unsigned regions) = nullptr;
    void (*setup)(Machine &m, SpmmOp &op, CoreState &core,
                  Index lo) = nullptr;
    void (*rows)(Machine &m, SpmmOp &op, CoreState &core, Index lo,
                 Index hi) = nullptr;
};

/** The SpMM variant of @p kind. */
const SpmmBody &spmmBody(BackendKind kind);

/**
 * Output entries an SpMM region holds: min(rows * cols, nnz(A) *
 * max column nnz of B + 1), the historical sizing that fixes every
 * run's address layout, or the product's exact nnz where that is
 * larger (a B whose rows are denser than its columns).
 */
std::size_t spmmOutputBound(const Csr &a, const Csc &b);

// -------------------------------------------------------- Histogram

/** One histogram run: the uploaded keys and one output array per
 *  region (the histogram, or each core's partial histogram). */
struct HistOp
{
    Addr keys = 0;
    std::vector<Addr> out;
};

/** Bucket passes over the keys, one bucket range [lo, hi) each;
 *  @p tiled when there is more than one. */
struct HistPass
{
    Index lo = 0, hi = 0;
    bool tiled = false;
};

/** One backend's histogram: per-core setup, the passes, and per
 *  pass an optional per-core open and drain around the key ranges. */
struct HistBody
{
    void (*setup)(Machine &m, HistOp &op, CoreState &core,
                  Index lo) = nullptr;
    std::vector<HistPass> (*passes)(const Machine &m,
                                    Index buckets) = nullptr;
    void (*begin)(Machine &m, const HistPass &pass) = nullptr;
    void (*keys)(Machine &m, HistOp &op, CoreState &core,
                 const HistPass &pass, Index lo, Index hi) = nullptr;
    void (*drain)(Machine &m, HistOp &op, CoreState &core,
                  const HistPass &pass) = nullptr;
};

/** The histogram variant of @p kind. */
const HistBody &histBody(BackendKind kind);

/** Fatal unless every key lies in [0, buckets). */
void histCheckKeys(const std::vector<Index> &keys, Index buckets);

// ---------------------------------------------------------- Stencil

/** Image, filter taps and output of one stencil run. */
struct StencilImage
{
    Addr img = 0, filt = 0, out = 0;
};

StencilImage uploadStencil(Machine &m, const DenseMatrix &img);
/** Read the output image back. */
DenseMatrix stencilCollect(const Machine &m, const StencilImage &s,
                           const DenseMatrix &img);

/** One stencil run. */
struct StencilOp
{
    const DenseMatrix &img;
    StencilImage s;
    /** SSR: the per-pixel tap indices, uploaded by the first core's
     *  setup. */
    Addr taps = 0;
};

/** The stencil rows body of @p kind. */
const RangeBody<StencilOp> &stencilBody(BackendKind kind);

/** The output-pixel loop every backend's body runs: @p pixel(y, x)
 *  emits the pixel's taps and reduces them into s0, which the loop
 *  stores. */
template <typename Pixel>
void
stencilPixels(Machine &m, const StencilOp &op, Index lo, Index hi,
              Pixel &&pixel)
{
    const Index out_cols = op.img.cols() - 3;
    SReg s_acc{0}, s_x{1}, s_y{2};
    for (Index y = lo; y < hi; ++y) {
        for (Index x = 0; x < out_cols; ++x) {
            pixel(y, x);
            m.sstoreF(op.s.out + 4 * Addr(y * out_cols + x), s_acc,
                      ElemType::F32);
            m.salu(s_x, x + 1, s_x);
            m.sbranch(s_x);
        }
        m.salu(s_y, y + 1, s_y);
        m.sbranch(s_y);
    }
}


} // namespace via::kernels

#endif // VIA_KERNELS_RANGES_HH
