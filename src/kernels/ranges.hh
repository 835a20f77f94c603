/**
 * @file
 * The kernels' range bodies: each kernel split into its setup and a
 * body that emits one [lo, hi) range of its iteration space.
 *
 * A single-core kernel (spmv.cc, spma.cc, ...) is its setup plus one
 * body call over the whole range. A parallel kernel (parallel.cc)
 * uploads the same operands once into core 0's memory image (the
 * cores share one backing store), cuts the range into chunks and
 * runs the same body per chunk on the core it assigns. So every
 * kernel's emit loop exists once, and a parallel run on one core
 * emits the single-core instruction stream.
 *
 * The ranges:
 *   - SpMV: CSR rows, CSB block rows
 *   - SpMA, SpMM: rows of A
 *   - histogram: keys (for VIA, inside one bucket pass)
 *   - stencil: output rows
 *
 * Per-core state a body relies on (x staged in the SSPM, the filter
 * taps in registers, the histogram's ones vector) is set up by a
 * separate call, once per core before its first range.
 */

#ifndef VIA_KERNELS_RANGES_HH
#define VIA_KERNELS_RANGES_HH

#include <vector>

#include "cpu/machine.hh"
#include "kernels/kernel_utils.hh"
#include "kernels/spmv.hh"
#include "simcore/log.hh"
#include "sparse/csc.hh"
#include "sparse/csr.hh"
#include "sparse/dense.hh"

namespace via::kernels
{

// ------------------------------------------------------------- SpMV

/** Stage the dense x in the SSPM (VIA CSR when x fits): once per
 *  core, before its first rows. */
void spmvCsrStageX(Machine &m, Index cols, Addr x);

/** VIA CSR rows [lo, hi) into y. With @p x_fits the x operand comes
 *  from the SSPM; otherwise it is gathered, which is also the
 *  parallel CSR baseline. */
void spmvViaCsrRows(Machine &m, const Csr &a, const CsrImage &img,
                    Addr x, Addr y, bool x_fits, Index lo, Index hi);

/** Vector CSB block rows [lo, hi): gather x, gather/scatter y. */
void spmvVectorCsbRows(Machine &m, const Csb &a, const CsbImage &img,
                       Addr x, Addr y, Index lo, Index hi);

/** VIA CSB block rows [lo, hi); the SSPM must hold 2 * beta. */
void spmvViaCsbRows(Machine &m, const Csb &a, const CsbImage &img,
                    Addr x, Addr y, Index lo, Index hi);

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

    std::vector<Region> regions;
    std::vector<Span> rows;
    std::size_t capacity = 0; //!< entries each region holds
};

void spmaScalarRows(Machine &m, const Csr &a, const Csr &b,
                    const PairImage &img, RowOutput &out,
                    unsigned region, Index lo, Index hi);
void spmaViaRows(Machine &m, const Csr &a, const Csr &b,
                 const PairImage &img, RowOutput &out,
                 unsigned region, Index lo, Index hi);
/**
 * Output entries an SpMM region holds: min(rows * cols, nnz(A) *
 * max column nnz of B + 1), the historical sizing that fixes every
 * run's address layout, or the product's exact nnz where that is
 * larger (a B whose rows are denser than its columns).
 */
std::size_t spmmOutputBound(const Csr &a, const Csc &b);
/** The VIA SpMM needs every row of A to fit the CAM. */
void spmmAssertCamFit(const Machine &m, const Csr &a);
void spmmScalarRows(Machine &m, const Csr &a, const Csc &b,
                    const PairImage &img, RowOutput &out,
                    unsigned region, Index lo, Index hi);
void spmmViaRows(Machine &m, const Csr &a, const Csc &b,
                 const PairImage &img, RowOutput &out,
                 unsigned region, Index lo, Index hi);

// -------------------------------------------------------- Histogram

/** Fatal unless every key lies in [0, buckets). */
void histCheckKeys(const std::vector<Index> &keys, Index buckets);
/** Load the ones vector both vector bodies add: once per core. */
void histLoadOnes(Machine &m);
/** Vector (conflict-detect) keys [lo, hi) into @p hist. */
void histVectorKeys(Machine &m, Addr keys, Addr hist, Index lo,
                    Index hi);
/** Bucket passes the VIA histogram makes, one SSPM-sized range
 *  [lo, hi) each; @p tiled when there is more than one. */
struct HistPass
{
    Index lo = 0, hi = 0;
    bool tiled = false;
};
std::vector<HistPass> histViaPasses(const Machine &m, Index buckets);
/** Open a pass on one core: clear the SSPM, load the bounds. */
void histViaBegin(Machine &m, const HistPass &pass);
/** VIA keys [lo, hi) of one pass, accumulated in the SSPM. */
void histViaKeys(Machine &m, Addr keys, const HistPass &pass,
                 Index lo, Index hi);
/** Drain a pass's buckets from the SSPM to @p hist. */
void histViaDrain(Machine &m, Addr hist, const HistPass &pass);

// ---------------------------------------------------------- Stencil

/** Image, filter taps and output of one stencil run. */
struct StencilImage
{
    Addr img = 0, filt = 0, out = 0;
};

StencilImage uploadStencil(Machine &m, const DenseMatrix &img);
/** Load the filter taps and neighbourhood patterns: once per core. */
void stencilLoadTaps(Machine &m, const StencilImage &s, Index width);
/** Vector (gather) output rows [lo, hi). */
void stencilVectorRows(Machine &m, const StencilImage &s,
                       const DenseMatrix &img, Index lo, Index hi);
/** VIA output rows [lo, hi): the rows stage their own image
 *  segments in the SSPM, halo rows included. */
void stencilViaRows(Machine &m, const StencilImage &s,
                    const DenseMatrix &img, Index lo, Index hi);
/** Read the output image back. */
DenseMatrix stencilCollect(const Machine &m, const StencilImage &s,
                           const DenseMatrix &img);

} // namespace via::kernels

#endif // VIA_KERNELS_RANGES_HH
