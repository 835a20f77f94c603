#include "kernels/spmv.hh"

#include <algorithm>
#include <bit>

#include "kernels/backend_kernels.hh"
#include "kernels/kernel_utils.hh"
#include "kernels/ranges.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

/** VIA CSR and SELL read x from the SSPM when it fits there. */
bool
xFits(const Machine &m, Index cols)
{
    return std::uint64_t(cols) <= m.sspm().config().sramEntries();
}

/** Stage x[lo, hi) into SSPM entries [0, hi - lo), through the
 *  index register @p v_idx. */
void
stageX(Machine &m, Addr x, Index lo, Index hi, VReg v_idx)
{
    const int vl = int(m.vl());
    VReg v_x{2};
    SReg s_i{2};
    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.vload(v_x, x + 4 * Addr(i), VT, n);
        m.viotaI(v_idx, i - lo);
        m.vidxLoadD(v_x, v_idx, n);
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

/** Drain SSPM entries from @p off on into y[lo, hi), through
 *  @p v_idx and @p v_out. */
void
drainY(Machine &m, Addr y, Index lo, Index hi, std::int64_t off,
       VReg v_idx, VReg v_out)
{
    const int vl = int(m.vl());
    SReg s_i{2};
    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.viotaI(v_idx, off + (i - lo));
        m.vidxMov(v_out, v_idx, n);
        m.vstore(y + 4 * Addr(i), v_out, VT, n, s_i);
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

/** Vector CSR and SELL step: gather x, one vfmaF into v3. */
template <typename Op>
void
vectorMac(Machine &m, const Op &op, Index k, int n)
{
    VReg v_val{0}, v_col{1}, v_x{2}, v_acc{3};
    m.vload(v_val, op.img.values + 4 * Addr(k), VT, n);
    m.vload(v_col, op.img.colIdx + 4 * Addr(k), IT, n);
    m.vgather(v_x, op.x, v_col, VT, n);
    m.vfmaF(v_acc, v_val, v_x, v_acc, n);
}

/** VIA CSR and SELL step: x[col] * val straight out of the SSPM
 *  when @p x_fits, else gathered, added into v3 via @p v_prod. */
template <typename Op>
void
viaMac(Machine &m, const Op &op, Index k, int n, bool x_fits,
       VReg v_prod)
{
    VReg v_val{0}, v_col{1}, v_x{2}, v_acc{3};
    m.vload(v_val, op.img.values + 4 * Addr(k), VT, n);
    m.vload(v_col, op.img.colIdx + 4 * Addr(k), IT, n);
    if (x_fits) {
        m.vidxMulD(v_val, v_col, ViaOut::Vrf, v_prod, 0, n);
    } else {
        m.vgather(v_x, op.x, v_col, VT, n);
        m.vmulF(v_prod, v_val, v_x, n);
    }
    m.vaddF(v_acc, v_acc, v_prod, n);
}

void
vectorCsrRows(Machine &m, CsrOp &op, CoreState &, Index lo, Index hi)
{
    csrRowLoop(m, op, lo, hi,
               [&](Index k, int n) { vectorMac(m, op, k, n); });
}

void
viaCsrSetup(Machine &m, CsrOp &op, CoreState &, Index)
{
    if (!xFits(m, op.a.cols()))
        return;
    m.vidxClear();
    stageX(m, op.x, 0, op.a.cols(), VReg{4});
}

void
viaCsrRows(Machine &m, CsrOp &op, CoreState &, Index lo, Index hi)
{
    const bool x_fits = xFits(m, op.a.cols());
    csrRowLoop(m, op, lo, hi, [&](Index k, int n) {
        viaMac(m, op, k, n, x_fits, VReg{5});
    });
}

/**
 * Vector CSB block rows: gather x, gather/scatter y. With Streamed
 * (SSR) two affine streams replace the index and value loads; the
 * gather-update-scatter traffic on the y partials stays (it is
 * data-dependent, which streams cannot express).
 */
template <bool Streamed>
void
csbRows(Machine &m, CsbOp &op, CoreState &core, Index lo, Index hi)
{
    if (Streamed && rebind(core, lo)) {
        const auto b0 = std::size_t(lo) * std::size_t(op.a.blockCols());
        const Addr k0 = 4 * Addr(op.a.blockPtr()[b0]);
        m.ssrBindAffine(0, op.img.packedIdx + k0, IT);
        m.ssrBindAffine(1, op.img.values + k0, VT);
    }
    core.next = hi;
    VReg v_idx{0}, v_val{1}, v_col{2}, v_row{3}, v_x{4}, v_y{5},
        v_prod{6};
    csbBlockLoop(m, op, lo, hi, [&](Index k, int n, Addr y, Addr x) {
        if (Streamed) {
            m.ssrPopV(v_idx, 0, n);
            m.ssrPopV(v_val, 1, n);
        } else {
            m.vload(v_idx, op.img.packedIdx + 4 * Addr(k), IT, n);
            m.vload(v_val, op.img.values + 4 * Addr(k), VT, n);
        }
        // Unpack the merged in-block index.
        m.vandI(v_col, v_idx, op.a.beta() - 1, n);
        m.vshrI(v_row, v_idx, op.a.colBits(), n);
        // Gather x, gather-update-scatter the y partials: the BBF
        // store-load forwarding traffic of Section II-C.
        m.vgather(v_x, x, v_col, VT, n);
        m.vmulF(v_prod, v_val, v_x, n);
        // Duplicate rows in one vector must be combined before the
        // scatter (conflict detection + merge, as AVX-512 BBF
        // kernels do).
        m.vconflict(v_y, v_row, n);
        m.vmergeIdx(v_prod, v_prod, v_row, n);
        m.vgather(v_y, y, v_row, VT, n);
        m.vaddF(v_y, v_y, v_prod, n);
        m.vscatter(y, v_row, v_y, VT, n);
    });
}

void
viaCsbRows(Machine &m, CsbOp &op, CoreState &, Index lo, Index hi)
{
    const Csb &a = op.a;
    const CsbImage &img = op.img;
    const int vl = int(m.vl());
    const Index beta = a.beta();
    via_assert(std::uint64_t(2 * beta) <=
                   m.sspm().config().sramEntries(),
               "CSB block side ", beta, " does not fit the SSPM; "
               "use viaCsbBeta()");

    VReg v_idx{0}, v_val{1}, v_out{3};
    SReg s_end{1}, s_k{0}, s_b{7};

    const Index bcols = a.blockCols();
    // y accumulators live at SSPM[beta ..), x chunks at SSPM[0..beta).
    const std::int64_t y_off = beta;

    m.vidxClear();
    for (Index br = lo; br < hi; ++br) {
        Index row_lo = br * beta;
        Index row_hi = std::min<Index>(row_lo + beta, a.rows());
        for (Index bc = 0; bc < bcols; ++bc) {
            const std::int64_t b = std::int64_t(br) * bcols + bc;
            m.sload(s_end, img.blockPtr + 4 * (Addr(b) + 1), 4);
            Index k_lo = a.blockPtr()[std::size_t(b)];
            Index end = a.blockPtr()[std::size_t(b) + 1];
            if (k_lo == end) {
                m.sbranch(s_end); // skip empty block
                continue;
            }
            // Algorithm 4 lines 4-8: stage this block's x chunk.
            const Index col_lo = bc * beta;
            stageX(m, op.x, col_lo,
                   std::min<Index>(col_lo + beta, a.cols()), v_idx);
            // Algorithm 4 lines 11-15: multiply-accumulate blocks.
            for (Index k = k_lo; k < end; k += vl) {
                int n = std::min<Index>(vl, end - k);
                m.vload(v_idx, img.packedIdx + 4 * Addr(k), IT, n);
                m.vload(v_val, img.values + 4 * Addr(k), VT, n);
                m.vidxBlkMulD(v_val, v_idx, a.colBits(), y_off, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            m.salu(s_b, b + 1, s_b);
            m.sbranch(s_b);
        }
        // Drain the accumulators for this block row, then reset.
        drainY(m, op.y, row_lo, row_hi, y_off, v_idx, v_out);
        m.vidxClearSegment(std::uint64_t(y_off),
                           std::uint64_t(y_off + beta));
    }
}

/** The first SPC5 block of row @p r or later (blocks are sorted by
 *  row, so a row range is one contiguous block range). */
std::size_t
spc5Block(const Spc5 &a, Index r)
{
    const auto &rows = a.blockRow();
    return std::size_t(std::lower_bound(rows.begin(), rows.end(), r) -
                       rows.begin());
}

/**
 * The SPC5 block loop of rows [lo, hi), whose blocks are contiguous
 * (blocks are sorted by row): per block, @p row(r) with its row r,
 * the header loads, the packed values (popped from stream 0 when
 * @p streamed) expanded by the mask into v1 and x loaded unit-stride
 * into v2, then @p step(r, n) over its n columns.
 */
template <typename Row, typename Step>
void
spc5BlockLoop(Machine &m, const Spc5Op &op, Index lo, Index hi,
              bool streamed, Row &&row, Step &&step)
{
    const Spc5 &a = op.a;
    const int vl = int(m.vl());
    via_assert(a.window() == Index(vl),
               "SPC5 window must equal the vector length");
    VReg v_packed{0}, v_val{1}, v_x{2};
    SReg s_hdr{1}, s_b{0};
    const auto &rows = a.blockRow();
    for (std::size_t b = spc5Block(a, lo), end = spc5Block(a, hi);
         b < end; ++b) {
        row(rows[b]);
        m.sload(s_hdr, op.img.blockRow + 4 * Addr(b), 4);
        m.sload(s_hdr, op.img.blockCol + 4 * Addr(b), 4);
        m.sload(s_hdr, op.img.blockMask + 4 * Addr(b), 4);
        const Index first = a.blockCol()[b];
        const Index v0 = a.blockPtr()[b];
        const int packed = int(a.blockPtr()[b + 1] - v0);
        if (streamed)
            m.ssrPopV(v_packed, 0, packed);
        else
            m.vload(v_packed, op.img.values + 4 * Addr(v0), VT, packed);
        m.vexpandMask(v_val, v_packed, a.blockMask()[b], vl, s_hdr);
        const int n = int(std::min<Index>(vl, a.cols() - first));
        m.vload(v_x, op.x + 4 * Addr(first), VT, n);
        step(rows[b], n);
        m.salu(s_b, Index(b) + 1, s_b);
        m.sbranch(s_b);
    }
}

/**
 * Vector SPC5 rows: FMA each block into v3, and add each row's
 * reduction into y (rows span several blocks, so the software
 * baseline re-reads and re-writes y: the store-load forwarding
 * pattern). With Streamed (SSR) one affine stream, consumed in block
 * order, replaces every packed-value load; x stays unit-stride,
 * which is SPC5's selling point.
 */
template <bool Streamed>
void
spc5Rows(Machine &m, Spc5Op &op, CoreState &core, Index lo, Index hi)
{
    if (Streamed && rebind(core, lo)) {
        const Index k0 = op.a.blockPtr()[spc5Block(op.a, lo)];
        m.ssrBindAffine(0, op.img.values + 4 * Addr(k0), VT);
    }
    core.next = hi;
    VReg v_val{1}, v_x{2}, v_acc{3};
    SReg s_acc{5}, s_row{7};
    Index cur = -1;
    auto flush = [&] {
        if (cur < 0)
            return;
        m.vredsumF(s_acc, v_acc);
        m.sloadF(s_row, op.y + 4 * Addr(cur), VT);
        m.sfadd(s_acc, s_acc, s_row);
        m.sstoreF(op.y + 4 * Addr(cur), s_acc, VT);
    };
    spc5BlockLoop(
        m, op, lo, hi, Streamed,
        [&](Index row) {
            if (row == cur)
                return;
            flush();
            m.vbroadcastF(v_acc, 0.0);
            cur = row;
        },
        [&](Index, int n) { m.vfmaF(v_acc, v_val, v_x, v_acc, n); });
    flush();
}

/**
 * VIA SPC5 rows: each block's partials accumulate straight into the
 * SSPM slot of its row (no reduce, no y re-load). The SSPM holds one
 * segment of rows at a time, opened at the range's first row and
 * drained to y when a block leaves it, and at the range's end.
 */
void
viaSpc5Rows(Machine &m, Spc5Op &op, CoreState &, Index lo, Index hi)
{
    const auto seg_rows = Index(m.sspm().config().sramEntries());
    VReg v_val{1}, v_x{2}, v_prod{3}, v_rowb{4}, v_idx{5}, v_out{6};
    Index seg_base = lo;
    auto drain = [&](Index upto) {
        drainY(m, op.y, seg_base, upto, 0, v_idx, v_out);
        m.vidxClear();
    };
    m.vidxClear();
    spc5BlockLoop(
        m, op, lo, hi, false,
        [&](Index row) {
            if (row < seg_base + seg_rows)
                return;
            drain(seg_base + seg_rows);
            seg_base += (row - seg_base) / seg_rows * seg_rows;
        },
        [&](Index row, int n) {
            m.vmulF(v_prod, v_val, v_x, n);
            m.vbroadcastI(v_rowb, row - seg_base);
            m.vidxAddD(v_prod, v_rowb, ViaOut::Sspm, v_out, 0, n);
        });
    drain(std::min(seg_base + seg_rows, hi));
}

void
vectorSellRows(Machine &m, SellOp &op, CoreState &, Index lo, Index hi)
{
    sellChunkLoop(m, op, lo, hi,
                  [&](Index k, int n) { vectorMac(m, op, k, n); });
}

void
viaSellSetup(Machine &m, SellOp &op, CoreState &, Index)
{
    if (!xFits(m, op.a.cols()))
        return;
    m.vidxClear();
    stageX(m, op.x, 0, op.a.cols(), VReg{5});
}

void
viaSellRows(Machine &m, SellOp &op, CoreState &, Index lo, Index hi)
{
    const bool x_fits = xFits(m, op.a.cols());
    sellChunkLoop(m, op, lo, hi, [&](Index k, int n) {
        viaMac(m, op, k, n, x_fits, VReg{6});
    });
}

} // namespace

const RangeBody<CsrOp> &
spmvCsrBody(BackendKind kind)
{
    // Indexed by BackendKind: base, VIA, SSR, IndexMAC.
    static constexpr RangeBody<CsrOp> table[] = {
        {.rows = vectorCsrRows},
        {.setup = viaCsrSetup, .rows = viaCsrRows},
        {.rows = spmvSsrCsrRows},
        {.rows = spmvImacCsrRows},
    };
    return table[std::size_t(kind)];
}

const RangeBody<CsbOp> &
spmvCsbBody(BackendKind kind)
{
    static constexpr RangeBody<CsbOp> table[] = {
        {.rows = csbRows<false>},
        {.rows = viaCsbRows},
        {.rows = csbRows<true>},
        {.rows = spmvImacCsbRows},
    };
    return table[std::size_t(kind)];
}

const RangeBody<Spc5Op> &
spmvSpc5Body(BackendKind kind)
{
    // SPC5 reads x unit-stride per block: there is no indexed traffic
    // for the MAC unit to capture, so IndexMAC runs the vector body.
    static constexpr RangeBody<Spc5Op> table[] = {
        {.rows = spc5Rows<false>},
        {.rows = viaSpc5Rows},
        {.rows = spc5Rows<true>},
        {.rows = spc5Rows<false>},
    };
    return table[std::size_t(kind)];
}

const RangeBody<SellOp> &
spmvSellBody(BackendKind kind)
{
    static constexpr RangeBody<SellOp> table[] = {
        {.rows = vectorSellRows},
        {.setup = viaSellSetup, .rows = viaSellRows},
        {.rows = spmvSsrSellRows},
        {.rows = spmvImacSellRows},
    };
    return table[std::size_t(kind)];
}

Index
viaCsbBeta(const Machine &m)
{
    auto entries = m.sspm().config().sramEntries();
    return Index(std::bit_floor(entries / 2));
}

// The matrix-operand uploads, shared by the one-shot wrappers and
// the resident-matrix path. Each array is mapped, not copied, at
// the address a copy would get. Upload order matches the historical
// one-shot functions exactly, so the emitted streams (and the
// BENCH_simspeed fingerprints) are unchanged.

CsrImage
uploadCsr(Machine &m, const Csr &a)
{
    CsrImage img;
    img.rowPtr = m.mem().mapArray(a.storage(), a.rowPtr());
    img.colIdx = m.mem().mapArray(a.storage(), a.colIdx());
    img.values = m.mem().mapArray(a.storage(), a.values());
    return img;
}

Spc5Image
uploadSpc5(Machine &m, const Spc5 &a)
{
    Spc5Image img;
    img.values = m.mem().mapArray(a.storage(), a.values());
    img.blockRow = m.mem().mapArray(a.storage(), a.blockRow());
    img.blockCol = m.mem().mapArray(a.storage(), a.blockCol());
    img.blockMask = m.mem().mapArray(a.storage(), a.blockMask());
    return img;
}

SellImage
uploadSell(Machine &m, const SellCSigma &a)
{
    SellImage img;
    img.colIdx = m.mem().mapArray(a.storage(), a.colIdx());
    img.values = m.mem().mapArray(a.storage(), a.values());
    img.chunkPtr = m.mem().mapArray(a.storage(), a.chunkPtr());
    img.rowPerm = m.mem().mapArray(a.storage(), a.rowPerm());
    return img;
}

CsbImage
uploadCsb(Machine &m, const Csb &a)
{
    CsbImage img;
    img.packedIdx = m.mem().mapArray(a.storage(), a.packedIdx());
    img.values = m.mem().mapArray(a.storage(), a.values());
    img.blockPtr = m.mem().mapArray(a.storage(), a.blockPtr());
    return img;
}

SpmvResult
spmvScalarCsr(Machine &m, const Csr &a, const DenseVector &x)
{
    CsrOp op(m, a, uploadCsr(m, a), x);

    SReg s_end{1}, s_col{2}, s_val{3}, s_x{4}, s_acc{5}, s_prod{6},
        s_k{0}, s_r{7};

    for (Index r = 0; r < a.rows(); ++r) {
        m.sload(s_end, op.img.rowPtr + 4 * (Addr(r) + 1), 4);
        m.salu(s_acc, 0); // acc = 0 (FP zero shares the bit pattern)
        Index end = a.rowPtr()[std::size_t(r) + 1];
        for (Index k = a.rowPtr()[std::size_t(r)]; k < end; ++k) {
            m.sload(s_col, op.img.colIdx + 4 * Addr(k), 4);
            m.sloadF(s_val, op.img.values + 4 * Addr(k), VT);
            Index col = a.colIdx()[std::size_t(k)];
            m.sloadF(s_x, op.x + 4 * Addr(col), VT, s_col);
            m.sfmul(s_prod, s_val, s_x);
            m.sfadd(s_acc, s_acc, s_prod);
            m.salu(s_k, k + 1, s_k);
            m.sbranch(s_k);
        }
        m.sstoreF(op.y + 4 * Addr(r), s_acc, VT);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
    }
    return SpmvResult{op.readY(m), m.cycles()};
}

SpmvResult
spmvVectorCsr(Machine &m, const Csr &a, const DenseVector &x)
{
    return spmvVectorCsrAt(m, a, uploadCsr(m, a), x);
}

SpmvResult
spmvVectorCsrAt(Machine &m, const Csr &a, const CsrImage &img,
                const DenseVector &x)
{
    return spmvRun(m, spmvCsrBody(BackendKind::Base), a, img, x);
}

SpmvResult
spmvVectorCsb(Machine &m, const Csb &a, const DenseVector &x)
{
    return spmvRun(m, spmvCsbBody(BackendKind::Base), a,
                   uploadCsb(m, a), x);
}

SpmvResult
spmvScalarCsb(Machine &m, const Csb &a, const DenseVector &x)
{
    CsbOp op(m, a, uploadCsb(m, a), x);
    Addr packed = op.img.packedIdx;
    Addr values = op.img.values;
    Addr block_ptr = op.img.blockPtr;

    const Index beta = a.beta();
    const auto col_bits = a.colBits();
    const Index bcols = a.blockCols();

    SReg s_end{1}, s_idx{2}, s_col{3}, s_row{4}, s_val{5}, s_x{6},
        s_y{7}, s_k{0}, s_b{8};

    for (Index b = 0; b < a.numBlocks(); ++b) {
        m.sload(s_end, block_ptr + 4 * (Addr(b) + 1), 4);
        m.sbranch(s_end);
        Index lo = a.blockPtr()[std::size_t(b)];
        Index end = a.blockPtr()[std::size_t(b) + 1];
        Addr row_base = op.y + 4 * Addr(b / bcols) * Addr(beta);
        Addr col_base = op.x + 4 * Addr(b % bcols) * Addr(beta);
        for (Index k = lo; k < end; ++k) {
            Index pk = a.packedIdx()[std::size_t(k)];
            Index in_col = pk & (beta - 1);
            Index in_row = pk >> col_bits;
            m.sload(s_idx, packed + 4 * Addr(k), 4);
            m.salu(s_col, in_col, s_idx); // unpack: and
            m.salu(s_row, in_row, s_idx); // unpack: shift
            m.sloadF(s_val, values + 4 * Addr(k), VT);
            m.sloadF(s_x, col_base + 4 * Addr(in_col), VT, s_col);
            m.sfmul(s_val, s_val, s_x);
            // y[row] += ...: read-modify-write through memory.
            m.sloadF(s_y, row_base + 4 * Addr(in_row), VT, s_row);
            m.sfadd(s_y, s_y, s_val);
            m.sstoreF(row_base + 4 * Addr(in_row), s_y, VT, s_row);
            m.salu(s_k, k + 1, s_k);
            m.sbranch(s_k);
        }
        m.salu(s_b, b + 1, s_b);
        m.sbranch(s_b);
    }
    return SpmvResult{op.readY(m), m.cycles()};
}

SpmvResult
spmvViaCsr(Machine &m, const Csr &a, const DenseVector &x)
{
    return spmvViaCsrAt(m, a, uploadCsr(m, a), x);
}

SpmvResult
spmvViaCsrAt(Machine &m, const Csr &a, const CsrImage &img,
             const DenseVector &x)
{
    return spmvRun(m, spmvCsrBody(BackendKind::Via), a, img, x);
}

SpmvResult
spmvViaCsb(Machine &m, const Csb &a, const DenseVector &x)
{
    return spmvViaCsbAt(m, a, uploadCsb(m, a), x);
}

SpmvResult
spmvViaCsbAt(Machine &m, const Csb &a, const CsbImage &img,
             const DenseVector &x)
{
    return spmvRun(m, spmvCsbBody(BackendKind::Via), a, img, x);
}

SpmvResult
spmvRun(Cores cores, BackendKind kind, const Csr &a,
        const SpmvStorage &s, const DenseVector &x, Partition part)
{
    via_assert(a.cols() == Index(x.size()), "SpMV shape mismatch");
    return visitSpmv(kind, a, s,
                     [&](const auto &mat, const auto &img,
                         const auto &body) {
                         return spmvRun(cores, body, mat, img, x, part);
                     });
}

} // namespace via::kernels
