#include "kernels/backend_kernels.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

} // namespace

void
spmvSsrCsrRows(Machine &m, CsrOp &op, CoreState &core, Index lo,
               Index hi)
{
    // CSR walks values and colIdx contiguously across rows, so one
    // bind pair amortizes the stream setup over a core's contiguous
    // rows: stream 0 delivers the values, stream 1 gathers x through
    // the column indices, and ssr.fma consumes both.
    if (rebind(core, lo)) {
        const Addr k0 = 4 * Addr(op.a.rowPtr()[std::size_t(lo)]);
        m.ssrBindAffine(0, op.img.values + k0, VT);
        m.ssrBindIndirect(1, op.img.colIdx + k0, IT, op.x, VT);
    }
    core.next = hi;
    VReg v_acc{3};
    csrRowLoop(m, op, lo, hi,
               [&](Index, int n) { m.ssrFma(v_acc, 0, 1, n); });
}

SpmvResult
spmvSsrSpc5At(Machine &m, const Spc5 &a, const Spc5Image &img,
              const DenseVector &x)
{
    SpmvOp<Spc5, Spc5Image> xy(m, a, img, x);
    Addr brow = img.blockRow;
    Addr bcol = img.blockCol;
    Addr bmask = img.blockMask;

    const int vl = int(m.vl());
    via_assert(a.window() == Index(vl),
               "SPC5 window must equal the vector length");

    VReg v_packed{0}, v_val{1}, v_x{2}, v_acc{3};
    SReg s_hdr{1}, s_acc{5}, s_b{0}, s_row{7};

    // The packed values are consumed in block order — one affine
    // stream replaces every values load. x stays unit-stride per
    // block (ordinary vload), which is SPC5's selling point.
    m.ssrBindAffine(0, img.values, VT);

    Index cur_row = -1;
    bool acc_live = false;

    auto flush_row = [&](Index row) {
        m.vredsumF(s_acc, v_acc);
        m.sloadF(s_row, xy.y + 4 * Addr(row), VT);
        m.sfadd(s_acc, s_acc, s_row);
        m.sstoreF(xy.y + 4 * Addr(row), s_acc, VT);
    };

    for (std::size_t b = 0; b < a.numBlocks(); ++b) {
        Index row = a.blockRow()[b];
        if (row != cur_row) {
            if (acc_live)
                flush_row(cur_row);
            m.vbroadcastF(v_acc, 0.0);
            cur_row = row;
            acc_live = true;
        }
        m.sload(s_hdr, brow + 4 * Addr(b), 4);
        m.sload(s_hdr, bcol + 4 * Addr(b), 4);
        m.sload(s_hdr, bmask + 4 * Addr(b), 4);

        Index first = a.blockCol()[b];
        Index v0 = a.blockPtr()[b];
        Index packed = a.blockPtr()[b + 1] - v0;

        m.ssrPopV(v_packed, 0, int(packed));
        m.vexpandMask(v_val, v_packed, a.blockMask()[b], vl, s_hdr);
        int n = int(std::min<Index>(vl, a.cols() - first));
        m.vload(v_x, xy.x + 4 * Addr(first), VT, n);
        m.vfmaF(v_acc, v_val, v_x, v_acc, n);
        m.salu(s_b, Index(b) + 1, s_b);
        m.sbranch(s_b);
    }
    if (acc_live)
        flush_row(cur_row);

    return SpmvResult{xy.readY(m), m.cycles()};
}

SpmvResult
spmvSsrSellAt(Machine &m, const SellCSigma &a, const SellImage &img,
              const DenseVector &x)
{
    SpmvOp<SellCSigma, SellImage> xy(m, a, img, x);
    Addr chunk_ptr = img.chunkPtr;
    Addr row_perm = img.rowPerm;

    const int vl = int(m.vl());
    via_assert(a.c() == Index(vl), "chunk height mismatch");

    VReg v_acc{3}, v_rows{4};
    SReg s_w{1}, s_j{0}, s_ch{7};

    // Slices advance by a fixed vl stride even when the last chunk
    // has fewer live lanes, so the streams pop with advance = vl.
    m.ssrBindAffine(0, img.values, VT);
    m.ssrBindIndirect(1, img.colIdx, IT, xy.x, VT);

    for (Index ch = 0; ch < a.numChunks(); ++ch) {
        m.sload(s_w, chunk_ptr + 4 * (Addr(ch) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index width = a.chunkWidth()[std::size_t(ch)];
        int lanes = int(std::min<Index>(vl, a.rows() - ch * vl));
        for (Index j = 0; j < width; ++j) {
            m.ssrFma(v_acc, 0, 1, lanes, vl);
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.vload(v_rows, row_perm + 4 * Addr(ch) * Addr(vl), IT,
                lanes);
        m.vscatter(xy.y, v_rows, v_acc, VT, lanes);
        m.salu(s_ch, ch + 1, s_ch);
        m.sbranch(s_ch);
    }
    return SpmvResult{xy.readY(m), m.cycles()};
}

void
stencilSsrSetup(Machine &m, StencilOp &op, CoreState &, Index)
{
    // Per-pixel tap indices, precomputed host-side and consumed
    // through one indirect stream: 16 absolute image offsets per
    // output pixel, window rows 0-1 first, then rows 2-3. (The SSR
    // paper's 2-D affine streams would generate these in hardware;
    // this model has 1-D streams, so the indices are staged like a
    // format conversion, once for every core.)
    if (op.taps == 0) {
        const Index W = op.img.cols();
        const Index out_rows = op.img.rows() - 3;
        const Index out_cols = op.img.cols() - 3;
        std::vector<Index> taps;
        taps.reserve(std::size_t(out_rows) * std::size_t(out_cols) *
                     16);
        for (Index y = 0; y < out_rows; ++y)
            for (Index x = 0; x < out_cols; ++x) {
                Index base = y * W + x;
                for (Index l = 0; l < 16; ++l)
                    taps.push_back(base + (l / 4) * W + l % 4);
            }
        op.taps = upload(m, taps);
    }

    VReg v_f0{0}, v_f1{1};
    m.vload(v_f0, op.s.filt, ElemType::F32);
    m.vload(v_f1, op.s.filt + 4 * 8, ElemType::F32);
}

void
stencilSsrRows(Machine &m, StencilOp &op, CoreState &core, Index lo,
               Index hi)
{
    const Index out_cols = op.img.cols() - 3;
    VReg v_f0{0}, v_f1{1}, v_tap{2}, v_p0{3}, v_p1{4};
    SReg s_acc{0};

    if (rebind(core, lo))
        m.ssrBindIndirect(0, op.taps + 64 * Addr(lo) * Addr(out_cols),
                          IT, op.s.img, ElemType::F32);
    core.next = hi;
    stencilPixels(m, op, lo, hi, [&](Index, Index) {
        m.ssrPopV(v_tap, 0, 8);
        m.vmulF(v_p0, v_tap, v_f0, 8);
        m.ssrPopV(v_tap, 0, 8);
        m.vmulF(v_p1, v_tap, v_f1, 8);
        m.vaddF(v_p0, v_p0, v_p1, 8);
        m.vredsumF(s_acc, v_p0);
    });
}

} // namespace via::kernels
