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

/** Bind stream 0 to the values and stream 1 to x indirect through
 *  the column indices, both from element @p k0 on. */
template <typename Op>
void
bindMacStreams(Machine &m, const Op &op, Index k0)
{
    m.ssrBindAffine(0, op.img.values + 4 * Addr(k0), VT);
    m.ssrBindIndirect(1, op.img.colIdx + 4 * Addr(k0), IT, op.x, VT);
}

} // namespace

void
spmvSsrCsrRows(Machine &m, CsrOp &op, CoreState &core, Index lo,
               Index hi)
{
    // CSR walks values and colIdx contiguously across rows, so one
    // bind pair amortizes the stream setup over a core's contiguous
    // rows, and ssr.fma consumes both streams.
    if (rebind(core, lo))
        bindMacStreams(m, op, op.a.rowPtr()[std::size_t(lo)]);
    core.next = hi;
    VReg v_acc{3};
    csrRowLoop(m, op, lo, hi,
               [&](Index, int n) { m.ssrFma(v_acc, 0, 1, n); });
}

void
spmvSsrSellRows(Machine &m, SellOp &op, CoreState &core, Index lo,
                Index hi)
{
    // SELL stores its chunks back to back, so the same bind pair
    // covers a core's contiguous chunks. Slices advance by a fixed vl
    // stride even when the last chunk has fewer live lanes, so the
    // streams pop with advance = vl.
    if (rebind(core, lo))
        bindMacStreams(m, op, op.a.chunkPtr()[std::size_t(lo)]);
    core.next = hi;
    const int vl = int(m.vl());
    VReg v_acc{3};
    sellChunkLoop(m, op, lo, hi,
                  [&](Index, int n) { m.ssrFma(v_acc, 0, 1, n, vl); });
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
