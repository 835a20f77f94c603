#include "kernels/stencil.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "kernels/ranges.hh"
#include "kernels/reference.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;

/** Single-core setup: upload, load the taps, one body call. */
template <typename Rows>
StencilResult
runStencil(Machine &m, const DenseMatrix &img, Rows &&rows)
{
    via_assert(img.rows() >= 4 && img.cols() >= 4, "image too small");
    StencilImage s = uploadStencil(m, img);
    stencilLoadTaps(m, s, img.cols());
    rows(m, s, img, 0, img.rows() - 3);
    return StencilResult{stencilCollect(m, s, img), m.cycles()};
}

} // namespace

StencilImage
uploadStencil(Machine &m, const DenseMatrix &img)
{
    StencilImage s;
    s.img = upload(m, img.data());
    const auto &f = gaussian4x4();
    s.filt = upload(m, std::vector<Value>(f.begin(), f.end()));
    auto out_elems = std::size_t(img.rows() - 3) *
                     std::size_t(img.cols() - 3);
    s.out = m.mem().alloc(out_elems * sizeof(Value));
    return s;
}

DenseMatrix
stencilCollect(const Machine &m, const StencilImage &s,
               const DenseMatrix &img)
{
    DenseMatrix o(img.rows() - 3, img.cols() - 3);
    o.data() = m.mem().readArray<Value>(
        s.out, std::size_t(o.rows()) * std::size_t(o.cols()));
    return o;
}

void
stencilLoadTaps(Machine &m, const StencilImage &s, Index width)
{
    VReg v_f0{0}, v_f1{1}, v_pat0{2}, v_pat1{3};
    // Filter taps resident in two vector registers (Algorithm 6
    // keeps them in the SSPM and reads them per iteration; with a
    // 16-tap filter two registers hold them, which is strictly
    // cheaper for both machines and keeps the comparison fair).
    m.vload(v_f0, s.filt, VT);
    m.vload(v_f1, s.filt + 4 * 8, VT);
    // Neighbourhood access patterns: taps 0-7 (window rows 0-1) and
    // taps 8-15 (window rows 2-3), relative to the pixel's linear
    // index in the image (or in an SSPM segment, which shares the
    // image's row stride; Algorithm 6 lines 2-3).
    std::vector<std::int64_t> pat0, pat1;
    for (std::int64_t l = 0; l < 8; ++l) {
        pat0.push_back((l / 4) * width + l % 4);
        pat1.push_back((l / 4 + 2) * width + l % 4);
    }
    m.vpatternI(v_pat0, pat0);
    m.vpatternI(v_pat1, pat1);
}

StencilResult
stencilVector(Machine &m, const DenseMatrix &img)
{
    return runStencil(m, img, stencilVectorRows);
}

void
stencilVectorRows(Machine &m, const StencilImage &s,
                  const DenseMatrix &img, Index lo, Index hi)
{
    const Index W = img.cols();
    const Index out_cols = img.cols() - 3;
    VReg v_f0{0}, v_f1{1}, v_pat0{2}, v_pat1{3}, v_base{4},
        v_idx{5}, v_tap{6}, v_p0{7}, v_p1{8};
    SReg s_acc{0}, s_x{1}, s_y{2};

    for (Index y = lo; y < hi; ++y) {
        for (Index x = 0; x < out_cols; ++x) {
            std::int64_t base = std::int64_t(y) * W + x;
            m.vbroadcastI(v_base, base);
            // Rows 0-1 of the window: gather + multiply.
            m.vaddI(v_idx, v_pat0, v_base);
            m.vgather(v_tap, s.img, v_idx, VT);
            m.vmulF(v_p0, v_tap, v_f0);
            // Rows 2-3.
            m.vaddI(v_idx, v_pat1, v_base);
            m.vgather(v_tap, s.img, v_idx, VT);
            m.vmulF(v_p1, v_tap, v_f1);
            m.vaddF(v_p0, v_p0, v_p1);
            m.vredsumF(s_acc, v_p0);
            m.sstoreF(s.out + 4 * Addr(y * out_cols + x), s_acc, VT);
            m.salu(s_x, x + 1, s_x);
            m.sbranch(s_x);
        }
        m.salu(s_y, y + 1, s_y);
        m.sbranch(s_y);
    }
}

StencilResult
stencilVia(Machine &m, const DenseMatrix &img)
{
    return runStencil(m, img, stencilViaRows);
}

void
stencilViaRows(Machine &m, const StencilImage &s,
               const DenseMatrix &img, Index lo, Index hi)
{
    const Index W = img.cols();
    const Index out_cols = img.cols() - 3;
    const int vl = int(m.vl());

    // Segment: as many whole image rows as fit the scratchpad.
    auto entries = Index(m.sspm().config().sramEntries());
    Index seg_rows = std::min<Index>(entries / W, img.rows());
    via_assert(seg_rows >= 4, "image row (", W, " px) too wide for "
               "the SSPM segment staging");

    VReg v_f0{0}, v_f1{1}, v_pat0{2}, v_pat1{3}, v_base{4},
        v_idx{5}, v_p0{6}, v_p1{7}, v_stage{8};
    SReg s_acc{0}, s_x{1}, s_y{2}, s_i{3};

    for (Index seg = lo; seg < hi; seg += seg_rows - 3) {
        Index ilo = seg;
        Index ihi = std::min<Index>(ilo + seg_rows, img.rows());
        // Stage image rows [ilo, ihi) in the SSPM (Algorithm 6
        // l.6); neighbouring ranges re-read up to 3 halo rows.
        m.vidxClear();
        Index seg_elems = (ihi - ilo) * W;
        for (Index i = 0; i < seg_elems; i += vl) {
            int n = std::min<Index>(vl, seg_elems - i);
            m.vload(v_stage, s.img + 4 * Addr(ilo * W + i), VT, n);
            m.viotaI(v_idx, i);
            m.vidxLoadD(v_stage, v_idx, n);
            m.salu(s_i, i + vl, s_i);
            m.sbranch(s_i);
        }
        // Output rows computable from this segment.
        Index y_hi = std::min<Index>(ihi - 3, hi);
        for (Index y = seg; y < y_hi; ++y) {
            for (Index x = 0; x < out_cols; ++x) {
                std::int64_t base = std::int64_t(y - ilo) * W + x;
                m.vbroadcastI(v_base, base);
                // Taps come straight from the scratchpad
                // (Algorithm 6 lines 8-10).
                m.vaddI(v_idx, v_pat0, v_base);
                m.vidxMulD(v_f0, v_idx, ViaOut::Vrf, v_p0, 0);
                m.vaddI(v_idx, v_pat1, v_base);
                m.vidxMulD(v_f1, v_idx, ViaOut::Vrf, v_p1, 0);
                m.vaddF(v_p0, v_p0, v_p1);
                m.vredsumF(s_acc, v_p0);
                m.sstoreF(s.out + 4 * Addr(y * out_cols + x), s_acc,
                          VT);
                m.salu(s_x, x + 1, s_x);
                m.sbranch(s_x);
            }
            m.salu(s_y, y + 1, s_y);
            m.sbranch(s_y);
        }
        if (y_hi >= hi)
            break;
    }
}

} // namespace via::kernels
