#include "kernels/backend_kernels.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "simcore/log.hh"
#include "sparse/convert.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

/** vimac.f fuses the x gather and the FMA into v3; lanes whose x
 *  line sits in the row buffer skip the cache. */
template <typename Op>
void
imacMac(Machine &m, const Op &op, Index k, int n)
{
    VReg v_val{0}, v_col{1}, v_acc{3};
    m.vload(v_val, op.img.values + 4 * Addr(k), VT, n);
    m.vload(v_col, op.img.colIdx + 4 * Addr(k), IT, n);
    m.vimacF(v_acc, op.x, v_col, v_val, n);
}

} // namespace

void
spmvImacCsrRows(Machine &m, CsrOp &op, CoreState &, Index lo,
                Index hi)
{
    csrRowLoop(m, op, lo, hi,
               [&](Index k, int n) { imacMac(m, op, k, n); });
}

void
spmvImacSellRows(Machine &m, SellOp &op, CoreState &, Index lo,
                 Index hi)
{
    sellChunkLoop(m, op, lo, hi,
                  [&](Index k, int n) { imacMac(m, op, k, n); });
}

void
spmvImacCsbRows(Machine &m, CsbOp &op, CoreState &, Index lo,
                Index hi)
{
    VReg v_idx{0}, v_val{1}, v_col{2}, v_row{3}, v_prod{6};
    csbBlockLoop(m, op, lo, hi, [&](Index k, int n, Addr y, Addr x) {
        m.vload(v_idx, op.img.packedIdx + 4 * Addr(k), IT, n);
        m.vload(v_val, op.img.values + 4 * Addr(k), VT, n);
        m.vandI(v_col, v_idx, op.a.beta() - 1, n);
        m.vshrI(v_row, v_idx, op.a.colBits(), n);
        // x gather and y update both run through the MAC unit;
        // in-order lanes make duplicate rows combine without the
        // vconflict/vmergeIdx sequence the vector kernel needs.
        m.vbroadcastF(v_prod, 0.0);
        m.vimacF(v_prod, x, v_col, v_val, n);
        m.vimacStF(y, v_row, v_prod, n);
    });
}

void
spmaImacSetup(Machine &m, SpmaOp &op, CoreState &core, Index)
{
    // Dense per-row accumulator: conflict-free vimac.st.f updates in
    // exchange for a cols-sized buffer per core (the footprint
    // honesty note in backend_kernels.hh).
    core.acc = allocValues(m, std::size_t(op.a.cols()));
    op.out.storeHead(m, SReg{6});
    VReg v_zero{4};
    m.vbroadcastF(v_zero, 0.0);
}

void
spmaImacRows(Machine &m, SpmaOp &op, CoreState &core, Index lo,
             Index hi)
{
    const Csr &a = op.a, &b = op.b;
    const PairImage &img = op.img;
    RowOutput::Region &c = op.out.regions[core.region];
    const Addr acc = core.acc;
    const int vl = int(m.vl());
    VReg v_col{0}, v_val{1}, v_keys{2}, v_out{3}, v_zero{4};
    SReg s_ea{0}, s_eb{1}, s_acol{2}, s_bcol{3}, s_v{4}, s_k{5},
        s_out{6}, s_r{7};

    for (Index r = lo; r < hi; ++r) {
        m.sload(s_ea, img.aPtr + 4 * (Addr(r) + 1), 4);
        m.sload(s_eb, img.bPtr + 4 * (Addr(r) + 1), 4);
        Index ka = a.rowPtr()[std::size_t(r)];
        Index kb = b.rowPtr()[std::size_t(r)];
        Index ea = a.rowPtr()[std::size_t(r) + 1];
        Index eb = b.rowPtr()[std::size_t(r) + 1];

        // Phase 1: both rows accumulate into the dense buffer with
        // vimac.st.f — matching columns combine in the MAC unit.
        for (Index k = ka; k < ea; k += vl) {
            int n = std::min<Index>(vl, ea - k);
            m.vload(v_col, img.aIdx + 4 * Addr(k), IT, n);
            m.vload(v_val, img.aVal + 4 * Addr(k), VT, n);
            m.vimacStF(acc, v_col, v_val, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        for (Index k = kb; k < eb; k += vl) {
            int n = std::min<Index>(vl, eb - k);
            m.vload(v_col, img.bIdx + 4 * Addr(k), IT, n);
            m.vload(v_val, img.bVal + 4 * Addr(k), VT, n);
            m.vimacStF(acc, v_col, v_val, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }

        // Phase 2: a column-only scalar merge names the union (the
        // values already live in the accumulator, so this walk loads
        // half of what the full merge does).
        const Index row_start = c.used;
        while (ka < ea && kb < eb) {
            m.sload(s_acol, img.aIdx + 4 * Addr(ka), 4);
            m.sload(s_bcol, img.bIdx + 4 * Addr(kb), 4);
            m.salu(s_v, 0, s_acol, s_bcol); // compare
            Index ca = a.colIdx()[std::size_t(ka)];
            Index cb = b.colIdx()[std::size_t(kb)];
            m.sbranchData(s_v, 1, ca == cb);
            if (ca != cb)
                m.sbranchData(s_v, 2, ca < cb);
            if (ca == cb) {
                m.sstore(c.col + 4 * Addr(c.used), s_acol, 4);
                m.salu(s_ea, ka + 1, s_ea);
                m.salu(s_eb, kb + 1, s_eb);
                ++ka;
                ++kb;
            } else if (ca < cb) {
                m.sstore(c.col + 4 * Addr(c.used), s_acol, 4);
                m.salu(s_ea, ka + 1, s_ea);
                ++ka;
            } else {
                m.sstore(c.col + 4 * Addr(c.used), s_bcol, 4);
                m.salu(s_eb, kb + 1, s_eb);
                ++kb;
            }
            m.salu(s_out, c.used + 1, s_out);
            ++c.used;
        }
        while (ka < ea) {
            m.sload(s_acol, img.aIdx + 4 * Addr(ka), 4);
            m.sstore(c.col + 4 * Addr(c.used), s_acol, 4);
            m.salu(s_ea, ka + 1, s_ea);
            m.sbranch(s_ea);
            ++ka;
            ++c.used;
        }
        while (kb < eb) {
            m.sload(s_bcol, img.bIdx + 4 * Addr(kb), 4);
            m.sstore(c.col + 4 * Addr(c.used), s_bcol, 4);
            m.salu(s_eb, kb + 1, s_eb);
            m.sbranch(s_eb);
            ++kb;
            ++c.used;
        }

        // Phase 3: gather the accumulated values at the union
        // columns, then scatter zeros to clear exactly the touched
        // slots for the next row.
        Index cnt = c.used - row_start;
        for (Index i = 0; i < cnt; i += vl) {
            int n = std::min<Index>(vl, cnt - i);
            m.vload(v_keys, c.col + 4 * Addr(row_start + i), IT, n);
            m.vgather(v_out, acc, v_keys, VT, n);
            m.vstore(c.val + 4 * Addr(row_start + i), v_out, VT, n,
                     s_out);
            m.vscatter(acc, v_keys, v_zero, VT, n);
            m.salu(s_k, i + vl, s_k);
            m.sbranch(s_k);
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        op.out.rows[std::size_t(r)] = {core.region, row_start, cnt};
    }
}

SpmmOp
spmmImacPrepare(Machine &m0, const Csr &a, const Csc &b,
                unsigned regions)
{
    // Gustavson walks B by rows; transpose the CSC operand
    // host-side (a format conversion, like Spc5::fromCsr — outside
    // the measured instruction stream, as all conversions are).
    Csr bs = cscToCsr(b);
    PairImage img = uploadPair(m0, a, bs);
    // A row of C holds at most nnz(A row) * max row nnz of B
    // entries; this sizing fixes the kernel's address layout.
    std::size_t bound = std::size_t(a.rows()) *
                        std::size_t(b.cols());
    std::size_t alt = a.nnz() * std::size_t(std::max<Index>(
                                    bs.maxRowNnz(), 1));
    bound = std::min(bound, alt + 1);
    RowOutput out(m0, regions, a.rows(), bound);
    return SpmmOp{a, b, std::move(bs), img, std::move(out)};
}

void
spmmImacSetup(Machine &m, SpmmOp &op, CoreState &core, Index)
{
    // Dense row accumulator plus a touch-mark array per core: the
    // marks turn the extraction into a chunk scan instead of a
    // full-row re-merge.
    core.acc = allocValues(m, std::size_t(op.b.cols()));
    core.mark = allocValues(m, std::size_t(op.b.cols()));
    op.out.storeHead(m, SReg{6});
    VReg v_ones{4};
    SReg s_zero{10};
    m.vbroadcastF(v_ones, 1.0);
    m.simm(s_zero, 0);
    m.setSregF(s_zero, 0.0);
}

void
spmmImacRows(Machine &m, SpmmOp &op, CoreState &core, Index lo,
             Index hi)
{
    const Csr &a = op.a, &bs = op.bRows;
    const Index cols = op.b.cols();
    const PairImage &img = op.img;
    RowOutput::Region &c = op.out.regions[core.region];
    const Addr acc = core.acc, mark = core.mark;
    const int vl = int(m.vl());
    VReg v_bcol{0}, v_bval{1}, v_av{2}, v_prod{3}, v_ones{4},
        v_mk{5};
    SReg s_ka{0}, s_kb{1}, s_col{2}, s_av{3}, s_v{4}, s_cnt{5},
        s_out{6}, s_k{7}, s_i{8}, s_r{9}, s_zero{10};

    std::vector<char> touched(std::size_t(cols), 0);
    for (Index r = lo; r < hi; ++r) {
        const Index row_start = c.used;
        m.sload(s_ka, img.aPtr + 4 * (Addr(r) + 1), 4);
        Index a_lo = a.rowPtr()[std::size_t(r)];
        Index a_hi = a.rowPtr()[std::size_t(r) + 1];
        if (a_lo == a_hi) {
            m.sbranch(s_ka);
            m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
            op.out.rows[std::size_t(r)] = {core.region, row_start, 0};
            continue;
        }
        // Row-times-matrix: every a(r, k) scales B's row k into the
        // accumulator through the MAC unit.
        for (Index k = a_lo; k < a_hi; ++k) {
            m.sload(s_col, img.aIdx + 4 * Addr(k), 4);
            m.sloadF(s_av, img.aVal + 4 * Addr(k), VT);
            Index acol = a.colIdx()[std::size_t(k)];
            m.sload(s_kb, img.bPtr + 4 * (Addr(acol) + 1), 4, s_col);
            m.vbroadcastF(v_av, double(a.values()[std::size_t(k)]));
            Index b_lo = bs.rowPtr()[std::size_t(acol)];
            Index b_hi = bs.rowPtr()[std::size_t(acol) + 1];
            for (Index kk = b_lo; kk < b_hi; kk += vl) {
                int n = std::min<Index>(vl, b_hi - kk);
                m.vload(v_bcol, img.bIdx + 4 * Addr(kk), IT, n);
                m.vload(v_bval, img.bVal + 4 * Addr(kk), VT, n);
                m.vmulF(v_prod, v_bval, v_av, n);
                m.vimacStF(acc, v_bcol, v_prod, n);
                m.vimacStF(mark, v_bcol, v_ones, n);
                for (Index t = kk; t < kk + n; ++t)
                    touched[std::size_t(
                        bs.colIdx()[std::size_t(t)])] = 1;
                m.salu(s_k, kk + vl, s_k);
                m.sbranch(s_k);
            }
            m.salu(s_i, k + 1, s_i);
            m.sbranch(s_i);
        }
        // Extraction: scan the mark array in chunks; only chunks
        // with touched columns pay the per-element drain.
        for (Index j0 = 0; j0 < cols; j0 += vl) {
            int n = std::min<Index>(vl, cols - j0);
            m.vload(v_mk, mark + 4 * Addr(j0), VT, n);
            m.vredsumF(s_cnt, v_mk, n);
            m.sbranch(s_cnt);
            bool any = false;
            for (Index jj = j0; jj < j0 + n; ++jj)
                any = any || touched[std::size_t(jj)];
            if (!any)
                continue;
            for (Index jj = j0; jj < j0 + n; ++jj) {
                if (!touched[std::size_t(jj)])
                    continue;
                m.sloadF(s_v, acc + 4 * Addr(jj), VT);
                m.simm(s_col, jj);
                m.sstore(c.col + 4 * Addr(c.used), s_col, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
                m.sstoreF(acc + 4 * Addr(jj), s_zero, VT);
                m.sstoreF(mark + 4 * Addr(jj), s_zero, VT);
                m.salu(s_out, c.used + 1, s_out);
                ++c.used;
                touched[std::size_t(jj)] = 0;
            }
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        op.out.rows[std::size_t(r)] = {core.region, row_start,
                                       c.used - row_start};
    }
}

void
histImacKeys(Machine &m, HistOp &op, CoreState &core, const HistPass &,
             Index lo, Index hi)
{
    const int vl = int(m.vl());
    VReg v_keys{0}, v_ones{2};
    SReg s_i{3};
    for (Index i = lo; i < hi; i += vl) {
        int n = std::min<Index>(vl, hi - i);
        m.vload(v_keys, op.keys + 4 * Addr(i), IT, n);
        // The whole gather/conflict/merge/add/scatter sequence of
        // histVector folds into one in-order indexed accumulate;
        // hot buckets hit the MAC row buffer instead of bouncing
        // through store-to-load forwarding.
        m.vimacStF(op.out[core.region], v_keys, v_ones, n);
        m.salu(s_i, i + vl, s_i);
        m.sbranch(s_i);
    }
}

void
stencilImacRows(Machine &m, StencilOp &op, CoreState &, Index lo,
                Index hi)
{
    const Index W = op.img.cols();
    VReg v_f0{0}, v_f1{1}, v_pat0{2}, v_pat1{3}, v_base{4},
        v_idx{5}, v_acc{6};
    SReg s_acc{0};
    stencilPixels(m, op, lo, hi, [&](Index y, Index x) {
        m.vbroadcastI(v_base, std::int64_t(y) * W + x);
        m.vbroadcastF(v_acc, 0.0);
        // Two indexed MACs replace the gather+multiply pairs;
        // neighbouring windows overlap heavily, so most lanes hit
        // the row buffer.
        m.vaddI(v_idx, v_pat0, v_base);
        m.vimacF(v_acc, op.s.img, v_idx, v_f0, 8);
        m.vaddI(v_idx, v_pat1, v_base);
        m.vimacF(v_acc, op.s.img, v_idx, v_f1, 8);
        m.vredsumF(s_acc, v_acc);
    });
}

} // namespace via::kernels
