#include "kernels/spma.hh"

#include <algorithm>

#include "kernels/backend_kernels.hh"
#include "kernels/kernel_utils.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

void
headSetup(Machine &m, SpmaOp &op, CoreState &, Index)
{
    op.out.storeHead(m, SReg{6});
}

/** SSR: bind the four element streams (A cols, A values, B cols, B
 *  values) at row @p lo's first elements, unless they stand there. */
void
bindRows(Machine &m, const SpmaOp &op, CoreState &core, Index lo)
{
    if (!rebind(core, lo))
        return;
    const Addr ka = 4 * Addr(op.a.rowPtr()[std::size_t(lo)]);
    const Addr kb = 4 * Addr(op.b.rowPtr()[std::size_t(lo)]);
    m.ssrBindAffine(0, op.img.aIdx + ka, IT);
    m.ssrBindAffine(1, op.img.aVal + ka, VT);
    m.ssrBindAffine(2, op.img.bIdx + kb, IT);
    m.ssrBindAffine(3, op.img.bVal + kb, VT);
}

/** SSR: all four element arrays are consumed monotonically across
 *  the merge, so one bind each covers a core's contiguous rows; they
 *  are bound ahead of the head store. */
void
ssrSetup(Machine &m, SpmaOp &op, CoreState &core, Index lo)
{
    bindRows(m, op, core, lo);
    headSetup(m, op, core, lo);
}

/**
 * The sorted two-pointer merge per row, the algorithm state-of-the-art
 * C++ libraries (Eigen) effectively run. With Streamed (SSR) the
 * streams make the loads: the merge pops a column head once per
 * element and holds it in its register until consumed, and pops a
 * value only when its element is consumed; the branches remain.
 */
template <bool Streamed>
void
mergeRows(Machine &m, SpmaOp &op, CoreState &core, Index lo, Index hi)
{
    const Csr &a = op.a, &b = op.b;
    const PairImage &img = op.img;
    RowOutput::Region &c = op.out.regions[core.region];
    SReg s_ka{0}, s_kb{1}, s_acol{2}, s_bcol{3}, s_v{4}, s_v2{5},
        s_out{6}, s_r{7};

    if (Streamed)
        bindRows(m, op, core, lo);
    core.next = hi;
    auto col = [&](SReg dst, Addr idx, Index k, std::uint32_t s,
                   bool &need) {
        if (!Streamed)
            m.sload(dst, idx + 4 * Addr(k), 4);
        else if (need)
            m.ssrPopS(dst, s);
        need = false;
    };
    auto val = [&](SReg dst, Addr vals, Index k, std::uint32_t s) {
        if (Streamed)
            m.ssrPopS(dst, s);
        else
            m.sloadF(dst, vals + 4 * Addr(k), VT);
    };

    for (Index r = lo; r < hi; ++r) {
        const Index row_start = c.used;
        m.sload(s_ka, img.aPtr + 4 * (Addr(r) + 1), 4);
        m.sload(s_kb, img.bPtr + 4 * (Addr(r) + 1), 4);
        Index ka = a.rowPtr()[std::size_t(r)];
        Index kb = b.rowPtr()[std::size_t(r)];
        Index ea = a.rowPtr()[std::size_t(r) + 1];
        Index eb = b.rowPtr()[std::size_t(r) + 1];
        // Every row ends with both held heads consumed.
        bool need_a = true, need_b = true;

        // One element copied from a single row's tail.
        auto copy = [&](SReg col_reg, Addr idx, Addr vals, Index k,
                        std::uint32_t s, bool &need, SReg cursor) {
            col(col_reg, idx, k, s, need);
            need = true;
            val(s_v, vals, k, s + 1);
            m.sstore(c.col + 4 * Addr(c.used), col_reg, 4);
            m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
            m.salu(cursor, k + 1, cursor);
            m.sbranch(cursor);
        };

        while (ka < ea && kb < eb) {
            col(s_acol, img.aIdx, ka, 0, need_a);
            col(s_bcol, img.bIdx, kb, 2, need_b);
            m.salu(s_v, 0, s_acol, s_bcol); // compare
            Index ca = a.colIdx()[std::size_t(ka)];
            Index cb = b.colIdx()[std::size_t(kb)];
            // The merge's control flow depends on the index data —
            // these branches are what real merge loops mispredict.
            m.sbranchData(s_v, 1, ca == cb);
            if (ca != cb)
                m.sbranchData(s_v, 2, ca < cb);
            if (ca == cb) {
                val(s_v, img.aVal, ka, 1);
                val(s_v2, img.bVal, kb, 3);
                m.sfadd(s_v, s_v, s_v2);
                m.sstore(c.col + 4 * Addr(c.used), s_acol, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
                m.salu(s_ka, ka + 1, s_ka);
                m.salu(s_kb, kb + 1, s_kb);
                ++ka;
                ++kb;
                need_a = need_b = true;
            } else if (ca < cb) {
                val(s_v, img.aVal, ka, 1);
                m.sstore(c.col + 4 * Addr(c.used), s_acol, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
                m.salu(s_ka, ka + 1, s_ka);
                ++ka;
                need_a = true;
            } else {
                val(s_v, img.bVal, kb, 3);
                m.sstore(c.col + 4 * Addr(c.used), s_bcol, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
                m.salu(s_kb, kb + 1, s_kb);
                ++kb;
                need_b = true;
            }
            m.salu(s_out, c.used + 1, s_out);
            ++c.used;
        }
        for (; ka < ea; ++ka, ++c.used)
            copy(s_acol, img.aIdx, img.aVal, ka, 0, need_a, s_ka);
        for (; kb < eb; ++kb, ++c.used)
            copy(Streamed ? s_bcol : s_acol, img.bIdx, img.bVal, kb, 2,
                 need_b, s_kb);
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        op.out.rows[std::size_t(r)] = {core.region, row_start,
                                       c.used - row_start};
    }
}

void
viaRows(Machine &m, SpmaOp &op, CoreState &core, Index lo, Index hi)
{
    const Csr &a = op.a, &b = op.b;
    const PairImage &img = op.img;
    RowOutput::Region &c = op.out.regions[core.region];
    const int vl = int(m.vl());
    const auto cam_cap = Index(m.sspm().config().camEntries());

    VReg v_col{0}, v_val{1}, v_keys{2}, v_out{3}, v_dummy{4};
    SReg s_ea{0}, s_eb{1}, s_cnt{2}, s_k{3}, s_out{6}, s_r{7};

    for (Index r = lo; r < hi; ++r) {
        const Index row_start = c.used;
        m.sload(s_ea, img.aPtr + 4 * (Addr(r) + 1), 4);
        m.sload(s_eb, img.bPtr + 4 * (Addr(r) + 1), 4);
        Index ka = a.rowPtr()[std::size_t(r)];
        Index kb = b.rowPtr()[std::size_t(r)];
        Index ea = a.rowPtr()[std::size_t(r) + 1];
        Index eb = b.rowPtr()[std::size_t(r) + 1];

        // Tile the row into column ranges whose combined element
        // count bounds the CAM occupancy.
        while (ka < ea || kb < eb) {
            Index seg_a_end = ka, seg_b_end = kb;
            Index budget = cam_cap;
            // Two-pointer walk in column order.
            while (budget > 0 &&
                   (seg_a_end < ea || seg_b_end < eb)) {
                Index ca = seg_a_end < ea
                               ? a.colIdx()[std::size_t(seg_a_end)]
                               : a.cols();
                Index cb = seg_b_end < eb
                               ? b.colIdx()[std::size_t(seg_b_end)]
                               : b.cols();
                if (ca <= cb)
                    ++seg_a_end;
                if (cb <= ca)
                    ++seg_b_end;
                --budget;
            }

            // Phase 1: A's segment into the CAM.
            m.vidxClear();
            for (Index k = ka; k < seg_a_end; k += vl) {
                int n = std::min<Index>(vl, seg_a_end - k);
                m.vload(v_col, img.aIdx + 4 * Addr(k), IT, n);
                m.vload(v_val, img.aVal + 4 * Addr(k), VT, n);
                m.vidxLoadC(v_val, v_col, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            // Phase 2: B's segment merges through the CAM.
            for (Index k = kb; k < seg_b_end; k += vl) {
                int n = std::min<Index>(vl, seg_b_end - k);
                m.vload(v_col, img.bIdx + 4 * Addr(k), IT, n);
                m.vload(v_val, img.bVal + 4 * Addr(k), VT, n);
                m.vidxAddC(v_val, v_col, ViaOut::Sspm, v_dummy, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            // Phase 3: extraction.
            m.vidxCount(s_cnt);
            auto cnt = Index(m.sregI(s_cnt));
            for (Index i = 0; i < cnt; i += vl) {
                int n = std::min<Index>(vl, cnt - i);
                m.vidxKeys(v_keys, std::uint32_t(i), n);
                m.vidxVals(v_out, std::uint32_t(i), n);
                m.vstore(c.col + 4 * Addr(c.used + i), v_keys, IT, n,
                         s_cnt);
                m.vstore(c.val + 4 * Addr(c.used + i), v_out, VT, n,
                         s_cnt);
                m.salu(s_k, i + vl, s_k);
                m.sbranch(s_k);
            }
            c.used += cnt;
            ka = seg_a_end;
            kb = seg_b_end;
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        op.out.rows[std::size_t(r)] = {core.region, row_start,
                                       c.used - row_start};
    }
}

} // namespace

const RangeBody<SpmaOp> &
spmaBody(BackendKind kind)
{
    // Indexed by BackendKind: base, VIA, SSR, IndexMAC.
    static constexpr RangeBody<SpmaOp> table[] = {
        {headSetup, mergeRows<false>},
        {headSetup, viaRows},
        {ssrSetup, mergeRows<true>},
        {spmaImacSetup, spmaImacRows},
    };
    return table[std::size_t(kind)];
}

SpmaResult
spmaRun(Cores cores, BackendKind kind, const Csr &a, const Csr &b,
        Partition part)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    Machine &m0 = cores.core(0);
    // Chunks move between cores under stealing, so every core gets a
    // full worst-case output region; the host stitches rows back
    // together afterwards.
    SpmaOp op{a, b, uploadPair(m0, a, b),
              RowOutput(m0, cores.count(), a.rows(), a.nnz() + b.nnz())};
    runRanges(cores, a.rows(), part, op, spmaBody(kind));
    return SpmaResult{op.out.collect(m0, a.cols()), cores.cycles()};
}

PairImage
uploadPair(Machine &m, const Csr &a, const Csr &b)
{
    PairImage img;
    img.aPtr = m.mem().mapArray(a.storage(), a.rowPtr());
    img.aIdx = m.mem().mapArray(a.storage(), a.colIdx());
    img.aVal = m.mem().mapArray(a.storage(), a.values());
    img.bPtr = m.mem().mapArray(b.storage(), b.rowPtr());
    img.bIdx = m.mem().mapArray(b.storage(), b.colIdx());
    img.bVal = m.mem().mapArray(b.storage(), b.values());
    return img;
}

SpmaResult
spmaScalarCsr(Machine &m, const Csr &a, const Csr &b)
{
    return spmaRun(m, BackendKind::Base, a, b);
}

SpmaResult
spmaViaCsr(Machine &m, const Csr &a, const Csr &b)
{
    return spmaRun(m, BackendKind::Via, a, b);
}

} // namespace via::kernels
