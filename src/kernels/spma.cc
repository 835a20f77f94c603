#include "kernels/spma.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "kernels/ranges.hh"
#include "simcore/log.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

/** Single-core setup: upload, one output region, c_ptr[0]. */
template <typename Rows>
SpmaResult
runSpma(Machine &m, const Csr &a, const Csr &b, Rows &&rows)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    PairImage img = uploadPair(m, a, b);
    RowOutput out(m, 1, a.rows(), a.nnz() + b.nnz());
    SReg s_out{6};
    m.sstore(out.regions[0].ptr, s_out, 4);
    rows(m, a, b, img, out, 0, 0, a.rows());
    return SpmaResult{out.collect(m, a.cols()), m.cycles()};
}

} // namespace

PairImage
uploadPair(Machine &m, const Csr &a, const Csr &b)
{
    PairImage img;
    img.aPtr = upload(m, a.rowPtr());
    img.aIdx = upload(m, a.colIdx());
    img.aVal = upload(m, a.values());
    img.bPtr = upload(m, b.rowPtr());
    img.bIdx = upload(m, b.colIdx());
    img.bVal = upload(m, b.values());
    return img;
}

SpmaResult
spmaScalarCsr(Machine &m, const Csr &a, const Csr &b)
{
    return runSpma(m, a, b, spmaScalarRows);
}

SpmaResult
spmaViaCsr(Machine &m, const Csr &a, const Csr &b)
{
    return runSpma(m, a, b, spmaViaRows);
}

void
spmaScalarRows(Machine &m, const Csr &a, const Csr &b,
               const PairImage &img, RowOutput &out, unsigned region,
               Index lo, Index hi)
{
    RowOutput::Region &c = out.regions[region];
    SReg s_ka{0}, s_kb{1}, s_acol{2}, s_bcol{3}, s_v{4}, s_v2{5},
        s_out{6}, s_r{7};

    for (Index r = lo; r < hi; ++r) {
        const Index row_start = c.used;
        m.sload(s_ka, img.aPtr + 4 * (Addr(r) + 1), 4);
        m.sload(s_kb, img.bPtr + 4 * (Addr(r) + 1), 4);
        Index ka = a.rowPtr()[std::size_t(r)];
        Index kb = b.rowPtr()[std::size_t(r)];
        Index ea = a.rowPtr()[std::size_t(r) + 1];
        Index eb = b.rowPtr()[std::size_t(r) + 1];

        auto emit_copy = [&](Addr col_arr, Addr val_arr, Index k,
                             SReg cursor) {
            m.sload(s_acol, col_arr + 4 * Addr(k), 4);
            m.sloadF(s_v, val_arr + 4 * Addr(k), VT);
            m.sstore(c.col + 4 * Addr(c.used), s_acol, 4);
            m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
            m.salu(cursor, k + 1, cursor);
            m.sbranch(cursor);
        };

        while (ka < ea && kb < eb) {
            m.sload(s_acol, img.aIdx + 4 * Addr(ka), 4);
            m.sload(s_bcol, img.bIdx + 4 * Addr(kb), 4);
            m.salu(s_v, 0, s_acol, s_bcol); // compare
            Index ca = a.colIdx()[std::size_t(ka)];
            Index cb = b.colIdx()[std::size_t(kb)];
            // The merge's control flow depends on the index data —
            // these branches are what real merge loops mispredict.
            m.sbranchData(s_v, 1, ca == cb);
            if (ca != cb)
                m.sbranchData(s_v, 2, ca < cb);
            if (ca == cb) {
                m.sloadF(s_v, img.aVal + 4 * Addr(ka), VT);
                m.sloadF(s_v2, img.bVal + 4 * Addr(kb), VT);
                m.sfadd(s_v, s_v, s_v2);
                m.sstore(c.col + 4 * Addr(c.used), s_acol, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
                m.salu(s_ka, ka + 1, s_ka);
                m.salu(s_kb, kb + 1, s_kb);
                ++ka;
                ++kb;
            } else if (ca < cb) {
                m.sloadF(s_v, img.aVal + 4 * Addr(ka), VT);
                m.sstore(c.col + 4 * Addr(c.used), s_acol, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
                m.salu(s_ka, ka + 1, s_ka);
                ++ka;
            } else {
                m.sloadF(s_v, img.bVal + 4 * Addr(kb), VT);
                m.sstore(c.col + 4 * Addr(c.used), s_bcol, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_v, VT);
                m.salu(s_kb, kb + 1, s_kb);
                ++kb;
            }
            m.salu(s_out, c.used + 1, s_out);
            ++c.used;
        }
        while (ka < ea) {
            emit_copy(img.aIdx, img.aVal, ka, s_ka);
            ++ka;
            ++c.used;
        }
        while (kb < eb) {
            emit_copy(img.bIdx, img.bVal, kb, s_kb);
            ++kb;
            ++c.used;
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        out.rows[std::size_t(r)] = {region, row_start, c.used - row_start};
    }
}

void
spmaViaRows(Machine &m, const Csr &a, const Csr &b,
            const PairImage &img, RowOutput &out, unsigned region,
            Index lo, Index hi)
{
    RowOutput::Region &c = out.regions[region];
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
        out.rows[std::size_t(r)] = {region, row_start, c.used - row_start};
    }
}

} // namespace via::kernels
