#include "kernels/backend_kernels.hh"

#include <algorithm>

#include "kernels/kernel_utils.hh"
#include "kernels/reference.hh"
#include "simcore/log.hh"
#include "sparse/convert.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

/** Shared upload of the dense operand and output buffer. */
struct XY
{
    Addr x = 0;
    Addr y = 0;
};

XY
uploadXY(Machine &m, const DenseVector &x, Index rows)
{
    XY a;
    a.x = upload(m, x);
    a.y = allocValues(m, std::size_t(rows));
    return a;
}

} // namespace

SpmvResult
spmvImacCsrAt(Machine &m, const Csr &a, const CsrImage &img,
              const DenseVector &x)
{
    Addr row_ptr = img.rowPtr;
    Addr col_idx = img.colIdx;
    Addr values = img.values;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    VReg v_val{0}, v_col{1}, v_acc{3};
    SReg s_end{1}, s_acc{5}, s_k{0}, s_r{7};

    for (Index r = 0; r < a.rows(); ++r) {
        m.sload(s_end, row_ptr + 4 * (Addr(r) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index lo = a.rowPtr()[std::size_t(r)];
        Index end = a.rowPtr()[std::size_t(r) + 1];
        for (Index k = lo; k < end; k += vl) {
            int n = std::min<Index>(vl, end - k);
            m.vload(v_val, values + 4 * Addr(k), VT, n);
            m.vload(v_col, col_idx + 4 * Addr(k), IT, n);
            // Gather + FMA fuse into the MAC unit; lanes whose x
            // line sits in the row buffer skip the cache.
            m.vimacF(v_acc, xy.x, v_col, v_val, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        m.vredsumF(s_acc, v_acc);
        m.sstoreF(xy.y + 4 * Addr(r), s_acc, VT);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
    }
    return SpmvResult{downloadValues(m, xy.y,
                                     std::size_t(a.rows())),
                      m.cycles()};
}

SpmvResult
spmvImacSpc5At(Machine &m, const Spc5 &a, const Spc5Image &img,
               const DenseVector &x)
{
    // SPC5 reads x unit-stride per block: there is no indexed
    // traffic for the MAC unit to capture, so the plain vector
    // kernel is the IndexMAC machine's best SPC5 code.
    return spmvVectorSpc5At(m, a, img, x);
}

SpmvResult
spmvImacSellAt(Machine &m, const SellCSigma &a, const SellImage &img,
               const DenseVector &x)
{
    Addr col_idx = img.colIdx;
    Addr values = img.values;
    Addr chunk_ptr = img.chunkPtr;
    Addr row_perm = img.rowPerm;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    via_assert(a.c() == Index(vl), "chunk height mismatch");

    VReg v_val{0}, v_col{1}, v_acc{3}, v_rows{4};
    SReg s_w{1}, s_j{0}, s_ch{7};

    for (Index ch = 0; ch < a.numChunks(); ++ch) {
        m.sload(s_w, chunk_ptr + 4 * (Addr(ch) + 1), 4);
        m.vbroadcastF(v_acc, 0.0);
        Index base = a.chunkPtr()[std::size_t(ch)];
        Index width = a.chunkWidth()[std::size_t(ch)];
        int lanes = int(std::min<Index>(vl, a.rows() - ch * vl));
        for (Index j = 0; j < width; ++j) {
            Addr slice = 4 * Addr(base + j * vl);
            m.vload(v_val, values + slice, VT, lanes);
            m.vload(v_col, col_idx + slice, IT, lanes);
            m.vimacF(v_acc, xy.x, v_col, v_val, lanes);
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.vload(v_rows, row_perm + 4 * Addr(ch) * Addr(vl), IT,
                lanes);
        m.vscatter(xy.y, v_rows, v_acc, VT, lanes);
        m.salu(s_ch, ch + 1, s_ch);
        m.sbranch(s_ch);
    }
    return SpmvResult{downloadValues(m, xy.y,
                                     std::size_t(a.rows())),
                      m.cycles()};
}

SpmvResult
spmvImacCsbAt(Machine &m, const Csb &a, const CsbImage &img,
              const DenseVector &x)
{
    Addr packed = img.packedIdx;
    Addr values = img.values;
    Addr block_ptr = img.blockPtr;
    XY xy = uploadXY(m, x, a.rows());

    const int vl = int(m.vl());
    const Index beta = a.beta();
    const auto col_bits = a.colBits();

    VReg v_idx{0}, v_val{1}, v_col{2}, v_row{3}, v_prod{6};
    SReg s_end{1}, s_k{0}, s_b{7};

    Index bcols = a.blockCols();
    for (Index b = 0; b < a.numBlocks(); ++b) {
        m.sload(s_end, block_ptr + 4 * (Addr(b) + 1), 4);
        Index lo = a.blockPtr()[std::size_t(b)];
        Index end = a.blockPtr()[std::size_t(b) + 1];
        if (lo == end) {
            m.sbranch(s_end); // skip empty block
            continue;
        }
        Addr row_base = xy.y + 4 * Addr(b / bcols) * Addr(beta);
        Addr col_base = xy.x + 4 * Addr(b % bcols) * Addr(beta);
        for (Index k = lo; k < end; k += vl) {
            int n = std::min<Index>(vl, end - k);
            m.vload(v_idx, packed + 4 * Addr(k), IT, n);
            m.vload(v_val, values + 4 * Addr(k), VT, n);
            m.vandI(v_col, v_idx, beta - 1, n);
            m.vshrI(v_row, v_idx, col_bits, n);
            // x gather and y update both run through the MAC unit;
            // in-order lanes make duplicate rows combine without
            // the vconflict/vmergeIdx sequence the vector kernel
            // needs.
            m.vbroadcastF(v_prod, 0.0);
            m.vimacF(v_prod, col_base, v_col, v_val, n);
            m.vimacStF(row_base, v_row, v_prod, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        m.salu(s_b, b + 1, s_b);
        m.sbranch(s_b);
    }
    return SpmvResult{downloadValues(m, xy.y,
                                     std::size_t(a.rows())),
                      m.cycles()};
}

SpmaResult
spmaImacCsr(Machine &m, const Csr &a, const Csr &b)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    Addr a_ptr = upload(m, a.rowPtr());
    Addr a_col = upload(m, a.colIdx());
    Addr a_val = upload(m, a.values());
    Addr b_ptr = upload(m, b.rowPtr());
    Addr b_col = upload(m, b.colIdx());
    Addr b_val = upload(m, b.values());

    std::size_t worst = a.nnz() + b.nnz();
    Addr c_col = m.mem().alloc(worst * sizeof(Index));
    Addr c_val = m.mem().alloc(worst * sizeof(Value));
    Addr c_ptr = m.mem().alloc((std::size_t(a.rows()) + 1) *
                               sizeof(Index));
    // Dense per-row accumulator: conflict-free vimac.st.f updates in
    // exchange for a cols-sized buffer (the footprint honesty note
    // in backend_kernels.hh).
    Addr acc = allocValues(m, std::size_t(a.cols()));

    const int vl = int(m.vl());
    VReg v_col{0}, v_val{1}, v_keys{2}, v_out{3}, v_zero{4};
    SReg s_ea{0}, s_eb{1}, s_acol{2}, s_bcol{3}, s_v{4}, s_k{5},
        s_out{6}, s_r{7};

    std::vector<Index> c_row_ptr(std::size_t(a.rows()) + 1, 0);
    Index out = 0;
    m.sstore(c_ptr, s_out, 4);
    m.vbroadcastF(v_zero, 0.0);

    for (Index r = 0; r < a.rows(); ++r) {
        m.sload(s_ea, a_ptr + 4 * (Addr(r) + 1), 4);
        m.sload(s_eb, b_ptr + 4 * (Addr(r) + 1), 4);
        Index ka = a.rowPtr()[std::size_t(r)];
        Index kb = b.rowPtr()[std::size_t(r)];
        Index ea = a.rowPtr()[std::size_t(r) + 1];
        Index eb = b.rowPtr()[std::size_t(r) + 1];

        // Phase 1: both rows accumulate into the dense buffer with
        // vimac.st.f — matching columns combine in the MAC unit.
        for (Index k = ka; k < ea; k += vl) {
            int n = std::min<Index>(vl, ea - k);
            m.vload(v_col, a_col + 4 * Addr(k), IT, n);
            m.vload(v_val, a_val + 4 * Addr(k), VT, n);
            m.vimacStF(acc, v_col, v_val, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }
        for (Index k = kb; k < eb; k += vl) {
            int n = std::min<Index>(vl, eb - k);
            m.vload(v_col, b_col + 4 * Addr(k), IT, n);
            m.vload(v_val, b_val + 4 * Addr(k), VT, n);
            m.vimacStF(acc, v_col, v_val, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }

        // Phase 2: a column-only scalar merge names the union (the
        // values already live in the accumulator, so this walk loads
        // half of what the full merge does).
        Index row_start = out;
        while (ka < ea && kb < eb) {
            m.sload(s_acol, a_col + 4 * Addr(ka), 4);
            m.sload(s_bcol, b_col + 4 * Addr(kb), 4);
            m.salu(s_v, 0, s_acol, s_bcol); // compare
            Index ca = a.colIdx()[std::size_t(ka)];
            Index cb = b.colIdx()[std::size_t(kb)];
            m.sbranchData(s_v, 1, ca == cb);
            if (ca != cb)
                m.sbranchData(s_v, 2, ca < cb);
            if (ca == cb) {
                m.sstore(c_col + 4 * Addr(out), s_acol, 4);
                m.salu(s_ea, ka + 1, s_ea);
                m.salu(s_eb, kb + 1, s_eb);
                ++ka;
                ++kb;
            } else if (ca < cb) {
                m.sstore(c_col + 4 * Addr(out), s_acol, 4);
                m.salu(s_ea, ka + 1, s_ea);
                ++ka;
            } else {
                m.sstore(c_col + 4 * Addr(out), s_bcol, 4);
                m.salu(s_eb, kb + 1, s_eb);
                ++kb;
            }
            m.salu(s_out, out + 1, s_out);
            ++out;
        }
        while (ka < ea) {
            m.sload(s_acol, a_col + 4 * Addr(ka), 4);
            m.sstore(c_col + 4 * Addr(out), s_acol, 4);
            m.salu(s_ea, ka + 1, s_ea);
            m.sbranch(s_ea);
            ++ka;
            ++out;
        }
        while (kb < eb) {
            m.sload(s_bcol, b_col + 4 * Addr(kb), 4);
            m.sstore(c_col + 4 * Addr(out), s_bcol, 4);
            m.salu(s_eb, kb + 1, s_eb);
            m.sbranch(s_eb);
            ++kb;
            ++out;
        }

        // Phase 3: gather the accumulated values at the union
        // columns, then scatter zeros to clear exactly the touched
        // slots for the next row.
        Index cnt = out - row_start;
        for (Index i = 0; i < cnt; i += vl) {
            int n = std::min<Index>(vl, cnt - i);
            m.vload(v_keys, c_col + 4 * Addr(row_start + i), IT, n);
            m.vgather(v_out, acc, v_keys, VT, n);
            m.vstore(c_val + 4 * Addr(row_start + i), v_out, VT, n,
                     s_out);
            m.vscatter(acc, v_keys, v_zero, VT, n);
            m.salu(s_k, i + vl, s_k);
            m.sbranch(s_k);
        }
        m.sstore(c_ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        c_row_ptr[std::size_t(r) + 1] = out;
    }

    const auto nnz = std::size_t(c_row_ptr.back());
    return SpmaResult{Csr::fromRows(a.rows(), a.cols(),
                                    std::move(c_row_ptr),
                                    downloadIndices(m, c_col, nnz),
                                    downloadValues(m, c_val, nnz)),
                      m.cycles()};
}

SpmmResult
spmmImacGustavson(Machine &m, const Csr &a, const Csc &b)
{
    via_assert(a.cols() == b.rows(), "SpMM shape mismatch");
    // Gustavson walks B by rows; transpose the CSC operand
    // host-side (a format conversion, like Spc5::fromCsr — outside
    // the measured instruction stream, as all conversions are).
    const Csr bs = cscToCsr(b);

    Addr a_ptr = upload(m, a.rowPtr());
    Addr a_col = upload(m, a.colIdx());
    Addr a_val = upload(m, a.values());
    Addr bs_ptr = upload(m, bs.rowPtr());
    Addr bs_col = upload(m, bs.colIdx());
    Addr bs_val = upload(m, bs.values());

    std::size_t bound = std::size_t(a.rows()) *
                        std::size_t(b.cols());
    std::size_t alt = a.nnz() * std::size_t(std::max<Index>(
                                    bs.maxRowNnz(), 1));
    bound = std::min(bound, alt + 1);
    Addr c_col = m.mem().alloc(bound * sizeof(Index));
    Addr c_val = m.mem().alloc(bound * sizeof(Value));
    Addr c_ptr = m.mem().alloc((std::size_t(a.rows()) + 1) *
                               sizeof(Index));
    // Dense row accumulator plus a touch-mark array: the marks turn
    // the extraction into a chunk scan instead of a full-row
    // re-merge.
    Addr acc = allocValues(m, std::size_t(b.cols()));
    Addr mark = allocValues(m, std::size_t(b.cols()));

    const int vl = int(m.vl());
    VReg v_bcol{0}, v_bval{1}, v_av{2}, v_prod{3}, v_ones{4},
        v_mk{5};
    SReg s_ka{0}, s_kb{1}, s_col{2}, s_av{3}, s_v{4}, s_cnt{5},
        s_out{6}, s_k{7}, s_i{8}, s_r{9}, s_zero{10};

    std::vector<Index> c_row_ptr(std::size_t(a.rows()) + 1, 0);
    Index out = 0;
    std::vector<char> touched(std::size_t(b.cols()), 0);

    m.sstore(c_ptr, s_out, 4);
    m.vbroadcastF(v_ones, 1.0);
    m.simm(s_zero, 0);
    m.setSregF(s_zero, 0.0);

    for (Index r = 0; r < a.rows(); ++r) {
        m.sload(s_ka, a_ptr + 4 * (Addr(r) + 1), 4);
        Index a_lo = a.rowPtr()[std::size_t(r)];
        Index a_hi = a.rowPtr()[std::size_t(r) + 1];
        if (a_lo == a_hi) {
            m.sbranch(s_ka);
            m.sstore(c_ptr + 4 * (Addr(r) + 1), s_out, 4);
            c_row_ptr[std::size_t(r) + 1] = out;
            continue;
        }
        // Row-times-matrix: every a(r, k) scales B's row k into the
        // accumulator through the MAC unit.
        for (Index k = a_lo; k < a_hi; ++k) {
            m.sload(s_col, a_col + 4 * Addr(k), 4);
            m.sloadF(s_av, a_val + 4 * Addr(k), VT);
            Index acol = a.colIdx()[std::size_t(k)];
            m.sload(s_kb, bs_ptr + 4 * (Addr(acol) + 1), 4, s_col);
            m.vbroadcastF(v_av, double(a.values()[std::size_t(k)]));
            Index b_lo = bs.rowPtr()[std::size_t(acol)];
            Index b_hi = bs.rowPtr()[std::size_t(acol) + 1];
            for (Index kk = b_lo; kk < b_hi; kk += vl) {
                int n = std::min<Index>(vl, b_hi - kk);
                m.vload(v_bcol, bs_col + 4 * Addr(kk), IT, n);
                m.vload(v_bval, bs_val + 4 * Addr(kk), VT, n);
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
        for (Index j0 = 0; j0 < b.cols(); j0 += vl) {
            int n = std::min<Index>(vl, b.cols() - j0);
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
                m.sstore(c_col + 4 * Addr(out), s_col, 4);
                m.sstoreF(c_val + 4 * Addr(out), s_v, VT);
                m.sstoreF(acc + 4 * Addr(jj), s_zero, VT);
                m.sstoreF(mark + 4 * Addr(jj), s_zero, VT);
                m.salu(s_out, out + 1, s_out);
                ++out;
                touched[std::size_t(jj)] = 0;
            }
        }
        m.sstore(c_ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        c_row_ptr[std::size_t(r) + 1] = out;
    }
    auto nnz = std::size_t(c_row_ptr.back());
    std::vector<Index> cols_out = downloadIndices(m, c_col, nnz);
    DenseVector vals_out = downloadValues(m, c_val, nnz);
    return SpmmResult{Csr::fromParts(a.rows(), b.cols(),
                                     std::move(c_row_ptr),
                                     std::move(cols_out),
                                     std::move(vals_out)),
                      m.cycles()};
}

HistResult
histImac(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    for (Index k : keys)
        via_assert(k >= 0 && k < buckets, "key ", k,
                   " outside [0, ", buckets, ")");
    Addr key_arr = upload(m, keys);
    Addr hist = allocValues(m, std::size_t(buckets));

    const int vl = int(m.vl());
    VReg v_keys{0}, v_ones{2};
    SReg s_i{3};

    m.vbroadcastF(v_ones, 1.0);
    for (std::size_t i = 0; i < keys.size();
         i += std::size_t(vl)) {
        int n = int(std::min<std::size_t>(std::size_t(vl),
                                          keys.size() - i));
        m.vload(v_keys, key_arr + 4 * Addr(i), IT, n);
        // The whole gather/conflict/merge/add/scatter sequence of
        // histVector folds into one in-order indexed accumulate;
        // hot buckets hit the MAC row buffer instead of bouncing
        // through store-to-load forwarding.
        m.vimacStF(hist, v_keys, v_ones, n);
        m.salu(s_i, Index(i) + vl, s_i);
        m.sbranch(s_i);
    }
    return HistResult{downloadValues(m, hist, std::size_t(buckets)),
                      m.cycles()};
}

StencilResult
stencilImac(Machine &m, const DenseMatrix &img)
{
    via_assert(img.rows() >= 4 && img.cols() >= 4, "image too small");
    Addr img_base = upload(m, img.data());
    const auto &f = gaussian4x4();
    Addr filt = upload(m, std::vector<Value>(f.begin(), f.end()));
    const Index W = img.cols();
    const Index out_rows = img.rows() - 3;
    const Index out_cols = img.cols() - 3;
    Addr out = m.mem().alloc(std::size_t(out_rows) *
                             std::size_t(out_cols) * sizeof(Value));

    VReg v_f0{0}, v_f1{1}, v_pat0{2}, v_pat1{3}, v_base{4},
        v_idx{5}, v_acc{6};
    SReg s_acc{0}, s_x{1}, s_y{2};

    m.vload(v_f0, filt, ElemType::F32);
    m.vload(v_f1, filt + 4 * 8, ElemType::F32);
    std::vector<std::int64_t> pat0, pat1;
    for (std::int64_t l = 0; l < 8; ++l) {
        pat0.push_back((l / 4) * W + l % 4);
        pat1.push_back((l / 4 + 2) * W + l % 4);
    }
    m.vpatternI(v_pat0, pat0);
    m.vpatternI(v_pat1, pat1);

    for (Index y = 0; y < out_rows; ++y) {
        for (Index x = 0; x < out_cols; ++x) {
            std::int64_t base = std::int64_t(y) * W + x;
            m.vbroadcastI(v_base, base);
            m.vbroadcastF(v_acc, 0.0);
            // Two indexed MACs replace the gather+multiply pairs;
            // neighbouring windows overlap heavily, so most lanes
            // hit the row buffer.
            m.vaddI(v_idx, v_pat0, v_base);
            m.vimacF(v_acc, img_base, v_idx, v_f0, 8);
            m.vaddI(v_idx, v_pat1, v_base);
            m.vimacF(v_acc, img_base, v_idx, v_f1, 8);
            m.vredsumF(s_acc, v_acc);
            m.sstoreF(out + 4 * Addr(y * out_cols + x), s_acc,
                      ElemType::F32);
            m.salu(s_x, x + 1, s_x);
            m.sbranch(s_x);
        }
        m.salu(s_y, y + 1, s_y);
        m.sbranch(s_y);
    }
    DenseMatrix o(out_rows, out_cols);
    o.data() = m.mem().readArray<Value>(
        out, std::size_t(out_rows) * std::size_t(out_cols));
    return StencilResult{std::move(o), m.cycles()};
}

} // namespace via::kernels
