#include "kernels/spmm.hh"

#include <algorithm>

#include "kernels/backend_kernels.hh"
#include "kernels/kernel_utils.hh"
#include "simcore/log.hh"
#include "sparse/convert.hh"

namespace via::kernels
{

namespace
{

constexpr ElemType VT = ElemType::F32;
constexpr ElemType IT = ElemType::I32;

/** The base, VIA and SSR operands: A and B as given. */
SpmmOp
prepare(Machine &m0, const Csr &a, const Csc &b, unsigned regions)
{
    return SpmmOp{a, b, Csr{}, uploadPair(m0, a, b),
                  RowOutput(m0, regions, a.rows(),
                            spmmOutputBound(a, b))};
}

/** The VIA kernel loads whole A rows into the CAM: each must fit. */
SpmmOp
viaPrepare(Machine &m0, const Csr &a, const Csc &b, unsigned regions)
{
    const auto cam_cap = Index(m0.sspm().config().camEntries());
    via_assert(a.maxRowNnz() <= cam_cap,
               "A row exceeds the CAM (", cam_cap, " entries): the "
               "VIA SpMM kernel requires rows to fit (paper "
               "Section IV: highly sparse inputs)");
    return prepare(m0, a, b, regions);
}

void
headSetup(Machine &m, SpmmOp &op, CoreState &, Index)
{
    op.out.storeHead(m, SReg{7});
}

/**
 * Inner-product rows: every (row, column) pair intersects two sorted
 * index lists with a two-pointer merge (Algorithm 3 line 4). With
 * Streamed (SSR) the index heads are popped from streams 0 and 1,
 * re-bound for every pair — the setup cost stream semantics pay on
 * inner-product SpMM. Values are loaded only on a match (a
 * destructive pop cannot skip the mismatching side's value).
 */
template <bool Streamed>
void
innerRows(Machine &m, SpmmOp &op, CoreState &core, Index lo, Index hi)
{
    const Csr &a = op.a;
    const Csc &b = op.b;
    const PairImage &img = op.img;
    RowOutput::Region &c = op.out.regions[core.region];
    SReg s_ka{0}, s_kb{1}, s_ai{2}, s_bi{3}, s_v{4}, s_v2{5},
        s_acc{6}, s_out{7}, s_j{8}, s_r{9};

    // A stream head is popped once per element and held in its
    // register until the merge consumes it.
    auto head = [&](SReg dst, Addr idx, Index k, std::uint32_t s,
                    bool &need) {
        if (!Streamed)
            m.sload(dst, idx + 4 * Addr(k), 4);
        else if (need)
            m.ssrPopS(dst, s);
        need = false;
    };

    for (Index r = lo; r < hi; ++r) {
        const Index row_start = c.used;
        m.sload(s_ka, img.aPtr + 4 * (Addr(r) + 1), 4);
        Index a_lo = a.rowPtr()[std::size_t(r)];
        Index a_hi = a.rowPtr()[std::size_t(r) + 1];
        if (a_lo == a_hi) {
            m.sbranch(s_ka); // empty row: skip all columns
            m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
            op.out.rows[std::size_t(r)] = {core.region, row_start, 0};
            continue;
        }
        for (Index j = 0; j < b.cols(); ++j) {
            m.sload(s_kb, img.bPtr + 4 * (Addr(j) + 1), 4);
            m.sbranch(s_kb);
            Index b_lo = b.colPtr()[std::size_t(j)];
            Index b_hi = b.colPtr()[std::size_t(j) + 1];
            if (b_lo == b_hi)
                continue;

            if (Streamed) {
                m.ssrBindAffine(0, img.aIdx + 4 * Addr(a_lo), IT);
                m.ssrBindAffine(1, img.bIdx + 4 * Addr(b_lo), IT);
            }
            m.salu(s_acc, 0);
            Index ka = a_lo, kb = b_lo;
            bool any = false, need_a = true, need_b = true;
            while (ka < a_hi && kb < b_hi) {
                head(s_ai, img.aIdx, ka, 0, need_a);
                head(s_bi, img.bIdx, kb, 1, need_b);
                m.salu(s_v, 0, s_ai, s_bi); // compare
                Index ca = a.colIdx()[std::size_t(ka)];
                Index cb = b.rowIdx()[std::size_t(kb)];
                // Data-dependent index-matching branches.
                m.sbranchData(s_v, 11, ca == cb);
                if (ca != cb)
                    m.sbranchData(s_v, 12, ca < cb);
                if (ca == cb) {
                    m.sloadF(s_v, img.aVal + 4 * Addr(ka), VT);
                    m.sloadF(s_v2, img.bVal + 4 * Addr(kb), VT);
                    m.sfmul(s_v, s_v, s_v2);
                    m.sfadd(s_acc, s_acc, s_v);
                    m.salu(s_ka, ka + 1, s_ka);
                    m.salu(s_kb, kb + 1, s_kb);
                    ++ka;
                    ++kb;
                    need_a = need_b = any = true;
                } else if (ca < cb) {
                    m.salu(s_ka, ka + 1, s_ka);
                    ++ka;
                    need_a = true;
                } else {
                    m.salu(s_kb, kb + 1, s_kb);
                    ++kb;
                    need_b = true;
                }
            }
            if (any) {
                m.simm(s_v, j);
                m.sstore(c.col + 4 * Addr(c.used), s_v, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_acc, VT);
                m.salu(s_out, c.used + 1, s_out);
                ++c.used;
            }
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        op.out.rows[std::size_t(r)] = {core.region, row_start,
                                       c.used - row_start};
    }
}

void
viaRows(Machine &m, SpmmOp &op, CoreState &core, Index lo, Index hi)
{
    const Csr &a = op.a;
    const Csc &b = op.b;
    const PairImage &img = op.img;
    RowOutput::Region &c = op.out.regions[core.region];
    const int vl = int(m.vl());
    VReg v_col{0}, v_val{1}, v_prod{2}, v_acc{3};
    SReg s_ka{0}, s_kb{1}, s_acc{2}, s_out{7}, s_j{8}, s_r{9},
        s_k{10};

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

        // Figure 4 step 1: the A row's (col -> value) pairs enter
        // the CAM once per row.
        m.vidxClear();
        for (Index k = a_lo; k < a_hi; k += vl) {
            int n = std::min<Index>(vl, a_hi - k);
            m.vload(v_col, img.aIdx + 4 * Addr(k), IT, n);
            m.vload(v_val, img.aVal + 4 * Addr(k), VT, n);
            m.vidxLoadC(v_val, v_col, n);
            m.salu(s_k, k + vl, s_k);
            m.sbranch(s_k);
        }

        for (Index j = 0; j < b.cols(); ++j) {
            m.sload(s_kb, img.bPtr + 4 * (Addr(j) + 1), 4);
            m.sbranch(s_kb);
            Index b_lo = b.colPtr()[std::size_t(j)];
            Index b_hi = b.colPtr()[std::size_t(j) + 1];
            if (b_lo == b_hi)
                continue;

            // Figure 4 steps 2-4: stream the column, match in the
            // CAM, multiply and reduce.
            m.vbroadcastF(v_acc, 0.0);
            bool any = false;
            for (Index k = b_lo; k < b_hi; k += vl) {
                int n = std::min<Index>(vl, b_hi - k);
                m.vload(v_col, img.bIdx + 4 * Addr(k), IT, n);
                m.vload(v_val, img.bVal + 4 * Addr(k), VT, n);
                m.vidxMulC(v_val, v_col, ViaOut::Vrf, v_prod, n);
                m.vaddF(v_acc, v_acc, v_prod, n);
                m.salu(s_k, k + vl, s_k);
                m.sbranch(s_k);
            }
            // Structural-match test mirrors Algorithm 3's k != -1.
            for (Index k = b_lo; k < b_hi && !any; ++k) {
                Index row = b.rowIdx()[std::size_t(k)];
                auto &cols = a.colIdx();
                any = std::binary_search(
                    cols.begin() + a_lo, cols.begin() + a_hi, row);
            }
            m.vredsumF(s_acc, v_acc);
            if (any) {
                m.simm(s_k, j);
                m.sstore(c.col + 4 * Addr(c.used), s_k, 4);
                m.sstoreF(c.val + 4 * Addr(c.used), s_acc, VT);
                m.salu(s_out, c.used + 1, s_out);
                ++c.used;
            }
            m.salu(s_j, j + 1, s_j);
            m.sbranch(s_j);
        }
        m.sstore(c.ptr + 4 * (Addr(r) + 1), s_out, 4);
        m.salu(s_r, r + 1, s_r);
        m.sbranch(s_r);
        op.out.rows[std::size_t(r)] = {core.region, row_start,
                                       c.used - row_start};
    }
}

} // namespace

const SpmmBody &
spmmBody(BackendKind kind)
{
    // Indexed by BackendKind: base, VIA, SSR, IndexMAC.
    static constexpr SpmmBody table[] = {
        {prepare, headSetup, innerRows<false>},
        {viaPrepare, headSetup, viaRows},
        {prepare, headSetup, innerRows<true>},
        {spmmImacPrepare, spmmImacSetup, spmmImacRows},
    };
    return table[std::size_t(kind)];
}

SpmmResult
spmmRun(Cores cores, BackendKind kind, const Csr &a, const Csc &b,
        Partition part)
{
    via_assert(a.cols() == b.rows(), "SpMM shape mismatch");
    Machine &m0 = cores.core(0);
    const SpmmBody &body = spmmBody(kind);
    SpmmOp op = body.prepare(m0, a, b, cores.count());
    runRanges(cores, a.rows(), part, op, body);
    return SpmmResult{op.out.collect(m0, b.cols()), cores.cycles()};
}

SpmmResult
spmmScalarInner(Machine &m, const Csr &a, const Csc &b)
{
    return spmmRun(m, BackendKind::Base, a, b);
}

SpmmResult
spmmViaInner(Machine &m, const Csr &a, const Csc &b)
{
    return spmmRun(m, BackendKind::Via, a, b);
}

PairImage
uploadPair(Machine &m, const Csr &a, const Csc &b)
{
    PairImage img;
    img.aPtr = m.mem().mapArray(a.storage(), a.rowPtr());
    img.aIdx = m.mem().mapArray(a.storage(), a.colIdx());
    img.aVal = m.mem().mapArray(a.storage(), a.values());
    img.bPtr = m.mem().mapArray(b.storage(), b.colPtr());
    img.bIdx = m.mem().mapArray(b.storage(), b.rowIdx());
    img.bVal = m.mem().mapArray(b.storage(), b.values());
    return img;
}

std::size_t
spmmOutputBound(const Csr &a, const Csc &b)
{
    // The historical region size, kept wherever it holds the
    // product so those runs keep their address layout and cycles.
    // It assumed a row of C holds at most nnz(A row) * max col nnz
    // of B entries, but the limit depends on B's row counts.
    const std::size_t cells =
        std::size_t(a.rows()) * std::size_t(b.cols());
    const auto max_col = std::size_t(std::max<Index>(b.maxColNnz(), 1));
    const std::size_t sized = std::min(cells, a.nnz() * max_col + 1);

    // Cheap check first: C has at most sum_k colNnz_A(k) * rowNnz_B(k)
    // entries.
    std::vector<std::size_t> a_col(std::size_t(a.cols()), 0);
    std::vector<std::size_t> b_row(std::size_t(b.rows()), 0);
    for (Index c : a.colIdx())
        ++a_col[std::size_t(c)];
    for (Index r : b.rowIdx())
        ++b_row[std::size_t(r)];
    std::size_t products = 0;
    for (std::size_t k = 0; k < a_col.size(); ++k)
        products += a_col[k] * b_row[k];
    if (std::min(cells, products) <= sized)
        return sized;

    // Otherwise count the product's distinct columns row by row.
    const Csr bt = cscToCsr(b);
    std::vector<Index> seen(std::size_t(b.cols()), -1);
    std::size_t exact = 0;
    for (Index r = 0; r < a.rows(); ++r) {
        for (Index ka = a.rowPtr()[std::size_t(r)];
             ka < a.rowPtr()[std::size_t(r) + 1]; ++ka) {
            const auto k = std::size_t(a.colIdx()[std::size_t(ka)]);
            for (Index kb = bt.rowPtr()[k]; kb < bt.rowPtr()[k + 1];
                 ++kb) {
                Index &mark =
                    seen[std::size_t(bt.colIdx()[std::size_t(kb)])];
                if (mark != r) {
                    mark = r;
                    ++exact;
                }
            }
        }
    }
    return std::max(sized, exact);
}

} // namespace via::kernels
