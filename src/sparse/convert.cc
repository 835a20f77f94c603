#include "sparse/convert.hh"

#include <cmath>
#include <map>

#include "simcore/log.hh"

namespace via
{

Csr
csbToCsr(const Csb &m)
{
    // Blocks run left to right within a block row and each keeps its
    // elements row-major, so a row's elements arrive in column order
    // and a count-and-scatter by row needs no sort.
    const auto &block_ptr = m.blockPtr();
    const auto &packed = m.packedIdx();
    const Index bcols = m.blockCols();
    const Index mask = m.beta() - 1;
    auto each_entry = [&](auto &&fn) {
        for (std::int64_t b = 0; b < m.numBlocks(); ++b) {
            const Index base_row = Index(b / bcols) * m.beta();
            const Index base_col = Index(b % bcols) * m.beta();
            for (Index k = block_ptr[std::size_t(b)];
                 k < block_ptr[std::size_t(b) + 1]; ++k) {
                const Index p = packed[std::size_t(k)];
                fn(base_row + (p >> m.colBits()), base_col + (p & mask),
                   std::size_t(k));
            }
        }
    };

    std::vector<Index> row_ptr(std::size_t(m.rows()) + 1, 0);
    each_entry([&](Index r, Index, std::size_t) {
        ++row_ptr[std::size_t(r) + 1];
    });
    for (std::size_t r = 1; r < row_ptr.size(); ++r)
        row_ptr[r] += row_ptr[r - 1];
    std::vector<Index> next(row_ptr.begin(), row_ptr.end() - 1);
    std::vector<Index> col_idx(m.nnz());
    std::vector<Value> values(m.nnz());
    each_entry([&](Index r, Index c, std::size_t k) {
        const auto slot = std::size_t(next[std::size_t(r)]++);
        col_idx[slot] = c;
        values[slot] = m.values()[k];
    });
    return Csr::fromParts(m.rows(), m.cols(), std::move(row_ptr),
                          std::move(col_idx), std::move(values));
}

Csr
cscToCsr(const Csc &m)
{
    std::vector<Index> row_ptr, col_idx;
    std::vector<Value> values;
    transposeCompressed(m.rows(), m.colPtr(), m.rowIdx(), m.values(),
                        row_ptr, col_idx, values);
    return Csr::fromParts(m.rows(), m.cols(), std::move(row_ptr),
                          std::move(col_idx), std::move(values));
}

bool
sameElements(const Csr &a, const Csr &b)
{
    return a == b; // CSR is canonical already
}

bool
closeElements(const Csr &a, const Csr &b, double atol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.rowPtr() != b.rowPtr() || a.colIdx() != b.colIdx())
        return false;
    for (std::size_t i = 0; i < a.values().size(); ++i)
        if (std::abs(double(a.values()[i]) -
                     double(b.values()[i])) > atol)
            return false;
    return true;
}

Csr
addCsr(const Csr &a, const Csr &b)
{
    via_assert(a.rows() == b.rows() && a.cols() == b.cols(),
               "SpMA shape mismatch");
    // Concatenate each row (A's entries, then B's) and let the row
    // canonicalizer sort it and sum the columns both hold.
    std::vector<Index> row_ptr(std::size_t(a.rows()) + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    col_idx.reserve(a.nnz() + b.nnz());
    values.reserve(a.nnz() + b.nnz());
    for (Index r = 0; r < a.rows(); ++r) {
        for (const Csr *m : {&a, &b}) {
            const auto lo = std::size_t(m->rowPtr()[std::size_t(r)]);
            const auto hi =
                std::size_t(m->rowPtr()[std::size_t(r) + 1]);
            col_idx.insert(col_idx.end(), m->colIdx().begin() + lo,
                           m->colIdx().begin() + hi);
            values.insert(values.end(), m->values().begin() + lo,
                          m->values().begin() + hi);
        }
        row_ptr[std::size_t(r) + 1] = Index(col_idx.size());
    }
    return Csr::fromRows(a.rows(), a.cols(), std::move(row_ptr),
                         std::move(col_idx), std::move(values));
}

Csr
mulCsr(const Csr &a, const Csr &b)
{
    via_assert(a.cols() == b.rows(), "SpMM shape mismatch: ",
               a.cols(), " inner vs ", b.rows());
    const auto &apos = a.rowPtr();
    const auto &acol = a.colIdx();
    const auto &aval = a.values();
    const auto &bpos = b.rowPtr();
    const auto &bcol = b.colIdx();
    const auto &bval = b.values();

    // Row-by-row accumulation with a sorted map keeps the golden
    // kernel simple and exact in double precision; each row leaves
    // the map sorted, so it is appended as it is.
    std::vector<Index> row_ptr(std::size_t(a.rows()) + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    for (Index r = 0; r < a.rows(); ++r) {
        std::map<Index, double> acc;
        for (Index ka = apos[std::size_t(r)];
             ka < apos[std::size_t(r) + 1]; ++ka) {
            Index inner = acol[std::size_t(ka)];
            double av = aval[std::size_t(ka)];
            for (Index kb = bpos[std::size_t(inner)];
                 kb < bpos[std::size_t(inner) + 1]; ++kb) {
                acc[bcol[std::size_t(kb)]] +=
                    av * double(bval[std::size_t(kb)]);
            }
        }
        for (const auto &kv : acc) {
            col_idx.push_back(kv.first);
            values.push_back(Value(kv.second));
        }
        row_ptr[std::size_t(r) + 1] = Index(col_idx.size());
    }
    return Csr::fromParts(a.rows(), b.cols(), std::move(row_ptr),
                          std::move(col_idx), std::move(values));
}

} // namespace via
