#include "sparse/mm_io.hh"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "simcore/log.hh"

namespace via
{

namespace
{

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return char(std::tolower(c));
    });
    return s;
}

/** The parsed banner + size line of a coordinate .mtx stream. */
struct MmHeader
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::int64_t entries = 0;
    bool pattern = false;
    bool symmetric = false;
};

/**
 * Parse banner, comments, and size line, leaving @p in positioned
 * at the first entry line.
 */
MmHeader
parseMmHeader(std::istream &in, const std::string &what)
{
    std::string line;
    if (!std::getline(in, line))
        via_fatal(what, ": empty Matrix Market input");

    std::istringstream header(line);
    std::string banner, object, format, field, symmetry;
    header >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket")
        via_fatal(what, ": missing %%MatrixMarket banner");
    object = lower(object);
    format = lower(format);
    field = lower(field);
    symmetry = lower(symmetry);
    if (object != "matrix" || format != "coordinate")
        via_fatal(what, ": only coordinate matrices are supported");
    if (field != "real" && field != "integer" && field != "pattern")
        via_fatal(what, ": unsupported field '", field, "'");
    if (symmetry != "general" && symmetry != "symmetric")
        via_fatal(what, ": unsupported symmetry '", symmetry, "'");

    // Skip comments.
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '%')
            break;
    }
    // Size-line counters are explicitly 64-bit: `long` is 32 bits
    // on LLP64 platforms, where a billion-edge graph's entry count
    // would silently wrap negative and fail the check below.
    std::istringstream sizes(line);
    MmHeader h;
    sizes >> h.rows >> h.cols >> h.entries;
    if (h.rows <= 0 || h.cols <= 0 || h.entries < 0)
        via_fatal(what, ": bad size line '", line, "'");
    if (h.rows > std::numeric_limits<Index>::max() ||
        h.cols > std::numeric_limits<Index>::max())
        via_fatal(what, ": matrix dimensions ", h.rows, "x", h.cols,
                  " exceed the 32-bit simulated index type");
    h.pattern = field == "pattern";
    h.symmetric = symmetry == "symmetric";
    // A symmetric entry (r, c) is also stored at (c, r), which is
    // only in bounds for a square matrix.
    if (h.symmetric && h.rows != h.cols)
        via_fatal(what, ": symmetric matrix must be square, not ",
                  h.rows, "x", h.cols);
    // CSR offsets are Index, and a symmetric line can store two
    // entries.
    if (h.entries >
        std::numeric_limits<Index>::max() / (h.symmetric ? 2 : 1))
        via_fatal(what, ": ", h.entries, " entries exceed the 32-bit "
                  "simulated index type");
    return h;
}

/**
 * Parse one entry line; false for comment/blank lines. @p v, if not
 * null, receives the value (1.0 for a pattern matrix); the count
 * pass leaves it out, as parsing a double costs more than the two
 * indices. @p ls is reused from line to line, since constructing a
 * stream costs more than parsing one line with it.
 */
bool
parseEntry(std::istringstream &ls, const std::string &line,
           const MmHeader &h, const std::string &what, std::int64_t &r,
           std::int64_t &c, double *v)
{
    if (line.empty() || line[0] == '%')
        return false;
    ls.clear();
    ls.str(line);
    r = 0;
    c = 0;
    ls >> r >> c;
    if (v) {
        *v = 1.0;
        if (!h.pattern)
            ls >> *v;
    }
    if (ls.fail() || r < 1 || r > h.rows || c < 1 || c > h.cols)
        via_fatal(what, ": bad entry line '", line, "'");
    return true;
}

/** Read the header again and compare it with pass one's. */
void
rereadHeader(std::istream &in, std::istream::pos_type start,
             const MmHeader &h, const std::string &what)
{
    in.clear();
    in.seekg(start);
    if (!in)
        via_fatal(what, ": cannot rewind the input for its second "
                  "pass");
    const MmHeader h2 = parseMmHeader(in, what);
    if (h2.rows != h.rows || h2.cols != h.cols ||
        h2.entries != h.entries || h2.pattern != h.pattern ||
        h2.symmetric != h.symmetric)
        via_fatal(what, ": input changed between passes");
}

/**
 * The two passes over a stream that can seek; @p start is its
 * position at the banner.
 */
Csr
readTwoPass(std::istream &in, std::istream::pos_type start,
            const std::string &what)
{
    // Pass 1: count entries per row (symmetric mirrors included).
    const MmHeader h = parseMmHeader(in, what);
    const auto n_rows = std::size_t(h.rows);
    std::vector<Index> row_ptr(n_rows + 1, 0);
    std::string line;
    std::istringstream ls;
    auto forEachEntry = [&](bool values, auto &&visit) {
        for (std::int64_t e = 0; e < h.entries; ++e) {
            if (!std::getline(in, line))
                via_fatal(what, ": truncated after ", e, " of ",
                          h.entries, " entries");
            std::int64_t r = 0, c = 0;
            double v = 1.0;
            if (!parseEntry(ls, line, h, what, r, c,
                            values ? &v : nullptr)) {
                --e;
                continue;
            }
            visit(r - 1, c - 1, v);
            if (h.symmetric && r != c)
                visit(c - 1, r - 1, v);
        }
    };
    forEachEntry(false, [&](std::int64_t r, std::int64_t, double) {
        ++row_ptr[std::size_t(r) + 1];
    });
    for (std::size_t r = 0; r < n_rows; ++r)
        row_ptr[r + 1] += row_ptr[r];
    const auto total = std::size_t(row_ptr[n_rows]);

    // Pass 2: place entries into their rows' segments in file order.
    // A malformed value is found here, as pass 1 skips values.
    rereadHeader(in, start, h, what);
    std::vector<Index> col_idx(total);
    std::vector<Value> values(total);
    std::vector<Index> next(row_ptr.begin(), row_ptr.end() - 1);
    std::size_t placed = 0;
    forEachEntry(true, [&](std::int64_t r, std::int64_t c, double v) {
        const auto row = std::size_t(r);
        if (next[row] == row_ptr[row + 1])
            via_fatal(what, ": input changed between passes");
        const auto slot = std::size_t(next[row]++);
        col_idx[slot] = Index(c);
        values[slot] = Value(v);
        ++placed;
    });
    if (placed != total)
        via_fatal(what, ": input changed between passes");

    // Duplicates sum in file order; exact zeros are kept.
    return Csr::fromRows(Index(h.rows), Index(h.cols),
                         std::move(row_ptr), std::move(col_idx),
                         std::move(values));
}

} // namespace

Csr
readMatrixMarketStream(std::istream &in, const std::string &what)
{
    const auto start = in.tellg();
    if (start != std::istream::pos_type(-1))
        return readTwoPass(in, start, what);
    // A pipe cannot be rewound for pass two: read the rest of it into
    // memory, which can. The copy starts good whatever state @p in
    // was in, so an empty pipe reads as empty input.
    std::istringstream copy(
        std::string(std::istreambuf_iterator<char>(in.rdbuf()), {}));
    return readTwoPass(copy, copy.tellg(), what);
}

Csr
readMatrixMarket(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        via_fatal("cannot open '", path, "'");
    return readMatrixMarketStream(in, path);
}

void
writeMatrixMarket(const Csr &matrix, std::ostream &out)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << "% written by the VIA reproduction library\n";
    out << matrix.rows() << ' ' << matrix.cols() << ' '
        << matrix.nnz() << '\n';
    const auto &row_ptr = matrix.rowPtr();
    const auto &col_idx = matrix.colIdx();
    const auto &values = matrix.values();
    for (Index r = 0; r < matrix.rows(); ++r)
        for (Index k = row_ptr[std::size_t(r)];
             k < row_ptr[std::size_t(r) + 1]; ++k)
            out << (r + 1) << ' ' << (col_idx[std::size_t(k)] + 1)
                << ' ' << values[std::size_t(k)] << '\n';
}

void
writeMatrixMarket(const Csr &matrix, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        via_fatal("cannot open '", path, "' for writing");
    writeMatrixMarket(matrix, out);
}

} // namespace via
