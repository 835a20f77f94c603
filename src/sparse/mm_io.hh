/**
 * @file
 * Matrix Market I/O so the real University of Florida collection can
 * be dropped in place of the synthetic corpus.
 *
 * Supported: `%%MatrixMarket matrix coordinate (real|integer|pattern)
 * (general|symmetric)`. Pattern entries read as 1.0; symmetric
 * matrices must be square and are expanded to general on load.
 */

#ifndef VIA_SPARSE_MM_IO_HH
#define VIA_SPARSE_MM_IO_HH

#include <iosfwd>
#include <string>

#include "sparse/csr.hh"

namespace via
{

/**
 * Parse a Matrix Market stream; fatal() on malformed input. The
 * reader makes two passes: pass one counts entries per row, then it
 * rewinds @p in and pass two places each entry into its row's
 * segment of pre-sized CSR arrays. Csr::fromRows then sorts each row
 * and sums duplicates in file order. Peak memory is the final CSR
 * plus one counter per row: no triplet set and no global sort, so
 * 10^6+-row files stay tractable. A stream that cannot seek (a
 * pipe) is first read into memory.
 */
Csr readMatrixMarketStream(std::istream &in,
                           const std::string &what = "<stream>");

/** Read a .mtx file (readMatrixMarketStream on the opened file). */
Csr readMatrixMarket(const std::string &path);

/** Write coordinate/real/general .mtx. */
void writeMatrixMarket(const Csr &matrix, std::ostream &out);
void writeMatrixMarket(const Csr &matrix, const std::string &path);

} // namespace via

#endif // VIA_SPARSE_MM_IO_HH
