/**
 * @file
 * Synthetic sparse-matrix generators.
 *
 * These stand in for the University of Florida collection (see
 * DESIGN.md): each family mirrors a structural class that dominates
 * real applications — banded FEM/stencil operators, block-clustered
 * engineering matrices, power-law graphs, and unstructured random
 * matrices. All generators are deterministic given the Rng. The
 * banded, RMAT and uniform generators emit CSR arrays directly; the
 * blocked and diagonal-heavy ones collect their entries in a Coo for
 * Csr::fromCoo. Either way a position drawn more than once holds the
 * sum of its draws, added in draw order by Csr::fromRows.
 */

#ifndef VIA_SPARSE_GENERATORS_HH
#define VIA_SPARSE_GENERATORS_HH

#include "simcore/rng.hh"
#include "sparse/csr.hh"

namespace via
{

/**
 * Band matrix: non-zeros only within `bandwidth` of the diagonal,
 * present with probability `fill`; the diagonal is always present.
 * Models FEM/stencil operators. The row-major band walk produces
 * sorted, duplicate-free rows, so CSR storage is emitted directly
 * with no intermediate triplet set.
 */
Csr genBandedCsr(Index n, Index bandwidth, double fill, Rng &rng);

/**
 * Uniformly random: each position non-zero with probability
 * @p density; 0 gives the empty matrix and leaves @p rng untouched.
 * A rows * cols * density above the 32-bit index range is fatal.
 *
 * Positions come from exponential gaps over the row-major linear
 * index space. Iteration i draws its gap (draw 2i) and, while the gap
 * sum stays below rows * cols, its value (draw 2i + 1), so n entries
 * leave @p rng 2n + 1 draws on. The draws are cut into contiguous
 * segments, one per CPU this process may run on and at most one per
 * 2^16 target entries, each drawn on its own thread from an exact
 * jump of @p rng (Rng::discard). One thread sums the gaps in draw
 * order, as a serial loop would, and the segments then write the
 * columns, row starts and values directly, with no triplet list.
 * Entries arrive row-major with the draws on one position adjacent
 * and in draw order, and Csr::fromRows sums them in that order.
 * Golden hashes in tests/test_debug.cc pin the output and the Rng
 * end state bit for bit at every segment count. Peak memory is 16
 * bytes per draw.
 */
Csr genUniform(Index rows, Index cols, double density, Rng &rng);

/** genUniform with @p segments segments (tests): same output. */
Csr genUniform(Index rows, Index cols, double density, Rng &rng,
               unsigned segments);

/**
 * RMAT-style power-law graph adjacency matrix (a=0.57, b=c=0.19,
 * d=0.05) with @p nnz_target edge draws on a power-of-two @p n, the
 * structure of social/web graphs. Duplicate edges merge. A target
 * above the 32-bit index range is fatal.
 *
 * The edge stream is cut into contiguous segments, one per CPU this
 * process may run on, at most one per 2^16 edges, and at most
 * 2 ceil(nnz_target / n) so the per-segment cursors stay within
 * about the output arrays. Each segment starts from an exact jump of
 * @p rng to its first edge (Rng::discard) and runs on its own
 * thread. A count pass tallies its rows into its own cursor array;
 * a prefix over rows gives segment k's part of row r the slots after
 * segments 0..k-1; a place pass redraws the edges and places them.
 * Every row thus holds its edges in draw order, and one segment is
 * the plain two-pass algorithm. Each edge descends one quadrant per
 * level without data-dependent branches: the raw 53-bit draw is
 * compared against the quadrant thresholds scaled by 2^53, which
 * decides exactly as comparing uniform() does. The rows then go
 * through Csr::fromRows, which sorts each one stably and sums
 * duplicates in draw order. @p rng ends where the whole stream does.
 * Golden hashes in tests/test_debug.cc pin the output and the Rng
 * end state bit for bit, and the output is the same at every segment
 * count. Peak memory is O(segments n + nnz_target), with no global
 * triplet sort.
 */
Csr genRmatCsr(Index n, std::size_t nnz_target, Rng &rng);

/** genRmatCsr with @p segments segments (tests): same output. */
Csr genRmatCsr(Index n, std::size_t nnz_target, Rng &rng,
               unsigned segments);

/**
 * Block-clustered: a grid of `blockSide` blocks where each block is
 * dense-ish (`innerFill`) with probability `blockFill`, else empty.
 * Models multiphysics/circuit matrices with natural sub-blocks.
 */
Csr genBlocked(Index n, Index block_side, double block_fill,
               double inner_fill, Rng &rng);

/**
 * Diagonally dominant with a few random off-diagonals per row
 * (Poisson-like mean `off_diag`). Models iterative-solver inputs.
 * A bound of n (floor(off_diag) + 2) entries above the 32-bit index
 * range is fatal.
 */
Csr genDiagHeavy(Index n, double off_diag, Rng &rng);

} // namespace via

#endif // VIA_SPARSE_GENERATORS_HH
