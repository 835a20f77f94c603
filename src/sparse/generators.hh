/**
 * @file
 * Synthetic sparse-matrix generators.
 *
 * These stand in for the University of Florida collection (see
 * DESIGN.md): each family mirrors a structural class that dominates
 * real applications — banded FEM/stencil operators, block-clustered
 * engineering matrices, power-law graphs, and unstructured random
 * matrices. All generators are deterministic given the Rng.
 */

#ifndef VIA_SPARSE_GENERATORS_HH
#define VIA_SPARSE_GENERATORS_HH

#include "simcore/rng.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"

namespace via
{

/**
 * Band matrix: non-zeros only within `bandwidth` of the diagonal,
 * present with probability `fill`. Models FEM/stencil operators.
 */
Csr genBanded(Index n, Index bandwidth, double fill, Rng &rng);

/** Uniformly random: each position non-zero with prob `density`. */
Csr genUniform(Index rows, Index cols, double density, Rng &rng);

/**
 * RMAT-style power-law graph adjacency matrix (a=0.57, b=c=0.19),
 * the structure of social/web graphs. Duplicate edges merge.
 */
Csr genRmat(Index n, std::size_t nnz_target, Rng &rng);

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
 */
Csr genDiagHeavy(Index n, double off_diag, Rng &rng);

/** Assign a uniform random value in [-1,1) to every element. */
void randomizeValues(Coo &coo, Rng &rng);

// --- streaming variants (million-row inputs) ---------------------
//
// The Coo-based generators above hold every triplet plus a global
// canonicalize sort — fine at paper scale (<= 20k rows), wasteful
// at 10^6+. These emit CSR storage directly with no intermediate
// triplet set and no dense structures.

/**
 * genBanded emitting CSR directly. The row-major in-band walk
 * already produces sorted, duplicate-free entries, and the random
 * stream is consumed in exactly genBanded's order, so the result is
 * bit-identical to genBanded for the same Rng state.
 */
Csr genBandedCsr(Index n, Index bandwidth, double fill, Rng &rng);

/**
 * genRmat emitting CSR directly: two passes over a replayed random
 * stream, then a per-row sort + duplicate merge. Pass one counts
 * per-row edges on a copy of @p rng and computes only each edge's
 * row; pass two draws whole edges on @p rng and places them. Both
 * passes draw blocks of edges before touching the per-row arrays,
 * so the scattered accesses of a block overlap in the cache.
 *
 * Both RMAT generators share one branch-free descent: each level
 * compares the raw 53-bit draw against the quadrant thresholds
 * scaled by 2^53, which decides exactly as comparing uniform()
 * does, so the draws and the Rng end state are those of a per-level
 * if/else descent. The rows then go through Csr::fromRows, which
 * sorts each one stably and sums duplicates in draw order. @p rng
 * ends in the same state as after genRmat and the structure
 * (row_ptr / col_idx) matches genRmat exactly; values match except
 * that 3+-way duplicate edges
 * may sum in a different association order than
 * Coo::canonicalize's global unstable sort (allClose, not
 * bit-equal). Golden hashes in tests/test_debug.cc pin the output
 * and end state of both generators bit for bit. Peak memory is
 * O(n + nnz_target), with no global triplet sort.
 */
Csr genRmatCsr(Index n, std::size_t nnz_target, Rng &rng);

} // namespace via

#endif // VIA_SPARSE_GENERATORS_HH
