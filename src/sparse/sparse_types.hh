/**
 * @file
 * Element types shared by all sparse formats.
 *
 * Values are 32-bit floats: the SSPM stores 4-byte blocks (paper
 * Section IV-A) and the AVX2-like vector unit then works with 8
 * lanes. Indices are 32-bit, which covers the paper's input set
 * (matrices up to 20k rows).
 *
 * Index is part of the *simulated* memory layout — kernels map
 * these arrays byte for byte into the machine's backing store — so
 * it must stay 32 bits for the stats fingerprints to hold. Host-side
 * arithmetic whose result scales with the matrix (block-grid sizes,
 * Matrix Market entry counts) is carried in std::int64_t instead;
 * per-array element counts are bounded by nnz < 2^31.
 */

#ifndef VIA_SPARSE_SPARSE_TYPES_HH
#define VIA_SPARSE_SPARSE_TYPES_HH

#include <cstdint>

namespace via
{

/** Matrix value type. */
using Value = float;

/** Row/column index type. */
using Index = std::int32_t;

} // namespace via

#endif // VIA_SPARSE_SPARSE_TYPES_HH
