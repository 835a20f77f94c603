/**
 * @file
 * Shared helpers for the kernel implementations: uploading host
 * arrays into simulated memory and reading results back.
 */

#ifndef VIA_KERNELS_KERNEL_UTILS_HH
#define VIA_KERNELS_KERNEL_UTILS_HH

#include <vector>

#include "cpu/machine.hh"
#include "sparse/dense.hh"
#include "sparse/sparse_types.hh"

namespace via::kernels
{

/**
 * Copy a plain host array (x, histogram keys, a stencil image) into
 * simulated memory; returns its base. A sparse format's arrays are
 * mapped instead (BackingStore::mapArray with the format's storage()).
 */
template <typename T>
Addr
upload(Machine &m, const std::vector<T> &host)
{
    return m.mem().allocArray(host);
}

/** Read a Value array back from simulated memory. */
inline DenseVector
downloadValues(const Machine &m, Addr base, std::size_t count)
{
    return m.mem().readArray<Value>(base, count);
}

/** Read an Index array back from simulated memory. */
inline std::vector<Index>
downloadIndices(const Machine &m, Addr base, std::size_t count)
{
    return m.mem().readArray<Index>(base, count);
}

/** Allocate a zero-filled Value array of @p count elements. */
inline Addr
allocValues(Machine &m, std::size_t count)
{
    return m.mem().alloc(count * sizeof(Value));
}

} // namespace via::kernels

#endif // VIA_KERNELS_KERNEL_UTILS_HH
