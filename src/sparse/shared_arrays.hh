/**
 * @file
 * The immutable arrays of a sparse format, shared by its copies.
 *
 * A format builds its arrays once and never changes them. Keeping
 * them behind one shared pointer makes a copy of the format share
 * them, and lets a simulated memory map them in place instead of
 * copying them (BackingStore::mapArray): each mapped page holds
 * owner(), so an image outlives the format that built it.
 */

#ifndef VIA_SPARSE_SHARED_ARRAYS_HH
#define VIA_SPARSE_SHARED_ARRAYS_HH

#include <memory>
#include <utility>

namespace via
{

/** A frozen @p A (a struct of std::vectors), shared on copy. */
template <typename A>
class SharedArrays
{
  public:
    /** No arrays: reads as a default-constructed, empty A. */
    SharedArrays() = default;

    /** Freeze @p arrays; they are never written again. */
    explicit SharedArrays(A arrays)
        : _p(std::make_shared<const A>(std::move(arrays)))
    {}

    /** The arrays; empty ones when default-constructed or moved from. */
    const A &
    operator*() const
    {
        static const A empty{};
        return _p ? *_p : empty;
    }

    const A *operator->() const { return &**this; }

    /** Keeps the arrays alive; null when there are none. */
    std::shared_ptr<const void> owner() const { return _p; }

  private:
    std::shared_ptr<const A> _p;
};

} // namespace via

#endif // VIA_SPARSE_SHARED_ARRAYS_HH
