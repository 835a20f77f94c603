/**
 * @file
 * Bandwidth-limited resources for the list-scheduling core model.
 *
 * A Resource with k units and occupancy 1 models a structure that
 * accepts k operations per cycle (an issue port group, a cache port,
 * a pipelined FU). acquire() greedily grabs the earliest free unit
 * at or after the requested tick, which is exactly the greedy list
 * scheduler used by tools like llvm-mca.
 */

#ifndef VIA_CPU_FU_POOL_HH
#define VIA_CPU_FU_POOL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/opcodes.hh"
#include "simcore/resource.hh"
#include "simcore/types.hh"

namespace via
{

struct CoreParams;
class Serializer;
class Deserializer;

/** One Resource per core functional-unit class, IntAlu through
 *  StorePort. FuClass::None has none, and VIA instructions book the
 *  FIVU's own ports (via/fivu.hh) through the vector backend. */
class FuPool
{
  public:
    explicit FuPool(const CoreParams &params);

    Resource &forClass(FuClass cls);

    void resetTiming();

    /** Bookings every class resource moved up to its window base. */
    std::uint64_t clamps() const;

    /** Serialize every class resource (checkpoints). */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState. */
    void loadState(Deserializer &des);

  private:
    /** Class c's resource sits at c - 1. */
    std::array<Resource, std::size_t(FuClass::StorePort)> _resources;
};

} // namespace via

#endif // VIA_CPU_FU_POOL_HH
