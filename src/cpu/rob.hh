/**
 * @file
 * Analytic reorder-buffer model.
 *
 * The ROB bounds how far dispatch can run ahead of commit: the i-th
 * instruction cannot dispatch before instruction (i - robSize) has
 * committed. Commit itself is in order and commit-width limited.
 */

#ifndef VIA_CPU_ROB_HH
#define VIA_CPU_ROB_HH

#include <cstdint>
#include <vector>

#include "cpu/fu_pool.hh"
#include "simcore/types.hh"

namespace via
{

/** Ring of per-entry commit ticks plus the in-order commit front. */
class RobModel
{
  public:
    RobModel(std::uint32_t rob_size, std::uint32_t commit_width);

    /**
     * Earliest dispatch tick for the next instruction given ROB
     * occupancy: the commit time of the entry being reused.
     */
    Tick dispatchReady() const;

    /**
     * Commit the next instruction (in order) once it completed at
     * @p complete. Returns the commit tick.
     */
    Tick commit(Tick complete);

    /** Commit tick of the youngest committed instruction. */
    Tick commitFront() const { return _lastCommit; }

    /** Number of instructions pushed so far. */
    SeqNum count() const { return _count; }

    /** ROB capacity (entries). */
    std::size_t size() const { return _ring.size(); }

    /**
     * Entries still occupied at tick @p t: pushed instructions whose
     * commit tick lies in the future. Inspection-only (debugger).
     */
    std::size_t
    occupancyAt(Tick t) const
    {
        std::size_t n = 0;
        const std::size_t live =
            _count < _ring.size() ? std::size_t(_count) : _ring.size();
        for (std::size_t i = 0; i < live; ++i)
            if (_ring[i] > t)
                ++n;
        return n;
    }

    /** Commit bookings moved up to the window base. */
    std::uint64_t commitClamps() const { return _commitPorts.clamps(); }

    /** Reset for a new kernel run. */
    void resetTiming();

    /** Serialize the commit ring (checkpoints). */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState; validates the ROB size. */
    void loadState(Deserializer &des);

  private:
    std::vector<Tick> _ring; //!< commit tick per (seq % robSize)
    Resource _commitPorts;
    Tick _lastCommit = 0;
    SeqNum _count = 0;
};

} // namespace via

#endif // VIA_CPU_ROB_HH
