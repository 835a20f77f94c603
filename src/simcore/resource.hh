/**
 * @file
 * A bandwidth resource booked per cycle on a sliding window.
 */

#ifndef VIA_SIMCORE_RESOURCE_HH
#define VIA_SIMCORE_RESOURCE_HH

#include <cstdint>
#include <vector>

#include "simcore/types.hh"

namespace via
{

class Serializer;
class Deserializer;

/**
 * k operations per cycle, booked on a sliding window of cycles.
 *
 * Unlike a "k units with next-free times" model, per-cycle booking
 * has no head-of-line blocking: an instruction whose operands are
 * ready far in the future books a future cycle without starving
 * younger, already-ready instructions — exactly how issue ports and
 * cache ports behave in an out-of-order core.
 *
 * Bookings before the window base (older than any live instruction's
 * dispatch tick) cannot occur on a single core because dispatch is
 * monotone; the window slides forward accordingly. A booking that
 * asks for such a cycle anyway is moved up to the base and counted
 * (clamps()).
 *
 * The window is allocated by the first booking, so a resource that
 * is never booked costs no window memory.
 */
class Resource
{
  public:
    explicit Resource(std::uint32_t units = 1);

    /**
     * Book @p occupancy consecutive cycles with spare capacity at or
     * after @p when.
     *
     * The single-cycle booking (nearly every call on the
     * per-instruction path) is inlined: one bounds check, one
     * window-slide check, then a scan that almost always stops on
     * its first probe.
     *
     * @return the first booked cycle
     */
    Tick
    acquire(Tick when, Tick occupancy = 1)
    {
        if (occupancy == 1) [[likely]] {
            if (when < _base) [[unlikely]] {
                when = _base;
                ++_clamps;
            }
            maybeSlide(when + 1);
            std::size_t idx = std::size_t(when) & (windowSize - 1);
            while (_counts[idx] >= _units) [[unlikely]] {
                ++when;
                idx = (idx + 1) & (windowSize - 1);
                maybeSlide(when + 1);
            }
            ++_counts[idx];
            ++_busy;
            if (when + 1 > _horizon)
                _horizon = when + 1;
            return when;
        }
        return acquireSlow(when, occupancy);
    }

    /**
     * Book a run of @p n single cycles, element e at or after
     * when + e / perCycle: the same cycles as n calls of
     * acquire(when + e / perCycle), in one scan. A cycle an earlier
     * element found full stays full, so element e resumes at the
     * later of its own start and the cycle element e-1 booked.
     *
     * @return the cycle the last element booked
     */
    Tick acquireRun(Tick when, std::uint32_t n,
                    std::uint32_t perCycle);

    /** Release all bookings (new kernel run). */
    void resetTiming();

    std::uint32_t units() const { return _units; }

    /** Total busy slot-cycles accumulated (utilization statistic). */
    std::uint64_t busy() const { return _busy; }

    /**
     * One past the latest cycle ever booked (0 if none). Reset by
     * resetTiming, unlike busy(); busy-vs-horizon reconciliation must
     * therefore be skipped across timing resets.
     */
    Tick horizon() const { return _horizon; }

    /**
     * Bookings asked for a cycle behind the window base and moved up
     * to it, which delays them. Never reset or checkpointed: the
     * invariant checker requires it to stay 0 on a single core.
     */
    std::uint64_t clamps() const { return _clamps; }

    /** Serialize booking state (checkpoints). */
    void saveState(Serializer &ser) const;
    /**
     * Restore state saved by saveState. Throws SerializeError on a
     * unit count mismatch, or on a live slice that the record's base
     * and horizon contradict.
     */
    void loadState(Deserializer &des);

  private:
    /** Cycles tracked by the sliding window (a power of two). */
    static constexpr std::size_t windowSize = 1 << 16;

    /** Cycles of the window a checkpoint record stores. */
    static Tick liveSlice(Tick base, Tick horizon);

    std::uint16_t &slot(Tick t);

    /**
     * Slide check, inline; the slide itself is rare and cold. Before
     * the first booking _end is 0, so that booking lands in slide(),
     * which allocates the window.
     */
    void
    maybeSlide(Tick t)
    {
        if (t >= _end) [[unlikely]]
            slide(t);
    }

    void slide(Tick when);
    /** Move the window to @p base, keeping _end in step. */
    void setBase(Tick base);
    Tick acquireSlow(Tick when, Tick occupancy);

    std::uint32_t _units = 1;
    std::vector<std::uint16_t> _counts; //!< empty until first booked
    Tick _base = 0; //!< first cycle represented by the window
    Tick _end = 0;  //!< _base + windowSize once allocated, else 0
    std::uint64_t _busy = 0;
    Tick _horizon = 0; //!< one past the latest booked cycle
    std::uint64_t _clamps = 0;
};


} // namespace via

#endif // VIA_SIMCORE_RESOURCE_HH
