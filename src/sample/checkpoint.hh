/**
 * @file
 * Machine checkpoints: capture, restore, disk round-trip.
 *
 * A checkpoint is a versioned binary image of the complete machine
 * state after a drain point: architectural memory (backing-store
 * pages and the allocator brk), register files, cache tags/LRU/dirty
 * bits and in-flight bookings, the DRAM pipe, SSPM contents with the
 * CAM index table, the core's schedule state and branch predictor,
 * all statistics, and optionally one RNG stream.
 *
 * Restoring the brk alongside the pages means allocations performed
 * after a restore land at the same simulated addresses as in the
 * original run — which is what makes "restore, then re-run kernel B"
 * bit-identical to "run kernel A, then kernel B" (tests/test_sample).
 *
 * The in-memory image is a flat byte vector that restore() only
 * reads, so one warm image serves every sweep point that restores
 * it, from any thread; writeFile/readFile provide the disk
 * round-trip. Any mismatch — wrong magic, newer version, truncated
 * file, different machine geometry — throws SerializeError instead
 * of restoring garbage.
 */

#ifndef VIA_SAMPLE_CHECKPOINT_HH
#define VIA_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/rng.hh"

namespace via
{

class Machine;

namespace sample
{

/** A complete machine state image (see file comment). */
class Checkpoint
{
  public:
    /** 'VIAC' little-endian. */
    static constexpr std::uint64_t MAGIC = 0x43414956;
    /** 2: the FU pool saves no window for FuClass::None and none
     *  for the deleted integer-multiply class. 3: none for
     *  FuClass::Fivu, which no instruction books there. 4: every
     *  field after the header takes its own width, not 8 bytes (a
     *  resource slot 2, an element type 1); the header keeps three
     *  8-byte words, so an older image fails on its version. */
    static constexpr std::uint64_t VERSION = 4;

    Checkpoint() = default;

    /**
     * Capture @p m (and optionally the driver's RNG stream, so a
     * restored run draws the same random numbers). Throws
     * SerializeError for a core of a multi-core machine.
     */
    static Checkpoint capture(const Machine &m,
                              const Rng *rng = nullptr);

    /**
     * Restore into @p m, which must be configured identically to
     * the captured machine. @p rng receives the captured stream
     * state when one was saved (ignored otherwise). Throws
     * SerializeError on any mismatch; the machine may be partially
     * restored after a throw and must be discarded (its teardown
     * skips the invariant check, Machine::loadState).
     */
    void restore(Machine &m, Rng *rng = nullptr) const;

    /** The raw image, header included. */
    const std::vector<std::uint8_t> &bytes() const { return _bytes; }

    /** Write the image to disk; throws SerializeError on IO error. */
    void writeFile(const std::string &path) const;

    /**
     * Read an image from disk. Header validation (magic, version)
     * happens here; geometry validation happens on restore().
     */
    static Checkpoint readFile(const std::string &path);

    /** Wrap an existing byte image (tests). */
    static Checkpoint fromBytes(std::vector<std::uint8_t> bytes);

  private:
    std::vector<std::uint8_t> _bytes;
};

} // namespace sample
} // namespace via

#endif // VIA_SAMPLE_CHECKPOINT_HH
