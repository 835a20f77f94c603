/**
 * @file
 * Machine checkpoints: capture, restore, clone, disk round-trip.
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
 * The in-memory image is a flat byte vector, so cloning a warm
 * checkpoint for every sweep point is a memcpy; writeFile/readFile
 * provide the disk round-trip. Any mismatch — wrong magic, newer
 * version, truncated file, different machine geometry — throws
 * SerializeError instead of restoring garbage.
 */

#ifndef VIA_SAMPLE_CHECKPOINT_HH
#define VIA_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
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
    static constexpr std::uint64_t VERSION = 1;

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
     * restored after a throw and must be discarded.
     */
    void restore(Machine &m, Rng *rng = nullptr) const;

    /** Cheap in-memory copy (one warm image per sweep point). */
    Checkpoint clone() const { return *this; }

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

/**
 * An in-memory cache of checkpoint images keyed by name.
 *
 * The serving executor restores a warm matrix image once per batch;
 * without a cache every restore re-reads and re-validates the image
 * from disk. get() reads the file on the first miss and serves every
 * later request from memory, so a per-batch restore costs one
 * memcpy-clone. put() registers an image captured in-process under a
 * caller-chosen key (no disk involved at all); get() for that key
 * never touches the filesystem.
 *
 * A cached image is byte-identical to the file it came from
 * (tests/test_sample verifies restore-from-cache == restore-from-
 * disk bit for bit), so the fast path cannot change results.
 */
class CheckpointCache
{
  public:
    /**
     * The image for @p key. On a miss the key is treated as a file
     * path and read with Checkpoint::readFile (header validation
     * included); on a hit the cached image is returned untouched.
     */
    const Checkpoint &get(const std::string &key);

    /** Register an in-process image under @p key (replaces). */
    void put(const std::string &key, Checkpoint cp);

    bool contains(const std::string &key) const;

    /** Cached images / total cached bytes (footprint reporting). */
    std::size_t size() const { return _images.size(); }
    std::size_t bytes() const;

    /** get() calls served from memory / from disk. */
    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    void clear();

  private:
    std::unordered_map<std::string, Checkpoint> _images;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace sample
} // namespace via

#endif // VIA_SAMPLE_CHECKPOINT_HH
