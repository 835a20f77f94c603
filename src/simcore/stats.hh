/**
 * @file
 * A small statistics framework in the spirit of gem5's Stats package.
 *
 * Components own plain counters and register named views of them in a
 * StatSet. The set can be dumped as a human-readable table or queried
 * programmatically by the benchmark harnesses.
 *
 * Entries live in a flat vector; a StatId is an index into it, so a
 * caller on a hot path interns the name once (id()) and reads the
 * value with an O(1) get(StatId) instead of a string-keyed map
 * lookup per sample. Dump output is sorted by name at dump time and
 * is byte-identical regardless of registration order.
 */

#ifndef VIA_SIMCORE_STATS_HH
#define VIA_SIMCORE_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace via
{

/**
 * An online distribution: count, sum, min, max, mean and a fixed
 * bucket histogram.
 */
class Distribution
{
  public:
    /**
     * @param bucket_lo inclusive lower bound of the first bucket
     * @param bucket_hi exclusive upper bound of the last bucket
     * @param n_buckets number of equal-width buckets
     */
    Distribution(double bucket_lo = 0.0, double bucket_hi = 1.0,
                 std::size_t n_buckets = 10);

    /** Record one sample. */
    void sample(double v);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _min; }
    double max() const { return _max; }
    double mean() const { return _count ? _sum / _count : 0.0; }

    /** Bucket counters; out-of-range samples land in the end buckets. */
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    double bucketLo() const { return _lo; }
    double bucketHi() const { return _hi; }

    /**
     * The @p p-th percentile (p in [0, 100]) estimated from the
     * bucket histogram with linear interpolation inside the bucket
     * that crosses the target rank. The estimate is clamped to the
     * observed [min, max] (out-of-range samples land in the end
     * buckets, whose nominal edges can lie beyond the data), so
     * percentile(0) == min() and percentile(100) == max() exactly.
     * An empty distribution returns 0.0.
     */
    double percentile(double p) const;

    /** Tail-latency conveniences (serving report, SLO tracking). */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

  private:
    double _lo, _hi;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/** Interned handle to one statistic inside a StatSet. */
using StatId = std::size_t;

/**
 * The JSON form of one number, as every JSON report writes it: null
 * when not finite, an exact integer when integral and below 9e15,
 * otherwise %.17g, which parses back to the same double.
 */
std::string jsonNumber(double v);

/**
 * A named collection of statistic views.
 *
 * Views are non-owning: the registering component guarantees the
 * referenced counter outlives the StatSet (both usually live in the
 * same Machine).
 */
class StatSet
{
  public:
    /** Register a view over an integer counter. */
    StatId addScalar(const std::string &name, const std::string &desc,
                     const std::uint64_t *value);

    /** Register a derived quantity computed on demand. */
    StatId addFormula(const std::string &name,
                      const std::string &desc,
                      std::function<double()> fn);

    /** Intern a name into its id; fatal() if absent. */
    StatId id(const std::string &name) const;

    /** O(1) read through an interned id. */
    double
    get(StatId id) const
    {
        return eval(_entries[id]);
    }

    /** Look up a statistic by name; fatal() if absent. */
    double get(const std::string &name) const;

    /** True if a statistic with this name exists. */
    bool has(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Print "name  value  # desc" rows, sorted by name. */
    void dump(std::ostream &os) const;

    /** Print the statistics as a flat JSON object, each value
     *  formatted by jsonNumber. */
    void dumpJson(std::ostream &os) const;

  private:
    /**
     * A scalar view keeps its raw counter pointer (no std::function
     * indirection on reads); only formulas, whose counter is null,
     * pay for one.
     */
    struct Entry
    {
        std::string name;
        std::string desc;
        const std::uint64_t *counter = nullptr;
        std::function<double()> fn;
    };

    double
    eval(const Entry &e) const
    {
        return e.counter != nullptr ? double(*e.counter) : e.fn();
    }

    StatId insert(Entry entry);
    /** Entry indices sorted by name (dump order). */
    std::vector<StatId> sortedIds() const;

    std::vector<Entry> _entries;
    std::unordered_map<std::string, StatId> _index;
};

} // namespace via

#endif // VIA_SIMCORE_STATS_HH
