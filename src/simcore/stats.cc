#include "simcore/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>

#include "simcore/log.hh"

namespace via
{

Distribution::Distribution(double bucket_lo, double bucket_hi,
                           std::size_t n_buckets)
    : _lo(bucket_lo), _hi(bucket_hi),
      _buckets(std::max<std::size_t>(n_buckets, 1), 0)
{
    via_assert(bucket_hi > bucket_lo, "empty bucket range");
}

void
Distribution::sample(double v)
{
    if (_count == 0) {
        _min = _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += v;

    // Clamp in the double domain before any integer conversion: a
    // cast of NaN or a value outside int64's range is undefined
    // behaviour, so out-of-range samples (v == _hi included, which
    // floors to one past the last bucket) are routed to the end
    // buckets without ever casting them.
    double width = (_hi - _lo) / double(_buckets.size());
    double pos = std::floor((v - _lo) / width);
    std::size_t idx;
    if (!(pos > 0.0))
        idx = 0; // below range, first bucket, or NaN
    else if (pos >= double(_buckets.size()))
        idx = _buckets.size() - 1;
    else
        idx = static_cast<std::size_t>(pos);
    ++_buckets[idx];
}

double
Distribution::percentile(double p) const
{
    if (_count == 0)
        return 0.0; // empty-histogram guard
    if (!(p > 0.0))
        return _min;
    if (p >= 100.0)
        return _max;

    // Rank of the target sample (1-based, fractional).
    double target = p / 100.0 * double(_count);
    double width = (_hi - _lo) / double(_buckets.size());
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        std::uint64_t n = _buckets[i];
        if (n == 0)
            continue;
        if (double(below + n) >= target) {
            // Interpolate within the crossing bucket: assume its n
            // samples spread evenly across the bucket's width.
            double frac = (target - double(below)) / double(n);
            double v = _lo + width * (double(i) + frac);
            // End buckets absorb out-of-range samples, so their
            // nominal edges can overshoot the data; clamp to the
            // exact observed range.
            return std::min(std::max(v, _min), _max);
        }
        below += n;
    }
    return _max;
}

StatId
StatSet::insert(Entry entry)
{
    // Re-registering a name replaces the view but keeps the id, so
    // interned handles stay valid.
    auto it = _index.find(entry.name);
    if (it != _index.end()) {
        _entries[it->second] = std::move(entry);
        return it->second;
    }
    StatId id = _entries.size();
    _index.emplace(entry.name, id);
    _entries.push_back(std::move(entry));
    return id;
}

StatId
StatSet::addScalar(const std::string &name, const std::string &desc,
                   const std::uint64_t *value)
{
    via_assert(value, "null counter for stat ", name);
    Entry e;
    e.name = name;
    e.desc = desc;
    e.counter = value;
    return insert(std::move(e));
}

StatId
StatSet::addFormula(const std::string &name, const std::string &desc,
                    std::function<double()> fn)
{
    via_assert(fn, "null formula for stat ", name);
    Entry e;
    e.name = name;
    e.desc = desc;
    e.fn = std::move(fn);
    return insert(std::move(e));
}

StatId
StatSet::id(const std::string &name) const
{
    auto it = _index.find(name);
    if (it == _index.end())
        via_fatal("unknown statistic '", name, "'");
    return it->second;
}

double
StatSet::get(const std::string &name) const
{
    return get(id(name));
}

bool
StatSet::has(const std::string &name) const
{
    return _index.count(name) != 0;
}

std::vector<StatId>
StatSet::sortedIds() const
{
    std::vector<StatId> ids(_entries.size());
    for (StatId i = 0; i < ids.size(); ++i)
        ids[i] = i;
    std::sort(ids.begin(), ids.end(), [this](StatId a, StatId b) {
        return _entries[a].name < _entries[b].name;
    });
    return ids;
}

std::vector<std::string>
StatSet::names() const
{
    std::vector<std::string> out;
    out.reserve(_entries.size());
    for (StatId i : sortedIds())
        out.push_back(_entries[i].name);
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    if (v == std::floor(v) && std::abs(v) < 9.0e15) {
        // Integral and within the double-exact range: print
        // without a decimal point or exponent (9e15 < 2^53).
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

void
StatSet::dumpJson(std::ostream &os) const
{
    // Values are formatted by jsonNumber rather than through the
    // stream's (caller-controlled, possibly truncating) float
    // settings.
    os << "{";
    bool first = true;
    for (StatId i : sortedIds()) {
        const Entry &e = _entries[i];
        if (!first)
            os << ",";
        first = false;
        os << "\n  \"" << e.name << "\": " << jsonNumber(eval(e));
    }
    os << "\n}\n";
}

void
StatSet::dump(std::ostream &os) const
{
    for (StatId i : sortedIds()) {
        const Entry &e = _entries[i];
        os << std::left << std::setw(40) << e.name << ' '
           << std::right << std::setw(16) << eval(e);
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << '\n';
    }
}

} // namespace via
