#include "simcore/resource.hh"

#include <algorithm>

#include "simcore/log.hh"
#include "simcore/serialize.hh"

namespace via
{

Resource::Resource(std::uint32_t units)
    : _units(std::max<std::uint32_t>(units, 1))
{
}

Tick
Resource::liveSlice(Tick base, Tick horizon)
{
    // Nonzero bookings live only in [base, horizon): cycles below
    // base were cleared when the window slid, cycles at or beyond
    // horizon were never booked. Storing just that slice keeps
    // checkpoints compact without losing a single booking.
    return horizon > base ? std::min<Tick>(horizon - base, windowSize)
                          : 0;
}

std::uint16_t &
Resource::slot(Tick t)
{
    return _counts[std::size_t(t % windowSize)];
}

void
Resource::setBase(Tick base)
{
    _base = base;
    _end = _counts.empty() ? 0 : base + windowSize;
}

void
Resource::slide(Tick when)
{
    if (_counts.empty()) {
        // The first booking allocates the window at the current
        // base; it slides only if the booking lies beyond it.
        _counts.assign(windowSize, 0);
        _end = _base + windowSize;
        if (when < _end)
            return;
    }
    // Clear the cycles that fall out of the window. Bookings there
    // are in the past relative to every future request (dispatch is
    // monotone), so dropping them is safe.
    Tick new_base = when - windowSize / 2;
    via_assert(new_base > _base, "window slide went backwards");
    Tick clear_from = _base;
    Tick clear_to = std::min(new_base, _base + windowSize);
    for (Tick t = clear_from; t < clear_to; ++t)
        slot(t) = 0;
    setBase(new_base);
}

Tick
Resource::acquireSlow(Tick when, Tick occupancy)
{
    via_assert(occupancy >= 1, "zero occupancy booking");
    if (when < _base) {
        when = _base;
        ++_clamps;
    }
    maybeSlide(when + occupancy);

    for (;;) {
        // Find `occupancy` consecutive cycles with spare capacity.
        bool ok = true;
        for (Tick o = 0; o < occupancy; ++o) {
            if (slot(when + o) >= _units) {
                when = when + o + 1;
                maybeSlide(when + occupancy);
                ok = false;
                break;
            }
        }
        if (ok)
            break;
    }
    for (Tick o = 0; o < occupancy; ++o)
        ++slot(when + o);
    _busy += occupancy;
    _horizon = std::max(_horizon, when + occupancy);
    return when;
}

Tick
Resource::acquireRun(Tick when, std::uint32_t n,
                     std::uint32_t perCycle)
{
    via_assert(n >= 1 && perCycle >= 1, "empty element run");
    Tick due = when;        // element e's own start
    std::uint32_t phase = 0; // elements already due at `due`
    Tick cursor = 0;        // the cycle the previous element booked
    for (std::uint32_t e = 0; e < n; ++e) {
        Tick t = due;
        if (t < _base) {
            t = _base;
            ++_clamps;
        }
        // Every cycle in [t, cursor) was probed full, and its slide
        // check made, by an earlier element.
        t = std::max(t, cursor);
        maybeSlide(t + 1);
        while (slot(t) >= _units) {
            ++t;
            maybeSlide(t + 1);
        }
        ++slot(t);
        cursor = t;
        if (++phase == perCycle) {
            phase = 0;
            ++due;
        }
    }
    _busy += n;
    _horizon = std::max(_horizon, cursor + 1);
    return cursor;
}

void
Resource::resetTiming()
{
    std::fill(_counts.begin(), _counts.end(), std::uint16_t(0));
    setBase(0);
    _horizon = 0;
}

void
Resource::saveState(Serializer &ser) const
{
    ser.tag("RSRC");
    ser.put(_units);
    ser.put(_base);
    ser.put(_busy);
    ser.put(_horizon);
    Tick live = liveSlice(_base, _horizon);
    ser.put(live);
    for (Tick t = 0; t < live; ++t) {
        auto &self = const_cast<Resource &>(*this);
        ser.put(self.slot(_base + t));
    }
}

void
Resource::loadState(Deserializer &des)
{
    des.expectTag("RSRC");
    auto units = des.get<std::uint32_t>();
    if (units != _units)
        throw SerializeError("resource unit count mismatch");
    Tick base = des.get<Tick>();
    auto busy = des.get<std::uint64_t>();
    Tick horizon = des.get<Tick>();
    Tick live = des.get<Tick>();
    // saveState writes exactly the slice its base and horizon span.
    // Any other count is a damaged image, and a window left
    // unallocated under a nonempty slice would be read out of bounds
    // by the next saveState.
    if (live != liveSlice(base, horizon))
        throw SerializeError("resource live slice does not match "
                             "its base and horizon");
    _busy = busy;
    _horizon = horizon;
    // An empty live slice leaves an unbooked resource unallocated.
    if (live > 0 && _counts.empty())
        _counts.assign(windowSize, 0);
    else
        std::fill(_counts.begin(), _counts.end(), std::uint16_t(0));
    setBase(base);
    for (Tick t = 0; t < live; ++t)
        slot(_base + t) = des.get<std::uint16_t>();
}


} // namespace via
