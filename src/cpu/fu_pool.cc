#include "cpu/fu_pool.hh"

#include <algorithm>

#include "cpu/core_params.hh"
#include "simcore/log.hh"
#include "simcore/serialize.hh"

namespace via
{

FuPool::FuPool(const CoreParams &params)
{
    for (std::size_t c = 1; c <= _resources.size(); ++c)
        _resources[c - 1] = Resource(params.unitsFor(FuClass(c)));
}

Resource &
FuPool::forClass(FuClass cls)
{
    via_assert(cls != FuClass::None && cls <= FuClass::StorePort,
               "no resource for FU class ", int(cls));
    return _resources[std::size_t(cls) - 1];
}

void
FuPool::resetTiming()
{
    for (auto &r : _resources)
        r.resetTiming();
}

std::uint64_t
FuPool::clamps() const
{
    std::uint64_t n = 0;
    for (const auto &r : _resources)
        n += r.clamps();
    return n;
}

void
FuPool::saveState(Serializer &ser) const
{
    ser.tag("FUPL");
    for (const auto &r : _resources)
        r.saveState(ser);
}

void
FuPool::loadState(Deserializer &des)
{
    des.expectTag("FUPL");
    for (auto &r : _resources)
        r.loadState(des);
}

} // namespace via
