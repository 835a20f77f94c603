#include "cpu/multi_machine.hh"

#include <algorithm>

#include "simcore/log.hh"

namespace via
{

MachineParams
MultiMachine::privateParams(const MachineParams &params)
{
    MachineParams p = params;
    via_assert(!p.mem.levels.empty(), "hierarchy needs a level");
    // Keep only L1 private; deeper levels become the shared LLC.
    // The private prefetcher is off (MemSystem skips it in shared
    // mode anyway); the LLC prefetches instead.
    p.mem.levels.resize(1);
    p.mem.prefetch.degree = 0;
    return p;
}

MultiMachine::MultiMachine(const MachineParams &params,
                           unsigned cores,
                           const SharedLlcParams &llc_params)
    : _params(params)
{
    via_assert(cores >= 1, "need at least one core");
    via_assert(cores <= 32, "directory sharer mask holds 32 cores");
    if (cores == 1) {
        _cores.push_back(std::make_unique<Machine>(params));
        return;
    }
    _store = std::make_unique<BackingStore>();
    _llc = std::make_unique<SharedLlc>(llc_params);
    MachineParams per_core = privateParams(params);
    for (unsigned c = 0; c < cores; ++c)
        _cores.push_back(std::make_unique<Machine>(per_core, *_store,
                                                   *_llc, c));
    _llc->registerStats(_stats);
}

MultiMachine::MultiMachine(const MachineParams &params,
                           unsigned cores)
    : MultiMachine(params, cores,
                   SharedLlcParams::from(params.mem, cores))
{
}

const SharedLlc &
MultiMachine::llc() const
{
    via_assert(_llc != nullptr, "a one-core machine has no shared LLC");
    return *_llc;
}

Tick
MultiMachine::cycles() const
{
    Tick worst = 0;
    for (const auto &c : _cores)
        worst = std::max(worst, c->cycles());
    return worst;
}

void
MultiMachine::enableTracing(std::size_t limit)
{
    for (auto &c : _cores)
        c->enableTracing(limit);
    if (_llc)
        _llc->setTrace(_cores.front()->trace());
}

void
MultiMachine::attachCheckers()
{
    for (auto &c : _cores)
        c->attachChecker();
}

} // namespace via
