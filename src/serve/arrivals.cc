#include "serve/arrivals.hh"

#include <cmath>
#include <limits>

#include "simcore/log.hh"
#include "simcore/parallel.hh"

namespace via::serve
{

double
expDraw(Rng &rng, double mean)
{
    // uniform() is in [0, 1); 1-u is in (0, 1], so the log is
    // finite and the draw non-negative.
    return -std::log(1.0 - rng.uniform()) * mean;
}

std::uint32_t
sampleClass(const std::vector<RequestClass> &mix, Rng &rng)
{
    via_assert(!mix.empty(), "empty traffic mix");
    double total = 0.0;
    for (const RequestClass &c : mix)
        total += c.weight;
    double u = rng.uniform() * total;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        u -= mix[i].weight;
        if (u < 0.0)
            return std::uint32_t(i);
    }
    return std::uint32_t(mix.size() - 1); // rounding fell off the end
}

OpenLoop::OpenLoop(const std::vector<RequestClass> &mix,
                   std::uint64_t requests, double rate_per_mcycle,
                   std::uint64_t seed)
    : _mix(mix), _requests(requests),
      _meanGap(1e6 / rate_per_mcycle), _rng(seed)
{
    via_assert(rate_per_mcycle > 0.0, "open-loop rate must be > 0");
    draw();
}

void
OpenLoop::draw()
{
    if (_next.id >= _requests)
        return;
    _now += expDraw(_rng, _meanGap);
    _next.cls = sampleClass(_mix, _rng);
    _next.arrival = Tick(_now);
}

bool
OpenLoop::nextIssue(Tick &when) const
{
    if (_next.id >= _requests)
        return false;
    when = _next.arrival;
    return true;
}

void
OpenLoop::issueUpTo(Tick now, std::vector<Request> &out)
{
    while (_next.id < _requests && _next.arrival <= now) {
        out.push_back(_next);
        ++_next.id;
        draw();
    }
}

ClientPool::ClientPool(const std::vector<RequestClass> &mix,
                       unsigned clients, double think_cycles,
                       std::uint64_t seed)
    : _mix(mix), _think(think_cycles), _clients(clients)
{
    via_assert(clients > 0, "closed loop needs at least one client");
    via_assert(think_cycles >= 0.0, "negative think time");
    for (std::size_t c = 0; c < _clients.size(); ++c) {
        _clients[c].rng =
            Rng(SweepExecutor::pointSeed(seed, c));
        // Stagger the first issues like a think interval so the
        // pool does not arrive as one burst at cycle 0.
        _clients[c].next_issue =
            Tick(expDraw(_clients[c].rng, _think));
    }
}

bool
ClientPool::nextIssue(Tick &when) const
{
    bool any = false;
    Tick best = std::numeric_limits<Tick>::max();
    for (const Client &c : _clients) {
        if (!c.in_flight && c.next_issue < best) {
            best = c.next_issue;
            any = true;
        }
    }
    if (any)
        when = best;
    return any;
}

void
ClientPool::issueUpTo(Tick now, std::vector<Request> &out)
{
    // Scan in client order: ties on next_issue resolve to the
    // lowest client id, deterministically.
    for (Client &c : _clients) {
        if (c.in_flight || c.next_issue > now)
            continue;
        Request r;
        r.id = _issued++;
        r.cls = sampleClass(_mix, c.rng);
        r.arrival = c.next_issue;
        out.push_back(r);
        c.in_flight = true;
        c.request = r.id;
    }
}

void
ClientPool::complete(std::uint64_t id, Tick now)
{
    for (Client &c : _clients) {
        if (c.in_flight && c.request == id) {
            c.in_flight = false;
            c.next_issue = now + Tick(expDraw(c.rng, _think));
            return;
        }
    }
    via_fatal("completion for unknown request id ", id);
}

} // namespace via::serve
