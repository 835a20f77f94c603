#include "serve/sim.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>

#include "serve/arrivals.hh"
#include "simcore/log.hh"

namespace via::serve
{

namespace
{

/** Histogram over the collected samples: [0, max] at a resolution
 *  fine enough for stable tail percentiles. */
Distribution
toDistribution(const std::vector<double> &samples)
{
    double hi = 1.0;
    for (double v : samples)
        hi = std::max(hi, v);
    Distribution d(0.0, hi + 1.0, 512);
    for (double v : samples)
        d.sample(v);
    return d;
}

} // namespace

ServeReport
runServe(const std::vector<RequestClass> &mix,
         const TableServiceModel &model, const ServeConfig &cfg)
{
    via_assert(!mix.empty(), "empty traffic mix");
    via_assert(cfg.batchMax > 0, "batchMax must be > 0");
    via_assert(model.batchMax() >= cfg.batchMax,
               "service model prices batches up to ",
               model.batchMax(), " but the scheduler forms up to ",
               cfg.batchMax);

    ServeReport report;
    report.perClass.assign(mix.size(), 0);

    // One sample of each per request, reserved before the first
    // draw, so a count the host cannot hold fails at once.
    std::vector<double> latencies, queueings;
    if (cfg.requests > latencies.max_size())
        via_fatal("requests=", cfg.requests, " exceeds the ",
                  latencies.max_size(), " samples a run can hold");
    latencies.reserve(std::size_t(cfg.requests));
    queueings.reserve(std::size_t(cfg.requests));

    // Traffic sources: exactly one of these is active.
    std::unique_ptr<OpenLoop> open;
    std::unique_ptr<ClientPool> pool;
    if (cfg.closed)
        pool = std::make_unique<ClientPool>(
            mix, cfg.clients, cfg.thinkCycles, cfg.seed);
    else
        open = std::make_unique<OpenLoop>(
            mix, cfg.requests, cfg.ratePerMcycle, cfg.seed);

    std::vector<Request> pending;
    double energy_total = 0.0;
    std::uint64_t batch_size_sum = 0;
    Tick now = 0;

    // Admit every arrival at or before t into the pending set.
    auto admit = [&](Tick t) {
        std::size_t before = pending.size();
        if (cfg.closed)
            pool->issueUpTo(t, pending);
        else
            open->issueUpTo(t, pending);
        if (cfg.keepTrace) {
            // The closed loop issues in client order, but the trace
            // contract is (arrival, id) order. Chunks admitted at
            // successive ticks never interleave — everything a later
            // admit issues arrived strictly after the previous admit
            // tick — so sorting each chunk keeps the whole trace
            // monotonic. An open-loop chunk is already in order.
            std::vector<Request> chunk(
                pending.begin() + std::ptrdiff_t(before),
                pending.end());
            std::sort(chunk.begin(), chunk.end(),
                      [](const Request &a, const Request &b) {
                          if (a.arrival != b.arrival)
                              return a.arrival < b.arrival;
                          return a.id < b.id;
                      });
            report.trace.insert(report.trace.end(), chunk.begin(),
                                chunk.end());
        }
    };

    // The next arrival after t, if any traffic remains.
    auto nextArrival = [&](Tick &when) {
        return cfg.closed ? pool->nextIssue(when)
                          : open->nextIssue(when);
    };

    while (report.requests < cfg.requests) {
        admit(now);
        if (pending.empty()) {
            Tick when = 0;
            if (!nextArrival(when))
                break; // open loop: every request issued
            now = std::max(now, when);
            admit(now);
            continue;
        }

        // The oldest waiting request defines the batch's class;
        // ties on arrival resolve to the lowest id.
        std::size_t head = 0;
        for (std::size_t i = 1; i < pending.size(); ++i) {
            if (pending[i].arrival < pending[head].arrival ||
                (pending[i].arrival == pending[head].arrival &&
                 pending[i].id < pending[head].id))
                head = i;
        }
        std::uint32_t cls = pending[head].cls;

        // Coalesce same-class waiters in (arrival, id) order.
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < pending.size(); ++i)
            if (pending[i].cls == cls)
                members.push_back(i);
        std::sort(members.begin(), members.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (pending[a].arrival != pending[b].arrival)
                          return pending[a].arrival <
                                 pending[b].arrival;
                      return pending[a].id < pending[b].id;
                  });
        if (members.size() > cfg.batchMax)
            members.resize(cfg.batchMax);
        // The loop condition is checked before batch formation, so
        // without this cap the final batch could push the served
        // count past cfg.requests (inflating throughput, per-class
        // counts and meanBatch). Trim the youngest members — the
        // list is (arrival, id)-sorted, so the cut is deterministic.
        std::uint64_t budget = cfg.requests - report.requests;
        if (members.size() > budget)
            members.resize(std::size_t(budget));

        unsigned n = unsigned(members.size());
        Tick cost = model.cost(cls, n);
        Tick done = now + cost;
        energy_total += model.energyPj(cls, n);
        ++report.batches;
        batch_size_sum += n;
        report.perClass[cls] += n;

        for (std::size_t i : members) {
            const Request &r = pending[i];
            queueings.push_back(double(now - r.arrival));
            latencies.push_back(double(done - r.arrival));
            if (cfg.closed)
                pool->complete(r.id, done);
            ++report.requests;
        }

        // Drop the served members in descending *index* order so
        // each erase leaves the remaining indices valid (members is
        // sorted by arrival, which need not match pending order —
        // the closed-loop pool issues in client order).
        std::sort(members.begin(), members.end(),
                  std::greater<std::size_t>());
        for (std::size_t idx : members)
            pending.erase(pending.begin() + std::ptrdiff_t(idx));

        now = done;
        report.makespan = done;
    }

    report.latency = toDistribution(latencies);
    report.queueing = toDistribution(queueings);
    if (report.makespan > 0)
        report.throughputPerMcycle = double(report.requests) * 1e6 /
                                     double(report.makespan);
    if (report.requests > 0) {
        report.energyPerRequestPj =
            energy_total / double(report.requests);
        report.meanBatch = double(batch_size_sum) /
                           double(report.batches);
    }
    return report;
}

} // namespace via::serve
