/**
 * @file
 * Arrival generation for the serving simulator.
 *
 * Two traffic shapes, both deterministic per seed:
 *
 *  - Open loop: a Poisson process at a configured rate. One RNG
 *    stream draws each request's gap, then its class, one request
 *    ahead of admission, so the same seed always yields the
 *    byte-identical trace regardless of host thread count, and a run
 *    holds one future arrival, not the whole trace.
 *
 *  - Closed loop: a fixed pool of clients, each keeping at most one
 *    request outstanding and thinking an exponential time between
 *    its completion and its next issue. Issue times depend on
 *    completions, so the closed-loop "generator" is a per-client
 *    state machine the serving DES advances; each client draws from
 *    its own splitmix-derived stream (SweepExecutor::pointSeed), so
 *    the interleaving is reproducible too.
 */

#ifndef VIA_SERVE_ARRIVALS_HH
#define VIA_SERVE_ARRIVALS_HH

#include <cstdint>
#include <vector>

#include "serve/request.hh"
#include "simcore/rng.hh"

namespace via::serve
{

/** Exponential draw with mean @p mean (cycles), never negative. */
double expDraw(Rng &rng, double mean);

/**
 * Sample a class index from the mix's weights using one uniform
 * draw from @p rng.
 */
std::uint32_t sampleClass(const std::vector<RequestClass> &mix,
                          Rng &rng);

/**
 * The open-loop source: @p requests Poisson arrivals at
 * @p rate_per_mcycle requests per million cycles, classes sampled
 * by mix weight. The DES calls nextIssue()/issueUpTo() as it does
 * on the ClientPool. Arrivals are non-decreasing; ids are issue
 * order.
 */
class OpenLoop
{
  public:
    OpenLoop(const std::vector<RequestClass> &mix,
             std::uint64_t requests, double rate_per_mcycle,
             std::uint64_t seed);

    /** The next request's arrival cycle; false once all
     *  @p requests are issued. */
    bool nextIssue(Tick &when) const;

    /** Append every arrival at or before @p now to @p out, drawing
     *  the request after each. */
    void issueUpTo(Tick now, std::vector<Request> &out);

  private:
    /** Draw request _next.id: its gap, then its class. */
    void draw();

    const std::vector<RequestClass> &_mix;
    std::uint64_t _requests;
    double _meanGap;
    Rng _rng;
    double _now = 0.0; //!< _next's arrival before rounding
    Request _next;     //!< drawn while _next.id < _requests
};

/**
 * The closed-loop client pool. The DES calls nextIssue()/issue() to
 * pull the earliest pending issue into the system and complete() to
 * schedule a client's next request after its think time.
 */
class ClientPool
{
  public:
    /**
     * @param clients pool size (concurrency limit)
     * @param think_cycles mean think time between a completion and
     *        the client's next issue; the initial issues are also
     *        staggered by one think draw so the pool does not arrive
     *        as a single burst at cycle 0
     */
    ClientPool(const std::vector<RequestClass> &mix,
               unsigned clients, double think_cycles,
               std::uint64_t seed);

    /** The earliest cycle any client wants to issue; false if every
     *  client is waiting on an in-flight request. */
    bool nextIssue(Tick &when) const;

    /**
     * Materialize every issue due at or before @p now as Requests
     * (appended to @p out), marking those clients in-flight. Ids
     * continue from the previous issue count.
     */
    void issueUpTo(Tick now, std::vector<Request> &out);

    /** Client owning request @p id finished at @p now: think, then
     *  schedule its next issue. */
    void complete(std::uint64_t id, Tick now);

  private:
    struct Client
    {
        Rng rng{0};
        Tick next_issue = 0; //!< valid when !in_flight
        bool in_flight = false;
        std::uint64_t request = 0; //!< id of the in-flight request
    };

    const std::vector<RequestClass> &_mix;
    double _think;
    std::vector<Client> _clients;
    std::uint64_t _issued = 0;
};

} // namespace via::serve

#endif // VIA_SERVE_ARRIVALS_HH
