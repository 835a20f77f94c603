/**
 * @file
 * The serving simulator: a discrete-event queueing loop over the
 * measured service table.
 *
 * One server (the accelerator machine) drains a FIFO of requests.
 * Whenever the server frees up, the batching scheduler takes the
 * oldest waiting request — its class defines the batch — and
 * coalesces up to batch_max already-arrived requests of the same
 * class, in arrival order, into one batch. The batch's service time
 * and energy come from the TableServiceModel; each member's
 * end-to-end latency is its queueing delay plus the whole batch's
 * service time (members complete together, like requests sharing a
 * fused kernel launch).
 *
 * Traffic is either an open-loop Poisson source or a closed-loop
 * client pool (serve/arrivals.hh). All times are simulated cycles;
 * the loop is single-threaded host code, so for a fixed service
 * table the whole run — trace, batches, every percentile — is a
 * pure function of the configuration and seed.
 */

#ifndef VIA_SERVE_SIM_HH
#define VIA_SERVE_SIM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hh"
#include "serve/service.hh"
#include "simcore/stats.hh"

namespace via::serve
{

/** Traffic and scheduling knobs for one serving run. */
struct ServeConfig
{
    bool closed = false;      //!< closed loop instead of open loop
    std::uint64_t requests = 200; //!< requests to serve
    double ratePerMcycle = 2.0;   //!< open loop: arrivals / Mcycle
    unsigned clients = 4;     //!< closed loop: pool size
    double thinkCycles = 50000.0; //!< closed loop: mean think time
    unsigned batchMax = 8;    //!< batching scheduler's limit
    std::uint64_t seed = 1;
    bool keepTrace = false;   //!< record the request trace
};

/** Service-level results of one run. */
struct ServeReport
{
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    Tick makespan = 0; //!< completion cycle of the last request

    /** End-to-end latency (arrival to batch completion), cycles. */
    Distribution latency;
    /** Queueing component only (arrival to batch start), cycles. */
    Distribution queueing;

    double throughputPerMcycle = 0.0;
    double energyPerRequestPj = 0.0;
    double meanBatch = 0.0;
    std::vector<std::uint64_t> perClass; //!< requests per class

    /** The issued trace, in (arrival, id) order (when keepTrace).
     *  May include requests admitted but unserved when the run hit
     *  its request budget. */
    std::vector<Request> trace;
};

/**
 * Run the serving loop. The model must price batches up to
 * cfg.batchMax (fatal otherwise — the scheduler would form batches
 * the model cannot cost).
 */
ServeReport runServe(const std::vector<RequestClass> &mix,
                     const TableServiceModel &model,
                     const ServeConfig &cfg);

} // namespace via::serve

#endif // VIA_SERVE_SIM_HH
