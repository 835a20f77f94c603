/**
 * @file
 * Serving subsystem tests (src/serve, docs/serving.md): mix
 * parsing, deterministic arrival generation for both traffic
 * shapes, the batching scheduler against an injected service
 * table, and thread-count invariance of the measured table.
 */

#include <gtest/gtest.h>

#include <vector>

#include "serve/arrivals.hh"
#include "serve/executor.hh"
#include "serve/request.hh"
#include "serve/service.hh"
#include "serve/sim.hh"
#include "cpu/machine.hh"
#include "kernels/dispatch.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

namespace via::serve
{
namespace
{

std::vector<RequestClass>
twoClassMix()
{
    return parseMix("spmv:csr:64:0.05:1,spmv:sell:64:0.05:1@3");
}

TEST(ParseMix, FieldsWeightsAndDefaults)
{
    auto mix = parseMix("spmv:csb:512:0.02:4@2,spmv:csr:256:0.05:1");
    ASSERT_EQ(mix.size(), 2u);
    EXPECT_EQ(mix[0].format, "csb");
    EXPECT_EQ(mix[0].rows, Index(512));
    EXPECT_DOUBLE_EQ(mix[0].density, 0.02);
    EXPECT_EQ(mix[0].vecs, 4u);
    EXPECT_DOUBLE_EQ(mix[0].weight, 2.0);
    EXPECT_DOUBLE_EQ(mix[1].weight, 1.0);
    EXPECT_EQ(mix[0].name(), "spmv:csb:512:0.02:v4");
}

TEST(ParseMix, RejectsMalformedSpecs)
{
    EXPECT_DEATH(parseMix("gemm:csr:64:0.05:1"), "kernel");
    EXPECT_DEATH(parseMix("spmv:coo:64:0.05:1"), "format");
    EXPECT_DEATH(parseMix("spmv:csr:0:0.05:1"), "rows");
    EXPECT_DEATH(parseMix("spmv:csr:64:1.5:1"), "density");
    EXPECT_DEATH(parseMix("spmv:csr:64:0.05:1@0"), "weight");
    EXPECT_DEATH(parseMix("spmv:csr:64"), "");
    // Counts are range-checked before the cast to Index / unsigned.
    EXPECT_DEATH(parseMix("spmv:csr:64.7:0.05:1"), "rows");
    EXPECT_DEATH(parseMix("spmv:csr:-64:0.05:1"), "rows");
    EXPECT_DEATH(parseMix("spmv:csr:inf:0.05:1"), "rows");
    EXPECT_DEATH(parseMix("spmv:csr:nan:0.05:1"), "rows");
    EXPECT_DEATH(parseMix("spmv:csr:3e9:0.05:1"), "rows");
    EXPECT_DEATH(parseMix("spmv:csr:64:0.05:-1"), "vecs");
    EXPECT_DEATH(parseMix("spmv:csr:64:0.05:0"), "vecs");
    EXPECT_DEATH(parseMix("spmv:csr:64:0.05:1.5"), "vecs");
    EXPECT_DEATH(parseMix("spmv:csr:64:0.05:5e9"), "vecs");
}

TEST(ClassMatrix, DependsOnlyOnSeedAndIndex)
{
    auto mix = twoClassMix();
    Csr a = classMatrix(mix[0], 0, 7);
    Csr b = classMatrix(mix[0], 0, 7);
    EXPECT_EQ(a.nnz(), b.nnz());
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_EQ(a.values(), b.values());
    // A different class index gives a different stream.
    Csr c = classMatrix(mix[0], 1, 7);
    EXPECT_NE(a.colIdx(), c.colIdx());
}

TEST(OpenLoopTrace, SameSeedIsByteIdentical)
{
    auto mix = twoClassMix();
    auto t1 = openLoopTrace(mix, 200, 5.0, 42);
    auto t2 = openLoopTrace(mix, 200, 5.0, 42);
    ASSERT_EQ(t1.size(), 200u);
    EXPECT_EQ(traceBytes(t1), traceBytes(t2));
    // Arrivals are non-decreasing and ids are dense issue order.
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].id, i);
        if (i) {
            EXPECT_GE(t1[i].arrival, t1[i - 1].arrival);
        }
    }
    // A different seed gives a different trace.
    auto t3 = openLoopTrace(mix, 200, 5.0, 43);
    EXPECT_NE(traceBytes(t1), traceBytes(t3));
}

TEST(OpenLoopTrace, RespectsMixWeights)
{
    auto mix = twoClassMix(); // weights 1 and 3
    auto t = openLoopTrace(mix, 4000, 5.0, 1);
    std::size_t cls1 = 0;
    for (const Request &r : t)
        cls1 += r.cls == 1;
    // Expect ~3000 of 4000 in class 1; allow a wide margin.
    EXPECT_GT(cls1, 2700u);
    EXPECT_LT(cls1, 3300u);
}

TEST(ClientPool, DeterministicAndBoundedConcurrency)
{
    auto mix = twoClassMix();
    // Drive the pool with a fixed service time; the issue pattern
    // must be identical across runs of the same seed.
    auto drive = [&](std::uint64_t seed) {
        ClientPool pool(mix, 3, 1000.0, seed);
        std::vector<Request> trace;
        Tick now = 0;
        while (trace.size() < 50) {
            Tick when = 0;
            EXPECT_TRUE(pool.nextIssue(when));
            now = std::max(now, when);
            std::size_t before = trace.size();
            pool.issueUpTo(now, trace);
            // At most `clients` requests can ever be outstanding.
            EXPECT_LE(trace.size() - before, 3u);
            for (std::size_t i = before; i < trace.size(); ++i)
                pool.complete(trace[i].id, now + 500);
            now += 500;
        }
        return traceBytes(trace);
    };
    EXPECT_EQ(drive(9), drive(9));
    EXPECT_NE(drive(9), drive(10));
}

TEST(ClientPool, NoIssueWhileAllInFlight)
{
    auto mix = twoClassMix();
    ClientPool pool(mix, 2, 100.0, 1);
    std::vector<Request> trace;
    Tick when = 0;
    ASSERT_TRUE(pool.nextIssue(when));
    pool.issueUpTo(when + 100000, trace); // both clients issue
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_FALSE(pool.nextIssue(when));
    pool.complete(trace[0].id, 200000);
    EXPECT_TRUE(pool.nextIssue(when));
    EXPECT_GE(when, Tick(200000));
}

/** A hand-written table: class c batch of n costs base*(c+1) + n
 *  cycles, so scheduler behavior is exactly predictable. */
TableServiceModel
flatTable(std::size_t classes, unsigned batch_max, Tick base)
{
    TableServiceModel t(classes, batch_max);
    for (std::size_t c = 0; c < classes; ++c)
        for (unsigned n = 1; n <= batch_max; ++n)
            t.set(c, n, base * Tick(c + 1) + n, 10.0 * n);
    return t;
}

TEST(RunServe, ServesEveryRequestAndAccountsEnergy)
{
    auto mix = twoClassMix();
    TableServiceModel table = flatTable(mix.size(), 8, 500);
    ServeConfig cfg;
    cfg.requests = 100;
    cfg.ratePerMcycle = 50.0;
    cfg.batchMax = 8;
    cfg.seed = 3;
    ServeReport r = runServe(mix, table, cfg);
    EXPECT_EQ(r.requests, 100u);
    EXPECT_GT(r.batches, 0u);
    EXPECT_LE(r.batches, r.requests);
    std::uint64_t per_class = 0;
    for (std::uint64_t n : r.perClass)
        per_class += n;
    EXPECT_EQ(per_class, r.requests);
    EXPECT_EQ(r.latency.count(), 100u);
    EXPECT_EQ(r.queueing.count(), 100u);
    // Latency is queueing plus a positive service time.
    EXPECT_GT(r.latency.mean(), r.queueing.mean());
    // Energy per request: 10 pJ per request in every batch.
    EXPECT_NEAR(r.energyPerRequestPj, 10.0, 1e-9);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GE(r.meanBatch, 1.0);
}

TEST(RunServe, SaturationFormsBatches)
{
    // One class, service far slower than arrivals: the backlog must
    // coalesce into batches near batchMax.
    auto mix = parseMix("spmv:csr:64:0.05:1");
    TableServiceModel table = flatTable(1, 4, 20000);
    ServeConfig cfg;
    cfg.requests = 64;
    cfg.ratePerMcycle = 1000.0; // ~1000 cycles apart vs 20001 cost
    cfg.batchMax = 4;
    ServeReport r = runServe(mix, table, cfg);
    EXPECT_EQ(r.requests, 64u);
    EXPECT_GT(r.meanBatch, 3.0);
    EXPECT_GT(r.queueing.p99(), 0.0);
}

TEST(RunServe, TraceIsSeedDeterministicBothLoops)
{
    auto mix = twoClassMix();
    TableServiceModel table = flatTable(mix.size(), 4, 800);
    for (bool closed : {false, true}) {
        ServeConfig cfg;
        cfg.closed = closed;
        cfg.requests = 60;
        cfg.ratePerMcycle = 20.0;
        cfg.clients = 3;
        cfg.thinkCycles = 2000.0;
        cfg.batchMax = 4;
        cfg.seed = 11;
        cfg.keepTrace = true;
        ServeReport a = runServe(mix, table, cfg);
        ServeReport b = runServe(mix, table, cfg);
        EXPECT_EQ(traceBytes(a.trace), traceBytes(b.trace));
        EXPECT_DOUBLE_EQ(a.latency.p50(), b.latency.p50());
        EXPECT_DOUBLE_EQ(a.latency.p99(), b.latency.p99());
        EXPECT_EQ(a.makespan, b.makespan);
        cfg.seed = 12;
        ServeReport c = runServe(mix, table, cfg);
        EXPECT_NE(traceBytes(a.trace), traceBytes(c.trace));
    }
}

TEST(RunServe, ClosedLoopServesExactlyTheConfiguredRequests)
{
    // Closed-loop clients keep issuing forever, and the loop
    // condition is checked before batch formation: without the
    // final-batch trim the last batch of a batch>1 run overshoots
    // cfg.requests. Saturate the server so batches form.
    auto mix = twoClassMix();
    TableServiceModel table = flatTable(mix.size(), 8, 20000);
    ServeConfig cfg;
    cfg.closed = true;
    cfg.requests = 50;
    cfg.clients = 8;
    cfg.thinkCycles = 100.0;
    cfg.batchMax = 8;
    cfg.seed = 7;
    ServeReport r = runServe(mix, table, cfg);
    EXPECT_EQ(r.requests, 50u);
    EXPECT_GT(r.meanBatch, 1.0); // the trim actually had batches
    std::uint64_t per_class = 0;
    for (std::uint64_t n : r.perClass)
        per_class += n;
    EXPECT_EQ(per_class, 50u);
    EXPECT_EQ(r.latency.count(), 50u);
    EXPECT_NEAR(r.meanBatch,
                double(r.requests) / double(r.batches), 1e-12);
}

TEST(RunServe, ClosedLoopTraceIsArrivalSorted)
{
    // ClientPool::issueUpTo appends in client-id order; the report
    // trace contract is (arrival, id) order across the whole run.
    auto mix = twoClassMix();
    TableServiceModel table = flatTable(mix.size(), 4, 5000);
    ServeConfig cfg;
    cfg.closed = true;
    cfg.requests = 80;
    cfg.clients = 6;
    cfg.thinkCycles = 300.0;
    cfg.batchMax = 4;
    cfg.seed = 13;
    cfg.keepTrace = true;
    ServeReport r = runServe(mix, table, cfg);
    ASSERT_GE(r.trace.size(), cfg.requests);
    for (std::size_t i = 1; i < r.trace.size(); ++i) {
        const Request &prev = r.trace[i - 1];
        const Request &cur = r.trace[i];
        EXPECT_TRUE(cur.arrival > prev.arrival ||
                    (cur.arrival == prev.arrival &&
                     cur.id > prev.id))
            << "trace[" << i << "] out of order: ("
            << prev.arrival << "," << prev.id << ") then ("
            << cur.arrival << "," << cur.id << ")";
    }
}

TEST(RunServe, RejectsUnpriceableBatchLimit)
{
    auto mix = parseMix("spmv:csr:64:0.05:1");
    TableServiceModel table = flatTable(1, 2, 100);
    ServeConfig cfg;
    cfg.batchMax = 8; // table only prices up to 2
    EXPECT_DEATH(runServe(mix, table, cfg), "batch");
}

/** The measured table must not depend on the measurement pool
 *  width: per-point streams are (seed, index)-derived. This is the
 *  cycle-level half of the harness determinism contract; combined
 *  with the single-threaded DES it makes p50/p99 thread-invariant
 *  (the via_serve_threads_identical CTest checks the full stdout).
 */
TEST(MeasureServiceTable, ThreadCountInvariant)
{
    auto mix = parseMix("spmv:csr:48:0.06:1,spmv:csb:48:0.06:1");
    ExecutorConfig ex;
    ex.batchMax = 2;
    ex.seed = 5;
    for (bool via : {false, true}) {
        ex.via = via;
        ex.threads = 1;
        TableServiceModel serial = measureServiceTable(mix, ex);
        ex.threads = 4;
        TableServiceModel pooled = measureServiceTable(mix, ex);
        for (std::size_t c = 0; c < mix.size(); ++c) {
            for (unsigned n = 1; n <= ex.batchMax; ++n) {
                EXPECT_EQ(serial.cost(c, n), pooled.cost(c, n))
                    << "class " << c << " n=" << n;
                EXPECT_DOUBLE_EQ(serial.energyPj(c, n),
                                 pooled.energyPj(c, n))
                    << "class " << c << " n=" << n;
                // Costs are measured, not defaulted.
                EXPECT_GT(serial.cost(c, n), 0u);
                EXPECT_GT(serial.energyPj(c, n), 0.0);
            }
        }
    }
}

TEST(MeasureServiceTable, BatchesAmortizeOnTheWarmMachine)
{
    // Batched requests run against the restored warm image, so each
    // one skips the matrix conversion + upload a one-shot request
    // pays: the marginal cost of growing a batch must undercut the
    // full one-shot, and batch cost must grow with n.
    auto mix = parseMix("spmv:csr:96:0.05:1");
    ExecutorConfig ex;
    ex.batchMax = 3;
    TableServiceModel t = measureServiceTable(mix, ex);
    EXPECT_LT(t.cost(0, 1), t.cost(0, 2));
    EXPECT_LT(t.cost(0, 2), t.cost(0, 3));

    Machine m(ex.params);
    Csr a = classMatrix(mix[0], 0, ex.seed);
    Rng xr(99);
    DenseVector x = randomVector(a.cols(), xr);
    Tick one_shot = kernels::spmvBaseline(m, a, x, "csr").cycles;
    EXPECT_LT(t.cost(0, 2) - t.cost(0, 1), one_shot);
    EXPECT_LT(t.cost(0, 3) - t.cost(0, 2), one_shot);
}

} // namespace
} // namespace via::serve
