/**
 * @file
 * via_serve — request-driven serving harness (docs/serving.md).
 *
 * Simulates an accelerator serving a stream of sparse-kernel
 * requests: a traffic generator (open-loop Poisson or closed-loop
 * clients), a batching scheduler that coalesces same-class requests
 * against a resident matrix, and a batch executor that prices every
 * (class, batch size) pair with the cycle-level simulator — warm
 * checkpoint fan-out on one core, fresh parallel machines on
 * cores>1. Reports end-to-end latency percentiles, throughput, and
 * energy per request, for the vector baseline and the kernels of
 * the backend= machine (VIA by default; the "via" report) side by
 * side.
 *
 * Usage: via_serve [key=value ...]
 *
 * Traffic:
 *   arrivals=A      open | closed                  (default open)
 *   requests=N      requests to serve              (default 200)
 *   rate=R          open: arrivals per Mcycle      (default 2.0)
 *   clients=C       closed: client pool size       (default 4)
 *   think=T         closed: mean think cycles      (default 50000)
 *   mix=SPEC        classes "kernel:format:rows:density:vecs[@w]"
 *                   comma-separated (see docs/serving.md)
 *   batch=B         scheduler's max batch size     (default 8)
 *   seed=S          traffic + matrix seed          (default 1)
 *
 * Execution:
 *   cores=N, partition=, llc_banks=   multi-core machine
 *   machine keys (sspm_kb=, rob=, ...) as in via_sim
 *   threads=N       measurement pool width (0 = hardware)
 *
 * Output:
 *   json=1          machine-readable report (bench_report's gate)
 *   trace=1         also dump the request trace (id cls arrival)
 *   sweep_sspm_kb=LIST  repeat the whole run per SSPM size and
 *                   print one summary line each (the shared-SSPM
 *                   budget experiment; see EXPERIMENTS.md)
 *
 * All output is simulated-deterministic: same keys + seed give
 * byte-identical stdout at any threads=N.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cpu/machine_config.hh"
#include "serve/executor.hh"
#include "serve/request.hh"
#include "serve/sim.hh"
#include "simcore/options.hh"

namespace via
{
namespace
{

Options
serveOptions()
{
    Options opts("via_serve",
                 "Serve a request stream of sparse kernels with "
                 "batching; report latency percentiles, throughput "
                 "and energy per request, base vs VIA");
    opts.addString("arrivals", "open",
                   "traffic shape: open (Poisson) | closed "
                   "(client pool)",
                   {"open", "closed"})
        .addUInt("requests", 200, "requests to serve", 1)
        .addDouble("rate", 2.0,
                   "open loop: arrivals per million cycles", 1e-6)
        .addUInt("clients", 4, "closed loop: client pool size", 1)
        .addDouble("think", 50000.0,
                   "closed loop: mean think time in cycles", 0.0)
        .addString("mix", "spmv:csr:256:0.05:1",
                   "traffic classes, comma-separated "
                   "kernel:format:rows:density:vecs[@weight]")
        .addUInt("batch", 8, "max requests coalesced per batch", 1,
                 64)
        .addUInt("seed", 1, "traffic and matrix seed")
        .addFlag("json", "machine-readable report")
        .addFlag("trace", "also dump the request trace")
        .addString("sweep_sspm_kb", "",
                   "comma list of SSPM sizes: repeat the run per "
                   "size, one summary line each");
    addThreadsOption(opts);
    addSelfProfOption(opts);
    addMachineOptions(opts);
    addMultiCoreOptions(opts);
    return opts;
}

/** JSON number formatting matching StatSet::dumpJson: integers
 *  print exactly, doubles round-trip. */
std::string
jsonNum(double v)
{
    char buf[40];
    if (!std::isfinite(v))
        return "null";
    if (v == std::floor(v) && std::abs(v) < 9.0e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

struct RunResult
{
    serve::ServeReport base;
    serve::ServeReport via;
};

/** Measure both tables and run the serving loop twice on the same
 *  traffic: identical arrivals, different service times. */
RunResult
runOnce(const std::vector<serve::RequestClass> &mix,
        const serve::ExecutorConfig &exec_base,
        const serve::ServeConfig &scfg)
{
    serve::ExecutorConfig exec_via = exec_base;
    exec_via.via = true;

    serve::TableServiceModel base_table =
        serve::measureServiceTable(mix, exec_base);
    serve::TableServiceModel via_table =
        serve::measureServiceTable(mix, exec_via);

    RunResult out;
    out.base = serve::runServe(mix, base_table, scfg);
    out.via = serve::runServe(mix, via_table, scfg);
    return out;
}

void
printReportText(const char *label, const serve::ServeReport &r)
{
    std::printf("%-5s requests=%llu batches=%llu mean_batch=%.2f "
                "makespan=%llu\n",
                label, (unsigned long long)r.requests,
                (unsigned long long)r.batches, r.meanBatch,
                (unsigned long long)r.makespan);
    std::printf("      throughput=%.4f req/Mcycle  "
                "energy/request=%.1f pJ\n",
                r.throughputPerMcycle, r.energyPerRequestPj);
    std::printf("      latency cycles: mean=%.0f p50=%.0f "
                "p95=%.0f p99=%.0f max=%.0f\n",
                r.latency.mean(), r.latency.p50(), r.latency.p95(),
                r.latency.p99(), r.latency.max());
    std::printf("      queueing cycles: mean=%.0f p99=%.0f\n",
                r.queueing.mean(), r.queueing.p99());
}

void
printReportJson(const char *label, const serve::ServeReport &r,
                bool last)
{
    std::printf("  \"%s\": {\n", label);
    std::printf("    \"requests\": %s,\n",
                jsonNum(double(r.requests)).c_str());
    std::printf("    \"batches\": %s,\n",
                jsonNum(double(r.batches)).c_str());
    std::printf("    \"mean_batch\": %s,\n",
                jsonNum(r.meanBatch).c_str());
    std::printf("    \"makespan_cycles\": %s,\n",
                jsonNum(double(r.makespan)).c_str());
    std::printf("    \"throughput_per_mcycle\": %s,\n",
                jsonNum(r.throughputPerMcycle).c_str());
    std::printf("    \"energy_per_request_pj\": %s,\n",
                jsonNum(r.energyPerRequestPj).c_str());
    std::printf("    \"latency_mean\": %s,\n",
                jsonNum(r.latency.mean()).c_str());
    std::printf("    \"latency_p50\": %s,\n",
                jsonNum(r.latency.p50()).c_str());
    std::printf("    \"latency_p95\": %s,\n",
                jsonNum(r.latency.p95()).c_str());
    std::printf("    \"latency_p99\": %s,\n",
                jsonNum(r.latency.p99()).c_str());
    std::printf("    \"latency_max\": %s,\n",
                jsonNum(r.latency.max()).c_str());
    std::printf("    \"queueing_mean\": %s,\n",
                jsonNum(r.queueing.mean()).c_str());
    std::printf("    \"queueing_p99\": %s\n",
                jsonNum(r.queueing.p99()).c_str());
    std::printf("  }%s\n", last ? "" : ",");
}

int
runServeMain(const Options &opts)
{
    const bool closed = opts.getString("arrivals") == "closed";
    serve::ExecutorConfig ex;
    ex.params = machineParamsFrom(opts);
    ex.cores = unsigned(opts.getUInt("cores"));
    // The shared-SSPM budget sweep reruns everything per SSPM size;
    // every size is checked as an sspm_kb= value before any runs.
    std::vector<std::string> sweep_kbs;
    std::vector<MachineParams> sweep_params;
    if (!opts.getString("sweep_sspm_kb").empty()) {
        sweep_kbs = opts.getList("sweep_sspm_kb", "sspm_kb");
        for (const std::string &kb : sweep_kbs)
            sweep_params.push_back(
                machineParamsFrom(opts.with("sspm_kb", kb)));
    }

    auto mix = serve::parseMix(opts.getString("mix"));

    serve::ServeConfig scfg;
    scfg.closed = closed;
    scfg.requests = opts.getUInt("requests");
    scfg.ratePerMcycle = opts.getDouble("rate");
    scfg.clients = unsigned(opts.getUInt("clients"));
    scfg.thinkCycles = opts.getDouble("think");
    scfg.batchMax = unsigned(opts.getUInt("batch"));
    scfg.seed = opts.getUInt("seed");
    scfg.keepTrace = opts.getBool("trace");

    if (ex.cores > 1)
        ex.llc = sharedLlcParamsFrom(opts, ex.params, ex.cores);
    ex.partition = kernels::parsePartition(opts.getString("partition"));
    ex.batchMax = scfg.batchMax;
    ex.threads = unsigned(opts.getUInt("threads"));
    ex.seed = scfg.seed;

    if (!sweep_kbs.empty()) {
        std::printf("# sspm_kb base_p99 via_p99 via_speedup_p99 "
                    "base_pj via_pj\n");
        for (std::size_t i = 0; i < sweep_kbs.size(); ++i) {
            serve::ExecutorConfig pex = ex;
            pex.params = sweep_params[i];
            RunResult r = runOnce(mix, pex, scfg);
            std::printf("%s %.0f %.0f %.3f %.1f %.1f\n",
                        sweep_kbs[i].c_str(),
                        r.base.latency.p99(), r.via.latency.p99(),
                        r.via.latency.p99() > 0.0
                            ? r.base.latency.p99() /
                                  r.via.latency.p99()
                            : 0.0,
                        r.base.energyPerRequestPj,
                        r.via.energyPerRequestPj);
        }
        return 0;
    }

    RunResult r = runOnce(mix, ex, scfg);

    double speedup_p99 =
        r.via.latency.p99() > 0.0
            ? r.base.latency.p99() / r.via.latency.p99()
            : 0.0;
    double energy_ratio =
        r.via.energyPerRequestPj > 0.0
            ? r.base.energyPerRequestPj / r.via.energyPerRequestPj
            : 0.0;

    if (opts.getBool("json")) {
        std::printf("{\n");
        std::printf("  \"arrivals\": \"%s\",\n",
                    closed ? "closed" : "open");
        std::printf("  \"cores\": %u,\n", ex.cores);
        std::printf("  \"classes\": %zu,\n", mix.size());
        printReportJson("base", r.base, false);
        printReportJson("via", r.via, false);
        std::printf("  \"via_speedup_p99\": %s,\n",
                    jsonNum(speedup_p99).c_str());
        std::printf("  \"via_energy_ratio\": %s\n",
                    jsonNum(energy_ratio).c_str());
        std::printf("}\n");
    } else {
        std::printf("serving %llu requests (%s loop), %zu classes, "
                    "cores=%u batch<=%u\n",
                    (unsigned long long)scfg.requests,
                    closed ? "closed" : "open", mix.size(),
                    ex.cores, scfg.batchMax);
        for (std::size_t i = 0; i < mix.size(); ++i)
            std::printf("  class %zu: %s weight=%g served=%llu\n",
                        i, mix[i].name().c_str(), mix[i].weight,
                        (unsigned long long)r.base.perClass[i]);
        printReportText("base", r.base);
        printReportText("via", r.via);
        std::printf("VIA p99 speedup: %.3fx   energy ratio: "
                    "%.3fx\n",
                    speedup_p99, energy_ratio);
    }

    if (scfg.keepTrace) {
        std::printf("trace (%zu requests):\n", r.base.trace.size());
        std::fputs(serve::traceBytes(r.base.trace).c_str(), stdout);
    }
    return 0;
}

} // namespace
} // namespace via

int
main(int argc, char **argv)
{
    via::Options opts = via::serveOptions();
    opts.parse(argc, argv);
    via::applySelfProfOption(opts);
    return via::runServeMain(opts);
}
