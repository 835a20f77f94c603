/**
 * @file
 * perfbench_iter — one iteration of one benchmark workload.
 *
 * Runs a workload from input generation to a verified result and
 * prints one JSON record on stdout: the iteration's metrics, the
 * number of checked operations and failures, the timed spans, and a
 * fingerprint of every simulated machine's statistics. The program
 * only ever sees inputs generated here from seed=. perfbench/run.py
 * starts one process per iteration, so every iteration pays its own
 * set-up and has its own peak RSS, and aggregates the records into
 * the benchmark's result line (see perfbench/README.md).
 *
 * Spans are the benchmark's own: each wraps one call into a public
 * function of a module (sparse generators and conversion, machine
 * construction, upload*, the *At kernels, spmaParallel,
 * sample::runWith, serve::measureServiceTable / runServe, the host
 * goldens). With trace=1 the simulator's self-profiler is switched
 * on, and each span also records the core/cache/DRAM/FIVU host time
 * spent inside it.
 *
 * Usage:
 *   perfbench_iter workload=NAME seed=N [trace=1] [perturb=1]
 */

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "kernels/spmv.hh"
#include "power/energy_model.hh"
#include "sample/sampling.hh"
#include "serve/executor.hh"
#include "serve/request.hh"
#include "serve/sim.hh"
#include "simcore/options.hh"
#include "simcore/rng.hh"
#include "simcore/selfprof.hh"
#include "sparse/convert.hh"
#include "sparse/csb.hh"
#include "sparse/dense.hh"
#include "sparse/generators.hh"

using namespace via;

namespace
{

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------
// Workload parameters. Changing any of them changes the benchmark.
// ------------------------------------------------------------------

// spmv_csb: the fig10 reference input (bench_report simspeed=1).
constexpr Index kSpmvRows = 16384;
constexpr double kSpmvDensity = 0.005;

// spma_4core: the fig11 inputs on four cores, static partitioning.
constexpr Index kSpmaRows = 8192;
constexpr double kSpmaDensity = 0.004;
constexpr unsigned kSpmaCores = 4;

// rmat1m_sampled: the via_sim_stream_rmat_1m ctest input.
constexpr Index kRmatRows = Index(1) << 20;
constexpr double kRmatDensity = 0.0000019;

// serve_open: two SpMV classes, batches of up to four, open loop at
// a fixed rate below the vector server's saturation. The request
// count puts 2000 requests beyond p99, which keeps the p99 of one
// seed within a few percent of another's.
constexpr const char *kServeMix =
    "spmv:csb:2048:0.01:1,spmv:csr:1024:0.01:1@2";
constexpr unsigned kServeBatch = 4;
constexpr std::uint64_t kServeRequests = 200000;
constexpr double kServeRate = 2.0; //!< requests per Mcycle
/** p99 latency limit for the highest sustainable rate. */
constexpr double kServeP99Limit = 100000.0;

constexpr std::size_t kDomains = std::size_t(selfprof::Domain::N);

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::uint64_t
fnv64(std::string_view text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Self-profiler totals per domain at one instant. */
struct ProfTotals
{
    std::array<std::uint64_t, kDomains> ns{};
    std::array<std::uint64_t, kDomains> calls{};

    static ProfTotals
    now()
    {
        ProfTotals t;
        for (std::size_t d = 0; d < kDomains; ++d) {
            selfprof::DomainStats s =
                selfprof::stats(selfprof::Domain(d));
            t.ns[d] = s.ns;
            t.calls[d] = s.calls;
        }
        return t;
    }

    ProfTotals &
    operator+=(const ProfTotals &o)
    {
        for (std::size_t d = 0; d < kDomains; ++d) {
            ns[d] += o.ns[d];
            calls[d] += o.calls[d];
        }
        return *this;
    }

    double
    seconds(selfprof::Domain d) const
    {
        return double(ns[std::size_t(d)]) * 1e-9;
    }
    std::uint64_t
    count(selfprof::Domain d) const
    {
        return calls[std::size_t(d)];
    }
};

/**
 * The iteration's spans, kept in memory and written with the record.
 * Span 0 is the root ("run"); every other span is one call into a
 * module, named "<module>.<what>".
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0.0; //!< seconds since the root opened
        double end = 0.0;
        ProfTotals prof;    //!< self-profiler time inside the span
    };

    explicit Spans(bool profile) : _profile(profile) {}

    /** Time @p fn as a span named @p name under the open span. */
    template <typename Fn>
    decltype(auto)
    time(const std::string &name, Fn &&fn)
    {
        Guard guard(*this, name);
        return fn();
    }

    const std::vector<Span> &all() const { return _spans; }

    /** Summed duration of the spans named exactly @p name. */
    double
    total(std::string_view name) const
    {
        double s = 0.0;
        for (const Span &sp : _spans)
            if (sp.name == name)
                s += sp.end - sp.start;
        return s;
    }

  private:
    struct Guard
    {
        Guard(Spans &s, const std::string &name)
            : spans(s), id(s.begin(name))
        {}
        ~Guard() { spans.finish(id); }
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;

        Spans &spans;
        int id;
    };

    int
    begin(const std::string &name)
    {
        auto now = Clock::now();
        if (_spans.empty())
            _origin = now;
        Span sp;
        sp.name = name;
        sp.parent = _open.empty() ? -1 : _open.back();
        sp.start = secondsBetween(_origin, now);
        _spans.push_back(std::move(sp));
        _profAtOpen.push_back(_profile ? ProfTotals::now()
                                       : ProfTotals{});
        _open.push_back(int(_spans.size() - 1));
        return _open.back();
    }

    void
    finish(int id)
    {
        Span &sp = _spans[std::size_t(id)];
        if (_profile) {
            ProfTotals at_close = ProfTotals::now();
            const ProfTotals &at_open = _profAtOpen[std::size_t(id)];
            for (std::size_t d = 0; d < kDomains; ++d) {
                sp.prof.ns[d] = at_close.ns[d] - at_open.ns[d];
                sp.prof.calls[d] = at_close.calls[d] - at_open.calls[d];
            }
        }
        sp.end = secondsBetween(_origin, Clock::now());
        _open.pop_back();
    }

    bool _profile;
    Clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<ProfTotals> _profAtOpen;
    std::vector<int> _open; //!< ids of the spans open now, innermost last
};

/** Spans that time set-up: everything before the first simulated
 *  instruction. */
bool
isSetupSpan(const std::string &name)
{
    return name == "sparse.gen" || name == "sparse.convert" ||
           name == "cpu.build" || name == "kernels.upload";
}

/** Spans that run the simulator (the "kernel spans"). */
bool
isSimSpan(const std::string &name)
{
    return (name.starts_with("kernels.") && name.ends_with("_sim")) ||
           name.starts_with("sample.") || name.starts_with("serve.table");
}

/**
 * What one iteration produced: checked operations, the simulated
 * figures the end-to-end metrics come from, and summed counters of
 * every machine whose StatSet the benchmark can read.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Baseline and VIA figures of the same kind: kernel cycles (the
     *  sampled estimate on rmat1m_sampled, which has no baseline), or
     *  p99 request latency on serve_open. */
    double baseCycles = 0.0;
    double viaCycles = 0.0;
    /** Energy (pJ; per request on serve_open); 0 = no figure. */
    double baseEnergyPj = 0.0;
    double viaEnergyPj = 0.0;

    std::uint64_t nnz = 0;
    std::uint64_t simCycles = 0; //!< summed machine cycles
    std::uint64_t simInsts = 0;  //!< summed retired instructions
    std::map<std::string, double> counters; //!< summed by stat name
    std::map<std::string, double> values;   //!< workload figures
    std::string fingerprint; //!< canonical text behind stats_fnv64
    /** Per machine: label and FNV-64 of its stats dump. */
    std::vector<std::pair<std::string, std::string>> machines;

    /** Count one checked operation. */
    void
    check(const std::string &what, bool ok)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: %s MISMATCH\n",
                         what.c_str());
        }
    }

    /** Fold one machine's statistics into the totals and the
     *  fingerprint. */
    void
    absorb(const std::string &label, const StatSet &stats)
    {
        std::ostringstream os;
        stats.dumpJson(os);
        std::string dump = os.str();
        machines.emplace_back(label, hex64(fnv64(dump)));
        fingerprint += label + "=" + dump;
        for (const std::string &name : stats.names())
            counters[name] += stats.get(name);
        if (stats.has("core.cycles"))
            simCycles += std::uint64_t(stats.get("core.cycles"));
        if (stats.has("core.insts"))
            simInsts += std::uint64_t(stats.get("core.insts"));
        if (stats.has("sample.func_insts"))
            simInsts += std::uint64_t(stats.get("sample.func_insts"));
    }

    double
    counter(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    }
};

/** The iteration's context: spans plus the perturbation switch. */
struct Run
{
    Spans spans;
    bool perturb = false;
    Outcome out;
};

/** A copy of @p y with one element moved off the golden (perturb=1
 *  self-test of the result check). */
DenseVector
maybePerturbed(const Run &run, const DenseVector &y)
{
    DenseVector copy = y;
    if (run.perturb && !copy.empty())
        copy[0] += Value(1.0);
    return copy;
}

Csr
maybePerturbed(const Run &run, const Csr &c)
{
    if (!run.perturb || c.nnz() == 0)
        return c;
    std::vector<Value> values = c.values();
    values[0] += Value(1.0);
    return Csr::fromParts(c.rows(), c.cols(), c.rowPtr(), c.colIdx(),
                          std::move(values));
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/** fig10 SpMV: vector-CSR baseline, then VIA CSB (SSPM direct
 *  mapped), one core, detailed mode. */
void
spmvCsb(Run &run, std::uint64_t seed)
{
    Spans &sp = run.spans;
    Outcome &out = run.out;
    Rng rng(seed);
    Csr a = sp.time("sparse.gen", [&] {
        return genUniform(kSpmvRows, kSpmvRows, kSpmvDensity, rng);
    });
    DenseVector x = sp.time("sparse.gen", [&] {
        return randomVector(a.cols(), rng);
    });
    out.nnz = a.nnz();

    MachineParams params{};
    auto base = sp.time("cpu.build",
                        [&] { return std::make_unique<Machine>(params); });
    auto viam = sp.time("cpu.build",
                        [&] { return std::make_unique<Machine>(params); });
    Csb csb = sp.time("sparse.convert", [&] {
        return Csb::fromCsr(a, kernels::viaCsbBeta(*viam));
    });
    kernels::CsrImage bimg = sp.time(
        "kernels.upload", [&] { return kernels::uploadCsr(*base, a); });
    kernels::CsbImage vimg = sp.time(
        "kernels.upload", [&] { return kernels::uploadCsb(*viam, csb); });

    kernels::SpmvResult bres = sp.time("kernels.base_sim", [&] {
        return kernels::spmvVectorCsrAt(*base, a, bimg, x);
    });
    kernels::SpmvResult vres = sp.time("kernels.via_sim", [&] {
        return kernels::spmvViaCsbAt(*viam, csb, vimg, x);
    });

    sp.time("check.golden", [&] {
        DenseVector golden = a.multiply(x);
        out.check("spmv vector CSR", allClose(bres.y, golden));
        out.check("spmv VIA CSB",
                  allClose(maybePerturbed(run, vres.y), golden));
    });

    sp.time("check.fingerprint", [&] {
        out.baseCycles = double(bres.cycles);
        out.viaCycles = double(vres.cycles);
        out.baseEnergyPj = computeEnergy(*base).totalPj();
        out.viaEnergyPj = computeEnergy(*viam).totalPj();
        out.absorb("base", base->stats());
        out.absorb("via", viam->stats());
    });
}

/** fig11 SpMA on four cores over the shared LLC: scalar merge, then
 *  VIA CAM, static partitioning. */
void
spma4Core(Run &run, std::uint64_t seed)
{
    Spans &sp = run.spans;
    Outcome &out = run.out;
    Rng rng(seed);
    Csr a = sp.time("sparse.gen", [&] {
        return genUniform(kSpmaRows, kSpmaRows, kSpmaDensity, rng);
    });
    Csr b = sp.time("sparse.gen", [&] {
        return genUniform(kSpmaRows, kSpmaRows, kSpmaDensity, rng);
    });
    out.nnz = a.nnz() + b.nnz();

    MachineParams params{};
    SharedLlcParams llc = SharedLlcParams::from(params.mem, kSpmaCores);
    auto base = sp.time("cpu.build", [&] {
        return std::make_unique<MultiMachine>(params, kSpmaCores, llc);
    });
    auto viam = sp.time("cpu.build", [&] {
        return std::make_unique<MultiMachine>(params, kSpmaCores, llc);
    });

    // spmaParallel uploads its operands itself, so upload time falls
    // inside the kernel spans here.
    kernels::SpmaResult bres = sp.time("kernels.base_sim", [&] {
        return kernels::spmaParallel(*base, a, b,
                                     kernels::Partition::Static, false);
    });
    kernels::SpmaResult vres = sp.time("kernels.via_sim", [&] {
        return kernels::spmaParallel(*viam, a, b,
                                     kernels::Partition::Static, true);
    });

    sp.time("check.golden", [&] {
        Csr golden = addCsr(a, b);
        out.check("spma scalar merge",
                  closeElements(bres.c, golden, 1e-3));
        out.check("spma VIA CAM",
                  closeElements(maybePerturbed(run, vres.c), golden,
                                1e-3));
    });

    sp.time("check.fingerprint", [&] {
        out.baseCycles = double(bres.cycles);
        out.viaCycles = double(vres.cycles);
        out.baseEnergyPj = computeEnergyMulti(*base).totalPj();
        out.viaEnergyPj = computeEnergyMulti(*viam).totalPj();
        auto absorbAll = [&](const char *tag, MultiMachine &mm) {
            out.absorb(std::string(tag) + ".shared", mm.stats());
            for (unsigned c = 0; c < mm.cores(); ++c)
                out.absorb(std::string(tag) + ".core" +
                               std::to_string(c),
                           mm.core(c).stats());
        };
        absorbAll("base", *base);
        absorbAll("via", *viam);
    });
}

/** 2^20-row streamed RMAT SpMV, VIA CSR in sampled mode. Generation
 *  and the functional warm path dominate; there is no baseline run,
 *  so the workload has no speedup figure. */
void
rmatSampled(Run &run, std::uint64_t seed)
{
    Spans &sp = run.spans;
    Outcome &out = run.out;
    Rng rng(seed);
    const auto target = std::size_t(kRmatDensity * double(kRmatRows) *
                                    double(kRmatRows));
    Csr a = sp.time("sparse.gen",
                    [&] { return genRmatCsr(kRmatRows, target, rng); });
    DenseVector x = sp.time("sparse.gen", [&] {
        return randomVector(a.cols(), rng);
    });
    out.nnz = a.nnz();

    MachineParams params{};
    auto viam = sp.time("cpu.build",
                        [&] { return std::make_unique<Machine>(params); });
    kernels::CsrImage img = sp.time(
        "kernels.upload", [&] { return kernels::uploadCsr(*viam, a); });

    sample::SampleOptions sopts;
    sopts.mode = sample::SimMode::Sampled;
    kernels::SpmvResult res;
    sample::SampleEstimate est = sp.time("sample.via_sim", [&] {
        return sample::runWith(*viam, sopts, [&] {
            res = kernels::spmvViaCsrAt(*viam, a, img, x);
        });
    });

    sp.time("check.golden", [&] {
        out.check("sampled spmv VIA CSR",
                  allClose(maybePerturbed(run, res.y), a.multiply(x)));
    });

    sp.time("check.fingerprint", [&] {
        out.viaCycles = est.cycles;
        out.values["sample.ci_pct"] =
            est.cycles > 0.0 ? 50.0 * (est.ciHigh - est.ciLow) / est.cycles
                             : 0.0;
        out.values["sample.windows"] = double(est.intervals);
        out.absorb("via", viam->stats());
        // A sampled machine's own cycle count covers only its detailed
        // windows; the run's simulated length is the estimate.
        out.simCycles = std::uint64_t(std::llround(est.cycles));
        char buf[128];
        std::snprintf(buf, sizeof(buf), "estimate=%.17g ci=%.17g/%.17g;",
                      est.cycles, est.ciLow, est.ciHigh);
        out.fingerprint += buf;
    });
}

/** Highest open-loop rate at which @p table meets the p99 limit with
 *  every request served and no growing backlog (throughput keeps up
 *  with the offered rate). Bisection over DES re-runs of the table
 *  already measured; no kernel is simulated again. */
double
maxSustainableRate(const std::vector<serve::RequestClass> &mix,
                   const serve::TableServiceModel &table,
                   serve::ServeConfig sc)
{
    auto meets = [&](double rate) {
        sc.ratePerMcycle = rate;
        serve::ServeReport r = serve::runServe(mix, table, sc);
        return r.requests == sc.requests &&
               r.latency.p99() <= kServeP99Limit &&
               r.throughputPerMcycle >= 0.9 * rate;
    };
    // Bracket by doubling from a quarter of the fixed rate, then
    // bisect the bracket to within 1%.
    double lo = kServeRate / 4.0;
    while (lo > 1e-6 && !meets(lo))
        lo /= 4.0;
    if (lo <= 1e-6)
        return 0.0;
    double hi = 2.0 * lo;
    while (hi < 1e6 && meets(hi)) {
        lo = hi;
        hi *= 2.0;
    }
    while (hi / lo > 1.01) {
        double mid = std::sqrt(lo * hi);
        (meets(mid) ? lo : hi) = mid;
    }
    return lo;
}

/** Serving: a two-class SpMV mix, measured into base and VIA service
 *  tables, replayed open loop at a fixed rate. */
void
serveOpen(Run &run, std::uint64_t seed)
{
    Spans &sp = run.spans;
    Outcome &out = run.out;
    std::vector<serve::RequestClass> mix = serve::parseMix(kServeMix);

    // measureServiceTable never checks a kernel output, so each class
    // is verified once on fresh machines, base and VIA, against the
    // host golden. This set-up precedes the first simulated
    // instruction of the workload.
    struct Verify
    {
        Csr a;
        DenseVector x;
        std::unique_ptr<Machine> m[2];
        std::unique_ptr<kernels::SpmvResident> res[2];
    };
    std::vector<Verify> verify(mix.size());
    Rng rng(seed);
    MachineParams params{};
    for (std::size_t i = 0; i < mix.size(); ++i) {
        Verify &v = verify[i];
        v.a = sp.time("sparse.gen",
                      [&] { return serve::classMatrix(mix[i], i, seed); });
        v.x = sp.time("sparse.gen",
                      [&] { return randomVector(v.a.cols(), rng); });
        out.nnz += v.a.nnz();
        for (int via = 0; via < 2; ++via) {
            v.m[via] = sp.time("cpu.build", [&] {
                return std::make_unique<Machine>(params);
            });
            v.res[via] = sp.time("kernels.upload", [&] {
                return std::make_unique<kernels::SpmvResident>(
                    *v.m[via], v.a, mix[i].format, via == 1);
            });
        }
    }
    for (std::size_t i = 0; i < mix.size(); ++i) {
        Verify &v = verify[i];
        kernels::SpmvResult r[2];
        for (int via = 0; via < 2; ++via)
            r[via] = sp.time(via ? "kernels.via_sim" : "kernels.base_sim",
                             [&] { return v.res[via]->run(*v.m[via], v.x); });
        sp.time("check.golden", [&] {
            DenseVector golden = v.a.multiply(v.x);
            out.check("serve class " + mix[i].name() + " base",
                      allClose(r[0].y, golden));
            out.check("serve class " + mix[i].name() + " VIA",
                      allClose(maybePerturbed(run, r[1].y), golden));
        });
    }

    serve::ExecutorConfig ex;
    ex.batchMax = kServeBatch;
    ex.threads = 1;
    ex.seed = seed;
    serve::ExecutorConfig exv = ex;
    exv.via = true;
    serve::TableServiceModel base_table = sp.time("serve.table_base", [&] {
        return serve::measureServiceTable(mix, ex);
    });
    serve::TableServiceModel via_table = sp.time("serve.table_via", [&] {
        return serve::measureServiceTable(mix, exv);
    });

    serve::ServeConfig sc;
    sc.requests = kServeRequests;
    sc.ratePerMcycle = kServeRate;
    sc.batchMax = kServeBatch;
    sc.seed = seed;
    serve::ServeReport base, via;
    double max_rate = 0.0;
    sp.time("serve.des", [&] {
        base = serve::runServe(mix, base_table, sc);
        via = serve::runServe(mix, via_table, sc);
        max_rate = maxSustainableRate(mix, via_table, sc);
    });

    // Every issued request is a checked operation; one left unserved
    // is a failure.
    for (const serve::ServeReport *r : {&base, &via}) {
        out.attempted += sc.requests;
        if (r->requests < sc.requests) {
            out.failed += sc.requests - r->requests;
            std::fprintf(stderr, "perfbench: %llu of %llu requests "
                                 "unserved\n",
                         static_cast<unsigned long long>(
                             sc.requests - r->requests),
                         static_cast<unsigned long long>(sc.requests));
        }
    }

    sp.time("check.fingerprint", [&] {
        out.baseCycles = base.latency.p99();
        out.viaCycles = via.latency.p99();
        out.baseEnergyPj = base.energyPerRequestPj;
        out.viaEnergyPj = via.energyPerRequestPj;
        out.values["serve.p50_cycles"] = via.latency.p50();
        out.values["serve.p99_cycles"] = via.latency.p99();
        out.values["serve.queue_p99_cycles"] = via.queueing.p99();
        out.values["serve.mean_batch"] = via.meanBatch;
        out.values["serve.max_rate_per_mcycle"] = max_rate;
        out.values["serve.table_points"] =
            double(2 * mix.size() * kServeBatch);
        for (std::size_t i = 0; i < mix.size(); ++i)
            for (int w = 0; w < 2; ++w)
                out.absorb("verify" + std::to_string(i) +
                               (w ? ".via" : ".base"),
                           verify[i].m[w]->stats());
        std::string text;
        char buf[256];
        for (const serve::TableServiceModel *t : {&base_table, &via_table})
            for (std::size_t c = 0; c < mix.size(); ++c)
                for (unsigned n = 1; n <= kServeBatch; ++n) {
                    std::snprintf(buf, sizeof(buf), "t%zu/%u=%llu/%.17g;",
                                  c, n,
                                  static_cast<unsigned long long>(
                                      t->cost(c, n)),
                                  t->energyPj(c, n));
                    text += buf;
                }
        for (const serve::ServeReport *r : {&base, &via}) {
            std::snprintf(buf, sizeof(buf),
                          "req=%llu batches=%llu makespan=%llu "
                          "p50=%.17g p99=%.17g q99=%.17g pj=%.17g;",
                          static_cast<unsigned long long>(r->requests),
                          static_cast<unsigned long long>(r->batches),
                          static_cast<unsigned long long>(r->makespan),
                          r->latency.p50(), r->latency.p99(),
                          r->queueing.p99(), r->energyPerRequestPj);
            text += buf;
        }
        std::snprintf(buf, sizeof(buf), "max_rate=%.17g;", max_rate);
        out.fingerprint += text + buf;
    });
}

// ------------------------------------------------------------------
// The record
// ------------------------------------------------------------------

/** JSON writer for one flat record (names are plain identifiers). */
class Record
{
  public:
    void
    num(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(v) ? v : 0.0);
        field(key, buf);
    }
    void
    str(const std::string &key, const std::string &v)
    {
        field(key, "\"" + v + "\"");
    }
    void raw(const std::string &key, const std::string &v) { field(key, v); }

    std::string text() const { return "{" + _body + "}"; }

  private:
    void
    field(const std::string &key, const std::string &v)
    {
        if (!_body.empty())
            _body += ", ";
        _body += "\"" + key + "\": " + v;
    }

    std::string _body;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Every metric of one iteration, end-to-end and per layer. */
Record
metrics(const Run &run, double wall, double peak_rss_mb)
{
    const Spans &sp = run.spans;
    const Outcome &out = run.out;

    double setup = 0.0, sim = 0.0, sim_with_stats = 0.0;
    double top = 0.0;
    ProfTotals prof;
    for (const Spans::Span &s : sp.all()) {
        double d = s.end - s.start;
        if (s.parent == 0)
            top += d;
        if (isSetupSpan(s.name))
            setup += d;
        if (isSimSpan(s.name)) {
            sim += d;
            prof += s.prof;
            // serve.table_* machines are internal to the executor;
            // their instructions cannot be counted.
            if (!s.name.starts_with("serve."))
                sim_with_stats += d;
        }
    }
    using D = selfprof::Domain;
    double prof_s = prof.seconds(D::Core) + prof.seconds(D::Cache) +
                    prof.seconds(D::Dram) + prof.seconds(D::Fivu);
    auto value = [&](const char *key) {
        auto it = out.values.find(key);
        return it == out.values.end() ? 0.0 : it->second;
    };
    auto c = [&](const char *key) { return out.counter(key); };

    Record r;
    // End to end.
    r.num("wall_s", wall);
    r.num("setup_s", setup);
    r.num("sim_mips", ratio(double(out.simInsts), sim_with_stats) / 1e6);
    r.num("peak_rss_mb", peak_rss_mb);
    r.num("via_cycles", out.viaCycles);

    // via: the FIVU and SSPM/CAM.
    r.num("via.fivu_host_s", prof.seconds(D::Fivu));
    r.num("via.fivu_dispatches", double(prof.count(D::Fivu)));
    r.num("via.us_per_dispatch",
          ratio(prof.seconds(D::Fivu) * 1e6, double(prof.count(D::Fivu))));
    r.num("via.fivu.busy_cycles", c("fivu.busy_cycles"));
    r.num("via.sspm.direct_accesses",
          c("sspm.direct_reads") + c("sspm.direct_writes"));
    r.num("via.sspm.cam_accesses",
          c("sspm.cam_reads") + c("sspm.cam_writes"));
    r.num("via.cam.searches", c("cam.searches"));
    r.num("via.cam.comparisons_per_search",
          ratio(c("cam.comparisons"), c("cam.searches")));
    r.num("via.cam.overflows", c("cam.overflows"));
    r.num("via.speedup", ratio(out.baseCycles, out.viaCycles));
    r.num("via.energy_ratio", ratio(out.baseEnergyPj, out.viaEnergyPj));

    // cpu: the out-of-order core.
    r.num("cpu.host_s", prof.seconds(D::Core));
    r.num("cpu.pushes", double(prof.count(D::Core)));
    r.num("cpu.ns_per_push",
          ratio(prof.seconds(D::Core) * 1e9, double(prof.count(D::Core))));
    r.num("cpu.insts", c("core.insts"));
    r.num("cpu.ipc", ratio(double(out.simInsts), double(out.simCycles)));
    r.num("cpu.mispredict_rate",
          ratio(c("core.mispredicts"), c("core.branches")));
    r.num("cpu.gather_elements", c("core.gather_elements"));

    // mem: caches, shared LLC and DRAM.
    r.num("mem.cache_host_s", prof.seconds(D::Cache));
    r.num("mem.cache_walks", double(prof.count(D::Cache)));
    r.num("mem.dram_host_s", prof.seconds(D::Dram));
    r.num("mem.l1d.hit_rate",
          ratio(c("mem.l1d.hits"), c("mem.l1d.reads") + c("mem.l1d.writes")));
    double l2_acc = c("mem.l2.reads") + c("mem.l2.writes");
    r.num("mem.l2.miss_rate",
          l2_acc > 0.0 ? 1.0 - c("mem.l2.hits") / l2_acc : 0.0);
    r.num("mem.dram.bytes",
          c("mem.dram.bytes_read") + c("mem.dram.bytes_written") +
              c("dram.bytes_read") + c("dram.bytes_written"));
    r.num("mem.dram.queue_cycles",
          c("mem.dram.queue_cycles") + c("dram.queue_cycles"));
    double llc_acc = c("llc.reads") + c("llc.writes");
    r.num("mem.llc.miss_rate",
          llc_acc > 0.0 ? 1.0 - c("llc.hits") / llc_acc : 0.0);
    r.num("mem.llc.bank_queue_cycles", c("llc.bank_queue_cycles"));
    r.num("mem.llc.early_fetches", c("llc.early_fetches"));

    // sparse: generation and conversion.
    r.num("sparse.gen_s", sp.total("sparse.gen"));
    r.num("sparse.convert_s", sp.total("sparse.convert"));
    r.num("sparse.nnz", double(out.nnz));

    // kernels: upload, the kernel spans, and what the self-profiler's
    // domains leave unattributed inside them.
    r.num("kernels.upload_s", sp.total("kernels.upload"));
    r.num("kernels.base_sim_s", sp.total("kernels.base_sim"));
    r.num("kernels.via_sim_s", sp.total("kernels.via_sim"));
    r.num("kernels.ns_per_cycle",
          ratio(sim_with_stats * 1e9, double(out.simCycles)));
    r.num("kernels.other_s", sim - prof_s);

    // sample: interval sampling.
    r.num("sample.sim_s",
          sp.total("sample.base_sim") + sp.total("sample.via_sim"));
    r.num("sample.windows", value("sample.windows"));
    r.num("sample.detailed_frac",
          value("sample.windows") > 0.0
              ? ratio(c("core.insts"), double(out.simInsts))
              : 0.0);
    r.num("sample.func_insts", c("sample.func_insts"));
    r.num("sample.ci_pct", value("sample.ci_pct"));

    // serve: table measurement and the queueing DES.
    r.num("serve.table_s",
          sp.total("serve.table_base") + sp.total("serve.table_via"));
    r.num("serve.des_s", sp.total("serve.des"));
    r.num("serve.table_points", value("serve.table_points"));
    r.num("serve.mean_batch", value("serve.mean_batch"));
    r.num("serve.queue_p99_cycles", value("serve.queue_p99_cycles"));
    r.num("serve.p50_cycles", value("serve.p50_cycles"));
    r.num("serve.p99_cycles", value("serve.p99_cycles"));
    r.num("serve.max_rate_per_mcycle",
          value("serve.max_rate_per_mcycle"));

    // check: host goldens.
    r.num("check.golden_s", sp.total("check.golden"));

    // Run level: wall time outside every span.
    r.num("other_s", wall - top);
    return r;
}

std::string
spansJson(const Spans &sp)
{
    std::string text = "[";
    for (const Spans::Span &s : sp.all()) {
        Record r;
        r.str("name", s.name);
        r.num("parent", s.parent);
        r.num("start", s.start);
        r.num("end", s.end);
        using D = selfprof::Domain;
        for (D d : {D::Core, D::Cache, D::Dram, D::Fivu, D::EventQueue})
            if (s.prof.count(d) > 0)
                r.num(std::string("prof_") + selfprof::domainName(d) + "_s",
                      s.prof.seconds(d));
        if (text.size() > 1)
            text += ", ";
        text += r.text();
    }
    return text + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("perfbench_iter",
                 "One iteration of one benchmark workload; prints one "
                 "JSON record");
    opts.addString("workload", "",
                   "spmv_csb | spma_4core | rmat1m_sampled | serve_open")
        .addUInt("seed", 1, "input generator seed")
        .addFlag("trace", "self-profile the simulator inside each span")
        .addFlag("perturb",
                 "self-test: move one element of a copy of the VIA "
                 "result off the golden before it is checked");
    opts.parse(argc, argv);

    const std::string workload = opts.getString("workload");
    const std::uint64_t seed = opts.getUInt("seed");
    const bool trace = opts.getBool("trace");

    using WorkloadFn = void (*)(Run &, std::uint64_t);
    const std::map<std::string, WorkloadFn> workloads = {
        {"spmv_csb", spmvCsb},
        {"spma_4core", spma4Core},
        {"rmat1m_sampled", rmatSampled},
        {"serve_open", serveOpen},
    };
    auto it = workloads.find(workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "perfbench_iter: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }

    selfprof::enable(trace);
    Run run{Spans(trace), opts.getBool("perturb"), Outcome{}};
    run.spans.time("run", [&] { it->second(run, seed); });
    const Spans::Span &root = run.spans.all().front();
    const double wall = root.end - root.start;

    // Every selfprof nanosecond must fall inside a kernel span, or the
    // per-layer split would not add up.
    bool accounting_ok = true;
    if (trace) {
        ProfTotals inside;
        for (const Spans::Span &s : run.spans.all())
            if (isSimSpan(s.name))
                inside += s.prof;
        accounting_ok = inside.ns == ProfTotals::now().ns;
        if (!accounting_ok)
            std::fprintf(stderr, "perfbench: self-profiled time "
                                 "outside the kernel spans\n");
    }

    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = double(ru.ru_maxrss) / 1024.0;

    Record rec;
    rec.str("workload", workload);
    rec.num("seed", double(seed));
    rec.num("trace", trace ? 1 : 0);
    rec.num("attempted", double(run.out.attempted));
    rec.num("failed", double(run.out.failed));
    rec.raw("metrics", metrics(run, wall, peak_rss_mb).text());
    rec.num("sim_cycles", double(run.out.simCycles));
    rec.num("sim_insts", double(run.out.simInsts));
    rec.str("stats_fnv64", hex64(fnv64(run.out.fingerprint)));
    Record machines;
    for (const auto &[label, fnv] : run.out.machines)
        machines.str(label, fnv);
    rec.raw("machines", machines.text());
    rec.raw("spans", spansJson(run.spans));
    std::printf("%s\n", rec.text().c_str());

    return run.out.failed == 0 && accounting_ok ? 0 : 1;
}
