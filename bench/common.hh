/**
 * @file
 * Shared support for the benchmark harnesses: option parsing, the
 * corpus keys, and paper-style table printing.
 */

#ifndef VIA_BENCH_COMMON_HH
#define VIA_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "sample/sampling.hh"
#include "simcore/options.hh"
#include "simcore/parallel.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"
#include "sparse/csr.hh"
#include "trace/trace_io.hh"

namespace via::bench
{

/**
 * A structural sibling of @p a for SpMA workloads: ~60% shared
 * positions, ~40% fresh ones — the mix that makes merge branches
 * unpredictable.
 */
Csr makeSibling(const Csr &a, Rng &rng);

/**
 * The shared options registry of a bench harness: threads= and
 * selfprof= come pre-registered. The harness adds its own keys
 * (and the machine/sample/trace groups it actually wires up), then
 * calls parse().
 */
Options benchOptions(const std::string &binary,
                     const std::string &description);

/**
 * The corpus keys of a harness that sweeps a generated corpus:
 * count= and seed=, and max_rows= unless @p max_rows_key is false
 * (the largest dimension is then fixed), defaulting to @p dflt's
 * count, seed and maxRows. max_rows= is bounded below by
 * dflt.minRows, so a size buildCorpus cannot honour exits 2 naming
 * the range.
 */
void addCorpusOptions(Options &opts, const CorpusSpec &dflt,
                      const std::string &count_help = "corpus matrices",
                      bool max_rows_key = true);

/** @p dflt with the parsed corpus keys applied. */
CorpusSpec corpusSpec(const Options &opts, CorpusSpec dflt);

/**
 * The sweep executor for a harness: honors the shared threads=N
 * key (default 0 = hardware concurrency). Output is bit-identical
 * at every thread count; threads=1 recovers serial execution.
 */
SweepExecutor makeExecutor(const Options &opts);

/**
 * The shared tracing knobs (trace=, trace_format=, trace_limit=,
 * trace_summary=), parsed once per harness. Harness points run on
 * worker threads, so each traced Machine writes its own file (the
 * harness passes a per-point suffix to finishTracing); the stdout
 * roll-up is only honored with threads=1, where output stays
 * deterministic.
 */
TraceOptions traceOptions(const Options &opts);

/**
 * The shared sampled-simulation knobs (mode=, sample_interval=,
 * sample_warmup=, sample_measure=), parsed once per harness. The
 * figures compare cycle counts, so mode=functional (which models no
 * timing) is a usage error (exit 2) here; mode=sampled lets a
 * harness take inputs far beyond what detailed simulation sustains,
 * at the documented error bound (docs/sampling.md).
 */
sample::SampleOptions sampleOptions(const Options &opts);

/**
 * The rows of a paper-style category table: the matrices split into
 * four even buckets by @p keys (sorted ascending, as the paper
 * does), one "catN (<key_name>~median)" row per non-empty bucket
 * with the geomean of each column, then an "average" row over every
 * matrix. columns[c][i] is matrix i's value in column c.
 */
std::vector<std::vector<std::string>>
categoryRows(const std::string &key_name,
             const std::vector<double> &keys,
             const std::vector<std::vector<double>> &columns);

/** Print an aligned table: header row + data rows. */
void printTable(const std::vector<std::string> &header,
                const std::vector<std::vector<std::string>> &rows);

/** Format a double with fixed precision. */
std::string fmt(double v, int precision = 2);

/** Geometric mean of a nonempty vector of positive values. */
double geomean(const std::vector<double> &values);

} // namespace via::bench

#endif // VIA_BENCH_COMMON_HH
