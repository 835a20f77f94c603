#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace via::bench
{

Csr
makeSibling(const Csr &a, Rng &rng)
{
    Coo coo(a.rows(), a.cols());
    Coo src = a.toCoo();
    for (const Triplet &t : src.elems()) {
        if (rng.chance(0.6))
            coo.add(t.row, t.col, Value(rng.uniform() * 2 - 1));
        if (rng.chance(0.4))
            coo.add(t.row,
                    Index(rng.below(std::uint64_t(a.cols()))),
                    Value(rng.uniform() * 2 - 1));
    }
    return Csr::fromCoo(std::move(coo));
}

void
addCorpusOptions(Options &opts, const CorpusSpec &dflt,
                 const std::string &count_help, bool max_rows_key)
{
    opts.addUInt("count", dflt.count, count_help, 1)
        .addUInt("seed", dflt.seed, "corpus generator seed");
    if (max_rows_key)
        opts.addUInt("max_rows", std::uint64_t(dflt.maxRows),
                     "largest corpus dimension",
                     std::uint64_t(dflt.minRows));
}

CorpusSpec
corpusSpec(const Options &opts, CorpusSpec dflt)
{
    dflt.count = opts.getUInt("count");
    dflt.seed = opts.getUInt("seed");
    if (opts.knows("max_rows"))
        dflt.maxRows = Index(opts.getUInt("max_rows"));
    return dflt;
}

Options
benchOptions(const std::string &binary,
             const std::string &description)
{
    Options opts(binary, description);
    addThreadsOption(opts);
    addSelfProfOption(opts);
    return opts;
}

SweepExecutor
makeExecutor(const Options &opts)
{
    return SweepExecutor(unsigned(opts.getUInt("threads")));
}

sample::SampleOptions
sampleOptions(const Options &opts)
{
    sample::SampleOptions sopts = sample::SampleOptions::fromOptions(opts);
    if (sopts.mode == sample::SimMode::Functional)
        opts.usageError("mode=functional models no timing; the bench "
                        "harnesses need detailed or sampled");
    return sopts;
}

TraceOptions
traceOptions(const Options &opts)
{
    TraceOptions topts = TraceOptions::fromOptions(opts);
    if (topts.summary && opts.getUInt("threads") != 1) {
        std::fprintf(stderr,
                     "trace_summary=1 requires threads=1 in the "
                     "bench harnesses (the roll-up would interleave "
                     "across workers); ignoring\n");
        topts.summary = false;
    }
    return topts;
}

std::vector<std::vector<std::string>>
categoryRows(const std::string &key_name,
             const std::vector<double> &keys,
             const std::vector<std::vector<double>> &columns)
{
    constexpr std::size_t num_cats = 4;
    auto bucket = evenBuckets(keys, num_cats);
    std::vector<std::vector<std::string>> rows;
    for (std::size_t cat = 0; cat < num_cats; ++cat) {
        std::vector<double> key;
        std::vector<std::vector<double>> values(columns.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (bucket[i] != cat)
                continue;
            key.push_back(keys[i]);
            for (std::size_t c = 0; c < columns.size(); ++c)
                values[c].push_back(columns[c][i]);
        }
        if (key.empty())
            continue;
        std::sort(key.begin(), key.end());
        rows.push_back({"cat" + std::to_string(cat + 1) + " (" +
                        key_name + "~" + fmt(key[key.size() / 2], 0) +
                        ")"});
        for (const auto &v : values)
            rows.back().push_back(fmt(geomean(v)));
    }
    rows.push_back({"average"});
    for (const auto &column : columns)
        rows.back().push_back(fmt(geomean(column)));
    return rows;
}

void
printTable(const std::vector<std::string> &header,
           const std::vector<std::vector<std::string>> &rows)
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size() && c < widths.size();
             ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%-*s  ", int(widths[c]), row[c].c_str());
        std::printf("\n");
    };

    print_row(header);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows)
        print_row(row);
}

std::string
fmt(double v, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return os.str();
}

double
geomean(const std::vector<double> &values)
{
    via_assert(!values.empty(), "geomean of empty set");
    double acc = 0.0;
    for (double v : values) {
        via_assert(v > 0.0, "geomean needs positive values, got ", v);
        acc += std::log(v);
    }
    return std::exp(acc / double(values.size()));
}

} // namespace via::bench
