#include "kernels/parallel.hh"

#include <algorithm>

#include "kernels/ranges.hh"

namespace via::kernels
{

namespace
{

/** Steal cuts the iteration space into this many chunks per core. */
constexpr Index kStealChunksPerCore = 8;

Index
stealChunk(Index n, unsigned cores)
{
    Index parts = Index(cores) * kStealChunksPerCore;
    return std::max<Index>(1, (n + parts - 1) / parts);
}

} // namespace

void
dispatchUnits(Cores cores, Index n, Partition part,
              const std::function<void(unsigned, Index, Index)> &body)
{
    const unsigned count = cores.count();
    if (count == 1 || part == Partition::Static) {
        roundRobin(assignRanges(cores, n, part), body);
        return;
    }
    const Index chunk = stealChunk(n, count);
    for (Index lo = 0; lo < n; lo += chunk) {
        Index hi = std::min<Index>(lo + chunk, n);
        unsigned best = 0;
        for (unsigned c = 1; c < count; ++c)
            if (cores.core(c).cycles() < cores.core(best).cycles())
                best = c;
        body(best, lo, hi);
    }
}

std::vector<std::vector<std::pair<Index, Index>>>
assignRanges(Cores cores, Index n, Partition part)
{
    const unsigned count = cores.count();
    std::vector<std::vector<std::pair<Index, Index>>> out(count);
    if (count == 1) {
        out[0].push_back({0, n});
        return out;
    }
    if (n <= 0)
        return out;
    const Index chunk = stealChunk(n, count);
    if (part == Partition::Static) {
        // One balanced contiguous share per core, sliced into
        // chunk-sized consecutive pieces, so that emission can
        // interleave the cores (roundRobin).
        auto ranges = staticRanges(n, count);
        for (unsigned c = 0; c < count; ++c)
            for (Index lo = ranges[c].first; lo < ranges[c].second;
                 lo += chunk)
                out[c].push_back(
                    {lo, std::min<Index>(lo + chunk,
                                         ranges[c].second)});
        return out;
    }
    unsigned c = 0;
    for (Index lo = 0; lo < n; lo += chunk) {
        out[c].push_back({lo, std::min<Index>(lo + chunk, n)});
        c = (c + 1) % count;
    }
    return out;
}

void
roundRobin(const std::vector<std::vector<std::pair<Index, Index>>> &shares,
           const std::function<void(unsigned, Index, Index)> &body)
{
    // The cores run concurrently, so their timelines must advance
    // together: the shared LLC banks and DRAM pipe book cycles on a
    // sliding window (Resource), and emitting one core's whole share
    // first would slide the window past its siblings' start times,
    // serializing them behind it.
    std::size_t rounds = 0;
    for (const auto &share : shares)
        rounds = std::max(rounds, share.size());
    for (std::size_t j = 0; j < rounds; ++j)
        for (unsigned c = 0; c < shares.size(); ++c)
            if (j < shares[c].size())
                body(c, shares[c][j].first, shares[c][j].second);
}

Partition
parsePartition(const std::string &name)
{
    return name == "steal" ? Partition::Steal : Partition::Static;
}

const char *
partitionName(Partition p)
{
    return p == Partition::Static ? "static" : "steal";
}

std::vector<std::pair<Index, Index>>
staticRanges(Index n, unsigned cores)
{
    std::vector<std::pair<Index, Index>> out;
    out.reserve(cores);
    Index base = n / Index(cores);
    Index rem = n % Index(cores);
    Index lo = 0;
    for (unsigned c = 0; c < cores; ++c) {
        Index len = base + (Index(c) < rem ? 1 : 0);
        out.push_back({lo, lo + len});
        lo += len;
    }
    return out;
}

BackendKind
bodyKind(Cores cores, bool accel)
{
    return accel ? cores.core(0).backendKind() : BackendKind::Base;
}

SpmaResult
spmaParallel(MultiMachine &mm, const Csr &a, const Csr &b,
             Partition part, bool accel)
{
    return spmaRun(mm, bodyKind(mm, accel), a, b, part);
}

} // namespace via::kernels
