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
    if (count == 1) {
        body(0, 0, n);
        return;
    }
    if (n <= 0)
        return;
    if (part == Partition::Static) {
        // The assignment is static, but the *emission* interleaves
        // chunk-sized slices of the per-core ranges round-robin.
        // The cores run concurrently, so their timelines must
        // advance together: the shared LLC banks and DRAM pipe book
        // cycles on a sliding window (Resource), and emitting one
        // core's whole share first would slide the window past its
        // siblings' start times, serializing them behind it.
        auto ranges = staticRanges(n, count);
        const Index chunk = stealChunk(n, count);
        for (bool more = true; more;) {
            more = false;
            for (unsigned c = 0; c < count; ++c) {
                Index lo = ranges[c].first;
                if (lo >= ranges[c].second)
                    continue;
                Index hi =
                    std::min<Index>(lo + chunk, ranges[c].second);
                body(c, lo, hi);
                ranges[c].first = hi;
                if (hi < ranges[c].second)
                    more = true;
            }
        }
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
    if (part == Partition::Static) {
        // Same contiguous share per core as dispatchUnits' static
        // split, but sliced into chunk-sized consecutive pieces so
        // the caller can interleave emission across cores (one
        // piece per core per round) and keep the concurrent
        // timelines within the shared resources' booking windows.
        auto ranges = staticRanges(n, count);
        const Index chunk = stealChunk(n, count);
        for (unsigned c = 0; c < count; ++c)
            for (Index lo = ranges[c].first; lo < ranges[c].second;
                 lo += chunk)
                out[c].push_back(
                    {lo, std::min<Index>(lo + chunk,
                                         ranges[c].second)});
        return out;
    }
    const Index chunk = stealChunk(n, count);
    unsigned c = 0;
    for (Index lo = 0; lo < n; lo += chunk) {
        out[c].push_back({lo, std::min<Index>(lo + chunk, n)});
        c = (c + 1) % count;
    }
    return out;
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

SpmvResult
spmvParallel(MultiMachine &mm, const Csr &a, const DenseVector &x,
             const std::string &fmt, Partition part, bool accel)
{
    return spmvRun(mm, bodyKind(mm, accel), a,
                   convertAndUpload(mm.core(0), a, fmt), x, part);
}

SpmaResult
spmaParallel(MultiMachine &mm, const Csr &a, const Csr &b,
             Partition part, bool accel)
{
    return spmaRun(mm, bodyKind(mm, accel), a, b, part);
}

SpmmResult
spmmParallel(MultiMachine &mm, const Csr &a, const Csc &b,
             Partition part, bool accel)
{
    return spmmRun(mm, bodyKind(mm, accel), a, b, part);
}

HistResult
histParallel(MultiMachine &mm, const std::vector<Index> &keys,
             Index buckets, Partition part, bool accel)
{
    return histRun(mm, bodyKind(mm, accel), keys, buckets, part);
}

StencilResult
stencilParallel(MultiMachine &mm, const DenseMatrix &img,
                Partition part, bool accel)
{
    return stencilRun(mm, bodyKind(mm, accel), img, part);
}

} // namespace via::kernels
