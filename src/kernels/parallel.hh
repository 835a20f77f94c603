/**
 * @file
 * The kernel runners: every kernel on the cores a run emits on, one
 * Machine or every core of a MultiMachine (the Cores view).
 *
 * Each kernel has one runner, defined next to its body table
 * (kernels/ranges.hh). It uploads the operands once into core 0's
 * memory image (the cores of a MultiMachine share one backing
 * store), partitions the work across the cores, and runs the body of
 * the requested BackendKind on each range. On one core the runner
 * hands the whole iteration space to that core, so a one-core run is
 * the single-core run. The runners are the entry points: a caller
 * passes the kind it wants, m.backendKind() for the kernel of the
 * machine's backend (VIA, SSR, IndexMAC), BackendKind::Base for the
 * software baseline, or bodyKind() to pick between the two. Output
 * regions are disjoint per core (rows, block rows, key chunks, image
 * stripes), so the kernels need no locks; the shared LLC resolves
 * the timing side (bank contention, coherence) analytically.
 *
 * Two partitioning policies, which differ only at cores>1:
 *
 *  - Static: one balanced contiguous range per core. Zero scheduling
 *    overhead, but skewed inputs (a few dense rows) idle most cores.
 *  - Steal: the range is cut into ~8 chunks per core; each chunk is
 *    handed to whichever core currently has the earliest commit
 *    front (ties to the lowest id). This is a deterministic
 *    idealization of work stealing: the simulator can see every
 *    core's clock, so "stealing" reduces to greedy least-loaded
 *    assignment, and repeated runs schedule identically.
 *
 * Everything is driven from one host thread; determinism holds for
 * any core count.
 */

#ifndef VIA_KERNELS_PARALLEL_HH
#define VIA_KERNELS_PARALLEL_HH

#include <string>
#include <utility>
#include <vector>

#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/histogram.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "kernels/stencil.hh"
#include "sparse/csc.hh"

namespace via::kernels
{

/** How the runners split their iteration space over cores. */
enum class Partition
{
    Static, //!< balanced contiguous ranges
    Steal,  //!< greedy least-loaded chunk assignment
};

/** The partition named @p name, one of the partition= key's values
 *  (static|steal). */
Partition parsePartition(const std::string &name);

/** The harness-facing name of @p p. */
const char *partitionName(Partition p);

/**
 * Balanced contiguous split of [0, n) into @p cores ranges; the
 * first n % cores ranges are one element longer. Empty ranges are
 * returned as (lo, lo). Exposed for tests.
 */
std::vector<std::pair<Index, Index>> staticRanges(Index n,
                                                  unsigned cores);

/** The body kind a run emits: core 0's backend when @p accel, else
 *  the software baseline. */
BackendKind bodyKind(Cores cores, bool accel);

/**
 * y = A x with the @p kind body of the format convertAndUpload put
 * in @p s (uploaded onto core 0); csr reads @p a itself. Rows (csr,
 * spc5), block rows (csb) or chunks (sell) partition.
 */
SpmvResult spmvRun(Cores cores, BackendKind kind, const Csr &a,
                   const SpmvStorage &s, const DenseVector &x,
                   Partition part = Partition::Static);

/**
 * y = A x with @p a converted to @p fmt, any of spmvFormats() (fatal
 * otherwise), and uploaded onto core 0 by convertAndUpload on every
 * call, so repeated runs on one machine touch fresh cold addresses
 * (SpmvResident uploads once).
 */
SpmvResult spmvRun(Cores cores, BackendKind kind, const Csr &a,
                   const std::string &fmt, const DenseVector &x,
                   Partition part = Partition::Static);

/** C = A + B over row ranges; per-core output regions are assembled
 *  host-side. */
SpmaResult spmaRun(Cores cores, BackendKind kind, const Csr &a,
                   const Csr &b, Partition part = Partition::Static);

/** C = A * B, partitioning A's rows. */
SpmmResult spmmRun(Cores cores, BackendKind kind, const Csr &a,
                   const Csc &b, Partition part = Partition::Static);

/**
 * Histogram of @p keys. At cores>1 each core counts a contiguous
 * share of the keys into its own partial histogram, which core 0
 * then reduces; one core's histogram is the result. Steal
 * degenerates to round-robin chunk interleaving (uniform chunk
 * cost).
 */
HistResult histRun(Cores cores, BackendKind kind,
                   const std::vector<Index> &keys, Index buckets,
                   Partition part = Partition::Static);

/** 4x4 stencil over output-row stripes (each core reads a 3-row
 *  halo of its neighbour's input rows). */
StencilResult stencilRun(Cores cores, BackendKind kind,
                         const DenseMatrix &img,
                         Partition part = Partition::Static);

/** spmaRun at bodyKind(@p mm, @p accel). Kept for perfbench/, its
 *  only caller. */
SpmaResult spmaParallel(MultiMachine &mm, const Csr &a, const Csr &b,
                        Partition part, bool accel);

} // namespace via::kernels

#endif // VIA_KERNELS_PARALLEL_HH
