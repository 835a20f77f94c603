/**
 * @file
 * SSR and IndexMAC kernel variants of the five workloads.
 *
 * These are the baseline accelerators the VIA paper competes with,
 * each using its own instruction family on a Machine built over the
 * matching backend (Machine::backendKind() must be Ssr / IndexMac):
 *
 * SSR (arXiv 2011.08070) — data movement becomes stream register
 * reads. Affine streams replace unit-stride loads, indirect streams
 * replace gathers, and ssr.fma fuses a whole value*gather(x) chain
 * into one instruction. Streams are bound with ssr.cfg at a setup
 * cost, which the kernels amortize where the access pattern allows
 * (CSR/SELL walk their arrays contiguously, so one bind pair covers
 * the kernel) and pay repeatedly where it does not (inner-product
 * SpMM re-binds per (row, column) pair — an honest weakness of
 * stream semantics on index-matching workloads).
 *
 * IndexMAC (arXiv 2311.07241) — indexed multiply-accumulate executes
 * in a MAC unit next to the L1: vimac.f reads data[idx[l]] and
 * accumulates into a vector register, vimac.st.f accumulates lane
 * values into memory[idx[l]]. A small row buffer short-circuits
 * lanes that hit a recently-touched accumulator line, and the
 * in-order lane walk makes duplicate indices combine without
 * software conflict detection (no vconflict/vmergeIdx sequences).
 * Indexed traffic still moves through the cache hierarchy on row
 * misses — unlike VIA's scratchpad, repeated misses pay cache
 * energy, which is the comparison the paper draws.
 *
 * Modeling notes (kept deliberately honest):
 *   - SSR SpMM/SpMA stream only the index arrays where destructive
 *     pops cannot track the merge's data-dependent consumption of
 *     values; values use ordinary scalar loads on a match.
 *   - The SSR stencil consumes a host-precomputed per-pixel tap
 *     index array through an indirect stream (the model has 1-D
 *     streams only; the paper's 2-D affine streams would generate
 *     these indices in hardware).
 *   - IndexMAC SPC5 falls back to the plain vector kernel: SPC5's x
 *     accesses are unit-stride, so there is no indexed traffic for
 *     the MAC unit to capture.
 *   - The IndexMAC SpMA/SpMM kernels accumulate into a dense column
 *     buffer (Gustavson style), trading memory footprint for
 *     conflict-free vimac.st.f updates.
 */

#ifndef VIA_KERNELS_BACKEND_KERNELS_HH
#define VIA_KERNELS_BACKEND_KERNELS_HH

#include "kernels/histogram.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "kernels/stencil.hh"

namespace via::kernels
{

// ----- SSR ------------------------------------------------------

SpmvResult spmvSsrCsrAt(Machine &m, const Csr &a, const CsrImage &img,
                        const DenseVector &x);
SpmvResult spmvSsrSpc5At(Machine &m, const Spc5 &a,
                         const Spc5Image &img, const DenseVector &x);
SpmvResult spmvSsrSellAt(Machine &m, const SellCSigma &a,
                         const SellImage &img, const DenseVector &x);
SpmvResult spmvSsrCsbAt(Machine &m, const Csb &a, const CsbImage &img,
                        const DenseVector &x);

/** Sorted merge over four streams (cols streamed, values popped). */
SpmaResult spmaSsrCsr(Machine &m, const Csr &a, const Csr &b);

/** Inner-product index matching; streams re-bound per (r, j). */
SpmmResult spmmSsrInner(Machine &m, const Csr &a, const Csc &b);

/** histVector with the key loads replaced by an affine stream. */
HistResult histSsr(Machine &m, const std::vector<Index> &keys,
                   Index buckets);

/** Tap gathers via an indirect stream over a precomputed index
 *  array (see the file comment on the 1-D stream simplification). */
StencilResult stencilSsr(Machine &m, const DenseMatrix &img);

// ----- IndexMAC -------------------------------------------------

SpmvResult spmvImacCsrAt(Machine &m, const Csr &a,
                         const CsrImage &img, const DenseVector &x);
SpmvResult spmvImacSpc5At(Machine &m, const Spc5 &a,
                          const Spc5Image &img, const DenseVector &x);
SpmvResult spmvImacSellAt(Machine &m, const SellCSigma &a,
                          const SellImage &img, const DenseVector &x);
SpmvResult spmvImacCsbAt(Machine &m, const Csb &a,
                         const CsbImage &img, const DenseVector &x);

/** vimac.st.f both rows into a dense accumulator, then a col-only
 *  scalar merge names the union and a gather/scatter pass extracts
 *  and clears the touched slots. */
SpmaResult spmaImacCsr(Machine &m, const Csr &a, const Csr &b);

/** Row-wise Gustavson product: B is transposed host-side (a format
 *  conversion, like Spc5::fromCsr), partials accumulate through
 *  vimac.st.f into a dense row buffer with a touch-mark array. */
SpmmResult spmmImacGustavson(Machine &m, const Csr &a, const Csc &b);

/** One vimac.st.f per key vector; duplicates need no conflict
 *  sequence (lanes accumulate in order inside the MAC unit). */
HistResult histImac(Machine &m, const std::vector<Index> &keys,
                    Index buckets);

/** Two vimac.f per pixel; the row buffer catches the overlap of
 *  neighbouring 4x4 windows. */
StencilResult stencilImac(Machine &m, const DenseMatrix &img);

} // namespace via::kernels

#endif // VIA_KERNELS_BACKEND_KERNELS_HH
