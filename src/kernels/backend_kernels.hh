/**
 * @file
 * SSR and IndexMAC kernel variants of the five workloads.
 *
 * These are the baseline accelerators the VIA paper competes with,
 * each using its own instruction family on a Machine built over the
 * matching backend (Machine::backendKind() must be Ssr / IndexMac).
 * Every variant is a range body (kernels/ranges.hh), listed in its
 * kernel's backend table and run by the kernel's one runner at every
 * core count. Where an SSR variant only streams a software
 * baseline's loads (SPC5 and CSB SpMV, SpMA, SpMM, histogram), it is
 * that baseline's body with Streamed set, next to it:
 *
 * SSR (arXiv 2011.08070) — data movement becomes stream register
 * reads. Affine streams replace unit-stride loads, indirect streams
 * replace gathers, and ssr.fma fuses a whole value*gather(x) chain
 * into one instruction. Streams are bound with ssr.cfg at a setup
 * cost, which the kernels amortize where the access pattern allows
 * (CSR/SPC5/SELL walk their arrays contiguously, so one bind covers
 * the kernel, or each core's run of contiguous ranges) and pay
 * repeatedly where it does not (inner-product SpMM re-binds per
 * (row, column) pair — an honest weakness of stream semantics on
 * index-matching workloads).
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
 *   - IndexMAC SPC5 runs the plain vector body: SPC5's x accesses
 *     are unit-stride, so there is no indexed traffic for the MAC
 *     unit to capture.
 *   - The IndexMAC SpMA/SpMM kernels accumulate into a dense column
 *     buffer (Gustavson style), trading memory footprint for
 *     conflict-free vimac.st.f updates.
 */

#ifndef VIA_KERNELS_BACKEND_KERNELS_HH
#define VIA_KERNELS_BACKEND_KERNELS_HH

#include "kernels/ranges.hh"

namespace via::kernels
{

// ----- SSR ------------------------------------------------------

/** ssr.fma over a value stream and an x stream indirect through the
 *  column indices. */
void spmvSsrCsrRows(Machine &m, CsrOp &op, CoreState &core, Index lo,
                    Index hi);
void spmvSsrSellRows(Machine &m, SellOp &op, CoreState &core, Index lo,
                     Index hi);

/** Tap gathers via an indirect stream over a precomputed index
 *  array (see the file comment on the 1-D stream simplification). */
void stencilSsrSetup(Machine &m, StencilOp &op, CoreState &core,
                     Index lo);
void stencilSsrRows(Machine &m, StencilOp &op, CoreState &core,
                    Index lo, Index hi);

// ----- IndexMAC -------------------------------------------------

/** vimac.f fuses the x gather and the FMA. */
void spmvImacCsrRows(Machine &m, CsrOp &op, CoreState &core, Index lo,
                     Index hi);
void spmvImacSellRows(Machine &m, SellOp &op, CoreState &core,
                      Index lo, Index hi);
/** x gather and y update both through the MAC unit. */
void spmvImacCsbRows(Machine &m, CsbOp &op, CoreState &core, Index lo,
                     Index hi);

/** vimac.st.f both rows into a dense accumulator, then a col-only
 *  scalar merge names the union and a gather/scatter pass extracts
 *  and clears the touched slots. */
void spmaImacSetup(Machine &m, SpmaOp &op, CoreState &core, Index lo);
void spmaImacRows(Machine &m, SpmaOp &op, CoreState &core, Index lo,
                  Index hi);

/** Row-wise Gustavson product: B is transposed host-side (a format
 *  conversion, like Spc5::fromCsr), partials accumulate through
 *  vimac.st.f into a dense row buffer with a touch-mark array. */
SpmmOp spmmImacPrepare(Machine &m0, const Csr &a, const Csc &b,
                       unsigned regions);
void spmmImacSetup(Machine &m, SpmmOp &op, CoreState &core, Index lo);
void spmmImacRows(Machine &m, SpmmOp &op, CoreState &core, Index lo,
                  Index hi);

/** One vimac.st.f per key vector; duplicates need no conflict
 *  sequence (lanes accumulate in order inside the MAC unit). */
void histImacKeys(Machine &m, HistOp &op, CoreState &core,
                  const HistPass &pass, Index lo, Index hi);

/** Two vimac.f per pixel; the row buffer catches the overlap of
 *  neighbouring 4x4 windows. */
void stencilImacRows(Machine &m, StencilOp &op, CoreState &core,
                     Index lo, Index hi);

} // namespace via::kernels

#endif // VIA_KERNELS_BACKEND_KERNELS_HH
