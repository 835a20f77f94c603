/**
 * @file
 * Cross-format conversion helpers and canonical comparison.
 */

#ifndef VIA_SPARSE_CONVERT_HH
#define VIA_SPARSE_CONVERT_HH

#include "sparse/csb.hh"
#include "sparse/csc.hh"
#include "sparse/csr.hh"
#include "sparse/sell_c_sigma.hh"
#include "sparse/spc5.hh"

namespace via
{

/** Csb -> Csr by a count-and-scatter over the rows. */
Csr csbToCsr(const Csb &m);

/** Csc -> Csr by a counting-sort transpose. */
Csr cscToCsr(const Csc &m);

/** Element-wise closeness (|diff| <= atol per element). */
bool closeElements(const Csr &a, const Csr &b, double atol = 1e-4);

/** A + B (golden SpMA): each row concatenates A's and B's entries
 *  and goes through Csr::fromRows. */
Csr addCsr(const Csr &a, const Csr &b);

/** A * B with double accumulation (golden SpMM). */
Csr mulCsr(const Csr &a, const Csr &b);

} // namespace via

#endif // VIA_SPARSE_CONVERT_HH
