/**
 * @file
 * Request classes and request instances for the serving subsystem.
 *
 * A request class names a workload a client can ask the accelerator
 * to run: a synthetic matrix (rows x rows at a density, generated
 * deterministically from the run seed), a kernel, the sparse format
 * the matrix is resident in, and the number of dense vectors the
 * request multiplies against it (vecs=1 is classic SpMV; vecs>1 is
 * the SpMM-like "multiply a small dense block" shape). A traffic
 * mix is a weighted set of classes.
 *
 * A Request is one instance drawn from the mix: which class, when
 * it arrived, and a stable id (issue order).
 */

#ifndef VIA_SERVE_REQUEST_HH
#define VIA_SERVE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/types.hh"
#include "sparse/csr.hh"

namespace via::serve
{

/** One workload class of the traffic mix. */
struct RequestClass
{
    std::string kernel = "spmv"; //!< only "spmv" is servable today
    std::string format = "csr";  //!< csr | spc5 | sell | csb
    Index rows = 256;            //!< square matrix side
    double density = 0.05;       //!< nnz fraction
    unsigned vecs = 1;           //!< dense vectors per request
    double weight = 1.0;         //!< share of the traffic mix

    /** Stable display name, e.g. "spmv:csr:256:0.05:v2". */
    std::string name() const;
};

/**
 * Parse a traffic-mix specification: comma-separated classes, each
 * "kernel:format:rows:density:vecs" with an optional "@weight"
 * suffix (default 1). Example:
 *
 *   spmv:csr:256:0.05:1@3,spmv:csb:512:0.02:4@1
 *
 * Fatal (usage error) on malformed fields, unknown kernels or
 * formats, rows or vecs that are not integers in [1, max of their
 * type], or non-positive weights.
 */
std::vector<RequestClass> parseMix(const std::string &spec);

/**
 * The class's matrix, regenerated deterministically: the generator
 * stream depends only on (@p seed, @p cls_index), so the warm phase,
 * the batch measurements and a re-run of the harness all see the
 * identical matrix.
 */
Csr classMatrix(const RequestClass &cls, std::size_t cls_index,
                std::uint64_t seed);

/** One request instance. */
struct Request
{
    std::uint64_t id = 0;   //!< issue order, dense from 0
    std::uint32_t cls = 0;  //!< index into the mix
    Tick arrival = 0;       //!< simulated arrival cycle
};

/** The byte image of a request trace (determinism tests). */
std::string traceBytes(const std::vector<Request> &trace);

} // namespace via::serve

#endif // VIA_SERVE_REQUEST_HH
