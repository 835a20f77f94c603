/**
 * @file
 * The evaluation corpus: a deterministic stand-in for the paper's
 * 1,024 University of Florida matrices (Section V-B).
 *
 * The paper selects real square matrices with <= 20k rows and 0.01%
 * to 2.6% non-zeros from 56 domains. buildCorpus() samples the same
 * structural families and density range; the default sizes are kept
 * smaller so the cycle-level simulation finishes in CI time, and the
 * count scales with the caller's budget. Real .mtx files can be
 * loaded instead via sparse/mm_io.
 */

#ifndef VIA_SPARSE_CORPUS_HH
#define VIA_SPARSE_CORPUS_HH

#include <string>
#include <vector>

#include "sparse/csr.hh"

namespace via
{

/** One corpus matrix with provenance. */
struct CorpusEntry
{
    std::string name;
    std::string family;
    Csr matrix;
};

/** Corpus knobs. */
struct CorpusSpec
{
    std::size_t count = 24;      //!< matrices to generate
    Index minRows = 256;
    Index maxRows = 2048;        //!< paper uses up to 20k
    double minDensity = 0.0001;  //!< 0.01 %
    double maxDensity = 0.026;   //!< 2.6 %
    std::uint64_t seed = 1;
};

/** Generate the corpus (deterministic for a given spec). */
std::vector<CorpusEntry> buildCorpus(const CorpusSpec &spec);

/** Load every .mtx file in a directory as corpus entries. */
std::vector<CorpusEntry> loadCorpusDir(const std::string &dir);

/**
 * Split items into `buckets` near-equal categories after sorting by
 * key ascending (the paper sorts matrices by block density / nnz and
 * splits evenly into four).
 *
 * @return bucket id (0..buckets-1) per item, aligned with items
 */
std::vector<std::size_t> evenBuckets(const std::vector<double> &keys,
                                     std::size_t buckets);

} // namespace via

#endif // VIA_SPARSE_CORPUS_HH
