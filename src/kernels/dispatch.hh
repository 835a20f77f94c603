/**
 * @file
 * SpMV format dispatch shared by the drivers (via_sim, via_db,
 * via_fuzz, via_serve) and the bench harnesses.
 *
 * A format name selects the SpMV storage conversion: CSR stays
 * as-is, SPC5/SELL-C-sigma/CSB are built from the CSR with the
 * machine-appropriate geometry. convertAndUpload does it once for
 * every path that runs SpMV by format name: spmvRun's format-name
 * overload (kernels/parallel.hh), which the drivers and harnesses
 * call with the BackendKind they want, and SpmvResident. Keeping
 * the mapping in one place means the fuzzer and the figures exercise
 * exactly the conversions the interactive driver runs.
 */

#ifndef VIA_KERNELS_DISPATCH_HH
#define VIA_KERNELS_DISPATCH_HH

#include <optional>
#include <string>
#include <vector>

#include "kernels/spmv.hh"

namespace via::kernels
{

/** The SpMV format names every driver accepts. */
const std::vector<std::string> &spmvFormats();

/** True if @p fmt names a known SpMV format. */
bool isSpmvFormat(const std::string &fmt);

/**
 * True when spmmRun can run the backend's kernel on @p a on a
 * machine built from @p params: the VIA kernel does not tile, so on
 * backend=via every row of A must fit the CAM; the other backends
 * take any input.
 */
bool spmmFits(const MachineParams &params, const Csr &a);

/**
 * A CSR matrix converted to one SpMV format and uploaded onto a
 * machine: the converted copy (none for csr, whose kernels read the
 * source matrix) and the base addresses the kernels emit against.
 * spmvRun's format-name overload and SpmvResident share it.
 */
struct SpmvStorage
{
    std::optional<Spc5> spc5;
    std::optional<SellCSigma> sell;
    std::optional<Csb> csb;
    CsrImage csrImg;
    Spc5Image spc5Img;
    SellImage sellImg;
    CsbImage csbImg;
};

/**
 * Convert @p a to @p fmt with the machine's geometry (SPC5 window
 * and SELL chunk height from the vector length, the CSB block side
 * from viaCsbBeta) and upload it. csr maps @p a itself, so the
 * one-shot path never copies the matrix. Fatal on an unknown format.
 */
SpmvStorage convertAndUpload(Machine &m, const Csr &a,
                             const std::string &fmt);

/**
 * A matrix made resident on a machine: the format conversion and
 * the matrix-operand upload happen once in the constructor, and
 * every run() emits the kernel body against the recorded base
 * addresses. Repeated runs re-walk the same lines with warm caches
 * — the serving subsystem's batching benefit — and a checkpoint
 * captured from the warm machine restores the resident matrix for
 * every fan-out batch.
 *
 * The geometry baked in at construction (vector length, CSB block
 * side from viaCsbBeta) comes from the constructing machine, so
 * run() must only be called on that machine, or on machines
 * restored from its checkpoints / built from the same MachineConfig.
 * The first run() on the constructing machine is bit-identical to
 * the one-shot spmvRun call by format name at the same kind.
 */
class SpmvResident
{
  public:
    /**
     * Convert @p a to @p fmt and upload it onto @p m once; run()
     * emits the kernel family of @p kind (which must match the
     * machine's backend for Ssr / IndexMac).
     */
    SpmvResident(Machine &m, const Csr &a, const std::string &fmt,
                 BackendKind kind);

    /** via selects BackendKind::Via, else Base. Kept for
     *  perfbench/, its only caller. */
    SpmvResident(Machine &m, const Csr &a, const std::string &fmt,
                 bool via)
        : SpmvResident(m, a, fmt,
                       via ? BackendKind::Via : BackendKind::Base)
    {}

    /** Emit y = A x against the resident matrix. */
    SpmvResult run(Machine &m, const DenseVector &x) const;

  private:
    BackendKind _kind;
    Csr _csr; //!< shares @p a's arrays; also the conversion source
    SpmvStorage _storage;
};

} // namespace via::kernels

#endif // VIA_KERNELS_DISPATCH_HH
