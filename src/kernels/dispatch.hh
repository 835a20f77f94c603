/**
 * @file
 * Kernel dispatch shared by the drivers (via_sim, via_db, via_fuzz)
 * and the bench harnesses.
 *
 * A format name selects the SpMV storage conversion (CSR stays
 * as-is, SPC5/SELL-C-sigma/CSB are built from the CSR with the
 * machine-appropriate geometry) and the kernel: the baseline vector
 * variant or the variant of the machine's backend. The *Accel entry
 * points pick every kernel's backend variant the same way. Keeping
 * the mapping in one place means the fuzzer and the figures exercise
 * exactly the conversions the interactive driver runs.
 */

#ifndef VIA_KERNELS_DISPATCH_HH
#define VIA_KERNELS_DISPATCH_HH

#include <optional>
#include <string>
#include <vector>

#include "kernels/histogram.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "kernels/stencil.hh"

namespace via::kernels
{

/** The SpMV format names every driver accepts. */
const std::vector<std::string> &spmvFormats();

/** True if @p fmt names a known SpMV format. */
bool isSpmvFormat(const std::string &fmt);

/**
 * Run the baseline (non-VIA) vector SpMV kernel for @p fmt on the
 * same converted storage the accelerated variant uses. Fatal on an
 * unknown format name.
 *
 * spmvBaseline/spmvAccel convert and upload the matrix on every
 * call, so repeated runs on one machine touch fresh cold addresses.
 */
SpmvResult spmvBaseline(Machine &m, const Csr &a,
                        const DenseVector &x, const std::string &fmt);

/**
 * Run the SpMV kernel matching the machine's vector backend: the
 * VIA kernels on backend=via, the SSR / IndexMAC variants on their
 * backends, and the plain vector kernels on backend=base. This is
 * the entry point drivers use when the accelerated column of a
 * comparison should follow `backend=`.
 */
SpmvResult spmvAccel(Machine &m, const Csr &a, const DenseVector &x,
                     const std::string &fmt);

/**
 * The other kernels' backend-following entry points: the accelerated
 * variant matching Machine::backendKind() (VIA CAM / SSR streams /
 * IndexMAC), or the software baseline on backend=base. Each runs
 * its kernel's body table (kernels/ranges.hh) at that kind.
 */
SpmaResult spmaAccel(Machine &m, const Csr &a, const Csr &b);
SpmmResult spmmAccel(Machine &m, const Csr &a, const Csc &b);
HistResult histAccel(Machine &m, const std::vector<Index> &keys,
                     Index buckets);
StencilResult stencilAccel(Machine &m, const DenseMatrix &img);

/**
 * True when spmmAccel can run @p a on a machine built from
 * @p params: the VIA kernel does not tile, so on backend=via every
 * row of A must fit the CAM; the other backends take any input.
 */
bool spmmFits(const MachineParams &params, const Csr &a);

/**
 * A CSR matrix converted to one SpMV format and uploaded onto a
 * machine: the converted copy (none for csr, whose kernels read the
 * source matrix) and the base addresses the kernels emit against.
 * The one-shot entry points, SpmvResident and spmvParallel share it.
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
 * the matching spmvAccel/spmvBaseline one-shot call.
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

    /** Back-compat: via selects BackendKind::Via, else Base. */
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
