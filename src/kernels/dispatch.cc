#include "kernels/dispatch.hh"

#include <algorithm>

#include "kernels/backend_kernels.hh"
#include "simcore/log.hh"

namespace via::kernels
{

const std::vector<std::string> &
spmvFormats()
{
    static const std::vector<std::string> formats = {
        "csr", "spc5", "sell", "csb"};
    return formats;
}

bool
isSpmvFormat(const std::string &fmt)
{
    const auto &f = spmvFormats();
    return std::find(f.begin(), f.end(), fmt) != f.end();
}

namespace
{

/**
 * Convert @p a to @p fmt with the machine's geometry (SPC5 window
 * and SELL chunk height from the vector length, the CSB block side
 * from viaCsbBeta) and upload it. csr uploads @p a itself, so the
 * one-shot path never copies the matrix.
 */
SpmvStorage
convertAndUpload(Machine &m, const Csr &a, const std::string &fmt)
{
    SpmvStorage s;
    const auto vl = Index(m.vl());
    if (fmt == "csr") {
        s.csrImg = uploadCsr(m, a);
    } else if (fmt == "spc5") {
        s.spc5Img = uploadSpc5(m, s.spc5.emplace(Spc5::fromCsr(a, vl)));
    } else if (fmt == "sell") {
        s.sellImg = uploadSell(
            m, s.sell.emplace(SellCSigma::fromCsr(a, vl, 4 * vl)));
    } else if (fmt == "csb") {
        s.csbImg =
            uploadCsb(m, s.csb.emplace(Csb::fromCsr(a, viaCsbBeta(m))));
    } else {
        via_fatal("unknown SpMV format '", fmt, "'");
    }
    return s;
}

template <typename Mat, typename Img>
using SpmvAt = SpmvResult (*)(Machine &, const Mat &, const Img &,
                              const DenseVector &);

// The single-core SPC5 and SELL kernels, indexed by BackendKind
// (Base, Via, Ssr, IndexMac). SPC5 reads x unit-stride per block:
// there is no indexed traffic for the MAC unit to capture, so the
// plain vector kernel is the IndexMAC machine's best SPC5 code.
static_assert(std::size_t(BackendKind::IndexMac) == 3);
constexpr SpmvAt<Spc5, Spc5Image> kSpc5At[] = {
    spmvVectorSpc5At, spmvViaSpc5At, spmvSsrSpc5At, spmvVectorSpc5At};
constexpr SpmvAt<SellCSigma, SellImage> kSellAt[] = {
    spmvVectorSellAt, spmvViaSellAt, spmvSsrSellAt, spmvImacSellAt};

/** Emit y = A x with the @p kind kernel against @p s. */
SpmvResult
spmvAt(Machine &m, BackendKind kind, const Csr &a,
       const SpmvStorage &s, const DenseVector &x)
{
    const auto k = std::size_t(kind);
    if (s.spc5)
        return kSpc5At[k](m, *s.spc5, s.spc5Img, x);
    if (s.sell)
        return kSellAt[k](m, *s.sell, s.sellImg, x);
    if (s.csb)
        return spmvCsbRun(m, kind, *s.csb, s.csbImg, x);
    return spmvCsrRun(m, kind, a, s.csrImg, x);
}

} // namespace

SpmvResult
spmvBaseline(Machine &m, const Csr &a, const DenseVector &x,
             const std::string &fmt)
{
    return spmvAt(m, BackendKind::Base, a, convertAndUpload(m, a, fmt),
                  x);
}

SpmvResult
spmvAccel(Machine &m, const Csr &a, const DenseVector &x,
          const std::string &fmt)
{
    return spmvAt(m, m.backendKind(), a, convertAndUpload(m, a, fmt),
                  x);
}

SpmaResult
spmaAccel(Machine &m, const Csr &a, const Csr &b)
{
    return spmaRun(m, m.backendKind(), a, b);
}

SpmmResult
spmmAccel(Machine &m, const Csr &a, const Csc &b)
{
    return spmmRun(m, m.backendKind(), a, b);
}

bool
spmmFits(const MachineParams &params, const Csr &a)
{
    return params.backend.kind != BackendKind::Via ||
           a.maxRowNnz() <= Index(params.via.camEntries());
}

HistResult
histAccel(Machine &m, const std::vector<Index> &keys, Index buckets)
{
    return histRun(m, m.backendKind(), keys, buckets);
}

StencilResult
stencilAccel(Machine &m, const DenseMatrix &img)
{
    return stencilRun(m, m.backendKind(), img);
}

SpmvResident::SpmvResident(Machine &m, const Csr &a,
                           const std::string &fmt, BackendKind kind)
    : _kind(kind), _csr(a), _storage(convertAndUpload(m, _csr, fmt))
{}

SpmvResult
SpmvResident::run(Machine &m, const DenseVector &x) const
{
    return spmvAt(m, _kind, _csr, _storage, x);
}

} // namespace via::kernels
