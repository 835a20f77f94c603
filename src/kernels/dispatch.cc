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

// The *At kernel of each format, indexed by BackendKind
// (Base, Via, Ssr, IndexMac).
static_assert(std::size_t(BackendKind::IndexMac) == 3);
constexpr SpmvAt<Csr, CsrImage> kCsrAt[] = {
    spmvVectorCsrAt, spmvViaCsrAt, spmvSsrCsrAt, spmvImacCsrAt};
constexpr SpmvAt<Spc5, Spc5Image> kSpc5At[] = {
    spmvVectorSpc5At, spmvViaSpc5At, spmvSsrSpc5At, spmvImacSpc5At};
constexpr SpmvAt<SellCSigma, SellImage> kSellAt[] = {
    spmvVectorSellAt, spmvViaSellAt, spmvSsrSellAt, spmvImacSellAt};
constexpr SpmvAt<Csb, CsbImage> kCsbAt[] = {
    spmvVectorCsbAt, spmvViaCsbAt, spmvSsrCsbAt, spmvImacCsbAt};

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
        return kCsbAt[k](m, *s.csb, s.csbImg, x);
    return kCsrAt[k](m, a, s.csrImg, x);
}

} // namespace

SpmvResult
spmvVia(Machine &m, const Csr &a, const DenseVector &x,
        const std::string &fmt)
{
    return spmvAt(m, BackendKind::Via, a, convertAndUpload(m, a, fmt),
                  x);
}

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
    switch (m.backendKind()) {
    case BackendKind::Base:
        return spmaScalarCsr(m, a, b);
    case BackendKind::Via:
        return spmaViaCsr(m, a, b);
    case BackendKind::Ssr:
        return spmaSsrCsr(m, a, b);
    case BackendKind::IndexMac:
        return spmaImacCsr(m, a, b);
    }
    via_fatal("unhandled backend kind");
}

SpmmResult
spmmAccel(Machine &m, const Csr &a, const Csc &b)
{
    switch (m.backendKind()) {
    case BackendKind::Base:
        return spmmScalarInner(m, a, b);
    case BackendKind::Via:
        return spmmViaInner(m, a, b);
    case BackendKind::Ssr:
        return spmmSsrInner(m, a, b);
    case BackendKind::IndexMac:
        return spmmImacGustavson(m, a, b);
    }
    via_fatal("unhandled backend kind");
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
    switch (m.backendKind()) {
    case BackendKind::Base:
        return histVector(m, keys, buckets);
    case BackendKind::Via:
        return histVia(m, keys, buckets);
    case BackendKind::Ssr:
        return histSsr(m, keys, buckets);
    case BackendKind::IndexMac:
        return histImac(m, keys, buckets);
    }
    via_fatal("unhandled backend kind");
}

StencilResult
stencilAccel(Machine &m, const DenseMatrix &img)
{
    switch (m.backendKind()) {
    case BackendKind::Base:
        return stencilVector(m, img);
    case BackendKind::Via:
        return stencilVia(m, img);
    case BackendKind::Ssr:
        return stencilSsr(m, img);
    case BackendKind::IndexMac:
        return stencilImac(m, img);
    }
    via_fatal("unhandled backend kind");
}

SpmvResident::SpmvResident(Machine &m, const Csr &a,
                           const std::string &fmt, BackendKind kind)
    : _fmt(fmt), _kind(kind), _csr(a),
      _storage(convertAndUpload(m, _csr, fmt))
{}

SpmvResult
SpmvResident::run(Machine &m, const DenseVector &x) const
{
    return spmvAt(m, _kind, _csr, _storage, x);
}

} // namespace via::kernels
