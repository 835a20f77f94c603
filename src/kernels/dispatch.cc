#include "kernels/dispatch.hh"

#include <algorithm>

#include "kernels/parallel.hh"
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

bool
spmmFits(const MachineParams &params, const Csr &a)
{
    return params.backend.kind != BackendKind::Via ||
           a.maxRowNnz() <= Index(params.via.camEntries());
}

SpmvResident::SpmvResident(Machine &m, const Csr &a,
                           const std::string &fmt, BackendKind kind)
    : _kind(kind), _csr(a), _storage(convertAndUpload(m, _csr, fmt))
{}

SpmvResult
SpmvResident::run(Machine &m, const DenseVector &x) const
{
    return spmvRun(m, _kind, _csr, _storage, x);
}

} // namespace via::kernels
