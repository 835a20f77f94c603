#include "serve/request.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "kernels/dispatch.hh"
#include "simcore/log.hh"
#include "simcore/parallel.hh"
#include "sparse/generators.hh"

namespace via::serve
{

std::string
RequestClass::name() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s:%s:%lld:%g:v%u",
                  kernel.c_str(), format.c_str(),
                  (long long)(rows), density, vecs);
    return buf;
}

namespace
{

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

double
parseNumber(const std::string &tok, const std::string &what,
            const std::string &cls)
{
    char *end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end == nullptr || *end != '\0')
        via_fatal("mix class '", cls, "': bad ", what, " '", tok,
                  "'");
    return v;
}

/**
 * Parse a count field that must be an integer in [1, @p max]. The
 * range is checked before any cast: converting a fractional value
 * truncates silently, and converting a non-finite or out-of-range
 * double to an integer is undefined.
 */
std::uint64_t
parseCount(const std::string &tok, const std::string &what,
           const std::string &cls, std::uint64_t max)
{
    const double v = parseNumber(tok, what, cls);
    if (!(v >= 1.0 && v <= double(max)) || v != std::floor(v))
        via_fatal("mix class '", cls, "': ", what,
                  " must be an integer in [1, ", max, "], got '", tok,
                  "'");
    return std::uint64_t(v);
}

} // namespace

std::vector<RequestClass>
parseMix(const std::string &spec)
{
    std::vector<RequestClass> mix;
    for (const std::string &entry : splitOn(spec, ',')) {
        if (entry.empty())
            via_fatal("mix has an empty class entry");

        std::string body = entry;
        double weight = 1.0;
        if (auto at = entry.find('@'); at != std::string::npos) {
            body = entry.substr(0, at);
            weight = parseNumber(entry.substr(at + 1), "weight",
                                 entry);
        }

        auto fields = splitOn(body, ':');
        if (fields.size() != 5)
            via_fatal("mix class '", entry, "': expected "
                      "kernel:format:rows:density:vecs[@weight]");

        RequestClass cls;
        cls.kernel = fields[0];
        cls.format = fields[1];
        cls.rows = Index(parseCount(fields[2], "rows", entry,
                                    std::numeric_limits<Index>::max()));
        cls.density = parseNumber(fields[3], "density", entry);
        cls.vecs =
            unsigned(parseCount(fields[4], "vecs", entry,
                                std::numeric_limits<unsigned>::max()));
        cls.weight = weight;

        if (cls.kernel != "spmv")
            via_fatal("mix class '", entry, "': unknown kernel '",
                      cls.kernel, "' (only spmv is servable)");
        if (!kernels::isSpmvFormat(cls.format))
            via_fatal("mix class '", entry, "': unknown format '",
                      cls.format, "'");
        if (!(cls.density > 0.0) || cls.density > 1.0)
            via_fatal("mix class '", entry,
                      "': density must be in (0, 1]");
        if (!(cls.weight > 0.0))
            via_fatal("mix class '", entry,
                      "': weight must be > 0");
        mix.push_back(std::move(cls));
    }
    return mix;
}

Csr
classMatrix(const RequestClass &cls, std::size_t cls_index,
            std::uint64_t seed)
{
    Rng rng(SweepExecutor::pointSeed(seed, cls_index));
    return genUniform(cls.rows, cls.rows, cls.density, rng);
}

std::string
traceBytes(const std::vector<Request> &trace)
{
    std::ostringstream os;
    for (const Request &r : trace)
        os << r.id << ' ' << r.cls << ' ' << r.arrival << '\n';
    return os.str();
}

} // namespace via::serve
