/**
 * @file
 * Which vector-unit backend a Machine is built over, plus the
 * backend-specific sizing knobs.
 *
 * Kept header-only and dependency-free so parameter structs and
 * option parsing can include it without dragging in the backend
 * implementations themselves (cpu/vector_backend.hh).
 */

#ifndef VIA_CPU_BACKEND_PARAMS_HH
#define VIA_CPU_BACKEND_PARAMS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace via
{

/** The accelerator model plugged into the core. */
enum class BackendKind : std::uint8_t
{
    Base = 0, //!< plain vector ISA, no indexed-access hardware
    Via,      //!< the paper's smart scratchpad + FIVU
    Ssr,      //!< stream semantic registers (arXiv 2011.08070)
    IndexMac, //!< indexed MAC through the caches (arXiv 2311.07241)
};

/** Backend selection and sizing. */
struct BackendParams
{
    BackendKind kind = BackendKind::Via;
    /** SSR: architected stream registers (bounds SsrCfg targets). */
    std::uint32_t ssrStreams = 4;
    /** IndexMAC: row-buffer entries tracking hot accumulator lines. */
    std::uint32_t imacRows = 4;
};

/** Canonical lowercase name for a backend kind. */
constexpr std::string_view
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Base: return "base";
      case BackendKind::Via: return "via";
      case BackendKind::Ssr: return "ssr";
      case BackendKind::IndexMac: return "indexmac";
    }
    return "<bad-backend>";
}

/** Every backendName, in enum order: the values of backend=. */
inline std::vector<std::string>
backendNames()
{
    return {"base", "via", "ssr", "indexmac"};
}

/** The backend named @p name, one of backendNames() (the backend=
 *  key accepts no other). */
inline BackendKind
parseBackendKind(std::string_view name)
{
    if (name == "base")
        return BackendKind::Base;
    if (name == "ssr")
        return BackendKind::Ssr;
    if (name == "indexmac")
        return BackendKind::IndexMac;
    return BackendKind::Via;
}

} // namespace via

#endif // VIA_CPU_BACKEND_PARAMS_HH
