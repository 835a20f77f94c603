/**
 * @file
 * A flat key/value configuration dictionary.
 *
 * Benchmarks and examples accept "key=value" overrides on the command
 * line; Config parses them and hands typed values to the parameter
 * structs. Unknown keys are a fatal() (user error), malformed values
 * likewise.
 */

#ifndef VIA_SIMCORE_CONFIG_HH
#define VIA_SIMCORE_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace via
{

/** String-typed configuration with checked typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Parse a list of "key=value" tokens (e.g. argv tail). */
    static Config fromArgs(const std::vector<std::string> &args);

    /** Set or overwrite a key. */
    void set(const std::string &key, const std::string &value);

    /** True if the key is present. */
    bool has(const std::string &key) const;

    /** Typed getters with defaults; fatal() on malformed values. */
    std::string getString(const std::string &key,
                          const std::string &dflt) const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt) const;
    std::uint64_t getUInt(const std::string &key,
                          std::uint64_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;

  private:
    std::map<std::string, std::string> _values;
};

} // namespace via

#endif // VIA_SIMCORE_CONFIG_HH
