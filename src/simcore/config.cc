#include "simcore/config.hh"

#include <cstdlib>
#include <stdexcept>

#include "simcore/log.hh"

namespace via
{

Config
Config::fromArgs(const std::vector<std::string> &args)
{
    Config cfg;
    for (const auto &arg : args) {
        auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0)
            via_fatal("malformed config argument '", arg,
                      "' (expected key=value)");
        cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    _values[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return _values.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    auto it = _values.find(key);
    return it == _values.end() ? dflt : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t dflt) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return dflt;
    try {
        std::size_t pos = 0;
        auto v = std::stoll(it->second, &pos);
        if (pos != it->second.size())
            throw std::invalid_argument(it->second);
        return v;
    } catch (const std::exception &) {
        via_fatal("config key '", key, "' is not an integer: '",
                  it->second, "'");
    }
}

std::uint64_t
Config::getUInt(const std::string &key, std::uint64_t dflt) const
{
    auto v = getInt(key, std::int64_t(dflt));
    if (v < 0)
        via_fatal("config key '", key, "' must be non-negative");
    return std::uint64_t(v);
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return dflt;
    try {
        std::size_t pos = 0;
        double v = std::stod(it->second, &pos);
        if (pos != it->second.size())
            throw std::invalid_argument(it->second);
        return v;
    } catch (const std::exception &) {
        via_fatal("config key '", key, "' is not a number: '",
                  it->second, "'");
    }
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        return dflt;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    via_fatal("config key '", key, "' is not a boolean: '", v, "'");
}

} // namespace via
