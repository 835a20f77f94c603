#include "sample/checkpoint.hh"

#include <cstdio>

#include "cpu/machine.hh"
#include "simcore/serialize.hh"

namespace via
{
namespace sample
{

Checkpoint
Checkpoint::capture(const Machine &m, const Rng *rng)
{
    Checkpoint cp;
    Serializer ser(cp._bytes);
    ser.put(MAGIC);
    ser.put(VERSION);
    ser.put(std::uint64_t(rng != nullptr));
    if (rng != nullptr)
        for (std::uint64_t w : rng->state())
            ser.put(w);
    m.saveState(ser);
    return cp;
}

void
Checkpoint::restore(Machine &m, Rng *rng) const
{
    Deserializer des(_bytes);
    if (des.get<std::uint64_t>() != MAGIC)
        throw SerializeError("not a VIA checkpoint (bad magic)");
    std::uint64_t version = des.get();
    if (version != VERSION)
        throw SerializeError("checkpoint version " +
                             std::to_string(version) +
                             " not supported (expected " +
                             std::to_string(VERSION) + ")");
    bool has_rng = des.get<std::uint64_t>() != 0;
    if (has_rng) {
        std::array<std::uint64_t, Rng::stateWords> words{};
        for (std::uint64_t &w : words)
            w = des.get<std::uint64_t>();
        if (rng != nullptr)
            rng->setState(words);
    }
    m.loadState(des);
    if (des.remaining() != 0)
        throw SerializeError("checkpoint has trailing bytes");
}

void
Checkpoint::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw SerializeError("cannot open '" + path +
                             "' for writing");
    std::size_t written =
        std::fwrite(_bytes.data(), 1, _bytes.size(), f);
    bool ok = written == _bytes.size() && std::fclose(f) == 0;
    if (!ok)
        throw SerializeError("short write to '" + path + "'");
}

Checkpoint
Checkpoint::readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw SerializeError("cannot open '" + path + "'");
    Checkpoint cp;
    std::uint8_t buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        cp._bytes.insert(cp._bytes.end(), buf, buf + got);
    std::fclose(f);

    // Validate the header eagerly so a wrong file fails at load
    // time with a named reason, not deep inside a section restore.
    Deserializer des(cp._bytes);
    if (des.get<std::uint64_t>() != MAGIC)
        throw SerializeError("'" + path +
                             "' is not a VIA checkpoint");
    std::uint64_t version = des.get();
    if (version != VERSION)
        throw SerializeError("'" + path + "' has checkpoint "
                             "version " + std::to_string(version) +
                             " (expected " +
                             std::to_string(VERSION) + ")");
    return cp;
}

Checkpoint
Checkpoint::fromBytes(std::vector<std::uint8_t> bytes)
{
    Checkpoint cp;
    cp._bytes = std::move(bytes);
    return cp;
}

} // namespace sample
} // namespace via
