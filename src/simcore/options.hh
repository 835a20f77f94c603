/**
 * @file
 * The shared typed command-line options registry.
 *
 * Every harness in this repository — the bench/ figure binaries,
 * via_sim, via_db, via_serve, via_fuzz and bench_report — takes
 * "key=value" arguments. Options is the one option layer: each
 * binary registers its keys (type, default, help text, numeric
 * range, or the fixed set of values a string key accepts), parse()
 * checks every given value against its key, and the readers
 * (machineParamsFrom, SampleOptions::fromOptions,
 * TraceOptions::fromOptions, the drivers) read through the typed
 * getters, whose default is the registered one. The contract:
 *
 *   - unknown key        -> message + sorted valid-key list, exit 2
 *   - duplicate key      -> hard error, exit 2 (a repeated key on
 *                           one command line is almost always a
 *                           typo silently dropping the first value)
 *   - malformed value    -> type/range diagnosis, exit 2
 *   - value outside a    -> the key and its valid values, exit 2
 *     key's fixed set
 *   - help=1 or --help   -> generated key table, exit 0
 *
 * A reader that rejects a combination of valid values reports it
 * through usageError(), so it exits 2 as well. Sweeps override a
 * key per point: getList() checks every item of a comma list as a
 * value of the key it overrides, and with() derives the point's
 * options, so a point's value passes the same check as the command
 * line before any point runs.
 */

#ifndef VIA_SIMCORE_OPTIONS_HH
#define VIA_SIMCORE_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace via
{

/** Value type of one registered option. */
enum class OptType
{
    String,
    UInt,   //!< unsigned 64-bit
    Double,
    Bool,   //!< 1/0, true/false, yes/no, on/off
};

/** One registered key: type, default, help text, numeric range. */
struct OptionSpec
{
    std::string key;
    OptType type = OptType::String;
    std::string dflt; //!< default, as it would be typed ("" = none)
    std::string help;
    double min = std::numeric_limits<double>::lowest();
    double max = std::numeric_limits<double>::max();
    /** String keys: the values parse() accepts (empty = any). */
    std::vector<std::string> values{};
};

/**
 * A per-binary registry of OptionSpecs plus the parsed values.
 *
 * Typical use:
 *
 *   Options opts("fig10_spmv", "Figure 10 SpMV speedup");
 *   opts.addUInt("count", 24, "corpus matrices");
 *   addMachineOptions(opts);
 *   opts.parse(argc, argv);          // exits on error or help
 *   MachineParams params = machineParamsFrom(opts);
 */
class Options
{
  public:
    Options(std::string binary, std::string description);

    /** Register a key; fatal (programmer error) on duplicates. */
    Options &add(OptionSpec spec);

    /**
     * Typed registration conveniences. A string key with a fixed
     * set of @p values accepts no other value; its default is one
     * of them, or empty when the key has none (via_sim's kernel=).
     */
    Options &addString(const std::string &key,
                       const std::string &dflt,
                       const std::string &help,
                       std::vector<std::string> values = {});
    Options &addUInt(const std::string &key, std::uint64_t dflt,
                     const std::string &help,
                     std::uint64_t min = 0,
                     std::uint64_t max = std::uint64_t(1) << 62);
    Options &addDouble(
        const std::string &key, double dflt,
        const std::string &help,
        double min = std::numeric_limits<double>::lowest(),
        double max = std::numeric_limits<double>::max());
    Options &addBool(const std::string &key, bool dflt,
                     const std::string &help);
    /** A bool defaulting to false (the common "flag" shape). */
    Options &addFlag(const std::string &key,
                     const std::string &help);

    /** True if @p key is registered. */
    bool knows(const std::string &key) const;

    /**
     * Parse "key=value" tokens (and --help). On any user error the
     * process exits with status 2 after printing the diagnosis and
     * the sorted valid-key list; help exits 0. Call at most once.
     */
    void parse(const std::vector<std::string> &args);
    /** argv convenience; parses argv[first..argc). */
    void parse(int argc, char **argv, int first = 1);

    /**
     * Typed getters. The registry's default applies when the key
     * was not given; reading an unregistered key or one of another
     * type is a fatal programmer error, so a binary can only read
     * keys its help output documents.
     */
    std::string getString(const std::string &key) const;
    std::uint64_t getUInt(const std::string &key) const;
    double getDouble(const std::string &key) const;
    bool getBool(const std::string &key) const;

    /** True if the key was given on the command line. */
    bool given(const std::string &key) const;

    /**
     * The comma list in string key @p key, each item checked as a
     * value of @p item_key, the key a sweep point overrides. An
     * item that key rejects, or a list without items, is a usage
     * error (exit 2).
     */
    std::vector<std::string> getList(const std::string &key,
                                     const std::string &item_key) const;

    /**
     * A copy with @p key given as @p value, replacing any value the
     * command line gave it: one sweep point's options. A value the
     * key rejects is a usage error (exit 2).
     */
    Options with(const std::string &key,
                 const std::string &value) const;

    /** Print the generated key table (help=1 / --help). */
    void printHelp(std::ostream &os) const;

    /** Sorted registered keys (help, docs, error messages). */
    std::vector<std::string> keys() const;

    /** Every registered key, in registration order. */
    const std::vector<OptionSpec> &specs() const { return _specs; }

    /**
     * Report a user error the way parse() does: @p message, then
     * the sorted valid-key list; exits with status 2. Readers use
     * it for a combination of values they reject (cam_kb= above
     * sspm_kb=, mode=sampled at cores>1).
     */
    [[noreturn]] void usageError(const std::string &message) const;

    const std::string &binary() const { return _binary; }
    const std::string &description() const { return _description; }

  private:
    const OptionSpec *find(const std::string &key) const;
    const OptionSpec &require(const std::string &key,
                              OptType type) const;
    /** Validate one value against its spec; returns a diagnosis or
     *  the empty string when the value is well-formed. */
    std::string checkValue(const OptionSpec &spec,
                           const std::string &value) const;
    /** The given value of @p spec's key, else its default. */
    const std::string &valueOf(const OptionSpec &spec) const;

    std::string _binary;
    std::string _description;
    std::vector<OptionSpec> _specs;
    std::map<std::string, std::string> _given; //!< checked values
    bool _parsed = false;
};

/**
 * Shared key groups living at this layer. Binaries compose exactly
 * the groups whose features they wire up, so the help table never
 * advertises a key the binary ignores. Higher-layer groups are
 * declared next to their consumers: addMachineOptions
 * (cpu/machine_config.hh), addSampleOptions (sample/sampling.hh),
 * addTraceOptions (trace/trace_io.hh).
 */

/** threads=N for SweepExecutor-based harnesses. */
void addThreadsOption(Options &opts);
/** selfprof=1: host wall-time self-profile report at exit. */
void addSelfProfOption(Options &opts);

/**
 * Act on the shared selfprof=1 key: enables the self-profiler and
 * installs the at-exit report (simcore/selfprof.hh). Call once
 * right after parse().
 */
void applySelfProfOption(const Options &opts);

} // namespace via

#endif // VIA_SIMCORE_OPTIONS_HH
