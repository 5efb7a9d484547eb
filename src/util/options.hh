/**
 * @file
 * Tiny command-line option parser for the example binaries.
 *
 * Supports "--name value" and "--name=value" long options plus
 * "--help" generation.  Deliberately minimal: the examples need a
 * dozen numeric knobs, not a full CLI framework.
 */

#ifndef UATM_UTIL_OPTIONS_HH
#define UATM_UTIL_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace uatm {

/** One "key=value" element of a comma-separated list. */
struct KeyValue
{
    std::string key;
    std::string value;

    bool operator==(const KeyValue &) const = default;
};

/**
 * Parse "k1=v1,k2=v2,..." into ordered pairs.  An empty string is
 * the empty list.  Missing '=', empty keys, and empty elements
 * ("a=1,,b=2") are ParseError — reported via Status rather than
 * fatal() so "--workload=ycsb-a:theta=oops" can degrade to a typed
 * error at the caller's boundary of choice.  Values may be empty
 * ("hist=") and may not contain ',' (no escaping).
 */
Expected<std::vector<KeyValue>>
parseKeyValueList(std::string_view text);

/**
 * @p text as a count in [@p min, @p max]: InvalidArgument, before
 * any cast, for a sign, a fraction, anything but decimal digits, or
 * a value out of range ("-5", "4.5", "3x", "1e9", "4294967296"
 * under a 32-bit max), mirroring obs::JsonValue::asUnsigned.  The
 * one check behind OptionParser::getUnsigned and the count-valued
 * environment variables.
 */
Expected<std::uint64_t> parseUnsigned(std::string_view text,
                                      std::uint64_t min,
                                      std::uint64_t max);

/** Most worker threads a --threads option accepts: more is a typo,
 *  not a machine. */
inline constexpr std::uint64_t kMaxThreads = 1024;

/**
 * Declarative option table with typed accessors.
 */
class OptionParser
{
  public:
    /** @param program_name used in the --help banner. */
    explicit OptionParser(std::string program_name,
                          std::string description = "");

    /** Declare a string-valued option with a default. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Declare an integer option with a default. */
    void addInt(const std::string &name, std::int64_t def,
                const std::string &help);

    /** Declare a floating-point option with a default. */
    void addDouble(const std::string &name, double def,
                   const std::string &help);

    /** Declare a boolean flag (default false; "--name" sets true). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv.  On "--help", prints usage and returns false; the
     * caller should exit successfully.  Any parse problem —
     * unknown options, missing values, an option repeated on the
     * command line, or "--name=" with an empty value — is fatal().
     */
    bool parse(int argc, const char *const *argv);

    /**
     * parse() with typed errors instead of fatal(): returns an
     * InvalidArgument Status for unknown options, missing values,
     * repeated options (repetition is always ambiguous — neither
     * first- nor last-wins is obviously right, so both are
     * rejected), and "--name=" with an empty value (an explicitly
     * empty setting is indistinguishable from a typo; pass no
     * option to get the default).  helped is set when "--help"
     * was consumed (usage printed, OK returned): the caller
     * should exit successfully without reading values.
     */
    Status tryParse(int argc, const char *const *argv,
                    bool *helped = nullptr);

    std::string getString(const std::string &name) const;
    std::int64_t getInt(const std::string &name) const;

    /** A declared integer option as a count in [@p min, @p max]
     *  (parseUnsigned; the error names the option). */
    Expected<std::uint64_t>
    getUnsigned(const std::string &name, std::uint64_t min = 0,
                std::uint64_t max =
                    std::numeric_limits<std::uint64_t>::max()) const;

    double getDouble(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /**
     * A declared string option's value as a "k=v,..." list (see
     * parseKeyValueList).  Format errors come back as Status, like
     * getInt/getDouble range errors would be at a library boundary
     * — the CLI decides whether they are fatal.
     */
    Expected<std::vector<KeyValue>>
    getKeyValueList(const std::string &name) const;

    /** Render the --help text. */
    std::string usage() const;

  private:
    enum class Kind { String, Int, Double, Flag };

    struct Option
    {
        std::string name;
        Kind kind;
        std::string help;
        std::string value; // textual form, parsed on access
    };

    std::string programName_;
    std::string description_;
    std::vector<Option> options_;

    Option *find(const std::string &name);
    const Option &require(const std::string &name, Kind kind) const;
    void declare(const std::string &name, Kind kind,
                 const std::string &def, const std::string &help);
};

} // namespace uatm

#endif // UATM_UTIL_OPTIONS_HH
