/**
 * @file
 * Implementation of the command-line option parser.
 */

#include "util/options.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace uatm {

Expected<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t min,
              std::uint64_t max)
{
    const bool digits =
        !text.empty() &&
        std::all_of(text.begin(), text.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
        });
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    if (!digits || std::from_chars(text.data(), end, v).ec != std::errc{} ||
        v < min || v > max)
        return Status::invalidArgument("must be an integer in [", min,
                                       ", ", max, "] (got '", text,
                                       "')");
    return v;
}

Expected<std::vector<KeyValue>>
parseKeyValueList(std::string_view text)
{
    std::vector<KeyValue> pairs;
    if (text.empty())
        return pairs;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string_view::npos)
            end = text.size();
        const std::string_view item =
            text.substr(start, end - start);
        if (item.empty()) {
            return Status::parseError(
                "empty element in key=value list '",
                std::string(text), "'");
        }
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            return Status::parseError(
                "'", std::string(item),
                "' is not of the form key=value");
        }
        if (eq == 0) {
            return Status::parseError(
                "empty key in '", std::string(item), "'");
        }
        pairs.push_back(KeyValue{std::string(item.substr(0, eq)),
                                 std::string(item.substr(eq + 1))});
        if (end == text.size())
            break;
        start = end + 1;
        if (start == text.size()) {
            return Status::parseError(
                "trailing comma in key=value list '",
                std::string(text), "'");
        }
    }
    return pairs;
}

OptionParser::OptionParser(std::string program_name,
                           std::string description)
    : programName_(std::move(program_name)),
      description_(std::move(description))
{
}

void
OptionParser::declare(const std::string &name, Kind kind,
                      const std::string &def, const std::string &help)
{
    UATM_ASSERT(!find(name), "option '", name, "' declared twice");
    options_.push_back(Option{name, kind, help, def});
}

void
OptionParser::addString(const std::string &name, const std::string &def,
                        const std::string &help)
{
    declare(name, Kind::String, def, help);
}

void
OptionParser::addInt(const std::string &name, std::int64_t def,
                     const std::string &help)
{
    declare(name, Kind::Int, std::to_string(def), help);
}

void
OptionParser::addDouble(const std::string &name, double def,
                        const std::string &help)
{
    std::ostringstream os;
    os << def;
    declare(name, Kind::Double, os.str(), help);
}

void
OptionParser::addFlag(const std::string &name, const std::string &help)
{
    declare(name, Kind::Flag, "0", help);
}

bool
OptionParser::parse(int argc, const char *const *argv)
{
    bool helped = false;
    const Status status = tryParse(argc, argv, &helped);
    if (!status.ok())
        fatal(status.message());
    return !helped;
}

Status
OptionParser::tryParse(int argc, const char *const *argv,
                       bool *helped)
{
    if (helped)
        *helped = false;
    std::vector<const Option *> seen;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            if (helped)
                *helped = true;
            return Status();
        }
        if (arg.rfind("--", 0) != 0) {
            return Status::invalidArgument(
                "unexpected positional argument '", arg, "'");
        }
        arg = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        Option *opt = find(arg);
        if (!opt) {
            return Status::invalidArgument(
                "unknown option '--", arg, "' (try --help)");
        }
        if (std::find(seen.begin(), seen.end(), opt) !=
            seen.end()) {
            return Status::invalidArgument(
                "option '--", arg,
                "' given more than once (neither value can win "
                "silently)");
        }
        seen.push_back(opt);
        if (has_value && value.empty()) {
            return Status::invalidArgument(
                "option '--", arg,
                "=' has an empty value (omit the option to keep "
                "its default)");
        }
        if (opt->kind == Kind::Flag) {
            opt->value = has_value ? value : "1";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                return Status::invalidArgument(
                    "option '--", arg, "' needs a value");
            }
            value = argv[++i];
        }
        opt->value = value;
    }
    return Status();
}

std::string
OptionParser::getString(const std::string &name) const
{
    return require(name, Kind::String).value;
}

std::int64_t
OptionParser::getInt(const std::string &name) const
{
    const Option &opt = require(name, Kind::Int);
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(opt.value.c_str(), &end, 10);
    if (end == opt.value.c_str() || *end != '\0')
        fatal("option '--", name, "': '", opt.value,
              "' is not an integer");
    if (errno == ERANGE)
        fatal("option '--", name, "': '", opt.value,
              "' overflows a 64-bit integer");
    return v;
}

Expected<std::uint64_t>
OptionParser::getUnsigned(const std::string &name, std::uint64_t min,
                          std::uint64_t max) const
{
    Expected<std::uint64_t> v =
        parseUnsigned(require(name, Kind::Int).value, min, max);
    if (!v.ok())
        return Status::invalidArgument("option '--", name, "' ",
                                       v.status().message());
    return v;
}

double
OptionParser::getDouble(const std::string &name) const
{
    const Option &opt = require(name, Kind::Double);
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(opt.value.c_str(), &end);
    if (end == opt.value.c_str() || *end != '\0')
        fatal("option '--", name, "': '", opt.value,
              "' is not a number");
    if (errno == ERANGE && (v >= HUGE_VAL || v <= -HUGE_VAL))
        fatal("option '--", name, "': '", opt.value,
              "' overflows a double");
    return v;
}

bool
OptionParser::getFlag(const std::string &name) const
{
    const Option &opt = require(name, Kind::Flag);
    std::string value = opt.value;
    std::transform(value.begin(), value.end(), value.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    fatal("option '--", name, "': bad flag value '", opt.value,
          "' (expected 1/0/true/false/yes/no)");
}

Expected<std::vector<KeyValue>>
OptionParser::getKeyValueList(const std::string &name) const
{
    return parseKeyValueList(require(name, Kind::String).value);
}

std::string
OptionParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << programName_ << " [options]\n";
    if (!description_.empty())
        os << description_ << "\n";
    os << "\noptions:\n";
    for (const auto &opt : options_) {
        os << "  --" << opt.name;
        if (opt.kind != Kind::Flag)
            os << " <value>";
        os << "\n      " << opt.help;
        if (opt.kind != Kind::Flag)
            os << " (default: " << opt.value << ")";
        os << '\n';
    }
    return os.str();
}

OptionParser::Option *
OptionParser::find(const std::string &name)
{
    for (auto &opt : options_) {
        if (opt.name == name)
            return &opt;
    }
    return nullptr;
}

const OptionParser::Option &
OptionParser::require(const std::string &name, Kind kind) const
{
    for (const auto &opt : options_) {
        if (opt.name == name) {
            UATM_ASSERT(opt.kind == kind,
                        "option '", name, "' accessed with wrong type");
            return opt;
        }
    }
    panic("option '", name, "' was never declared");
}

} // namespace uatm
