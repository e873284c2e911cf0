#pragma once

/// Strict command-line parsing shared by the example binaries: a malformed
/// or missing value is a usage error (exit 2) whose message names the flag.

#include <cctype>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/characterize.hpp"
#include "streams/stream.hpp"

namespace hdpm::cli {

/// Parse @p text as a plain non-negative decimal number of type T: digits
/// first (no sign, no "inf"/"nan"), no trailing characters, and within T's
/// range. Anything else is a usage error naming @p what (the flag, or
/// "width").
template <typename T>
T parse_number(const std::string& what, const std::string& text)
{
    T value{};
    const char* const end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    // from_chars accepts a '-' for signed T; demand a leading digit instead.
    if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 || ec != std::errc{} ||
        stop != end) {
        std::cerr << "invalid value '" << text << "' for " << what << " (expected a "
                  << (std::is_integral_v<T> ? "non-negative decimal integer"
                                            : "non-negative decimal number");
        if (ec == std::errc::result_out_of_range) {
            std::cerr << " no larger than " << std::numeric_limits<T>::max();
        }
        std::cerr << ")\n";
        std::exit(2);
    }
    return value;
}

/// A --data operand type by label (I..V) or name; anything else is a usage
/// error.
inline streams::DataType parse_data_type(const std::string& label)
{
    for (const streams::DataType type : streams::all_data_types()) {
        if (label == streams::data_type_label(type) ||
            label == streams::data_type_name(type)) {
            return type;
        }
    }
    std::cerr << "unknown data type '" << label << "' (use I..V or a name)\n";
    std::exit(2);
}

/// Walks the arguments of @p argv from index @p first on: next() moves to
/// the next flag, and value() or number() consume its value.
class FlagReader {
public:
    FlagReader(int argc, char** argv, int first) noexcept
        : argc_(argc), argv_(argv), next_(first)
    {
    }

    /// The operand widths up to the first flag.
    std::vector<int> widths()
    {
        std::vector<int> out;
        while (next_ < argc_ && argv_[next_][0] != '-') {
            out.push_back(parse_number<int>("width", argv_[next_++]));
        }
        return out;
    }

    /// Move to the next flag; false once every argument is read.
    bool next()
    {
        if (next_ >= argc_) {
            return false;
        }
        flag_ = argv_[next_++];
        return true;
    }

    /// Move to the next argument when it is a flag; false, consuming
    /// nothing, at an operand or once every argument is read.
    bool next_flag() { return next_ < argc_ && argv_[next_][0] == '-' && next(); }

    /// The next argument, consumed as an operand; "" once every argument
    /// is read.
    std::string operand() { return next_ < argc_ ? argv_[next_++] : std::string{}; }

    [[nodiscard]] const std::string& flag() const noexcept { return flag_; }

    /// The flag's value, the next argument; a missing one is a usage error.
    std::string value()
    {
        if (next_ >= argc_) {
            std::cerr << "missing value for " << flag_ << '\n';
            std::exit(2);
        }
        return argv_[next_++];
    }

    /// Parse the flag's value into @p out (parse_number).
    template <typename T>
    void number(T& out)
    {
        out = parse_number<T>(flag_, value());
    }

    /// Parse the flag's value into @p out (parse_number) as a count of at
    /// least one: zero is a usage error too, not rewritten to one.
    template <typename T>
    void positive_number(T& out)
    {
        const std::string text = value();
        out = parse_number<T>(flag_, text);
        if (out == 0) {
            std::cerr << "invalid value '" << text << "' for " << flag_
                      << " (expected a positive decimal integer)\n";
            std::exit(2);
        }
    }

    /// Parse the flag's optional value into @p out: the next argument,
    /// unless it is missing or a flag.
    template <typename T>
    void optional_number(T& out)
    {
        if (next_ < argc_ && argv_[next_][0] != '-') {
            out = parse_number<T>(flag_, argv_[next_++]);
        }
    }

private:
    int argc_;
    char** argv_;
    int next_;
    std::string flag_;
};

/// A budget of N transitions: measure at most N and at least N/2.
inline void set_budget(core::CharacterizationOptions& options, std::size_t budget)
{
    options.max_transitions = budget;
    options.min_transitions = budget / 2;
}

/// The characterization flags of hdpower_cli and hdpower_fleet, parsed and
/// mapped to options in one place: a fleet stores the model
/// `hdpower_cli characterize` stores with the same flags.
struct CharFlags {
    std::size_t budget = 12000;
    core::CharBackend backend = core::CharBackend::EventKernel;
    std::size_t calibration = 512;
    std::size_t shard_size = 0; ///< 0 = batch (part of the stimulus plan)
    bool enhanced = false;
    int zero_clusters = 0;

    /// Consume the reader's flag when it is one of these; false if not.
    bool read(FlagReader& args)
    {
        const std::string& flag = args.flag();
        if (flag == "--budget") {
            args.number(budget);
        } else if (flag == "--backend") {
            const std::string name = args.value();
            if (name == "event") {
                backend = core::CharBackend::EventKernel;
            } else if (name == "emulation") {
                backend = core::CharBackend::PowerEmulation;
            } else {
                std::cerr << "unknown backend '" << name << "' (use event or emulation)\n";
                std::exit(2);
            }
        } else if (flag == "--calibration") {
            args.number(calibration);
        } else if (flag == "--shard-size") {
            args.number(shard_size);
        } else if (flag == "--enhanced") {
            enhanced = true;
            args.optional_number(zero_clusters);
        } else {
            return false;
        }
        return true;
    }

    /// The plan these flags describe; execution knobs keep their defaults.
    [[nodiscard]] core::CharacterizationOptions options() const
    {
        core::CharacterizationOptions options;
        set_budget(options, budget);
        options.backend = backend;
        options.calibration_pairs = calibration;
        options.shard_size = shard_size;
        return options;
    }
};

} // namespace hdpm::cli
