#pragma once

/// Strict command-line value parsing shared by the example binaries: a
/// malformed value is a usage error (exit 2) whose message names the flag.

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>

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

} // namespace hdpm::cli
