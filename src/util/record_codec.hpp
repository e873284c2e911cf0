#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/file_io.hpp"

namespace hdpm::util {

// The grammar of every text record the program writes and reads back
// (checkpoint journals, fleet done files, calibration pieces, the fleet
// plan and leases, and the .hdm/.ehdm/bitwise model files):
//
//   - a line ends at '\n'; its words are separated by single spaces, so a
//     doubled, leading or trailing space reads as an empty word, which no
//     word parser accepts;
//   - a number is plain decimal (digits only, no leading zero, within its
//     type's range), exactly 16 lowercase hex digits (parse_hex64), or a
//     double in std::from_chars' general form;
//   - a frame is the line "block <body bytes, 16 hex> <FNV-1a of the body,
//     16 hex>" followed by exactly that many body bytes.
//
// Readers accept what the writers emit and nothing else.

/// @p word as a plain decimal number: digits only, no leading zero (the
/// form the writers emit), within T's range.
template <std::integral T>
[[nodiscard]] bool parse_decimal(std::string_view word, T& value) noexcept
{
    const char* const end = word.data() + word.size();
    const auto [stop, ec] = std::from_chars(word.data(), end, value);
    return !word.empty() && word[0] >= '0' && word[0] <= '9' &&
           (word[0] != '0' || word.size() == 1) && ec == std::errc{} && stop == end;
}

/// @p word as a double in std::from_chars' general form ("nan" and "inf"
/// included: callers that need a finite value check for one).
[[nodiscard]] bool parse_double(std::string_view word, double& value) noexcept;

/// A RecordReader::take field read as 16 hex digits.
struct Hex64 {
    std::uint64_t& value;
};

/// A RecordReader::take field that must be exactly @p text.
struct Literal {
    std::string_view text;
};

/// Reads a text record line by line (see the grammar above). Every view it
/// hands out points into the text it was given.
class RecordReader {
public:
    explicit RecordReader(std::string_view text) noexcept : text_(text) {}

    /// Take the next line; true when it has exactly @p count words, the
    /// first of them @p tag (any first word when @p tag is empty). False
    /// when no complete line is left or the line has another shape.
    bool next(std::string_view tag, std::size_t count);

    /// Take the next line as the words "<tag> <field>...", each field read
    /// by its type: an integer by parse_decimal, a double by parse_double,
    /// a std::string as any non-empty word, Hex64 and Literal as documented
    /// there. False when the line has another shape or a word does not
    /// parse (the fields are then unspecified).
    template <typename... Fields>
    bool take(std::string_view tag, Fields&&... fields)
    {
        std::size_t i = 0;
        return next(tag, 1 + sizeof...(Fields)) && (read_field(words_[++i], fields) && ...);
    }

    /// Take the next frame. True, with @p body the declared bytes after the
    /// frame line, when the declared length fits the bytes left and the
    /// body's FNV-1a equals the declared checksum; false otherwise (the
    /// reader's position is then unspecified).
    bool frame(std::string_view& body);

    /// Word @p i of the last line taken.
    [[nodiscard]] std::string_view word(std::size_t i) const { return words_[i]; }

    /// True when every byte was taken.
    [[nodiscard]] bool done() const noexcept { return text_.empty(); }

private:
    template <std::integral T>
    static bool read_field(std::string_view word, T& value) noexcept
    {
        return parse_decimal(word, value);
    }
    static bool read_field(std::string_view word, double& value) noexcept
    {
        return parse_double(word, value);
    }
    static bool read_field(std::string_view word, std::string& value)
    {
        value = word;
        return !word.empty();
    }
    static bool read_field(std::string_view word, Hex64 field) noexcept
    {
        return parse_hex64(word, field.value);
    }
    static bool read_field(std::string_view word, Literal field) noexcept
    {
        return word == field.text;
    }

    std::string_view text_;
    std::vector<std::string_view> words_;
};

/// Reserve a frame line at the end of @p out and return its offset; the
/// caller appends the body and then calls end_frame.
[[nodiscard]] std::size_t begin_frame(std::string& out);

/// Patch the frame line begun at @p frame with the length and FNV-1a of
/// everything appended to @p out since.
void end_frame(std::string& out, std::size_t frame);

/// The rest of @p in, read until its end or until more than @p limit
/// bytes were read (the result is then longer than @p limit, which the
/// caller refuses). Allocates in proportion to what it read.
[[nodiscard]] std::string read_bounded(std::istream& in, std::size_t limit = std::string::npos);

/// The file at @p path, read by read_bounded; nullopt when it cannot be
/// opened.
[[nodiscard]] std::optional<std::string> read_file(const std::filesystem::path& path,
                                                   std::size_t limit = std::string::npos);

} // namespace hdpm::util
