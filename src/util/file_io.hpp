#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace hdpm::util {

/// Publish @p path crash-safely: @p write fills a sibling "<path>.tmp",
/// which is flushed and then renamed over @p path, so a reader (or a
/// resumed run) never observes a half-written file. On any failure the
/// .tmp is removed and FaultError{IoError} is thrown; an exception thrown
/// by @p write itself propagates unchanged.
void publish_file(const std::filesystem::path& path,
                  const std::function<void(std::ostream&)>& write);

/// publish_file for a payload already in memory.
void publish_file(const std::filesystem::path& path, std::string_view bytes);

/// Append @p bytes to @p path (creating it if missing) and flush. Not
/// atomic: a kill mid-write leaves a torn tail, which the file's own
/// framing must detect. Throws FaultError{IoError} when the filesystem
/// refuses.
void append_file(const std::filesystem::path& path, std::string_view bytes);

/// Set a damaged file aside as "<path>.corrupt" (keep the evidence, free
/// the name); falls back to removal when the rename fails. Returns false
/// when the file was already gone.
bool quarantine_file(const std::filesystem::path& path);

/// Append @p value to @p out as exactly 16 lowercase hex digits.
void append_hex64(std::string& out, std::uint64_t value);

/// @p value as exactly 16 lowercase hex digits.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Parse exactly 16 lowercase hex digits (the hex64 form) into @p value.
/// Returns false, leaving @p value unspecified, for anything else.
[[nodiscard]] bool parse_hex64(std::string_view text, std::uint64_t& value) noexcept;

/// The 64-bit FNV-1a hash of @p bytes: the checksum of framed file bodies.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

} // namespace hdpm::util
