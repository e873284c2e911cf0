#pragma once

// Reference writer of the version-2 checkpoint journal format, for tests
// that hand-build journals (malformed ones included). It shares no code
// with core/checkpoint.cpp: the frame, the FNV-1a checksum and the
// fixed-width hex are spelled out from the documented format
// (docs/robustness.md), so a test built on it also checks the production
// encoder and parser against the document.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace hdpm::oracle {

/// @p value as 16 lowercase hex digits.
inline std::string journal_hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
    return buf;
}

/// The three header lines of a journal.
inline std::string journal_header(std::uint64_t fingerprint, std::string_view module_key,
                                  int m, std::size_t corners)
{
    return "hdpm_checkpoint 2\nfingerprint " + journal_hex(fingerprint) + "\nmodule " +
           std::string{module_key} + " m " + std::to_string(m) + " corners " +
           std::to_string(corners) + '\n';
}

/// @p body framed as one block: its byte length and FNV-1a checksum.
inline std::string journal_block(std::string_view body)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : body) {
        hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return "block " + journal_hex(body.size()) + ' ' + journal_hex(hash) + '\n' +
           std::string{body};
}

} // namespace hdpm::oracle
