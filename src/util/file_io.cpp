#include "util/file_io.hpp"

#include <fstream>

#include "util/fault.hpp"

namespace hdpm::util {

namespace {

[[noreturn]] void io_fail(const std::filesystem::path& path, std::string detail)
{
    FaultContext context;
    context.component = path.string();
    context.detail = std::move(detail);
    throw FaultError{FaultKind::IoError, std::move(context)};
}

} // namespace

void publish_file(const std::filesystem::path& path,
                  const std::function<void(std::ostream&)>& write)
{
    const std::filesystem::path tmp = path.string() + ".tmp";
    const auto discard_tmp = [&] {
        std::error_code ignore;
        std::filesystem::remove(tmp, ignore);
    };
    try {
        std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
        if (!out) {
            io_fail(tmp, "cannot open for writing");
        }
        write(out);
        out.flush();
        if (!out) {
            io_fail(tmp, "short write");
        }
    } catch (...) {
        discard_tmp();
        throw;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        discard_tmp();
        io_fail(path, "cannot publish: " + ec.message());
    }
}

void publish_file(const std::filesystem::path& path, std::string_view bytes)
{
    publish_file(path, [bytes](std::ostream& out) {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    });
}

void append_file(const std::filesystem::path& path, std::string_view bytes)
{
    std::ofstream out{path, std::ios::binary | std::ios::app};
    if (!out) {
        io_fail(path, "cannot open for appending");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
        io_fail(path, "short append");
    }
}

bool quarantine_file(const std::filesystem::path& path)
{
    std::error_code ec;
    std::filesystem::rename(path, path.string() + ".corrupt", ec);
    if (!ec) {
        return true;
    }
    return std::filesystem::remove(path, ec);
}

void append_hex64(std::string& out, std::uint64_t value)
{
    char buf[16];
    for (int i = 15; i >= 0; --i) {
        buf[i] = "0123456789abcdef"[value & 0xf];
        value >>= 4;
    }
    out.append(buf, sizeof buf);
}

std::string hex64(std::uint64_t value)
{
    std::string out;
    append_hex64(out, value);
    return out;
}

bool parse_hex64(std::string_view text, std::uint64_t& value) noexcept
{
    if (text.size() != 16) {
        return false;
    }
    value = 0;
    for (const char c : text) {
        value <<= 4;
        if (c >= '0' && c <= '9') {
            value |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return false;
        }
    }
    return true;
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept
{
    std::uint64_t hash = 0xcbf2'9ce4'8422'2325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x0000'0100'0000'01b3ULL;
    }
    return hash;
}

} // namespace hdpm::util
