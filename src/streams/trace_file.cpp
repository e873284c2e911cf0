#include "streams/trace_file.hpp"

#include <cerrno>
#include <cstring>
#include <ostream>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fault.hpp"
#include "util/file_io.hpp"

namespace hdpm::streams {

namespace {

constexpr char kMagic[8] = {'H', 'D', 'P', 'M', 'T', 'R', 'C', '\n'};
constexpr std::uint32_t kVersion = 1;

[[noreturn]] void io_fault(const std::filesystem::path& path, std::string detail)
{
    util::FaultContext context;
    context.component = path.string();
    context.detail = std::move(detail);
    throw util::FaultError{util::FaultKind::IoError, std::move(context)};
}

[[noreturn]] void corrupt_fault(const std::filesystem::path& path, std::string detail)
{
    util::FaultContext context;
    context.component = path.string();
    context.detail = std::move(detail);
    throw util::FaultError{util::FaultKind::ModelFileCorrupt, std::move(context)};
}

void put_u32(std::string& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

void put_u64(std::string& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

std::uint32_t get_u32(const unsigned char* p) noexcept
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        v = (v << 8) | p[i];
    }
    return v;
}

std::uint64_t get_u64(const unsigned char* p) noexcept
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | p[i];
    }
    return v;
}

} // namespace

std::size_t trace_file_words_offset(std::size_t operand_count) noexcept
{
    const std::size_t header = 8 + 4 + 4 + 8 + 4 * operand_count;
    return (header + 7) / 8 * 8;
}

void write_trace_file(const std::filesystem::path& path, const PackedTrace& trace)
{
    std::string header;
    header.append(kMagic, sizeof kMagic);
    put_u32(header, kVersion);
    put_u32(header, static_cast<std::uint32_t>(trace.operand_widths().size()));
    put_u64(header, trace.size());
    for (const int w : trace.operand_widths()) {
        put_u32(header, static_cast<std::uint32_t>(w));
    }
    header.resize(trace_file_words_offset(trace.operand_widths().size()), '\0');

    util::publish_file(path, [&](std::ostream& out) {
        out.write(header.data(), static_cast<std::streamsize>(header.size()));
        const auto words = trace.words();
        // The in-memory representation is already little-endian uint64 on
        // every target this tree builds for (x86-64 / aarch64-le).
        out.write(reinterpret_cast<const char*>(words.data()),
                  static_cast<std::streamsize>(words.size() * sizeof(std::uint64_t)));
    });
}

MappedTrace::MappedTrace(const std::filesystem::path& path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        io_fault(path, std::string{"open failed: "} + std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        io_fault(path, std::string{"fstat failed: "} + std::strerror(err));
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ < trace_file_words_offset(0)) {
        ::close(fd);
        corrupt_fault(path, "file shorter than the fixed header");
    }
    base_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (base_ == MAP_FAILED) {
        base_ = nullptr;
        io_fault(path, std::string{"mmap failed: "} + std::strerror(errno));
    }

    const auto* bytes = static_cast<const unsigned char*>(base_);
    if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0) {
        unmap();
        corrupt_fault(path, "bad magic (not a trace file)");
    }
    const std::uint32_t version = get_u32(bytes + 8);
    if (version != kVersion) {
        unmap();
        corrupt_fault(path, "unsupported format version " + std::to_string(version));
    }
    const std::uint32_t operand_count = get_u32(bytes + 12);
    const std::uint64_t samples = get_u64(bytes + 16);
    if (operand_count == 0 || operand_count > PackedTrace::kMaxWidth) {
        unmap();
        corrupt_fault(path, "implausible operand count " +
                                std::to_string(operand_count));
    }
    const std::size_t offset = trace_file_words_offset(operand_count);
    if (size_ < offset) {
        unmap();
        corrupt_fault(path, "file shorter than its operand-width table");
    }
    std::vector<int> widths(operand_count);
    for (std::uint32_t i = 0; i < operand_count; ++i) {
        widths[i] = static_cast<int>(get_u32(bytes + 24 + 4 * i));
    }
    const auto* words = reinterpret_cast<const std::uint64_t*>(bytes + offset);
    const std::size_t word_count = (size_ - offset) / sizeof(std::uint64_t);
    try {
        trace_ = PackedTrace::view_over(
            std::span<const std::uint64_t>{words, word_count}, widths,
            static_cast<std::size_t>(samples));
    } catch (const std::exception& error) {
        const std::string detail = error.what();
        unmap();
        corrupt_fault(path, detail);
    }
}

MappedTrace::~MappedTrace()
{
    unmap();
}

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : base_(other.base_), size_(other.size_), trace_(std::move(other.trace_))
{
    other.base_ = nullptr;
    other.size_ = 0;
}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept
{
    if (this != &other) {
        unmap();
        base_ = other.base_;
        size_ = other.size_;
        trace_ = std::move(other.trace_);
        other.base_ = nullptr;
        other.size_ = 0;
    }
    return *this;
}

void MappedTrace::unmap() noexcept
{
    if (base_ != nullptr) {
        ::munmap(base_, size_);
        base_ = nullptr;
        size_ = 0;
    }
}

} // namespace hdpm::streams
