#include "util/record_codec.hpp"

#include <fstream>

namespace hdpm::util {

namespace {

constexpr std::string_view kFrameTag = "block";
constexpr std::size_t kFrameBytes = kFrameTag.size() + 1 + 16 + 1 + 16 + 1;

} // namespace

bool RecordReader::next(std::string_view tag, std::size_t count)
{
    const std::size_t end = text_.find('\n');
    if (end == std::string_view::npos) {
        return false;
    }
    std::string_view line = text_.substr(0, end);
    text_.remove_prefix(end + 1);
    words_.clear();
    for (;;) {
        const std::size_t space = line.find(' ');
        words_.push_back(line.substr(0, space));
        if (space == std::string_view::npos) {
            break;
        }
        if (words_.size() >= count) {
            return false; // more words than the line may hold
        }
        line.remove_prefix(space + 1);
    }
    return words_.size() == count && (tag.empty() || words_[0] == tag);
}

bool RecordReader::frame(std::string_view& body)
{
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
    if (!take(kFrameTag, Hex64{bytes}, Hex64{checksum}) || bytes > text_.size()) {
        return false;
    }
    body = text_.substr(0, bytes);
    text_.remove_prefix(bytes);
    return fnv1a64(body) == checksum;
}

bool parse_double(std::string_view word, double& value) noexcept
{
    const char* const end = word.data() + word.size();
    const auto [stop, ec] = std::from_chars(word.data(), end, value);
    return ec == std::errc{} && stop == end;
}

std::size_t begin_frame(std::string& out)
{
    const std::size_t frame = out.size();
    out.append(kFrameBytes, ' ');
    return frame;
}

void end_frame(std::string& out, std::size_t frame)
{
    const std::string_view body = std::string_view{out}.substr(frame + kFrameBytes);
    std::string line{kFrameTag};
    line += ' ';
    append_hex64(line, body.size());
    line += ' ';
    append_hex64(line, fnv1a64(body));
    line += '\n';
    out.replace(frame, kFrameBytes, line);
}

std::string read_bounded(std::istream& in, std::size_t limit)
{
    std::string out;
    char chunk[4096];
    while (out.size() <= limit && in.read(chunk, sizeof chunk).gcount() > 0) {
        out.append(chunk, static_cast<std::size_t>(in.gcount()));
    }
    return out;
}

std::optional<std::string> read_file(const std::filesystem::path& path, std::size_t limit)
{
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        return std::nullopt;
    }
    return read_bounded(in, limit);
}

} // namespace hdpm::util
