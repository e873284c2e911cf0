#include "core/checkpoint.hpp"

#include <bit>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/fault.hpp"
#include "util/file_io.hpp"

namespace hdpm::core {

using util::FaultContext;
using util::FaultError;
using util::FaultKind;
using util::FaultPoint;

namespace {

// Journal format, version 2 (all numbers decimal unless noted):
//
//   hdpm_checkpoint 2
//   fingerprint <16 hex>
//   module <key> m <m> corners <K>
//   then per merged shard, in plan order, one framed block:
//   block <body bytes, 16 hex> <FNV-1a of the body, 16 hex>
//   <body> = shard <index> <n>
//            <hd> <stable zeros> <toggle mask, 16 hex> <charge bits, 16 hex> x K
//            ... n transition lines
//
// There is no end marker: the file is appended block by block, and the
// frame (length + checksum) is what tells a whole block from a torn one.
constexpr std::string_view kMagic = "hdpm_checkpoint";
constexpr int kVersion = 2;
constexpr std::string_view kBlockTag = "block ";
constexpr std::size_t kFrameBytes = kBlockTag.size() + 16 + 1 + 16 + 1;

std::string encode_header(const CharCheckpoint& identity)
{
    std::string out{kMagic};
    out += ' ' + std::to_string(kVersion) + "\nfingerprint ";
    util::append_hex64(out, identity.fingerprint);
    out += "\nmodule " + identity.module_key + " m " +
           std::to_string(identity.input_bits) + " corners " +
           std::to_string(identity.corners) + '\n';
    return out;
}

/// Append one framed block of @p n transitions to @p out; at(k, i) is
/// corner k's record of transition i.
template <typename RecordAt>
void encode_block(std::string& out, std::size_t index, std::size_t n, std::size_t corners,
                  const RecordAt& at)
{
    const std::size_t frame = out.size();
    out.append(kFrameBytes, ' ');
    const std::size_t body = out.size();
    out += "shard " + std::to_string(index) + ' ' + std::to_string(n) + '\n';
    char digits[32]; // two ints and their separators
    for (std::size_t i = 0; i < n; ++i) {
        const CharacterizationRecord& rec = at(0, i);
        char* p = std::to_chars(digits, digits + 15, rec.hd).ptr;
        *p++ = ' ';
        p = std::to_chars(p, digits + 31, rec.stable_zeros).ptr;
        *p++ = ' ';
        out.append(digits, p);
        util::append_hex64(out, rec.toggle_mask);
        for (std::size_t k = 0; k < corners; ++k) {
            out += ' ';
            util::append_hex64(out, std::bit_cast<std::uint64_t>(at(k, i).charge_fc));
        }
        out += '\n';
    }
    std::string line{kBlockTag};
    util::append_hex64(line, out.size() - body);
    line += ' ';
    util::append_hex64(line, util::fnv1a64(std::string_view{out}.substr(body)));
    line += '\n';
    out.replace(frame, kFrameBytes, line);
}

/// Reads journal text line by line, splitting each line at single spaces
/// (a doubled space shows up as an empty word, which nothing accepts).
struct LineReader {
    std::string_view text;
    std::vector<std::string_view> words;

    /// Split off the next complete line; false when none is left.
    bool next()
    {
        const std::size_t end = text.find('\n');
        if (end == std::string_view::npos) {
            return false;
        }
        std::string_view line = text.substr(0, end);
        text.remove_prefix(end + 1);
        words.clear();
        for (std::size_t space; (space = line.find(' ')) != std::string_view::npos;) {
            words.push_back(line.substr(0, space));
            line.remove_prefix(space + 1);
        }
        words.push_back(line);
        return true;
    }

    /// The next line has exactly @p count words, the first of them @p tag.
    bool next(std::string_view tag, std::size_t count)
    {
        return next() && words.size() == count && words[0] == tag;
    }
};

/// @p word as a plain decimal number: digits only, within T's range.
template <typename T>
bool decimal(std::string_view word, T& value)
{
    const char* const end = word.data() + word.size();
    const auto [stop, ec] = std::from_chars(word.data(), end, value);
    return !word.empty() && word[0] >= '0' && word[0] <= '9' && ec == std::errc{} &&
           stop == end;
}

/// Parse one checksummed block body of a K-corner journal with input width
/// @p m into @p shard. False when the body does not hold exactly the
/// transitions its shard line declares; the declared count is bounded by
/// the bytes the body holds before anything is allocated.
bool parse_body(std::string_view body, int m, std::size_t corners, CheckpointShard& shard)
{
    LineReader lines{body, {}};
    std::size_t n = 0;
    // The shortest transition line: "1 0 <mask>", K " <charge>" and '\n'.
    if (!lines.next("shard", 3) || !decimal(lines.words[1], shard.index) ||
        !decimal(lines.words[2], n) || n > body.size() / (21 + 17 * corners)) {
        return false;
    }
    shard.records.resize(n * corners);
    for (std::size_t i = 0; i < n; ++i) {
        const auto& words = lines.words;
        CharacterizationRecord rec;
        if (!lines.next() || words.size() != 3 + corners || !decimal(words[0], rec.hd) ||
            !decimal(words[1], rec.stable_zeros) || rec.hd < 1 || rec.hd > m ||
            rec.stable_zeros > m - rec.hd || !util::parse_hex64(words[2], rec.toggle_mask)) {
            return false;
        }
        for (std::size_t k = 0; k < corners; ++k) {
            std::uint64_t bits = 0;
            if (!util::parse_hex64(words[3 + k], bits)) {
                return false;
            }
            rec.charge_fc = std::bit_cast<double>(bits);
            shard.records[k * n + i] = rec;
        }
    }
    return lines.text.empty();
}

/// Shared parser for the strict and the tolerant loaders. Damage raises
/// CheckpointCorrupt in strict mode; in tolerant mode it stops the parse at
/// the last whole block (anything behind a tear is untrusted) and reports
/// what was wrong via @p damage_detail.
std::optional<CharCheckpoint> parse_checkpoint(const std::filesystem::path& path,
                                               std::size_t first_shard, bool strict,
                                               std::string& damage_detail)
{
    damage_detail.clear();
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        return std::nullopt;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    const std::string data = std::move(contents).str();

    // In tolerant mode a damage site keeps whatever parsed whole so far
    // (possibly nothing: then the header itself is unusable and the caller
    // starts fresh).
    const auto fail = [&](std::string detail) {
        if (strict) {
            FaultContext context;
            context.component = path.string();
            context.detail = std::move(detail);
            throw FaultError{FaultKind::CheckpointCorrupt, std::move(context)};
        }
        damage_detail = std::move(detail);
    };

    LineReader lines{data, {}};
    const auto& words = lines.words;
    int version = 0;
    if (!lines.next(kMagic, 2) || !decimal(words[1], version) || version != kVersion) {
        fail("bad magic/version header");
        return std::nullopt;
    }
    CharCheckpoint checkpoint;
    if (!lines.next("fingerprint", 2) || !util::parse_hex64(words[1], checkpoint.fingerprint)) {
        fail("missing or malformed fingerprint header");
        return std::nullopt;
    }
    // K is bounded by the file size, so no count arithmetic below overflows.
    if (!lines.next("module", 6) || words[1].empty() || words[2] != "m" ||
        !decimal(words[3], checkpoint.input_bits) || words[4] != "corners" ||
        !decimal(words[5], checkpoint.corners) || checkpoint.input_bits < 1 ||
        checkpoint.corners < 1 || checkpoint.corners > data.size()) {
        fail("malformed module header");
        return std::nullopt;
    }
    checkpoint.module_key = words[1];

    while (!lines.text.empty()) {
        std::uint64_t bytes = 0;
        std::uint64_t checksum = 0;
        if (!lines.next("block", 3) || !util::parse_hex64(words[1], bytes) ||
            !util::parse_hex64(words[2], checksum) || bytes > lines.text.size()) {
            fail("torn or malformed block frame after shard block " +
                 std::to_string(checkpoint.shards.size()));
            return checkpoint;
        }
        const std::string_view body = lines.text.substr(0, bytes);
        lines.text.remove_prefix(bytes);
        CheckpointShard shard;
        if (util::fnv1a64(body) != checksum ||
            !parse_body(body, checkpoint.input_bits, checkpoint.corners, shard)) {
            fail("damaged shard block " + std::to_string(checkpoint.shards.size()));
            return checkpoint;
        }
        // Shards are merged — and therefore journaled — strictly in plan
        // order, so anything else is damage, not a valid journal.
        if (shard.index != first_shard + checkpoint.shards.size()) {
            fail("shard indices are not a contiguous prefix");
            return checkpoint;
        }
        checkpoint.shards.push_back(std::move(shard));
    }
    return checkpoint;
}

} // namespace

void save_checkpoint(const std::filesystem::path& path,
                     const CharCheckpoint& checkpoint)
{
    HDPM_REQUIRE(checkpoint.corners >= 1, "a journal scores at least one corner");
    std::string payload = encode_header(checkpoint);
    for (const CheckpointShard& shard : checkpoint.shards) {
        HDPM_REQUIRE(shard.records.size() % checkpoint.corners == 0,
                     "shard block is not whole corner blocks");
        const std::size_t n = shard.records.size() / checkpoint.corners;
        encode_block(payload, shard.index, n, checkpoint.corners,
                     [&](std::size_t k, std::size_t i) -> const CharacterizationRecord& {
                         return shard.records[k * n + i];
                     });
    }
    HDPM_FAULT_MUTATE(FaultPoint::CheckpointShortWrite, payload);
    util::publish_file(path, payload);
}

CheckpointAppender::CheckpointAppender(std::filesystem::path path,
                                       const CharCheckpoint& identity, bool on_disk)
    : path_(std::move(path)), corners_(identity.corners),
      pending_(on_disk ? std::string{} : encode_header(identity)), on_disk_(on_disk)
{
    HDPM_REQUIRE(corners_ >= 1, "a journal scores at least one corner");
}

void CheckpointAppender::add(std::size_t index,
                             std::span<const std::vector<CharacterizationRecord>> corners)
{
    const std::size_t n = corners.empty() ? 0 : corners[0].size();
    HDPM_REQUIRE(n == 0 || corners.size() == corners_, "block has ", corners.size(),
                 " corners, the journal ", corners_);
    encode_block(pending_, index, n, corners_,
                 [&](std::size_t k, std::size_t i) -> const CharacterizationRecord& {
                     return corners[k][i];
                 });
}

void CheckpointAppender::publish()
{
    HDPM_FAULT_MUTATE(FaultPoint::CheckpointShortWrite, pending_);
    if (on_disk_) {
        util::append_file(path_, pending_);
    } else {
        util::publish_file(path_, pending_);
        on_disk_ = true;
    }
    pending_.clear();
}

std::optional<CharCheckpoint> load_checkpoint(const std::filesystem::path& path,
                                              std::size_t first_shard)
{
    std::string detail;
    return parse_checkpoint(path, first_shard, /*strict=*/true, detail);
}

CheckpointSalvage salvage_checkpoint(const std::filesystem::path& path,
                                     std::size_t first_shard)
{
    CheckpointSalvage salvage;
    salvage.checkpoint = parse_checkpoint(path, first_shard, /*strict=*/false, salvage.detail);
    salvage.clean = salvage.detail.empty();
    return salvage;
}

} // namespace hdpm::core
