// Mutation test of every reader of the text-record codec
// (util/record_codec.hpp): checkpoint journals (strict and salvage),
// calibration piece files, the fleet plan, leases, and the three model
// formats. Seeds come from the repo's own writers; deterministic mutations
// (byte flips, truncations, splices, number edits, frame length and
// checksum edits, and body edits behind a recomputed frame) must each read
// as a value or as the reader's documented failure — never another
// exception, a crash or a hang — and no single allocation may exceed a
// fixed multiple of the input's size plus a constant.
//
// Framed and control-file readers accept exactly what their writers emit,
// so a value they return must re-encode to the input bytes (a salvaged
// journal to a byte prefix of them). That is what catches a reader that
// skips its checksum or its declared-length bound: the mutated frame it
// lets through does not re-encode.

#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "core/bitwise_model.hpp"
#include "core/checkpoint.hpp"
#include "core/enhanced_model.hpp"
#include "core/hd_model.hpp"
#include "fleet/lease.hpp"
#include "oracles/journal_v2.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

// Largest-allocation tracking allocator: while g_tracking is set, every
// heap allocation raises g_largest to its size.
namespace {
std::atomic<bool> g_tracking{false};
std::atomic<std::size_t> g_largest{0};

void note_allocation(std::size_t size) noexcept
{
    if (!g_tracking.load(std::memory_order_relaxed)) {
        return;
    }
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (seen < size &&
           !g_largest.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
    }
}
} // namespace

// noinline keeps compilers from pairing the malloc/free internals across
// call sites and warning about mismatched allocation functions.
#if defined(__GNUC__)
#define HDPM_ALLOC_NOINLINE __attribute__((noinline))
#else
#define HDPM_ALLOC_NOINLINE
#endif

HDPM_ALLOC_NOINLINE void* operator new(std::size_t size)
{
    note_allocation(size);
    if (void* p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc{};
}

HDPM_ALLOC_NOINLINE void* operator new[](std::size_t size)
{
    return ::operator new(size);
}

HDPM_ALLOC_NOINLINE void* operator new(std::size_t size, std::align_val_t align)
{
    note_allocation(size);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) {
        return p;
    }
    throw std::bad_alloc{};
}

HDPM_ALLOC_NOINLINE void* operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

HDPM_ALLOC_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
HDPM_ALLOC_NOINLINE void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
HDPM_ALLOC_NOINLINE void operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete(void* p, std::size_t,
                                         std::align_val_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete[](void* p, std::size_t,
                                           std::align_val_t) noexcept
{
    std::free(p);
}

namespace hdpm {
namespace {

namespace fs = std::filesystem;
using util::FaultError;
using util::FaultKind;

constexpr std::size_t kMutationsPerSchema = 600;
/// The allocation bound: a reader may hold the input, its line's words
/// (16-byte views, at worst one per input byte, doubled by vector growth)
/// and its decoded records, plus a constant.
constexpr std::size_t kAllocPerInputByte = 40;
constexpr std::size_t kAllocSlack = 64 * 1024;

/// Tracks the largest single allocation for its lifetime.
class TrackAllocations {
public:
    TrackAllocations()
    {
        g_largest.store(0, std::memory_order_relaxed);
        g_tracking.store(true, std::memory_order_relaxed);
    }
    ~TrackAllocations() { g_tracking.store(false, std::memory_order_relaxed); }
    TrackAllocations(const TrackAllocations&) = delete;
    TrackAllocations& operator=(const TrackAllocations&) = delete;
};

std::string slurp(const fs::path& path)
{
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void put(const fs::path& path, std::string_view bytes)
{
    std::ofstream{path, std::ios::binary | std::ios::trunc}.write(
        bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// What a value read back must re-encode to.
enum class Oracle {
    None,   ///< no re-encoding check (models: doubles have many spellings)
    Exact,  ///< the input bytes
    Prefix, ///< a byte prefix of the input (a salvaged journal)
};

/// One reader under test. read() feeds it @p bytes inside a
/// TrackAllocations scope and returns the writer's bytes for the value it
/// read, or nullopt when it raised its documented failure; any other
/// exception propagates.
struct Schema {
    std::string name;
    std::string seed;
    Oracle oracle;
    std::function<std::optional<std::string>(std::string_view bytes)> read;
};

// ------------------------------------------------------------- mutation

/// One frame of @p text: offset of its "block" line and of its body, and
/// the body's declared length.
struct FrameAt {
    std::size_t line;
    std::size_t body;
    std::uint64_t length;
};

std::vector<FrameAt> find_frames(const std::string& text)
{
    std::vector<FrameAt> frames;
    for (std::size_t at = text.find("block "); at != std::string::npos;
         at = text.find("block ", at + 1)) {
        std::uint64_t length = 0;
        const char* digits = text.data() + at + 6;
        if ((at == 0 || text[at - 1] == '\n') && at + 40 <= text.size() &&
            std::from_chars(digits, digits + 16, length, 16).ptr == digits + 16 &&
            text[at + 39] == '\n') {
            frames.push_back({at, at + 40, length});
        }
    }
    return frames;
}

/// Replace a random run of decimal digits with a signed, zero-padded,
/// huge or overflowing number.
void edit_number(std::string& text, util::Rng& rng)
{
    static const char* const kNumbers[] = {"-1", "+3", "0", "00", "07", "4000", "2000000000",
                                           "4294967296", "18446744073709551615",
                                           "99999999999999999999", "-0", ""};
    if (text.empty()) {
        return;
    }
    std::size_t at = rng.uniform_int(text.size());
    while (at < text.size() && (text[at] < '0' || text[at] > '9')) {
        ++at;
    }
    std::size_t end = at;
    while (end < text.size() && text[end] >= '0' && text[end] <= '9') {
        ++end;
    }
    text.replace(at, end - at, kNumbers[rng.uniform_int(std::size(kNumbers))]);
}

void flip_byte(std::string& text, util::Rng& rng)
{
    if (!text.empty()) {
        text[rng.uniform_int(text.size())] ^= static_cast<char>(1 + rng.uniform_int(255));
    }
}

/// Apply one to three mutations to @p seed; @p pool supplies splice donors.
std::string mutate(const std::string& seed, util::Rng& rng, const std::vector<std::string>& pool)
{
    std::string text = seed;
    const std::uint64_t rounds = 1 + rng.uniform_int(3);
    for (std::uint64_t round = 0; round < rounds; ++round) {
        const std::vector<FrameAt> frames = find_frames(text);
        const FrameAt* frame =
            frames.empty() ? nullptr : &frames[rng.uniform_int(frames.size())];
        switch (rng.uniform_int(7)) {
        case 0:
            flip_byte(text, rng);
            break;
        case 1:
            text.resize(rng.uniform_int(text.size() + 1));
            break;
        case 2: { // splice: a slice of any seed over a random range
            const std::string& donor = pool[rng.uniform_int(pool.size())];
            const std::size_t from = rng.uniform_int(donor.size() + 1);
            const std::size_t take = rng.uniform_int(donor.size() - from + 1);
            const std::size_t at = rng.uniform_int(text.size() + 1);
            const std::size_t drop = rng.uniform_int(text.size() - at + 1);
            text.replace(at, drop, donor, from, take);
            break;
        }
        case 3: // frame length edit: off by a little, zero, or huge
            if (frame != nullptr) {
                static const std::int64_t kDeltas[] = {-2, -1, 1, 2, 64};
                std::uint64_t length = frame->length;
                switch (rng.uniform_int(3)) {
                case 0:
                    length += static_cast<std::uint64_t>(
                        kDeltas[rng.uniform_int(std::size(kDeltas))]);
                    break;
                case 1:
                    length = 0;
                    break;
                default:
                    length = rng.next_u64();
                    break;
                }
                text.replace(frame->line + 6, 16, oracle::journal_hex(length));
                break;
            }
            [[fallthrough]];
        case 4: // frame checksum edit
            if (frame != nullptr) {
                text.replace(frame->line + 23, 16, oracle::journal_hex(rng.next_u64()));
                break;
            }
            [[fallthrough]];
        case 5: // body edit behind a recomputed frame, so the body parser sees it
            if (frame != nullptr && frame->body + frame->length <= text.size()) {
                std::string body = text.substr(frame->body, frame->length);
                if (rng.bernoulli(0.5)) {
                    edit_number(body, rng);
                } else {
                    flip_byte(body, rng);
                }
                text.replace(frame->line, frame->body - frame->line + frame->length,
                             oracle::journal_block(body));
                break;
            }
            [[fallthrough]];
        default:
            edit_number(text, rng);
            break;
        }
    }
    return text;
}

/// @p text with control bytes escaped, for failure messages.
std::string printable(std::string_view text)
{
    std::string out;
    for (const char c : text.substr(0, 600)) {
        if (c == '\n') {
            out += "\\n";
        } else if (c < 32 || c > 126) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\x%02x", static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

// ------------------------------------------------------------- schemas

class CodecFuzz : public ::testing::Test {
protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() / ("hdpm_codec_fuzz_" + std::to_string(::getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_ / "in");
        fs::create_directories(dir_ / "out");
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::vector<Schema> schemas() const;

    fs::path dir_;
};

core::CharCheckpoint sample_journal(std::size_t corners, util::Rng& rng)
{
    core::CharCheckpoint journal;
    journal.fingerprint = rng.next_u64();
    journal.module_key = "generic350_ripple_adder_4x4";
    journal.input_bits = 8;
    journal.corners = corners;
    for (std::size_t index = 0; index < 3; ++index) {
        core::CheckpointShard shard;
        shard.index = index;
        const std::size_t n = index == 1 ? 0 : 4; // shard 1 failed: an empty block
        for (std::size_t k = 0; k < corners; ++k) {
            for (std::size_t i = 0; i < n; ++i) {
                core::CharacterizationRecord rec;
                rec.hd = 1 + static_cast<int>(i);
                rec.stable_zeros = static_cast<int>(i % 3);
                rec.toggle_mask = rng.next_u64() & 0xff;
                rec.charge_fc = rng.uniform(0.0, 500.0);
                shard.records.push_back(rec);
            }
        }
        journal.shards.push_back(std::move(shard));
    }
    return journal;
}

std::vector<Schema> CodecFuzz::schemas() const
{
    util::Rng rng{23};
    const fs::path in = dir_ / "in" / "record";
    const fs::path out = dir_ / "out" / "record";
    std::vector<Schema> all;

    // Checkpoint journals: one written whole (two corners), one appended.
    {
        save_checkpoint(out, sample_journal(2, rng));
        const std::string whole = slurp(out);
        const core::CharCheckpoint journal = sample_journal(1, rng);
        fs::remove(out);
        core::CheckpointAppender appender{out, journal, /*on_disk=*/false};
        for (const core::CheckpointShard& shard : journal.shards) {
            appender.add(shard.index, std::span{&shard.records, 1});
            appender.publish();
        }
        const std::string appended = slurp(out);
        const auto strict = [in, out](std::string_view bytes) -> std::optional<std::string> {
            put(in, bytes);
            std::optional<core::CharCheckpoint> read;
            try {
                const TrackAllocations track;
                read = core::load_checkpoint(in);
            } catch (const FaultError& error) {
                if (error.kind() != FaultKind::CheckpointCorrupt) {
                    throw;
                }
                return std::nullopt;
            }
            EXPECT_TRUE(read.has_value()) << "an existing journal read as missing";
            if (!read) {
                return std::nullopt;
            }
            core::save_checkpoint(out, *read);
            return slurp(out);
        };
        const auto salvage = [in, out](std::string_view bytes) -> std::optional<std::string> {
            put(in, bytes);
            core::CheckpointSalvage read;
            {
                const TrackAllocations track;
                read = core::salvage_checkpoint(in);
            }
            if (!read.checkpoint) {
                return std::nullopt;
            }
            core::save_checkpoint(out, *read.checkpoint);
            return slurp(out);
        };
        all.push_back({"journal", whole, Oracle::Exact, strict});
        all.push_back({"appended journal", appended, Oracle::Exact, strict});
        all.push_back({"journal salvage", whole, Oracle::Prefix, salvage});
        all.push_back({"appended journal salvage", appended, Oracle::Prefix, salvage});
    }

    // A calibration piece file.
    {
        fleet::PieceStamp stamp;
        stamp.fingerprint = rng.next_u64();
        stamp.module_key = "generic350_csa_multiplier_4x4";
        stamp.index = 3;
        stamp.piece = core::CalibrationPiece{0, 2, 64, 5};
        stamp.nets = 7;
        stamp.zero_delay = true;
        core::CalibrationPieceResult result;
        for (std::size_t i = 0; i < stamp.piece.count; ++i) {
            result.charges.push_back(rng.uniform(0.0, 900.0));
        }
        for (std::size_t net = 0; net < stamp.nets; ++net) {
            result.event_toggles.push_back(rng.uniform_int(std::uint64_t{5000}));
            result.zero_toggles.push_back(rng.uniform_int(std::uint64_t{5000}));
        }
        fleet::write_calibration_piece(out, stamp, result);
        all.push_back({"calibration piece", slurp(out), Oracle::Exact,
                       [in, out, stamp](std::string_view bytes) -> std::optional<std::string> {
                           put(in, bytes);
                           core::CalibrationPieceResult read;
                           fleet::PieceRead outcome;
                           {
                               const TrackAllocations track;
                               outcome = fleet::read_calibration_piece(in, stamp, read);
                           }
                           EXPECT_NE(outcome, fleet::PieceRead::Missing);
                           if (outcome != fleet::PieceRead::Ok) {
                               return std::nullopt;
                           }
                           fleet::write_calibration_piece(out, stamp, read);
                           return slurp(out);
                       }});
    }

    // The fleet plan and a lease.
    {
        fleet::FleetPlan plan;
        plan.fingerprint = rng.next_u64();
        plan.module_key = "generic350_csa_multiplier_4x4";
        plan.input_bits = 8;
        plan.num_shards = 40;
        plan.shard_size = 250;
        plan.lease_shards = 4;
        plan.enhanced = true;
        plan.zero_clusters = 2;
        plan.calibration_pieces = 11;
        const fs::path in_dir = dir_ / "in";
        const fs::path out_dir = dir_ / "out";
        fleet::write_plan(out_dir, plan);
        all.push_back({"fleet plan", slurp(out_dir / fleet::kPlanFileName), Oracle::Exact,
                       [in_dir, out_dir](std::string_view bytes) -> std::optional<std::string> {
                           put(in_dir / fleet::kPlanFileName, bytes);
                           std::optional<fleet::FleetPlan> read;
                           try {
                               const TrackAllocations track;
                               read = fleet::read_plan(in_dir);
                           } catch (const FaultError& error) {
                               if (error.kind() != FaultKind::ProtocolError) {
                                   throw;
                               }
                               return std::nullopt;
                           }
                           EXPECT_TRUE(read.has_value()) << "an existing plan read as missing";
                           if (!read) {
                               return std::nullopt;
                           }
                           fleet::write_plan(out_dir, *read);
                           return slurp(out_dir / fleet::kPlanFileName);
                       }});

        const fs::path lease = out_dir / "range_8.lease";
        fs::remove(lease);
        EXPECT_TRUE(fleet::claim_lease(lease, fleet::LeaseInfo{"worker-7", rng.next_u64(), 8, 4}));
        all.push_back({"lease", slurp(lease), Oracle::Exact,
                       [in, lease](std::string_view bytes) -> std::optional<std::string> {
                           put(in, bytes);
                           fleet::LeaseInfo read;
                           fleet::LeaseRead outcome;
                           {
                               const TrackAllocations track;
                               outcome = fleet::read_lease(in, read);
                           }
                           EXPECT_NE(outcome, fleet::LeaseRead::Missing);
                           if (outcome != fleet::LeaseRead::Ok) {
                               return std::nullopt;
                           }
                           fs::remove(lease);
                           EXPECT_TRUE(fleet::claim_lease(lease, read));
                           return slurp(lease);
                       }});
    }

    // The three model formats (no re-encoding check: a double has many
    // spellings from_chars accepts).
    const auto model_schema = [&all](std::string name, const auto& model) {
        using Model = std::decay_t<decltype(model)>;
        std::ostringstream saved;
        model.save(saved);
        all.push_back({std::move(name), saved.str(), Oracle::None,
                       [](std::string_view bytes) -> std::optional<std::string> {
                           std::stringstream in{std::string{bytes}};
                           std::optional<Model> read;
                           try {
                               const TrackAllocations track;
                               read = Model::load(in);
                           } catch (const util::RuntimeError&) {
                               return std::nullopt; // FaultError{ModelFileCorrupt} included
                           }
                           std::ostringstream out;
                           read->save(out);
                           return out.str();
                       }});
    };
    model_schema("hdmodel", core::HdModel{4,
                                          {10.5, 21.25, 30.0, 44.125},
                                          {0.1, 0.2, 0.05, 0.0},
                                          {100, 200, 300, 0}});
    model_schema("enhanced model",
                 core::EnhancedHdModel{3,
                                       2,
                                       {{11.0, 12.5}, {21.0, 22.0}, {31.0}},
                                       {{0.1, 0.1}, {0.2, 0.2}, {0.3}},
                                       {{5, 0}, {5, 5}, {5}},
                                       core::HdModel{3, {10.0, 20.0, 30.0}}});
    model_schema("bitwise model",
                 core::BitwiseLinearModel{1.5, {10.0, 20.25, -3.0, 0.0625}});
    return all;
}

TEST_F(CodecFuzz, EveryReaderReturnsAValueOrItsDocumentedFailure)
{
    const std::vector<Schema> all = schemas();
    std::vector<std::string> pool;
    for (const Schema& schema : all) {
        pool.push_back(schema.seed);
    }

    for (std::size_t index = 0; index < all.size(); ++index) {
        const Schema& schema = all[index];
        SCOPED_TRACE(schema.name);
        // The writer's own bytes read back and re-encode exactly.
        const std::optional<std::string> seed = schema.read(schema.seed);
        ASSERT_TRUE(seed.has_value()) << "the writer's bytes were refused";
        ASSERT_EQ(*seed, schema.seed);

        util::Rng rng{0xc0dec + index};
        std::size_t accepted = 0;
        std::size_t failures = 0;
        for (std::size_t i = 0; i < kMutationsPerSchema && failures < 3; ++i) {
            const std::string input = mutate(schema.seed, rng, pool);
            const auto where = [&] {
                return "mutation " + std::to_string(i) + " of " + schema.name + ": \"" +
                       printable(input) + '"';
            };
            std::optional<std::string> written;
            try {
                written = schema.read(input);
            } catch (const std::exception& error) {
                ADD_FAILURE() << "undocumented failure (" << error.what() << ") on " << where();
                ++failures;
                continue;
            }
            const std::size_t largest = g_largest.load(std::memory_order_relaxed);
            if (largest > kAllocPerInputByte * input.size() + kAllocSlack) {
                ADD_FAILURE() << "allocated " << largest << " bytes at once for "
                              << input.size() << " input bytes on " << where();
                ++failures;
            }
            if (!written) {
                continue;
            }
            ++accepted;
            if ((schema.oracle == Oracle::Exact && *written != input) ||
                (schema.oracle == Oracle::Prefix &&
                 input.compare(0, written->size(), *written) != 0)) {
                ADD_FAILURE() << "accepted bytes its writer does not emit: " << where()
                              << "\nre-encoded: \"" << printable(*written) << '"';
                ++failures;
            }
        }
        // Some mutations must survive (a salvage keeps whole blocks; a
        // model's number edit can stay a number), or the oracles above test
        // nothing for this schema.
        if (schema.oracle != Oracle::Exact) {
            EXPECT_GT(accepted, 0U);
        }
    }
}

} // namespace
} // namespace hdpm
