#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace hdpm::util {

/// A fixed-width vector of bits, up to 64 bits wide.
///
/// Bit 0 is the least-significant bit. The width is part of the value: two
/// BitVecs compare equal only if both width and bits match. All datapath
/// module inputs in this library are expressed as a single BitVec formed by
/// concatenating the operands (see dpgen), so 64 bits comfortably covers the
/// largest supported module (two 32-bit operands).
class BitVec {
public:
    static constexpr int kMaxWidth = 64;

    /// An empty (zero-width) vector.
    constexpr BitVec() = default;

    /// A vector of @p width bits initialized from the low bits of @p bits.
    /// Bits of @p bits above @p width are masked off.
    constexpr BitVec(int width, std::uint64_t bits = 0)
        : width_(checked_width(width)), bits_(bits & mask(width))
    {
    }

    /// Number of bits in the vector.
    [[nodiscard]] constexpr int width() const noexcept { return width_; }

    /// The packed bit pattern (bits above width() are zero).
    [[nodiscard]] constexpr std::uint64_t raw() const noexcept { return bits_; }

    /// Value of bit @p i (0 = LSB).
    [[nodiscard]] constexpr bool get(int i) const
    {
        check_index(i);
        return (bits_ >> i) & 1U;
    }

    /// Set bit @p i to @p value.
    constexpr void set(int i, bool value)
    {
        check_index(i);
        const std::uint64_t m = std::uint64_t{1} << i;
        bits_ = value ? (bits_ | m) : (bits_ & ~m);
    }

    /// Flip bit @p i.
    constexpr void flip(int i)
    {
        check_index(i);
        bits_ ^= std::uint64_t{1} << i;
    }

    /// Number of one-bits.
    [[nodiscard]] constexpr int popcount() const noexcept { return std::popcount(bits_); }

    /// Number of zero-bits.
    [[nodiscard]] constexpr int zerocount() const noexcept { return width_ - popcount(); }

    /// Hamming distance |{i : u_i != v_i}| between two equal-width vectors
    /// (eq. 1 of the paper).
    [[nodiscard]] static constexpr int hamming_distance(const BitVec& u, const BitVec& v)
    {
        if (u.width_ != v.width_) {
            throw PreconditionError("hamming_distance: width mismatch");
        }
        return std::popcount(u.bits_ ^ v.bits_);
    }

    /// Number of bit positions that are zero in both vectors — the "stable
    /// zero" count used by the enhanced Hd-model (section 3 of the paper).
    [[nodiscard]] static constexpr int stable_zeros(const BitVec& u, const BitVec& v)
    {
        if (u.width_ != v.width_) {
            throw PreconditionError("stable_zeros: width mismatch");
        }
        return std::popcount(~(u.bits_ | v.bits_) & mask(u.width_));
    }

    /// Number of bit positions that are one in both vectors.
    [[nodiscard]] static constexpr int stable_ones(const BitVec& u, const BitVec& v)
    {
        if (u.width_ != v.width_) {
            throw PreconditionError("stable_ones: width mismatch");
        }
        return std::popcount(u.bits_ & v.bits_);
    }

    /// Concatenation: @p hi occupies the high bits, @c this the low bits.
    [[nodiscard]] constexpr BitVec concat_high(const BitVec& hi) const
    {
        if (width_ + hi.width_ > kMaxWidth) {
            throw PreconditionError("concat exceeds kMaxWidth");
        }
        return BitVec{width_ + hi.width_, bits_ | (hi.bits_ << width_)};
    }

    /// Extract @p count bits starting at @p lsb as a new vector.
    [[nodiscard]] constexpr BitVec slice(int lsb, int count) const
    {
        if (lsb < 0 || count < 0 || lsb + count > width_) {
            throw PreconditionError("slice out of range");
        }
        return BitVec{count, bits_ >> lsb};
    }

    /// Bitwise XOR of equal-width vectors.
    [[nodiscard]] friend constexpr BitVec operator^(const BitVec& a, const BitVec& b)
    {
        if (a.width_ != b.width_) {
            throw PreconditionError("operator^: width mismatch");
        }
        return BitVec{a.width_, a.bits_ ^ b.bits_};
    }

    friend constexpr bool operator==(const BitVec&, const BitVec&) = default;

    /// MSB-first string of '0'/'1' characters.
    [[nodiscard]] std::string to_string() const;

private:
    /// @p width, checked. width_ is declared before bits_, so an
    /// out-of-range width throws before mask() can shift by it.
    static constexpr int checked_width(int width)
    {
        if (width < 0 || width > kMaxWidth) {
            throw PreconditionError("BitVec width out of range");
        }
        return width;
    }

    static constexpr std::uint64_t mask(int width) noexcept
    {
        return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    }

    constexpr void check_index(int i) const
    {
        if (i < 0 || i >= width_) {
            throw PreconditionError("BitVec index out of range");
        }
    }

    int width_ = 0;
    std::uint64_t bits_ = 0;
};

/// Encode a (possibly negative) integer as a two's-complement bit pattern of
/// @p width bits. The value must be representable in that width.
[[nodiscard]] BitVec encode_twos_complement(std::int64_t value, int width);

/// Decode a two's-complement bit pattern back to a signed integer.
[[nodiscard]] std::int64_t decode_twos_complement(const BitVec& v);

/// Decode an unsigned bit pattern.
[[nodiscard]] std::uint64_t decode_unsigned(const BitVec& v);

} // namespace hdpm::util
