// %.17g of a double in integer arithmetic: the characters
// std::to_chars(first, last, v, std::chars_format::general, 17) prints,
// which are the ones `std::ostream << std::setprecision(17)` printed and
// the checkpoint format pins (DESIGN.md section 9, "Checkpoint text").
// Every value in the exact range goes through writeExact; the rest (the
// signed zeros, subnormals, magnitudes outside the range, NaN and the
// infinities) goes through std::to_chars itself.  A private header,
// included by serialization.cpp and by the writer's tests.
#pragma once

#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>

namespace tagspin::core::decimal17 {

using Uint128 = unsigned __int128;

/// The exact range, as binades: 2^kMinBinade <= |v| < 2^(kMaxBinade + 1).
/// Below 2^-19 the scale 10^q would pass 10^22 and m * 10^q 128 bits;
/// from 2^56 up the values are integers of 17 digits or more, which no
/// checkpoint field comes near.
inline constexpr int kMinBinade = -19;
inline constexpr int kMaxBinade = 55;

/// Longest writeExact output, "-0.00012345678901234567" or
/// "-1.2345678901234567e-06".
inline constexpr size_t kMaxExactChars = 23;

/// floor(e * log10(2)) for e in the exact range, in integers.
constexpr int floorLog10Pow2(int e) { return (e * 78913) >> 18; }

/// 10^x <= 2^e < 10^(x + 1), checked in integers.
constexpr bool decadeHolds(int e, int x) {
  const auto pow10 = [](int k) {
    uint64_t p = 1;
    while (k-- > 0) p *= 10;
    return p;
  };
  if (e >= 0) {
    const uint64_t p2 = uint64_t{1} << e;
    return pow10(x) <= p2 && p2 < pow10(x + 1);
  }
  // x < 0: 10^x <= 2^e  <=>  2^-e <= 10^-x, and 2^e < 10^(x + 1)  <=>
  // 10^(-x - 1) < 2^-e.
  const uint64_t p2 = uint64_t{1} << -e;
  return p2 <= pow10(-x) && pow10(-x - 1) < p2;
}

constexpr bool floorLog10Pow2HoldsOnTheRange() {
  for (int e = kMinBinade; e <= kMaxBinade; ++e) {
    if (!decadeHolds(e, floorLog10Pow2(e))) return false;
  }
  return true;
}
static_assert(floorLog10Pow2HoldsOnTheRange());

inline constexpr std::array<Uint128, 23> kPow10 = [] {
  std::array<Uint128, 23> p{};
  p[0] = 1;
  for (size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
  return p;
}();

/// "00" "01" ... "99".
inline constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> d{};
  for (int i = 0; i < 100; ++i) {
    d[2 * i] = static_cast<char>('0' + i / 10);
    d[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return d;
}();

[[gnu::always_inline]] inline void writeFour(char* p, uint32_t v) {
  std::memcpy(p, &kDigitPairs[2 * (v / 100)], 2);
  std::memcpy(p + 2, &kDigitPairs[2 * (v % 100)], 2);
}

[[gnu::always_inline]] inline void writeEight(char* p, uint32_t v) {
  writeFour(p, v / 10000);
  writeFour(p + 4, v % 10000);
}

/// %.17g of `v` at `out` when 2^kMinBinade <= |v| < 2^(kMaxBinade + 1)
/// (so finite and normal); returns the end, or nullptr, writing nothing,
/// for any other `v`.  `out` must hold kMaxExactChars.
///
/// With |v| = m * 2^-s, m the 53-bit significand and e = 52 - s the
/// binade, the decimal exponent X = floor(log10 |v|) is x0 or x0 + 1 for
/// x0 = floor(e * log10 2).  With q = 16 - x0 in [0, 22], M = m * 10^q is
/// below 2^127, so n = floor(M * 2^-s) and the dropped bits are exact.
/// When n < 10^17, X = x0 and n rounds half to even on the dropped bits;
/// otherwise X = x0 + 1, and n / 10 rounds half to even on the last digit
/// and whether any bit was dropped.  Nothing is approximated, so no error
/// bound or re-check is needed.  (No double of the range rounds up to
/// 10^17: that takes one within 5e-18 below a power of ten.  The carry
/// is handled all the same.)
[[gnu::always_inline]] inline char* writeExact(char* out, double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const int e = static_cast<int>((bits >> 52) & 0x7FF) - 1023;
  if (e < kMinBinade || e > kMaxBinade) return nullptr;
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | uint64_t{1} << 52;
  const int s = 52 - e;
  int x = floorLog10Pow2(e);
  const Uint128 M = Uint128{m} * kPow10[static_cast<size_t>(16 - x)];

  constexpr uint64_t k1e16 = 10'000'000'000'000'000;
  constexpr uint64_t k1e17 = 10 * k1e16;
  uint64_t n = 0;    // floor(|v| * 10^(16 - x)), below 10^18
  Uint128 rem = 0;   // the bits the shift drops, and half their unit:
  Uint128 half = 1;  // with no bit dropped, rem < half rounds nothing
  if (s > 0) {
    n = static_cast<uint64_t>(M >> s);
    half = Uint128{1} << (s - 1);
    rem = M & (2 * half - 1);
  } else {
    n = static_cast<uint64_t>(M << -s);
  }
  bool up = false;
  if (n >= k1e17) {
    const uint64_t dropped = n % 10;
    n /= 10;
    ++x;
    up = dropped > 5 || (dropped == 5 && (rem != 0 || (n & 1) != 0));
  } else {
    up = rem > half || (rem == half && (n & 1) != 0);
  }
  n += up;
  if (n == k1e17) {  // 99999999999999999.5 and up: one more digit
    n = k1e16;
    ++x;
  }

  // The 17 digits, then the trailing zeros %g drops.
  char digits[17];
  const uint64_t high = n / 100'000'000;  // 9 digits
  digits[0] = static_cast<char>('0' + high / 100'000'000);
  writeEight(digits + 1, static_cast<uint32_t>(high % 100'000'000));
  writeEight(digits + 9, static_cast<uint32_t>(n % 100'000'000));
  int len = 17;
  while (digits[len - 1] == '0') --len;  // digits[0] is not '0'

  if (bits >> 63) *out++ = '-';
  if (x < -4 || x > 16) {  // d.ddde±XX
    *out++ = digits[0];
    if (len > 1) {
      *out++ = '.';
      std::memcpy(out, digits + 1, static_cast<size_t>(len - 1));
      out += len - 1;
    }
    *out++ = 'e';
    *out++ = x < 0 ? '-' : '+';
    std::memcpy(out, &kDigitPairs[static_cast<size_t>(2 * (x < 0 ? -x : x))],
                2);
    return out + 2;
  }
  if (x < 0) {  // 0.000ddd
    std::memcpy(out, "0.000", static_cast<size_t>(1 - x));
    out += 1 - x;
    std::memcpy(out, digits, static_cast<size_t>(len));
    return out + len;
  }
  const int whole = x + 1;  // ddd[.ddd]
  std::memcpy(out, digits, static_cast<size_t>(whole));
  out += whole;
  if (len > whole) {
    *out++ = '.';
    std::memcpy(out, digits + whole, static_cast<size_t>(len - whole));
    out += len - whole;
  }
  return out;
}

/// %.17g of any `v` into [first, last), which must hold 32 characters:
/// writeExact where it applies, else std::to_chars.  Returns the end.
[[gnu::always_inline]] inline char* write(char* first, char* last, double v) {
  if (char* end = writeExact(first, v)) return end;
  return std::to_chars(first, last, v, std::chars_format::general, 17).ptr;
}

}  // namespace tagspin::core::decimal17
