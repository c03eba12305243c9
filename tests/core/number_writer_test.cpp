// The checkpoint writer's %.17g (core/decimal17.hpp) against the call it
// stands in for, std::to_chars(general, 17), byte for byte, one value class
// per test.  Each test prints how many of its values took the exact
// integer path and how many the std::to_chars fallback, so a verbose run
// (ctest -R NumberWriter -V) shows what each class exercised.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numbers>
#include <random>
#include <string>
#include <string_view>

#include "core/decimal17.hpp"
#include "rf/constants.hpp"

namespace tagspin::core {
namespace {

using Rng = std::mt19937_64;

std::string_view oracle(double v, char (&buf)[32]) {
  const char* end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17)
          .ptr;
  return {buf, static_cast<size_t>(end - buf)};
}

/// One value class: every value's text against the oracle's, and the
/// count of each path.
class WriterClass {
 public:
  explicit WriterClass(const char* name) : name_(name) {}
  WriterClass(const WriterClass&) = delete;
  WriterClass& operator=(const WriterClass&) = delete;

  ~WriterClass() {
    std::printf("NumberWriter %-28s %9zu values: %9zu exact, %9zu fallback\n",
                name_, exact_ + fallback_, exact_, fallback_);
  }

  /// Checks `v`; true when it took the exact path.
  bool check(double v) {
    char buf[32];
    char want[32];
    const char* end = decimal17::write(buf, buf + sizeof buf, v);
    const std::string_view got(buf, static_cast<size_t>(end - buf));
    const std::string_view expected = oracle(v, want);
    char exactText[32];
    const bool exact = decimal17::writeExact(exactText, v) != nullptr;
    ++(exact ? exact_ : fallback_);
    if (got != expected && ++mismatches_ <= 10) {
      char hex[40];
      std::snprintf(hex, sizeof hex, "%a", v);
      ADD_FAILURE() << name_ << ": " << hex << " printed '" << got
                    << "', std::to_chars '" << expected << "'"
                    << (exact ? " (exact path)" : " (fallback)");
    }
    return exact;
  }
  void checkBothSigns(double v) {
    check(v);
    check(-v);
  }
  /// `v` and the `ulps` doubles on each side of it, both signs.
  void checkAround(double v, int ulps) {
    double lo = std::abs(v);
    for (int i = 0; i < ulps; ++i) lo = std::nextafter(lo, 0.0);
    for (int i = 0; i <= 2 * ulps; ++i) {
      checkBothSigns(lo);
      lo = std::nextafter(lo, kInf);
    }
  }

  size_t exact() const { return exact_; }
  size_t fallback() const { return fallback_; }

  static constexpr double kInf = std::numeric_limits<double>::infinity();

 private:
  const char* name_;
  size_t exact_ = 0;
  size_t fallback_ = 0;
  size_t mismatches_ = 0;
};

double fromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

/// The double nearest 10^k, as the reader would parse "1e<k>".
double powerOfTen(int k) {
  const std::string text = "1e" + std::to_string(k);
  double v = 0.0;
  std::from_chars(text.data(), text.data() + text.size(), v);
  return v;
}

constexpr uint64_t kExponentMask = 0x7FF0000000000000ull;

TEST(CheckpointCodec, NumberWriterRandomBitPatterns) {
  WriterClass c("random bit patterns");
  Rng rng(17);
  for (int i = 0; i < 10'000'000; ++i) c.check(fromBits(rng()));
  EXPECT_GT(c.exact(), 0u);
}

TEST(CheckpointCodec, NumberWriterRandomBitPatternsNearTheRange) {
  // Sign and significand bits at random, the exponent field drawn over the
  // exact range and two binades either side of it.
  WriterClass c("random bits, range +-2");
  Rng rng(18);
  const int span = decimal17::kMaxBinade - decimal17::kMinBinade + 5;
  for (int i = 0; i < 10'000'000; ++i) {
    const uint64_t biased = static_cast<uint64_t>(
        1023 + decimal17::kMinBinade - 2 + static_cast<int>(rng() % span));
    c.check(fromBits((rng() & ~kExponentMask) | biased << 52));
  }
  EXPECT_GT(c.fallback(), 0u);
  EXPECT_GT(c.exact(), c.fallback());
}

TEST(CheckpointCodec, NumberWriterBinadeEdges) {
  // Every power of two from three binades below the range to three above,
  // +-64 ulps: the range's own edges and every change of binade within.
  WriterClass c("binade edges +-64 ulps");
  for (int e = decimal17::kMinBinade - 3; e <= decimal17::kMaxBinade + 4;
       ++e) {
    c.checkAround(std::ldexp(1.0, e), 64);
  }
  // Where the range starts and ends.
  const double lowest = std::ldexp(1.0, decimal17::kMinBinade);
  const double top = std::ldexp(1.0, decimal17::kMaxBinade + 1);
  EXPECT_TRUE(c.check(lowest));
  EXPECT_FALSE(c.check(std::nextafter(lowest, 0.0)));
  EXPECT_TRUE(c.check(-std::nextafter(top, 0.0)));
  EXPECT_FALSE(c.check(top));
}

TEST(CheckpointCodec, NumberWriterPowersOfTen) {
  // 1e-30 ... 1e30 +-64 ulps: the decade changes, where floor(e log10 2)
  // is one short of the decimal exponent, and 1e0 ... 1e16, whose 17
  // digits end in 16 zeros.
  WriterClass c("powers of ten +-64 ulps");
  for (int k = -30; k <= 30; ++k) c.checkAround(powerOfTen(k), 64);
  EXPECT_GT(c.exact(), 0u);
}

TEST(CheckpointCodec, NumberWriterExactTies) {
  // Odd m * 2^-s has exactly s decimals, the last a 5; with 18 significant
  // digits (m * 5^s in [10^17, 10^18)) it lies exactly halfway between two
  // 17-digit decimals, and %.17g rounds it to the even one.  s runs from 2
  // (m = 4e15 ... 2^53) to 25 (m = 1, 3).
  WriterClass c("exact 17th-digit ties");
  Rng rng(19);
  constexpr uint64_t k1e17 = 100'000'000'000'000'000;
  for (int s = 2; s <= 25; ++s) {
    uint64_t pow5 = 1;
    for (int i = 0; i < s; ++i) pow5 *= 5;
    const uint64_t lo = (k1e17 + pow5 - 1) / pow5;
    const uint64_t hi = std::min(uint64_t{1} << 53, (10 * k1e17 - 1) / pow5);
    const uint64_t odd = (hi - lo) / 2 + 1;  // odd m in about [lo, hi]
    const uint64_t draws = std::min<uint64_t>(odd, 12'000);
    for (uint64_t i = 0; i < draws; ++i) {
      const uint64_t m =
          (draws == odd ? lo + 2 * i : lo + rng() % (hi - lo + 1)) | 1;
      if (m > hi) continue;
      c.checkBothSigns(std::ldexp(static_cast<double>(m), -s));
    }
  }
  EXPECT_GT(c.exact(), 100'000u);
  EXPECT_GT(c.fallback(), 0u);
}

TEST(CheckpointCodec, NumberWriterFormatSwitches) {
  // %g switches from d.ddde-05 to 0.000ddd at 1e-4 and from ddd to
  // d.ddde+17 at 1e17; 1e17 lies above the exact range.
  WriterClass c("fixed/exponent switches");
  for (const double v : {1e-5, 1e-4, 1e16, 1e17}) c.checkAround(v, 256);
  char buf[32];
  const auto text = [&buf](double v) {
    return std::string(buf, decimal17::write(buf, buf + sizeof buf, v));
  };
  EXPECT_EQ(text(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(text(std::nextafter(1e-4, 0.0)), "9.9999999999999991e-05");
  EXPECT_EQ(text(1e-4), "0.0001");
  EXPECT_EQ(text(1e16), "10000000000000000");
  EXPECT_EQ(text(-0.5), "-0.5");
}

/// %g text of a power of ten: its significand digits are a 1 and zeros.
bool powerOfTenText(std::string_view t) {
  t = t.substr(0, t.find('e'));
  const size_t one = t.find_first_not_of("-0.");
  return one != std::string_view::npos && t[one] == '1' &&
         t.find_first_not_of("0.", one + 1) == std::string_view::npos;
}

TEST(CheckpointCodec, NumberWriterRoundingCarries) {
  // A carry -- the 17 digits 99999999999999999.5 and up rounding to 10^17,
  // one decimal exponent more -- needs a double within 5e-18 below a power
  // of ten.  No double of the exact range is that close (10^0 ... 10^16 are
  // doubles, and 1e-1 ... 1e-5 round up), so the carries found here all
  // take the fallback: +-8 ulps around the double nearest each 10^k,
  // k = -307 ... 308.
  WriterClass c("near every 10^k +-8 ulps");
  size_t carries = 0;
  for (int k = -307; k <= 308; ++k) {
    c.checkAround(powerOfTen(k), 8);
    // 10^k to 64 bits (x86's long double), far closer than a carry's 5e-18.
    const long double power =
        std::strtold(("1e" + std::to_string(k)).c_str(), nullptr);
    double v = powerOfTen(k);
    for (int i = 0; i < 8; ++i) v = std::nextafter(v, 0.0);
    for (int i = 0; i <= 16; ++i, v = std::nextafter(v, WriterClass::kInf)) {
      char buf[32];
      carries += powerOfTenText(oracle(v, buf)) &&
                 static_cast<long double>(v) < power;
    }
  }
  std::printf("NumberWriter carries: %zu doubles print the power of ten "
              "above them\n",
              carries);
  EXPECT_GT(carries, 0u);
}

TEST(CheckpointCodec, NumberWriterLlrpQuantisedValues) {
  // What a supervised checkpoint carries: LLRP microsecond timestamps,
  // 12-bit phases, channel wavelengths and centi-dBm RSSI, decoded as
  // rfid::llrp::decodeReport and runtime::Supervisor compute them, plus
  // positions and confidences.  Every one but an exact 0 takes the exact
  // path; so does every timestamp from 2 us (1 us is below 2^-19 s).
  WriterClass c("LLRP-quantised values");
  Rng rng(20);
  size_t fallbackNonZero = 0;
  const auto field = [&](double v) {
    if (!c.check(v) && v != 0.0) ++fallbackNonZero;
  };
  for (uint64_t us = 2; us < 200'000; ++us) field(static_cast<double>(us) / 1e6);
  for (int i = 0; i < 1'000'000; ++i) {
    field(static_cast<double>(2 + rng() % (uint64_t{1} << 42)) / 1e6);
  }
  for (uint16_t p = 0; p < 4096; ++p) {
    field(static_cast<double>(p) / 4096.0 * 2.0 * std::numbers::pi);
  }
  for (int centi = INT16_MIN; centi <= INT16_MAX; ++centi) {
    field(static_cast<double>(static_cast<int16_t>(centi)) / 100.0);
  }
  for (uint32_t khz = 840'000; khz <= 960'000; ++khz) {
    field(rf::wavelength(static_cast<double>(khz) * 1e3));
  }
  std::uniform_real_distribution<double> metres(-50.0, 50.0);
  std::uniform_real_distribution<double> unit(1e-5, 1.0);
  for (int i = 0; i < 200'000; ++i) {
    field(metres(rng));
    field(unit(rng));
  }
  EXPECT_EQ(fallbackNonZero, 0u);
  EXPECT_FALSE(c.check(1e-6));  // one microsecond
}

TEST(CheckpointCodec, NumberWriterIntegersAndHalves) {
  // 1 ... 9 and 0.5 print one digit of 17 and strip 16 zeros.
  WriterClass c("integers and halves");
  for (int i = -20'000; i <= 20'000; ++i) {
    for (const double d : {1.0, 2.0, 4.0, 8.0, 1024.0}) c.check(i / d);
  }
  Rng rng(21);
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t n = rng() >> (rng() % 64);
    c.checkBothSigns(static_cast<double>(n));
  }
  char buf[32];
  for (int d = 1; d <= 9; ++d) {
    EXPECT_EQ(std::string(buf, decimal17::write(buf, buf + sizeof buf, d)),
              std::to_string(d));
  }
  EXPECT_EQ(std::string(buf, decimal17::write(buf, buf + sizeof buf, 0.5)),
            "0.5");
}

TEST(CheckpointCodec, NumberWriterSpecialValuesFallBack) {
  // +-0, subnormals, NaN (payloads too) and +-inf never take the exact
  // path, and print as std::to_chars prints them.
  WriterClass c("zeros, subnormals, NaN, inf");
  Rng rng(22);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {0.0, std::numeric_limits<double>::denorm_min(),
                         DBL_MIN, DBL_MAX, nan, WriterClass::kInf}) {
    EXPECT_FALSE(c.check(v)) << v;
    EXPECT_FALSE(c.check(-v)) << v;
  }
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t r = rng();
    EXPECT_FALSE(c.check(fromBits(r & ~kExponentMask)));  // subnormal or 0
    EXPECT_FALSE(c.check(fromBits(r | kExponentMask)));   // NaN or inf
  }
  EXPECT_EQ(c.exact(), 0u);
}

}  // namespace
}  // namespace tagspin::core
