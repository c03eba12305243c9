// Shared fixture for tests that run once per spectrum-kernel level
// (KernelIsa): a level this build or CPU cannot run is reported as
// skipped, never passed silently.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/power_profile.hpp"

namespace tagspin::core {

/// gtest prints a level by name (ADL finds this next to KernelIsa).
inline void PrintTo(KernelIsa isa, std::ostream* out) {
  *out << kernelIsaName(isa);
}

}  // namespace tagspin::core

namespace tagspin::core::testing {

class PerKernelLevel : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (!kernelIsaSupported(GetParam())) {
      GTEST_SKIP() << kernelIsaName(GetParam()) << " unsupported";
    }
  }
};

/// "x86_64_v4" for KernelIsa::kX86_64_V4: gtest names take no '-'.
inline std::string kernelLevelTestName(
    const ::testing::TestParamInfo<KernelIsa>& info) {
  std::string name = kernelIsaName(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

}  // namespace tagspin::core::testing
