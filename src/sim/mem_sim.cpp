#include "sim/mem_sim.hpp"

#include <algorithm>

namespace tagspin::sim {

const char* memFaultKindName(MemFaultKind kind) {
  switch (kind) {
    case MemFaultKind::kDeny: return "deny";
    case MemFaultKind::kBurst: return "burst";
    case MemFaultKind::kCliff: return "cliff";
    case MemFaultKind::kPoison: return "poison";
  }
  return "unknown";
}

void SimMemEnv::setFaults(MemFaultSchedule faults) {
  faults_ = std::move(faults);
  std::sort(faults_.begin(), faults_.end(),
            [](const MemFault& a, const MemFault& b) {
              return a.opIndex < b.opIndex;
            });
}

void SimMemEnv::clearPressure() {
  burstRemaining_ = 0;
  poisoned_ = false;
  cliffActive_ = false;
}

bool SimMemEnv::pressureDenies(uint64_t bytes) {
  if (poisoned_) return true;
  if (burstRemaining_ > 0) {
    --burstRemaining_;
    return true;
  }
  if (cliffActive_ && used_ + bytes > cliffBudget_) return true;
  return false;
}

bool SimMemEnv::tryReserve(uint64_t bytes) {
  const uint64_t op = ops_++;

  bool deny = false;
  // Scheduled faults: fire every fault whose index is this op.  kDeny
  // denies just this reservation; the stateful kinds arm standing pressure
  // that `pressureDenies` applies from this op onward.
  for (const MemFault& f : faults_) {
    if (f.opIndex != op) continue;
    switch (f.kind) {
      case MemFaultKind::kDeny:
        deny = true;
        break;
      case MemFaultKind::kBurst:
        burstRemaining_ = std::max<uint64_t>(f.param, 1);
        break;
      case MemFaultKind::kCliff:
        cliffActive_ = true;
        cliffBudget_ = used_;
        break;
      case MemFaultKind::kPoison:
        poisoned_ = true;
        break;
    }
  }
  if (pressureDenies(bytes)) deny = true;

  if (deny) {
    ++denials_;
    return false;
  }
  used_ += bytes;
  peak_ = std::max(peak_, used_);
  ++grants_;
  return true;
}

void SimMemEnv::release(uint64_t bytes) {
  if (bytes > used_) {
    underflow_ = true;
    used_ = 0;
    return;
  }
  used_ -= bytes;
}

core::MemEnvStats SimMemEnv::stats() const {
  core::MemEnvStats s;
  s.reserves = grants_;
  s.denials = denials_;
  s.usedBytes = used_;
  s.peakBytes = peak_;
  return s;
}

}  // namespace tagspin::sim
