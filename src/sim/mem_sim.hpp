// Simulated memory environment -- allocation-failure injection for
// eval/oom.*, the memory twin of io_sim.hpp.
//
// SimIoEnv made every torn write and EIO reachable on demand; SimMemEnv
// does the same for allocation failure.  Every `tryReserve` is one *op*
// with a global index, and faults fire by that index, so "the 137th
// reservation this workload makes is denied" is a deterministic, replayable
// event regardless of what the workload allocates.  Four fault kinds cover
// the pressure shapes a real process sees:
//
//  * kDeny   -- one reservation fails (a transient spike elsewhere);
//  * kBurst  -- this and the next `param`-1 reservations fail (a neighbor
//               ballooning for a few milliseconds);
//  * kCliff  -- the budget collapses to the bytes in use at the fault
//               point: releases free headroom that can be re-used, but net
//               growth is denied until the pressure clears (a cgroup limit
//               landing on a grown process);
//  * kPoison -- every reservation fails until the pressure clears (the
//               allocator is gone; only shedding already-held memory and
//               waiting helps).
//
// `clearPressure()` ends cliff/poison/burst -- the "pressure clears" edge
// the recovery invariants are checked against.  The environment also
// carries the oracle flag the explorer asserts after every run:
// `underflow()` (some caller released bytes it never reserved -- the
// accounting analog of a double-close).  The environment enforces no
// budget of its own; core::MemArena enforces budgets when it grants.
//
// Deliberately not thread-safe, exactly like SimIoEnv: the explorer runs
// workloads with inline (single-threaded) shard processing so op indices
// are deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mem_env.hpp"

namespace tagspin::sim {

enum class MemFaultKind : uint8_t {
  kDeny = 0,
  kBurst,
  kCliff,
  kPoison,
};

const char* memFaultKindName(MemFaultKind kind);

struct MemFault {
  /// Global reservation index (0-based) at which the fault fires.
  uint64_t opIndex = 0;
  MemFaultKind kind = MemFaultKind::kDeny;
  /// kBurst: number of consecutive denied reservations (>=1).
  uint64_t param = 1;
};

using MemFaultSchedule = std::vector<MemFault>;

class SimMemEnv final : public core::MemEnv {
 public:
  SimMemEnv() = default;

  /// Inject faults by reservation index (the only way to inject one).
  /// Unsorted input is fine.
  void setFaults(MemFaultSchedule faults);

  /// End all standing pressure (burst remainder, cliff, poison).
  void clearPressure();

  bool tryReserve(uint64_t bytes) override;
  void release(uint64_t bytes) override;
  core::MemEnvStats stats() const override;

  /// Total tryReserve calls so far -- the exploration domain, like
  /// SimIoEnv::opCount().
  uint64_t opCount() const { return ops_; }
  uint64_t denials() const { return denials_; }
  uint64_t usedBytes() const { return used_; }
  uint64_t peakBytes() const { return peak_; }

  /// Oracle: some caller released bytes it never reserved.
  bool underflow() const { return underflow_; }

 private:
  bool pressureDenies(uint64_t bytes);

  MemFaultSchedule faults_;

  uint64_t ops_ = 0;
  uint64_t used_ = 0;
  uint64_t peak_ = 0;
  uint64_t denials_ = 0;
  uint64_t grants_ = 0;

  uint64_t burstRemaining_ = 0;
  bool poisoned_ = false;
  bool cliffActive_ = false;
  uint64_t cliffBudget_ = 0;

  bool underflow_ = false;
};

}  // namespace tagspin::sim
