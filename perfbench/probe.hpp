// Host-speed probe: a fixed amount of work whose run time tracks how fast
// the current vCPU is right now.
//
// The probe owns its code and is compiled with pinned flags (see
// CMakeLists.txt), so a change to the program's optimisation flags cannot
// move the yardstick.  It calls no program code.
#pragma once

namespace perfbench {

/// FP part: a cos/exp loop shaped like the spectrum kernel.  Returns a
/// checksum so the work cannot be elided.
double probeFp();

/// Integer part: sorts a copy of a fixed pseudo-random array, like the
/// decode and preprocess stages.  Returns a checksum.
unsigned probeInt();

}  // namespace perfbench
