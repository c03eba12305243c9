// Multi-round fix fusion.
//
// The paper repeats each localization "over 10 times" per setting; a
// deployment does the same, interrogating in rounds and fusing the fixes.
// The right aggregate for fixes with occasional gross errors (sidelobe
// picks, interference bursts) is the geometric median -- it has a 50%
// breakdown point, unlike the mean which a single bad round can drag
// arbitrarily far.
#pragma once

#include <span>

#include "geom/vec.hpp"

namespace tagspin::core {

/// Geometric median (Weiszfeld's algorithm with the standard fixed-point
/// guard; at most 100 iterations, converged at a 1 um step).  One point
/// returns itself; throws std::invalid_argument on an empty span.
geom::Vec2 geometricMedian(std::span<const geom::Vec2> points);
geom::Vec3 geometricMedian(std::span<const geom::Vec3> points);

/// Componentwise median; cheaper, nearly as robust for small batches.
geom::Vec2 componentMedian(std::span<const geom::Vec2> points);
geom::Vec3 componentMedian(std::span<const geom::Vec3> points);

}  // namespace tagspin::core
