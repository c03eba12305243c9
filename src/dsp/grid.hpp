// Grid-search maximisation on circular and rectangular domains.
//
// The angle spectrum is a smooth function of the candidate direction; the
// paper traverses "all possible angles" on a grid.  We provide the exhaustive
// traversal, a coarse-to-fine refinement used by the perf ablation, and
// for the rectangle a screened traversal (screenRect) that evaluates only
// the cells a bounded cheap approximation cannot rule out.
//
// The searches hand their points to the objective in batches -- the whole
// grid, then one batch per refine round -- so a batched evaluator such as
// core::PowerProfile::evaluateGrid evaluates many directions per pass over
// its data.  A batch evaluator is callable as f(xs, out) and writes the
// value at xs[i] to out[i]; a plain pointwise f(x) is accepted too.  The
// rectangle takes a row evaluator f(xs, y, out) (or a pointwise f(x, y)).
// Batching changes no result: the points, the strict-> first-maximum scan
// order and the refine steps are those of a pointwise search.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

namespace tagspin::dsp {

struct GridMax1D {
  double x = 0.0;      // argmax
  double value = 0.0;  // function value at argmax
};

struct GridMax2D {
  double x = 0.0;
  double y = 0.0;
  double value = 0.0;
};

template <class F>
concept BatchObjective =
    std::invocable<F&, std::span<const double>, std::span<double>>;

template <class F>
concept CircularObjective = BatchObjective<F> || std::invocable<F&, double>;

template <class F>
concept RowObjective =
    std::invocable<F&, std::span<const double>, double, std::span<double>>;

template <class F>
concept RectObjective = RowObjective<F> || std::invocable<F&, double, double>;

/// Point i of the uniform n-point grid on [0, 2*pi): i * (2*pi/n).  Every
/// circular sweep -- the searches below, core::PowerProfile::sampleAzimuth
/// and the peak angles read off its samples -- uses this one formula, so
/// "the same grid" means the same angles bit for bit.
inline double circularGridAngle(size_t i, size_t n) {
  return static_cast<double>(i) *
         (2.0 * std::numbers::pi / static_cast<double>(n));
}

/// The n angles of circularGridAngle, in order.
inline std::vector<double> circularGrid(size_t n) {
  std::vector<double> angles(n);
  for (size_t i = 0; i < n; ++i) angles[i] = circularGridAngle(i, n);
  return angles;
}

namespace detail {

template <CircularObjective F>
auto asBatch(F& f) {
  return [&f](std::span<const double> xs, std::span<double> out) {
    if constexpr (BatchObjective<F>) {
      f(xs, out);
    } else {
      for (size_t i = 0; i < xs.size(); ++i) out[i] = f(xs[i]);
    }
  };
}

template <RectObjective F>
auto asRows(F& f) {
  return [&f](std::span<const double> xs, double y, std::span<double> out) {
    if constexpr (RowObjective<F>) {
      f(xs, y, out);
    } else {
      for (size_t i = 0; i < xs.size(); ++i) out[i] = f(xs[i], y);
    }
  };
}

/// Scan `values` in order and keep the first strict maximum, starting from
/// `best`.
inline void scanMax(std::span<const double> xs, std::span<const double> values,
                    GridMax1D& best) {
  for (size_t i = 0; i < xs.size(); ++i) {
    if (values[i] > best.value) best = {xs[i], values[i]};
  }
}

/// `rounds` of 4-point halving zoom around best.x, starting at +-halfSpan;
/// each round's points are fixed at its start and evaluated as one batch.
template <class Batch>
void zoom(Batch& eval, GridMax1D& best, double halfSpan, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    const double candidates[4] = {best.x - halfSpan, best.x - halfSpan / 2.0,
                                  best.x + halfSpan / 2.0, best.x + halfSpan};
    double values[4];
    eval(candidates, values);
    scanMax(candidates, values, best);
    halfSpan /= 2.0;
  }
}

}  // namespace detail

/// Evaluate `f` at the n points of circularGrid(n) and return the sampled
/// values (used to plot full profiles).
template <CircularObjective F>
std::vector<double> sampleCircular(F&& f, size_t n) {
  const std::vector<double> xs = circularGrid(n);
  std::vector<double> out(n);
  detail::asBatch(f)(xs, out);
  return out;
}

/// maximizeCircular's result: the maximum and the grid it was found on,
/// grid[i] = f(circularGridAngle(i, grid.size())).
struct CircularMax {
  GridMax1D best;
  std::vector<double> grid;
};

/// Exhaustive maximisation of `f` over [0, 2*pi) on an n-point grid followed
/// by `refineRounds` of local 3-point zooming (each round shrinks the bracket
/// by 4x around the best sample).  The grid values come back with the
/// maximum, so a caller that also needs the sampled spectrum does not sweep
/// it again.
template <CircularObjective F>
CircularMax maximizeCircular(F&& f, size_t n = 720, int refineRounds = 6) {
  auto eval = detail::asBatch(f);
  const double twoPi = 2.0 * std::numbers::pi;
  const double step = twoPi / static_cast<double>(n);
  const std::vector<double> xs = circularGrid(std::max<size_t>(n, 1));
  CircularMax result;
  result.grid.resize(xs.size());
  eval(xs, result.grid);
  GridMax1D& best = result.best;
  best = {xs[0], result.grid[0]};
  detail::scanMax(xs, result.grid, best);
  detail::zoom(eval, best, step, refineRounds);
  best.x = std::fmod(best.x + twoPi, twoPi);
  return result;
}

/// The (nx x ny) grid of the rectangle searches: x_i = circularGridAngle(i,
/// nx) on [0, 2*pi), y_j = ymin + j * ystep on [ymin, ymax].  Values are
/// stored row by row, cell (i, j) at j * nx + i.
struct RectGrid {
  RectGrid(double yLo, double yHi, size_t columns, size_t rows)
      : ymin(yLo),
        ymax(yHi),
        nx(std::max<size_t>(columns, 1)),
        ny(std::max<size_t>(rows, 1)),
        xstep(2.0 * std::numbers::pi / static_cast<double>(columns)),
        ystep(rows > 1 ? (yHi - yLo) / static_cast<double>(rows - 1) : 0.0) {}

  double y(size_t j) const { return ymin + static_cast<double>(j) * ystep; }

  double ymin;
  double ymax;
  size_t nx;
  size_t ny;
  double xstep;
  double ystep;
};

/// maximizeRect's refinement of a grid maximum: `rounds` rounds of the 5x5
/// stencil around the running best, each candidate evaluated one point at
/// a time (its place depends on the running best); the stencil halves every
/// round.  Returns the best with x wrapped to [0, 2*pi).
template <RectObjective F>
GridMax2D refineRect(F&& f, const RectGrid& grid, GridMax2D best,
                     int rounds) {
  auto row = detail::asRows(f);
  double hx = grid.xstep;
  double hy = std::max(grid.ystep, 1e-6);
  for (int round = 0; round < rounds; ++round) {
    for (int dx = -2; dx <= 2; ++dx) {
      for (int dy = -2; dy <= 2; ++dy) {
        if (dx == 0 && dy == 0) continue;
        const double x = best.x + dx * hx / 2.0;
        double y = best.y + dy * hy / 2.0;
        if (y < grid.ymin || y > grid.ymax) continue;
        double v = 0.0;
        row({&x, 1}, y, {&v, 1});
        if (v > best.value) best = {x, y, v};
      }
    }
    hx /= 2.0;
    hy /= 2.0;
  }
  const double twoPi = 2.0 * std::numbers::pi;
  best.x = std::fmod(best.x + twoPi, twoPi);
  return best;
}

/// Maximisation over the rectangle [0, 2*pi) x [ymin, ymax] on an
/// (nx x ny) grid with local refinement; used for the (azimuth, polar)
/// spectrum of section V-B.  The grid is evaluated one batch per y row.
/// The grid maximum is the first strict maximum in azimuth-major order --
/// azimuth outer, row inner, starting at cell (0, 0) -- and refineRect
/// polishes it.
template <RectObjective F>
GridMax2D maximizeRect(F&& f, double ymin, double ymax, size_t nx = 360,
                       size_t ny = 91, int refineRounds = 6) {
  auto row = detail::asRows(f);
  const RectGrid grid(ymin, ymax, nx, ny);
  const std::vector<double> xs = circularGrid(grid.nx);
  std::vector<double> values(grid.nx * grid.ny);
  for (size_t j = 0; j < grid.ny; ++j) {
    row(xs, grid.y(j), std::span(values).subspan(j * grid.nx, grid.nx));
  }
  GridMax2D best{xs[0], ymin, values[0]};
  for (size_t i = 0; i < grid.nx; ++i) {
    for (size_t j = 0; j < grid.ny; ++j) {
      const double v = values[j * grid.nx + i];
      if (v > best.value) best = {xs[i], grid.y(j), v};
    }
  }
  return refineRect(row, grid, best, refineRounds);
}

/// maximizeRect's grid maximum, found from screening values (DESIGN.md
/// section 11, "Float scan"): `approx` holds an approximation of f at every
/// grid cell (row by row, like RectGrid) and `bound` a bound on its error,
/// |approx - f| <= bound.  With L the largest approx - bound over the
/// cells, only the candidates -- cells with approx + bound >= L, and every
/// cell whose approx or bound is not finite -- are evaluated with f, one
/// batch per row; the grid maximum among them, in maximizeRect's order, is
/// maximizeRect's grid maximum whenever the bounds hold: every cell that
/// can tie the maximum is a candidate.  `candidates` (if set) receives the
/// number of cells evaluated.  Zero bounds evaluate the cells that tie the
/// approximate maximum; infinite bounds evaluate the whole grid.
template <RectObjective F>
GridMax2D screenRect(F&& f, const RectGrid& grid,
                     std::span<const double> approx,
                     std::span<const double> bound,
                     size_t* candidates = nullptr) {
  auto row = detail::asRows(f);
  const size_t cells = grid.nx * grid.ny;
  double floor = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < cells; ++c) {
    if (std::isfinite(approx[c]) && std::isfinite(bound[c])) {
      floor = std::max(floor, approx[c] - bound[c]);
    }
  }
  // exact[c] is f at each candidate and NaN elsewhere; `picked` marks the
  // candidates, so a candidate whose f is NaN is still told apart.
  std::vector<double> exact(cells, std::numeric_limits<double>::quiet_NaN());
  std::vector<unsigned char> picked(cells, 0);
  std::vector<double> xs;
  std::vector<double> out;
  size_t evaluated = 0;
  for (size_t j = 0; j < grid.ny; ++j) {
    xs.clear();
    for (size_t i = 0; i < grid.nx; ++i) {
      const size_t c = j * grid.nx + i;
      const bool finite = std::isfinite(approx[c]) && std::isfinite(bound[c]);
      if (!finite || approx[c] + bound[c] >= floor) {
        picked[c] = 1;
        xs.push_back(circularGridAngle(i, grid.nx));
      }
    }
    if (xs.empty()) continue;
    out.resize(xs.size());
    row(xs, grid.y(j), out);
    evaluated += xs.size();
    for (size_t i = 0, k = 0; i < grid.nx; ++i) {
      if (picked[j * grid.nx + i]) exact[j * grid.nx + i] = out[k++];
    }
  }
  if (candidates != nullptr) *candidates = evaluated;
  // maximizeRect starts from cell (0, 0).  A cell outside the candidates
  // lies below L, and some candidate reaches L, so starting below every
  // value instead picks the same cell.
  GridMax2D best{circularGridAngle(0, grid.nx), grid.ymin,
                 picked[0] ? exact[0]
                           : -std::numeric_limits<double>::infinity()};
  for (size_t i = 0; i < grid.nx; ++i) {
    for (size_t j = 0; j < grid.ny; ++j) {
      const size_t c = j * grid.nx + i;
      if (picked[c] && exact[c] > best.value) {
        best = {circularGridAngle(i, grid.nx), grid.y(j), exact[c]};
      }
    }
  }
  return best;
}

/// Two-stage coarse-to-fine circular maximisation: a coarse grid of
/// `nCoarse` points selects a bracket which is then searched with a dense
/// local grid.  Equivalent result to maximizeCircular for unimodal-enough
/// profiles at a fraction of the evaluations; benchmarked in perf_profiles.
template <CircularObjective F>
GridMax1D maximizeCircularCoarseFine(F&& f, size_t nCoarse = 90,
                                     size_t nFine = 64, int refineRounds = 4) {
  auto eval = detail::asBatch(f);
  const double twoPi = 2.0 * std::numbers::pi;
  const double coarseStep = twoPi / static_cast<double>(nCoarse);
  const std::vector<double> coarse = circularGrid(std::max<size_t>(nCoarse, 1));
  std::vector<double> values(coarse.size());
  eval(coarse, values);
  GridMax1D best{coarse[0], values[0]};
  detail::scanMax(coarse, values, best);
  const double lo = best.x - coarseStep;
  const double fineStep = 2.0 * coarseStep / static_cast<double>(nFine);
  std::vector<double> fine(nFine + 1);
  for (size_t i = 0; i <= nFine; ++i) {
    fine[i] = lo + static_cast<double>(i) * fineStep;
  }
  values.resize(fine.size());
  eval(fine, values);
  detail::scanMax(fine, values, best);
  double halfSpan = fineStep;
  for (int round = 0; round < refineRounds; ++round) {
    const double candidates[2] = {best.x - halfSpan, best.x + halfSpan};
    double v[2];
    eval(candidates, v);
    detail::scanMax(candidates, v, best);
    halfSpan /= 2.0;
  }
  best.x = std::fmod(best.x + twoPi, twoPi);
  return best;
}

/// Local maximisation around `seed`: `seed` itself, then a grid of
/// 2*gridHalf points over seed +- halfSpan, then `refineRounds` of the
/// halving zoom maximizeCircular finishes with.  The result is not wrapped.
template <CircularObjective F>
GridMax1D maximizeNear(F&& f, double seed, double halfSpan, int gridHalf,
                       int refineRounds) {
  auto eval = detail::asBatch(f);
  std::vector<double> xs{seed};
  for (int i = -gridHalf; i <= gridHalf; ++i) {
    if (i == 0) continue;
    xs.push_back(seed + halfSpan * static_cast<double>(i) / gridHalf);
  }
  std::vector<double> values(xs.size());
  eval(xs, values);
  GridMax1D best{seed, values[0]};
  detail::scanMax(xs, values, best);
  detail::zoom(eval, best, halfSpan / gridHalf, refineRounds);
  return best;
}

}  // namespace tagspin::dsp
