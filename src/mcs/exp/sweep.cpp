#include "mcs/exp/sweep.hpp"

#include <numeric>

namespace mcs::exp {

SweepResult run_sweep(
    const Sweep& sweep, const RunOptions& options,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  const std::size_t total = sweep.points.size();
  std::vector<std::size_t> indices(total);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  SweepResult result;
  result.sweep = sweep;
  result.points.resize(total);
  std::size_t completed = 0;
  run_points(sweep, indices, options, false, 0, [&](PointCheckpoint point) {
    result.points[point.index] = std::move(point.result);
    if (progress) progress(++completed, total);
  });
  return result;
}

namespace {

SweepPoint make_point(double x, gen::GenParams params, double alpha) {
  return SweepPoint{
      .x = x,
      .params = params,
      .make_schemes = [alpha] { return partition::paper_schemes(alpha); }};
}

}  // namespace

Sweep make_fig1_nsu(const gen::GenParams& base, double alpha) {
  Sweep s{.name = "fig1", .x_label = "NSU", .points = {}};
  for (double nsu : kNsuRange) {
    gen::GenParams p = base;
    p.nsu = nsu;
    s.points.push_back(make_point(nsu, p, alpha));
  }
  return s;
}

Sweep make_fig2_ifc(const gen::GenParams& base, double alpha) {
  Sweep s{.name = "fig2", .x_label = "IFC", .points = {}};
  for (double ifc : kIfcRange) {
    gen::GenParams p = base;
    p.ifc = ifc;
    s.points.push_back(make_point(ifc, p, alpha));
  }
  return s;
}

Sweep make_fig3_alpha(const gen::GenParams& base) {
  Sweep s{.name = "fig3", .x_label = "alpha", .points = {}};
  s.share_workloads_across_points = true;  // only alpha varies with x
  for (double alpha : kAlphaRange) {
    s.points.push_back(make_point(alpha, base, alpha));
  }
  return s;
}

Sweep make_fig4_cores(const gen::GenParams& base, double alpha) {
  Sweep s{.name = "fig4", .x_label = "M", .points = {}};
  for (std::size_t m : kCoreRange) {
    gen::GenParams p = base;
    p.num_cores = m;
    s.points.push_back(make_point(static_cast<double>(m), p, alpha));
  }
  return s;
}

Sweep make_fig5_levels(const gen::GenParams& base, double alpha) {
  Sweep s{.name = "fig5", .x_label = "K", .points = {}};
  for (Level k : kLevelRange) {
    gen::GenParams p = base;
    p.num_levels = k;
    s.points.push_back(make_point(static_cast<double>(k), p, alpha));
  }
  return s;
}

}  // namespace mcs::exp
