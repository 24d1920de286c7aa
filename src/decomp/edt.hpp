// Deterministic (ε, D, T)-decomposition — Theorem 1.1 / Corollary 6.1.
//
// build_edt_decomposition runs the Section-4 pipeline in
// decomp/ldd_local.hpp: iterated heavy-stars contraction under a diameter
// guard, O(log* n)-type rounds per iteration and no global BFS anywhere, so
// construction rounds do not grow with the graph diameter. The retired
// Klein–Plotkin–Rao-style global-BFS chop, which pays BFS depth every pass
// (Θ(√n) on a grid), is the separate baseline decomp/ldd_chop.hpp that
// bench_ldd and the ablation bench grade this engine against.
//
// EdtParams and EdtDecomposition are declared next to the engine in
// decomp/ldd_local.hpp. The lent EdtParams::pool parallelizes the
// contraction's per-round vertex work; results are identical for every
// thread count.
//
// The engine meets the hard ε cut budget deterministically. The ledger
// charges simulated rounds: the O(log* n / ε) preprocessing term, the
// per-iteration heavy-stars + Cole–Vishkin work, and the +T
// routing-structure setup. T_measured distinguishes the paper's two
// tradeoffs (Theorem 1.1): the overlap variant pays a log Δ factor on
// cluster diameter; the polylog variant pays an additive polylog(Δ, 1/ε)
// term.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "congest/runtime.hpp"
#include "decomp/clustering.hpp"
#include "decomp/ldd_local.hpp"
#include "graph/graph.hpp"

namespace mfd::decomp {

namespace detail {

/// Band width w = ceil(passes / ε) of the D = O(1/ε) regime: the chop cuts
/// between BFS bands this wide, and the contraction's eccentricity guard is
/// 2w. Three passes budgeted against the ε allowance.
inline int edt_band_width(double eps) {
  constexpr int kPasses = 3;
  return std::max(2, static_cast<int>(std::ceil(kPasses / eps)));
}

/// O(log* n / ε) preprocessing (symbolic charge for the paper's
/// ruling-set / degree-reduction machinery we simulate centrally) —
/// envelope-billed at the CONGEST ceiling of 1 message/directed edge/round.
inline void charge_edt_preprocess(congest::Runtime& ledger, const Graph& g,
                                  double eps) {
  const auto inv_eps = static_cast<std::int64_t>(std::ceil(1.0 / eps));
  ledger.charge_envelope("preprocess(log* n / eps)",
                         congest::log_star(g.n()) * inv_eps, 2 * g.m());
}

/// Routing time of the chosen T tradeoff on the built clustering (simulation
/// proxies for the two Theorem 1.1 variants), charged as the +T setup.
inline void charge_edt_routing(EdtDecomposition& out, const Graph& g,
                               double eps, EdtVariant variant) {
  const int log_delta =
      static_cast<int>(std::ceil(std::log2(g.max_degree() + 2)));
  const int log_inv_eps = static_cast<int>(std::ceil(std::log2(1.0 / eps) + 1));
  const int diam = out.quality.max_diameter;
  out.T_measured = variant == EdtVariant::kOverlapRouting
                       ? diam * log_delta + 1
                       : diam + log_delta * log_inv_eps;
  out.ledger.charge_envelope("routing setup (+T)", out.T_measured, 2 * g.m());
}

}  // namespace detail

inline EdtDecomposition build_edt_decomposition(const Graph& g, double eps,
                                                EdtParams params = {}) {
  EdtDecomposition out;
  detail::charge_edt_preprocess(out.ledger, g, eps);
  // The eccentricity guard 2*w keeps the strong diameter <= 4*w, the chop
  // baseline's D = O(1/eps) constant regime.
  detail::contract_heavy_stars(g, eps, 2 * detail::edt_band_width(eps), params,
                               out);
  detail::charge_edt_routing(out, g, eps, params.variant);
  return out;
}

}  // namespace mfd::decomp
