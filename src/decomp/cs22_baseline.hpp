// CS22-style top-down baseline: expander decomposition, then route inside
// each expander cluster.
//
// The comparison bench_ablation (e) draws: instead of the paper's bottom-up
// Theorem 1.1 construction (diameter O(1/eps) clusters, routing time ~ the
// diameter), the top-down route recursively removes sweep cuts sparser than
// phi = eps / ceil(log2 m) (the shared sweep_partition engine in
// graph/metrics.hpp) until every cluster is a certified phi-expander. The
// standard charging argument (each cut is paid for by the smaller side's
// volume, every vertex lands on the smaller side <= log2 n times) keeps the
// total cut fraction O(eps), but routing inside an expander cluster costs
// the mixing-time factor O(log(vol)/phi) — the log-factor diameter/routing
// overhead Theorem 1.1's whole design avoids.
//
// The construction itself is centralized here (the paper's distributed
// version is poly(1/eps, log n) randomized rounds); the bench prints that
// caveat in its construction column, so the Ledger carries only a symbolic
// charge. Units: T_measured is simulated CONGEST rounds, diameters are BFS
// hops.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "decomp/clustering.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace mfd::decomp {

struct Cs22Result {
  Clustering clustering;
  ClusterQuality quality;
  congest::Runtime ledger;
  int T_measured = 0;   // expander-routing time: max ceil(log2 vol / phi)
  double phi_target = 0.0;
  double phi_certified = 1.0;  // weakest per-cluster certificate
};

inline Cs22Result cs22_decompose_and_route(const Graph& g, double eps,
                                           Rng& rng) {
  // Slow-mixing graphs (grids) need deep power iteration before the sweep
  // vector resolves their sparse cuts; several probes hedge the start
  // vector. Recursion is capped at kDepthSlack * ceil(log2 n) levels, and
  // the routing-time estimate divides by the certificate clamped like every
  // routing schedule's (clamp_routing_phi, graph/metrics.hpp).
  constexpr int kPowerIters = 256;
  constexpr int kProbes = 3;
  constexpr int kDepthSlack = 2;
  Cs22Result out;
  const int n = g.n();
  const double logm =
      std::ceil(std::log2(static_cast<double>(std::max<std::int64_t>(g.m(), 4))));
  out.phi_target = eps / logm;

  SweepPartitionParams sp;
  sp.phi_target = out.phi_target;
  sp.power_iters = kPowerIters;
  sp.probes = kProbes;
  sp.min_part = 2;
  sp.max_depth = kDepthSlack *
                 static_cast<int>(std::ceil(std::log2(std::max(n, 2))));
  const SweepPartitionResult partition = sweep_partition(g, rng.next(), sp);

  out.clustering.cluster.assign(n, 0);
  out.clustering.k = static_cast<int>(partition.parts.size());
  double worst_route = 1.0;
  for (std::size_t p = 0; p < partition.parts.size(); ++p) {
    std::int64_t vol = 0;
    for (int v : partition.parts[p].verts) {
      out.clustering.cluster[v] = static_cast<int>(p);
      vol += g.degree(v);
    }
    const double cert = partition.parts[p].cert;
    out.phi_certified = std::min(out.phi_certified, cert);
    // Finalized expander cluster: routing costs the mixing-time factor.
    const double phi_route = clamp_routing_phi(cert);
    worst_route = std::max(
        worst_route,
        std::ceil(std::log2(static_cast<double>(vol) + 2.0) / phi_route));
  }
  out.quality = evaluate_clustering(g, out.clustering);
  out.T_measured = static_cast<int>(worst_route);
  out.ledger.charge_envelope("centralized decomposition (symbolic)", 1,
                             2 * g.m());
  out.ledger.charge_envelope("expander routing (+T)", out.T_measured,
                             2 * g.m());
  return out;
}

}  // namespace mfd::decomp
