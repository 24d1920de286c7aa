// Expander split — the §2 preprocessing step of the routing stack.
//
// Recursively bisects the input along approximate-Fiedler sweep cuts (the
// shared sweep_partition engine in graph/metrics.hpp) until no part admits a
// sweep cut of conductance below `phi_target`; connected components are
// peeled off as they appear, and recursion depth is capped at ceil(log2 n),
// so the recursion tree has O(log n) levels. Each surviving part carries a
// conductance certificate phi_cert: the sparsest sweep cut the search could
// still find inside it (>= phi_target unless the part was a forced leaf),
// which is exactly the "no sparse cut found, hence well-connected"
// certification used by practical expander decompositions in the
// Chang–Saranurak (arXiv:2007.14898) line. The routing engines in
// rw_routing.hpp / load_balance.hpp treat a part and its phi_cert as the
// routing domain and its expansion parameter.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "decomp/clustering.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/ops.hpp"
#include "util/rng.hpp"

namespace mfd::expander {

struct SplitParams {
  double phi_target = 0.10;  // sweep-cut sparsity below which a part is split
};

/// Result of expander_split: a partition of V into well-connected parts, the
/// per-part conductance certificate, and the (owned) routing-domain graph.
struct ExpanderSplit {
  Graph g;  // owned copy: callers may pass temporaries (benches do)
  decomp::Clustering parts;
  std::vector<std::vector<int>> members;   // members[p] = vertices of part p
  std::vector<double> phi_cert;            // certified sweep sparsity of part p
  std::vector<std::int64_t> part_volume;   // 2 * (edges induced by part p)
  std::vector<int> ideg;                   // degree of v inside its own part
  congest::Runtime ledger;                 // simulated construction rounds
  SplitParams params;

  int part_of(int v) const { return parts.cluster[v]; }

  /// Part p's certificate clamped into [kRoutingPhiFloor, 1]
  /// (graph/metrics.hpp): the φ both gather engines size their schedules by.
  double routing_phi(int p) const { return clamp_routing_phi(phi_cert[p]); }

  double min_conductance() const {
    double phi = 1.0;
    for (double c : phi_cert) phi = std::min(phi, c);
    return phi;
  }
};

inline ExpanderSplit expander_split(const Graph& g, Rng& rng,
                                    SplitParams params = {}) {
  ExpanderSplit out;
  out.g = g;
  const int n = g.n();
  out.params = params;

  // Lazy-walk power iterations per sweep; parts of at most three vertices
  // are never split.
  constexpr int kPowerIters = 40;
  SweepPartitionParams sp;
  sp.phi_target = params.phi_target;
  sp.power_iters = kPowerIters;
  sp.max_depth = static_cast<int>(std::ceil(std::log2(std::max(n, 2))));
  sp.min_part = 3;
  SweepPartitionResult partition = sweep_partition(out.g, rng.next(), sp);

  out.parts.cluster.assign(n, 0);
  for (std::size_t p = 0; p < partition.parts.size(); ++p) {
    for (int v : partition.parts[p].verts) {
      out.parts.cluster[v] = static_cast<int>(p);
    }
    out.phi_cert.push_back(partition.parts[p].cert);
    out.members.push_back(std::move(partition.parts[p].verts));
  }
  out.parts.k = static_cast<int>(out.members.size());

  out.ideg.assign(n, 0);
  for (int v = 0; v < n; ++v) {
    for (int w : out.g.neighbors(v)) {
      if (out.parts.cluster[w] == out.parts.cluster[v]) ++out.ideg[v];
    }
  }
  out.part_volume.assign(out.parts.k, 0);
  for (int v = 0; v < n; ++v) out.part_volume[out.parts.cluster[v]] += out.ideg[v];

  // Each recursion level is one distributed sweep: power_iters rounds of
  // local averaging plus a prefix-selection aggregation. Every such round
  // moves one O(log n)-bit value per directed edge, so the phase is
  // envelope-billed at that per-round ceiling.
  out.ledger.charge_envelope(
      "fiedler sweeps",
      static_cast<std::int64_t>(std::max(partition.levels, 1)) *
          (kPowerIters +
           static_cast<std::int64_t>(std::ceil(
               std::log2(static_cast<double>(std::max(n, 2)))))),
      2 * g.m());
  return out;
}

}  // namespace mfd::expander
