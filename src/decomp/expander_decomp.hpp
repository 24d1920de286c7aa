// (ε, φ) expander decomposition for minor-free graphs — Observation 3.1 /
// Corollary 6.2.
//
// The pipeline composes the two engines the paper composes: first the
// Theorem 1.1 (ε, D, T)-decomposition caps every cluster's strong diameter
// at O(1/ε) while spending at most half the ε cut budget, then each cluster
// is run through the expander/ sweep-split machinery at
// φ = Ω(ε / (log 1/ε + log Δ)) — low-diameter minor-free clusters are
// already expanders at that scale, so the split stage rarely cuts anything
// and the total cut stays near ε/2·m. The construction certifies nothing
// itself: a caller that needs φ evidence runs certify_parts (below) on the
// emitted clusters, the one certification path of both decomposition
// engines.
//
// Determinism: the split stage seeds its Fiedler probes from a fixed
// published constant hashed with the cluster id — no Rng flows in, so the
// decomposition is a pure function of (g, eps).
//
// Layering note: this header (and overlap_decomp.hpp) is the decomposition
// *engine* tier — it sits above expander/ even though it lives in decomp/;
// see the layer diagram in docs/ARCHITECTURE.md.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "congest/shard.hpp"
#include "decomp/clustering.hpp"
#include "decomp/edt.hpp"
#include "expander/cut_matching.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/ops.hpp"

namespace mfd::decomp {

struct ExpanderDecomp {
  Clustering clustering;
  double phi_target = 0.0;  // Ω(eps / (log 1/eps + log Δ))
  congest::Runtime ledger;  // phase-attributed simulated CONGEST rounds
  int clusters_split = 0;   // EDT clusters the split stage had to cut
};

/// Re-certify a family of vertex sets (the emitted clusters of either
/// decomposition engine) through the three-tier certified_phi, checking each
/// certificate against its own witnessed upper bound. A certified lower
/// bound exceeding the witnessed cut is impossible for a sound certificate,
/// so it fails loudly (stderr + ok = false) — the one certification path
/// of both engines' output and the bench gate. The ledger aggregates the
/// games' CONGEST cost into one measured phase (rounds summed — the clusters
/// are disjoint in the partition case but may overlap for the overlap object,
/// so summing is the conservative schedule; congestion is the per-game peak).
struct PartCertifyReport {
  bool ok = true;
  std::string violation;  // first failure, empty when ok
  int clusters_certified = 0;
  int clusters_estimated = 0;
  double min_phi_lower = 1.0;
  double min_phi_estimate = 1.0;
  int max_certified_cluster = 0;       // largest cluster with a sound bound
  std::int64_t state_bytes_peak = 0;   // largest per-game mixing-state figure
  congest::Runtime ledger;
};

inline PartCertifyReport certify_parts(
    const Graph& g, const std::vector<std::vector<int>>& parts,
    const expander::PhiCertParams& pc = {},
    congest::ShardPool* pool = nullptr) {
  PartCertifyReport rep;
  // Per-cluster games are independent pure functions of their induced
  // subgraph, so results land in a cluster-indexed vector and the fold
  // below runs serially in cluster order — every accumulation (sums, mins,
  // maxes, first-violation pick, ledger charge) sees the exact serial order,
  // so the report is bit-identical to the serial loop at every thread count.
  // The schedule is heavy-first: a game costs about size^2, and a cluster
  // whose size^2 * threads exceeds the sum over all clusters would outlast
  // a fair share of the fan-out on its own. Such clusters run one at a
  // time, largest first, with the pool lent to their replays; the rest fan
  // out as whole-cluster tasks, where a nested replay runs inline.
  const int nparts = static_cast<int>(parts.size());
  std::vector<expander::PhiReport> reports(nparts);
  std::vector<int> sizes(nparts, 0);
  const auto certify = [&](int c) {
    const InducedSubgraph sub = induced_subgraph(g, parts[c]);
    sizes[c] = sub.graph.n();
    reports[c] = expander::certified_phi(sub.graph, pc, pool);
  };
  const std::int64_t threads = pool != nullptr ? pool->threads() : 1;
  const auto weight = [&parts](int c) {
    const auto s = static_cast<std::int64_t>(parts[c].size());
    return s * s;
  };
  std::int64_t total = 0;
  for (int c = 0; c < nparts; ++c) total += weight(c);
  std::vector<int> heavy, light;
  for (int c = 0; c < nparts; ++c) {
    (weight(c) * threads > total ? heavy : light).push_back(c);
  }
  std::stable_sort(heavy.begin(), heavy.end(), [&parts](int a, int b) {
    return parts[a].size() > parts[b].size();
  });
  for (int c : heavy) certify(c);
  congest::for_each_task(pool, static_cast<int>(light.size()),
                         [&](int i, int /*worker*/) { certify(light[i]); });
  std::int64_t rounds = 0, messages = 0, peak = 0;
  for (int c = 0; c < nparts; ++c) {
    const expander::PhiReport& pr = reports[c];
    rounds += pr.ledger.total();
    messages += pr.ledger.total_messages();
    peak = std::max(peak, pr.ledger.peak_congestion());
    rep.min_phi_estimate = std::min(rep.min_phi_estimate, pr.estimate);
    rep.state_bytes_peak = std::max(rep.state_bytes_peak, pr.game_state_bytes);
    if (pr.cert.certified_lower()) {
      ++rep.clusters_certified;
      rep.min_phi_lower = std::min(rep.min_phi_lower, pr.cert.phi);
      rep.max_certified_cluster = std::max(rep.max_certified_cluster, sizes[c]);
      if (pr.cert.phi > pr.upper + 1e-9) {
        rep.ok = false;
        if (rep.violation.empty()) {
          rep.violation = "cluster " + std::to_string(c) +
                          ": certified lower bound " +
                          std::to_string(pr.cert.phi) +
                          " exceeds witnessed upper bound " +
                          std::to_string(pr.upper);
        }
        std::fprintf(stderr, "certify_parts: %s\n", rep.violation.c_str());
      }
    } else {
      ++rep.clusters_estimated;
    }
  }
  rep.ledger.charge("certify: cut-matching games", rounds, messages,
                    messages > 0 ? std::max<std::int64_t>(peak, 1) : 0);
  return rep;
}

/// The Corollary 6.2 conductance target for the (ε, φ) object.
inline double minor_free_phi_target(double eps, int max_degree) {
  return eps /
         (4.0 * (std::log2(1.0 / eps) + std::log2(max_degree + 2.0) + 1.0));
}

inline ExpanderDecomp expander_decomposition_minor_free(const Graph& g,
                                                        double eps) {
  ExpanderDecomp out;
  out.phi_target = minor_free_phi_target(eps, g.max_degree());

  // The EDT stage spends half of the eps budget; the split stage's Fiedler
  // probes run kSplitPowerIters averaging rounds each.
  constexpr double kEdtEpsShare = 0.5;
  constexpr int kSplitPowerIters = 40;
  EdtDecomposition edt = build_edt_decomposition(g, eps * kEdtEpsShare);
  {
    congest::ChargeScope edt_scope(out.ledger, "edt");
    edt_scope.absorb(edt.ledger);
  }

  // Split every EDT cluster at phi_target; parts become final clusters.
  const std::vector<std::vector<int>> members = cluster_members(edt.clustering);
  out.clustering.cluster.assign(g.n(), 0);
  int next_id = 0;
  std::int64_t max_split_rounds = 0;
  std::int64_t split_msgs = 0;
  SweepPartitionParams sp;
  sp.phi_target = out.phi_target;
  sp.power_iters = kSplitPowerIters;
  for (int c = 0; c < edt.clustering.k; ++c) {
    const InducedSubgraph sub = induced_subgraph(g, members[c]);
    const SweepPartitionResult parts = sweep_partition(
        sub.graph, 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(c) + 1),
        sp);
    if (parts.parts.size() > 1) ++out.clusters_split;
    for (const auto& part : parts.parts) {
      for (int local : part.verts) {
        out.clustering.cluster[sub.to_parent[local]] = next_id;
      }
      ++next_id;
    }
    // Each split level costs kSplitPowerIters averaging rounds + an
    // aggregation; clusters run in parallel, so charge the max, not the sum.
    // Every averaging/aggregation round moves one O(log n)-bit value per
    // directed intra-cluster edge, so messages sum the per-cluster
    // round * edge products while congestion stays 1 (clusters are
    // vertex-disjoint).
    const std::int64_t cluster_rounds =
        static_cast<std::int64_t>(std::max(parts.levels, 1)) *
        (kSplitPowerIters +
         static_cast<std::int64_t>(std::ceil(std::log2(
             std::max<double>(static_cast<double>(members[c].size()), 2.0)))));
    max_split_rounds = std::max(max_split_rounds, cluster_rounds);
    split_msgs += cluster_rounds * 2 * sub.graph.m();
  }
  out.clustering.k = next_id;
  out.ledger.charge("split: fiedler sweeps (max over clusters)",
                    max_split_rounds, split_msgs, split_msgs > 0 ? 1 : 0);
  return out;
}

}  // namespace mfd::decomp
