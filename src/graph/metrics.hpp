// Cut/conductance metrics and the spectral sweep machinery behind the
// expander layer.
//
// Conductance here is the standard phi(S) = cut(S) / min(vol S, vol V\S) with
// vol = sum of degrees. Sparse cuts are searched with the classic recipe:
// power-iterate the lazy random-walk matrix P = (I + D^-1 A)/2 against the
// stationary (degree) component to approximate the Fiedler direction, then
// take the best prefix of the sorted embedding (sweep cut). The sweep minimum
// is what expander_split uses as a well-connectedness certificate: a part is
// accepted once no sweep cut sparser than the target exists.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ops.hpp"

namespace mfd {

inline std::int64_t graph_volume(const Graph& g) { return 2 * g.m(); }

/// Floor under a conductance certificate wherever a routing schedule divides
/// by it: a near-zero sweep sparsity would otherwise blow a walk length, a
/// load-balancing schedule or the CS22 baseline's routing time up without
/// bound.
inline constexpr double kRoutingPhiFloor = 0.02;

/// A certificate clamped into [kRoutingPhiFloor, 1]: the φ every routing
/// schedule (both gather engines and the CS22 baseline) is sized by.
inline double clamp_routing_phi(double cert) {
  return std::min(1.0, std::max(cert, kRoutingPhiFloor));
}

/// phi(S) for the vertex set flagged by `in_side` (1 = in S). Returns 2.0 for
/// trivial sides (S empty or S = V) so callers can minimize safely.
inline double cut_conductance(const Graph& g, const std::vector<char>& in_side) {
  std::int64_t cut = 0, vol_s = 0;
  for (int u = 0; u < g.n(); ++u) {
    if (!in_side[u]) continue;
    vol_s += g.degree(u);
    for (int w : g.neighbors(u)) {
      if (!in_side[w]) ++cut;
    }
  }
  const std::int64_t vol_rest = graph_volume(g) - vol_s;
  const std::int64_t denom = std::min(vol_s, vol_rest);
  if (denom <= 0) return 2.0;
  return static_cast<double>(cut) / static_cast<double>(denom);
}

struct SweepCut {
  double conductance = 2.0;  // best (minimum) phi over the sweep prefixes
  std::int64_t cut_edges = 0;
  std::vector<char> in_side;  // the minimizing side S (1 = in S)
};

/// Best prefix cut of the vertices sorted by `score` (ties by id). O(m + n
/// log n); both trivial prefixes are excluded.
inline SweepCut sweep_min_cut(const Graph& g, const std::vector<double>& score) {
  SweepCut best;
  const int n = g.n();
  if (n < 2) return best;
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&score](int a, int b) {
    return score[a] != score[b] ? score[a] < score[b] : a < b;
  });
  std::vector<char> in_side(n, 0);
  const std::int64_t vol_total = graph_volume(g);
  std::int64_t cut = 0, vol_s = 0;
  int best_prefix = -1;
  for (int i = 0; i + 1 < n; ++i) {
    const int u = order[i];
    in_side[u] = 1;
    vol_s += g.degree(u);
    for (int w : g.neighbors(u)) cut += in_side[w] ? -1 : 1;
    const std::int64_t denom = std::min(vol_s, vol_total - vol_s);
    if (denom <= 0) continue;
    const double phi = static_cast<double>(cut) / static_cast<double>(denom);
    if (phi < best.conductance) {
      best.conductance = phi;
      best.cut_edges = cut;
      best_prefix = i;
    }
  }
  if (best_prefix >= 0) {
    best.in_side.assign(n, 0);
    for (int i = 0; i <= best_prefix; ++i) best.in_side[order[i]] = 1;
  }
  return best;
}

/// Deterministic approximate Fiedler embedding: `iters` rounds of the lazy
/// walk P = (I + D^-1 A)/2 applied to a hash-seeded start vector, with the
/// stationary (degree) component projected out every round so the iterate
/// converges to the slowest non-trivial mode. Isolated vertices get score 0.
inline std::vector<double> approx_fiedler(const Graph& g, std::uint64_t seed,
                                          int iters = 40) {
  const int n = g.n();
  std::vector<double> x(n), next(n);
  for (int v = 0; v < n; ++v) {
    // splitmix64 of (seed, v) -> (-1, 1); no Rng state so callers stay pure.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(v) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    x[v] = static_cast<double>(z >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  }
  const double vol = static_cast<double>(std::max<std::int64_t>(graph_volume(g), 1));
  for (int it = 0; it < iters; ++it) {
    // Project out the stationary component: x <- x - (<x, d>/vol) * 1.
    double dot = 0.0;
    for (int v = 0; v < n; ++v) dot += x[v] * g.degree(v);
    const double shift = dot / vol;
    double norm = 0.0;
    for (int v = 0; v < n; ++v) {
      x[v] -= shift;
      norm += x[v] * x[v];
    }
    if (norm < 1e-300) break;
    const double inv = 1.0 / std::sqrt(norm);
    for (int v = 0; v < n; ++v) x[v] *= inv;
    for (int v = 0; v < n; ++v) {
      double acc = 0.0;
      for (int w : g.neighbors(v)) acc += x[w];
      const int d = g.degree(v);
      next[v] = d == 0 ? 0.0 : 0.5 * x[v] + 0.5 * acc / d;
    }
    x.swap(next);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Recursive sweep partition — the shared engine behind expander_split and the
// CS22 top-down baseline: peel connected components, probe each subproblem
// with approx_fiedler sweeps, and split along any sweep cut sparser than
// phi_target until none is found (or the depth cap bites). Each final part
// carries the sparsest sweep conductance its failed search produced — the
// "no sparse cut found" well-connectedness certificate.

struct SweepPartitionParams {
  double phi_target = 0.10;
  int power_iters = 40;
  int probes = 1;    // Fiedler starts per subproblem; best sweep wins
  int max_depth = 30;
  int min_part = 3;  // parts at or below this size are never swept
};

struct SweepPart {
  std::vector<int> verts;
  double cert = 1.0;  // sparsest sweep cut found inside (1.0 if never swept)
};

struct SweepPartitionResult {
  std::vector<SweepPart> parts;
  int levels = 0;  // deepest recursion level that ran a sweep
};

// ---------------------------------------------------------------------------
// Conductance certification for decomposition clusters: exact minimum over
// all cuts for tiny graphs (2^(n-1) subsets), the Cheeger bound λ2/2
// otherwise, with λ2 of the normalized Laplacian estimated as the Rayleigh
// quotient of the approx_fiedler iterate. The Rayleigh quotient approaches
// λ2 from above, so on large clusters this is an *estimate* of the Cheeger
// lower bound, not a certified one. expander/cut_matching.hpp wires the
// third tier — a certified lower bound from an embedded cut-matching game —
// on top of this primitive (certified_phi); the PhiVerdict enum covers all
// tiers so every consumer can surface which guarantee it actually holds.

/// Which guarantee a PhiCertificate carries. Degenerate inputs get explicit
/// verdicts (enforced by tests/test_fuzz.cpp::fuzz_phi_degenerate):
///   * isolated (degree-0) vertices are stripped first — they contribute
///     neither volume nor cut, so zero-volume sides never enter the minimum;
///   * kTrivial — at most one vertex remains after stripping (empty graph,
///     single vertex, edgeless cluster): phi = 1 by convention, exact;
///   * kDisconnected — at least two edge-bearing components remain: the
///     component cut has zero crossing edges and positive volume on both
///     sides, so phi = 0, exact;
///   * kExact — brute-force minimum over all 2^(n-1) cuts (n <= exact_cap);
///   * kCutMatching — certified lower bound replayed from an embedded
///     matching union (set by expander::certified_phi, never here);
///   * kCheeger — Rayleigh-quotient λ2/2 estimate. NOT a bound: the only
///     verdict for which `phi` may exceed the true conductance.
enum class PhiVerdict { kTrivial, kDisconnected, kExact, kCutMatching, kCheeger };

struct PhiCertificate {
  double phi = 1.0;   // conductance lower bound, or estimate under kCheeger
  bool exact = false; // phi is the exact minimum (kTrivial/kDisconnected/kExact)
  PhiVerdict verdict = PhiVerdict::kTrivial;

  /// True when phi is a sound lower bound on the conductance (every verdict
  /// except the Cheeger estimate).
  bool certified_lower() const { return verdict != PhiVerdict::kCheeger; }
};

/// Vertices of positive degree — the support conductance actually ranges
/// over. Shared by phi_certificate and the cut-matching tier so both tiers
/// agree on what the degenerate inputs mean.
inline std::vector<int> non_isolated_vertices(const Graph& g) {
  std::vector<int> verts;
  for (int v = 0; v < g.n(); ++v) {
    if (g.degree(v) > 0) verts.push_back(v);
  }
  return verts;
}

/// The largest cluster whose conductance is enumerated exactly by default:
/// 2^11 cuts, cheap enough to run on every tiny cluster. phi_certificate and
/// certified_phi (PhiCertParams::exact_cap) share it.
inline constexpr int kExactPhiCap = 12;

/// What phi_probe looked at on its way to the certificate: the
/// positive-degree core and, under kCheeger only, the approx_fiedler vector
/// the estimate was read from. certified_phi sweeps that same vector and
/// derives its game's target from the estimate, so one Fiedler pass serves
/// every tier.
struct PhiProbe {
  PhiCertificate cert;
  InducedSubgraph core;         // empty under kTrivial
  std::vector<double> fiedler;  // empty unless cert.verdict == kCheeger
};

/// Conductance certificate for a cluster. `exact_cap` selects the exact
/// enumeration path for graphs of at most that many vertices — it DEFAULTS
/// TO kExactPhiCap and is HARD-CLAMPED TO 20 inside the function (the exact
/// path enumerates 2^(n-1) cuts, so a generous knob must neither hang nor
/// overflow the 32-bit subset mask): passing exact_cap = 64 still means
/// "exact at <= 20 vertices, Cheeger estimate above". Above the effective
/// cap, phi is the λ2/2 Cheeger value with λ2 estimated as the Rayleigh
/// quotient of `power_iters` approx_fiedler iterations — an estimate that
/// approaches λ2 from above, i.e. not a certified lower bound (verdict
/// kCheeger, exact = false). Degenerate inputs (isolated vertices,
/// disconnected clusters, edgeless graphs) get the explicit verdicts
/// documented on PhiVerdict instead of the historical implicit behavior.
/// phi_probe returns the certificate with the core and Fiedler vector it
/// was computed from; phi_certificate is its certificate alone.
inline PhiProbe phi_probe(const Graph& g, int exact_cap = kExactPhiCap,
                          int power_iters = 60) {
  PhiProbe out;
  PhiCertificate& cert = out.cert;
  // Zero-volume sides cannot enter the conductance minimum, so isolated
  // vertices are invisible to it: certify the positive-degree core instead.
  const std::vector<int> support = non_isolated_vertices(g);
  if (support.size() <= 1) {
    cert.exact = true;
    cert.verdict = PhiVerdict::kTrivial;
    return out;  // trivially well-connected (phi = 1 by convention)
  }
  out.core = induced_subgraph(g, support);
  const Graph& core = out.core.graph;
  if (!is_connected(core)) {
    // Two edge-bearing components: the component cut is crossed by no edge
    // and both sides carry volume, so the minimum conductance is exactly 0.
    cert.phi = 0.0;
    cert.exact = true;
    cert.verdict = PhiVerdict::kDisconnected;
    return out;
  }
  const int n = core.n();
  // The exact path enumerates 2^(n-1) subsets: clamp the caller's cap so a
  // generous knob can neither hang nor overflow the 32-bit mask below.
  exact_cap = std::min(exact_cap, 20);
  if (n <= exact_cap) {
    cert.exact = true;
    cert.verdict = PhiVerdict::kExact;
    std::vector<char> side(n, 0);
    double best = 1.0;
    for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
      for (int v = 0; v < n - 1; ++v) side[v] = (mask >> v) & 1u;
      best = std::min(best, cut_conductance(core, side));
    }
    cert.phi = best;
    return out;
  }
  out.fiedler = approx_fiedler(core, 0x517cc1b727220a95ULL, power_iters);
  const std::vector<double>& x = out.fiedler;
  double num = 0.0, den = 0.0;
  for (int u = 0; u < n; ++u) {
    den += core.degree(u) * x[u] * x[u];
    for (int w : core.neighbors(u)) {
      if (u < w) num += (x[u] - x[w]) * (x[u] - x[w]);
    }
  }
  const double lambda2 = den <= 1e-300 ? 2.0 : num / den;
  cert.phi = std::min(1.0, lambda2 / 2.0);
  cert.verdict = PhiVerdict::kCheeger;
  return out;
}

inline PhiCertificate phi_certificate(const Graph& g,
                                      int exact_cap = kExactPhiCap,
                                      int power_iters = 60) {
  return phi_probe(g, exact_cap, power_iters).cert;
}

inline SweepPartitionResult sweep_partition(const Graph& g, std::uint64_t seed,
                                            SweepPartitionParams p = {}) {
  SweepPartitionResult out;
  const int n = g.n();
  struct Item {
    std::vector<int> verts;
    int depth;
  };
  std::vector<Item> stack;
  {
    std::vector<int> all(n);
    std::iota(all.begin(), all.end(), 0);
    stack.push_back({std::move(all), 0});
  }
  std::uint64_t probe = 0;  // distinct Fiedler start per sweep
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();
    if (item.verts.empty()) continue;
    const InducedSubgraph sub = induced_subgraph(g, item.verts);
    const auto [comp, kc] = connected_components(sub.graph);
    if (kc > 1) {
      std::vector<std::vector<int>> comps(kc);
      for (int i = 0; i < sub.graph.n(); ++i) {
        comps[comp[i]].push_back(sub.to_parent[i]);
      }
      for (auto& c : comps) stack.push_back({std::move(c), item.depth});
      continue;
    }
    double cert = 1.0;
    if (static_cast<int>(item.verts.size()) > p.min_part) {
      SweepCut sweep;
      for (int r = 0; r < std::max(p.probes, 1); ++r) {
        const SweepCut candidate = sweep_min_cut(
            sub.graph, approx_fiedler(sub.graph,
                                      seed + 0x9e3779b97f4a7c15ULL * ++probe,
                                      p.power_iters));
        if (candidate.conductance < sweep.conductance) sweep = candidate;
      }
      out.levels = std::max(out.levels, item.depth + 1);
      if (sweep.conductance < p.phi_target && !sweep.in_side.empty() &&
          item.depth < p.max_depth) {
        std::vector<int> side, rest;
        for (int i = 0; i < sub.graph.n(); ++i) {
          (sweep.in_side[i] ? side : rest).push_back(sub.to_parent[i]);
        }
        stack.push_back({std::move(side), item.depth + 1});
        stack.push_back({std::move(rest), item.depth + 1});
        continue;
      }
      cert = std::min(sweep.conductance, 1.0);
    }
    out.parts.push_back({std::move(item.verts), cert});
  }
  return out;
}

}  // namespace mfd
