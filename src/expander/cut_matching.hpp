// Certified conductance lower bounds via a deterministic cut-matching game —
// the KRV ("Graph partitioning using single commodity flows") potential
// game in the Chang–Saranurak deterministic expander-decomposition style
// (arXiv:2007.14898).
//
// Given a connected cluster G, the game plays O(log^2 n) rounds. Each round
//   * the CUT PLAYER proposes a bisection: split the sorted values of a
//     probe vector y = F * proj at the median, where F is the (implicit)
//     mixing matrix and proj a seeded zero-sum vector (deterministic — the
//     seed is a published constant);
//   * the MATCHING PLAYER routes a unit of flow from every S vertex to a
//     distinct S-bar vertex through G, with every edge capped at
//     ceil(1/phi_target) (Dinic max flow). If the flow saturates, its path
//     decomposition is a perfect matching across the bisection EMBEDDED in G
//     — the matched pairs average their rows of F. If it cannot, the
//     residual min cut is a sparse cut of G: the game stops and returns that
//     side, re-checked by direct conductance computation.
//
// THE IMPLICIT-MATRIX ENGINE. The distributed formulation never holds F
// explicitly — the certificate is the matching sequence, which is all the
// game keeps. Two mechanisms replace the resident n x n matrix:
//
//   * Streaming cut player (exact, not approximate): a bank of k seeded
//     probe vectors y_j is maintained incrementally — initialising
//     y_j = proj_j establishes y_j = F * proj_j at F = I, and every applied
//     matching averages the matched pairs' probe entries, which IS the KRV
//     row-averaging applied to F * proj_j. Round r cuts on probe r mod k.
//     Cost per round: O(k * |matching|) instead of O(n^2).
//   * Blocked column replay for alpha: alpha = n * min entry of F is only
//     needed at candidate certificate prefixes (powers of two of the
//     appended-matching count, plus the final prefix). Each evaluation
//     first tries to prove alpha = 0: after s rounds a column holds at most
//     2^s non-zeros, and a bitset replay of the columns' supports (64
//     columns per word, 1/64 of the double replay's work) finds any entry
//     that only ever averaged zeros. So only the last checkpoints, whose
//     columns are fully mixed, pay the double replay, against identity
//     column blocks of B <= 64 basis vectors: O(n * B) memory per pool
//     thread, embarrassingly parallel over blocks of the congest::ShardPool
//     every entry point takes as its last argument.
//     Every matrix entry receives the identical sequence of 0.5*(a+b)
//     averagings either way (pairs within a round are vertex-disjoint, the
//     round order is fixed) and min over doubles is order-free, so the
//     replayed alpha is BIT-IDENTICAL to a resident-matrix scan for any
//     block size and thread count.
//
// The game runs this one engine at every n; its O(n + B*n) state is what
// lets certified_phi's kCutMatchingCap sit at 65536. The matching player's
// flow network is built once per game and only its source and sink arcs
// change between rounds. The resident-matrix reference lives in
// tests/oracles.hpp: tests/test_fuzz.cpp rebuilds the n x n matrix from the
// recorded matchings and pins it to the certificate's alpha bit for bit
// across all generator families and thread counts, and pins the zero proof
// to that matrix's zero entries at every prefix.
//
// Soundness of the certificate (verified by verify_cut_matching, which
// replays it from the recorded paths alone):
//   Let H be the multigraph union of the matchings, each edge carrying its
//   recorded path, c = max #paths over any edge of G, Delta = max degree.
//   The mixing matrix F (identity, then matched rows averaged) is doubly
//   stochastic, and every unit of commodity w held at u != w physically
//   crossed the matching edges between them, at most one unit per matching
//   edge per round. Hence for every cut (S, S-bar):
//       cut_H(S) >= sum of cross-held commodity >= alpha * min(|S|, |S-bar|)
//   where alpha = n * (min entry of F). Each H edge crossing the cut forces
//   its path across at least one G edge of the cut, so
//       cut_G(S) >= cut_H(S) / c,
//   and min(vol(S), vol(S-bar)) <= Delta * min(|S|, |S-bar|), giving
//       phi(G) >= alpha / (c * Delta)
//   for EVERY cut simultaneously — a certified lower bound, in contrast to
//   the Rayleigh-quotient Cheeger estimate (which approaches lambda2 from
//   above and certifies nothing). The certificate is the recorded matchings
//   with their paths plus (alpha, congestion, dilation): replaying the paths
//   re-derives every number, so a consumer never has to trust the game.
//
// certified_phi() stacks the three tiers for a cluster: exact enumeration at
// <= exact_cap vertices, this game's certified bound above it, and the
// Cheeger estimate when the game is inconclusive — with the verdict kind
// surfaced (metrics.hpp::PhiVerdict) and the game's CONGEST cost charged
// through the returned ledger. One Fiedler pass per cluster feeds the
// estimate, the sweep upper bound and the game's derived target.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/ops.hpp"

namespace mfd::expander {

namespace detail_cm {

/// The matching player's flow network, built once per game: Dinic max flow
/// over one flat arc array. Vertex v owns arcs [off(v), off(v+1)): slot 0 is
/// its terminal arc (to the sink, or the reverse of the source's arc into
/// v), then one arc per neighbour in ascending order. The source's and the
/// sink's arcs follow, in ascending vertex order. That is exactly the arc
/// order an adjacency list gets from adding every terminal arc and then
/// every sorted graph edge, so BFS levels, DFS choices, flows and the path
/// decomposition do not depend on the layout. An undirected graph edge is
/// one arc pair with capacity `cap` both ways, so opposite flows cancel
/// instead of stacking congestion. Each round, reset() rewrites only the
/// terminal arcs and restores the graph arcs' capacities.
class MatchingFlow {
 public:
  struct Arc {
    int to = 0;
    std::int64_t cap = 0;
    std::int64_t cap0 = 0;  // capacity at reset (flow = cap0 - cap if > 0)
    std::int64_t rev = 0;   // flat index of the reverse arc
  };

  MatchingFlow(const Graph& g, std::int64_t cap)
      : n_(g.n()), off_(g.n() + 3), level_(g.n() + 2), it_(g.n() + 2) {
    const std::int64_t vertex_arcs = 2 * g.m() + n_;
    for (int v = 0; v < n_; ++v) off_[v + 1] = off_[v] + 1 + g.degree(v);
    off_[n_ + 1] = vertex_arcs + n_ / 2;  // source: one arc per S vertex
    off_[n_ + 2] = vertex_arcs + n_;      // sink: one per S-bar vertex
    arcs_.resize(static_cast<std::size_t>(off_[n_ + 2]));
    for (int u = 0; u < n_; ++u) {
      std::int64_t a = off_[u] + 1;
      for (int w : g.neighbors(u)) {
        // Vertex w's arcs start after the CSR slots and terminal arcs of
        // every lower vertex, then its own terminal arc.
        arcs_[a] = {w, cap, cap, g.arc_index(w, u) + w + 1};
        ++a;
      }
    }
    queue_.reserve(static_cast<std::size_t>(n_) + 2);
  }

  int source() const { return n_; }
  int sink() const { return n_ + 1; }
  std::int64_t begin(int u) const { return off_[u]; }
  std::int64_t end(int u) const { return off_[u + 1]; }
  const Arc& arc(std::int64_t a) const { return arcs_[a]; }

  /// Unit arcs source -> v for side[v] = 1 and v -> sink otherwise; every
  /// graph arc back at full capacity. `side` must mark exactly n/2 vertices.
  void reset(const std::vector<char>& side) {
    std::int64_t s = off_[source()], t = off_[sink()];
    for (int v = 0; v < n_; ++v) {
      const std::int64_t own = off_[v];
      if (side[v]) {
        arcs_[s] = {v, 1, 1, own};
        arcs_[own] = {source(), 0, 0, s++};
      } else {
        arcs_[own] = {sink(), 1, 1, t};
        arcs_[t++] = {v, 0, 0, own};
      }
      for (std::int64_t a = own + 1; a < off_[v + 1]; ++a) {
        arcs_[a].cap = arcs_[a].cap0;
      }
    }
  }

  std::int64_t max_flow() {
    std::int64_t flow = 0;
    while (bfs()) {
      std::copy(off_.begin(), off_.end() - 1, it_.begin());
      std::int64_t pushed;
      while ((pushed = dfs(source(), INT64_C(1) << 60)) > 0) flow += pushed;
    }
    return flow;
  }

  /// Residual reachability from the source after max_flow — the min-cut
  /// source side.
  std::vector<char> reachable() const {
    std::vector<char> seen(static_cast<std::size_t>(n_) + 2, 0);
    std::vector<int> stack = {source()};
    seen[source()] = 1;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (std::int64_t a = off_[u]; a < off_[u + 1]; ++a) {
        if (arcs_[a].cap > 0 && !seen[arcs_[a].to]) {
          seen[arcs_[a].to] = 1;
          stack.push_back(arcs_[a].to);
        }
      }
    }
    return seen;
  }

 private:
  bool bfs() {
    std::fill(level_.begin(), level_.end(), -1);
    queue_.assign(1, source());
    level_[source()] = 0;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const int u = queue_[head];
      for (std::int64_t a = off_[u]; a < off_[u + 1]; ++a) {
        if (arcs_[a].cap > 0 && level_[arcs_[a].to] < 0) {
          level_[arcs_[a].to] = level_[u] + 1;
          queue_.push_back(arcs_[a].to);
        }
      }
    }
    return level_[sink()] >= 0;
  }

  std::int64_t dfs(int u, std::int64_t limit) {
    if (u == sink()) return limit;
    for (std::int64_t& i = it_[u]; i < off_[u + 1]; ++i) {
      Arc& a = arcs_[i];
      if (a.cap <= 0 || level_[a.to] != level_[u] + 1) continue;
      const std::int64_t pushed = dfs(a.to, std::min(limit, a.cap));
      if (pushed > 0) {
        a.cap -= pushed;
        arcs_[a.rev].cap += pushed;
        return pushed;
      }
    }
    return 0;
  }

  int n_;
  std::vector<std::int64_t> off_;  // node u's arcs: [off_[u], off_[u + 1])
  std::vector<Arc> arcs_;
  std::vector<int> level_;
  std::vector<std::int64_t> it_;
  std::vector<int> queue_;
};

/// splitmix64-derived value in (-1, 1) — same recipe as approx_fiedler so
/// the cut player's projection vector is a pure function of (seed, v).
inline double hash_unit(std::uint64_t seed, int v) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(v) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 * 2.0 - 1.0;
}

/// The doubly-stochastic KRV update on two length-`len` state rows. The
/// probe bank, the blocked replay and the verifier all funnel through this
/// one body so each state entry sees a syntactically identical
/// floating-point op sequence — the root of the bit-identity contract.
inline void average_rows(double* ru, double* rv, int len) {
  for (int j = 0; j < len; ++j) {
    const double avg = 0.5 * (ru[j] + rv[j]);
    ru[j] = rv[j] = avg;
  }
}

/// Column block width for the alpha replay: `block <= 0` derives 64
/// columns, so one buffer row is 512 bytes and a matched pair's averaging
/// touches eight cache lines; fewer when one n * block buffer would pass
/// 8 MiB, and at most n/4 so the game's state stays strictly below a dense
/// n x n matrix at every size. Total replay work is block-size-invariant
/// (the block widths sum to n), so the cap costs nothing serially, and a
/// pool's resident buffers stay cache-sized.
inline int derive_replay_block(int n, int block) {
  if (block <= 0) {
    block = static_cast<int>((std::int64_t{1} << 20) / std::max(n, 1));
    block = std::min({block, 64, (n + 3) / 4});
  }
  return std::max(1, std::min(block, std::max(n, 1)));
}

}  // namespace detail_cm

struct CutMatchingParams {
  double phi_target = 0.0;  // flow capacity = ceil(1/phi_target); 0 derives
                            // max(Cheeger estimate, 1/n) from the input
  int replay_block = 0;     // alpha replay column width B; 0 derives <= 64
};

/// The game's fixed constants, from the Chang–Saranurak construction rather
/// than tuning: the cut player's published seed and probe-bank size k
/// (round-robin), the early stop once n * min entry of F reaches
/// kCutMatchingMixAlpha, and the Fiedler iterations of the one Cheeger probe
/// (certified_phi's estimate, sweep and derived phi_target; a direct game
/// call derives its own). The round cap is 2 * ceil_log2(n)^2.
inline constexpr std::uint64_t kCutMatchingSeed = 0x243f6a8885a308d3ULL;
inline constexpr int kCutMatchingProbes = 8;
inline constexpr double kCutMatchingMixAlpha = 0.5;
inline constexpr int kCertPowerIters = 60;

/// The matching player's target: a positive finite `requested` stands;
/// otherwise the Cheeger estimate is the natural scale ("can the game
/// certify what the spectral heuristic believes?"), floored at 1/n so
/// capacities stay bounded. `cheeger` is only called when it is needed.
template <class Cheeger>
double game_phi_target(double requested, int n, Cheeger cheeger) {
  if (requested > 0.0 && std::isfinite(requested)) return requested;
  return std::max({cheeger(), 1.0 / n, 1e-6});
}

/// One embedded matching edge: `path` walks from u to v through adjacent
/// vertices of the cluster (path.front() == u, path.back() == v).
struct MatchedPair {
  int u = -1, v = -1;
  std::vector<int> path;
};

/// The replayable certificate: the per-round matchings with their embedding
/// paths, plus the three derived numbers a replay must reproduce. The
/// certified bound is phi_lower = alpha / (congestion * max_degree); see the
/// header comment for the proof.
struct CutMatchingCertificate {
  std::vector<std::vector<MatchedPair>> matchings;  // one list per round
  std::int64_t congestion = 0;  // max #paths across any undirected edge
  int dilation = 0;             // max path length in edges
  double alpha = 0.0;           // n * min entry of the replayed mixing matrix
  double phi_lower = 0.0;       // alpha / (congestion * max_degree)
};

namespace detail_cm {

/// The zero proof behind the alpha replay: true when some entry of the
/// mixing matrix after the first `prefix` matchings is exactly 0.0. It
/// replays the matchings on the 0/1 support of identity columns instead of
/// their values: row u of a block holds the support of u's entries as bits,
/// 64 columns per word, and averaging a matched pair ORs the two rows. A
/// clear bit means that entry only ever averaged zeros, so the double replay
/// holds exactly 0.0 there. The proof is sound in that direction with no
/// underflow argument; an entry that underflows to 0.0 is left for the
/// double replay to find. A block of `block` words per row holds 64 * block
/// columns in the n * block * 8 bytes of one double replay buffer; blocks
/// fan out over `pool` and stop once any of them found a zero. Endpoints
/// must be pre-validated in [0, n).
inline bool support_has_zero(
    int n, const std::vector<std::vector<MatchedPair>>& matchings,
    std::size_t prefix, int block, congest::ShardPool* pool) {
  if (n <= 0) return false;
  // Columns per block; int64 because 64 * block may pass INT_MAX.
  const std::int64_t span = 64 * std::int64_t{derive_replay_block(n, block)};
  const int nblocks = static_cast<int>((n + span - 1) / span);
  prefix = std::min(prefix, matchings.size());
  std::atomic<bool> zero{false};
  std::vector<std::vector<std::uint64_t>> bufs(pool ? pool->threads() : 1);
  congest::for_each_task(pool, nblocks, [&](int b, int worker) {
    if (zero.load(std::memory_order_relaxed)) return;
    const int w0 = static_cast<int>(b * span);
    const int bw = static_cast<int>(std::min<std::int64_t>(n, w0 + span) - w0);
    const int words = (bw + 63) / 64;
    std::vector<std::uint64_t>& bits = bufs[worker];
    bits.assign(static_cast<std::size_t>(n) * words, 0);
    for (int j = 0; j < bw; ++j) {
      bits[static_cast<std::size_t>(w0 + j) * words + j / 64] |=
          std::uint64_t{1} << (j % 64);
    }
    for (std::size_t r = 0; r < prefix; ++r) {
      for (const MatchedPair& p : matchings[r]) {
        std::uint64_t* ru = bits.data() + static_cast<std::size_t>(p.u) * words;
        std::uint64_t* rv = bits.data() + static_cast<std::size_t>(p.v) * words;
        for (int k = 0; k < words; ++k) ru[k] = rv[k] = ru[k] | rv[k];
      }
    }
    const std::uint64_t tail =
        bw % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (bw % 64)) - 1;
    for (int u = 0; u < n; ++u) {
      const std::uint64_t* row = bits.data() + static_cast<std::size_t>(u) * words;
      bool full = (row[words - 1] & tail) == tail;
      for (int k = 0; full && k + 1 < words; ++k) full = row[k] == ~std::uint64_t{0};
      if (!full) {
        zero.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  return zero.load();
}

/// Exact min entry of the mixing matrix after the first `prefix` matchings,
/// computed without a resident matrix. Zero is proved first and returned
/// without the double replay: after s vertex-disjoint rounds a column holds
/// at most 2^s non-zeros, so 2^prefix < n forces a zero entry, and
/// support_has_zero settles the rest. Otherwise identity columns are
/// replayed in blocks of `block` basis vectors (O(n * block) memory per
/// buffer, one buffer per pool thread), blocks fanned over `pool` when
/// provided. Entry (u, w) receives the identical averaging sequence whether
/// held in a full matrix or a column block — within a round the pairs are
/// vertex-disjoint, and min over doubles is order-free — so the result is
/// bit-identical to a dense scan for ANY block size and thread count.
/// Endpoints must be pre-validated in [0, n) and every round vertex-disjoint.
inline double replay_min_entry(
    int n, const std::vector<std::vector<MatchedPair>>& matchings,
    std::size_t prefix, int block, congest::ShardPool* pool) {
  if (n <= 0) return 0.0;
  prefix = std::min(prefix, matchings.size());
  if (prefix < 31 && (std::size_t{1} << prefix) < static_cast<std::size_t>(n)) {
    return 0.0;
  }
  if (support_has_zero(n, matchings, prefix, block, pool)) return 0.0;
  block = derive_replay_block(n, block);
  const int nblocks = (n + block - 1) / block;
  std::vector<double> block_min(nblocks, 1.0);
  std::vector<std::vector<double>> bufs(pool ? pool->threads() : 1);
  congest::for_each_task(pool, nblocks, [&](int b, int worker) {
    const int w0 = b * block;
    const int bw = std::min(n, w0 + block) - w0;
    std::vector<double>& col = bufs[worker];
    col.assign(static_cast<std::size_t>(n) * bw, 0.0);
    for (int j = 0; j < bw; ++j) {
      col[static_cast<std::size_t>(w0 + j) * bw + j] = 1.0;
    }
    for (std::size_t r = 0; r < prefix; ++r) {
      for (const MatchedPair& p : matchings[r]) {
        average_rows(col.data() + static_cast<std::size_t>(p.u) * bw,
                     col.data() + static_cast<std::size_t>(p.v) * bw, bw);
      }
    }
    double mn = 1.0;
    for (double e : col) mn = std::min(mn, e);
    block_min[b] = mn;
  });
  double mn = 1.0;
  for (double e : block_min) mn = std::min(mn, e);
  return mn;
}

}  // namespace detail_cm

enum class CutMatchingVerdict {
  kCertified,     // cert holds a positive, replay-verifiable lower bound
  kSparseCut,     // cut_side is a re-checked cut of conductance < phi_target
  kInconclusive,  // no mixing achieved (e.g. n < 2); nothing certified
};

struct CutMatchingOutcome {
  CutMatchingVerdict verdict = CutMatchingVerdict::kInconclusive;
  CutMatchingCertificate cert;
  std::vector<char> cut_side;  // kSparseCut: the witnessed side (1 = in S)
  double cut_phi = 2.0;        // kSparseCut: directly recomputed phi(cut_side)
  int rounds_played = 0;
  double phi_target = 0.0;     // the target the matching player actually used
  int alpha_evals = 0;         // checkpoint evaluations of alpha performed
  // Analytic high-water of the mixing state in bytes: probe bank plus ONE
  // replay block buffer, which the support pass's bitset block also fits
  // (a pool multiplies resident buffers by its thread count, but the
  // reported figure stays thread-invariant so outcomes are bit-comparable).
  std::int64_t state_bytes_peak = 0;
  congest::Runtime ledger;     // CONGEST charges of the whole game
};

/// Replay audit of a certificate against the graph it claims to embed in:
/// every path must walk adjacent vertices between its endpoints, matchings
/// must be vertex-disjoint per round, and congestion / dilation / alpha /
/// phi_lower are recomputed from scratch and compared. `ok` means the
/// recorded bound is sound; recomputed_phi_lower is the replayed value.
struct EmbeddingAudit {
  bool ok = true;
  std::string violation;
  std::int64_t congestion = 0;
  int dilation = 0;
  double alpha = 0.0;
  double recomputed_phi_lower = 0.0;
};

/// The alpha replay takes the game's `replay_block` and pool, zero proof
/// included: any block size / pool gives bit-identical results, the two only
/// trade memory (one n * B buffer per pool thread) for parallelism.
inline EmbeddingAudit verify_cut_matching(const Graph& g,
                                          const CutMatchingCertificate& cert,
                                          int replay_block = 0,
                                          congest::ShardPool* pool = nullptr) {
  EmbeddingAudit audit;
  const auto fail = [&audit](const std::string& why) {
    audit.ok = false;
    if (audit.violation.empty()) audit.violation = why;
  };
  const int n = g.n();
  if (n == 0) {
    fail("empty graph cannot carry a certificate");
    return audit;
  }
  // Structural pass: path validity, per-round disjointness, congestion and
  // dilation recounted on flat per-arc-slot counters (no hashing).
  std::vector<std::int64_t> usage(2 * g.m(), 0);
  std::vector<char> matched(n, 0);
  for (const std::vector<MatchedPair>& round : cert.matchings) {
    std::fill(matched.begin(), matched.end(), 0);
    for (const MatchedPair& p : round) {
      if (p.u < 0 || p.u >= n || p.v < 0 || p.v >= n || p.u == p.v) {
        fail("matched pair endpoints out of range or equal");
        return audit;
      }
      if (matched[p.u] || matched[p.v]) {
        fail("matching not vertex-disjoint within a round");
        return audit;
      }
      matched[p.u] = matched[p.v] = 1;
      if (p.path.empty() || p.path.front() != p.u || p.path.back() != p.v) {
        fail("path does not connect its matched endpoints");
        return audit;
      }
      for (std::size_t i = 0; i + 1 < p.path.size(); ++i) {
        const int a = p.path[i], b = p.path[i + 1];
        if (a < 0 || a >= n || b < 0 || b >= n) {
          fail("path step is not an edge of the graph");
          return audit;
        }
        const std::int64_t slot = g.arc_index(std::min(a, b), std::max(a, b));
        if (slot < 0) {
          fail("path step is not an edge of the graph");
          return audit;
        }
        audit.congestion = std::max(audit.congestion, ++usage[slot]);
      }
      audit.dilation =
          std::max(audit.dilation, static_cast<int>(p.path.size()) - 1);
    }
  }
  // Alpha via the same blocked column replay the game runs — the
  // verifier scales to exactly the certificates the game can now produce.
  audit.alpha =
      static_cast<double>(n) *
      detail_cm::replay_min_entry(n, cert.matchings, cert.matchings.size(),
                                  replay_block, pool);
  const int delta = g.max_degree();
  audit.recomputed_phi_lower =
      (audit.congestion > 0 && delta > 0)
          ? audit.alpha / (static_cast<double>(audit.congestion) * delta)
          : 0.0;
  if (audit.congestion != cert.congestion) fail("recorded congestion mismatch");
  if (audit.dilation != cert.dilation) fail("recorded dilation mismatch");
  if (std::abs(audit.alpha - cert.alpha) > 1e-9) fail("recorded alpha mismatch");
  if (cert.phi_lower > audit.recomputed_phi_lower + 1e-12) {
    fail("recorded phi_lower exceeds the replayed bound");
  }
  return audit;
}

/// Play the deterministic cut-matching game on a CONNECTED graph. Returns
///   * kSparseCut with a re-checked witnessed cut of conductance below
///     phi_target (the residual min cut of a failed matching flow), or
///   * kCertified with a replayable phi lower-bound certificate (the
///     checkpoint prefix maximizing alpha / congestion — later matchings
///     that only add congestion are dropped), or
///   * kInconclusive when no mixing was achieved (n < 2, or partial
///     matchings left some mixing entry at zero for every prefix).
/// The ledger charges the game's CONGEST cost: the cut player's probe
/// exchanges and the checkpoint alpha replays are envelope-billed, the
/// matching embeddings are measured (one message per path edge, peak
/// per-edge path count as congestion). The outcome — certificate, cut,
/// ledger — is bit-identical across block sizes and thread counts; `pool`
/// only fans out the alpha replays.
inline CutMatchingOutcome cut_matching_game(const Graph& g,
                                            CutMatchingParams params = {},
                                            congest::ShardPool* pool = nullptr) {
  CutMatchingOutcome out;
  const int n = g.n();
  if (n < 2 || g.m() == 0) return out;

  const double target = game_phi_target(params.phi_target, n, [&g] {
    return phi_certificate(g, 0, kCertPowerIters).phi;
  });
  out.phi_target = target;
  // Clamped in double first: ceil(1/target) may not fit an int64.
  const std::int64_t cap = static_cast<std::int64_t>(std::min(
      std::ceil(1.0 / target), static_cast<double>(4 * g.m() + 1)));

  const int log_n = congest::ceil_log2(n);
  const int max_rounds = 2 * log_n * log_n;

  const int block = detail_cm::derive_replay_block(n, params.replay_block);
  constexpr int k = kCutMatchingProbes;

  // Probe bank: row v holds (F * proj_j)[v] for the k seeded projections,
  // column-major per vertex so one average_rows call updates every probe of
  // a matched pair. Initialised to the mean-centered projections (F = I).
  std::vector<double> probes(static_cast<std::size_t>(n) * k);
  for (int j = 0; j < k; ++j) {
    double mean = 0.0;
    for (int v = 0; v < n; ++v) {
      mean += detail_cm::hash_unit(kCutMatchingSeed + j, v);
    }
    mean /= n;
    for (int v = 0; v < n; ++v) {
      probes[static_cast<std::size_t>(v) * k + j] =
          detail_cm::hash_unit(kCutMatchingSeed + j, v) - mean;
    }
  }

  out.state_bytes_peak = 8 * static_cast<std::int64_t>(n) * (k + block);

  // Per-edge path counts on canonical (min -> max) CSR arc slots; the
  // running max IS the congestion at every prefix because usage only grows.
  std::vector<std::int64_t> edge_usage(2 * g.m(), 0);
  std::int64_t cong_so_far = 0;
  int dilation_so_far = 0;

  // Checkpoint trail: alpha is evaluated only at prefixes that are powers
  // of two of the appended-matching count (plus the final prefix), with the
  // congestion/dilation snapshot the certificate would pay at that prefix.
  std::vector<std::size_t> ck_prefix;
  std::vector<double> ck_alpha;
  std::vector<std::int64_t> ck_cong;
  std::vector<int> ck_dil;

  std::int64_t cut_player_rounds = 0;
  std::int64_t embed_rounds = 0, embed_messages = 0, embed_peak = 0;

  std::vector<int> order(n);
  std::vector<char> side(n, 0);  // 1 = S (flow sources) this round

  // The matching player's network and the path decomposition's buffers are
  // built once; each round only rewrites them.
  detail_cm::MatchingFlow flow_net(g, cap);
  const int src = flow_net.source(), snk = flow_net.sink();
  std::vector<std::int64_t> arc_flow(flow_net.end(snk));
  std::vector<std::int64_t> round_usage(2 * g.m());
  std::vector<std::int64_t> cursor(n);  // first arc of v with flow left
  std::vector<int> walk;
  std::vector<int> last(n, -1);  // loop erasure: position of v on the path

  // One alpha evaluation at the current prefix. A distributed run replays
  // the prefix's matchings on a scalar (one averaging exchange per matching,
  // routed along its paths) — billed below at that cost.
  const auto alpha_at = [&](std::size_t prefix) -> double {
    ++out.alpha_evals;
    cut_player_rounds +=
        static_cast<std::int64_t>(prefix) * (dilation_so_far + 1);
    return static_cast<double>(n) *
           detail_cm::replay_min_entry(n, out.cert.matchings, prefix, block,
                                       pool);
  };

  for (int round = 0; round < max_rounds; ++round) {
    // --- Cut player: median split of the round-robin probe. The probe bank
    // already holds F * proj exactly, so the split costs a selection instead
    // of an O(n^2) dense F * proj product. The (probe, id) order is total,
    // so the n/2 smallest form one set whatever order the selection leaves
    // them in. A distributed round pays one probe exchange along the latest
    // matching plus a median selection, envelope-billed below.
    const int j = round % k;
    const int half = n / 2;
    std::iota(order.begin(), order.end(), 0);
    std::nth_element(order.begin(), order.begin() + half, order.end(),
                     [&probes, j](int a, int b) {
                       const double pa =
                           probes[static_cast<std::size_t>(a) * k + j];
                       const double pb =
                           probes[static_cast<std::size_t>(b) * k + j];
                       return pa != pb ? pa < pb : a < b;
                     });
    std::fill(side.begin(), side.end(), 0);
    for (int i = 0; i < half; ++i) side[order[i]] = 1;
    cut_player_rounds += (dilation_so_far + 1) + log_n;

    // --- Matching player: route one unit from every S vertex to a distinct
    // S-bar vertex, every graph edge capped at ceil(1/phi_target).
    flow_net.reset(side);
    const std::int64_t flow = flow_net.max_flow();

    if (flow < half) {
      // The matching player is stuck: the residual min cut is a sparse cut
      // of G. Re-check it directly — the witness stands on recomputation,
      // not on flow theory.
      const std::vector<char> reach = flow_net.reachable();
      std::vector<char> cut(n, 0);
      int cut_size = 0;
      for (int v = 0; v < n; ++v) {
        cut[v] = reach[v];
        cut_size += cut[v];
      }
      if (cut_size > 0 && cut_size < n) {
        const double phi = cut_conductance(g, cut);
        if (phi < out.phi_target) {
          out.verdict = CutMatchingVerdict::kSparseCut;
          out.cut_side = std::move(cut);
          out.cut_phi = phi;
          out.rounds_played = round + 1;
          break;
        }
      }
      if (flow == 0) {
        ++out.rounds_played;
        continue;  // nothing matched and no sparse cut: try the next split
      }
    }

    // --- Path decomposition: walk the flow units from each saturated
    // source, erase revisit loops, record the matching with its embedding.
    // Arc flows only go down, so each vertex keeps a cursor at its first
    // arc with flow left, and a walk resumes there instead of rescanning.
    for (std::int64_t a = 0; a < flow_net.end(snk); ++a) {
      const detail_cm::MatchingFlow::Arc& arc = flow_net.arc(a);
      arc_flow[a] = std::max<std::int64_t>(0, arc.cap0 - arc.cap);
    }
    for (int v = 0; v < n; ++v) cursor[v] = flow_net.begin(v);
    std::vector<MatchedPair> matching;
    std::fill(round_usage.begin(), round_usage.end(), 0);
    std::int64_t round_peak = 0;
    int round_dil = 0;
    for (std::int64_t i = flow_net.begin(src); i < flow_net.end(src); ++i) {
      if (arc_flow[i] <= 0) continue;
      arc_flow[i] = 0;
      walk.assign(1, flow_net.arc(i).to);
      while (true) {
        const int u = walk.back();
        bool advanced = false;
        std::int64_t& a = cursor[u];
        for (; a < flow_net.end(u); ++a) {
          if (arc_flow[a] <= 0) continue;
          --arc_flow[a];
          if (flow_net.arc(a).to == snk) break;  // arrived; outer loop re-checks
          walk.push_back(flow_net.arc(a).to);
          advanced = true;
          break;
        }
        if (!advanced) break;  // consumed the sink arc (or flow exhausted)
      }
      // Loop-erase: keep the first visit of every vertex; congestion and
      // dilation are recounted from the final simple path only. `last` is
      // all -1 between units: only the kept path's entries are reset.
      std::vector<int> path;
      for (int v : walk) {
        if (last[v] >= 0) {
          while (static_cast<int>(path.size()) > last[v] + 1) {
            last[path.back()] = -1;
            path.pop_back();
          }
        } else {
          last[v] = static_cast<int>(path.size());
          path.push_back(v);
        }
      }
      for (int v : path) last[v] = -1;
      if (path.size() < 2) continue;  // degenerate unit: skip it
      MatchedPair pair;
      pair.u = path.front();
      pair.v = path.back();
      pair.path = std::move(path);
      for (std::size_t s = 0; s + 1 < pair.path.size(); ++s) {
        const int a = std::min(pair.path[s], pair.path[s + 1]);
        const int b = std::max(pair.path[s], pair.path[s + 1]);
        const std::int64_t slot = g.arc_index(a, b);
        round_peak = std::max(round_peak, ++round_usage[slot]);
        cong_so_far = std::max(cong_so_far, ++edge_usage[slot]);
      }
      round_dil = std::max(round_dil,
                           static_cast<int>(pair.path.size()) - 1);
      embed_messages += static_cast<std::int64_t>(pair.path.size()) - 1;
      matching.push_back(std::move(pair));
    }
    if (matching.empty()) {
      ++out.rounds_played;
      continue;
    }
    // Apply the matching to the probe bank; the mixing matrix itself lives
    // solely in the recorded matchings.
    for (const MatchedPair& pr : matching) {
      detail_cm::average_rows(probes.data() + static_cast<std::size_t>(pr.u) * k,
                              probes.data() + static_cast<std::size_t>(pr.v) * k,
                              k);
    }
    out.cert.matchings.push_back(std::move(matching));
    dilation_so_far = std::max(dilation_so_far, round_dil);
    // The round's flow is routed in O(congestion + dilation) rounds by the
    // classic scheduling bound, plus a matching-announcement aggregation.
    embed_rounds += round_peak + round_dil + log_n;
    embed_peak = std::max(embed_peak, round_peak);
    ++out.rounds_played;

    const std::size_t s = out.cert.matchings.size();
    if ((s & (s - 1)) == 0) {  // geometric checkpoint: 1, 2, 4, 8, ...
      const double a = alpha_at(s);
      ck_prefix.push_back(s);
      ck_alpha.push_back(a);
      ck_cong.push_back(cong_so_far);
      ck_dil.push_back(dilation_so_far);
      if (a >= kCutMatchingMixAlpha) break;
    }
  }

  // The final prefix is always a candidate, whether or not it is a power of
  // two — a run cut short by max_rounds still certifies what it mixed.
  if (out.verdict != CutMatchingVerdict::kSparseCut) {
    const std::size_t s = out.cert.matchings.size();
    if (s > 0 && (ck_prefix.empty() || ck_prefix.back() != s)) {
      const double a = alpha_at(s);
      ck_prefix.push_back(s);
      ck_alpha.push_back(a);
      ck_cong.push_back(cong_so_far);
      ck_dil.push_back(dilation_so_far);
    }
  }

  out.ledger.charge_envelope("cut player: probes + alpha replays",
                             cut_player_rounds, 2 * g.m());
  out.ledger.charge("matching player: flow embeddings", embed_rounds,
                    embed_messages, embed_messages > 0 ? embed_peak : 0);

  if (out.verdict == CutMatchingVerdict::kSparseCut) return out;

  // Best-checkpoint certificate: stop after the prefix maximizing
  // alpha_t / c_t — matchings beyond it added congestion faster than mixing.
  const int delta = g.max_degree();
  int best = -1;
  double best_bound = 0.0;
  for (std::size_t t = 0; t < ck_prefix.size(); ++t) {
    if (ck_cong[t] <= 0 || delta <= 0) continue;
    const double bound =
        ck_alpha[t] / (static_cast<double>(ck_cong[t]) * delta);
    if (bound > best_bound) {
      best_bound = bound;
      best = static_cast<int>(t);
    }
  }
  if (best < 0) return out;  // alpha never left zero: inconclusive
  out.cert.matchings.resize(ck_prefix[best]);
  out.cert.alpha = ck_alpha[best];
  out.cert.congestion = ck_cong[best];
  out.cert.dilation = ck_dil[best];
  out.cert.phi_lower = best_bound;
  out.verdict = CutMatchingVerdict::kCertified;
  return out;
}

// ---------------------------------------------------------------------------
// The three-tier certification entry point.

struct PhiCertParams {
  int exact_cap = kExactPhiCap;  // brute force at or below this many vertices
  CutMatchingParams game;        // the game above exact_cap
};

/// certified_phi skips the game above this size. The game's state is
/// O(n + m + B*n) — no resident matrix — so the cap is a wall-clock bound
/// (each alpha replay is O(#matching-edges * n)), not a memory wall.
inline constexpr int kCutMatchingCap = 65536;

/// What certified_phi reports for one cluster. `cert` is the headline
/// (verdict + value; see PhiVerdict for which verdicts are sound bounds);
/// `estimate` always carries the spectral/exact value the old two-tier
/// phi_certificate would have returned, and `upper` a WITNESSED upper bound
/// (an actual cut: the best Fiedler sweep cut, the game's sparse cut, or the
/// exact minimizer) — so certified lower <= exact <= upper is a checkable
/// bracket. The ledger carries the game's CONGEST charges (empty when no
/// game ran); game_state_bytes the game's mixing-state high-water.
struct PhiReport {
  PhiCertificate cert;
  double estimate = 1.0;
  double upper = 1.0;
  CutMatchingVerdict game_verdict = CutMatchingVerdict::kInconclusive;
  std::int64_t game_state_bytes = 0;
  congest::Runtime ledger;
};

/// Three-tier conductance certification:
///   tier 1 — exact enumeration (n <= exact_cap): verdict kExact;
///   tier 2 — cut-matching game: verdict kCutMatching, phi is the replayed
///            certificate bound (verify_cut_matching runs internally; a
///            certificate that fails its own replay is discarded);
///   tier 3 — Cheeger estimate: verdict kCheeger, phi is NOT a bound.
/// Degenerate inputs resolve in metrics.hpp::phi_probe (kTrivial /
/// kDisconnected) before any tier runs. The probe's one Fiedler vector on
/// the certification core (isolated vertices carry no volume, and the game
/// needs connectivity) gives the estimate, the sweep upper bound and, when
/// params.game.phi_target is unset, the game's target. `pool` fans out the
/// game's and the verifier's alpha replays.
inline PhiReport certified_phi(const Graph& g, PhiCertParams params = {},
                               congest::ShardPool* pool = nullptr) {
  PhiReport report;
  const PhiProbe probe = phi_probe(g, params.exact_cap, kCertPowerIters);
  report.cert = probe.cert;
  report.estimate = report.cert.phi;
  if (report.cert.verdict != PhiVerdict::kCheeger) {
    report.upper = report.cert.phi;  // exact value, or the 1/0 conventions
    return report;
  }
  const Graph& core = probe.core.graph;
  report.upper =
      std::min(1.0, sweep_min_cut(core, probe.fiedler).conductance);
  if (core.n() > kCutMatchingCap) return report;
  CutMatchingParams gp = params.game;
  gp.phi_target = game_phi_target(gp.phi_target, core.n(),
                                  [&report] { return report.estimate; });
  CutMatchingOutcome game = cut_matching_game(core, gp, pool);
  report.game_verdict = game.verdict;
  report.game_state_bytes = game.state_bytes_peak;
  report.ledger.absorb(game.ledger, "cut-matching: ");
  if (game.verdict == CutMatchingVerdict::kSparseCut) {
    report.upper = std::min(report.upper, game.cut_phi);
  } else if (game.verdict == CutMatchingVerdict::kCertified) {
    const EmbeddingAudit audit =
        verify_cut_matching(core, game.cert, gp.replay_block, pool);
    if (audit.ok) {
      report.cert.phi = game.cert.phi_lower;
      report.cert.exact = false;
      report.cert.verdict = PhiVerdict::kCutMatching;
    }
  }
  return report;
}

}  // namespace mfd::expander
