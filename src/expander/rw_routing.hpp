// Lemmas 2.5 / 2.6 — information gathering by derandomized lazy random walks.
//
// Same task as load_balance.hpp (one token per intra-part edge endpoint must
// reach the sink v*, target fraction 1 - f), but each token performs a lazy
// random walk inside its expander part and is absorbed on hitting v*. All
// walks draw their moves from one published pseudorandom seed via a counter
// hash, so the whole routing is determined by O(1) words of shared
// randomness: that is the Lemma 2.5 derandomization, simulated here as an
// explicit seed search — try seeds from a fixed deterministic sequence until
// one delivers the target fraction (doubling the walk length on alternate
// failures), then publish it. RwSchedule records the accepted seed, how many
// seeds were tried, and the schedule size in bits (shared seed + one walk
// descriptor each). Lemma 2.6 is gather_random_walks_shared: one seed must
// work for every disjoint subgraph simultaneously. Both run one search
// (detail::seed_search); the single gather is its one-domain case.
//
// Round accounting (units: simulated CONGEST rounds) is *measured*, not a
// formula: every walk round costs the worst per-edge congestion of that round
// (edges carry one token per direction per round, extra tokens queue), so
// rounds = sum over rounds of max(1, max directed-edge load). The split
// between ideal walk rounds and queueing surplus is recorded through the
// congest::Runtime substrate, along with the measured message count (edge
// traversals) and peak per-edge congestion.
//
// One engine runs the walks: the per-round loop, walks bucketed by current
// vertex and the vertices sharded across RwParams::pool (inline when no pool
// is lent). The token-serial reference loop lives in tests/oracles.hpp, and
// the equivalence tests pin the engine to it bit for bit at every thread
// count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "decomp/clustering.hpp"
#include "expander/split.hpp"

namespace mfd::expander {

/// The walk's fixed constants: the stay-put probability per round and the
/// published origin of the seed search. The certificate in the length
/// formula is clamped by ExpanderSplit::routing_phi.
inline constexpr double kRwLaziness = 0.5;
inline constexpr std::uint64_t kRwBaseSeed = 0x243F6A8885A308D3ULL;

struct RwParams {
  std::int64_t step_budget = 20'000'000;   // walk-steps per simulated seed
  std::int64_t search_budget = 80'000'000; // walk-steps across the seed search
  std::int64_t max_walks_total = 500'000;  // cap on the simulated population
  int max_seed_tries = 64;
  // Optional lent pool: the walk rounds shard their vertices over it
  // (results are identical for every thread count); nullptr runs inline.
  congest::ShardPool* pool = nullptr;
};

struct RwSchedule {
  std::uint64_t seed = 0;       // the accepted shared seed
  std::int64_t seed_tries = 0;  // seeds examined by the derandomized search
  int walks = 0;
  int domain_bits = 0;  // ceil(log2 n) of the routing domain

  /// Published-schedule size: the shared seed plus one start-vertex
  /// descriptor per walk — the O(k log n) bits of Lemma 2.5.
  std::int64_t schedule_bits() const {
    return 64 + static_cast<std::int64_t>(walks) * domain_bits;
  }
};

struct RwResult {
  double delivered_fraction = 0.0;
  std::int64_t rounds = 0;  // measured: walk rounds + congestion surplus
  RwSchedule schedule;
  // Per-walk final position as a *graph vertex id* (v_star when delivered).
  std::vector<int> route;
  int walk_length = 0;     // rounds of walking simulated for the chosen seed
  congest::Runtime ledger;
  // Per-shard message totals of the accepted seed's merged meter (one per
  // pool thread, summing to the "walk rounds" phase messages) — the merge
  // trail bench_scale publishes for offline re-derivation.
  std::vector<std::int64_t> shard_messages;
};

namespace detail {

inline std::uint64_t rw_mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1) +
                    0xbf58476d1ce4e5b9ULL * (c + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The part-local walking arena: intra-part adjacency with directed slot ids
/// for per-round congestion counting, and the walk population (one walk per
/// intra-part edge endpoint, proportionally subsampled above the cap).
struct Arena {
  std::vector<int> start;                   // start vertex (local id) per walk
  std::vector<std::vector<int>> nbr;        // intra-part neighbors, local ids
  std::vector<std::vector<int>> slot;       // directed slot id per neighbor
  std::vector<int> parent;                  // local id -> graph vertex id
  int star = -1;
  int slots = 0;
  std::int64_t population = 0;  // token population the walks stand in for
  std::int64_t predelivered = 0;  // the sink's own tokens

  Arena(const ExpanderSplit& sp, int v_star) {
    const int pid = sp.part_of(v_star);
    const std::vector<int>& verts = sp.members[pid];
    parent = verts;
    std::vector<int> local(sp.g.n(), -1);
    for (std::size_t i = 0; i < verts.size(); ++i) {
      local[verts[i]] = static_cast<int>(i);
    }
    star = local[v_star];
    const int k = static_cast<int>(verts.size());
    nbr.resize(k);
    slot.resize(k);
    for (int i = 0; i < k; ++i) {
      for (int w : sp.g.neighbors(verts[i])) {
        if (sp.parts.cluster[w] == pid) {
          nbr[i].push_back(local[w]);
          slot[i].push_back(slots++);
        }
      }
    }
    for (int i = 0; i < k; ++i) population += sp.ideg[verts[i]];
    predelivered = sp.ideg[v_star];
  }

  void spawn_walks(std::int64_t cap) {
    start.clear();
    const std::int64_t active = population - predelivered;
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      if (static_cast<int>(i) == star) continue;
      std::int64_t w = static_cast<std::int64_t>(nbr[i].size());
      if (active > cap && cap > 0) w = std::max<std::int64_t>(1, w * cap / active);
      for (std::int64_t j = 0; j < w; ++j) {
        start.push_back(static_cast<int>(i));
      }
    }
  }
};

struct SimOutcome {
  double delivered_fraction = 0.0;
  std::int64_t rounds = 0;
  std::int64_t walk_rounds = 0;
  std::int64_t steps = 0;
  std::int64_t moves = 0;      // edge traversals (messages actually sent)
  std::int64_t peak_load = 0;  // worst per-edge per-round congestion seen
  std::vector<int> route;
  std::vector<std::int64_t> shard_messages;  // per-lane meter totals
};

/// Fixed-point bookkeeping shared by the engine and the serial oracle: the
/// walk-count delivery target, scaled when the population was subsampled.
struct SimTargets {
  double walk_target_scaled = 0.0;
  double scale = 1.0;

  SimTargets(const Arena& a, double target_fraction) {
    const std::int64_t walks = static_cast<std::int64_t>(a.start.size());
    const double walk_target =
        target_fraction * static_cast<double>(a.population) -
        static_cast<double>(a.predelivered);
    if (a.population - a.predelivered != 0) {
      scale = static_cast<double>(walks) /
              static_cast<double>(a.population - a.predelivered);
    }
    walk_target_scaled = walk_target * scale;
  }

  void finish(const Arena& a, std::int64_t delivered_walks,
              SimOutcome& out) const {
    const double delivered_tokens =
        static_cast<double>(a.predelivered) +
        (scale == 0.0 ? 0.0 : static_cast<double>(delivered_walks) / scale);
    out.delivered_fraction =
        a.population == 0
            ? 1.0
            : std::min(1.0,
                       delivered_tokens / static_cast<double>(a.population));
  }
};

/// The walk engine: run every walk for up to `T` rounds under seed `seed`,
/// stopping early once the target fraction is in. The vertices are split
/// into one contiguous shard per pool thread (one shard, run inline, when
/// `pool` is null); each shard owns its vertex slice, the matching
/// ShardedMeter lane (slot ids are assigned in vertex order), and the walks
/// parked there, kept grouped by vertex in a flat CSR layout so each round
/// touches every occupied adjacency row once. A round is two barriers:
/// phase A advances every shard's walks — lazy stays and intra-shard moves
/// land in the shard's own move list, cross-shard moves in a double-buffered
/// outbox — and phase B regroups each shard's moves and inboxes (drained in
/// source-shard order) by vertex with a counting sort. Per-walk moves depend
/// only on (seed, w, t) through the counter hash and per-round counters are
/// order-free sums/maxes, so the SimOutcome is the same for every shard
/// count — and bit-equal to the token-serial oracle in tests/oracles.hpp.
inline SimOutcome simulate(const Arena& a, std::uint64_t seed, int T,
                           double laziness, double target_fraction,
                           congest::ShardPool* pool) {
  SimOutcome out;
  const int k = static_cast<int>(a.nbr.size());
  const int S = pool != nullptr ? pool->threads() : 1;
  const congest::ShardPlan plan(k, S);
  std::vector<int> owner(k, 0);
  for (int s = 0; s < S; ++s) {
    for (int v = plan.begin(s); v < plan.end(s); ++v) owner[v] = s;
  }
  // Slot ids are assigned per source vertex in ascending order (Arena ctor),
  // so shard s owns the contiguous slot slice starting at its first vertex.
  std::vector<std::int64_t> slot_begin(static_cast<std::size_t>(S) + 1, 0);
  {
    std::vector<std::int64_t> pref(static_cast<std::size_t>(k) + 1, 0);
    for (int v = 0; v < k; ++v) {
      pref[v + 1] = pref[v] + static_cast<std::int64_t>(a.nbr[v].size());
    }
    for (int s = 0; s <= S; ++s) {
      slot_begin[static_cast<std::size_t>(s)] = pref[plan.begin(s)];
    }
  }
  congest::ShardedMeter meter(std::move(slot_begin));

  std::vector<int> pos(a.start);
  out.route.assign(a.start.size(), -1);
  const SimTargets targets(a, target_fraction);
  const auto lazy_cut =
      static_cast<std::uint32_t>(laziness * 4294967296.0);
  struct Move {
    int v;
    int w;
  };
  struct alignas(64) Shard {
    std::vector<int> walks;   // parked walks, grouped by vertex
    std::vector<int> off;     // CSR offsets over the shard's vertex slice
    std::vector<Move> moves;  // this round's moves that stay in the shard
    std::int64_t delivered = 0;
    std::int64_t steps = 0;
  };
  std::vector<Shard> shards(static_cast<std::size_t>(S));
  std::vector<std::vector<Move>> outbox(static_cast<std::size_t>(S) * S);
  // Counting sort of shard d's moves (its own list, then its inboxes in
  // source-shard order) into the CSR layout; empties the move lists.
  const auto regroup = [&](int d) {
    Shard& sh = shards[static_cast<std::size_t>(d)];
    const int lo = plan.begin(d);
    sh.off.assign(static_cast<std::size_t>(plan.end(d) - lo) + 1, 0);
    const auto for_each_inbox = [&](const auto& fn) {
      fn(sh.moves);
      for (int s = 0; s < S; ++s) {
        if (s != d) fn(outbox[static_cast<std::size_t>(s) * S + d]);
      }
    };
    for_each_inbox([&](const std::vector<Move>& box) {
      for (const Move& m : box) ++sh.off[m.v - lo + 1];
    });
    for (std::size_t i = 1; i < sh.off.size(); ++i) sh.off[i] += sh.off[i - 1];
    sh.walks.resize(static_cast<std::size_t>(sh.off.back()));
    // Scatter with off[i] as bucket i's cursor, then shift the cursors
    // (now bucket ends) back into bucket starts.
    for_each_inbox([&](std::vector<Move>& box) {
      for (const Move& m : box) sh.walks[sh.off[m.v - lo]++] = m.w;
      box.clear();
    });
    for (std::size_t i = sh.off.size() - 1; i > 0; --i) sh.off[i] = sh.off[i - 1];
    sh.off[0] = 0;
  };
  for (std::size_t w = 0; w < a.start.size(); ++w) {
    const int v = a.start[w];
    shards[static_cast<std::size_t>(owner[v])].moves.push_back(
        {v, static_cast<int>(w)});
  }
  for (int d = 0; d < S; ++d) regroup(d);

  std::int64_t delivered_walks = 0;
  for (int t = 1; t <= T; ++t) {
    if (static_cast<double>(delivered_walks) >= targets.walk_target_scaled) {
      break;
    }
    bool any_active = false;
    for (const Shard& sh : shards) any_active = any_active || !sh.walks.empty();
    if (!any_active) break;
    // Phase A: every shard advances the walks parked in its vertex slice.
    congest::for_each_task(pool, S, [&](int s, int /*worker*/) {
      Shard& sh = shards[static_cast<std::size_t>(s)];
      const int lo = plan.begin(s);
      for (int u = lo; u < plan.end(s); ++u) {
        const int b = sh.off[u - lo], e = sh.off[u - lo + 1];
        if (b == e) continue;
        const int deg = static_cast<int>(a.nbr[u].size());
        const int* nbrs = a.nbr[u].data();
        const int* slots = a.slot[u].data();
        for (int i = b; i < e; ++i) {
          const int w = sh.walks[i];
          ++sh.steps;
          const std::uint64_t z =
              rw_mix(seed, static_cast<std::uint64_t>(w),
                     static_cast<std::uint64_t>(t));
          if (static_cast<std::uint32_t>(z >> 32) < lazy_cut || deg == 0) {
            sh.moves.push_back({u, w});  // lazy stay (or stranded walk)
            continue;
          }
          const int j = static_cast<int>((z & 0xffffffffULL) % deg);
          meter.send(s, slots[j]);
          const int v = nbrs[j];
          pos[w] = v;
          if (v == a.star) {
            out.route[w] = a.star;
            ++sh.delivered;
          } else if (owner[v] == s) {
            sh.moves.push_back({v, w});
          } else {
            outbox[static_cast<std::size_t>(s) * S + owner[v]].push_back({v, w});
          }
        }
      }
    });
    // Phase B: each shard regroups its moves and inboxes by vertex — the
    // double-buffered message exchange.
    congest::for_each_task(pool, S,
                           [&](int d, int /*worker*/) { regroup(d); });
    delivered_walks = 0;
    for (const Shard& sh : shards) delivered_walks += sh.delivered;
    ++out.walk_rounds;
    out.rounds += std::max<std::int64_t>(1, meter.round_peak());
    meter.end_round();
  }
  for (std::size_t w = 0; w < pos.size(); ++w) {
    if (out.route[w] < 0) out.route[w] = pos[w];
  }
  for (const Shard& sh : shards) out.steps += sh.steps;
  out.moves = meter.total_messages();
  out.peak_load = meter.peak_congestion();
  out.shard_messages.resize(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) out.shard_messages[s] = meter.shard_messages(s);
  targets.finish(a, delivered_walks, out);
  return out;
}

inline int walk_length(const Arena& a, double phi, double f,
                       const RwParams& p) {
  const double vol = static_cast<double>(std::max<std::int64_t>(a.population, 2));
  const double deg_star =
      a.star >= 0 ? std::max<double>(1.0, static_cast<double>(a.nbr[a.star].size()))
                  : 1.0;
  const double hitting = vol / deg_star + std::log(vol) / (phi * phi);
  double T = std::ceil(2.0 * hitting * (1.0 + std::log(1.0 / f)));
  const std::int64_t walks = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(a.start.size()));
  T = std::min(T, static_cast<double>(std::max<std::int64_t>(
                      1, p.step_budget / walks)));
  return static_cast<int>(std::max(1.0, T));
}

/// The derandomized seed search behind both gathers: try the published seed
/// sequence until ONE seed delivers the 1 - f target in every routing domain
/// (sps[i], sink stars[i]), or a budget runs out, doubling every domain's
/// walk length (capped by its step budget) after each second failed seed.
/// The kept seed is the one whose worst domain delivered the most. Domains
/// without walks are delivered as they stand; when no domain has any, no
/// seed is tried.
inline std::vector<RwResult> seed_search(
    const std::vector<const ExpanderSplit*>& sps, const std::vector<int>& stars,
    double f, const RwParams& p) {
  f = std::min(std::max(f, 1e-9), 1.0);
  const std::size_t k = sps.size();
  std::vector<RwResult> results(k);
  std::vector<Arena> arenas;
  arenas.reserve(k);
  std::vector<std::size_t> walking;  // domains with walks to simulate
  std::vector<int> T(k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    arenas.emplace_back(*sps[i], stars[i]);
    Arena& a = arenas.back();
    a.spawn_walks(p.max_walks_total);
    results[i].schedule.walks = static_cast<int>(a.start.size());
    results[i].schedule.domain_bits = congest::ceil_log2(sps[i]->g.n());
    results[i].delivered_fraction = 1.0;
    if (a.population == 0 || a.start.empty()) continue;
    walking.push_back(i);
    T[i] = walk_length(a, sps[i]->routing_phi(sps[i]->part_of(stars[i])), f, p);
  }
  if (walking.empty()) return results;

  std::vector<SimOutcome> best(k), sims(k);
  std::vector<int> best_T = T;
  std::uint64_t best_seed = 0;
  std::int64_t tries = 0, steps_spent = 0;
  double best_min_fraction = -1.0;
  for (int attempt = 1; attempt <= p.max_seed_tries; ++attempt) {
    const std::uint64_t seed = rw_mix(kRwBaseSeed, attempt, 0);
    double min_fraction = 1.0;
    for (std::size_t i : walking) {
      sims[i] = simulate(arenas[i], seed, T[i], kRwLaziness, 1.0 - f, p.pool);
      steps_spent += sims[i].steps;
      min_fraction = std::min(min_fraction, sims[i].delivered_fraction);
    }
    tries = attempt;
    if (min_fraction > best_min_fraction) {
      best_min_fraction = min_fraction;
      best.swap(sims);
      best_seed = seed;
      best_T = T;
    }
    if (best_min_fraction >= 1.0 - f || steps_spent >= p.search_budget) break;
    if (attempt % 2 == 0) {
      for (std::size_t i : walking) {
        const std::int64_t cap = std::max<std::int64_t>(
            1, p.step_budget /
                   static_cast<std::int64_t>(arenas[i].start.size()));
        T[i] = static_cast<int>(std::min<std::int64_t>(2LL * T[i], cap));
      }
    }
  }

  for (RwResult& r : results) {
    r.schedule.seed = best_seed;
    r.schedule.seed_tries = tries;
  }
  for (std::size_t i : walking) {
    RwResult& r = results[i];
    SimOutcome& b = best[i];
    r.delivered_fraction = b.delivered_fraction;
    r.rounds = b.rounds;
    r.route = std::move(b.route);
    for (int& v : r.route) v = arenas[i].parent[v];  // local -> vertex ids
    r.walk_length = best_T[i];
    r.shard_messages = std::move(b.shard_messages);
    r.ledger.charge("walk rounds", b.walk_rounds, b.moves, b.peak_load);
    r.ledger.charge("congestion surplus", b.rounds - b.walk_rounds);
  }
  return results;
}

}  // namespace detail

/// Lemma 2.5: gather toward v_star inside its part under one published seed.
inline RwResult gather_random_walks(const ExpanderSplit& sp, int v_star,
                                    double f, RwParams p = {}) {
  return detail::seed_search({&sp}, {v_star}, f, p).front();
}

/// Lemma 2.6: one published seed must serve several disjoint routing domains
/// at once. Returns the per-subgraph results, all carrying the same accepted
/// seed.
inline std::vector<RwResult> gather_random_walks_shared(
    const std::vector<const ExpanderSplit*>& sps, const std::vector<int>& stars,
    double f, RwParams p = {}) {
  return detail::seed_search(sps, stars, f, p);
}

}  // namespace mfd::expander
