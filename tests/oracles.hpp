// Reference implementations the production engines are pinned against.
//
// Each layer in src/ ships one engine; the simpler, slower formulation it
// replaced lives here as a test-only oracle, so every equivalence gate keeps
// comparing two independent code paths:
//
//   * simulate_serial — the token-serial lazy-walk loop of Lemma 2.5: one
//     walk at a time, one MessageMeter. expander::detail::simulate (walks
//     bucketed by vertex, vertices sharded over a pool) must reproduce its
//     SimOutcome bit for bit at every thread count;
//     gather_random_walks_serial wraps it in the published seed search.
//   * dense_mixing_alpha — the resident n x n KRV mixing matrix rebuilt from
//     a certificate's matchings. The cut-matching game never holds that
//     matrix (it replays column blocks); its cert.alpha must equal this
//     dense scan bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "congest/runtime.hpp"
#include "expander/cut_matching.hpp"
#include "expander/rw_routing.hpp"

namespace mfd::oracles {

/// Run every walk for up to `T` rounds under seed `seed`, one walk at a
/// time, metering per-round directed-edge congestion through one
/// congest::MessageMeter (every token move is one O(log n)-bit message over
/// its edge slot). Stops early once the target fraction is in.
inline expander::detail::SimOutcome simulate_serial(
    const expander::detail::Arena& a, std::uint64_t seed, int T,
    double laziness, double target_fraction) {
  expander::detail::SimOutcome out;
  std::vector<int> pos(a.start);
  std::vector<char> active(a.start.size(), 1);
  out.route.assign(a.start.size(), -1);
  std::int64_t delivered_walks = 0;
  const expander::detail::SimTargets targets(a, target_fraction);
  const auto lazy_cut =
      static_cast<std::uint32_t>(laziness * 4294967296.0);
  congest::MessageMeter meter(a.slots);
  for (int t = 1; t <= T; ++t) {
    if (static_cast<double>(delivered_walks) >= targets.walk_target_scaled) {
      break;
    }
    bool any_active = false;
    for (std::size_t w = 0; w < pos.size(); ++w) {
      if (!active[w]) continue;
      any_active = true;
      ++out.steps;
      const std::uint64_t z =
          expander::detail::rw_mix(seed, w, static_cast<std::uint64_t>(t));
      if (static_cast<std::uint32_t>(z >> 32) < lazy_cut) continue;
      const int u = pos[w];
      const int deg = static_cast<int>(a.nbr[u].size());
      if (deg == 0) continue;
      const int j = static_cast<int>((z & 0xffffffffULL) % deg);
      meter.send(a.slot[u][j]);
      pos[w] = a.nbr[u][j];
      if (pos[w] == a.star) {
        active[w] = 0;
        out.route[w] = a.star;
        ++delivered_walks;
      }
    }
    if (!any_active) break;
    ++out.walk_rounds;
    out.rounds += std::max<std::int64_t>(1, meter.round_peak());
    meter.end_round();
  }
  for (std::size_t w = 0; w < pos.size(); ++w) {
    if (out.route[w] < 0) out.route[w] = pos[w];
  }
  out.moves = meter.total_messages();
  out.peak_load = meter.peak_congestion();
  targets.finish(a, delivered_walks, out);
  return out;
}

/// expander::gather_random_walks with every seed simulated by
/// simulate_serial: the same published seed sequence, walk-length doubling
/// and budgets, so its RwResult must equal the production gather's field for
/// field (shard_messages aside — the serial meter has no lanes).
inline expander::RwResult gather_random_walks_serial(
    const expander::ExpanderSplit& sp, int v_star, double f,
    const expander::RwParams& p = {}) {
  namespace ed = expander::detail;
  expander::RwResult out;
  f = std::min(std::max(f, 1e-9), 1.0);
  const int pid = sp.part_of(v_star);
  const double phi = std::min(1.0, std::max(sp.phi_cert[pid], p.phi_floor));
  ed::Arena arena(sp, v_star);
  arena.spawn_walks(p.max_walks_total);
  out.schedule.walks = static_cast<int>(arena.start.size());
  out.schedule.domain_bits = ed::ceil_log2(sp.g.n());
  if (arena.population == 0 || arena.start.empty()) {
    out.delivered_fraction = 1.0;
    return out;
  }
  int T = ed::walk_length(arena, phi, f, p);
  std::int64_t steps_spent = 0;
  ed::SimOutcome best;
  for (int attempt = 1; attempt <= p.max_seed_tries; ++attempt) {
    const std::uint64_t seed = ed::rw_mix(p.base_seed, attempt, 0);
    ed::SimOutcome sim = simulate_serial(arena, seed, T, p.laziness, 1.0 - f);
    steps_spent += sim.steps;
    out.schedule.seed_tries = attempt;
    if (sim.delivered_fraction > best.delivered_fraction || attempt == 1) {
      best = std::move(sim);
      out.schedule.seed = seed;
      out.walk_length = T;
    }
    if (best.delivered_fraction >= 1.0 - f) break;
    if (steps_spent >= p.search_budget) break;
    if (attempt % 2 == 0) {
      const std::int64_t cap = std::max<std::int64_t>(
          1, p.step_budget / static_cast<std::int64_t>(arena.start.size()));
      T = static_cast<int>(std::min<std::int64_t>(2LL * T, cap));
    }
  }
  out.delivered_fraction = best.delivered_fraction;
  out.rounds = best.rounds;
  out.route = std::move(best.route);
  for (int& r : out.route) r = arena.parent[r];
  out.ledger.charge("walk rounds", best.walk_rounds, best.moves, best.peak_load);
  out.ledger.charge("congestion surplus", best.rounds - best.walk_rounds);
  return out;
}

/// n * (min entry of the mixing matrix) after applying `matchings` to the
/// n x n identity, matched rows averaged in recorded order — the quantity a
/// certificate's alpha claims, computed on a resident dense matrix.
inline double dense_mixing_alpha(
    int n, const std::vector<std::vector<expander::MatchedPair>>& matchings) {
  if (n <= 0) return 0.0;
  const std::size_t stride = static_cast<std::size_t>(n);
  std::vector<double> mix(stride * stride, 0.0);
  for (std::size_t v = 0; v < stride; ++v) mix[v * stride + v] = 1.0;
  for (const std::vector<expander::MatchedPair>& round : matchings) {
    for (const expander::MatchedPair& p : round) {
      double* ru = mix.data() + static_cast<std::size_t>(p.u) * stride;
      double* rv = mix.data() + static_cast<std::size_t>(p.v) * stride;
      for (std::size_t j = 0; j < stride; ++j) {
        const double avg = 0.5 * (ru[j] + rv[j]);
        ru[j] = rv[j] = avg;
      }
    }
  }
  double mn = 1.0;
  for (double e : mix) mn = std::min(mn, e);
  return static_cast<double>(n) * mn;
}

}  // namespace mfd::oracles
