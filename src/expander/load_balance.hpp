// Lemma 2.2 — information gathering by load balancing (token diffusion).
//
// Routing domain: the expander part containing the sink v*. Every vertex
// starts with one token per incident intra-part edge (so the token population
// is the part volume ~ 2|E|, the regime the paper's bounds are stated in) and
// the sink must collect a (1 - f) fraction of them.
//
// Mechanics are the uniform-spreading diffusion dual to the lazy random walk:
// each round every non-sink vertex pushes floor(load / (deg+1)) mass — capped
// at one token per edge per round — to each intra-part neighbor, and mass
// arriving at v* counts as delivered. Integer flows floor to zero once the
// per-vertex remainder drops below deg+1 tokens; that is the small-remainder
// regime Lemma 2.2 fixes by *token splitting*: when a whole block of rounds
// makes no progress, every token is split in two (all masses double, the
// delivery target scales with them) so the diffusion regains granularity.
// LoadBalanceParams::max_splits = 0 disables the fix — the ablation bench
// shows the gather then stalls below its target.
//
// Round accounting (LoadBalanceResult::rounds, units: simulated CONGEST
// rounds) follows the repo's Ledger convention of charging the *schedule* the
// oblivious algorithm commits to, not the adaptive simulation length: the
// Lemma 2.2 bound O(phi^-2 (|E|/deg v*) log|E| log^2 f^-1) evaluated with
// unit constants on the measured part parameters, plus any simulated rounds
// beyond it. A run that stalls reports the full outer budget — the
// distributed algorithm has no cheap way to detect global non-progress.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "decomp/clustering.hpp"
#include "expander/split.hpp"

namespace mfd::expander {

struct LoadBalanceParams {
  int max_splits = 20;  // token-splitting doublings; 0 disables the fix
};

/// The outer budget in blocks (one block = ~1/phi diffusion rounds), which a
/// stalled run reports as its outer_iterations.
inline constexpr int kLoadBalanceMaxOuter = 200;

struct LoadBalanceResult {
  double delivered_fraction = 0.0;
  std::int64_t rounds = 0;   // charged schedule rounds (see header comment)
  int outer_iterations = 0;  // diffusion blocks executed (budget if stalled)
  std::int64_t max_load = 0; // peak per-vertex load, in whole-token units
  int splits_used = 0;
  bool stalled = false;
  congest::Runtime ledger;
};

inline LoadBalanceResult gather_load_balance(const ExpanderSplit& sp,
                                             int v_star, double f,
                                             LoadBalanceParams p = {}) {
  // kRoundCap is the simulation's safety cap.
  constexpr std::int64_t kRoundCap = 200000;
  LoadBalanceResult out;
  const int pid = sp.part_of(v_star);
  const std::vector<int>& verts = sp.members[pid];
  const double phi = sp.routing_phi(pid);
  f = std::min(std::max(f, 1e-9), 1.0);

  // Local state: one slot per part vertex; v* mass counts as delivered.
  std::vector<int> local(sp.g.n(), -1);
  for (std::size_t i = 0; i < verts.size(); ++i) {
    local[verts[i]] = static_cast<int>(i);
  }
  const int k = static_cast<int>(verts.size());
  const int star = local[v_star];
  std::vector<std::int64_t> load(k, 0), inbox(k, 0);
  std::int64_t unit = 1;  // mass units per original token (doubles on split)
  std::int64_t total = 0, delivered = 0;
  for (int i = 0; i < k; ++i) {
    const std::int64_t tokens = sp.ideg[verts[i]];
    total += tokens;
    if (i == star) {
      delivered = tokens;  // the sink's own tokens are delivered at round 0
    } else {
      load[i] = tokens;
    }
  }
  if (total == 0) {
    out.delivered_fraction = 1.0;
    out.outer_iterations = 0;
    return out;
  }

  const int block_rounds = std::max(4, static_cast<int>(std::ceil(1.0 / phi)));
  std::int64_t sim_rounds = 0, messages = 0;
  bool done = false;
  while (!done && out.outer_iterations < kLoadBalanceMaxOuter &&
         sim_rounds < kRoundCap) {
    ++out.outer_iterations;
    std::int64_t moved_in_block = 0;
    for (int r = 0; r < block_rounds && !done; ++r) {
      ++sim_rounds;
      std::fill(inbox.begin(), inbox.end(), 0);
      for (int i = 0; i < k; ++i) {
        if (i == star || load[i] == 0) continue;
        // Peak load in whole tokens at observation time (unit grows later).
        out.max_load = std::max(out.max_load, (load[i] + unit - 1) / unit);
        const int v = verts[i];
        const int deg = sp.ideg[v];
        if (deg == 0) continue;
        // Uniform spread, one-token-per-edge-per-round capacity.
        const std::int64_t q = std::min(load[i] / (deg + 1), unit);
        if (q == 0) continue;
        for (int w : sp.g.neighbors(v)) {
          const int j = local[w];
          if (j < 0 || sp.parts.cluster[w] != pid) continue;
          inbox[j] += q;
          load[i] -= q;
          moved_in_block += q;
          ++messages;
        }
      }
      for (int i = 0; i < k; ++i) {
        if (i == star) {
          delivered += inbox[i];
        } else {
          load[i] += inbox[i];
        }
      }
      if (static_cast<double>(delivered) >=
          (1.0 - f) * static_cast<double>(total)) {
        done = true;
      }
    }
    if (!done && moved_in_block == 0) {
      if (out.splits_used < p.max_splits) {
        // Token splitting: double every mass (and the target with it).
        for (std::int64_t& x : load) x *= 2;
        delivered *= 2;
        total *= 2;
        unit *= 2;
        ++out.splits_used;
      } else {
        // Frozen integer state: the oblivious algorithm would burn the rest
        // of its round budget without progress.
        out.stalled = true;
        out.outer_iterations = kLoadBalanceMaxOuter;
        break;
      }
    }
  }

  out.delivered_fraction =
      static_cast<double>(delivered) / static_cast<double>(total);

  const double edges = static_cast<double>(sp.part_volume[pid]) / 2.0;
  const double deg_star = std::max(1, sp.ideg[v_star]);
  const double log_f = 1.0 + std::log(1.0 / f);
  const std::int64_t schedule = static_cast<std::int64_t>(std::ceil(
      (1.0 / (phi * phi)) * std::max(edges, 1.0) / deg_star *
      std::log(edges + 2.0) * log_f * log_f));
  // Diffusion caps flows at one token per edge per round, so the measured
  // peak congestion is 1 by construction; messages counts the actual sends.
  out.ledger.charge("lemma 2.2 schedule", schedule, messages, 1);
  if (sim_rounds > schedule) {
    out.ledger.charge("extra simulated rounds", sim_rounds - schedule);
  }
  out.rounds = out.ledger.total();
  return out;
}

}  // namespace mfd::expander
