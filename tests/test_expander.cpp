// Invariants of the expander layer:
//   * expander_split partitions V into connected parts; on wheel/clique
//     expanders the whole graph is certified at or above phi_target, and on a
//     path every non-trivial part still carries a positive certificate;
//   * rw_routing delivers its 1 - f target, respects the walk-length budget,
//     charges congestion through the Ledger, and admits a hand-computable
//     congestion lower bound on a path (every token must cross the sink's
//     edge, one per round per direction);
//   * load balancing converges to 1 - f with token splitting enabled and
//     stalls below target when the Lemma 2.2 splitting fix is disabled;
//   * the whole pipeline is deterministic under a fixed seed (identical route
//     tables, seeds, and round counts), and the walk engine reproduces the
//     token-serial oracle of tests/oracles.hpp bit for bit;
//   * the cut-matching game clamps its edge capacity before the integer
//     cast, so a target whose reciprocal overflows an int64 plays like any
//     other tiny target, and non-finite targets derive like 0 does.
#include <cmath>
#include <limits>
#include <vector>

#include "expander/cut_matching.hpp"
#include "expander/load_balance.hpp"
#include "expander/rw_routing.hpp"
#include "expander/split.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/ops.hpp"
#include "oracles.hpp"
#include "test_main.hpp"
#include "util/table.hpp"

using namespace mfd;
using namespace mfd::expander;

namespace {

void check_split_partition(const ExpanderSplit& sp, const std::string& ctx) {
  CHECK_MSG(decomp::is_valid_partition(sp.g, sp.parts), ctx);
  CHECK_MSG(sp.parts.k == static_cast<int>(sp.members.size()), ctx);
  std::int64_t covered = 0;
  for (int p = 0; p < sp.parts.k; ++p) {
    covered += static_cast<std::int64_t>(sp.members[p].size());
    const InducedSubgraph sub = induced_subgraph(sp.g, sp.members[p]);
    CHECK_MSG(is_connected(sub.graph), ctx + ": part induces disconnected subgraph");
    CHECK_MSG(sp.phi_cert[p] > 0.0 || sub.graph.m() == 0, ctx);
  }
  CHECK_MSG(covered == sp.g.n(), ctx);
}

bool same_certificate(const CutMatchingOutcome& a, const CutMatchingOutcome& b) {
  if (a.verdict != b.verdict || a.rounds_played != b.rounds_played ||
      a.cert.congestion != b.cert.congestion ||
      a.cert.dilation != b.cert.dilation || a.cert.alpha != b.cert.alpha ||
      a.cert.phi_lower != b.cert.phi_lower ||
      a.cert.matchings.size() != b.cert.matchings.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.cert.matchings.size(); ++r) {
    const auto& ra = a.cert.matchings[r];
    const auto& rb = b.cert.matchings[r];
    if (ra.size() != rb.size()) return false;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      if (ra[i].u != rb[i].u || ra[i].v != rb[i].v || ra[i].path != rb[i].path) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

TEST_CASE(split_wheel_certified) {
  Rng rng(7);
  const ExpanderSplit sp = expander_split(add_apex(cycle_graph(32)), rng);
  check_split_partition(sp, "wheel");
  // The wheel is an expander: it must survive as one certified part.
  CHECK(sp.parts.k == 1);
  CHECK_MSG(sp.min_conductance() >= sp.params.phi_target,
            "cert " + Table::num(sp.min_conductance(), 3));
  CHECK(sp.part_volume[0] == 2 * sp.g.m());
}

TEST_CASE(split_clique_certified) {
  Rng rng(7);
  const ExpanderSplit sp = expander_split(complete_graph(12), rng);
  check_split_partition(sp, "clique");
  CHECK(sp.parts.k == 1);
  CHECK(sp.min_conductance() >= sp.params.phi_target);
}

TEST_CASE(split_path_parts_connected) {
  Rng rng(11);
  const ExpanderSplit sp = expander_split(path_graph(64), rng);
  check_split_partition(sp, "path");
  // A long path has conductance ~2/n < phi_target, so it must be split.
  CHECK_MSG(sp.parts.k > 1, "path was not split");
  // Certificates are real conductances of the parts' own sweep cuts: verify
  // against the direct cut computation on one part.
  for (int p = 0; p < sp.parts.k; ++p) {
    CHECK(sp.phi_cert[p] <= 1.0 + 1e-12);
  }
}

TEST_CASE(rw_congestion_path_bound) {
  Rng rng(3);
  // P3 with the sink at one end and phi_target 0 so the whole path is a
  // single routing domain: tokens are deg-many per vertex — one at vertex 2,
  // two at vertex 1, one pre-delivered at the sink. All three active walks
  // must cross the directed edge 1 -> 0 (capacity one token per round), so
  // the measured rounds are at least 3.
  SplitParams p;
  p.phi_target = 0.0;
  const ExpanderSplit sp = expander_split(path_graph(3), rng, p);
  CHECK(sp.parts.k == 1);
  const RwResult r = gather_random_walks(sp, 0, 0.02, RwParams{});
  CHECK_MSG(r.delivered_fraction >= 0.98,
            "delivered " + Table::num(r.delivered_fraction, 3));
  CHECK_MSG(r.rounds >= 3, "rounds " + Table::integer(r.rounds));
  CHECK(r.rounds == r.ledger.total());
  // Every delivered walk's route table entry is the sink.
  int delivered = 0;
  for (int v : r.route) delivered += v == 0 ? 1 : 0;
  CHECK(delivered == static_cast<int>(r.route.size()));
}

TEST_CASE(rw_route_ids_are_graph_vertices) {
  Rng rng(13);
  // Multi-part split with a sink away from vertex 0: route entries must be
  // graph vertex ids inside the sink's part, not part-local arena indices.
  const ExpanderSplit sp = expander_split(path_graph(64), rng);
  CHECK(sp.parts.k > 1);
  const int v_star = 40;
  const int pid = sp.part_of(v_star);
  const RwResult r = gather_random_walks(sp, v_star, 0.5, RwParams{});
  CHECK(!r.route.empty());
  for (int v : r.route) {
    CHECK(v >= 0 && v < sp.g.n());
    CHECK(sp.part_of(v) == pid);
  }
}

TEST_CASE(rw_walk_length_budget) {
  Rng rng(3);
  SplitParams p;
  p.phi_target = 0.0;
  const ExpanderSplit sp = expander_split(path_graph(3), rng, p);
  RwParams rw;
  rw.step_budget = 100;  // 3 walks -> T is capped at floor(100 / 3)
  const RwResult r = gather_random_walks(sp, 0, 0.25, rw);
  CHECK_MSG(r.walk_length <= 33, Table::integer(r.walk_length));
}

TEST_CASE(rw_schedule_deterministic) {
  const auto run = [] {
    Rng rng(19);
    const ExpanderSplit sp = expander_split(add_apex(cycle_graph(20)), rng);
    return gather_random_walks(sp, 20, 0.1, RwParams{});
  };
  const RwResult a = run(), b = run();
  CHECK(a.schedule.seed == b.schedule.seed);
  CHECK(a.schedule.seed_tries == b.schedule.seed_tries);
  CHECK(a.rounds == b.rounds);
  CHECK(a.route == b.route);
  CHECK(a.delivered_fraction == b.delivered_fraction);
  CHECK(a.schedule.schedule_bits() == b.schedule.schedule_bits());
}

TEST_CASE(rw_shared_schedule_common_seed) {
  Rng rng(23);
  std::vector<ExpanderSplit> splits;
  for (int i = 0; i < 3; ++i) {
    splits.push_back(expander_split(add_apex(cycle_graph(16 + 4 * i)), rng));
  }
  std::vector<const ExpanderSplit*> ptrs;
  std::vector<int> stars;
  for (int i = 0; i < 3; ++i) {
    ptrs.push_back(&splits[i]);
    stars.push_back(16 + 4 * i);
  }
  const auto rs = gather_random_walks_shared(ptrs, stars, 0.1, RwParams{});
  CHECK(rs.size() == 3);
  for (const RwResult& r : rs) {
    CHECK(r.schedule.seed == rs[0].schedule.seed);  // Lemma 2.6: one seed
    CHECK_MSG(r.delivered_fraction >= 0.9,
              Table::num(r.delivered_fraction, 3));
  }
}

TEST_CASE(lb_converges_with_token_splitting) {
  Rng rng(5);
  const ExpanderSplit sp = expander_split(add_apex(cycle_graph(24)), rng);
  const LoadBalanceResult r = gather_load_balance(sp, 24, 0.1);
  CHECK_MSG(r.delivered_fraction >= 0.9, Table::num(r.delivered_fraction, 3));
  CHECK(!r.stalled);
  // Wheel spokes start below the deg+1 flow granularity, so convergence
  // requires the Lemma 2.2 token-splitting fix at least once.
  CHECK(r.splits_used >= 1);
  CHECK(r.outer_iterations >= 1);
  CHECK(r.max_load >= 1);
  CHECK(r.rounds >= r.outer_iterations);
}

TEST_CASE(lb_stalls_without_token_splitting) {
  Rng rng(5);
  const ExpanderSplit sp = expander_split(add_apex(cycle_graph(24)), rng);
  LoadBalanceParams p;
  p.max_splits = 0;
  const LoadBalanceResult r = gather_load_balance(sp, 24, 0.1, p);
  CHECK_MSG(r.delivered_fraction < 0.9, Table::num(r.delivered_fraction, 3));
  CHECK(r.stalled);
  CHECK(r.outer_iterations == kLoadBalanceMaxOuter);
}

TEST_CASE(lb_deterministic) {
  const auto run = [] {
    Rng rng(31);
    const ExpanderSplit sp = expander_split(add_apex(cycle_graph(20)), rng);
    return gather_load_balance(sp, 20, 0.05);
  };
  const LoadBalanceResult a = run(), b = run();
  CHECK(a.delivered_fraction == b.delivered_fraction);
  CHECK(a.rounds == b.rounds);
  CHECK(a.outer_iterations == b.outer_iterations);
  CHECK(a.max_load == b.max_load);
}

// The walk engine, run inline (no pool), must be bit-identical to the
// token-serial oracle — same hash stream, same congestion accounting, same
// delivered fraction, routes, and round bill (n <= 4k instances).
TEST_CASE(rw_engine_matches_serial_oracle) {
  for (int cycle_n : {24, 257, 2047}) {
    Rng rng(17);
    const ExpanderSplit sp = expander_split(add_apex(cycle_graph(cycle_n)), rng);
    for (double f : {0.25, 0.05}) {
      const RwResult serial =
          oracles::gather_random_walks_serial(sp, cycle_n, f);
      const RwResult engine = gather_random_walks(sp, cycle_n, f);
      const std::string ctx =
          "n=" + std::to_string(cycle_n) + " f=" + Table::num(f, 2);
      CHECK_MSG(serial.delivered_fraction == engine.delivered_fraction, ctx);
      CHECK_MSG(serial.rounds == engine.rounds, ctx);
      CHECK_MSG(serial.walk_length == engine.walk_length, ctx);
      CHECK_MSG(serial.schedule.seed == engine.schedule.seed, ctx);
      CHECK_MSG(serial.schedule.seed_tries == engine.schedule.seed_tries, ctx);
      CHECK_MSG(serial.route == engine.route, ctx);
      CHECK_MSG(serial.ledger.total() == engine.ledger.total(), ctx);
      CHECK_MSG(serial.ledger.total_messages() ==
                    engine.ledger.total_messages(),
                ctx);
      CHECK_MSG(engine.shard_messages.size() == 1, ctx);
    }
  }
}

TEST_CASE(cut_matching_tiny_target_clamps_capacity) {
  // ceil(1 / 1e-300) does not fit an int64: the capacity must clamp to
  // 4m + 1 in double before the cast, exactly as 1e-18 already does, rather
  // than wrap to a negative capacity that blocks every flow.
  const Graph g = grid_graph(6, 6);
  CutMatchingParams p;
  p.phi_target = 1e-18;
  const CutMatchingOutcome small = cut_matching_game(g, p);
  CHECK(small.verdict == CutMatchingVerdict::kCertified);
  CHECK(small.rounds_played == 16);
  p.phi_target = 1e-300;
  const CutMatchingOutcome tiny = cut_matching_game(g, p);
  CHECK(tiny.phi_target == 1e-300);
  CHECK_MSG(same_certificate(tiny, small), "1e-300 played a different game");

  // NaN and infinity take the derived-target path, like 0.
  p.phi_target = 0.0;
  const CutMatchingOutcome derived = cut_matching_game(g, p);
  for (double target : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
    p.phi_target = target;
    const CutMatchingOutcome out = cut_matching_game(g, p);
    CHECK(out.phi_target == derived.phi_target);
    CHECK(std::isfinite(out.phi_target) && out.phi_target > 0.0);
    CHECK_MSG(same_certificate(out, derived), "non-finite target did not derive");
  }
}
