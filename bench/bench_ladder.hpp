// Solver-ladder CLI surface shared by the application benches (E-MDS,
// E-MIS, E-Matching/VC, E-MaxCut): --tw_cap caps the width the treewidth-DP
// tier accepts (0 runs the ladder without it), --threads fans the
// per-cluster solves over a congest::ShardPool. The per-tier cluster
// counts and search-effort counters land in both the tables and the JSON
// metrics so scripts/check_bench_json.py can audit tier coverage offline.
#pragma once

#include <string>

#include "apps/treewidth.hpp"
#include "bench_common.hpp"
#include "congest/runtime.hpp"

namespace mfd::bench {

/// Parse the shared ladder flag and record it as a JSON param.
inline apps::LadderConfig ladder_from_cli(const Cli& cli, BenchJson& json) {
  apps::LadderConfig ladder;
  ladder.tw_cap = static_cast<int>(cli.get_int("tw_cap", ladder.tw_cap));
  json.param("tw_cap", static_cast<std::int64_t>(ladder.tw_cap));
  return ladder;
}

/// Compact per-tier cluster-count cell for the ratio tables:
/// forest / treewidth-DP / branch-and-bound / greedy.
inline std::string tier_cell(const congest::SolverStats& s) {
  return "F" + std::to_string(s.tier_forest) + "/TW" +
         std::to_string(s.tier_tw_dp) + "/BB" + std::to_string(s.tier_bb) +
         "/G" + std::to_string(s.tier_greedy);
}

/// The ladder audit trail as JSON metrics (one representative run per
/// bench): per-tier cluster counts, the DP-width high-water mark, exact
/// search effort, and the summed per-cluster solver wall time.
inline void ladder_metrics(BenchJson& json, const congest::SolverStats& s) {
  json.metric("clusters", s.clusters);
  json.metric("tier_forest", s.tier_forest);
  json.metric("tier_tw_dp", s.tier_tw_dp);
  json.metric("tier_bb", s.tier_bb);
  json.metric("tier_greedy", s.tier_greedy);
  json.metric("max_width_dp", static_cast<std::int64_t>(s.max_width_dp));
  json.metric("bb_runs", s.bb_runs);
  json.metric("bb_nodes", s.bb_nodes);
  json.metric("bb_exact_runs", s.bb_exact_runs);
  json.metric("solve_ms", s.solve_ms);
}

}  // namespace mfd::bench
