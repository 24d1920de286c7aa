// Experiment E-MATCHVC — Corollary 6.4.
//
// Claims: (1-ε)-approximate maximum matching and (1+ε)-approximate minimum
// vertex cover in O(log* n / ε²) + O(log⁶(1/ε)/ε¹⁰) rounds, via Solomon's
// bounded-degree sparsifiers + the decomposition.
#include "bench_common.hpp"
#include "apps/approx.hpp"
#include "apps/blossom.hpp"
#include "apps/exact.hpp"
#include "bench_ladder.hpp"
#include "congest/shard.hpp"

int main(int argc, char** argv) {
  using namespace mfd;
  using namespace mfd::bench;
  const Cli cli(argc, argv);
  Rng rng(cli.get_int("seed", 8));
  const bool smoke = cli.has("smoke");  // trimmed instances for ctest/CI
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  BenchJson json(cli, "matching_vc");
  const apps::LadderConfig ladder = ladder_from_cli(cli, json);
  cli.warn_unrecognized(std::cerr);
  json.param("seed", cli.get_int("seed", 8));
  json.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));
  json.param("threads", static_cast<std::int64_t>(threads));
  congest::ShardPool pool(threads);

  print_header("E-MATCHVC: Corollary 6.4",
               "(1-eps) maximum matching and (1+eps) minimum vertex cover");

  struct Inst {
    std::string name;
    Graph g;
    int alpha;
  };
  const int np = smoke ? 60 : 100, no = smoke ? 100 : 160,
            side = smoke ? 10 : 14;
  std::vector<Inst> instances;
  instances.push_back({"planar(" + std::to_string(np) + ")",
                       random_maximal_planar(np, rng), 3});
  instances.push_back({"outerplanar(" + std::to_string(no) + ")",
                       random_maximal_outerplanar(no, rng), 2});
  instances.push_back({"grid(" + std::to_string(side * side) + ")",
                       grid_graph(side, side), 3});

  std::cout << "-- maximum matching\n";
  Table tm({"instance", "eps", "|M|", "OPT", "ratio", "1-eps", "rounds"});
  for (const Inst& inst : instances) {
    const auto opt = apps::max_matching_edges(inst.g);
    for (double eps : {0.4, 0.25}) {
      const apps::MatchingSolution sol =
          apps::approx_max_matching(inst.g, eps, inst.alpha, &pool);
      if (inst.name.rfind("grid", 0) == 0 && eps == 0.25) {
        json.phases(sol.stats.runtime, 2 * inst.g.m());
        json.metric("eps", eps);
        json.metric("matching_ratio", static_cast<double>(sol.edges.size()) /
                                          static_cast<double>(opt.size()));
      }
      tm.add_row({inst.name, Table::num(eps, 2),
                  Table::integer(static_cast<long long>(sol.edges.size())),
                  Table::integer(static_cast<long long>(opt.size())),
                  Table::num(static_cast<double>(sol.edges.size()) /
                                 static_cast<double>(opt.size()),
                             3),
                  Table::num(1 - eps, 2),
                  Table::integer(sol.stats.total_rounds)});
    }
  }
  tm.print(std::cout);

  std::cout << "\n-- minimum vertex cover\n";
  Table tv({"instance", "eps", "|C|", "OPT", "ratio", "1+eps", "rounds",
            "tiers"});
  for (const Inst& inst : instances) {
    const apps::MisResult opt = apps::min_vertex_cover(inst.g);
    for (double eps : {0.4, 0.25}) {
      const apps::SetSolution sol = apps::approx_min_vertex_cover(
          inst.g, eps, inst.alpha, &pool, ladder);
      // Outerplanar is the ladder's showcase family here: width <= 2 always
      // certifies, so every non-forest cluster must land in the DP tier
      // (the schema checker gates tier_tw_dp >= 1 on this trail).
      if (inst.name.rfind("outerplanar", 0) == 0 && eps == 0.25) {
        json.metric("vc_ratio", static_cast<double>(sol.vertices.size()) /
                                    static_cast<double>(opt.set.size()));
        ladder_metrics(json, sol.stats);
      }
      // Grid clusters are bipartite, so the König rung solves every one
      // exactly: the schema checker fails this row on any cluster that
      // falls back to the budgeted search or the greedy tier.
      if (inst.name.rfind("grid", 0) == 0 && eps == 0.25) {
        json.metric("grid_tier_greedy", sol.stats.tier_greedy);
        json.metric("grid_bb_runs", sol.stats.bb_runs);
      }
      tv.add_row({inst.name, Table::num(eps, 2),
                  Table::integer(static_cast<long long>(sol.vertices.size())),
                  Table::integer(static_cast<long long>(opt.set.size())),
                  Table::num(static_cast<double>(sol.vertices.size()) /
                                 static_cast<double>(opt.set.size()),
                             3),
                  Table::num(1 + eps, 2),
                  Table::integer(sol.stats.total_rounds),
                  tier_cell(sol.stats)});
    }
  }
  tv.print(std::cout);
  std::cout << "\nShape checks: matching ratio >= 1-eps; cover ratio <= "
               "1+eps.\n";
  json.write();
  return 0;
}
