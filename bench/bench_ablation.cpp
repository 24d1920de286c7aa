// Experiment E-ABL — ablations of the design choices DESIGN.md calls out.
//
//  (a) token splitting (the Lemma 2.2 fix for the small-remainder regime):
//      off => the load-balancing gather needs more outer iterations / stalls;
//  (b) light-link removal (Step 3 of Lemma 5.3): threshold 0 admits weak
//      merges (conductance/routability suffers); huge threshold blocks
//      merging (the decomposition stalls above its ε target);
//  (c) seed-search width for the derandomized walks (Lemma 2.5): width 1 is
//      "pick the first seed" — delivery may fall short of 1 - f;
//  (d) gather engine: small-direct vs load-balance vs random-walk on the
//      same cluster.
#include "bench_common.hpp"
#include "decomp/cs22_baseline.hpp"
#include "decomp/edt.hpp"
#include "decomp/ldd_chop.hpp"
#include "expander/load_balance.hpp"
#include "expander/rw_routing.hpp"
#include "expander/split.hpp"
#include "graph/ops.hpp"

int main(int argc, char** argv) {
  using namespace mfd;
  using namespace mfd::bench;
  using namespace mfd::expander;
  const Cli cli(argc, argv);
  Rng rng(cli.get_int("seed", 11));
  const bool smoke = cli.has("smoke");  // trimmed instances for ctest/CI
  // --n caps every instance size; the defaults sit far below the tier-1
  // smoke value (4096), so the cap only bites when set small.
  const int ncap = static_cast<int>(cli.get_int("n", 1 << 20));
  BenchJson json(cli, "ablation");
  cli.warn_unrecognized(std::cerr);
  json.param("seed", cli.get_int("seed", 11));
  json.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  print_header("E-ABL: ablations", "design-choice ablations (DESIGN.md §3)");

  std::cout << "-- (a) token splitting in Lemma 2.2\n";
  {
    const int ka = std::min(40, std::max(3, ncap - 1));
    const Graph g = add_apex(cycle_graph(ka));
    const ExpanderSplit sp = expander_split(g, rng);
    Table t({"token splitting", "delivered", "rounds", "outer iterations"});
    for (const bool splitting : {true, false}) {
      LoadBalanceParams p;
      if (!splitting) p.max_splits = 0;
      const LoadBalanceResult r = gather_load_balance(sp, ka, 0.05, p);
      t.add_row({splitting ? "on" : "off", Table::num(r.delivered_fraction, 3),
                 Table::integer(r.rounds), Table::integer(r.outer_iterations)});
    }
    t.print(std::cout);
  }

  std::cout << "\n-- (b) light-link removal threshold (Lemma 5.3 Step 3)\n";
  {
    // Composite minor-free instance: a long path glued to a narrow ladder
    // grid. Chopping then produces both unit-weight links (path side) and
    // rows-weight links (ladder side), so the filter threshold has link
    // weights on both sides of it to grade. (Random planar triangulations
    // have O(log n) diameter — below the band width, EDT would never chop —
    // and pure near-trees only yield unit-weight links no threshold can
    // separate.)
    const int rows = 6;
    const int cols = std::min(smoke ? 50 : 100, std::max(12, ncap / (2 * rows)));
    const int plen = std::min(smoke ? 150 : 300, std::max(12, ncap / 2));
    std::vector<std::pair<int, int>> glue_edges;
    for (int v = 0; v + 1 < plen; ++v) glue_edges.emplace_back(v, v + 1);
    const Graph ladder = grid_graph(rows, cols);
    for (const auto& [u, v] : ladder.edges()) {
      glue_edges.emplace_back(plen + u, plen + v);
    }
    glue_edges.emplace_back(plen - 1, plen);
    const Graph g = Graph::from_edges(plen + ladder.n(), std::move(glue_edges));
    Table t({"filter constant c (thr = eps/(c*alpha))", "eps measured",
             "iterations", "T", "construction rounds"});
    for (double c : {8.0, 32.0, 512.0}) {
      // The light-link filter is Step 3 of the chop route; the heavy-stars
      // engine merges as it contracts and never consults it.
      const decomp::EdtDecomposition edt = decomp::ldd_global_chop(g, 0.25, c);
      t.add_row({Table::num(c, 0), Table::num(edt.quality.eps_fraction, 3),
                 Table::integer(edt.iterations), Table::integer(edt.T_measured),
                 Table::integer(edt.ledger.total())});
    }
    t.print(std::cout);
  }

  std::cout << "\n-- (c) seed-search width (Lemma 2.5 derandomization)\n";
  {
    const int kc = std::min(36, std::max(3, ncap - 1));
    const Graph g = add_apex(cycle_graph(kc));
    const ExpanderSplit sp = expander_split(g, rng);
    Table t({"max seed tries", "delivered", "tries used"});
    for (int w : {1, 4, 48}) {
      RwParams p;
      p.max_seed_tries = w;
      // Pin the walk length to the marginal regime (the step budget caps T at
      // ~13 rounds for the wheel's 108 walks): with ample T every seed
      // delivers and the search width is invisible.
      p.step_budget = 1500;
      const RwResult r = gather_random_walks(sp, kc, 0.05, p);
      t.add_row({Table::integer(w), Table::num(r.delivered_fraction, 3),
                 Table::integer(r.schedule.seed_tries)});
    }
    t.print(std::cout);
  }

  std::cout << "\n-- (d) gather engine on the same cluster\n";
  {
    const Graph g = complete_graph(std::min(16, std::max(4, ncap)));
    const ExpanderSplit sp = expander_split(g, rng);
    Table t({"engine", "delivered", "rounds"});
    {
      // Direct pipelined convergecast: depth + #messages.
      t.add_row({"small-direct", "1.000",
                 Table::integer(1 + 2 * g.m())});
    }
    {
      const LoadBalanceResult r =
          gather_load_balance(sp, 0, 0.1, LoadBalanceParams{});
      t.add_row({"load-balance", Table::num(r.delivered_fraction, 3),
                 Table::integer(r.rounds)});
    }
    {
      const RwResult r = gather_random_walks(sp, 0, 0.1, RwParams{});
      t.add_row({"random-walk", Table::num(r.delivered_fraction, 3),
                 Table::integer(r.rounds)});
    }
    t.print(std::cout);
  }

  std::cout << "\n-- (e) decomposition route: bottom-up (Thm 1.1) vs "
               "top-down (CS22-style)\n";
  {
    int side = smoke ? 16 : 32;
    while (side > 4 && side * side > ncap) --side;
    const Graph g = grid_graph(side, side);
    Table t({"route", "eps", "eps measured", "max diameter", "clusters",
             "T measured", "construction"});
    for (double eps : {0.4, 0.25}) {
      {
        const decomp::EdtDecomposition edt =
            decomp::build_edt_decomposition(g, eps);
        if (eps == 0.25) {
          json.phases(edt.ledger, 2 * g.m());
          json.metric("eps_measured", edt.quality.eps_fraction);
        }
        t.add_row({"bottom-up (ours, local)", Table::num(eps, 2),
                   Table::num(edt.quality.eps_fraction, 3),
                   Table::integer(edt.quality.max_diameter),
                   Table::integer(edt.clustering.k),
                   Table::integer(edt.T_measured),
                   Table::integer(edt.ledger.total()) + " rounds"});
      }
      {
        const decomp::EdtDecomposition edt = decomp::ldd_global_chop(g, eps);
        t.add_row({"bottom-up (global-BFS chop)", Table::num(eps, 2),
                   Table::num(edt.quality.eps_fraction, 3),
                   Table::integer(edt.quality.max_diameter),
                   Table::integer(edt.clustering.k),
                   Table::integer(edt.T_measured),
                   Table::integer(edt.ledger.total()) + " rounds"});
      }
      {
        const decomp::Cs22Result cs =
            decomp::cs22_decompose_and_route(g, eps, rng);
        t.add_row({"top-down (CS22)", Table::num(eps, 2),
                   Table::num(cs.quality.eps_fraction, 3),
                   Table::integer(cs.quality.max_diameter),
                   Table::integer(cs.clustering.k),
                   Table::integer(cs.T_measured),
                   "centralized (paper: poly(1/e, log n) rand.)"});
      }
    }
    t.print(std::cout);
    std::cout << "   Theorem 1.1's whole point: the bottom-up route caps the "
                 "cluster diameter at O(1/eps)\n   while top-down expander "
                 "clusters carry the log-factor diameter.\n";
  }
  json.write();
  return 0;
}
