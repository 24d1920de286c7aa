// Experiment E-HSTAR — Lemma 4.2.
//
// Claim: the heavy-stars algorithm captures at least 1/(8α) of the total
// edge weight on any cluster graph of arboricity <= α, using O(log* n)
// Cole–Vishkin rounds (Lemma 4.3: marked trees have depth <= 4).
//
// We measure the captured fraction across families and weight regimes: the
// guarantee 1/(8α) is a floor; typical capture is far higher, which is what
// makes the measured pipeline converge in few iterations.
#include "bench_common.hpp"
#include "decomp/heavy_stars.hpp"
#include "graph/metrics.hpp"

int main(int argc, char** argv) {
  using namespace mfd;
  using namespace mfd::bench;
  const Cli cli(argc, argv);
  Rng rng(cli.get_int("seed", 10));
  const int shrink = cli.has("smoke") ? 4 : 1;  // --smoke quarters every n
  BenchJson json(cli, "heavy_stars");
  cli.warn_unrecognized(std::cerr);
  json.param("seed", cli.get_int("seed", 10));
  json.param("smoke", static_cast<std::int64_t>(shrink == 4 ? 1 : 0));

  print_header("E-HSTAR: Lemma 4.2",
               "heavy-stars weight capture >= 1/(8*alpha)");

  Table t({"family", "n", "alpha", "weights", "captured fraction",
           "floor 1/(8a)", "cv rounds", "marked depth (<=4)", "messages",
           "msg/m"});
  struct Case {
    std::string family;
    int n;
    int alpha;
  };
  for (const Case& c : std::vector<Case>{{"tree", 2000, 1},
                                         {"cycle", 2000, 2},
                                         {"outerplanar", 1500, 2},
                                         {"series-parallel", 1500, 2},
                                         {"planar", 2000, 3},
                                         {"grid", 1600, 3},
                                         {"ktree3", 1200, 3}}) {
    const Graph g = make_family(c.family, c.n / shrink, rng);
    for (const bool weighted : {false, true}) {
      std::vector<WeightedEdge> edges;
      for (const auto& [u, v] : g.edges()) {
        const std::int64_t w =
            weighted ? 1 + static_cast<std::int64_t>(rng.next_below(100)) : 1;
        edges.push_back({u, v, w});
      }
      const WeightedGraph cg(g.n(), std::move(edges));
      const decomp::HeavyStarsResult hs = decomp::heavy_stars(cg);
      if (c.family == "grid" && !weighted) {
        json.phases(hs.ledger, 2 * cg.m());
        json.metric("captured_fraction",
                    static_cast<double>(hs.captured_weight) /
                        static_cast<double>(hs.total_weight));
        json.metric("messages", hs.ledger.total_messages());
      }
      t.add_row({c.family, Table::integer(g.n()), Table::integer(c.alpha),
                 weighted ? "random[1,100]" : "unit",
                 Table::num(static_cast<double>(hs.captured_weight) /
                                static_cast<double>(hs.total_weight),
                            3),
                 Table::num(1.0 / (8.0 * c.alpha), 3),
                 Table::integer(hs.cv_rounds),
                 Table::integer(hs.max_marked_depth),
                 Table::integer(hs.ledger.total_messages()),
                 Table::num(static_cast<double>(hs.ledger.total_messages()) /
                                static_cast<double>(std::max<std::int64_t>(
                                    cg.m(), 1)),
                            1)});
    }
  }
  t.print(std::cout);
  std::cout << "\nShape checks: captured fraction clears the 1/(8*alpha) "
               "floor on every row; marked depth never exceeds 4; messages "
               "stay O(m) per run (msg/m bounded by ~2 rounds' worth of "
               "edge traffic).\n";
  json.write();
  return 0;
}
