// Experiment E-RSERVE — the compact-routing query-serving tier under load.
//
// bench_compact_routing measures table *construction* plus a stretch sample;
// this bench measures the tables being *used*: it preloads the flattened
// two-level interval-tree tables (apps::FlatRoutingTables) for the grid,
// torus and planar families, fires millions of (s, t) full-path queries
// under uniform and zipf source/target mixes — cold (first pass over fresh
// tables) and warm (repeat passes) — and reports queries/sec, p50/p99
// per-lookup latency, the stretch distribution and table bytes/vertex.
//
// Contracts enforced in-binary (the run exits nonzero on violation):
//   * equivalence gate — on every family, sampled flat routes must be
//     bit-identical (hops AND visited-vertex sequence) to the pointer-walk
//     oracle oracles::pointer_route_hops (tests/oracles.hpp);
//   * Runtime::audit() on the construction ledger (the tables served here
//     are built by the audited EDT pipeline);
//   * multi-thread serving reuses the single-thread measurement when the
//     host has one hardware thread (same engine configuration — reported
//     honestly, like bench_scale's few-core speedup note).
#include <chrono>
#include <numeric>

#include "apps/compact_routing.hpp"
#include "bench_common.hpp"
#include "congest/shard.hpp"
#include "decomp/edt.hpp"
#include "oracles.hpp"

namespace {

using namespace mfd;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`reps` throughput of one serve pass (higher is the honest
/// steady-state figure; the first pass is reported separately as cold).
double measure_qps(const apps::FlatRoutingTables& t,
                   const std::vector<std::pair<int, int>>& queries,
                   std::vector<int>& out, congest::ShardPool* pool,
                   int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    apps::serve_route_queries(t, queries, out, pool);
    const double sec = seconds_since(t0);
    if (sec > 0.0) {
      best = std::max(best, static_cast<double>(queries.size()) / sec);
    }
  }
  return best;
}

std::vector<std::pair<int, int>> uniform_queries(int n, std::int64_t count,
                                                 Rng& rng) {
  std::vector<std::pair<int, int>> q;
  q.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    q.emplace_back(static_cast<int>(rng.next_below(n)),
                   static_cast<int>(rng.next_below(n)));
  }
  return q;
}

/// Zipf mix: ranks drawn from Zipf(s) on both endpoints, mapped through a
/// seeded permutation so the hot set is scattered across the id space (and
/// hence across clusters) instead of clustered at low ids.
std::vector<std::pair<int, int>> zipf_queries(int n, std::int64_t count,
                                              double s, Rng& rng) {
  const ZipfSampler zipf(n, s);
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<std::pair<int, int>> q;
  q.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    q.emplace_back(perm[static_cast<std::size_t>(zipf.sample(rng))],
                   perm[static_cast<std::size_t>(zipf.sample(rng))]);
  }
  return q;
}

void print_log2_histogram(const Log2Histogram& h, const char* title,
                          const char* unit) {
  std::cout << "   " << title << " (log2 buckets, " << unit << "):";
  const int top = h.max_nonempty();
  for (int b = 0; b <= top; ++b) {
    if (h.count(b) == 0) continue;
    std::cout << "  [" << Table::num(Log2Histogram::bucket_lo(b), 0) << ","
              << Table::num(Log2Histogram::bucket_hi(b), 0) << ")=" << h.count(b);
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfd;
  using namespace mfd::bench;
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");  // trimmed instances for ctest/CI
  Rng rng(cli.get_int("seed", 23));
  const int n = static_cast<int>(cli.get_int("n", smoke ? 4096 : 262144));
  const std::int64_t queries =
      cli.get_int("queries", smoke ? 20000 : 2000000);
  const double eps = cli.get_double("eps", 0.3);
  const double zipf_s = cli.get_double("zipf-s", 1.0);
  const int threads = static_cast<int>(cli.get_int("threads", 0));  // 0 = hw
  const int stretch_pairs =
      static_cast<int>(cli.get_int("pairs", smoke ? 16 : 48));
  const std::int64_t equiv_pairs =
      cli.get_int("equiv", smoke ? 500 : 2000);
  const std::int64_t latency_sample =
      std::min<std::int64_t>(queries, smoke ? 5000 : 50000);
  const int reps = smoke ? 3 : 2;
  BenchJson json(cli, "route_serve");
  cli.warn_unrecognized(std::cerr);
  json.param("n", static_cast<std::int64_t>(n));
  json.param("queries", queries);
  json.param("eps", eps);
  json.param("zipf_s", zipf_s);
  json.param("threads", static_cast<std::int64_t>(threads));
  json.param("seed", cli.get_int("seed", 23));
  json.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  print_header("E-RSERVE: route serving",
               "query throughput over the flattened two-level routing tables");

  congest::ShardPool pool(threads);
  const int threads_actual = pool.threads();
  std::cout << "serving threads: " << threads_actual
            << (threads_actual == 1
                    ? " (single hardware thread: multi == single, reported "
                      "as such)"
                    : "")
            << "\n\n";

  Table table({"family", "n", "clusters", "bytes/v", "qps cold 1t",
               "qps warm 1t", "qps warm mt", "qps zipf mt", "p50 ns", "p99 ns",
               "avg stretch", "delivered"});

  const char* families[] = {"grid", "torus", "planar-sparse"};
  for (const char* fam : families) {
    const bool representative = std::string(fam) == "grid";
    const Graph g = make_family(fam, n, rng);

    // Preload: audited construction, then the tables.
    decomp::EdtParams ep;
    ep.pool = &pool;
    const decomp::EdtDecomposition edt = decomp::build_edt_decomposition(g, eps, ep);
    const apps::FlatRoutingTables flat =
        apps::build_routing_scheme(g, edt.clustering);

    // Equivalence gate: flat routes must match the pointer-walk oracle bit
    // for bit (hop count and visited sequence) on sampled pairs.
    {
      const oracles::PointerRoutingScheme scheme =
          oracles::build_pointer_routing(g, edt.clustering);
      std::vector<int> ref_path, flat_path;
      for (std::int64_t i = 0; i < equiv_pairs; ++i) {
        const int u = static_cast<int>(rng.next_below(g.n()));
        const int v = static_cast<int>(rng.next_below(g.n()));
        ref_path.clear();
        flat_path.clear();
        const int rh = oracles::pointer_route_hops(scheme, u, v, &ref_path);
        const int fh = apps::flat_route_hops(flat, u, v, &flat_path);
        if (rh != fh || ref_path != flat_path) {
          std::cerr << "EQUIVALENCE FAILURE (" << fam << "): route " << u
                    << " -> " << v << " diverged (ref " << rh << " hops, flat "
                    << fh << " hops)\n";
          return 1;
        }
      }
    }

    // Query mixes. The uniform set doubles as the cold-pass workload: the
    // very first serve touches the freshly built tables.
    Rng qrng(cli.get_int("seed", 23) + 101);
    const std::vector<std::pair<int, int>> uni =
        uniform_queries(g.n(), queries, qrng);
    const std::vector<std::pair<int, int>> zip =
        zipf_queries(g.n(), queries, zipf_s, qrng);
    std::vector<int> hops_out;

    const double qps_cold = measure_qps(flat, uni, hops_out, nullptr, 1);
    std::int64_t delivered = 0;
    for (int h : hops_out) delivered += h >= 0 ? 1 : 0;
    const double delivered_frac =
        hops_out.empty() ? 0.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(hops_out.size());
    const double qps_1t = measure_qps(flat, uni, hops_out, nullptr, reps);
    const double qps_mt =
        threads_actual == 1
            ? qps_1t  // same engine configuration on a 1-thread host
            : measure_qps(flat, uni, hops_out, &pool, reps);
    const double qps_zipf_mt =
        threads_actual == 1
            ? measure_qps(flat, zip, hops_out, nullptr, reps)
            : measure_qps(flat, zip, hops_out, &pool, reps);

    // Per-lookup latency: individually timed single-thread sample.
    std::vector<double> lat_ns;
    lat_ns.reserve(static_cast<std::size_t>(latency_sample));
    Log2Histogram lat_hist(48);
    std::int64_t hop_sink = 0;
    for (std::int64_t i = 0; i < latency_sample; ++i) {
      const auto& [qs, qt] = uni[static_cast<std::size_t>(i)];
      const Clock::time_point t0 = Clock::now();
      hop_sink += apps::flat_route_hops(flat, qs, qt);
      const double ns = seconds_since(t0) * 1e9;
      lat_ns.push_back(ns);
      lat_hist.add(ns);
    }
    const LatencySummary lat = summarize_latency(lat_ns);

    // Stretch distribution: flat route hops vs BFS distance on sampled
    // connected pairs.
    Log2Histogram stretch_hist(16);
    double stretch_sum = 0.0, stretch_max = 0.0;
    int stretch_n = 0;
    for (int trial = 0; trial < 8 * stretch_pairs && stretch_n < stretch_pairs;
         ++trial) {
      const int u = static_cast<int>(rng.next_below(g.n()));
      const int v = static_cast<int>(rng.next_below(g.n()));
      if (u == v) continue;
      const std::vector<int> dist = bfs_distances(g, u);
      if (dist[v] <= 0) continue;
      const int h = apps::flat_route_hops(flat, u, v);
      if (h < 0) continue;
      const double st = static_cast<double>(h) / static_cast<double>(dist[v]);
      stretch_sum += st;
      stretch_max = std::max(stretch_max, st);
      stretch_hist.add(st);
      ++stretch_n;
    }
    const double avg_stretch = stretch_n == 0 ? 0.0 : stretch_sum / stretch_n;

    std::cout << "-- " << fam << ": n=" << g.n() << " m=" << g.m()
              << " clusters=" << edt.clustering.k
              << " table=" << flat.table_bytes() << " B ("
              << Table::num(flat.bytes_per_vertex(), 1) << " B/vertex)\n";
    print_log2_histogram(lat_hist, "lookup latency", "ns");
    print_log2_histogram(stretch_hist, "stretch", "x");
    (void)hop_sink;

    table.add_row({fam, Table::integer(g.n()), Table::integer(edt.clustering.k),
                   Table::num(flat.bytes_per_vertex(), 1),
                   Table::num(qps_cold, 0), Table::num(qps_1t, 0),
                   Table::num(qps_mt, 0), Table::num(qps_zipf_mt, 0),
                   Table::num(lat.p50, 0), Table::num(lat.p99, 0),
                   Table::num(avg_stretch, 2), Table::num(delivered_frac, 3)});

    if (representative) {
      json.phases(edt.ledger, 2 * g.m());
      check_runtime_audit(edt.ledger, 2 * g.m(), fam);
      json.param("family", std::string(fam));
      json.metric("threads_actual", static_cast<std::int64_t>(threads_actual));
      json.metric("clusters", static_cast<std::int64_t>(edt.clustering.k));
      json.metric("table_bytes", flat.table_bytes());
      json.metric("bytes_per_vertex", flat.bytes_per_vertex());
      json.metric("qps_cold_single", qps_cold);
      json.metric("qps_uniform_single", qps_1t);
      json.metric("qps_uniform_multi", qps_mt);
      json.metric("qps_zipf_multi", qps_zipf_mt);
      json.metric("p50_lookup_ns", lat.p50);
      json.metric("p90_lookup_ns", lat.p90);
      json.metric("p99_lookup_ns", lat.p99);
      json.metric("mean_lookup_ns", lat.mean);
      json.metric("latency_samples", lat.count);
      json.metric("delivered_fraction", delivered_frac);
      json.metric("avg_stretch", avg_stretch);
      json.metric("max_stretch", stretch_max);
      json.metric("equiv_pairs", equiv_pairs);
      json.metric("equiv_ok", static_cast<std::int64_t>(1));
    }
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nShape checks: warm beats cold, multi-thread qps >= "
               "single-thread (equal by construction on a 1-thread host), "
               "zipf's hot working set serves at least as fast as uniform on "
               "warm caches, and delivery stays 1.0 on connected families. "
               "Every sampled flat route matched the pointer-walk reference "
               "bit for bit.\n";
  json.write();
  return 0;
}
