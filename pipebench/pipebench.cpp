// pipebench — one benchmark for the decompose -> certify -> solve -> route
// pipeline of the Theorem 1.1 reproduction.
//
// Every workload runs all four stages through the library's user-facing
// entry points, with default parameters apart from a lent ShardPool of
// nproc threads:
//
//   decompose  decomp::build_edt_decomposition (eps 0.3) on a grid;
//   certify    decomp::expander_decomposition_minor_free (eps 0.5) on a
//              random maximal planar graph, decomp::certify_parts over its
//              clusters (game phi target 0.02), and
//              expander::gather_random_walks (f 0.05) on an apexed cycle;
//   solve      the four Section-6 solvers (eps 0.5, alpha 3) on a grid;
//   route      decomp::build_edt_decomposition + apps::build_routing_scheme +
//              apps::flatten_routing_scheme on a sparse planar graph (set-up),
//              then a closed loop of nproc workers calling
//              apps::serve_route_queries on uniform random batches.
//
// Each workload makes one stage large and keeps the others small, so each
// layer does most of its work in exactly one workload. Inputs come from
// --seed only. Every output is checked (checks.hpp); the last stdout line is
// the JSON result. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the same pipeline with spans around every call, repeats the pooled calls
// at one thread, and reports the per-layer metrics.
//
// Usage: pipebench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--toy] [--inject-fault mds-drop-vertex]
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/approx.hpp"
#include "apps/compact_routing.hpp"
#include "apps/domination.hpp"
#include "apps/maxcut.hpp"
#include "checks.hpp"
#include "congest/shard.hpp"
#include "decomp/edt.hpp"
#include "decomp/expander_decomp.hpp"
#include "decomp/heavy_stars.hpp"
#include "expander/cut_matching.hpp"
#include "expander/rw_routing.hpp"
#include "expander/split.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/weighted.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PIPEBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PIPEBENCH_COMPILER "gcc " __VERSION__
#else
#define PIPEBENCH_COMPILER "unknown"
#endif

namespace pipebench {
namespace {

using namespace mfd;

constexpr double kLddEps = 0.3;
constexpr double kCertifyEps = 0.5;
constexpr double kGamePhiTarget = 0.02;
constexpr double kWalkF = 0.05;
constexpr double kAppsEps = 0.5;
constexpr int kAppsAlpha = 3;
constexpr double kRouteEps = 0.3;
constexpr int kSetupReps = 5;
// The graphs are fixed instances: a max statistic such as the straggler
// cluster's size swings by 3x between random planar graphs, so the seed
// drives the random parts of the workload instead (the walk split, the query
// streams and the stretch sample), never the graph a stage runs on.
constexpr std::uint64_t kInstanceSeed = 1;
constexpr std::int64_t kBatch = 2048;      // queries per serve call
constexpr int kBatchesPerWorker = 32;      // pre-generated, reused round-robin

enum class Stage { kDecompose, kCertify, kSolve, kRoute };

/// Input sizes of one workload: one stage large, the others small. Only the
/// large stage gets the pool; the small ones run at one thread, where a
/// pool's per-round wake-ups would be most of their time and most of their
/// run-to-run noise.
struct Spec {
  std::string name;
  Stage large;
  int ldd_rows, ldd_cols;  // decompose: grid
  int certify_n;           // certify: random maximal planar graph
  int walk_cycle;          // certify: apexed cycle for the random walks
  int apps_side;           // solve: apps_side x apps_side grid
  int route_n;             // route: sparse planar graph (m = 2n)
  double serve_share;      // share of the measured window spent serving
};

const std::vector<Spec>& workloads() {
  static const std::vector<Spec> specs = {
      {"ldd-grid-1m", Stage::kDecompose, 1024, 1024, 512, 4095, 8, 16384, 0.2},
      {"certify-planar-8k", Stage::kCertify, 128, 128, 8192, 65535, 8, 16384, 0.2},
      {"apps-grid-36", Stage::kSolve, 128, 128, 512, 4095, 36, 16384, 0.2},
      {"route-serve-planar", Stage::kRoute, 128, 128, 512, 4095, 8, 262144, 0.75},
  };
  return specs;
}

Spec toy_spec(const Spec& s) {
  return {s.name, s.large, 32, 32, 256, 255, 6, 2048, s.serve_share};
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() +
                                                      static_cast<std::ptrdiff_t>(mid)));
}

/// Latency histogram: 1 ns buckets below 1024 ns, 0.5%-wide buckets above
/// (up to ~10 s). Fixed size, so a worker can time every query of its window
/// without growing the process's memory; percentiles interpolate within a
/// bucket, which keeps the clock's whole-nanosecond steps out of them.
class LatencyHistogram {
 public:
  void add(double ns) {
    ++counts_[static_cast<std::size_t>(bucket(ns))];
    ++total_;
  }
  void merge(const LatencyHistogram& o) {
    for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
  }
  std::int64_t count() const { return total_; }
  double percentile(double q) const {
    const double target = q * static_cast<double>(total_);
    double below = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const double c = static_cast<double>(counts_[static_cast<std::size_t>(b)]);
      if (c > 0 && below + c >= target) {
        return lower(b) + (target - below) / c * (lower(b + 1) - lower(b));
      }
      below += c;
    }
    return lower(kBuckets);
  }

 private:
  static constexpr int kLinear = 1024;
  static constexpr double kGrowth = 1.005;
  static constexpr int kBuckets = kLinear + 3300;

  static int bucket(double ns) {
    if (ns < kLinear) return std::max(0, static_cast<int>(ns));
    const int b = kLinear + static_cast<int>(std::log(ns / kLinear) / std::log(kGrowth));
    return std::min(b, kBuckets - 1);
  }
  static double lower(int b) {
    return b < kLinear ? b : kLinear * std::pow(kGrowth, b - kLinear);
  }

  std::vector<std::int64_t> counts_ = std::vector<std::int64_t>(kBuckets, 0);
  std::int64_t total_ = 0;
};

// ---------------------------------------------------------------- set-up --

struct Inputs {
  Graph ldd_graph;
  Graph certify_graph;
  expander::ExpanderSplit walk_split;
  int walk_target = 0;  // the apex
  Graph apps_graph;
  Graph route_graph;
  decomp::EdtDecomposition route_edt;
  apps::FlatRoutingTables tables;
};

struct SetupTimes {
  double total_s = 0, generate_ms = 0, route_edt_ms = 0, build_ms = 0,
         flatten_ms = 0;
};

/// The pool a stage may use: the lent one for the workload's large stage.
congest::ShardPool* pool_for(const Spec& spec, Stage stage, congest::ShardPool* pool) {
  return spec.large == stage ? pool : nullptr;
}

Inputs make_inputs(const Spec& spec, std::uint64_t seed,
                   congest::ShardPool* pool, Tracer& tr, SetupTimes& st) {
  const Clock::time_point t_setup = Clock::now();
  Inputs in;
  {
    SpanScope span(tr, "graph::generators", "graph");
    const Clock::time_point t0 = Clock::now();
    Rng instance(kInstanceSeed);
    in.ldd_graph = grid_graph(spec.ldd_rows, spec.ldd_cols);
    in.certify_graph = random_maximal_planar(spec.certify_n, instance);
    in.apps_graph = grid_graph(spec.apps_side, spec.apps_side);
    in.route_graph = random_planar(
        spec.route_n, std::min(3 * spec.route_n - 6, 2 * spec.route_n), instance);
    st.generate_ms = ms_since(t0);
  }
  Rng rng(seed);
  {
    SpanScope span(tr, "expander::expander_split", "expander");
    in.walk_split = expander::expander_split(add_apex(cycle_graph(spec.walk_cycle)), rng);
    in.walk_target = spec.walk_cycle;
  }
  {
    SpanScope span(tr, "decomp::build_edt_decomposition", "decomp");
    const Clock::time_point t0 = Clock::now();
    decomp::EdtParams ep;
    ep.pool = pool_for(spec, Stage::kRoute, pool);
    in.route_edt = decomp::build_edt_decomposition(in.route_graph, kRouteEps, ep);
    st.route_edt_ms = ms_since(t0);
  }
  apps::RoutingScheme scheme;
  {
    SpanScope span(tr, "apps::build_routing_scheme", "apps.compact_routing");
    const Clock::time_point t0 = Clock::now();
    scheme = apps::build_routing_scheme(in.route_graph, in.route_edt.clustering);
    st.build_ms = ms_since(t0);
  }
  {
    SpanScope span(tr, "apps::flatten_routing_scheme", "apps.compact_routing");
    const Clock::time_point t0 = Clock::now();
    in.tables = apps::flatten_routing_scheme(scheme);
    st.flatten_ms = ms_since(t0);
  }
  st.total_s = ms_since(t_setup) / 1000.0;
  return in;
}

// ------------------------------------------------------------ execution --

/// Tier and branch-and-bound totals over the four solvers.
struct LadderTotals {
  std::int64_t forest = 0, tw_dp = 0, bb = 0, greedy = 0;
  std::int64_t bb_runs = 0, bb_nodes = 0, bb_exact = 0;
  int max_width = -1;
  double solve_ms = 0.0;

  void add(const congest::SolverStats& s) {
    forest += s.tier_forest;
    tw_dp += s.tier_tw_dp;
    bb += s.tier_bb;
    greedy += s.tier_greedy;
    bb_runs += s.bb_runs;
    bb_nodes += s.bb_nodes;
    bb_exact += s.bb_exact_runs;
    max_width = std::max(max_width, s.max_width_dp);
    solve_ms += s.solve_ms;
  }
};

/// One pipeline execution: decompose, certify, solve (routing tables are
/// built in set-up and served separately).
struct Execution {
  double wall_s = 0;
  double edt_ms = 0, xdecomp_ms = 0, certify_ms = 0, rw_ms = 0;
  double mds_ms = 0, mis_ms = 0, vc_ms = 0, maxcut_ms = 0;
  std::int64_t rounds = 0, messages = 0, peak_congestion = 0;
  // decompose
  double cut_fraction = 0;
  int max_diameter = 0, iterations = 0, merges = 0, clusters = 0,
      max_cluster_size = 0;
  decomp::Clustering ldd_clustering;
  // certify
  double phi_certified_min = 0, certified_fraction = 0, rw_delivered = 0;
  int x_clusters = 0, max_certified_n = 0;
  std::int64_t state_bytes_peak = 0, game_rounds = 0, rw_seed_tries = 0,
               rw_rounds = 0;
  std::vector<int> straggler;  // members of the largest expander cluster
  // solve
  std::int64_t mds = 0, mis = 0, vc = 0, cut_value = 0;
  double mds_eps_star = 0;
  LadderTotals ladder;
};

void add_ledger(Execution& ex, const congest::Runtime& rt) {
  ex.rounds += rt.total();
  ex.messages += rt.total_messages();
  ex.peak_congestion = std::max(ex.peak_congestion, rt.peak_congestion());
}

/// Run the three computing stages once; `pool == nullptr` is the one-thread
/// baseline. Outputs are checked after the clock stops.
Execution run_execution(const Spec& spec, const Inputs& in, congest::ShardPool* pool,
                        Tracer& tr, Checks& ck, bool drop_mds_vertex) {
  Execution ex;
  decomp::EdtDecomposition edt;
  decomp::ExpanderDecomp xd;
  std::vector<std::vector<int>> parts;
  decomp::PartCertifyReport rep;
  expander::RwResult rw;
  apps::MdsSolution mds;
  apps::SetSolution mis, vc;
  apps::CutSolution cut;
  const Clock::time_point t_exec = Clock::now();
  {
    SpanScope root(tr, "pipeline", "bench");
    {
      SpanScope span(tr, "decomp::build_edt_decomposition", "decomp");
      const Clock::time_point t0 = Clock::now();
      decomp::EdtParams ep;
      ep.pool = pool_for(spec, Stage::kDecompose, pool);
      edt = decomp::build_edt_decomposition(in.ldd_graph, kLddEps, ep);
      ex.edt_ms = ms_since(t0);
      span.count("rounds", static_cast<double>(edt.ledger.total()));
      span.count("clusters", edt.clustering.k);
    }
    {
      SpanScope span(tr, "decomp::expander_decomposition_minor_free", "expander");
      const Clock::time_point t0 = Clock::now();
      xd = decomp::expander_decomposition_minor_free(in.certify_graph, kCertifyEps);
      ex.xdecomp_ms = ms_since(t0);
      span.count("clusters", xd.clustering.k);
    }
    parts.assign(static_cast<std::size_t>(xd.clustering.k), {});
    for (int v = 0; v < in.certify_graph.n(); ++v) {
      parts[static_cast<std::size_t>(xd.clustering.cluster[v])].push_back(v);
    }
    {
      SpanScope span(tr, "decomp::certify_parts", "expander");
      const Clock::time_point t0 = Clock::now();
      expander::PhiCertParams pc;
      pc.game.phi_target = kGamePhiTarget;
      rep = decomp::certify_parts(in.certify_graph, parts, pc,
                                  pool_for(spec, Stage::kCertify, pool));
      ex.certify_ms = ms_since(t0);
      span.count("certified", rep.clusters_certified);
      span.count("game_rounds", static_cast<double>(rep.ledger.total()));
    }
    {
      SpanScope span(tr, "expander::gather_random_walks", "expander");
      const Clock::time_point t0 = Clock::now();
      expander::RwParams rp;
      rp.pool = pool_for(spec, Stage::kCertify, pool);
      rw = expander::gather_random_walks(in.walk_split, in.walk_target, kWalkF, rp);
      ex.rw_ms = ms_since(t0);
      span.count("rounds", static_cast<double>(rw.rounds));
      span.count("seed_tries", static_cast<double>(rw.schedule.seed_tries));
    }
    const Graph& ag = in.apps_graph;
    congest::ShardPool* apool = pool_for(spec, Stage::kSolve, pool);
    {
      SpanScope span(tr, "apps::approx_min_dominating_set", "apps");
      const Clock::time_point t0 = Clock::now();
      mds = apps::approx_min_dominating_set(ag, kAppsEps, kAppsAlpha, apool);
      ex.mds_ms = ms_since(t0);
      span.count("size", static_cast<double>(mds.vertices.size()));
    }
    {
      SpanScope span(tr, "apps::approx_max_independent_set", "apps");
      const Clock::time_point t0 = Clock::now();
      mis = apps::approx_max_independent_set(ag, kAppsEps, kAppsAlpha, apool);
      ex.mis_ms = ms_since(t0);
      span.count("size", static_cast<double>(mis.vertices.size()));
    }
    {
      SpanScope span(tr, "apps::approx_min_vertex_cover", "apps");
      const Clock::time_point t0 = Clock::now();
      vc = apps::approx_min_vertex_cover(ag, kAppsEps, kAppsAlpha, apool);
      ex.vc_ms = ms_since(t0);
      span.count("size", static_cast<double>(vc.vertices.size()));
    }
    {
      SpanScope span(tr, "apps::approx_max_cut", "apps");
      const Clock::time_point t0 = Clock::now();
      cut = apps::approx_max_cut(ag, kAppsEps, /*exact_cap=*/24, apool);
      ex.maxcut_ms = ms_since(t0);
      span.count("value", static_cast<double>(cut.value));
    }
  }
  ex.wall_s = ms_since(t_exec) / 1000.0;
  // Test hook: corrupt one output so the checks can be seen to fire.
  if (drop_mds_vertex && !mds.vertices.empty()) mds.vertices.pop_back();

  // decompose
  const Graph& lg = in.ldd_graph;
  check_partition(ck, lg, edt.clustering, "ldd");
  const std::int64_t cut_edges =
      check_cut_budget(ck, lg, edt.clustering, kLddEps, "ldd");
  check_audit(ck, edt.ledger, 2 * lg.m(), "ldd");
  add_ledger(ex, edt.ledger);
  ex.cut_fraction = static_cast<double>(cut_edges) / static_cast<double>(lg.m());
  ex.max_diameter = edt.quality.max_diameter;
  ex.iterations = edt.iterations;
  ex.merges = edt.merges;
  ex.clusters = edt.clustering.k;
  ex.max_cluster_size = edt.quality.max_cluster_size;
  ex.ldd_clustering = std::move(edt.clustering);

  // certify
  const Graph& cg = in.certify_graph;
  ck.expect(decomp::is_valid_partition(cg, xd.clustering), "partition_valid",
            "expander decomposition");
  check_audit(ck, xd.ledger, 2 * cg.m(), "expander decomposition");
  ck.expect(rep.ok, "certify_parts_report_ok", rep.violation);
  check_audit(ck, rep.ledger, 2 * cg.m(), "certify_parts");
  ck.expect(rw.delivered_fraction >= 1.0 - kWalkF, "rw_delivered_at_least_1_minus_f",
            std::to_string(rw.delivered_fraction));
  check_audit(ck, rw.ledger, 2 * in.walk_split.g.m(), "random walks");
  add_ledger(ex, xd.ledger);
  add_ledger(ex, rep.ledger);
  add_ledger(ex, rw.ledger);
  // An uncertified cluster counts as phi = 0, so a lost certificate shows.
  ex.phi_certified_min = rep.clusters_estimated > 0 ? 0.0 : rep.min_phi_lower;
  ex.x_clusters = xd.clustering.k;
  ex.certified_fraction =
      parts.empty() ? 1.0
                    : static_cast<double>(rep.clusters_certified) /
                          static_cast<double>(parts.size());
  ex.max_certified_n = rep.max_certified_cluster;
  ex.state_bytes_peak = rep.state_bytes_peak;
  ex.game_rounds = rep.ledger.total();
  ex.rw_seed_tries = rw.schedule.seed_tries;
  ex.rw_rounds = rw.rounds;
  ex.rw_delivered = rw.delivered_fraction;
  for (std::vector<int>& p : parts) {
    if (p.size() > ex.straggler.size()) ex.straggler = std::move(p);
  }

  // solve
  const Graph& ag = in.apps_graph;
  check_dominating(ck, ag, mds.vertices);
  check_independent(ck, ag, mis.vertices);
  check_cover(ck, ag, vc.vertices);
  check_cut_recount(ck, ag, cut.side, cut.value);
  for (const congest::SolverStats* s :
       {&mds.stats, &mis.stats, &vc.stats, &cut.stats}) {
    check_audit(ck, s->runtime, 2 * ag.m(), "solver");
    add_ledger(ex, s->runtime);
    ex.ladder.add(*s);
  }
  ex.mds = static_cast<std::int64_t>(mds.vertices.size());
  ex.mis = static_cast<std::int64_t>(mis.vertices.size());
  ex.vc = static_cast<std::int64_t>(vc.vertices.size());
  ex.cut_value = cut.value;
  ex.mds_eps_star = mds.eps_star;
  return ex;
}

// --------------------------------------------------------------- serving --

struct ServeStats {
  double qps = 0;
  std::int64_t queries = 0;
  double hops_per_query = 0;
  LatencyHistogram latency;
};

std::vector<std::vector<std::pair<int, int>>> make_batches(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::pair<int, int>>> batches(kBatchesPerWorker);
  for (auto& b : batches) {
    b.reserve(static_cast<std::size_t>(kBatch));
    for (std::int64_t i = 0; i < kBatch; ++i) {
      b.emplace_back(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))),
                     static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))));
    }
  }
  return batches;
}

/// Closed loop: `workers` threads each call serve_route_queries on their
/// next batch as soon as the previous one returns, for `throughput_s`; then
/// each times single-query calls for `latency_s`. Throughput sums, over the
/// workers, the batch size over that worker's median batch time, so a short
/// stall of the host moves a few batches, not the figure. Undelivered routes are
/// counted per worker and checked once per worker.
ServeStats serve_closed_loop(const apps::FlatRoutingTables& t, int workers,
                             double throughput_s, double latency_s,
                             std::uint64_t seed, Tracer& tr, Checks& ck) {
  struct Lane {
    std::int64_t queries = 0, hops = 0, undelivered = 0;
    std::vector<double> batch_s;  // wall time of each serve call
    LatencyHistogram latency;
  };
  std::vector<Lane> lanes(static_cast<std::size_t>(workers));
  std::vector<std::vector<std::vector<std::pair<int, int>>>> batches;
  for (int w = 0; w < workers; ++w) {
    batches.push_back(make_batches(t.n, seed * 1000003ULL + static_cast<std::uint64_t>(w)));
  }
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start_time;  // written before `go`, read after it
  const auto work = [&](int w) {
    Lane& lane = lanes[static_cast<std::size_t>(w)];
    const auto& mine = batches[static_cast<std::size_t>(w)];
    std::vector<int> out;
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const Clock::time_point t0 = start_time;
    const Clock::time_point stop =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(throughput_s));
    std::size_t b = 0;
    for (Clock::time_point now = Clock::now(); now < stop;) {
      const Clock::time_point b0 = now;
      {
        SpanScope span(tr, "apps::serve_route_queries", "apps.compact_routing");
        apps::serve_route_queries(t, mine[b], out, nullptr);
        span.count("queries", static_cast<double>(kBatch));
      }
      for (int h : out) {
        if (h < 0) ++lane.undelivered;
        else lane.hops += h;
      }
      lane.queries += kBatch;
      b = (b + 1) % mine.size();
      now = Clock::now();
      lane.batch_s.push_back(std::chrono::duration<double>(now - b0).count());
    }

    const Clock::time_point lat_stop =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(latency_s));
    std::vector<std::pair<int, int>> one(1);
    for (bool more = latency_s > 0; more;) {
      for (const auto& q : mine[b]) {
        one[0] = q;
        const Clock::time_point q0 = Clock::now();
        apps::serve_route_queries(t, one, out, nullptr);
        const Clock::time_point q1 = Clock::now();
        if (out[0] < 0) ++lane.undelivered;
        lane.latency.add(std::chrono::duration<double, std::nano>(q1 - q0).count());
      }
      b = (b + 1) % mine.size();
      more = Clock::now() < lat_stop;
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(work, w);
  while (ready.load() < workers - 1) std::this_thread::yield();
  start_time = Clock::now();
  go.store(true, std::memory_order_release);
  work(0);
  for (std::thread& th : threads) th.join();

  ServeStats s;
  std::int64_t hops = 0;
  for (Lane& lane : lanes) {
    ck.expect(lane.undelivered == 0, "served_routes_delivered",
              std::to_string(lane.undelivered) + " undelivered");
    s.queries += lane.queries;
    hops += lane.hops;
    const double batch = median(lane.batch_s);
    if (batch > 0) s.qps += static_cast<double>(kBatch) / batch;
    s.latency.merge(lane.latency);
  }
  s.hops_per_query =
      s.queries > 0 ? static_cast<double>(hops) / static_cast<double>(s.queries) : 0.0;
  return s;
}

/// Stretch on sampled pairs: flat-route hops over BFS distance. Every route
/// must be delivered and no shorter than the distance.
double sampled_stretch(const Graph& g, const apps::FlatRoutingTables& t,
                       std::uint64_t seed, int sources, int targets, Checks& ck) {
  Rng rng(seed ^ 0x5eedULL);
  double sum = 0;
  int pairs = 0;
  bool all_ok = true;
  std::vector<std::pair<int, int>> batch;
  std::vector<int> hops;
  for (int s = 0; s < sources; ++s) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(g.n())));
    const std::vector<int> dist = bfs_distances(g, src);
    batch.clear();
    for (int i = 0; i < targets; ++i) {
      batch.emplace_back(src, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(g.n()))));
    }
    apps::serve_route_queries(t, batch, hops, nullptr);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const int d = dist[static_cast<std::size_t>(batch[i].second)];
      if (hops[i] < 0 || hops[i] < d) all_ok = false;
      if (d > 0 && hops[i] >= 0) {
        sum += static_cast<double>(hops[i]) / d;
        ++pairs;
      }
    }
  }
  ck.expect(all_ok, "sampled_routes_delivered_and_no_shorter_than_bfs");
  return pairs > 0 ? sum / pairs : 1.0;
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::int64_t samples;
};

void print_result(const std::vector<Metric>& metrics, const Checks& ck) {
  std::printf("%-46s %22s  %-12s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-46s %22.6f  %-12s %lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::printf("checks: %lld attempted, %lld failed, fail_rate %.6f\n",
              static_cast<long long>(ck.attempted()),
              static_cast<long long>(ck.failed()), ck.fail_rate());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              ck.failed() == 0 ? "true" : "false",
              static_cast<long long>(ck.attempted()),
              static_cast<long long>(ck.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string trace_out;
  bool drop_mds_vertex = false;  // --inject-fault mds-drop-vertex
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const bool has_value = i + 1 < argc;
    if (key == "--toy") {
      a.toy = true;
    } else if (key == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (key == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (key == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (key == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) != "0";
    } else if (key == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else if (key == "--inject-fault" && has_value) {
      const std::string fault = argv[++i];
      if (fault != "mds-drop-vertex") return false;
      a.drop_mds_vertex = true;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

int run(const Args& args) {
  const Spec* found = nullptr;
  for (const Spec& s : workloads()) {
    if (s.name == args.workload) found = &s;
  }
  if (found == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  const Spec spec = args.toy ? toy_spec(*found) : *found;
  congest::ShardPool pool(0);  // nproc threads
  const int threads = pool.threads();
  std::printf("workload %s seed %llu seconds %.3f trace %d%s\n", spec.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.toy ? " (toy sizes)" : "");
  std::printf("host: nproc %u, pool threads %d, compiler %s, build %s\n",
              std::thread::hardware_concurrency(), threads, PIPEBENCH_COMPILER,
              PIPEBENCH_BUILD_TYPE);

  Tracer tr(false);
  Checks ck;

  // Set-up, repeated; the median is setup_s.
  std::vector<double> setup_s, gen_ms, build_ms, flatten_ms, route_edt_ms;
  Inputs in;
  for (int r = 0; r < kSetupReps; ++r) {
    tr.set_enabled(args.trace && r == kSetupReps - 1);
    SetupTimes st;
    in = make_inputs(spec, args.seed, &pool, tr, st);
    setup_s.push_back(st.total_s);
    gen_ms.push_back(st.generate_ms);
    build_ms.push_back(st.build_ms);
    flatten_ms.push_back(st.flatten_ms);
    route_edt_ms.push_back(st.route_edt_ms);
  }
  tr.set_enabled(false);
  check_partition(ck, in.route_graph, in.route_edt.clustering, "route");
  check_cut_budget(ck, in.route_graph, in.route_edt.clustering, kRouteEps, "route");
  check_audit(ck, in.route_edt.ledger, 2 * in.route_graph.m(), "route");
  const std::int64_t route_rounds = in.route_edt.ledger.total();

  // Measured window: pipeline executions, then serving.
  const double exec_budget_s = args.seconds * (1.0 - spec.serve_share);
  const double serve_budget_s = args.seconds * spec.serve_share;
  std::vector<double> untraced_s, traced_s, cpu_util;
  std::vector<double> edt_ms, xdecomp_ms, certify_ms, rw_ms, mds_ms, mis_ms,
      vc_ms, maxcut_ms;
  Execution last;
  int run_id = 0;
  const auto record_traced = [&](const Execution& ex) {
    traced_s.push_back(ex.wall_s);
    edt_ms.push_back(ex.edt_ms);
    xdecomp_ms.push_back(ex.xdecomp_ms);
    certify_ms.push_back(ex.certify_ms);
    rw_ms.push_back(ex.rw_ms);
    mds_ms.push_back(ex.mds_ms);
    mis_ms.push_back(ex.mis_ms);
    vc_ms.push_back(ex.vc_ms);
    maxcut_ms.push_back(ex.maxcut_ms);
  };
  {
    // One warm-up execution (checked, not timed) lets allocator arenas and
    // page mappings settle. In the traced run, untraced and traced
    // executions alternate so the tracing overhead is not biased by drift.
    run_execution(spec, in, &pool, tr, ck, args.drop_mds_vertex);
    const Clock::time_point start = Clock::now();
    for (int i = 0; untraced_s.empty() || ms_since(start) / 1000.0 < exec_budget_s; ++i) {
      const bool traced = args.trace && i % 2 == 1;
      tr.set_enabled(traced);
      tr.set_run(traced ? run_id++ : -1);
      const double cpu0 = process_cpu_s();
      last = run_execution(spec, in, &pool, tr, ck, args.drop_mds_vertex);
      if (!traced) {
        cpu_util.push_back((process_cpu_s() - cpu0) / (last.wall_s * threads));
        untraced_s.push_back(last.wall_s);
      } else {
        record_traced(last);
      }
    }
    if (args.trace && traced_s.empty()) {  // a window too short for a pair
      tr.set_enabled(true);
      tr.set_run(run_id++);
      last = run_execution(spec, in, &pool, tr, ck, args.drop_mds_vertex);
      record_traced(last);
    }
    tr.set_enabled(args.trace);
    tr.set_run(-1);
  }
  ServeStats serve =
      serve_closed_loop(in.tables, threads, serve_budget_s * 2 / 3,
                        serve_budget_s / 3, args.seed, tr, ck);
  tr.set_enabled(false);
  const double p50 = serve.latency.percentile(0.50);
  const double p99 = serve.latency.percentile(0.99);
  const double p999 = serve.latency.percentile(0.999);
  const double stretch = sampled_stretch(in.route_graph, in.tables, args.seed,
                                         args.toy ? 4 : 64, 64, ck);
  const std::int64_t lat_samples = serve.latency.count();
  const std::int64_t n_exec = static_cast<std::int64_t>(untraced_s.size());
  const double solve_s = median(untraced_s);

  std::printf("executions (s):");
  for (double x : untraced_s) std::printf(" %.4f", x);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s", kSetupReps},
        {"solve_s", solve_s, "s", n_exec},
        {"qps", serve.qps, "1/s", serve.queries},
        {"query_p50_ns", p50, "ns", lat_samples},
        {"query_p99_ns", p99, "ns", lat_samples},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
        {"rounds", static_cast<double>(last.rounds + route_rounds), "count", 1},
        {"cut_fraction", last.cut_fraction, "ratio", 1},
        {"max_diameter", static_cast<double>(last.max_diameter), "hops", 1},
        {"phi_certified_min", last.phi_certified_min, "ratio", 1},
        {"mds_size", static_cast<double>(last.mds), "count", 1},
        {"mis_size", static_cast<double>(last.mis), "count", 1},
        {"vc_size", static_cast<double>(last.vc), "count", 1},
        {"cut_value", static_cast<double>(last.cut_value), "count", 1},
        {"stretch_avg", stretch, "ratio", 1},
    };
    print_result(metrics, ck);
    return 0;
  }

  // Traced run only: one-thread baseline, then single-call probes.
  const double serial_cpu0 = process_cpu_s();
  const Execution serial = run_execution(spec, in, nullptr, tr, ck, args.drop_mds_vertex);
  const double serial_cpu_s = process_cpu_s() - serial_cpu0;

  tr.set_enabled(true);
  double eval_ms = 0, hs_ms = 0, hs_capture = 0, straggler_ms = 0, app_edt_ms = 0;
  {
    SpanScope span(tr, "decomp::evaluate_clustering", "decomp");
    const Clock::time_point t0 = Clock::now();
    const decomp::ClusterQuality q =
        decomp::evaluate_clustering(in.ldd_graph, last.ldd_clustering);
    eval_ms = ms_since(t0);
    ck.expect(q.clusters_connected, "clusters_connected", "evaluate_clustering");
  }
  {
    std::vector<WeightedEdge> edges;
    edges.reserve(static_cast<std::size_t>(in.ldd_graph.m()));
    for (const auto& [u, v] : in.ldd_graph.edges()) edges.push_back({u, v, 1});
    const WeightedGraph unit(in.ldd_graph.n(), std::move(edges));
    SpanScope span(tr, "decomp::heavy_stars", "decomp");
    const Clock::time_point t0 = Clock::now();
    const decomp::HeavyStarsResult hs = decomp::heavy_stars(unit, pool_for(spec, Stage::kDecompose, &pool));
    hs_ms = ms_since(t0);
    hs_capture = hs.total_weight > 0 ? static_cast<double>(hs.captured_weight) /
                                           static_cast<double>(hs.total_weight)
                                     : 1.0;
  }
  {
    const InducedSubgraph sub = induced_subgraph(in.certify_graph, last.straggler);
    expander::PhiCertParams pc;
    pc.game.phi_target = kGamePhiTarget;
    SpanScope span(tr, "expander::certified_phi", "expander");
    const Clock::time_point t0 = Clock::now();
    const expander::PhiReport pr = expander::certified_phi(sub.graph, pc);
    straggler_ms = ms_since(t0);
    span.count("n", sub.graph.n());
    ck.expect(pr.cert.certified_lower(), "straggler_certified");
  }
  {
    // Each solver's eps*, as the solvers derive it (apps/approx.hpp,
    // apps/domination.hpp, apps/maxcut.hpp).
    const double a = kAppsAlpha;
    const double delta = in.apps_graph.max_degree();
    const double eps_stars[] = {last.mds_eps_star,
                                kAppsEps / (a * (2.0 * a + 1.0)),
                                kAppsEps / (2.0 * delta + 1.0), kAppsEps / 2.0};
    for (double e : eps_stars) {
      SpanScope span(tr, "decomp::build_edt_decomposition", "apps");
      const Clock::time_point t0 = Clock::now();
      const decomp::EdtDecomposition d =
          decomp::build_edt_decomposition(in.apps_graph, std::max(e, 1e-6));
      app_edt_ms += ms_since(t0);
      span.count("clusters", d.clustering.k);
    }
  }
  tr.set_enabled(false);
  const ServeStats single = serve_closed_loop(
      in.tables, 1, std::max(0.25, serve_budget_s / 4), 0.0, args.seed + 1, tr, ck);

  // Self time per layer, per traced execution.
  std::map<std::string, double> self_ms = tr.run_self_ms_by_layer();
  for (auto& [layer, ms] : self_ms) ms /= static_cast<double>(traced_s.size());

  const std::int64_t n_traced = static_cast<std::int64_t>(traced_s.size());
  const LadderTotals& L = last.ladder;
  const double tiers = static_cast<double>(L.forest + L.tw_dp + L.bb + L.greedy);
  const double ns_per_query_single = single.qps > 0 ? 1e9 / single.qps : 0.0;
  metrics = {
      {"graph.generate_ms", median(gen_ms), "ms", kSetupReps},
      {"congest.messages", static_cast<double>(last.messages), "count", 1},
      {"congest.ms_per_round",
       last.rounds > 0 ? 1000.0 * solve_s / static_cast<double>(last.rounds) : 0.0,
       "ms", n_exec},
      {"congest.peak_congestion", static_cast<double>(last.peak_congestion), "count", 1},
      {"congest.shard_speedup", solve_s > 0 ? serial.wall_s / solve_s : 0.0, "ratio", 1},
      {"congest.cpu_util", median(cpu_util), "ratio", n_exec},
      {"congest.serial_cpu_util",
       serial.wall_s > 0 ? serial_cpu_s / serial.wall_s : 0.0, "ratio", 1},
      {"decomp.edt_ms", median(edt_ms), "ms", n_traced},
      {"decomp.edt_serial_ms", serial.edt_ms, "ms", 1},
      {"decomp.eval_ms", eval_ms, "ms", 1},
      {"decomp.heavy_stars_ms", hs_ms, "ms", 1},
      {"decomp.heavy_stars_capture", hs_capture, "ratio", 1},
      {"decomp.iterations", static_cast<double>(last.iterations), "count", 1},
      {"decomp.merges", static_cast<double>(last.merges), "count", 1},
      {"decomp.clusters", static_cast<double>(last.clusters), "count", 1},
      {"decomp.max_cluster_size", static_cast<double>(last.max_cluster_size), "count", 1},
      {"decomp.self_ms", self_ms["decomp"], "ms", n_traced},
      {"expander.decomp_ms", median(xdecomp_ms), "ms", n_traced},
      {"expander.certify_ms", median(certify_ms), "ms", n_traced},
      {"expander.certify_serial_ms", serial.certify_ms, "ms", 1},
      {"expander.straggler_ms", straggler_ms, "ms", 1},
      {"expander.straggler_share",
       median(certify_ms) > 0 ? straggler_ms / median(certify_ms) : 0.0, "ratio", 1},
      {"expander.clusters", static_cast<double>(last.x_clusters), "count", 1},
      {"expander.certified_fraction", last.certified_fraction, "ratio", 1},
      {"expander.max_certified_n", static_cast<double>(last.max_certified_n), "count", 1},
      {"expander.state_bytes_peak", static_cast<double>(last.state_bytes_peak), "bytes", 1},
      {"expander.game_rounds", static_cast<double>(last.game_rounds), "count", 1},
      {"expander.rw_ms", median(rw_ms), "ms", n_traced},
      {"expander.rw_seed_tries", static_cast<double>(last.rw_seed_tries), "count", 1},
      {"expander.rw_rounds", static_cast<double>(last.rw_rounds), "count", 1},
      {"expander.rw_delivered", last.rw_delivered, "ratio", 1},
      {"expander.self_ms", self_ms["expander"], "ms", n_traced},
      {"apps.mds_ms", median(mds_ms), "ms", n_traced},
      {"apps.mis_ms", median(mis_ms), "ms", n_traced},
      {"apps.vc_ms", median(vc_ms), "ms", n_traced},
      {"apps.maxcut_ms", median(maxcut_ms), "ms", n_traced},
      {"apps.decompose_ms", app_edt_ms, "ms", 1},
      {"apps.cluster_solve_ms", L.solve_ms, "ms", 1},
      {"apps.tier_forest", static_cast<double>(L.forest), "count", 1},
      {"apps.tier_tw_dp", static_cast<double>(L.tw_dp), "count", 1},
      {"apps.tier_bb", static_cast<double>(L.bb), "count", 1},
      {"apps.tier_greedy", static_cast<double>(L.greedy), "count", 1},
      {"apps.exact_fraction",
       tiers > 0 ? static_cast<double>(L.forest + L.tw_dp + L.bb) / tiers : 1.0,
       "ratio", 1},
      {"apps.bb_runs", static_cast<double>(L.bb_runs), "count", 1},
      {"apps.bb_nodes", static_cast<double>(L.bb_nodes), "count", 1},
      {"apps.bb_success",
       L.bb_runs > 0 ? static_cast<double>(L.bb_exact) / static_cast<double>(L.bb_runs)
                     : 1.0,
       "ratio", 1},
      {"apps.max_width_dp", static_cast<double>(L.max_width), "count", 1},
      {"apps.self_ms", self_ms["apps"], "ms", n_traced},
      {"apps.compact_routing.edt_ms", median(route_edt_ms), "ms", kSetupReps},
      {"apps.compact_routing.build_ms", median(build_ms), "ms", kSetupReps},
      {"apps.compact_routing.flatten_ms", median(flatten_ms), "ms", kSetupReps},
      {"apps.compact_routing.table_bytes_per_vertex", in.tables.bytes_per_vertex(),
       "bytes/vertex", 1},
      {"apps.compact_routing.hops_per_query", serve.hops_per_query, "hops", serve.queries},
      {"apps.compact_routing.ns_per_hop",
       serve.hops_per_query > 0 ? ns_per_query_single / serve.hops_per_query : 0.0,
       "ns", single.queries},
      {"apps.compact_routing.qps_single", single.qps, "1/s", single.queries},
      {"apps.compact_routing.query_p999_ns", p999, "ns", lat_samples},
      {"trace.overhead_ms", 1000.0 * (median(traced_s) - solve_s), "ms", n_traced},
  };
  if (!args.trace_out.empty()) {
    const bool ok = tr.write_chrome_json(
        args.trace_out, {{"workload", spec.name},
                         {"seed", std::to_string(args.seed)},
                         {"nproc", std::to_string(std::thread::hardware_concurrency())},
                         {"pool_threads", std::to_string(threads)},
                         {"compiler", PIPEBENCH_COMPILER},
                         {"build_type", PIPEBENCH_BUILD_TYPE}});
    if (!ok) std::cerr << "could not write trace to " << args.trace_out << "\n";
    else std::printf("trace: %zu spans written to %s\n", tr.spans().size(),
                     args.trace_out.c_str());
  }
  print_result(metrics, ck);
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  // One malloc arena: with glibc's per-thread arenas the process high-water
  // mark depends on which pool thread happened to allocate what, and
  // peak_rss_mb swung by a quarter between identical runs. One arena did not
  // measurably slow the pooled ldd, certify or route stages on a 4-core host.
  mallopt(M_ARENA_MAX, 1);
  pipebench::Args args;
  if (!pipebench::parse_args(argc, argv, args)) {
    std::cerr << "usage: pipebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--toy] "
                 "[--inject-fault mds-drop-vertex]\n";
    return 2;
  }
  return pipebench::run(args);
}

