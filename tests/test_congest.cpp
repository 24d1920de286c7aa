// congest/ layer invariants: Cole–Vishkin 3-coloring of rooted forests.
//   * colors land in {0,1,2} and are proper along every parent edge,
//   * the round count respects the O(log* n) bound (tracked, not symbolic),
//   * star-shaped and path-shaped forests both color correctly,
//   * the primitive is deterministic.
#include <cmath>
#include <string>
#include <vector>

#include "congest/cole_vishkin.hpp"
#include "congest/runtime.hpp"
#include "graph/generators.hpp"
#include "test_main.hpp"

using namespace mfd;

namespace {

std::vector<int> path_parents(int n) {
  std::vector<int> parent(n);
  parent[0] = -1;
  for (int v = 1; v < n; ++v) parent[v] = v - 1;
  return parent;
}

void check_proper(const std::vector<int>& parent,
                  const congest::ColeVishkinResult& cv, const std::string& ctx) {
  for (std::size_t v = 0; v < parent.size(); ++v) {
    CHECK_MSG(cv.color[v] >= 0 && cv.color[v] <= 2, ctx + ": color range");
    if (parent[v] >= 0 && parent[v] != static_cast<int>(v)) {
      CHECK_MSG(cv.color[v] != cv.color[parent[v]], ctx + ": proper");
    }
  }
}

}  // namespace

TEST_CASE(cv_path_proper_3coloring) {
  for (int n : {2, 3, 7, 100, 4096, 65536}) {
    const auto parent = path_parents(n);
    const auto cv = congest::cole_vishkin_3color_forest(n, parent);
    check_proper(parent, cv, "path n=" + std::to_string(n));
  }
}

TEST_CASE(cv_rounds_log_star_bound) {
  // The tracked rounds must scale like log* n, nothing faster-growing:
  // iterations to shrink ids below 6 colors + the constant 6 palette rounds.
  for (int n : {64, 4096, 65536, 1 << 20}) {
    const auto parent = path_parents(n);
    const auto cv = congest::cole_vishkin_3color_forest(n, parent);
    const int bound = 2 * congest::log_star(static_cast<double>(n)) + 8;
    CHECK_MSG(cv.rounds <= bound,
              "n=" + std::to_string(n) + " rounds=" + std::to_string(cv.rounds));
    CHECK_MSG(cv.rounds >= 6, "palette reduction rounds missing");
  }
}

TEST_CASE(cv_random_forest_proper) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 50 + static_cast<int>(rng.next_below(2000));
    // Random attachment forest with a few roots.
    std::vector<int> parent(n, -1);
    for (int v = 1; v < n; ++v) {
      parent[v] = rng.next_below(10) == 0 ? -1 : rng.uniform_int(0, v - 1);
    }
    const auto cv = congest::cole_vishkin_3color_forest(n, parent);
    check_proper(parent, cv, "forest trial=" + std::to_string(trial));
  }
}

TEST_CASE(cv_star_forest) {
  // Star: root 0, everyone else a direct child — one round of conflicts.
  const int n = 500;
  std::vector<int> parent(n, 0);
  parent[0] = -1;
  const auto cv = congest::cole_vishkin_3color_forest(n, parent);
  check_proper(parent, cv, "star");
}

TEST_CASE(cv_deterministic) {
  const auto parent = path_parents(1000);
  const auto a = congest::cole_vishkin_3color_forest(1000, parent);
  const auto b = congest::cole_vishkin_3color_forest(1000, parent);
  CHECK(a.color == b.color);
  CHECK(a.rounds == b.rounds);
}
