// The sharded per-round engine: vertex work inside a simulated CONGEST round
// is embarrassingly parallel (rounds are synchronous barriers), so the hot
// simulation paths — heavy-stars pointing, the local LDD's per-round sweeps,
// the rw_routing walk rounds — partition their vertices across a thread pool
// and meet at a barrier per round. A lent ShardPool* is the only thread
// input those layers take; nullptr runs the same code inline.
//
// Four pieces, shared by every sharded engine in the tree:
//
//   * ShardPlan — the contiguous even partition of [0, n). Contiguity is
//     load-bearing: CSR adjacency and MessageMeter slot ids are both laid
//     out in vertex order, so a contiguous vertex slice owns a contiguous
//     slot slice, and per-task outputs concatenated in task order reproduce
//     the serial iteration order exactly.
//   * ShardPool — a persistent pool of worker threads. run(tasks, fn) calls
//     fn(task, worker) for every task index, claims tasks dynamically (so
//     tasks of unequal cost even out), and barriers before returning.
//     With one thread the loop runs inline on the caller, so pooled and
//     unpooled runs share one code body.
//   * for_each_task / parallel_ranges / for_each_chunk — the fan-out call
//     of every pooled loop (whole tasks — clusters, query chunks —,
//     contiguous vertex slices, or contiguous chunks of unequal clusters).
//     A null pool, a one-thread pool or a single task runs inline, so no
//     call site forks on the pool itself. WeightedPlan cuts ranges of
//     unequal clusters at equal shares of their members, not of their
//     count: the Theorem 1.1 contraction numbers clusters by first vertex,
//     so the large ones crowd the low ids.
//   * ShardedMeter — congest::MessageMeter split into per-shard lanes.
//     Each lane owns a contiguous slot slice and is only ever written by its
//     owning shard, so metering is race-free without atomics; merging the
//     lanes (totals summed, peaks maxed) reproduces the serial meter's
//     totals BIT-IDENTICALLY, which is what lets Runtime::audit() keep the
//     PR-5 invariants (conservation, messages <= rounds * edges * peak,
//     charge order) exact under sharding.
//
// Determinism contract: every sharded engine must produce results equal to
// its inline (unpooled) run for EVERY shard count. The engines only
// parallelize loops whose per-vertex effects are independent (pointing,
// relabeling), whose reductions are integer sums/maxes (associative and
// commutative, so task grouping cannot change them), or whose cross-shard
// traffic is exchanged through double-buffered outboxes drained in shard
// order.
// tests/test_shard.cpp sweeps shard counts {1, 2, 7, hardware} and asserts
// bit-identical outputs against the inline runs and, where an engine
// replaced a simpler formulation, against the oracles in tests/oracles.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "congest/runtime.hpp"

namespace mfd::congest {

/// Contiguous even partition of [0, n) into `shards` slices. Slice s is
/// [begin(s), end(s)); sizes differ by at most one.
struct ShardPlan {
  int n = 0;
  int shards = 1;

  ShardPlan() = default;
  ShardPlan(int n_, int shards_)
      : n(std::max(n_, 0)), shards(std::max(shards_, 1)) {}

  int begin(int s) const {
    return static_cast<int>(static_cast<std::int64_t>(n) * s / shards);
  }
  int end(int s) const { return begin(s + 1); }
};

/// Persistent worker pool. Construct once per engine run (thread startup is
/// not free); run() executes fn(task, worker) for task in [0, tasks) with
/// dynamic task claiming, worker in [0, threads()), and returns only after
/// every task finished (the per-round barrier). threads() == 1 executes
/// inline with no synchronization at all.
class ShardPool {
 public:
  /// threads <= 0 asks for std::thread::hardware_concurrency().
  explicit ShardPool(int threads = 0) {
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    threads_ = std::max(1, threads);
    placements_.resize(static_cast<std::size_t>(threads_));
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int w = 1; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  ~ShardPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  int threads() const { return threads_; }

  /// Placement trace: while on, each worker that claims a task in run()
  /// records the CPU it claimed its first one on (sched_getcpu, Linux
  /// only), in the worker's own set. Switch it on and read it between
  /// run() calls, from the thread that calls run(); switching it on clears
  /// the sets.
  void trace_cpus(bool on) {
    tracing_ = on;
    if (!on) return;
    for (Placement& p : placements_) p.cpus.clear();
  }

  /// Distinct CPUs the traced tasks ran on since trace_cpus(true); 0 where
  /// the platform cannot tell.
  int traced_cpus() const {
    std::vector<int> all;
    for (const Placement& p : placements_) {
      all.insert(all.end(), p.cpus.begin(), p.cpus.end());
    }
    std::sort(all.begin(), all.end());
    return static_cast<int>(std::unique(all.begin(), all.end()) - all.begin());
  }

  /// Execute fn(task, worker) for every task in [0, tasks); blocks until all
  /// tasks are done. The calling thread participates as worker 0. A
  /// reentrant call (fn itself calling run on the same pool) executes its
  /// tasks inline on the calling thread: a nested fan-out could never claim
  /// the pool's workers — they are busy running the outer tasks — so
  /// serializing it is both deadlock-free and the fastest correct option.
  /// This is what lets certify_parts fan its light clusters over the pool
  /// while each cluster's game is free to pass the same pool to its replay
  /// stage. A cluster that would outlast the fan-out is instead run outside
  /// any run() (certify_parts' heavy-first pass), so its replays get the
  /// workers.
  void run(int tasks, const std::function<void(int task, int worker)>& fn) {
    if (tasks <= 0) return;
    if (threads_ == 1 || in_run_.load(std::memory_order_relaxed)) {
      for (int t = 0; t < tasks; ++t) fn(t, 0);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      in_run_.store(true, std::memory_order_relaxed);
      fn_ = &fn;
      tasks_ = tasks;
      next_task_.store(0, std::memory_order_relaxed);
      idle_ = 0;
      ++generation_;
    }
    cv_work_.notify_all();
    drain(0);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return idle_ == threads_ - 1; });
    fn_ = nullptr;
    in_run_.store(false, std::memory_order_relaxed);
  }

 private:
  void drain(int worker) {
    // The trace records the CPU of a worker's first task in this run; a
    // drain rarely migrates, and one record per run keeps the shared flag
    // out of the per-task loop.
    bool record = tracing_;
    for (;;) {
      const int t = next_task_.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks_) break;
      if (record) {
        record_cpu(worker);
        record = false;
      }
      (*fn_)(t, worker);
    }
  }

  void record_cpu(int worker) {
#if defined(__linux__)
    const int cpu = sched_getcpu();
    std::vector<int>& cpus = placements_[static_cast<std::size_t>(worker)].cpus;
    if (cpu >= 0 && std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) {
      cpus.push_back(cpu);
    }
#else
    (void)worker;
#endif
  }

  void worker_loop(int worker) {
    std::int64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      drain(worker);
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++idle_;
      }
      cv_done_.notify_one();
    }
  }

  struct alignas(64) Placement {
    std::vector<int> cpus;  // distinct CPUs this worker's tasks ran on
  };

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_, cv_done_;
  const std::function<void(int, int)>* fn_ = nullptr;
  int tasks_ = 0;
  std::atomic<bool> in_run_{false};
  std::atomic<int> next_task_{0};
  int idle_ = 0;
  std::int64_t generation_ = 0;
  bool stop_ = false;
  // The placement trace goes last: the fields above share cache lines with
  // the task counter every worker hits, and shifting them by inserting
  // fields in front measured 16% slower on a 1M-grid contraction.
  std::vector<Placement> placements_;
  bool tracing_ = false;  // written only between run() calls
};

/// congest::MessageMeter split into per-shard lanes. Lane s owns the global
/// slot slice [slot_begin[s], slot_begin[s+1]) and must be the ONLY shard
/// that calls send(s, ...) for slots in that slice — engines shard traffic
/// by source vertex, and slot ids are assigned in source-vertex order, so
/// ownership is automatic. Lanes are cache-line padded; no atomics.
///
/// Merge semantics (the serial-equivalence contract): a round's global peak
/// is the max over lanes of the lane's open-round peak, because every slot
/// lives in exactly one lane; total messages is the sum over lanes; the
/// whole-run peak is the max over rounds of the per-round global peaks.
/// These merged views equal, bit for bit, what one serial MessageMeter fed
/// the same traffic would report — Runtime charges read the merged values,
/// so Runtime::audit() sees sharding-invariant numbers.
class ShardedMeter {
 public:
  ShardedMeter() = default;

  /// slot_begin has size shards+1, ascending; lane s covers global slots
  /// [slot_begin[s], slot_begin[s+1]).
  explicit ShardedMeter(std::vector<std::int64_t> slot_begin)
      : slot_begin_(std::move(slot_begin)) {
    const int shards =
        std::max(1, static_cast<int>(slot_begin_.size()) - 1);
    lanes_.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      const std::int64_t lo = slot_index(s);
      const std::int64_t hi = slot_index(s + 1);
      lanes_.emplace_back(std::max<std::int64_t>(hi - lo, 0), lo);
    }
  }

  int shards() const { return static_cast<int>(lanes_.size()); }

  /// Record `count` messages on global slot `s` from its owning shard.
  /// Same contract as MessageMeter::send (count <= 0 is a no-op query).
  std::int64_t send(int shard, std::int64_t s, std::int64_t count = 1) {
    Lane& lane = lanes_[static_cast<std::size_t>(shard)];
    return lane.meter.send(s - lane.offset, count);
  }

  /// Peak per-slot load of the open round, merged over lanes. Only valid
  /// between barriers (no shard may be mid-send).
  std::int64_t round_peak() const {
    std::int64_t p = 0;
    for (const Lane& lane : lanes_) p = std::max(p, lane.meter.round_peak());
    return p;
  }

  /// Close the open round on every lane (call from the coordinator, at the
  /// barrier). Advances the merged round count by one.
  void end_round() {
    for (Lane& lane : lanes_) lane.meter.end_round();
    ++rounds_;
  }

  std::int64_t rounds() const { return rounds_; }

  /// Merged totals — equal to a serial MessageMeter fed the same traffic.
  std::int64_t total_messages() const {
    std::int64_t t = 0;
    for (const Lane& lane : lanes_) t += lane.meter.total_messages();
    return t;
  }
  std::int64_t peak_congestion() const {
    std::int64_t p = 0;
    for (const Lane& lane : lanes_) {
      p = std::max(p, lane.meter.peak_congestion());
    }
    return p;
  }

  /// Per-lane message totals — the merge trail bench_scale publishes so
  /// scripts/check_bench_json.py can re-derive the merged total offline.
  std::int64_t shard_messages(int s) const {
    return lanes_[static_cast<std::size_t>(s)].meter.total_messages();
  }

 private:
  std::int64_t slot_index(int i) const {
    if (slot_begin_.empty()) return 0;
    i = std::min(i, static_cast<int>(slot_begin_.size()) - 1);
    return slot_begin_[static_cast<std::size_t>(i)];
  }

  struct alignas(64) Lane {
    MessageMeter meter;
    std::int64_t offset = 0;
    Lane(std::int64_t slots, std::int64_t offset_)
        : meter(slots), offset(offset_) {}
  };

  std::vector<std::int64_t> slot_begin_;
  std::vector<Lane> lanes_;
  std::int64_t rounds_ = 0;
};

/// The one fan-out call every pooled loop goes through: fn(task, worker) for
/// every task in [0, tasks) across `pool`. It runs inline — a plain loop,
/// worker 0, no pool bookkeeping — when pool is null, has one thread, or
/// there is at most one task. The last rule is load-bearing: a one-task
/// pool->run would mark the pool busy, and a fan-out nested in that task
/// (certify_parts' lone light cluster replaying its game over the same
/// pool) would then inline instead of using the workers. The same holds
/// for any task: a fan-out nested in a pooled task runs inline, so a
/// caller whose tasks are unequal runs a dominating one outside the
/// fan-out, pool lent, as certify_parts does for its heavy clusters.
template <class Fn>
void for_each_task(ShardPool* pool, int tasks, Fn&& fn) {
  if (pool == nullptr || pool->threads() == 1 || tasks <= 1) {
    for (int t = 0; t < tasks; ++t) fn(t, 0);
    return;
  }
  pool->run(tasks, fn);
}

/// Run fn(lo, hi, task) over an even contiguous partition of [0, n) into
/// `tasks` slices — the shape of every per-vertex sharded loop — through
/// for_each_task, so a null pool runs the slices inline. Empty slices are
/// skipped. Per-task outputs indexed by `task` and folded in task order
/// reproduce serial order.
template <class Fn>
void parallel_ranges(ShardPool* pool, int n, int tasks, Fn&& fn) {
  const ShardPlan plan(n, tasks);
  for_each_task(pool, plan.shards, [&](int t, int /*worker*/) {
    const int lo = plan.begin(t);
    const int hi = plan.end(t);
    if (lo < hi) fn(lo, hi, t);
  });
}

/// Contiguous partition of [0, k) into `shards` ranges of about equal
/// weight — the shape for loops over items of unequal cost (clusters),
/// where an even split by count leaves one range with most of the work.
/// prefix has k + 1 entries, ascending from prefix[0] == 0, and item i
/// weighs prefix[i + 1] - prefix[i] (a cluster's member count, read off
/// group_members' offsets). Range s is [begin(s), end(s)): begin(s) is the
/// first item whose prefix reaches s / shards of the total, so every item
/// sits in the range its starting weight falls in, and an item heavier
/// than a share leaves the ranges it covers empty. The cuts depend only on
/// prefix and shards, so two loops with the same arguments split alike.
class WeightedPlan {
 public:
  WeightedPlan(const std::vector<int>& prefix, int shards)
      : cut_(static_cast<std::size_t>(std::max(shards, 1)) + 1, 0) {
    const int k = std::max(static_cast<int>(prefix.size()) - 1, 0);
    const std::int64_t total = k > 0 ? prefix.back() : 0;
    const int parts = this->shards();
    for (int s = 1; s < parts && k > 0; ++s) {
      // First i with prefix[i] * parts >= total * s.
      const std::int64_t share = (total * s + parts - 1) / parts;
      cut_[static_cast<std::size_t>(s)] = static_cast<int>(
          std::lower_bound(prefix.begin(), prefix.end() - 1, share) -
          prefix.begin());
    }
    cut_.back() = k;
  }

  int shards() const { return static_cast<int>(cut_.size()) - 1; }
  int begin(int s) const { return cut_[static_cast<std::size_t>(s)]; }
  int end(int s) const { return cut_[static_cast<std::size_t>(s) + 1]; }

 private:
  std::vector<int> cut_;
};

/// Chunks per pool thread in a chunked loop: enough for dynamic claiming
/// to even out what the weights miss, few enough that a claim costs
/// nothing.
inline constexpr int kChunksPerThread = 8;

/// Task count of a chunked loop over `pool`: kChunksPerThread per thread,
/// one without a pool.
inline int chunk_count(const ShardPool* pool) {
  const int threads = pool != nullptr ? pool->threads() : 1;
  return threads == 1 ? 1 : threads * kChunksPerThread;
}

/// Run fn(lo, hi, worker) over the WeightedPlan of `prefix` into
/// chunk_count(pool) ranges, claimed dynamically. Empty ranges are
/// skipped; one range, inline, without a pool. Per-item outputs indexed by
/// item and folded in item order reproduce serial order.
template <class Fn>
void for_each_chunk(ShardPool* pool, const std::vector<int>& prefix, Fn&& fn) {
  const WeightedPlan plan(prefix, chunk_count(pool));
  for_each_task(pool, plan.shards(), [&](int t, int worker) {
    const int lo = plan.begin(t);
    const int hi = plan.end(t);
    if (lo < hi) fn(lo, hi, worker);
  });
}

}  // namespace mfd::congest
