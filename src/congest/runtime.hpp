// The shared CONGEST accounting substrate every layer charges through — an
// instrumented engine, not a passive log.
//
// Historically each layer kept its own ad-hoc accounting (ledger phase
// strings, per-round loops in expander/, tracked counters in
// cole_vishkin); Runtime unifies them: one append-only sequence of
// phase-attributed charges, each carrying the simulated CONGEST rounds a
// distributed implementation would pay plus the per-phase message count and
// peak per-edge congestion. Three instruments drive it:
//
//   * ChargeScope — RAII phase composition. Opening a scope on a Runtime
//     gives the callee a fresh sub-runtime; closing it (or leaving the C++
//     scope) absorbs every sub-charge into the parent with the scope's
//     phase name as prefix ("edt: heavy-stars iter 3"). This is the ONE
//     composition idiom in the tree — decomp/, expander/ and apps/ all
//     attribute sub-phases this way.
//   * MessageMeter — per-directed-edge traffic meter a simulating phase
//     drives as it runs: send(slot) per message, end_round() per simulated
//     round. The phase reads its total messages and peak per-edge-per-round
//     congestion into the RoundCharge it charges.
//   * audit() — invariant checker over the finished charge sequence
//     (conservation, bandwidth sanity, phase-order preservation); tests and
//     benches run it so a phase that mis-meters fails loudly.
//
// Units contract (the one every consumer relies on): `rounds` is always in
// simulated CONGEST rounds — never wall clock and never BFS hops. Phases
// that sweep to depth d charge d rounds; symbolic phases (e.g. the
// "log* n / eps preprocessing" of Theorem 1.1) charge their theory value.
// `messages` counts O(log n)-bit messages crossing a directed edge in one
// round; `max_congestion` is the peak number of messages any directed edge
// carried in one round of the phase. Phases are either *measured* (the
// simulation counted every send — MessageMeter or explicit counters) or
// *envelope-charged* (symbolic phases billed at the CONGEST bandwidth
// ceiling of one message per directed edge per round via charge_envelope);
// docs/ARCHITECTURE.md tabulates which phase is which. total() sums rounds
// over phases; charges preserve order so a consumer (benches, apps/) can
// attribute rounds per phase.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace mfd::congest {

/// Iterated-logarithm helper: number of log2 applications taking x to <= 1.
/// The symmetry-breaking budget of Cole–Vishkin-style phases (Theorem 6.1's
/// Omega(log* n) lower bound is stated in exactly these units).
/// Guarded: non-positive and non-finite inputs (NaN, ±inf) return 0 — they
/// are caller bugs, and the guard keeps the loop from spinning on +inf.
inline int log_star(double x) {
  if (!std::isfinite(x)) return 0;
  int r = 0;
  while (x > 1.0) {
    x = std::log2(x);
    ++r;
  }
  return r;
}

/// ceil(log2(x)) with a floor of 1 — the bit width of an id domain of size x.
/// Guarded: non-positive and degenerate domains (x <= 2) clamp to 1 bit, and
/// the shift never reaches 63, so x up to INT64_MAX is overflow-safe
/// (everything past 2^62 reports 62 bits).
inline int ceil_log2(std::int64_t x) {
  if (x <= 2) return 1;
  int bits = 1;
  while (bits < 62 && (std::int64_t{1} << bits) < x) ++bits;
  return bits;
}

/// a * b for non-negative a and b, saturated at INT64_MAX. The bandwidth
/// products (rounds * edges * congestion) of long phases on huge graphs can
/// pass 2^63; a saturated product still compares correctly against any
/// int64 message count.
inline std::int64_t saturating_mul(std::int64_t a, std::int64_t b) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (a != 0 && b > kMax / a) return kMax;
  return a * b;
}

/// One phase-attributed charge (see the header comment for units). `seq` is
/// the global charge order stamped by the owning Runtime; audit() verifies
/// it stays strictly increasing (phase-order preservation).
struct RoundCharge {
  std::string phase;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;        // O(log n)-bit messages sent in the phase
  std::int64_t max_congestion = 0;  // peak per-directed-edge per-round load
  std::int64_t seq = 0;
};

/// Per-directed-edge message meter. A simulating phase constructs one with
/// its directed-edge (slot) count, calls send(slot) for every O(log n)-bit
/// message it simulates and end_round() at each simulated round boundary,
/// then reads total_messages()/peak_congestion() into its phase charge
/// (expander/rw_routing drives one through both sim engines). send()
/// returns the slot's load within the open round so engines that price
/// queueing can react to it. Phases whose per-round traffic is uniform and
/// known in closed form charge through Runtime::charge_envelope instead of
/// a slot loop.
class MessageMeter {
 public:
  MessageMeter() = default;
  explicit MessageMeter(std::int64_t directed_slots) {
    load_.assign(static_cast<std::size_t>(std::max<std::int64_t>(directed_slots, 0)), 0);
  }

  /// Record `count` messages crossing directed slot `s` in the open round;
  /// returns the slot's load so far this round.
  ///
  /// Contract for non-positive counts: metering is monotone, so count <= 0
  /// is a no-op QUERY — it records nothing, does not mark the slot as
  /// touched (touched_ means "nonzero load this round"; the sharded merge
  /// in congest/shard.hpp and per-round cleanup both rely on that being
  /// literally true), and negative counts never un-send traffic. The return
  /// value is still the slot's load so far this round, so send(s, 0) reads
  /// a slot's open-round load without perturbing the meter.
  std::int64_t send(std::int64_t s, std::int64_t count = 1) {
    const bool tracked = s >= 0 && s < static_cast<std::int64_t>(load_.size());
    if (count <= 0) {
      return tracked ? load_[static_cast<std::size_t>(s)] : 0;
    }
    messages_ += count;
    std::int64_t slot_load = count;
    if (tracked) {
      if (load_[static_cast<std::size_t>(s)] == 0) touched_.push_back(s);
      slot_load = load_[static_cast<std::size_t>(s)] += count;
    }
    open_peak_ = std::max(open_peak_, slot_load);
    peak_ = std::max(peak_, slot_load);
    return slot_load;
  }

  /// Peak per-slot load of the open (not yet ended) round.
  std::int64_t round_peak() const { return open_peak_; }

  /// Close the open simulated round: one more round elapsed, loads reset.
  void end_round() {
    ++rounds_;
    for (std::int64_t s : touched_) load_[static_cast<std::size_t>(s)] = 0;
    touched_.clear();
    open_peak_ = 0;
  }

  std::int64_t rounds() const { return rounds_; }
  std::int64_t total_messages() const { return messages_; }
  std::int64_t peak_congestion() const { return peak_; }

 private:
  std::vector<std::int64_t> load_;     // per-slot load of the open round
  std::vector<std::int64_t> touched_;  // slots with nonzero load this round
  std::int64_t rounds_ = 0;
  std::int64_t messages_ = 0;
  std::int64_t peak_ = 0;
  std::int64_t open_peak_ = 0;
};

/// Peak-congestion floor for a phase whose simulation counted `messages`
/// in bulk (sequentially, not per round): the smallest peak any schedule of
/// `rounds` rounds over `directed_edges` edges could have had. Phases that
/// cannot attribute their traffic per round charge this — it keeps the
/// bandwidth identity messages <= rounds * edges * congestion tight instead
/// of guessing 1.
inline std::int64_t congestion_floor(std::int64_t messages, std::int64_t rounds,
                                     std::int64_t directed_edges) {
  if (messages <= 0) return 0;
  const std::int64_t capacity =
      saturating_mul(std::max<std::int64_t>(rounds, 1),
                     std::max<std::int64_t>(directed_edges, 1));
  return (messages - 1) / capacity + 1;
}

/// Verdict of Runtime::audit(). `ok` is the headline; `violation` names the
/// first broken invariant (empty when ok) so tests can print it.
struct AuditResult {
  bool ok = true;
  std::string violation;
};

/// The substrate itself: append-only phase charges. Everything in decomp/,
/// expander/ and apps/ charges simulated rounds through one of these.
class Runtime {
 public:
  void charge(const std::string& phase, std::int64_t rounds,
              std::int64_t messages = 0, std::int64_t max_congestion = 0) {
    entries_.push_back({phase, rounds, messages, max_congestion, next_seq_++});
  }

  /// Envelope charge for a symbolic phase: bill the CONGEST bandwidth
  /// ceiling of one O(log n)-bit message per directed edge per round. Keeps
  /// symbolic phases (preprocessing, +T routing setup) non-degenerate in the
  /// bandwidth audit without pretending they were simulated.
  void charge_envelope(const std::string& phase, std::int64_t rounds,
                       std::int64_t directed_edges) {
    const bool live = rounds > 0 && directed_edges > 0;
    charge(phase, rounds, live ? saturating_mul(rounds, directed_edges) : 0,
           live ? 1 : 0);
  }

  /// Fold another runtime's charges into this one, phase names prefixed —
  /// how a composed algorithm (EDT inside approx-MIS, split inside the
  /// expander-decomp pipeline) attributes its sub-phases. Prefer ChargeScope,
  /// which does this automatically on scope exit.
  void absorb(const Runtime& sub, const std::string& prefix = "") {
    for (const RoundCharge& e : sub.entries_) {
      entries_.push_back({prefix.empty() ? e.phase : prefix + e.phase, e.rounds,
                          e.messages, e.max_congestion, next_seq_++});
    }
  }

  /// Total simulated CONGEST rounds over all phases.
  std::int64_t total() const {
    std::int64_t t = 0;
    for (const RoundCharge& e : entries_) t += e.rounds;
    return t;
  }

  /// Total messages over all phases (measured + envelope).
  std::int64_t total_messages() const {
    std::int64_t t = 0;
    for (const RoundCharge& e : entries_) t += e.messages;
    return t;
  }

  /// Peak per-edge per-round congestion observed by any phase.
  std::int64_t peak_congestion() const {
    std::int64_t c = 0;
    for (const RoundCharge& e : entries_) c = std::max(c, e.max_congestion);
    return c;
  }

  /// Invariant checker over the finished charge sequence:
  ///   * conservation — rounds, messages and congestion are never negative,
  ///     and a phase that sent messages took at least one round on at least
  ///     one edge (messages > 0 implies rounds >= 1 and congestion >= 1);
  ///   * peak sanity — the per-round peak of one edge cannot exceed the
  ///     phase's total messages, and a phase with no messages has no
  ///     congestion to report;
  ///   * bandwidth sanity (when the caller passes its directed-edge count) —
  ///     messages <= rounds * directed_edges * max_congestion, i.e.
  ///     max_congestion * rounds >= messages / directed_edges;
  ///   * phase-order preservation — charge sequence numbers strictly
  ///     increase, so no consumer reordered or spliced the log.
  /// Pass directed_edges = 2 * m of the LARGEST graph the runtime's phases
  /// ran on (sub-phases run on subgraphs, which only slackens the bound).
  AuditResult audit(std::int64_t directed_edges = 0) const {
    AuditResult r;
    std::int64_t prev_seq = -1;
    for (const RoundCharge& e : entries_) {
      const auto fail = [&r, &e](const std::string& why) {
        r.ok = false;
        r.violation = "phase '" + e.phase + "': " + why;
      };
      if (e.rounds < 0 || e.messages < 0 || e.max_congestion < 0) {
        fail("negative rounds/messages/congestion");
        return r;
      }
      if (e.messages > 0 && (e.rounds < 1 || e.max_congestion < 1)) {
        fail("messages without rounds or congestion");
        return r;
      }
      if (e.messages == 0 && e.max_congestion > 0) {
        fail("congestion without messages");
        return r;
      }
      if (e.max_congestion > e.messages) {
        fail("per-edge peak exceeds total messages");
        return r;
      }
      if (directed_edges > 0 && e.messages > 0 &&
          e.messages > saturating_mul(saturating_mul(e.rounds, directed_edges),
                                      e.max_congestion)) {
        fail("messages exceed rounds * edges * peak congestion");
        return r;
      }
      if (e.seq <= prev_seq) {
        fail("charge order not preserved");
        return r;
      }
      prev_seq = e.seq;
    }
    return r;
  }

  const std::vector<RoundCharge>& entries() const { return entries_; }

 private:
  std::vector<RoundCharge> entries_;
  std::int64_t next_seq_ = 0;
};

/// RAII phase scope: charges made through the scope (or absorbed into its
/// sub-runtime) land in the parent prefixed with "<phase>: " when the scope
/// closes — destructor or explicit close(), whichever comes first. Replaces
/// hand-written `parent.absorb(sub, "phase: ")` calls so there is exactly
/// one composition idiom in the tree.
class ChargeScope {
 public:
  ChargeScope(Runtime& parent, std::string phase)
      : parent_(&parent), prefix_(std::move(phase) + ": ") {}
  ChargeScope(const ChargeScope&) = delete;
  ChargeScope& operator=(const ChargeScope&) = delete;
  ~ChargeScope() { close(); }

  /// The scope's sub-runtime — hand it to a callee that expects a Runtime.
  Runtime& runtime() { return local_; }

  void charge(const std::string& phase, std::int64_t rounds,
              std::int64_t messages = 0, std::int64_t max_congestion = 0) {
    local_.charge(phase, rounds, messages, max_congestion);
  }

  void charge_envelope(const std::string& phase, std::int64_t rounds,
                       std::int64_t directed_edges) {
    local_.charge_envelope(phase, rounds, directed_edges);
  }

  void absorb(const Runtime& sub, const std::string& prefix = "") {
    local_.absorb(sub, prefix);
  }

  /// Absorb into the parent with the phase prefix; idempotent.
  void close() {
    if (parent_ != nullptr) {
      parent_->absorb(local_, prefix_);
      parent_ = nullptr;
    }
  }

 private:
  Runtime* parent_;
  std::string prefix_;
  Runtime local_;
};

/// What an apps/-layer solver reports next to its solution: the headline
/// round count, the decomposition's routing term T, the cluster count it
/// programmed against, and the full phase breakdown. total_rounds must equal
/// runtime.total() — finish() pins that.
///
/// The tier_* / bb_* / solve_ms block is the cluster-ladder audit trail
/// (apps/treewidth.hpp): every per-cluster solve lands in exactly one tier
/// (tier_forest + tier_tw_dp + tier_bb + tier_greedy == clusters for the
/// ladder solvers — scripts/check_bench_json.py re-checks this offline), the
/// bb_* columns surface branch-and-bound effort so a tier-choice regression
/// shows up in bench JSON instead of silently, and solve_ms is the summed
/// wall time of the per-cluster solver calls (a timing, not part of the
/// deterministic output contract).
struct SolverStats {
  std::int64_t total_rounds = 0;  // == runtime.total() after finish()
  std::int64_t T = 0;             // routing-structure term of the decomposition
  std::int64_t clusters = 0;      // clusters the solver solved locally
  // Per-tier cluster counts from the width-gated solver ladder.
  std::int64_t tier_forest = 0;   // exact forest/tree DP
  std::int64_t tier_tw_dp = 0;    // treewidth DP (computed width <= tw_cap)
  std::int64_t tier_bb = 0;       // budgeted exact search, budget survived
  std::int64_t tier_greedy = 0;   // pruned-greedy fallback
  int max_width_dp = -1;          // widest decomposition a tw-DP solve used
  // Branch-and-bound effort (MdsBranch / MisSolver searches).
  std::int64_t bb_runs = 0;        // searches launched
  std::int64_t bb_nodes = 0;       // total nodes explored
  std::int64_t bb_exact_runs = 0;  // searches that finished within budget
  double solve_ms = 0.0;           // summed per-cluster solver wall time
  Runtime runtime;                 // phase-attributed breakdown

  void finish() { total_rounds = runtime.total(); }
};

}  // namespace mfd::congest
