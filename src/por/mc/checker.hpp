// por/mc/checker.hpp
// por-lint: allow(orphan-header) the model checker is a build-time tool,
// built only under POR_MC for tests/mc; no workload links it.
//
// The por::mc explorer (DESIGN.md §13): deterministic model checking
// for the lock-free protocols the rest of the system is built on.
//
//   mc::Options opts;                      // exhaustive by default
//   mc::Result r = mc::explore(opts, [](mc::Env& env) {
//     StealDeque<int, mc::atomic> deque(4);   // the PRODUCTION template
//     std::vector<int> popped, stolen;
//     env.thread([&] { /* owner: push/pop */ });
//     env.thread([&] { /* thief: steal    */ });
//     env.run();                           // all interleavings explored here
//     env.expect(no_duplicates(popped, stolen), "element taken twice");
//   });
//   ASSERT_TRUE(r.ok) << r.trace;          // trace = minimal failing schedule
//
// The body runs once per execution: construct the shared state, spawn
// virtual threads, run(), then assert invariants on the joined result.
// In exhaustive mode the explorer performs a stateless depth-first
// search over every scheduling decision and every legal read-from
// choice (see model.hpp), pruned with dynamic partial-order reduction:
// a backtrack point is added only where two transitions on the same
// location, at least one a write, from different threads, are not
// already ordered by the dependence relation — the Flanagan–Godefroid
// construction, with conflict-vector clocks deciding "already
// ordered".  Random-walk mode replays `max_executions` seeded uniform
// schedules instead, the fallback for configurations too large to
// exhaust.
//
// On a violation the explorer shrinks the failing schedule by greedily
// merging same-thread blocks (replaying each candidate to confirm the
// failure survives) and formats the result: the interleaved step list
// plus per-thread event logs, with the values each load observed — the
// reordering that exposes the bug, in a form a human can replay.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace por::mc {

enum class Mode {
  kExhaustive,  ///< DFS + DPOR over every schedule and read-from choice
  kRandomWalk,  ///< `max_executions` seeded uniform random schedules
};

struct Options {
  Mode mode = Mode::kExhaustive;
  /// Execution budget.  0 means unlimited in exhaustive mode (the DFS
  /// runs until the space is exhausted); random walk requires > 0.
  std::uint64_t max_executions = 0;
  /// Per-execution step bound — a brake against unbounded retry loops
  /// in checked bodies, not a tuning knob.  A truncated execution
  /// clears Result::complete.
  int max_steps_per_execution = 20000;
  std::uint64_t seed = 1;  ///< random-walk schedule seed
  /// Replays spent shrinking a failing schedule before printing it.
  int minimize_budget = 500;
};

struct Result {
  bool ok = true;
  /// Exhaustive mode: the whole space was explored — no execution was
  /// truncated and the budget was not hit.  Always false for random
  /// walk (sampling proves nothing exhaustively).
  bool complete = false;
  std::uint64_t executions = 0;
  std::uint64_t total_steps = 0;
  std::string failure;  ///< first violated expectation (empty when ok)
  std::string trace;    ///< minimal failing interleaving (empty when ok)
};

class Explorer;

/// The checked program's handle to the explorer.  Valid only inside
/// the body passed to explore(), for one execution.
class Env {
 public:
  explicit Env(Explorer& explorer) : explorer_(explorer) {}
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Register a virtual thread (at most kMaxThreads).  Must precede
  /// run(); bodies execute only inside run().
  void thread(std::function<void()> body);

  /// Run every registered thread to completion under the explorer's
  /// schedule.  Exactly once per execution.
  void run();

  /// Record a violation (first one wins).  Callable from thread
  /// bodies and from the invariant code after run().
  void expect(bool condition, const std::string& message);

 private:
  Explorer& explorer_;
};

/// Explore `body` under `options`.  The body is invoked once per
/// execution and must be deterministic apart from the scheduling the
/// explorer controls (no wall clocks, no host RNG).
Result explore(const Options& options,
               const std::function<void(Env&)>& body);

}  // namespace por::mc
