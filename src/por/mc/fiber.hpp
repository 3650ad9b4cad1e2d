// por/mc/fiber.hpp
// por-lint: allow(orphan-header) the model checker is a build-time tool,
// built only under POR_MC for tests/mc; no workload links it.
//
// Cooperative fibers for the por::mc model checker (DESIGN.md §13).
//
// Every virtual thread of a checked program runs on a ucontext fiber:
// the explorer (running on the ordinary OS stack) resumes exactly one
// fiber at a time, and the fiber yields back whenever the code under
// test performs an instrumented atomic operation.  Because only one
// fiber ever runs, the *host* needs no synchronization at all — every
// interleaving the checker explores is a deterministic, replayable
// sequence of explorer decisions, not an accident of OS scheduling.
//
// This is the mechanism that lets the checker execute the SAME
// template code production runs (StealDeque, JobChannel, the obs
// cells) one atomic step at a time, with ~0.25µs per switch on this
// host — cheap enough to replay hundreds of thousands of executions
// in a unit test.
//
// Single-OS-thread only: the explorer and all fibers it owns must stay
// on the thread that created them (ucontext contexts are not
// migratable, and the checker's thread-local execution pointer assumes
// it).  The model-check tests are therefore *not* run under ASan/TSan
// — the sanitizers do not understand ucontext stack switches — which
// is no loss: the checker explores strictly more schedules than a
// sanitizer run ever observes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <ucontext.h>

namespace por::mc {

/// Raised through a checked body to unwind it when the explorer
/// abandons a truncated execution.  Thrown by the instrumented atomics
/// (model.cpp), caught only by the fiber trampoline — user code must
/// not swallow it (no catch(...) in checked bodies).
struct ExecutionAborted {};

/// One resumable virtual-thread context.  The body runs until it calls
/// yield() (via an instrumented atomic) or returns; resume() continues
/// it from the last yield point.
class Fiber {
 public:
  /// `stack_bytes` must be generous enough for the code under test
  /// plus whatever it calls (contracts, logging); 256 KiB default.
  explicit Fiber(std::size_t stack_bytes = 256 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Arm the fiber with a fresh body.  Must not be running.  The same
  /// Fiber (and its stack) is reused across checker executions.
  void reset(std::function<void()> body);

  /// Run/continue the body until its next yield() or until it returns.
  /// Returns true while the body has more to do, false once finished.
  bool resume();

  /// Called from inside the body (indirectly, via the instrumented
  /// atomics): suspend and transfer control back to resume()'s caller.
  void yield();

  [[nodiscard]] bool finished() const { return finished_; }

  /// The fiber currently executing on this OS thread (nullptr when the
  /// explorer itself is running).  The instrumented atomics use this to
  /// find their yield channel.
  static Fiber* current();

 private:
  static void trampoline();

  std::size_t stack_bytes_;
  std::unique_ptr<char[]> stack_;
  ucontext_t context_{};
  ucontext_t return_context_{};
  std::function<void()> body_;
  bool started_ = false;
  bool finished_ = true;
};

}  // namespace por::mc
