// por/mc/model.hpp
// por-lint: allow(orphan-header) the model checker is a build-time tool,
// built only under POR_MC for tests/mc; no workload links it.
//
// The operational weak-memory model behind por::mc (DESIGN.md §13).
//
// An Execution is one run of a checked program: a set of atomic
// locations, a per-location *modification order* (the list of every
// store, in commit order), per-thread C++11 happens-before vector
// clocks, and an event log.  The model replays the weak behaviors the
// declared std::memory_orders permit instead of the ones the host CPU
// happens to exhibit:
//
//  * A load may read ANY store in the modification order that is not
//    ruled out by coherence (a thread never re-reads something older
//    than it already observed or wrote), by happens-before (a store
//    that is hb-overwritten before the load is invisible), or — for
//    seq_cst loads — by the SC order (a seq_cst load reads no earlier
//    than the last seq_cst store to the same location).  Enumerating
//    these candidates is what reproduces store buffering and stale
//    reads on a strongly-ordered host.
//  * acquire loads that read release stores join the storer's clock
//    into the loader's (synchronizes-with); RMWs carry the release
//    clock of the store they read forward (C++17 release sequences).
//  * RMWs always read the latest store (atomicity); a failed
//    compare_exchange is a pure load under its failure order and may
//    therefore legally read a stale value.
//
// Deliberate simplifications, documented so nobody mistakes this for a
// full C11 model: modification order equals commit order (the DFS
// explores all commit orders, which recovers the lost behaviors);
// fences are not modeled (none of the checked protocols use them —
// the same restriction TSan imposes, see steal_deque.hpp); weak CAS
// never fails spuriously (a spurious failure only re-runs a retry
// loop and would make exhaustive exploration unbounded).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "por/mc/fiber.hpp"  // ExecutionAborted

namespace por::mc {

/// Virtual threads per checked program.  Small on purpose: the DFS is
/// exponential in threads, and every protocol we gate on (owner/thief,
/// producer/consumer pairs) fits comfortably.
inline constexpr int kMaxThreads = 8;

/// Per-thread happens-before clock: entry q counts thread q's
/// committed operations.  Thread id -1 (the explorer / setup context)
/// happens-before everything and needs no entry.
using VectorClock = std::array<std::uint32_t, kMaxThreads>;

VectorClock join(const VectorClock& a, const VectorClock& b);

enum class OpKind : std::uint8_t {
  kLoad,
  kStore,
  kRmw,      ///< fetch_add / successful compare_exchange
  kCasFail,  ///< failed compare_exchange: a pure load
};

/// What a parked virtual thread is waiting to do.  Filled by the
/// instrumented atomic, consumed and answered by the explorer.
struct PendingOp {
  OpKind kind = OpKind::kLoad;
  int loc = -1;
  std::memory_order order = std::memory_order_seq_cst;
  std::memory_order failure_order = std::memory_order_seq_cst;
  /// RMW combiner: new_bits = modify(old_bits, operand).  Null for
  /// plain loads/stores.
  std::uint64_t (*modify)(std::uint64_t, std::uint64_t) = nullptr;
  std::uint64_t operand = 0;   ///< store value / RMW operand / CAS desired
  std::uint64_t expected = 0;  ///< CAS comparand
  bool is_cas = false;
  // Results, filled by Execution::commit:
  std::uint64_t result = 0;  ///< loaded / previous value
  bool cas_success = false;
};

/// One way a pending operation may resolve: which store a load reads,
/// or whether a compare_exchange succeeds.
struct Candidate {
  int store_index = -1;      ///< index into the location's modification order
  bool cas_success = false;  ///< meaningful only for CAS ops
};

/// One committed operation, for trace printing.
struct Event {
  int step = -1;  ///< choice depth; -1 for setup/teardown ops
  int thread = -1;
  OpKind kind = OpKind::kLoad;
  int loc = -1;
  std::memory_order order = std::memory_order_seq_cst;
  std::uint64_t read_bits = 0;     ///< load/CAS/RMW: value observed
  std::uint64_t written_bits = 0;  ///< store/RMW: value left behind
  int rf_step = -1;  ///< step of the store a load read from (-1 = initial)
  bool cas_success = false;
};

/// A conflicting earlier transition discovered while committing — the
/// raw material for dynamic partial-order reduction.
struct Conflict {
  int step;    ///< depth of the earlier, dependent transition
  int thread;  ///< thread that performed it
};

class Execution {
 public:
  Execution();

  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  /// The execution the instrumented atomics talk to (one per OS
  /// thread; the checker installs itself for the body's duration).
  static Execution* current();
  static void set_current(Execution* exec);

  // ---- locations --------------------------------------------------------

  /// Register an atomic location with its initial value.  Called from
  /// mc::atomic's constructor during the (deterministic) setup phase;
  /// the creation order gives stable ids across replayed executions.
  int register_location(std::uint64_t init_bits, std::string name);

  [[nodiscard]] int location_count() const {
    return static_cast<int>(locations_.size());
  }
  [[nodiscard]] const std::string& location_name(int loc) const {
    return locations_[static_cast<std::size_t>(loc)].name;
  }

  // ---- operations (called by mc::atomic) --------------------------------
  //
  // On a fiber these park the thread and yield to the explorer, which
  // prepares candidates and commits; on the explorer's own context
  // (setup before run(), invariant checks after) they apply
  // sequentially — setup happens-before every thread, and by the time
  // the invariants read anything every thread has finished, so the
  // "read the latest store" shortcut is exactly join semantics.

  std::uint64_t atomic_load(int loc, std::memory_order order);
  void atomic_store(int loc, std::uint64_t bits, std::memory_order order);
  std::uint64_t atomic_rmw(int loc,
                           std::uint64_t (*modify)(std::uint64_t,
                                                   std::uint64_t),
                           std::uint64_t operand, std::memory_order order);
  bool atomic_cas(int loc, std::uint64_t& expected_bits,
                  std::uint64_t desired_bits, std::memory_order success,
                  std::memory_order failure);

  // ---- explorer interface ----------------------------------------------

  /// The thread id the next resumed fiber's operations belong to.
  void set_running_thread(int thread) { running_thread_ = thread; }

  [[nodiscard]] bool has_pending(int thread) const {
    return pending_valid_[static_cast<std::size_t>(thread)];
  }
  [[nodiscard]] const PendingOp& pending(int thread) const {
    return pending_[static_cast<std::size_t>(thread)];
  }

  /// Enumerate the ways `thread`'s pending operation may resolve.
  /// Stores and RMWs have exactly one candidate; loads one per
  /// readable store; CAS one per legal failure read plus at most one
  /// success.  Never empty.
  [[nodiscard]] std::vector<Candidate> prepare(int thread) const;

  /// Apply candidate `cand` of `thread`'s pending operation: update the
  /// modification order, clocks and event log, fill the pending op's
  /// result, and return the earlier transitions this one conflicts
  /// with (for DPOR backtracking).  The pending op stays valid until
  /// the fiber is resumed.
  std::vector<Conflict> commit(int thread, const Candidate& cand);

  /// After commit + resume: the fiber consumed its result.
  void clear_pending(int thread) {
    pending_valid_[static_cast<std::size_t>(thread)] = false;
  }

  /// When set, instrumented atomics on fibers raise ExecutionAborted
  /// after parking, unwinding the body so truncated executions can
  /// still run their fibers to completion.
  void request_abort() { abort_requested_ = true; }
  [[nodiscard]] bool abort_requested() const { return abort_requested_; }

  [[nodiscard]] int steps() const { return step_count_; }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

 private:
  struct Store {
    std::uint64_t bits = 0;
    int thread = -1;               ///< -1: setup/teardown context
    std::uint32_t thread_pos = 0;  ///< storer's op ordinal (hb checks)
    bool is_release = false;       ///< carries release_clock
    bool is_sc = false;
    int step = -1;  ///< choice depth that produced it (-1 setup)
    VectorClock release_clock{};
  };

  struct Location {
    std::string name;
    std::vector<Store> stores;  ///< modification order == commit order
    int last_sc_store = -1;     ///< mod-order index of newest seq_cst store
    // DPOR access history: the last write and the reads since it.
    int last_write_step = -1;
    int last_write_thread = -1;
    std::vector<Conflict> readers_since_write;
  };

  struct ThreadModel {
    VectorClock clock{};        ///< C++11 happens-before
    VectorClock dep_clock{};    ///< DPOR dependence order (po + conflicts)
    std::vector<int> observed;  ///< per-location coherence floor (mod index)
  };

  /// Park the calling fiber on `op`, wait for the explorer to commit,
  /// return the filled-in result.  Direct sequential application when
  /// called off-fiber.
  PendingOp& run_op(PendingOp op);
  void apply_sequential(PendingOp& op);

  [[nodiscard]] bool store_hb_before_thread(const Store& store,
                                            int thread) const;
  [[nodiscard]] int read_floor(int thread, int loc,
                               std::memory_order order) const;
  void note_read(int thread, int loc, int store_index,
                 std::memory_order order, PendingOp& op, OpKind kind);
  int append_store(int thread, int loc, std::uint64_t bits,
                   std::memory_order order, const VectorClock* rf_release);

  std::vector<Location> locations_;
  std::array<ThreadModel, kMaxThreads> threads_{};
  std::array<PendingOp, kMaxThreads> pending_{};
  std::array<bool, kMaxThreads> pending_valid_{};
  /// dep clock of each committed step, for DPOR hb filtering.
  std::vector<VectorClock> step_dep_clocks_;
  std::vector<Event> events_;
  PendingOp sequential_result_;  ///< off-fiber ops resolve through here
  int running_thread_ = -1;
  int step_count_ = 0;
  bool abort_requested_ = false;
};

/// Human-readable memory-order / op-kind names for traces.
const char* order_name(std::memory_order order);
const char* op_kind_name(OpKind kind);

}  // namespace por::mc
