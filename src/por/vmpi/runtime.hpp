// por/vmpi/runtime.hpp
//
// Launch a fixed-size group of vmpi ranks and run an SPMD function on
// each, blocking until all ranks return — the in-process equivalent of
// `mpirun -np P ./program`.
#pragma once

#include <functional>

#include "por/vmpi/comm.hpp"

namespace por::vmpi {

/// Aggregate result of one SPMD run.
struct RunReport {
  std::uint64_t messages = 0;  ///< point-to-point messages sent
  std::uint64_t bytes = 0;     ///< payload bytes transferred
  std::uint64_t barriers = 0;  ///< completed barrier episodes
};

/// Spawn `nranks` threads, hand each a Comm bound to its rank, run
/// `rank_main` on every rank, and join.  Exceptions thrown by any rank
/// are captured and, after all ranks finish, the lowest-ranked one is
/// rethrown on the caller's thread — deterministically, whatever order
/// the ranks threw in, so the root's error wins over the errors its
/// peers throw on hearing of it (a rank that throws mid-collective
/// would deadlock its peers in real MPI too; tests exercise only the
/// rethrow-after-completion contract).
///
/// Returns the communication totals for the run.
RunReport run(int nranks, const std::function<void(Comm&)>& rank_main);

/// Same, with a fault-injection plan installed for the runtime's life
/// (por/vmpi/fault.hpp): drop/delay/corrupt rules apply to every
/// matching send, kill rules arm Comm::fault_point.  `stats`, when
/// non-null, receives the injected-fault totals after the join.
RunReport run(int nranks, const FaultPlan& plan,
              const std::function<void(Comm&)>& rank_main,
              FaultStats* stats = nullptr);

}  // namespace por::vmpi
