#include "por/vmpi/runtime.hpp"

#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

namespace por::vmpi {

RunReport run(int nranks, const std::function<void(Comm&)>& rank_main) {
  return run(nranks, FaultPlan{}, rank_main, nullptr);
}

RunReport run(int nranks, const FaultPlan& plan,
              const std::function<void(Comm&)>& rank_main,
              FaultStats* stats) {
  if (nranks < 1) throw std::invalid_argument("vmpi::run: nranks must be >= 1");

  detail::Context context(nranks, plan);

  // One slot per rank, each written only by its own thread: the error
  // rethrown below is chosen by rank, not by which thread threw first.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));

  auto rank_body = [&](int rank) {
    Comm comm(context, rank);
    try {
      rank_main(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(rank)] = std::current_exception();
    }
  };

  if (nranks == 1) {
    rank_body(0);
  } else {
    std::vector<std::thread> ranks;
    ranks.reserve(nranks);
    for (int r = 0; r < nranks; ++r) {
      ranks.emplace_back(rank_body, r);
    }
    for (auto& thread : ranks) thread.join();
  }

  if (stats != nullptr) {
    *stats = FaultStats{
        context.faults_dropped.load(),   context.faults_delayed.load(),
        context.faults_corrupted.load(), context.faults_killed.load(),
        context.recv_timeouts.load()};
  }

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  return RunReport{context.traffic.messages(), context.traffic.bytes(),
                   context.traffic.barriers()};
}

}  // namespace por::vmpi
