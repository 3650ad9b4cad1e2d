#include "por/core/parallel_refiner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "por/fft/parallel_fft3d.hpp"
#include "por/io/map_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/io/master_io.hpp"
#include "por/obs/registry.hpp"
#include "por/resilience/checkpoint.hpp"
#include "por/resilience/retry.hpp"
#include "por/serve/scheduler.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/log.hpp"
#include "por/util/timer.hpp"

namespace por::core {

namespace {

// Work protocol tags (DESIGN.md §10).  kCtrlTag carries a
// vector<u64> of global view indices from the master: non-empty means
// "refine these" and is followed by matching kInitTag / kViewBlockTag
// payloads; empty means "stop".  kResultTag carries one ResultMsg per
// refined view back to the master — each doubles as a heartbeat — and
// a kDoneIndex sentinel closing a batch.
constexpr vmpi::Tag kViewBlockTag = 200;
constexpr vmpi::Tag kInitTag = 201;
constexpr vmpi::Tag kResultTag = 202;
constexpr vmpi::Tag kCtrlTag = 203;

constexpr std::uint64_t kDoneIndex =
    std::numeric_limits<std::uint64_t>::max();

/// One refined view streamed back to the master (or, with
/// view_index == kDoneIndex, a batch-complete marker).
struct ResultMsg {
  std::uint64_t view_index = kDoneIndex;
  ViewResult result;
};

/// Scoped override of the rank's communication deadline
/// (ResilienceOptions::comm_deadline); restores the previous deadline
/// even when the refinement throws.
class DeadlineGuard {
 public:
  DeadlineGuard(vmpi::Comm& comm, std::chrono::milliseconds deadline)
      : comm_(comm), saved_(comm.deadline()) {
    if (deadline.count() > 0) comm_.set_deadline(deadline);
  }
  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;
  ~DeadlineGuard() { comm_.set_deadline(saved_); }

 private:
  vmpi::Comm& comm_;
  std::chrono::milliseconds saved_;
};

/// Per-worker bookkeeping on the master side.
struct WorkerState {
  std::vector<std::uint64_t> pending;  ///< assigned, no result yet
  bool done = true;   ///< batch-complete marker received (idle)
  bool alive = true;  ///< false once the failure detector fired
};

/// Root's input checks: map and view edges against `l`, and one
/// initial orientation (and center, when given) per view.
void check_root_inputs(const em::Volume<double>& map, std::size_t l,
                       const stream::ViewSource& source, std::size_t n_initial,
                       std::size_t n_centers) {
  if (map.nx() != l || !map.is_cube()) {
    throw std::invalid_argument("parallel_refine: map edge mismatch");
  }
  // Every view buffer downstream is l x l: a stack of another edge
  // would overrun them (or be matched on a prefix of each view).
  if (source.count() > 0 && (source.nx() != l || source.ny() != l)) {
    throw std::invalid_argument("parallel_refine: view edge mismatch");
  }
  if (n_initial != source.count() ||
      (n_centers != 0 && n_centers != source.count())) {
    throw std::invalid_argument("parallel_refine: input sizes disagree");
  }
}

/// Every rank throws once root's verdict says its inputs failed: root
/// rethrows its own exception, the others a runtime_error.  Root runs
/// its checks before the first collective and sends the verdict on
/// one, so no rank is left blocked on a root that has already thrown;
/// vmpi::run rethrows the lowest-ranked error, so root's (and its
/// corrupt or transient classification) is the one the caller sees.
void throw_on_root_failure(bool root_failed,
                           const std::exception_ptr& root_error) {
  if (!root_failed) return;
  if (root_error) std::rethrow_exception(root_error);
  throw std::runtime_error("parallel_refine: the root rank rejected its input");
}

/// The shared steps (a)-(o) once the root holds the map and the
/// orientations in memory and can reach the views through a
/// stream::ViewSource (in-core vector or sharded stack — the protocol
/// below never needs the whole stack resident).  `source_on_root` must
/// be non-null on the root rank only, and root's inputs must already
/// have passed check_root_inputs.
ParallelRefineReport refine_distributed(
    vmpi::Comm& comm, const em::Volume<double>& map_on_root, std::size_t l,
    stream::ViewSource* source_on_root,
    const std::vector<em::Orientation>& initial_on_root,
    const std::vector<std::pair<double, double>>& centers_on_root,
    const RefinerConfig& config) {
  // Per-rank metrics: ranks are threads, so a rank-local registry
  // installed for the duration of this call keeps each rank's counters
  // and spans separate.  Everything constructed below (matcher,
  // refiner, FFT plans) resolves its handles against this registry.
  obs::MetricsRegistry rank_registry;
  obs::RegistryScope registry_scope(rank_registry);
  obs::SpanSeries& dft_span = rank_registry.span_series("step.3D DFT");
  obs::SpanSeries& read_span = rank_registry.span_series("step.Read image");

  // TrafficStats and FaultStats accumulate over the runtime's whole
  // life (several pipeline cycles may share one vmpi::Runtime);
  // remember the baselines so the report covers this call only.
  const int rank = comm.rank();
  const std::uint64_t messages_before = comm.traffic().rank_messages(rank);
  const std::uint64_t bytes_before = comm.traffic().rank_bytes(rank);
  const vmpi::FaultStats faults_before = comm.fault_stats();

  // Blocking receives (and thus collectives) on every rank honor the
  // configured deadline for the duration of this call, so a dead peer
  // yields a typed vmpi::CommTimeout instead of an eternal hang.
  const DeadlineGuard deadline_guard(comm, config.resilience.comm_deadline);

  // ---- step (a): pruned slab-parallel 3D DFT; all-gather of its ball ----
  // The root scatters the unpadded map; no rank builds the padded cube.
  util::WallTimer dft_timer;
  const MatchOptions match = config.matcher_options();
  const fft::CubeCrop ball = FourierMatcher::ball(l, match);
  em::Volume<em::cdouble> spectrum_ball(ball.edge);
  spectrum_ball.storage() = fft::parallel_padded_fft3d(
      comm, map_on_root.storage(), l, match.pad, ball);
  dft_span.record(static_cast<std::uint64_t>(dft_timer.seconds() * 1e9));

  // Every rank may be handed work (initially or by reassignment), so
  // every rank builds the refiner.
  const OrientationRefiner refiner(
      FourierMatcher(std::move(spectrum_ball), l, match),
      config);
  const std::unique_ptr<serve::Scheduler> scheduler = refiner.make_scheduler();

  ParallelRefineReport report;
  std::uint64_t my_matchings = 0, my_slides = 0;

  if (comm.is_root()) {
    // ---- master: restore, distribute, listen, recover --------------------
    stream::ViewSource& source = *source_on_root;
    const std::size_t total_views = static_cast<std::size_t>(source.count());
    const auto start_of = [&](std::uint64_t i) {
      return centers_on_root.empty()
                 ? ViewStart{initial_on_root[i]}
                 : ViewStart{initial_on_root[i], centers_on_root[i].first,
                             centers_on_root[i].second};
    };

    report.results.assign(total_views, ViewResult{});
    std::vector<char> recorded(total_views, 0);
    std::size_t n_recorded = 0;

    // Checkpoint restore (step 0 of a resumed run): views already in
    // the log are final — per-view refinement is deterministic, so
    // restoring beats recomputing bit-for-bit.
    std::vector<resilience::CheckpointRecord> seed;
    const ResilienceOptions& res = config.resilience;
    if (!res.checkpoint_path.empty() && res.resume) {
      seed = resilience::load_checkpoint(res.checkpoint_path);
      for (const auto& rec : seed) {
        if (rec.view_index >= total_views) {
          util::log_warn("parallel_refine: checkpoint record for view ",
                         rec.view_index, " outside stack of ", total_views,
                         " views; ignored");
          continue;
        }
        if (recorded[rec.view_index]) continue;
        recorded[rec.view_index] = 1;
        report.results[rec.view_index] = from_record(rec);
        ++n_recorded;
        ++report.restored_views;
      }
    }
    std::optional<resilience::CheckpointWriter> checkpoint;
    if (!res.checkpoint_path.empty()) {
      checkpoint.emplace(res.checkpoint_path, res.checkpoint_flush_every,
                         std::move(seed));
    }

    const auto record_result = [&](std::uint64_t index, const ViewResult& vr) {
      // First result wins.  A rank falsely declared dead may deliver a
      // duplicate after its views were reassigned; the duplicate is
      // bit-identical anyway (deterministic per-view refinement), so
      // dropping it keeps the bookkeeping single-writer.
      if (index >= total_views || recorded[index]) return;
      recorded[index] = 1;
      report.results[index] = vr;
      ++n_recorded;
      if (checkpoint) checkpoint->append(to_record(index, vr));
    };
    // Steps (d)-(l) on the master — its own block and any orphan it
    // cannot delegate — through the refiner's one per-view loop, each
    // view read from the source as it comes up.  `listen` runs before
    // every fetch.
    const auto refine_local = [&](const std::vector<std::uint64_t>& idxs,
                                  const std::function<void()>& listen) {
      refiner.refine_each(
          idxs.size(),
          [&](std::size_t k, double* pixels) {
            if (listen) listen();
            source.fetch(idxs[k], pixels);
            return start_of(idxs[k]);
          },
          [&](std::size_t k, const ViewResult& vr) {
            my_matchings += vr.matchings;
            my_slides += static_cast<std::uint64_t>(vr.window_slides);
            record_result(idxs[k], vr);
          },
          scheduler.get());
    };

    // ---- steps (b)+(c): distribute the remaining views -------------------
    util::WallTimer read_timer;
    std::vector<std::uint64_t> remaining;
    remaining.reserve(total_views - n_recorded);
    for (std::uint64_t i = 0; i < total_views; ++i) {
      if (!recorded[i]) remaining.push_back(i);
    }

    const auto inits_for = [&](const std::vector<std::uint64_t>& idxs) {
      std::vector<ViewStart> init;
      init.reserve(idxs.size());
      for (const std::uint64_t i : idxs) init.push_back(start_of(i));
      return init;
    };
    const auto pixels_for = [&](const std::vector<std::uint64_t>& idxs) {
      // Ranged streaming (DESIGN.md §14): the master fetches exactly
      // the block being shipped — at no point does it hold more than
      // one assignment's pixels plus its own group of views.
      if (!idxs.empty()) source.will_need(idxs.front(), idxs.size());
      std::vector<double> flat(idxs.size() * l * l);
      for (std::size_t k = 0; k < idxs.size(); ++k) {
        source.fetch(idxs[k], flat.data() + k * l * l);
      }
      return flat;
    };

    std::vector<WorkerState> workers(comm.size());
    const auto send_assignment = [&](int r, std::vector<std::uint64_t> idxs) {
      comm.send(r, kCtrlTag, idxs);
      comm.send(r, kInitTag, inits_for(idxs));
      comm.send(r, kViewBlockTag, pixels_for(idxs));
      workers[r].done = false;
      workers[r].pending = std::move(idxs);
    };

    std::vector<std::uint64_t> my_block;
    for (int r = 0; r < comm.size(); ++r) {
      const std::size_t begin =
          io::block_begin(remaining.size(), comm.size(), r);
      const std::size_t share =
          io::block_share(remaining.size(), comm.size(), r);
      std::vector<std::uint64_t> idxs(remaining.begin() + begin,
                                      remaining.begin() + begin + share);
      if (r == 0) {
        my_block = std::move(idxs);
      } else if (!idxs.empty()) {
        // A rank with no initial share simply never hears kCtrlTag
        // until the final stop; it stays idle and reassignable.
        send_assignment(r, std::move(idxs));
      }
    }
    read_span.record(static_cast<std::uint64_t>(read_timer.seconds() * 1e9));

    // ---- steps (d)-(l) + failure detection + recovery --------------------
    std::vector<std::uint64_t> orphans;
    const auto erase_pending = [&](std::uint64_t index) {
      // A reassigned view can sit in up to two ranks' pending sets.
      for (auto& w : workers) {
        auto it = std::find(w.pending.begin(), w.pending.end(), index);
        if (it != w.pending.end()) w.pending.erase(it);
      }
    };
    const auto process_msg = [&](int src, const ResultMsg& msg) {
      WorkerState& w = workers[src];
      w.alive = true;  // any message proves life, even post-declaration
      if (msg.view_index == kDoneIndex) {
        w.done = true;
        if (!w.pending.empty()) {
          // The batch closed but some of its results never arrived —
          // they were lost in transit (dropped messages).  Recover
          // them the same way as a dead rank's views.
          orphans.insert(orphans.end(), w.pending.begin(), w.pending.end());
          w.pending.clear();
        }
        return;
      }
      if (msg.view_index >= total_views) {
        util::log_warn("parallel_refine: discarding malformed result for "
                       "view ",
                       msg.view_index, " from rank ", src);
        return;
      }
      record_result(msg.view_index, msg.result);
      erase_pending(msg.view_index);
    };
    const auto dispatch_orphans = [&]() {
      if (orphans.empty()) return;
      report.reassigned_views += orphans.size();
      rank_registry.counter("resilience.reassigned_views")
          .add(orphans.size());
      std::vector<int> idle;
      for (int r = 1; r < comm.size(); ++r) {
        if (workers[r].alive && workers[r].done) idle.push_back(r);
      }
      if (idle.empty()) {
        // Nobody to delegate to: the master is always alive, refine
        // the orphans here so the run is guaranteed to terminate.  A
        // view can be orphaned twice (reassigned, then lost again).
        std::vector<std::uint64_t> todo;
        for (const std::uint64_t index : orphans) {
          if (!recorded[index]) todo.push_back(index);
        }
        std::sort(todo.begin(), todo.end());
        todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
        refine_local(todo, {});
      } else {
        std::vector<std::vector<std::uint64_t>> shares(idle.size());
        for (std::size_t i = 0; i < orphans.size(); ++i) {
          shares[i % idle.size()].push_back(orphans[i]);
        }
        for (std::size_t k = 0; k < idle.size(); ++k) {
          if (!shares[k].empty()) {
            send_assignment(idle[k], std::move(shares[k]));
          }
        }
      }
      orphans.clear();
    };

    // The master refines its own block first, draining worker results
    // opportunistically before every fetch so the mailbox stays
    // shallow.  Results are recorded on this rank thread (record_result
    // and the checkpoint writer are single-writer), so the protocol
    // state is untouched by the scheduler's parallelism.
    int src = 0;
    const auto drain_mailbox = [&] {
      while (const auto msg = comm.try_recv_any_value<ResultMsg>(
                 kResultTag, src, std::chrono::milliseconds{0})) {
        process_msg(src, *msg);
      }
      dispatch_orphans();
    };
    refine_local(my_block, drain_mailbox);

    // Event loop: every incoming result is a heartbeat.  Total silence
    // for heartbeat_timeout while views are still outstanding means
    // the ranks holding them are gone; their views become orphans.
    while (n_recorded < total_views) {
      const auto msg = comm.try_recv_any_value<ResultMsg>(
          kResultTag, src, config.resilience.heartbeat_timeout);
      if (msg) {
        process_msg(src, *msg);
        dispatch_orphans();
        continue;
      }
      bool declared = false;
      for (int r = 1; r < comm.size(); ++r) {
        WorkerState& w = workers[r];
        if (w.alive && !w.done && !w.pending.empty()) {
          util::log_warn("parallel_refine: rank ", r, " silent for ",
                         config.resilience.heartbeat_timeout.count(),
                         " ms with ", w.pending.size(),
                         " views outstanding; declaring it dead");
          w.alive = false;
          ++report.dead_ranks;
          rank_registry.counter("resilience.dead_ranks").add();
          orphans.insert(orphans.end(), w.pending.begin(), w.pending.end());
          w.pending.clear();
          declared = true;
        }
      }
      if (declared) {
        dispatch_orphans();
      } else {
        // Silence with nothing assigned anywhere: unreachable by
        // construction, but never spin — finish locally.
        std::vector<std::uint64_t> todo;
        for (std::uint64_t i = 0; i < total_views; ++i) {
          if (!recorded[i]) todo.push_back(i);
        }
        refine_local(todo, {});
      }
    }
    if (checkpoint) checkpoint->flush();

    // Release every worker — including zombies, which drain their
    // queue until this empty control message arrives.
    for (int r = 1; r < comm.size(); ++r) {
      comm.send(r, kCtrlTag, std::vector<std::uint64_t>{});
    }

    for (const auto& vr : report.results) {
      if (vr.quarantined != 0) ++report.quarantined_views;
    }
    if (report.restored_views > 0) {
      rank_registry.counter("resilience.checkpoint.restored_views")
          .add(report.restored_views);
    }
  } else {
    // ---- worker: refine batches until the master says stop ---------------
    // `step` numbers the views this rank attempts, monotonically over
    // the whole call; FaultPlan::kill_rank_at_step matches against it.
    std::uint64_t step = 0;
    bool killed = false;
    while (true) {
      // Waiting for work is waiting on the master; under a configured
      // deadline a dead master surfaces as CommTimeout here instead of
      // an eternal hang.
      // por-lint: allow(vmpi-recv-timeout) bounded by the rank deadline —
      // a dead master surfaces as CommTimeout, see the comment above
      const auto indices = comm.recv<std::uint64_t>(0, kCtrlTag);
      if (indices.empty()) break;  // stop
      // por-lint: allow(vmpi-recv-timeout) same deadline as kCtrlTag above
      const auto init = comm.recv<ViewStart>(0, kInitTag);
      // por-lint: allow(vmpi-recv-timeout) same deadline as kCtrlTag above
      const auto flat = comm.recv<double>(0, kViewBlockTag);
      if (init.size() != indices.size() ||
          flat.size() != indices.size() * l * l) {
        throw std::runtime_error(
            "parallel_refine: assignment payload sizes disagree");
      }
      try {
        // The Comm stays on this thread: fetch passes the view's fault
        // point, done sends its result.  A kill therefore lands before
        // a view at one worker and before a group at N; results of
        // earlier groups are already with the master.
        refiner.refine_each(
            indices.size(),
            [&](std::size_t k, double* pixels) {
              comm.fault_point(step++);
              std::copy(flat.begin() + static_cast<std::ptrdiff_t>(k * l * l),
                        flat.begin() +
                            static_cast<std::ptrdiff_t>((k + 1) * l * l),
                        pixels);
              return init[k];
            },
            [&](std::size_t k, const ViewResult& vr) {
              my_matchings += vr.matchings;
              my_slides += static_cast<std::uint64_t>(vr.window_slides);
              comm.send_value(0, kResultTag, ResultMsg{indices[k], vr});
            },
            scheduler.get());
        comm.send_value(0, kResultTag, ResultMsg{});  // batch done
      } catch (const vmpi::RankKilled&) {
        killed = true;
      }
      if (killed) {
        // Soft-kill zombie (DESIGN.md §10): the rank is dead to the
        // work protocol — it reports nothing more, so the master's
        // failure detector fires — but its thread still exists, so it
        // silently drains control traffic until the stop and then
        // joins the final collectives like everyone else.
        while (true) {
          // por-lint: allow(vmpi-recv-timeout) zombie drain is bounded by the
          // same rank deadline as the live control loop
          const auto ctrl = comm.recv<std::uint64_t>(0, kCtrlTag);
          if (ctrl.empty()) break;
          // por-lint: allow(vmpi-recv-timeout) deadline-bounded, see above
          (void)comm.recv<ViewStart>(0, kInitTag);
          // por-lint: allow(vmpi-recv-timeout) deadline-bounded, see above
          (void)comm.recv<double>(0, kViewBlockTag);
        }
        break;
      }
    }
  }

  // ---- step (m): wait for all nodes ----
  comm.barrier();

  // Straggler results that arrived after the master finished (a rank
  // falsely declared dead completing its stale batch) would otherwise
  // leak into the next refinement cycle on this runtime.  The barrier
  // guarantees every send is enqueued, so one non-blocking drain
  // empties the channel for good.
  if (comm.is_root()) {
    int src = 0;
    while (comm.try_recv_any_value<ResultMsg>(kResultTag, src,
                                              std::chrono::milliseconds{0})) {
    }
  }

  // ---- step (o): aggregate (results already live on the master) ----
  report.total_matchings =
      comm.allreduce_value(my_matchings, vmpi::ReduceOp::kSum);
  report.total_slides = comm.allreduce_value(my_slides, vmpi::ReduceOp::kSum);

  // Fold this rank's share of the runtime traffic accounting into the
  // registry, then snapshot once for the cross-rank run report, which
  // also carries the paper's per-step times as "step.<name>" spans.
  rank_registry.gauge("vmpi.rank").set(static_cast<double>(rank));
  rank_registry.counter("vmpi.sent_messages")
      .add(comm.traffic().rank_messages(rank) - messages_before);
  rank_registry.counter("vmpi.sent_bytes")
      .add(comm.traffic().rank_bytes(rank) - bytes_before);

  // Faults injected during this call, recorded once (root) because the
  // stats are runtime-global, not per-rank.
  if (comm.is_root()) {
    const vmpi::FaultStats now = comm.fault_stats();
    const auto delta = [&](std::uint64_t a, std::uint64_t b) {
      return a - b;
    };
    rank_registry.counter("resilience.faults.dropped")
        .add(delta(now.dropped, faults_before.dropped));
    rank_registry.counter("resilience.faults.delayed")
        .add(delta(now.delayed, faults_before.delayed));
    rank_registry.counter("resilience.faults.corrupted")
        .add(delta(now.corrupted, faults_before.corrupted));
    rank_registry.counter("resilience.faults.kills")
        .add(delta(now.kills, faults_before.kills));
    rank_registry.counter("resilience.comm.timeouts")
        .add(delta(now.timeouts, faults_before.timeouts));
  }

  report.obs = obs::RunReport::gather(comm, rank_registry.snapshot());
  return report;
}

}  // namespace

ParallelRefineReport parallel_refine(
    vmpi::Comm& comm, const em::Volume<double>& map_on_root, std::size_t l,
    const std::vector<em::Image<double>>& views_on_root,
    const std::vector<em::Orientation>& initial_on_root,
    const std::vector<std::pair<double, double>>& centers_on_root,
    const RefinerConfig& config) {
  std::optional<stream::MemoryViewSource> source;
  std::exception_ptr root_error;
  if (comm.is_root()) {
    try {
      source.emplace(views_on_root);
      check_root_inputs(map_on_root, l, *source, initial_on_root.size(),
                        centers_on_root.size());
    } catch (...) {
      root_error = std::current_exception();
    }
  }
  std::vector<int> verdict{root_error ? 1 : 0};
  comm.bcast(0, verdict);
  throw_on_root_failure(verdict[0] != 0, root_error);
  return refine_distributed(comm, map_on_root, l,
                            source ? &*source : nullptr, initial_on_root,
                            centers_on_root, config);
}

ParallelRefineReport parallel_refine_files(
    vmpi::Comm& comm, const std::string& map_path,
    const std::string& stack_path, const std::string& orientations_in_path,
    const std::string& orientations_out_path, const RefinerConfig& config) {
  // Step (a.1): the master reads the density map and the orientation
  // file, and *opens* the view stack — pixels stream later, block by
  // block, through the ViewSource (DESIGN.md §14).  Reads classified
  // transient (shared-filesystem hiccups) are retried with capped
  // exponential backoff per config.resilience.io_retry; corrupt inputs
  // are never retried — they throw immediately.  Every check runs
  // before the `meta` bcast, which carries root's verdict.
  const resilience::RetryPolicy& retry = config.resilience.io_retry;
  em::Volume<double> map;
  std::unique_ptr<stream::ViewSource> source;
  std::vector<em::Orientation> initial;
  std::vector<std::pair<double, double>> centers;
  std::size_t l = 0;
  std::exception_ptr root_error;
  if (comm.is_root()) {
    try {
      map = resilience::with_retry(retry, "read_map",
                                   [&] { return io::read_map(map_path); });
      stream::ShardedStackOptions shard_options;
      shard_options.max_resident_bytes =
          config.stream.max_resident_mb * (std::size_t{1} << 20);
      shard_options.quarantine_corrupt = true;
      source = resilience::with_retry(retry, "open_view_source", [&] {
        return stream::open_view_source(stack_path, shard_options);
      });
      const auto records =
          resilience::with_retry(retry, "read_orientations", [&] {
            return io::read_orientations(orientations_in_path);
          });
      initial.reserve(records.size());
      centers.reserve(records.size());
      for (const auto& rec : records) {
        initial.push_back(rec.orientation);
        centers.emplace_back(rec.center_x, rec.center_y);
      }
      l = map.nx();
      check_root_inputs(map, l, *source, initial.size(), centers.size());
    } catch (...) {
      root_error = std::current_exception();
    }
  }
  std::vector<std::size_t> meta{l, root_error ? 1u : 0u};
  comm.bcast(0, meta);
  throw_on_root_failure(meta[1] != 0, root_error);
  l = meta[0];

  ParallelRefineReport report = refine_distributed(
      comm, map, l, source.get(), initial, centers, config);

  if (comm.is_root()) {
    std::vector<io::ViewOrientation> out;
    out.reserve(report.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      out.push_back(io::ViewOrientation{i, report.results[i].orientation,
                                        report.results[i].center_x,
                                        report.results[i].center_y});
    }
    io::write_orientations(orientations_out_path, out,
                           "refined by por::core::parallel_refine_files");
  }
  return report;
}

}  // namespace por::core
