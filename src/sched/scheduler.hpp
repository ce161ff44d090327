// PhaseScheduler — drives a protocol TaskGraph over a Fabric.
//
// The scheduler pops the lowest-id ready task, runs its action, and
// records a TaskSpan of the owning actor's virtual clock before/after
// (zeros on the synchronous Network, whose clocks do not exist).
// Because the builders in src/distributed add tasks in the program
// order of the lock-step loops they replaced — a valid topological
// order — lowest-ready-id execution replays exactly that order: if the
// smallest unexecuted id's dependencies all carry smaller ids, it is
// ready the moment its predecessors finish, so the pop sequence is the
// creation sequence. Host-side behavior (sends, receives, RNG draws,
// ledgers) is therefore bitwise identical to the loops it replaced, at
// any pipelining setting.
//
// Compute tasks are the one exception to running at their turn. The
// first time the lowest ready id is a kCompute task, every ready
// kCompute task runs as one pool job, one task per chunk (the sources'
// local SVDs, bicriteria solves and projections side by side); a batch
// of one runs inline on the protocol thread, so its kernels keep the
// pool. The replay then goes on in lowest-ready-id order: a compute's
// turn only records its span and releases its dependents, or rethrows
// what it threw. This is sound under one rule, which the builders keep
// and the ports enforce (net/channel.hpp ComputeActionMark): a
// kCompute action reads its site's inputs,
// writes only its site's slots and never calls the Fabric. So every
// Fabric call, RNG draw, ledger, virtual clock and span keeps its
// order, and the simulator, which charges compute at send time from
// the frame's scalars, sees nothing move. Kernels inside a batch run
// their fixed chunk grids inline on their pool thread, so results stay
// bit-identical at any EKM_THREADS. Every other action runs on the
// protocol thread.
//
// Where, then, does phase overlap live? On the fabric's virtual clock.
// In the discrete-event simulator each frame's fate is sealed at send
// time, and a *barrier* (kBarrier task collecting a round) commits once
// every input is final: delivered, or known to miss. Without
// pipelining the server learns of a miss in a finite round only when
// the round deadline passes, so one straggler pins every barrier to
// its full deadline. With pipelining on (RoundPolicy::pipeline,
// scenario key `pipeline=`, read from Fabric::round_policy()) one NAK
// rule applies: the sender NAKs the server out-of-band (one control-frame
// latency, no payload airtime, nothing billed) at the first moment it
// can prove the miss — an attempt whose best-case airtime overshoots
// the cutoff, or the abandonment itself, whichever comes first. The
// barrier then commits at the last *final* input instead of the
// cutoff, and every downstream task — the broadcast, the fast sites'
// next-phase compute, their uplinks — starts that much earlier in
// virtual time while the straggler's own timeline still runs. Merge
// barriers stay committed-only: nothing is aggregated speculatively,
// so a fault-free or infinite-deadline run is bitwise identical with
// pipelining on or off (there the server already learns of an expiry
// the moment the sender gives up).
//
// The trace doubles as the per-site timeline: site_timeline(i) is the
// sequence of spans actor i executed, on its own virtual clock.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "sched/task_graph.hpp"

namespace ekm {

/// One executed task, stamped with the owning actor's virtual clock
/// before and after the action (both 0 on a clock-less fabric).
struct TaskSpan {
  TaskId id = 0;
  TaskKind kind = TaskKind::kCompute;
  std::size_t actor = kServerActor;
  std::string label;
  double start_s = 0.0;
  double finish_s = 0.0;
};

class PhaseScheduler {
 public:
  explicit PhaseScheduler(Fabric& net) : net_(&net) {}

  /// Runs the graph to quiescence: repeatedly executes the lowest-id
  /// ready task (actions may add further tasks mid-run), with ready
  /// compute tasks batched onto the pool as described above. Throws
  /// invariant_error if tasks remain that can never become ready —
  /// impossible for graphs built through TaskGraph::add, which
  /// validates dependencies, but asserted anyway.
  void run(TaskGraph& graph);

  /// Every task executed, in replay (creation) order.
  [[nodiscard]] const std::vector<TaskSpan>& trace() const { return trace_; }

  /// The spans one actor executed (its timeline on its own clock).
  [[nodiscard]] std::vector<TaskSpan> site_timeline(std::size_t actor) const {
    std::vector<TaskSpan> out;
    for (const TaskSpan& s : trace_) {
      if (s.actor == actor) out.push_back(s);
    }
    return out;
  }

 private:
  [[nodiscard]] double actor_clock(std::size_t actor) const {
    return actor == kServerActor ? net_->server_time()
                                 : net_->site_time(actor);
  }

  /// Completion record per executed task id, kept so a dependent task
  /// can record a flow arrow (obs/recorder.hpp RecordedFlow) from each
  /// cross-actor dependency's finish to its own start.
  struct Finished {
    std::size_t actor = kServerActor;
    double finish_s = 0.0;
    bool done = false;
  };

  Fabric* net_;
  std::vector<TaskSpan> trace_;
  std::vector<Finished> finished_;
};

}  // namespace ekm
