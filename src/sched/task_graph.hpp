// Phase-task DAG for the distributed protocols.
//
// A multi-source pipeline round (disPCA, a disSS cost or summary round,
// a refine iteration) is really a small dataflow graph: per-site local
// compute feeding per-site uplink frames, a server-side collect per
// site, one global merge barrier, and a broadcast fan-out. The PR 2–4
// implementations wrote that graph as lock-step loops, which hides the
// dependency structure the simulator needs for phase overlap. A
// TaskGraph makes it explicit: protocol code *builds* the graph (one
// PhaseTask per compute/frame/barrier, edges = data dependencies) and
// the PhaseScheduler (scheduler.hpp) drives it to completion over a
// Fabric.
//
// Two structural rules keep this safe:
//   * dependencies must name already-added tasks, so every graph is
//     acyclic by construction and creation order is a valid topological
//     order;
//   * the builders in src/distributed add tasks in the exact program
//     order of the PR 4 loops, so the scheduler's
//     lowest-ready-id execution (see scheduler.hpp) replays that order
//     verbatim — host-side execution is bitwise identical to the
//     lock-step code, and phase *overlap* is purely a virtual-time
//     commit rule on the fabric (SimNetwork predicted-arrival NAKs),
//     never a reordering of protocol actions.
// One rule lets the scheduler run the ready compute tasks concurrently
// without moving any of that: a kCompute action reads its site's
// inputs, writes only its site's slots and never calls the Fabric (a
// receive is a kCollect, a send a kUplink). The ports throw when a
// compute action calls them.
//
// Tasks may be added while the graph is running: a barrier's action can
// append a continuation (disSS uses this for the budget-reallocation
// wave, which only exists once the server knows who missed).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/expects.hpp"

namespace ekm {

using TaskId = std::size_t;

/// Actor index meaning "the server" (site tasks use the source index).
inline constexpr std::size_t kServerActor = static_cast<std::size_t>(-1);

/// What a PhaseTask does, for traces and tests. The scheduler batches
/// ready kCompute tasks onto the pool and runs every other kind on the
/// protocol thread; otherwise the taxonomy documents the protocol shape.
enum class TaskKind {
  kCompute,    ///< site-local computation (SVD, bicriteria, projection):
               ///< touches only its site's slots, never the Fabric
  kUplink,     ///< a site transmits its frame(s) to the server
  kCollect,    ///< the server (or a site) receives a peer's frame(s)
  kBarrier,    ///< global synchronization point (round open, merge,
               ///< budget split) — commits only on final inputs
  kBroadcast,  ///< the server pushes a frame down one site's downlink
};

[[nodiscard]] constexpr const char* task_kind_name(TaskKind k) {
  switch (k) {
    case TaskKind::kCompute: return "compute";
    case TaskKind::kUplink: return "uplink";
    case TaskKind::kCollect: return "collect";
    case TaskKind::kBarrier: return "barrier";
    case TaskKind::kBroadcast: return "broadcast";
  }
  return "?";
}

/// One node of the protocol DAG. `action` runs when every dependency
/// has completed — on the protocol thread, or for a kCompute task
/// possibly on a pool thread beside other computes; an empty action is
/// a purely structural node (useful as a named join point).
struct PhaseTask {
  TaskKind kind = TaskKind::kCompute;
  std::size_t actor = kServerActor;  ///< owning actor (site index/server)
  std::string label;                 ///< e.g. "disPCA/local-svd"
  std::function<void()> action;
  std::vector<TaskId> deps;          ///< must all be < this task's id
};

/// Append-only DAG with readiness tracking. Not thread-safe: protocol
/// graphs are built and driven on the protocol thread (the simulator's
/// determinism rules require that anyway), and a compute action must
/// not add tasks.
class TaskGraph {
 public:
  /// Adds a task; every dependency must name an existing task (which
  /// makes cycles unrepresentable). Returns the new task's id.
  TaskId add(PhaseTask task) {
    const TaskId id = nodes_.size();
    std::size_t pending = 0;
    for (const TaskId dep : task.deps) {
      EKM_EXPECTS_MSG(dep < id,
                      "task dependency must name an already-added task");
      if (!nodes_[dep].done) {
        nodes_[dep].dependents.push_back(id);
        pending += 1;
      }
    }
    nodes_.push_back(Node{std::move(task), {}, pending, false});
    return id;
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  [[nodiscard]] const PhaseTask& task(TaskId id) const {
    EKM_EXPECTS(id < nodes_.size());
    return nodes_[id].task;
  }

  [[nodiscard]] bool done(TaskId id) const {
    EKM_EXPECTS(id < nodes_.size());
    return nodes_[id].done;
  }

  /// A task is ready when it has not run and every dependency has.
  [[nodiscard]] bool ready(TaskId id) const {
    EKM_EXPECTS(id < nodes_.size());
    return !nodes_[id].done && nodes_[id].pending_deps == 0;
  }

  /// All currently ready tasks, ascending id — the scheduler's queue.
  [[nodiscard]] std::vector<TaskId> ready_tasks() const {
    std::vector<TaskId> out;
    for (TaskId id = 0; id < nodes_.size(); ++id) {
      if (ready(id)) out.push_back(id);
    }
    return out;
  }

  /// Marks a ready task done and returns the dependents it unblocked.
  /// (PhaseScheduler calls this after running the action; tests may
  /// drive it directly to check readiness propagation.)
  std::vector<TaskId> complete(TaskId id) {
    EKM_EXPECTS_MSG(ready(id), "completing a task that is not ready");
    nodes_[id].done = true;
    std::vector<TaskId> unblocked;
    for (const TaskId dep : nodes_[id].dependents) {
      EKM_EXPECTS(nodes_[dep].pending_deps > 0);
      nodes_[dep].pending_deps -= 1;
      if (nodes_[dep].pending_deps == 0) unblocked.push_back(dep);
    }
    return unblocked;
  }

  [[nodiscard]] bool all_done() const {
    for (const Node& n : nodes_) {
      if (!n.done) return false;
    }
    return true;
  }

 private:
  struct Node {
    PhaseTask task;
    std::vector<TaskId> dependents;
    std::size_t pending_deps = 0;
    bool done = false;
  };
  std::vector<Node> nodes_;
};

}  // namespace ekm
