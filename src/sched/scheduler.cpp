#include "sched/scheduler.hpp"

#include <exception>
#include <map>
#include <queue>
#include <set>

#include "common/parallel.hpp"
#include "obs/recorder.hpp"

namespace ekm {

void PhaseScheduler::run(TaskGraph& graph) {
  // Min-heap of ready ids: lowest id first, which for program-ordered
  // graphs replays creation order (see header). Tasks added mid-run
  // enter the heap as their dependencies resolve.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  // Ready compute tasks not yet run: the next batch. A set, because a
  // task can be enqueued twice (see the skip below).
  std::set<TaskId> ready_computes;
  std::size_t seeded = 0;  ///< ids already scanned for initial readiness

  const auto enqueue = [&](TaskId id) {
    ready.push(id);
    if (graph.task(id).kind == TaskKind::kCompute) ready_computes.insert(id);
  };
  const auto seed_new_tasks = [&] {
    for (; seeded < graph.size(); ++seeded) {
      if (graph.ready(seeded)) enqueue(seeded);
    }
  };
  seed_new_tasks();

  // Compute tasks run ahead of their turn, with what each threw.
  std::map<TaskId, std::exception_ptr> ran_ahead;

  // Runs every ready compute task as one pool job, one task per chunk,
  // each under the compute mark (net/channel.hpp), keeping its
  // exception for its turn. A batch of one runs inline on this thread
  // (parallel_for_chunks does so for a single chunk), so its kernels
  // keep the pool.
  const auto run_compute_batch = [&] {
    const std::vector<TaskId> batch(ready_computes.begin(),
                                    ready_computes.end());
    ready_computes.clear();
    // Copied out of the graph, like every action below.
    std::vector<std::function<void()>> actions;
    actions.reserve(batch.size());
    for (const TaskId id : batch) actions.push_back(graph.task(id).action);
    std::vector<std::exception_ptr> errors(batch.size());
    parallel_for_chunks(batch.size(), 1,
                        [&](std::size_t c, std::size_t, std::size_t) {
                          const ComputeActionMark mark;
                          try {
                            if (actions[c]) actions[c]();
                          } catch (...) {
                            errors[c] = std::current_exception();
                          }
                        });
    for (std::size_t c = 0; c < batch.size(); ++c) {
      ran_ahead.emplace(batch[c], errors[c]);
    }
  };

  std::size_t executed = 0;
  while (!ready.empty()) {
    const TaskId id = ready.top();
    ready.pop();
    // A task can be enqueued twice: one added mid-run that depends on
    // the task currently executing is pushed once by complete() and
    // once by the seed scan below. The first pop runs it; stale
    // duplicates are no longer ready and are skipped.
    if (!graph.ready(id)) continue;
    // Copy the task out before running it: an action that adds tasks
    // (the disSS wave continuation) may reallocate the graph's node
    // storage, and a reference into it — including the std::function
    // being executed — would dangle.
    TaskSpan span;
    std::function<void()> action;
    std::vector<TaskId> deps;
    {
      const PhaseTask& task = graph.task(id);
      span.id = id;
      span.kind = task.kind;
      span.actor = task.actor;
      span.label = task.label;
      action = task.action;
      deps = task.deps;
    }
    if (span.kind == TaskKind::kCompute && !ran_ahead.contains(id)) {
      run_compute_batch();
    }
    span.start_s = actor_clock(span.actor);
    if (const auto ahead = ran_ahead.find(id); ahead != ran_ahead.end()) {
      // A compute's turn only surfaces its failure, if any.
      if (ahead->second) std::rethrow_exception(ahead->second);
    } else if (action) {
      action();
    }
    span.finish_s = actor_clock(span.actor);
    // Forward to the fabric's flight recorder (src/obs/), if attached:
    // the exported per-actor timeline is exactly this trace, and every
    // cross-actor dependency edge becomes a flow arrow (the causal
    // arrows of the protocol DAG — compute → uplink → collect →
    // barrier). A null recorder — the default — costs one branch per
    // task; the finished-task table below is plain bookkeeping over
    // values the run already produced.
    if (Recorder* rec = net_->recorder()) {
      rec->record_span(span.actor, span.label, task_kind_name(span.kind),
                       span.start_s, span.finish_s);
      for (const TaskId dep : deps) {
        if (dep < finished_.size() && finished_[dep].done &&
            finished_[dep].actor != span.actor) {
          rec->record_flow(finished_[dep].actor, finished_[dep].finish_s,
                           span.actor, span.start_s);
        }
      }
    }
    if (id >= finished_.size()) finished_.resize(id + 1);
    finished_[id] = {span.actor, span.finish_s, true};
    trace_.push_back(std::move(span));
    executed += 1;
    for (const TaskId unblocked : graph.complete(id)) enqueue(unblocked);
    seed_new_tasks();  // pick up tasks the action just added
  }
  EKM_ENSURES_MSG(graph.all_done(),
                  "phase scheduler quiesced with unrunnable tasks");
  EKM_ENSURES(executed <= graph.size());
}

}  // namespace ekm
