// Tests for src/sched: task-graph readiness and barrier ordering, the
// creation-order replay the protocol builders rely on, compute batching
// (each compute once, between its dependencies and its dependents; the
// lowest failure surfacing at its turn; no fabric calls from a compute),
// dynamic task addition (the disSS reallocation-wave continuation), and
// the scheduler's per-actor timelines over both fabrics.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "net/channel.hpp"
#include "net/summary_codec.hpp"
#include "sched/scheduler.hpp"
#include "sched/task_graph.hpp"
#include "sim/scenario.hpp"
#include "sim/sim_network.hpp"

namespace ekm {
namespace {

PhaseTask noop(TaskKind kind, std::vector<TaskId> deps,
               std::size_t actor = kServerActor) {
  return {kind, actor, "noop", {}, std::move(deps)};
}

TEST(TaskGraph, ReadinessFollowsDependencies) {
  TaskGraph g;
  const TaskId a = g.add(noop(TaskKind::kCompute, {}));
  const TaskId b = g.add(noop(TaskKind::kUplink, {a}));
  const TaskId c = g.add(noop(TaskKind::kCollect, {a}));
  const TaskId d = g.add(noop(TaskKind::kBarrier, {b, c}));

  // Only the root is ready; the barrier needs both middle tasks.
  EXPECT_EQ(g.ready_tasks(), (std::vector<TaskId>{a}));
  EXPECT_FALSE(g.ready(d));

  EXPECT_EQ(g.complete(a), (std::vector<TaskId>{b, c}));
  EXPECT_TRUE(g.ready(b));
  EXPECT_TRUE(g.ready(c));
  EXPECT_TRUE(g.complete(b).empty());  // d still waits on c
  EXPECT_FALSE(g.ready(d));
  EXPECT_EQ(g.complete(c), (std::vector<TaskId>{d}));
  EXPECT_TRUE(g.ready(d));
  EXPECT_FALSE(g.all_done());
  EXPECT_TRUE(g.complete(d).empty());
  EXPECT_TRUE(g.all_done());

  // Completing a task twice — or one whose deps are open — throws.
  EXPECT_THROW((void)g.complete(d), precondition_error);
  TaskGraph g2;
  const TaskId r = g2.add(noop(TaskKind::kCompute, {}));
  const TaskId s = g2.add(noop(TaskKind::kCompute, {r}));
  EXPECT_THROW((void)g2.complete(s), precondition_error);
}

TEST(TaskGraph, DependenciesMustNameExistingTasks) {
  TaskGraph g;
  (void)g.add(noop(TaskKind::kCompute, {}));
  // Forward (or dangling) dependencies are unrepresentable, which is
  // what makes every TaskGraph acyclic by construction.
  EXPECT_THROW((void)g.add(noop(TaskKind::kCompute, {5})), precondition_error);
  EXPECT_THROW((void)g.add(noop(TaskKind::kCompute, {1})), precondition_error);
}

// Restores the pool's default size after a test that sweeps it.
class SchedulerThreads : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

// Per-task records a test can write from compute actions, which may run
// on pool threads: a global tick stamped when each action runs, and how
// many times it ran.
struct ActionLog {
  explicit ActionLog(std::size_t tasks) : when(tasks), runs(tasks) {}
  std::atomic<int> tick{0};
  std::vector<std::atomic<int>> when;
  std::vector<std::atomic<int>> runs;

  void note(TaskId id) {
    when[id] = tick.fetch_add(1);
    runs[id].fetch_add(1);
  }
};

TEST_F(SchedulerThreads, ReplaysCreationOrderAndRunsEachComputeOnce) {
  // The protocol builders add tasks in the program order of the
  // lock-step loops they replaced. Every non-compute action, and the
  // trace, replays exactly that order (the bitwise-parity guarantee).
  // Compute tasks may run ahead of their turn in a batch, but each runs
  // once, after its dependencies and before its dependents. A two-site
  // round shape, at 1 and 4 threads.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    set_parallel_threads(threads);
    Network net(2);
    TaskGraph g;
    ActionLog log(10);
    std::vector<TaskId> order;  // non-compute actions: protocol thread
    const auto rec = [&](TaskId id) {
      return [&, id] {
        log.note(id);
        order.push_back(id);
      };
    };
    const auto compute = [&](TaskId id) { return [&, id] { log.note(id); }; };

    const TaskId open = g.add({TaskKind::kBarrier, kServerActor, "open",
                               rec(0), {}});
    const TaskId c0 = g.add({TaskKind::kCompute, 0, "c0", compute(1), {open}});
    const TaskId s0 = g.add({TaskKind::kUplink, 0, "s0", rec(2), {c0}});
    const TaskId c1 = g.add({TaskKind::kCompute, 1, "c1", compute(3), {open}});
    const TaskId s1 = g.add({TaskKind::kUplink, 1, "s1", rec(4), {c1}});
    const TaskId r0 = g.add({TaskKind::kCollect, kServerActor, "r0", rec(5), {s0}});
    const TaskId r1 = g.add({TaskKind::kCollect, kServerActor, "r1", rec(6), {s1}});
    const TaskId merge = g.add({TaskKind::kBarrier, kServerActor, "merge",
                                rec(7), {r0, r1}});
    (void)g.add({TaskKind::kBroadcast, kServerActor, "b0", rec(8), {merge}});
    (void)g.add({TaskKind::kBroadcast, kServerActor, "b1", rec(9), {merge}});

    PhaseScheduler sched(net);
    sched.run(g);
    EXPECT_TRUE(g.all_done());
    EXPECT_EQ(order, (std::vector<TaskId>{0, 2, 4, 5, 6, 7, 8, 9}));
    for (TaskId id = 0; id < 10; ++id) EXPECT_EQ(log.runs[id], 1) << id;
    EXPECT_LT(log.when[open], log.when[c0]);
    EXPECT_LT(log.when[c0], log.when[s0]);
    EXPECT_LT(log.when[open], log.when[c1]);
    EXPECT_LT(log.when[c1], log.when[s1]);

    // The trace mirrors the replay and partitions by actor.
    ASSERT_EQ(sched.trace().size(), 10u);
    for (TaskId id = 0; id < 10; ++id) EXPECT_EQ(sched.trace()[id].id, id);
    EXPECT_EQ(sched.trace()[0].kind, TaskKind::kBarrier);
    EXPECT_EQ(sched.site_timeline(0).size(), 2u);
    EXPECT_EQ(sched.site_timeline(1).size(), 2u);
    EXPECT_EQ(sched.site_timeline(kServerActor).size(), 6u);
  }
}

TEST_F(SchedulerThreads, LowestFailingComputeOfABatchSurfacesAtItsTurn) {
  // Three computes run as one batch and two of them throw. The lower
  // id's exception surfaces at its own turn: after exactly the
  // non-compute actions that precede it in replay order, and not the
  // ready barrier created after it.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    set_parallel_threads(threads);
    Network net(3);
    TaskGraph g;
    ActionLog log(7);
    std::vector<TaskId> order;  // non-compute actions: protocol thread
    const auto rec = [&](TaskId id) {
      return [&, id] {
        log.note(id);
        order.push_back(id);
      };
    };
    const auto fail = [&](TaskId id, const char* what) {
      return [&, id, what] {
        log.note(id);
        throw std::runtime_error(what);
      };
    };
    const TaskId open = g.add({TaskKind::kBarrier, kServerActor, "open",
                               rec(0), {}});
    const TaskId c0 = g.add({TaskKind::kCompute, 0, "c0",
                             [&] { log.note(1); }, {open}});
    (void)g.add({TaskKind::kUplink, 0, "u0", rec(2), {c0}});
    (void)g.add({TaskKind::kCollect, kServerActor, "x", rec(3), {open}});
    (void)g.add({TaskKind::kCompute, 1, "c1", fail(4, "c1 failed"), {open}});
    (void)g.add({TaskKind::kCompute, 2, "c2", fail(5, "c2 failed"), {open}});
    (void)g.add({TaskKind::kBarrier, kServerActor, "late", rec(6), {}});

    PhaseScheduler sched(net);
    try {
      sched.run(g);
      FAIL() << "a failing compute did not surface";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "c1 failed");
    }
    EXPECT_EQ(order, (std::vector<TaskId>{0, 2, 3}));
    for (const TaskId id : {1u, 4u, 5u}) EXPECT_EQ(log.runs[id], 1) << id;
    ASSERT_EQ(sched.trace().size(), 4u);  // open, c0, u0, x
    EXPECT_EQ(sched.trace()[1].label, "c0");
  }
}

TEST_F(SchedulerThreads, ComputesAddedMidRunAreBatchedAndRunOnce) {
  // A barrier appends three computes, an uplink after the first, and a
  // join. The computes run once each, as one batch: by the uplink's
  // turn, which comes before the other two computes' turns, all three
  // have run.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    set_parallel_threads(threads);
    Network net(3);
    TaskGraph g;
    ActionLog log(6);
    int computes_before_uplink = -1;
    std::vector<TaskId> root{0};
    root[0] = g.add(
        {TaskKind::kBarrier, kServerActor, "root",
         [&] {
           log.note(0);
           const auto compute = [&](TaskId id) {
             return [&, id] { log.note(id); };
           };
           const TaskId ca = g.add(
               {TaskKind::kCompute, 0, "ca", compute(1), {root[0]}});
           const TaskId ua = g.add(
               {TaskKind::kUplink, 0, "ua",
                [&] {
                  log.note(2);
                  computes_before_uplink =
                      log.runs[1] + log.runs[3] + log.runs[4];
                },
                {ca}});
           const TaskId cb = g.add(
               {TaskKind::kCompute, 1, "cb", compute(3), {root[0]}});
           const TaskId cc = g.add(
               {TaskKind::kCompute, 2, "cc", compute(4), {root[0]}});
           (void)g.add({TaskKind::kBarrier, kServerActor, "join",
                        [&] { log.note(5); },
                        {ua, cb, cc}});
         },
         {}});
    PhaseScheduler sched(net);
    sched.run(g);
    EXPECT_TRUE(g.all_done());
    EXPECT_EQ(computes_before_uplink, 3);
    for (TaskId id = 0; id < 6; ++id) EXPECT_EQ(log.runs[id], 1) << id;
    EXPECT_LT(log.when[4], log.when[5]);  // the join after every compute
    ASSERT_EQ(sched.trace().size(), 6u);
    for (TaskId id = 0; id < 6; ++id) EXPECT_EQ(sched.trace()[id].id, id);
  }
}

TEST_F(SchedulerThreads, FabricCallFromComputeActionThrows) {
  // A compute task must not touch the fabric. The ports throw under the
  // compute mark on every run: inline (a batch of one) and batched, on
  // the synchronous Network and the simulator, for sends and receives.
  // The mark is cleared again once the task is done.
  for (const std::size_t threads : {1u, 4u}) {
    set_parallel_threads(threads);
    for (const bool batched : {false, true}) {
      for (const bool receive : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, batched " << batched
                     << ", receive " << receive);
        Network sync(2);
        SimNetwork sim(2, parse_scenario("ideal"));
        for (Fabric* net : {static_cast<Fabric*>(&sync),
                            static_cast<Fabric*>(&sim)}) {
          TaskGraph g;
          (void)g.add({TaskKind::kCompute, 0, "touches-fabric",
                       [net, receive] {
                         if (receive) {
                           (void)net->downlink(0).receive_by(kNoRound);
                         } else {
                           net->uplink(0).send(encode_scalar(1.0));
                         }
                       },
                       {}});
          if (batched) (void)g.add({TaskKind::kCompute, 1, "idle", {}, {}});
          EXPECT_THROW(PhaseScheduler(*net).run(g), invariant_error);
          EXPECT_EQ(net->total_uplink().messages, 0u);
          net->uplink(0).send(encode_scalar(1.0));
          EXPECT_EQ(net->total_uplink().messages, 1u);
        }
      }
    }
  }
}

TEST(Scheduler, BarrierNeverRunsBeforeItsInputsNorSiteTasksBeforeTheirs) {
  // The ordering contract stated task by task: a collect never runs
  // before its site's uplink, the barrier never before every collect,
  // the broadcast never before the barrier.
  Network net(3);
  TaskGraph g;
  std::vector<TaskId> uplinks, collects;
  std::vector<TaskId> seq;
  const auto log = [&seq](TaskId* slot) {
    return [&seq, slot] { seq.push_back(*slot); };
  };
  std::vector<TaskId> ids(8, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    ids[i] = g.add({TaskKind::kUplink, i, "up", log(&ids[i]), {}});
    uplinks.push_back(ids[i]);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    ids[3 + i] = g.add({TaskKind::kCollect, kServerActor, "collect",
                        log(&ids[3 + i]), {uplinks[i]}});
    collects.push_back(ids[3 + i]);
  }
  ids[6] = g.add({TaskKind::kBarrier, kServerActor, "barrier", log(&ids[6]),
                  collects});
  ids[7] = g.add({TaskKind::kBroadcast, kServerActor, "bcast", log(&ids[7]),
                  {ids[6]}});

  PhaseScheduler(net).run(g);
  ASSERT_EQ(seq.size(), 8u);
  const auto pos = [&seq](TaskId id) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i] == id) return i;
    }
    ADD_FAILURE() << "task " << id << " never ran";
    return seq.size();
  };
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LT(pos(uplinks[i]), pos(collects[i]));
    EXPECT_LT(pos(collects[i]), pos(ids[6]));  // barrier after every collect
  }
  EXPECT_LT(pos(ids[6]), pos(ids[7]));  // broadcast after the barrier
}

TEST(Scheduler, TasksAddedMidRunExecuteAfterTheirDependencies) {
  // The disSS reallocation wave appends its tasks from a running
  // barrier's action; the scheduler must pick them up and respect
  // their dependencies.
  Network net(1);
  TaskGraph g;
  std::vector<int> order;
  const TaskId root = g.add({TaskKind::kBarrier, kServerActor, "root",
                             [&] {
                               order.push_back(0);
                               const TaskId w1 = g.add(
                                   {TaskKind::kBroadcast, kServerActor, "w1",
                                    [&] { order.push_back(1); },
                                    {}});
                               (void)g.add({TaskKind::kCollect, kServerActor,
                                            "w2",
                                            [&] { order.push_back(2); },
                                            {w1}});
                             },
                             {}});
  (void)root;
  PhaseScheduler(net).run(g);
  EXPECT_TRUE(g.all_done());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(g.size(), 3u);
}

TEST(Scheduler, ContinuationDependingOnTheRunningTaskRunsExactlyOnce) {
  // Regression: a task added mid-run whose dependency is the task
  // currently executing gets enqueued twice (once by the dependency
  // resolving, once by the new-task scan); the scheduler must run it
  // once, not twice-then-throw.
  Network net(1);
  TaskGraph g;
  std::vector<int> order;
  std::vector<TaskId> self{0};
  self[0] = g.add({TaskKind::kBarrier, kServerActor, "root",
                   [&] {
                     order.push_back(0);
                     (void)g.add({TaskKind::kCollect, kServerActor, "cont",
                                  [&] { order.push_back(1); },
                                  {self[0]}});  // depends on the RUNNING task
                   },
                   {}});
  PhaseScheduler(net).run(g);
  EXPECT_TRUE(g.all_done());
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Scheduler, TimelinesRideTheSimulatedClocks) {
  // Over a SimNetwork the trace records the owning actor's virtual
  // clock around each task: a site's uplink span covers its transmit
  // time, the server's collect span ends at (or after) the arrival.
  SimNetwork net(2, parse_scenario("radio=wifi"));
  TaskGraph g;
  const TaskId send = g.add({TaskKind::kUplink, 0, "send",
                             [&] {
                               Message msg;
                               msg.payload.resize(1 << 12);
                               msg.wire_bits = 1 << 15;
                               msg.scalars = 512;
                               net.uplink(0).send(std::move(msg));
                             },
                             {}});
  (void)g.add({TaskKind::kCollect, kServerActor, "recv",
               [&] { (void)net.uplink(0).receive_by(kNoRound); },
               {send}});
  PhaseScheduler sched(net);
  sched.run(g);

  const auto site0 = sched.site_timeline(0);
  const auto server = sched.site_timeline(kServerActor);
  ASSERT_EQ(site0.size(), 1u);
  ASSERT_EQ(server.size(), 1u);
  // The site's clock advanced across its send (compute + store-and-
  // forward transmit) from zero...
  EXPECT_EQ(site0[0].start_s, 0.0);
  EXPECT_GT(site0[0].finish_s, 0.0);
  // ...and the server's collect finished no earlier than the site
  // finished transmitting.
  EXPECT_GE(server[0].finish_s, site0[0].finish_s);

  // The synchronous Network has no clocks: spans pin to zero there.
  Network sync(1);
  TaskGraph g2;
  (void)g2.add({TaskKind::kCompute, 0, "noop", {}, {}});
  PhaseScheduler sched2(sync);
  sched2.run(g2);
  ASSERT_EQ(sched2.trace().size(), 1u);
  EXPECT_EQ(sched2.trace()[0].start_s, 0.0);
  EXPECT_EQ(sched2.trace()[0].finish_s, 0.0);
}

}  // namespace
}  // namespace ekm
