#include "sim/coordinator.hpp"

#include <string>
#include <utility>

#include "kmeans/lloyd.hpp"
#include "net/summary_codec.hpp"
#include "sched/scheduler.hpp"

namespace ekm {
namespace {

/// Rows [r·n/R, (r+1)·n/R) of a shard — round r's batch of R.
Dataset round_batch(const Dataset& shard, std::size_t round, std::size_t rounds) {
  const std::size_t n = shard.size();
  const std::size_t lo = round * n / rounds;
  const std::size_t hi = (round + 1) * n / rounds;
  if (lo >= hi) return {};
  Matrix pts(hi - lo, shard.dim());
  std::vector<double> weights(hi - lo, 1.0);
  for (std::size_t i = lo; i < hi; ++i) {
    auto src = shard.point(i);
    std::copy(src.begin(), src.end(), pts.row(i - lo).begin());
    weights[i - lo] = shard.weight(i);
  }
  return {std::move(pts), std::move(weights)};
}

SimReport make_report(const SimScenario& scenario, std::string pipeline,
                      PipelineResult result, SimNetwork& net) {
  SimReport report;
  report.scenario = scenario.name;
  report.pipeline = std::move(pipeline);
  report.result = std::move(result);
  report.completion_seconds = net.finish();
  report.server_completion_seconds = net.server_clock();
  report.server_critical_path_seconds = net.server_critical_path();
  report.energy_joules = net.energy_joules();
  report.outages = net.total_outages();
  report.uplink_stats = net.total_uplink_stats();
  report.downlink_stats = net.total_downlink_stats();
  report.rounds = net.rounds_opened();
  report.deadline_misses = net.missed_frames();
  report.supplemental_misses = net.supplemental_misses();
  report.realloc_waves = net.subrounds_opened();
  // finish() already ran above, so the join/leave census is final.
  report.joins = net.joins();
  report.leaves = net.leaves();
  report.orphaned_frames = net.orphaned_frames();
  report.queue_high_water = net.queue_high_water();
  for (std::size_t i = 0; i < net.num_sources(); ++i) {
    // A site is dropped if any round abandoned one of its uplink
    // frames, or if it lost a broadcast (basis/allocation/centers) and
    // therefore sat a round out without its data reaching the model.
    const LinkStats& up = net.uplink_view(i).stats();
    const LinkStats& down = net.downlink_view(i).stats();
    report.sites_dropped += up.missed > 0 || down.missed > 0;
    // Exact data loss: a site whose only uplink misses were superseded
    // wave supplements left its first-wave data standing. (Downlink
    // misses always count — supplemental is 0 there by construction.)
    report.sites_data_dropped += up.missed > up.supplemental ||
                                 down.missed > down.supplemental;
  }
  report.event_log = net.take_event_log();  // net is consumed — no copy
  return report;
}

// A decoded streaming summary is empty, or ambient points of the round's
// width d with no basis. The decoder does not know d, so the collect
// site checks, before a wrong width reaches the merged solve.
void expect_summary_shape(std::size_t source, const Coreset& summary,
                          std::size_t d) {
  EKM_EXPECTS_MSG(
      summary.size() == 0 ||
          (summary.points.dim() == d && !summary.basis.has_value()),
      "streaming round: source " + std::to_string(source) +
          " sent a summary of " + std::to_string(summary.points.dim()) +
          " columns" + (summary.basis.has_value() ? " with a basis" : "") +
          ", expected " + std::to_string(d) + " columns and no basis");
}

}  // namespace

SimReport Coordinator::run(PipelineKind kind, std::span<const Dataset> parts,
                           const PipelineConfig& cfg) const {
  EKM_EXPECTS(!parts.empty());
  SimNetwork net(parts.size(), scenario_);
  // The flight recorder (if any) hangs on the network, and the
  // scheduler/protocols reach it through Fabric::recorder(). Null —
  // the default — records nothing.
  net.set_recorder(cfg.recorder);
  PipelineResult result = run_distributed_pipeline(kind, parts, cfg, net);
  return make_report(scenario_, pipeline_name(kind), std::move(result), net);
}

SimReport Coordinator::run_streaming(std::span<const Dataset> parts,
                                     const StreamingCoresetOptions& sopts,
                                     const PipelineConfig& cfg,
                                     std::size_t rounds) const {
  EKM_EXPECTS(!parts.empty());
  EKM_EXPECTS(rounds >= 1);
  const std::size_t m = parts.size();
  // The round's width: the first non-empty shard's.
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    if (p.size() > 0) {
      d = p.dim();
      break;
    }
  }
  SimNetwork net(m, scenario_);

  std::vector<StreamingCoreset> streams;
  streams.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    StreamingCoresetOptions site_opts = sopts;
    site_opts.seed = derive_seed(sopts.seed, i);
    streams.emplace_back(site_opts);
  }

  // Each round: every site folds its next batch into the
  // merge-and-reduce tree and uplinks the finalized summary; the server
  // keeps the freshest summary per site. Sites progress on their own
  // virtual clocks — the server just drains arrivals. Under a round
  // deadline (the network's round policy) a late summary is abandoned
  // and the server keeps that site's previous round's summary: a
  // deadline costs freshness here, never liveness — which is also why
  // the policy's min_responders deliberately does not apply to
  // streaming rounds (a round with zero fresh summaries just serves
  // stale ones).
  const RoundPolicy& policy = net.round_policy();
  // Only disSS narrows frames; the summaries keep cfg's width.
  EKM_EXPECTS_MSG(policy.quant != QuantPolicy::kAdaptive,
                  "streaming round: quant=adaptive is not supported; only "
                  "disSS coreset frames (bklw, jl+bklw) narrow");
  const double deadline_s = policy.deadline_s;
  net.set_recorder(cfg.recorder);
  std::vector<Coreset> latest(m);
  // The rounds form a task graph rather than a loop so the cross-round
  // dependency is explicit and gateable: unpipelined, round r+1's open
  // barrier depends on every round-r collect (the PR 8 lock-step
  // order); pipelined, it depends only on round r's *committed* barrier
  // — declared structure the creation-order replay does not reorder
  // (scheduler.hpp), so host-side behavior is bitwise identical either
  // way and the timing win comes from the fabric's predicted-arrival
  // NAKs alone. Each round holds its own RoundContext handle: a late
  // summary expiring under round r's cutoff while round r+1's uplinks
  // ride the fabric can never be consumed by an r+1 collect
  // (SimNetwork asserts frame.round against the receiving round).
  std::vector<RoundId> rids(rounds, kNoRound);
  TaskGraph graph;
  std::vector<TaskId> prev_collects;
  TaskId prev_commit = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<TaskId> open_deps;
    if (r > 0) {
      open_deps = policy.pipeline ? std::vector<TaskId>{prev_commit}
                                  : prev_collects;
    }
    const TaskId open = graph.add(
        {TaskKind::kBarrier, kServerActor, "streaming/round-open",
         [&net, &rids, deadline_s, r] { rids[r] = net.open_round(deadline_s); },
         std::move(open_deps)});
    std::vector<TaskId> uplinks;
    uplinks.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      uplinks.push_back(graph.add(
          {TaskKind::kUplink, i, "streaming/uplink",
           [&, r, i] {
             (void)stream_round_uplink(streams[i],
                                       round_batch(parts[i], r, rounds),
                                       net.uplink(i), cfg.significant_bits);
           },
           {open}}));
    }
    std::vector<TaskId> collects;
    collects.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      collects.push_back(graph.add(
          {TaskKind::kCollect, kServerActor, "streaming/collect",
           [&net, &rids, &latest, d, r, i] {
             auto frame = net.uplink(i).receive_by(rids[r]);
             // A stale summary survives the round: the server keeps the
             // site's previous summary when this round's expired.
             if (!frame.has_value()) return;
             Coreset summary = decode_coreset(*frame);
             expect_summary_shape(i, summary, d);
             if (summary.size() > 0 || latest[i].size() == 0) {
               latest[i] = std::move(summary);
             }
           },
           {uplinks[i]}}));
    }
    // The commit barrier is purely structural (no fabric calls): it is
    // the "round r is final" join that pipelined round r+1 opens on.
    prev_commit = graph.add({TaskKind::kBarrier, kServerActor,
                             "streaming/commit", {}, collects});
    prev_collects = std::move(collects);
  }
  PhaseScheduler(net).run(graph);

  std::vector<Dataset> pieces;
  for (Coreset& c : latest) {
    if (c.size() > 0) pieces.push_back(std::move(c.points));
  }
  EKM_ENSURES_MSG(!pieces.empty(), "streaming deployment produced no summary");
  const Dataset merged = concatenate(pieces);

  const KMeansResult solved = kmeans(merged, server_solver_options(cfg));

  PipelineResult result;
  result.centers = solved.centers;
  result.uplink = net.total_uplink();
  result.downlink = net.total_downlink();
  result.summary_points = merged.size();
  return make_report(scenario_, "streaming", std::move(result), net);
}

}  // namespace ekm
