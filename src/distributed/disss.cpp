#include "distributed/disss.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <utility>

#include "cr/merge.hpp"
#include "kmeans/cost.hpp"
#include "net/summary_codec.hpp"
#include "obs/recorder.hpp"
#include "qt/quantizer.hpp"
#include "sched/scheduler.hpp"

namespace ekm {
namespace {

// A decoded coreset is empty, or ambient points of the round's width d
// with no basis. The decoder does not know d, so the collect site
// checks, before a wrong width can set the width of the union.
void expect_coreset_shape(std::size_t source, const Coreset& coreset,
                          std::size_t d) {
  EKM_EXPECTS_MSG(
      coreset.size() == 0 ||
          (coreset.points.dim() == d && !coreset.basis.has_value()),
      "disSS summary round: source " + std::to_string(source) +
          " sent a coreset of " + std::to_string(coreset.points.dim()) +
          " columns" + (coreset.basis.has_value() ? " with a basis" : "") +
          ", expected " + std::to_string(d) + " columns and no basis");
}

/// Per-site sampling state retained across the summary round's waves:
/// the assignment/contribution scan of step 3 plus every pick drawn so
/// far, so a reallocation wave can *extend* the sample (continuing the
/// site's RNG stream) instead of re-scanning the shard.
struct SiteSample {
  std::vector<std::size_t> assign;   ///< nearest local center per point
  std::vector<double> contrib;       ///< w(p) · d²(p, X_i) per point
  std::vector<double> cluster_weight;  ///< shard mass per local center
  double cost = 0.0;                 ///< Σ contrib
  std::vector<std::size_t> picks;    ///< sampled point indices, draw order
  std::size_t target_rows = 0;       ///< sample rows in the last coreset
  Rng rng;                           ///< stream 2i+1, persists across waves
};

/// Draws `count` additional cost-proportional picks into `st.picks`.
/// The linear subtract-scan consumes the RNG stream exactly like the
/// pre-wave code, with one deliberate divergence: the rounding
/// fallback below picks the last *positive-contribution* point where
/// the old code used the raw last index — which, when that point was
/// itself a bicriteria center (contrib == 0), reweighted by 1/0 and
/// injected an inf weight into the coreset.
void draw_picks(SiteSample& st, const Dataset& p, std::size_t count) {
  if (count == 0 || st.cost <= 0.0) return;
  const std::size_t n = p.size();
  // Rounding fallback for draws that land within an ulp of st.cost:
  // the last point with positive contribution, never a zero-contrib
  // point (e.g. a data point that is itself a bicriteria center) whose
  // reweighting would divide by zero.
  std::size_t fallback = n - 1;
  while (fallback > 0 && st.contrib[fallback] <= 0.0) --fallback;
  std::uniform_real_distribution<double> unif(0.0, st.cost);
  for (std::size_t s = 0; s < count; ++s) {
    double r = unif(st.rng);
    std::size_t pick = fallback;
    for (std::size_t j = 0; j < n; ++j) {
      r -= st.contrib[j];
      if (r <= 0.0) {
        pick = j;
        break;
      }
    }
    st.picks.push_back(pick);
  }
}

/// Builds the site's local coreset from everything picked so far:
/// sampled points with the unbiased reweighting of [4], per-cluster
/// overshoot rescale, then the bicriteria-center top-up that keeps the
/// total weight exactly equal to the shard's mass — which is what makes
/// the union's mass invariant under who responds and how often a wave
/// re-extends a sample.
Dataset coreset_from_picks(const Dataset& p, const Matrix& xi,
                           const SiteSample& st, double total_cost,
                           std::size_t total_samples) {
  const std::size_t b = xi.rows();
  Matrix pts(st.target_rows + b, p.dim());
  std::vector<double> weights(st.target_rows + b, 0.0);
  std::vector<double> sampled_mass(b, 0.0);
  std::vector<std::size_t> assign_of_pick(st.picks.size(), 0);
  for (std::size_t s = 0; s < st.picks.size(); ++s) {
    const std::size_t pick = st.picks[s];
    auto src = p.point(pick);
    std::copy(src.begin(), src.end(), pts.row(s).begin());
    // Reweighting of [4]: across sources the union is a
    // cost-proportional sample of size `total_samples`, so the
    // unbiased weight is w(p) · total_cost / (total_samples ·
    // contrib(p)) with contrib(p) = w(p) d²(p, X_i).
    weights[s] = p.weight(pick) * total_cost /
                 (static_cast<double>(total_samples) * st.contrib[pick]);
    assign_of_pick[s] = st.assign[pick];
    sampled_mass[st.assign[pick]] += weights[s];
  }
  // Step 3's "weights set to match the number of points per cluster":
  // rescale overshooting clusters, then top residual mass up via the
  // bicriteria centers, keeping the total weight exact.
  for (std::size_t c = 0; c < b; ++c) {
    if (sampled_mass[c] > st.cluster_weight[c] && sampled_mass[c] > 0.0) {
      const double scale = st.cluster_weight[c] / sampled_mass[c];
      for (std::size_t s = 0; s < st.picks.size(); ++s) {
        if (assign_of_pick[s] == c) weights[s] *= scale;
      }
      sampled_mass[c] = st.cluster_weight[c];
    }
  }
  for (std::size_t c = 0; c < b; ++c) {
    auto src = xi.row(c);
    std::copy(src.begin(), src.end(), pts.row(st.target_rows + c).begin());
    weights[st.target_rows + c] =
        std::max(0.0, st.cluster_weight[c] - sampled_mass[c]);
  }
  return {std::move(pts), std::move(weights)};
}

/// Graceful degradation (qt/policy.hpp): the significand width a site
/// commits to right before an uplink. Fixed policy — or an unbounded
/// round, or an instant fabric (airtime 0) — keeps the configured
/// width, consulting nothing; adaptive weighs the frame's single-attempt
/// airtime against the remaining round budget and walks a small ladder
/// of narrower widths until the frame fits, flooring at 8 significand
/// bits (below that the width savings are marginal — 12 header bits
/// dominate — and the frame ships at 8 even when it still cannot fit).
int pick_significant_bits(const Coreset& cs, const DisSsOptions& opts,
                          QuantPolicy quant, Fabric& net, std::size_t i,
                          double deadline) {
  if (quant != QuantPolicy::kAdaptive || !std::isfinite(deadline)) {
    return opts.significant_bits;
  }
  const double budget = deadline - net.site_time(i);
  const double full_airtime =
      net.uplink_airtime_s(i, coreset_wire_bits(cs, opts.significant_bits));
  if (full_airtime <= 0.0 || full_airtime <= budget) {
    return opts.significant_bits;
  }
  constexpr int kLadder[] = {24, 16, 8};
  int width = opts.significant_bits;
  for (int step : kLadder) {
    if (step >= opts.significant_bits) continue;
    width = step;
    if (net.uplink_airtime_s(i, coreset_wire_bits(cs, step)) <= budget) break;
  }
  return width;
}

}  // namespace

// disSS as a task graph (src/sched/): two collection rounds — the cost
// round (bicriteria + one-scalar uplink, budget-split barrier, NAK or
// allocation broadcast) and the summary round (sample + coreset
// uplink, union barrier) — plus a *dynamically added* continuation:
// the budget-reallocation wave only exists once the union barrier
// knows who missed, so its tasks (open_subround, per-receiver
// broadcast, supplement compute/uplink, collect, final union) are
// appended to the running graph by the barrier's action. Creation
// order mirrors the PR 4 loops statement for statement, so execution
// (lowest-ready-id) is bitwise identical to them; barriers commit on
// final inputs, which is what the predicted-arrival NAK accelerates.
Coreset disss(std::span<const Dataset> parts, const DisSsOptions& opts,
              Fabric& net, Stopwatch& device_work, std::uint64_t seed) {
  EKM_EXPECTS(!parts.empty());
  EKM_EXPECTS(parts.size() == net.num_sources());
  EKM_EXPECTS(opts.total_samples >= parts.size());
  const RoundPolicy& policy = net.round_policy();
  const std::size_t m = parts.size();
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    if (!p.empty()) {
      d = p.dim();
      break;
    }
  }

  // Shared protocol state, written by the tasks in dependency order.
  RoundId cost_round = kNoRound;
  std::vector<Matrix> local_centers(m);
  std::vector<double> local_cost(m, 0.0);
  std::vector<char> in_round(m, 0);
  double total_cost = 0.0;
  std::size_t cost_responders = 0;
  std::vector<std::size_t> alloc(m, 0);
  RoundId summary_round = kNoRound;
  double summary_deadline = kNoDeadline;
  double wave1_deadline = kNoDeadline;
  std::vector<SiteSample> samples(m);
  std::vector<char> sent(m, 0);
  std::vector<Dataset> piece(m);
  std::vector<char> got(m, 0);
  std::size_t summary_responders = 0;
  Coreset merged;

  // The wave schedule is a pure function of the round policy (see the
  // summary-round open task below for the timing rationale).
  const bool reserve_scheduled =
      std::isfinite(policy.deadline_s) && policy.realloc_reserve > 0.0;
  const bool realloc_armed =
      policy.reallocate &&
      (!std::isfinite(policy.deadline_s) || reserve_scheduled);

  TaskGraph graph;

  // --- step 1: local bicriteria solutions, uplink local costs. ---
  const TaskId cost_open = graph.add(
      {TaskKind::kBarrier, kServerActor, "disSS/open-cost-round",
       [&] { cost_round = net.open_round(policy.deadline_s); },
       {}});
  std::vector<TaskId> cost_uplinks(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (parts[i].empty()) {
      cost_uplinks[i] =
          graph.add({TaskKind::kUplink, i, "disSS/uplink-cost-empty",
                     [&net, i] { net.uplink(i).send(encode_scalar(0.0)); },
                     {cost_open}});
      continue;
    }
    const TaskId compute = graph.add(
        {TaskKind::kCompute, i, "disSS/bicriteria",
         [&, i] {
           Rng rng = make_rng(seed, 2 * i);
           const WallSpan window(device_work);
           BicriteriaOptions bopts = opts.bicriteria;
           bopts.k = opts.k;
           local_centers[i] = bicriteria_centers(parts[i], bopts, rng);
           local_cost[i] = kmeans_cost(parts[i], local_centers[i]);
         },
         {cost_open}});
    cost_uplinks[i] = graph.add(
        {TaskKind::kUplink, i, "disSS/uplink-cost",
         [&, i] { net.uplink(i).send(encode_scalar(local_cost[i])); },
         {compute}});
  }

  // --- step 2: server allocates the sample budget ∝ cost, over the
  // sources whose cost report made the deadline. Dropped sources are
  // NAK'd (allocation -1) so they stay silent in step 3; total_cost —
  // and with it every sample weight — is renormalized over the
  // responders. ---
  std::vector<TaskId> cost_collects(m);
  for (std::size_t i = 0; i < m; ++i) {
    cost_collects[i] = graph.add(
        {TaskKind::kCollect, kServerActor, "disSS/collect-cost",
         [&, i] {
           auto frames = receive_frames_by(net.uplink(i), 1, cost_round);
           if (!frames.has_value()) return;
           in_round[i] = 1;
           cost_responders += 1;
           total_cost += decode_scalar((*frames)[0]);
         },
         {cost_uplinks[i]}});
  }
  const TaskId budget_split = graph.add(
      {TaskKind::kBarrier, kServerActor, "disSS/budget-split",
       [&] {
         enforce_availability_floor(cost_responders, policy.min_responders,
                                    "disSS cost round", net.rounds_opened());
       },
       cost_collects});
  std::vector<TaskId> alloc_broadcasts(m);
  for (std::size_t i = 0; i < m; ++i) {
    alloc_broadcasts[i] = graph.add(
        {TaskKind::kBroadcast, kServerActor, "disSS/broadcast-alloc",
         [&, i] {
           if (!in_round[i]) {
             net.downlink(i).send(encode_scalar(-1.0));
             return;
           }
           alloc[i] = total_cost > 0.0
                          ? static_cast<std::size_t>(std::llround(
                                static_cast<double>(opts.total_samples) *
                                local_cost[i] / total_cost))
                          : opts.total_samples / cost_responders;
           net.downlink(i).send(encode_scalar(static_cast<double>(alloc[i])));
         },
         {budget_split}});
  }

  // --- step 3: sources sample ∝ cost({p}, X_i), uplink S_i ∪ X_i. ---
  // Cross-round pipelining: with `pipeline=on` the summary round's open
  // barrier depends only on the cost round's *committed* budget-split
  // barrier, not on the allocation broadcasts — the summary round's
  // handle is minted (and its cutoff anchored) while the allocation
  // frames still ride the fabric, and each site's sample task waits on
  // the open barrier plus its OWN allocation broadcast only. Off keeps
  // PR 8's serial edges. Either way the tasks are created in the same
  // program order, so the creation-order replay — and with it every
  // draw, ledger, and clock — is identical; the edges declare the true
  // dataflow for any topological executor. The sampling task receives
  // its allocation and sends its coreset, so it is an uplink task and
  // runs on the protocol thread; only the bicriteria solves above run
  // as computes, side by side.
  const std::vector<TaskId> summary_open_deps =
      policy.pipeline ? std::vector<TaskId>{budget_split} : alloc_broadcasts;
  const TaskId summary_open = graph.add(
      {TaskKind::kBarrier, kServerActor, "disSS/open-summary-round",
       [&] {
         summary_round = net.open_round(policy.deadline_s);
         summary_deadline = net.round_cutoff(summary_round);
         // The server only learns who missed a finite round when the
         // collection deadline passes, so a wave opened at the round
         // cutoff itself could never deliver. Reallocation under a
         // finite deadline therefore requires an explicitly scheduled
         // reserve: first-wave summaries are then due at `deadline −
         // reserve × budget` and the tail of the round belongs to the
         // wave. With no reserve (the default) the first wave collects
         // at the full round deadline — exactly PR 3's schedule — and
         // the wave is skipped; with an unbounded round the server
         // learns of a miss the moment the sender's retry budget dies,
         // and the wave runs without a reserve. (The sites schedule
         // transmissions against the *round* cutoff either way — the
         // wave split is the server's internal affair.)
         wave1_deadline =
             policy.reallocate && reserve_scheduled
                 ? summary_deadline - policy.realloc_reserve * policy.deadline_s
                 : summary_deadline;
       },
       summary_open_deps});
  std::vector<TaskId> summary_uplinks(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<TaskId> sample_deps =
        policy.pipeline ? std::vector<TaskId>{summary_open, alloc_broadcasts[i]}
                      : std::vector<TaskId>{summary_open};
    summary_uplinks[i] = graph.add(
        {TaskKind::kUplink, i, "disSS/sample+uplink",
         [&, i] {
           if (parts[i].empty()) {
             // Consume the allocation frame even though its value is
             // moot — leaving it queued would alias the next downlink
             // read on this link (e.g. a refine round's pushed
             // centers).
             (void)net.downlink(i).receive_by(kNoRound);
             net.uplink(i).send(encode_coreset(Coreset{}, opts.significant_bits));
             sent[i] = 1;
             return;
           }
           // A NAK'd source — or one whose allocation frame expired on
           // the downlink — sits this round out and transmits nothing.
           auto alloc_frame = net.downlink(i).receive_by(kNoRound);
           const double si_signed =
               alloc_frame.has_value() ? decode_scalar(*alloc_frame) : -1.0;
           if (si_signed < 0.0) return;
           const auto si = static_cast<std::size_t>(si_signed);
           Coreset local;
           {
             const WallSpan window(device_work);
             SiteSample& st = samples[i];
             st.rng = make_rng(seed, 2 * i + 1);
             const Dataset& p = parts[i];
             const std::size_t n = p.size();
             const Matrix& xi = local_centers[i];

             st.assign.resize(n);
             st.contrib.resize(n);
             st.cluster_weight.assign(xi.rows(), 0.0);
             for (std::size_t j = 0; j < n; ++j) {
               const NearestCenter nc = nearest_center(p.point(j), xi);
               st.assign[j] = nc.index;
               st.contrib[j] = p.weight(j) * nc.sq_dist;
               st.cost += st.contrib[j];
               st.cluster_weight[nc.index] += p.weight(j);
             }

             st.target_rows = std::min(si, n);
             draw_picks(st, p, st.target_rows);
             local.points =
                 coreset_from_picks(p, xi, st, total_cost, opts.total_samples);
           }
           // Adaptive quantization commits a width per frame, right
           // before transmission — the only moment the site knows both
           // the frame's size and the remaining round budget. Narrowed
           // points are quantized on-device (billed as device work);
           // the server's re-check at the configured width is exact
           // because s-bit values are representable at every width >= s.
           const int wire_s = pick_significant_bits(
               local, opts, policy.quant, net, i, summary_deadline);
           // The committed width is an observability signal (the
           // "graceful degradation" column): note it on the recorder,
           // if one rides the fabric. Reads only, after the decision.
           if (Recorder* rec = net.recorder()) {
             rec->note_quant_width(i, wire_s, opts.significant_bits);
           }
           if (wire_s < opts.significant_bits) {
             const WallSpan window(device_work);
             local.points = RoundingQuantizer(wire_s).quantize(local.points);
           }
           net.uplink(i).send(encode_coreset(local, wire_s));
           sent[i] = 1;
           // The scan/pick state exists only for the reallocation wave;
           // when no wave can run, release it now instead of holding
           // O(n) per site through the rest of the round.
           if (!realloc_armed) samples[i] = SiteSample{};
         },
         sample_deps});
  }

  // --- step 4: server unions the local coresets that made the
  // deadline. Each local coreset's weights sum to exactly its own
  // shard's mass (the per-cluster top-up in step 3 guarantees it), so
  // a dropped source costs only its mass — the union stays a valid
  // weighted summary of the responders' data. ---
  std::vector<TaskId> summary_collects(m);
  for (std::size_t i = 0; i < m; ++i) {
    summary_collects[i] = graph.add(
        {TaskKind::kCollect, kServerActor, "disSS/collect-summary",
         [&, i] {
           if (!sent[i]) return;
           // The first-wave split (wave1_deadline) caps the round's
           // cutoff when a reallocation reserve is scheduled.
           auto frames = receive_frames_by(net.uplink(i), 1, summary_round,
                                           wave1_deadline);
           if (!frames.has_value()) return;
           got[i] = 1;
           summary_responders += 1;
           Coreset local = decode_coreset((*frames)[0]);
           expect_coreset_shape(i, local, d);
           if (local.size() > 0) piece[i] = std::move(local.points);
         },
         {summary_uplinks[i]}});
  }

  // The union task is appended by the barrier below — after the wave's
  // tasks when a wave runs, directly otherwise. Its dependency list
  // always encodes the true dataflow (the summary collects, the
  // barrier itself, and any wave collects), even though most of those
  // tasks are already done at append time: the graph must stay correct
  // for any topological executor, not just the creation-order replay.
  const auto add_union_task = [&](std::vector<TaskId> deps) {
    (void)graph.add({TaskKind::kBarrier, kServerActor, "disSS/union",
                     [&] {
                       // merge_union (cr/merge.hpp) skips empty pieces
                       // and concatenates the rest in site order.
                       merged.points = merge_union(std::move(piece));
                       EKM_ENSURES_MSG(merged.size() > 0,
                                       "disSS produced an empty coreset");
                     },
                     std::move(deps)});
  };

  // --- step 4b: deadline-aware budget reallocation. A source that was
  // allocated part of the sample budget but fell out of the summary
  // round (deadline, or a spent retry budget) paid for samples that
  // never arrived; renormalizing over responders (PR 3) kept the
  // weights honest but delivered a smaller coreset than the round's
  // budget bought. Here the server re-splits the lost allocation
  // ∝ cost among the still-live responders in a second within-round
  // wave: each receiver extends its sample (continuing its own RNG
  // stream), rebuilds the rescale/top-up over the combined picks —
  // keeping its mass exactly its shard's — and uplinks a replacement
  // coreset under the same round cutoff (Fabric::open_subround). A
  // supplement that misses leaves the first-wave coreset in place, so
  // reallocation can only add resolution, never cost liveness. The
  // wave's tasks are appended to the *running* graph here: they exist
  // only once this barrier knows who missed. ---
  struct WaveState {
    double deadline = kNoDeadline;
    std::vector<std::size_t> extra;
    std::vector<char> sent;
  };
  WaveState wave;
  // The barrier's own id, captured so the tasks its action appends can
  // name it as a dependency (assigned right after the add below; the
  // action only runs once the scheduler pops the task, well after).
  TaskId summary_barrier = 0;
  // Deps of the union task up to the barrier: every summary collect,
  // plus the barrier itself.
  const auto barrier_deps = [&] {
    std::vector<TaskId> deps = summary_collects;
    deps.push_back(summary_barrier);
    return deps;
  };
  summary_barrier = graph.add(
      {TaskKind::kBarrier, kServerActor, "disSS/summary-barrier",
       [&] {
         // Distinct-site floor, checked once per round: the
         // reallocation wave never increments it (a responder that also
         // delivers a supplement is still one site) and never
         // decrements it (a responder whose supplement misses keeps its
         // first-wave coreset).
         enforce_availability_floor(summary_responders, policy.min_responders,
                                    "disSS summary round",
                                    net.rounds_opened());
         if (!realloc_armed) {
           add_union_task(barrier_deps());
           return;
         }
         std::size_t lost_budget = 0;
         for (std::size_t i = 0; i < m; ++i) {
           if (in_round[i] && !got[i]) lost_budget += alloc[i];
         }
         // Wave receivers: responders with data that are still fleet
         // members — a site that delivered its first wave and then left
         // (siteN.leave / churn) keeps its standing coreset, but the
         // lost budget is re-split over sites that can actually extend.
         double recv_cost = 0.0;
         std::size_t receivers = 0;
         for (std::size_t i = 0; i < m; ++i) {
           if (got[i] && !parts[i].empty() && net.is_member(i)) {
             recv_cost += local_cost[i];
             receivers += 1;
           }
         }
         wave.extra.assign(m, 0);
         wave.sent.assign(m, 0);
         std::size_t extra_total = 0;
         if (lost_budget > 0 && receivers > 0) {
           for (std::size_t i = 0; i < m; ++i) {
             if (!got[i] || parts[i].empty() || !net.is_member(i)) continue;
             wave.extra[i] =
                 recv_cost > 0.0
                     ? static_cast<std::size_t>(std::llround(
                           static_cast<double>(lost_budget) * local_cost[i] /
                           recv_cost))
                     : lost_budget / receivers;
             extra_total += wave.extra[i];
           }
         }
         // Open (and count) a wave only when rounding left something to
         // transfer — a wave that moves zero samples would still show
         // up in realloc_waves and contradict the budget-conservation
         // metric.
         if (extra_total == 0) {
           add_union_task(barrier_deps());
           return;
         }
         const TaskId wave_open = graph.add(
             {TaskKind::kBarrier, kServerActor, "disSS/open-wave",
              [&] {
                wave.deadline = net.round_cutoff(
                    net.open_subround(summary_round, summary_deadline));
              },
              {summary_barrier}});
         std::vector<TaskId> wave_broadcasts;
         for (std::size_t i = 0; i < m; ++i) {
           if (wave.extra[i] == 0) continue;
           wave_broadcasts.push_back(graph.add(
               {TaskKind::kBroadcast, kServerActor, "disSS/broadcast-extra",
                [&net, &wave, i] {
                  net.downlink(i).send(
                      encode_scalar(static_cast<double>(wave.extra[i])));
                },
                {wave_open}}));
         }
         std::vector<TaskId> wave_uplinks;
         std::vector<TaskId> wave_collects;
         for (std::size_t i = 0; i < m; ++i) {
           if (!got[i] || parts[i].empty() || wave.extra[i] == 0) continue;
           wave_uplinks.push_back(graph.add(
               {TaskKind::kUplink, i, "disSS/supplement",
                [&, i] {
                  // A receiver that loses the wave broadcast sits the
                  // wave out — its first-wave coreset already stands.
                  auto wave_frame = net.downlink(i).receive_by(kNoRound);
                  if (!wave_frame.has_value()) return;
                  const auto more =
                      static_cast<std::size_t>(decode_scalar(*wave_frame));
                  Coreset supplement;
                  {
                    const WallSpan window(device_work);
                    SiteSample& st = samples[i];
                    const std::size_t n = parts[i].size();
                    const std::size_t new_target =
                        std::min(st.target_rows + more, n);
                    draw_picks(st, parts[i], new_target - st.picks.size());
                    st.target_rows = new_target;
                    supplement.points =
                        coreset_from_picks(parts[i], local_centers[i], st,
                                           total_cost, opts.total_samples);
                  }
                  const int wire_s = pick_significant_bits(
                      supplement, opts, policy.quant, net, i, wave.deadline);
                  if (Recorder* rec = net.recorder()) {
                    rec->note_quant_width(i, wire_s, opts.significant_bits);
                  }
                  if (wire_s < opts.significant_bits) {
                    const WallSpan window(device_work);
                    supplement.points =
                        RoundingQuantizer(wire_s).quantize(supplement.points);
                  }
                  net.uplink(i).send(encode_coreset(supplement, wire_s));
                  wave.sent[i] = 1;
                },
                wave_broadcasts}));
         }
         for (std::size_t i = 0; i < m; ++i) {
           if (!got[i] || parts[i].empty() || wave.extra[i] == 0) continue;
           wave_collects.push_back(graph.add(
               {TaskKind::kCollect, kServerActor, "disSS/collect-supplement",
                [&, i] {
                  if (!wave.sent[i]) return;
                  auto frames =
                      receive_frames_by(net.uplink(i), 1, summary_round,
                                        wave.deadline);
                  if (!frames.has_value()) return;  // first-wave coreset stands
                  Coreset supplement = decode_coreset((*frames)[0]);
                  expect_coreset_shape(i, supplement, d);
                  if (supplement.size() > 0) {
                    piece[i] = std::move(supplement.points);
                  }
                },
                wave_uplinks}));
         }
         add_union_task(std::move(wave_collects));
       },
       summary_collects});

  PhaseScheduler(net).run(graph);
  return merged;
}

std::size_t disss_sample_size(std::size_t k, double epsilon, double delta,
                              std::size_t m, std::size_t n) {
  EKM_EXPECTS(epsilon > 0.0 && delta > 0.0 && delta < 1.0);
  const double kd = static_cast<double>(k);
  const double md = static_cast<double>(m);
  const double e2 = epsilon * epsilon;
  // ε⁻⁴(k²/ε² + log 1/δ) + mk log(mk/δ), scaled to laptop constants.
  const double raw = (kd * kd / e2 + std::log(1.0 / delta)) / (e2 * e2) * 0.02 +
                     md * kd * std::log(md * kd / delta);
  return static_cast<std::size_t>(
      std::clamp(raw, 2.0 * md * kd, static_cast<double>(n)));
}

}  // namespace ekm
