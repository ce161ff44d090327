#include "distributed/dispca.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "linalg/svd.hpp"
#include "net/summary_codec.hpp"
#include "sched/scheduler.hpp"

namespace ekm {
namespace {

std::string shape(const Matrix& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
}

// A decoded summary is the empty sentinel (0x0, 0x0), or Σ 1 x r with
// V d x r for 1 <= r <= min(t1, d). The decoder does not know d, so the
// collect site checks, before a wrong shape can set the width of y.
void expect_summary_shape(std::size_t source, const Matrix& sigma,
                          const Matrix& v, std::size_t d, std::size_t t1) {
  const std::size_t r = sigma.cols();
  const bool empty =
      sigma.rows() == 0 && r == 0 && v.rows() == 0 && v.cols() == 0;
  EKM_EXPECTS_MSG(empty || (sigma.rows() == 1 && v.rows() == d &&
                            v.cols() == r && r >= 1 && r <= std::min(t1, d)),
                  "disPCA round: source " + std::to_string(source) +
                      " sent Σ " + shape(sigma) + " and V " + shape(v) +
                      ", expected Σ 1xr and V " + std::to_string(d) +
                      "xr with 1 <= r <= " +
                      std::to_string(std::min(t1, d)));
}

}  // namespace

// disPCA as a task graph (src/sched/): per-site local-SVD compute
// feeding a two-frame uplink, one server collect per site, the global
// merge barrier, and the basis broadcast fan-out. Tasks are added in
// the program order of the PR 4 loop, so the scheduler's execution is
// bitwise identical to it; what the graph buys is the explicit
// dependency structure — the merge barrier commits on *final* inputs,
// which under round pipelining (SimNetwork predicted-arrival NAKs)
// happens as soon as every site's frames are delivered or provably
// late instead of at the round cutoff.
DisPcaResult dispca(std::span<const Dataset> parts, const DisPcaOptions& opts,
                    Fabric& net, Stopwatch& device_work) {
  EKM_EXPECTS(!parts.empty());
  EKM_EXPECTS(parts.size() == net.num_sources());
  const std::size_t m = parts.size();
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    if (!p.empty()) {
      d = p.dim();
      break;
    }
  }
  EKM_EXPECTS_MSG(d > 0, "all sources empty");
  for (const Dataset& p : parts) {
    EKM_EXPECTS_MSG(p.empty() || p.dim() == d,
                    "sources disagree on dimension");
  }

  // Shared round state, written by the tasks below in dependency order.
  // (Everything a task lambda captures must live here, at function
  // scope — the graph runs long after any inner block has closed.)
  const RoundPolicy& policy = net.round_policy();
  RoundId round = kNoRound;
  std::vector<Matrix> sigma(m);  // 1 x t1 each
  std::vector<Matrix> v(m);      // d x t1 each
  Matrix y;                      // (Σ_responders t1_i) x d
  std::size_t responders = 0;
  DisPcaResult result;

  TaskGraph graph;

  // The round opens before the first uplink so a time-aware fabric can
  // cancel retransmissions that would outlive the deadline.
  const TaskId open = graph.add(
      {TaskKind::kBarrier, kServerActor, "disPCA/open-round",
       [&] { round = net.open_round(policy.deadline_s); },
       {}});

  // --- data sources: local SVD, uplink (Σ^(t1), V^(t1)). ---
  std::vector<TaskId> uplinks(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (parts[i].empty()) {
      uplinks[i] = graph.add({TaskKind::kUplink, i, "disPCA/uplink-empty",
                              [&net, i] {
                                net.uplink(i).send(encode_matrix(Matrix(0, 0)));
                                net.uplink(i).send(encode_matrix(Matrix(0, 0)));
                              },
                              {open}});
      continue;
    }
    const TaskId compute = graph.add(
        {TaskKind::kCompute, i, "disPCA/local-svd",
         [&, i] {
           const WallSpan window(device_work);
           const std::size_t t1 =
               std::min({opts.t1, parts[i].size(), parts[i].dim()});
           // The uplink carries Σ and V; a tall shard's U is never formed.
           Svd svd = truncated_svd(parts[i].points(), t1, SvdFactors::kV);
           sigma[i] = Matrix(1, svd.rank());
           for (std::size_t j = 0; j < svd.rank(); ++j) {
             sigma[i](0, j) = svd.sigma[j];
           }
           v[i] = std::move(svd.v);
         },
         {open}});
    uplinks[i] = graph.add({TaskKind::kUplink, i, "disPCA/uplink-frames",
                            [&, i] {
                              net.uplink(i).send(encode_matrix(sigma[i]));
                              net.uplink(i).send(encode_matrix(v[i]));
                            },
                            {compute}});
  }

  // --- server: stack Y_i = Σ_i^(t1) V_i^(t1)^T over whichever sources
  // delivered by the deadline, global SVD. A dropped source's subspace
  // simply does not shape this round's merge — the availability /
  // accuracy trade the deadline buys. ---
  std::vector<TaskId> collects(m);
  for (std::size_t i = 0; i < m; ++i) {
    collects[i] = graph.add(
        {TaskKind::kCollect, kServerActor, "disPCA/collect",
         [&, i] {
           // The Σ/V pair is one summary: both frames are consumed
           // either way, and a half-arrived pair is one site miss —
           // never half-aggregated (receive_frames_by).
           auto frames = receive_frames_by(net.uplink(i), 2, round);
           if (!frames.has_value()) return;
           responders += 1;
           const Matrix sigma_row = decode_matrix((*frames)[0]);
           const Matrix v_t1 = decode_matrix((*frames)[1]);
           expect_summary_shape(i, sigma_row, v_t1, d, opts.t1);
           append_pca_summary(y, sigma_row, v_t1);
         },
         {uplinks[i]}});
  }

  const TaskId merge = graph.add(
      {TaskKind::kBarrier, kServerActor, "disPCA/merge-basis",
       [&] {
         enforce_availability_floor(responders, policy.min_responders,
                                    "disPCA round", net.rounds_opened());
         EKM_ENSURES_MSG(y.rows() > 0,
                         "all sources empty or dropped at the deadline");
         const std::size_t t2 = std::min({opts.t2, y.rows(), d});
         // Only V is read: a tall Y (many sources, small d) skips U.
         result.v = truncated_svd(y, t2, SvdFactors::kV).v;  // d x t2
       },
       collects});

  // --- server -> sources: broadcast the merged basis (downlink, not
  // counted by the paper's metric but measured by the ledger). ---
  for (std::size_t i = 0; i < m; ++i) {
    (void)graph.add({TaskKind::kBroadcast, kServerActor, "disPCA/broadcast",
                     [&, i] { net.downlink(i).send(encode_matrix(result.v)); },
                     {merge}});
  }

  PhaseScheduler(net).run(graph);
  return result;
}

}  // namespace ekm
