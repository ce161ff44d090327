#include "distributed/bklw.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "distributed/dispca.hpp"
#include "distributed/disss.hpp"
#include "dr/pca.hpp"
#include "net/summary_codec.hpp"
#include "sched/scheduler.hpp"

namespace ekm {
namespace {

// The basis broadcast is disPCA's merged V, d x r with 1 <= r <= t. The
// decoder does not know d, so the receiving site checks, before a wrong
// shape reaches its projection.
void expect_basis_shape(std::size_t source, const Matrix& v, std::size_t d,
                        std::size_t t) {
  EKM_EXPECTS_MSG(v.rows() == d && v.cols() >= 1 && v.cols() <= t,
                  "BKLW basis broadcast: source " + std::to_string(source) +
                      " received V " + std::to_string(v.rows()) + "x" +
                      std::to_string(v.cols()) + ", expected V " +
                      std::to_string(d) + "xr with 1 <= r <= " +
                      std::to_string(t));
}

}  // namespace

// BKLW composes the two task-graph protocols (disPCA, disSS) with a
// projection phase between them — itself a small per-site graph: each
// site's basis receive feeds its local projection, with no cross-site
// dependency at all. That independence is the point of phase overlap:
// on the simulated fabric a fast site's basis arrives, it projects and
// enters disSS on its own clock, regardless of what a straggler's
// timeline is still doing.
Coreset bklw_coreset(std::span<const Dataset> parts, const BklwOptions& opts,
                     Fabric& net, Stopwatch& device_work, std::uint64_t seed) {
  EKM_EXPECTS(!parts.empty());
  std::size_t n_total = 0;
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    n_total += p.size();
    if (p.size() > 0) d = p.dim();
  }
  EKM_EXPECTS_MSG(n_total > 0, "all sources empty");

  // --- disPCA: merge the global principal subspace. ---
  DisPcaOptions popts;
  const std::size_t t = opts.intrinsic_dim > 0
                            ? opts.intrinsic_dim
                            : fss_intrinsic_dim(opts.k, opts.epsilon, n_total, d);
  popts.t1 = t;
  popts.t2 = t;
  const DisPcaResult pca = dispca(parts, popts, net, device_work);

  // --- each source projects locally: coords_i = A_i V (n_i x t2). ---
  // (The ambient projected set of Theorem 5.1 is coords · V^T; working in
  // coordinates is equivalent for sampling and k-means since V is
  // orthonormal, and it is what keeps the disSS uplink at t2 scalars per
  // point.) Every site receives its basis broadcast first, in site
  // order; then the projections run as compute tasks, which the
  // scheduler may run side by side.
  std::vector<std::optional<Message>> basis_frames(parts.size());
  std::vector<Dataset> projected(parts.size());
  TaskGraph graph;
  std::vector<TaskId> receives(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    // Even an empty site consumes its copy of the broadcast: a frame
    // left queued would alias the next downlink read on this link
    // (disSS's allocation, or a refine round's centers).
    receives[i] = graph.add(
        {TaskKind::kCollect, i, "bklw/receive-basis",
         [&, i] { basis_frames[i] = net.downlink(i).receive_by(kNoRound); },
         {}});
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) continue;
    (void)graph.add(
        {TaskKind::kCompute, i, "bklw/project",
         [&, i] {
           // A site whose basis broadcast expired on the downlink cannot
           // project; it enters disSS as an empty source (transmitting
           // only the empty-summary sentinel) instead of wedging the
           // protocol.
           if (!basis_frames[i].has_value()) return;
           const WallSpan window(device_work);
           const Matrix v = decode_matrix(*basis_frames[i]);
           basis_frames[i].reset();  // or m frames would live through disSS
           expect_basis_shape(i, v, d, t);
           Matrix coords = matmul(parts[i].points(), v);
           projected[i] = parts[i].is_weighted()
                              ? Dataset(std::move(coords), *parts[i].weights())
                              : Dataset(std::move(coords));
         },
         {receives[i]}});
  }
  PhaseScheduler(net).run(graph);

  // --- disSS on the projected data. ---
  DisSsOptions sopts;
  sopts.k = opts.k;
  sopts.total_samples =
      opts.total_samples > 0
          ? opts.total_samples
          : disss_sample_size(opts.k, opts.epsilon, opts.delta, parts.size(),
                              n_total);
  sopts.significant_bits = opts.significant_bits;
  Coreset coreset = disss(projected, sopts, net, device_work, seed);

  coreset.delta = 0.0;
  coreset.basis = pca.v.transposed();  // t2 x d
  return coreset;
}

}  // namespace ekm
