#include "distributed/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>

#include "common/sampling.hpp"
#include "kmeans/cost.hpp"
#include "net/summary_codec.hpp"

namespace ekm {
namespace {

double global_cost(std::span<const Dataset> parts, const Matrix& centers) {
  double cost = 0.0;
  for (const Dataset& p : parts) {
    if (!p.empty()) cost += kmeans_cost(p, centers);
  }
  return cost;
}

// Per-source sufficient statistics for one Lloyd round: k x (d + 2)
// rows of [weighted coordinate sums | weighted count | weighted cost].
Matrix local_stats(const Dataset& part, const Matrix& centers) {
  const std::size_t k = centers.rows();
  const std::size_t d = centers.cols();
  Matrix stats(k, d + 2);
  for (std::size_t i = 0; i < part.size(); ++i) {
    const double w = part.weight(i);
    if (w == 0.0) continue;
    const NearestCenter nc = nearest_center(part.point(i), centers);
    auto row = stats.row(nc.index);
    auto p = part.point(i);
    for (std::size_t j = 0; j < d; ++j) row[j] += w * p[j];
    row[d] += w;
    row[d + 1] += w * nc.sq_dist;
  }
  return stats;
}

// The decoders do not know the shapes a receive expects, so each receive
// checks its frame: j x cols with min_rows <= j <= max_rows. `exchange`
// names what the source sent or received.
void expect_frame_shape(const char* round, std::size_t source,
                        const char* exchange, const Matrix& m,
                        std::size_t min_rows, std::size_t max_rows,
                        std::size_t cols) {
  EKM_EXPECTS_MSG(
      m.rows() >= min_rows && m.rows() <= max_rows && m.cols() == cols,
      std::string(round) + ": source " + std::to_string(source) + " " +
          exchange + " " + std::to_string(m.rows()) + "x" +
          std::to_string(m.cols()) + ", expected " +
          (min_rows == max_rows ? std::to_string(min_rows) + "x" +
                                      std::to_string(cols)
                                : "jx" + std::to_string(cols) + " with " +
                                      std::to_string(min_rows) +
                                      " <= j <= " + std::to_string(max_rows)));
}

}  // namespace

DistributedBaselineResult distributed_lloyd(std::span<const Dataset> parts,
                                            const DistributedLloydOptions& opts,
                                            Fabric& net,
                                            Stopwatch& device_work) {
  EKM_EXPECTS(!parts.empty());
  EKM_EXPECTS(parts.size() == net.num_sources());
  EKM_EXPECTS(opts.k >= 1 && opts.max_rounds >= 1);
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    if (!p.empty()) d = p.dim();
  }
  EKM_EXPECTS_MSG(d > 0, "all sources empty");
  const std::size_t k = opts.k;
  const RoundPolicy& policy = net.round_policy();

  // Seeding round: every source uplinks k weight-proportional local
  // samples; the server keeps k of them at random. Like every
  // collection round here, it is deadline-bounded: late candidates are
  // simply not in the draw.
  const RoundId seed_round = net.open_round(policy.deadline_s);
  Matrix candidates;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Matrix local(0, d);
    if (!parts[i].empty()) {
      const WallSpan window(device_work);
      Rng rng = make_rng(opts.seed, 0xfeedULL + i);
      std::vector<double> w(parts[i].size());
      for (std::size_t p = 0; p < parts[i].size(); ++p) w[p] = parts[i].weight(p);
      const AliasTable table(w);
      local = Matrix(std::min<std::size_t>(k, parts[i].size()), d);
      for (std::size_t c = 0; c < local.rows(); ++c) {
        auto src = parts[i].point(table.sample(rng));
        std::copy(src.begin(), src.end(), local.row(c).begin());
      }
    }
    net.uplink(i).send(encode_matrix(local));
  }
  std::size_t seed_responders = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    auto frame = net.uplink(i).receive_by(seed_round);
    if (!frame.has_value()) continue;
    seed_responders += 1;
    const Matrix local = decode_matrix(*frame);
    expect_frame_shape("seeding round", i, "sent candidates", local, 0, k, d);
    if (local.rows() > 0) candidates.append_rows(local);
  }
  enforce_availability_floor(seed_responders, policy.min_responders,
                             "seeding round", net.rounds_opened());
  EKM_ENSURES(candidates.rows() >= 1);
  Rng server_rng = make_rng(opts.seed, 0x5eedULL);
  Matrix centers(std::min<std::size_t>(k, candidates.rows()), d);
  {
    std::vector<std::size_t> order(candidates.rows());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), server_rng);
    for (std::size_t c = 0; c < centers.rows(); ++c) {
      auto src = candidates.row(order[c]);
      std::copy(src.begin(), src.end(), centers.row(c).begin());
    }
  }

  // Synchronous rounds.
  DistributedBaselineResult result;
  double prev_cost = std::numeric_limits<double>::infinity();
  for (int round = 0; round < opts.max_rounds; ++round) {
    result.rounds = round + 1;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      net.downlink(i).send(encode_matrix(centers));
    }
    const RoundId rid = net.open_round(policy.deadline_s);
    Matrix sums(k, d);
    std::vector<double> mass(k, 0.0);
    double round_cost = 0.0;
    std::vector<char> sent(parts.size(), 0);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      Matrix stats(k, d + 2);
      {
        const WallSpan window(device_work);
        auto pushed_frame = net.downlink(i).receive_by(kNoRound);
        if (!pushed_frame.has_value()) continue;  // lost the broadcast
        const Matrix pushed = decode_matrix(*pushed_frame);
        expect_frame_shape("Lloyd round", i, "received centers", pushed, 1, k,
                           d);
        if (!parts[i].empty()) stats = local_stats(parts[i], pushed);
      }
      net.uplink(i).send(encode_matrix(stats));
      sent[i] = 1;
    }
    // Partial aggregation: the update runs over whichever sources made
    // the deadline; their masses renormalize the centroids, and the
    // convergence check sees the responders' cost.
    std::size_t responders = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (!sent[i]) continue;
      auto frame = net.uplink(i).receive_by(rid);
      if (!frame.has_value()) continue;
      responders += 1;
      const Matrix stats = decode_matrix(*frame);
      expect_frame_shape("Lloyd round", i, "sent statistics", stats, k, k,
                         d + 2);
      for (std::size_t c = 0; c < k; ++c) {
        auto row = stats.row(c);
        auto dst = sums.row(c);
        for (std::size_t j = 0; j < d; ++j) dst[j] += row[j];
        mass[c] += row[d];
        round_cost += row[d + 1];
      }
    }
    enforce_availability_floor(responders, policy.min_responders, "Lloyd round",
                               net.rounds_opened());
    for (std::size_t c = 0; c < centers.rows(); ++c) {
      if (mass[c] > 0.0) {
        auto row = centers.row(c);
        auto s = sums.row(c);
        for (std::size_t j = 0; j < d; ++j) row[j] = s[j] / mass[c];
      }
    }
    if (std::isfinite(prev_cost) &&
        prev_cost - round_cost <= opts.rel_tol * std::max(prev_cost, 1e-300)) {
      break;
    }
    prev_cost = round_cost;
  }

  result.centers = std::move(centers);
  result.cost = global_cost(parts, result.centers);
  return result;
}

DistributedBaselineResult mapreduce_kmeans(std::span<const Dataset> parts,
                                           const MapReduceOptions& opts,
                                           Fabric& net,
                                           Stopwatch& device_work) {
  EKM_EXPECTS(!parts.empty());
  EKM_EXPECTS(parts.size() == net.num_sources());
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    if (!p.empty()) d = p.dim();
  }
  EKM_EXPECTS_MSG(d > 0, "all sources empty");

  // Map: local k-means; uplink k centers + k cluster masses.
  const RoundPolicy& policy = net.round_policy();
  const RoundId round = net.open_round(policy.deadline_s);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Matrix payload(0, d + 1);
    if (!parts[i].empty()) {
      const WallSpan window(device_work);
      KMeansOptions kopts;
      kopts.k = opts.k;
      kopts.restarts = opts.local_restarts;
      kopts.seed = derive_seed(opts.seed, i);
      const KMeansResult local = kmeans(parts[i], kopts);
      std::vector<double> mass(local.centers.rows(), 0.0);
      for (std::size_t p = 0; p < parts[i].size(); ++p) {
        mass[local.assignment[p]] += parts[i].weight(p);
      }
      payload = Matrix(local.centers.rows(), d + 1);
      for (std::size_t c = 0; c < local.centers.rows(); ++c) {
        auto src = local.centers.row(c);
        auto dst = payload.row(c);
        std::copy(src.begin(), src.end(), dst.begin());
        dst[d] = mass[c];
      }
    }
    net.uplink(i).send(encode_matrix(payload));
  }

  // Reduce: weighted k-means over the candidates that made the
  // deadline — a late local solution is simply absent from the merge.
  Matrix all_centers;
  std::vector<double> all_mass;
  std::size_t responders = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    auto frame = net.uplink(i).receive_by(round);
    if (!frame.has_value()) continue;
    responders += 1;
    const Matrix payload = decode_matrix(*frame);
    expect_frame_shape("map round", i, "sent local centers", payload, 0,
                       opts.k, d + 1);
    for (std::size_t c = 0; c < payload.rows(); ++c) {
      Matrix row(1, d);
      std::copy_n(payload.row(c).begin(), d, row.row(0).begin());
      all_centers.append_rows(row);
      all_mass.push_back(payload(c, d));
    }
  }
  enforce_availability_floor(responders, policy.min_responders, "map round",
                             net.rounds_opened());
  EKM_ENSURES(all_centers.rows() >= 1);
  KMeansOptions reduce;
  reduce.k = opts.k;
  reduce.restarts = 5;
  reduce.seed = derive_seed(opts.seed, 0xedceULL);
  const KMeansResult merged =
      kmeans(Dataset(std::move(all_centers), std::move(all_mass)), reduce);

  DistributedBaselineResult result;
  result.centers = merged.centers;
  result.cost = global_cost(parts, result.centers);
  result.rounds = 1;
  return result;
}

DistributedBaselineResult gossip_kmeans(std::span<const Dataset> parts,
                                        const GossipOptions& opts, Fabric& net,
                                        Stopwatch& device_work) {
  EKM_EXPECTS(!parts.empty());
  EKM_EXPECTS(parts.size() == net.num_sources());
  EKM_EXPECTS(opts.rounds >= 1 && opts.degree >= 1);
  const std::size_t m = parts.size();
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    if (!p.empty()) d = p.dim();
  }
  EKM_EXPECTS_MSG(d > 0, "all sources empty");

  // Local initial solves.
  std::vector<Matrix> local_centers(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (parts[i].empty()) continue;
    const WallSpan window(device_work);
    KMeansOptions kopts;
    kopts.k = opts.k;
    kopts.restarts = 1;
    kopts.max_iters = 10;
    kopts.seed = derive_seed(opts.seed, i);
    local_centers[i] = kmeans(parts[i], kopts).centers;
  }

  Rng rng = make_rng(opts.seed, 0x905ULL);
  std::uniform_int_distribution<std::size_t> pick(0, m - 1);
  for (int round = 0; round < opts.rounds; ++round) {
    for (std::size_t i = 0; i < m; ++i) {
      if (local_centers[i].empty()) continue;
      for (std::size_t e = 0; e < opts.degree; ++e) {
        std::size_t j = pick(rng);
        if (j == i || local_centers[j].empty()) continue;
        // Peer exchange: both endpoints transmit their centers (billed
        // on each sender's uplink ledger — P2P traffic is still radio).
        // If either frame expires in flight, the whole exchange is
        // skipped — gossip tolerates lost rounds by construction.
        net.uplink(i).send(encode_matrix(local_centers[i]));
        net.uplink(j).send(encode_matrix(local_centers[j]));
        auto mine_frame = net.uplink(i).receive_by(kNoRound);
        auto theirs_frame = net.uplink(j).receive_by(kNoRound);
        if (!mine_frame.has_value() || !theirs_frame.has_value()) continue;
        const Matrix mine = decode_matrix(*mine_frame);
        const Matrix theirs = decode_matrix(*theirs_frame);
        expect_frame_shape("gossip exchange", i, "sent centers", mine, 1,
                           opts.k, d);
        expect_frame_shape("gossip exchange", j, "sent centers", theirs, 1,
                           opts.k, d);
        const WallSpan window(device_work);
        // Greedy matching: average each of my centers with its nearest
        // peer center.
        Matrix averaged = mine;
        for (std::size_t c = 0; c < averaged.rows(); ++c) {
          const NearestCenter nc = nearest_center(mine.row(c), theirs);
          auto row = averaged.row(c);
          auto peer = theirs.row(nc.index);
          for (std::size_t x = 0; x < d; ++x) row[x] = 0.5 * (row[x] + peer[x]);
        }
        local_centers[i] = averaged;
        local_centers[j] = std::move(averaged);
      }
      // Local improvement step.
      if (!parts[i].empty()) {
        const WallSpan window(device_work);
        KMeansOptions kopts;
        kopts.k = opts.k;
        kopts.max_iters = 2;
        kopts.restarts = 1;
        kopts.seed = derive_seed(opts.seed, 0xaaULL + i);
        local_centers[i] = lloyd(parts[i], local_centers[i], kopts).centers;
      }
    }
  }

  // Pick the consensus estimate with the best local cost, score globally.
  DistributedBaselineResult result;
  double best_local = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i) {
    if (parts[i].empty() || local_centers[i].empty()) continue;
    const double c = kmeans_cost(parts[i], local_centers[i]);
    if (c < best_local) {
      best_local = c;
      result.centers = local_centers[i];
    }
  }
  EKM_ENSURES(result.centers.rows() >= 1);
  result.cost = global_cost(parts, result.centers);
  result.rounds = opts.rounds;
  return result;
}

}  // namespace ekm
