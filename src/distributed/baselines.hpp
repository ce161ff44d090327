// Distributed k-means baselines from the paper's related work (§2):
// "there are also system works on adapting centralized k-means algorithms
// for distributed settings, e.g., MapReduce [28], sensor networks [29],
// and Peer-to-Peer networks [30]. However, these algorithms are only
// heuristics." — and, from the introduction, the federated-learning
// alternative of shipping model parameters every round instead of one
// data summary.
//
// These implementations let the benches quantify both contrasts against
// BKLW / JL+BKLW on the same simulated network with the same ledgers:
//  * distributed_lloyd  — federated-style synchronous Lloyd: the server
//    broadcasts centers, sources return per-cluster sufficient
//    statistics, repeat until convergence. Multi-round: communication
//    grows with rounds x m x k x (d+1).
//  * mapreduce_kmeans   — one-shot [28]-style: each source solves k-means
//    locally and uplinks its k weighted centers; the server clusters the
//    m x k candidates. Cheap (m·k·d scalars) but unguaranteed — local
//    solves can merge clusters a global view would keep apart.
//  * gossip_kmeans      — server-free [30]-style P2P: sources on a random
//    connected graph improve local centers with a Lloyd step and average
//    greedily-matched centers with a random neighbour each round.
#pragma once

#include <cstdint>
#include <span>

#include "data/dataset.hpp"
#include "kmeans/lloyd.hpp"
#include "net/channel.hpp"
#include "obs/span.hpp"

namespace ekm {

struct DistributedLloydOptions {
  std::size_t k = 2;
  int max_rounds = 50;
  double rel_tol = 1e-6;  ///< stop when the global cost improves less
  std::uint64_t seed = 42;
};

struct DistributedBaselineResult {
  Matrix centers;
  double cost = 0.0;   ///< exact global k-means cost of the final centers
  int rounds = 0;      ///< network rounds used
};

/// Federated-style synchronous distributed Lloyd. Seeds with a
/// weight-proportional sample gathered in one extra round. Every round
/// follows net.round_policy(): under a deadline, stragglers' sufficient
/// statistics are dropped and the center update averages over the
/// responders (the FedAvg straggler-dropping model); fewer responders
/// than its floor throws.
[[nodiscard]] DistributedBaselineResult distributed_lloyd(
    std::span<const Dataset> parts, const DistributedLloydOptions& opts,
    Fabric& net, Stopwatch& device_work);

struct MapReduceOptions {
  std::size_t k = 2;
  int local_restarts = 3;
  std::uint64_t seed = 42;
};

/// One-shot local-solve + merge ([28]-style). The map round follows
/// net.round_policy(): late local solutions are left out of the reduce,
/// and fewer responders than its floor throws.
[[nodiscard]] DistributedBaselineResult mapreduce_kmeans(
    std::span<const Dataset> parts, const MapReduceOptions& opts, Fabric& net,
    Stopwatch& device_work);

struct GossipOptions {
  std::size_t k = 2;
  int rounds = 20;
  std::size_t degree = 2;  ///< random out-neighbours per node per round
  std::uint64_t seed = 42;
};

/// Server-free gossip consensus ([30]-style). Communication flows over
/// the uplink ledgers of the two endpoints involved in each exchange
/// (peer traffic is still radio traffic). Returns the centers of the
/// node with the best local cost estimate, evaluated globally.
[[nodiscard]] DistributedBaselineResult gossip_kmeans(
    std::span<const Dataset> parts, const GossipOptions& opts, Fabric& net,
    Stopwatch& device_work);

}  // namespace ekm
