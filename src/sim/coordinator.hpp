// Scenario coordinator: runs the paper's multi-source protocols over a
// simulated network and reports deployment metrics.
//
// The Coordinator owns the scenario. run() wires a SimNetwork between
// the data sources and the server and executes one of the distributed
// pipelines (NR / BKLW / JL+BKLW) through it.
//
// "Asynchronous rounds" here means virtual-time asynchrony: each site
// progresses on its own clock (compute skew, outages, retransmissions),
// the server consumes frames as they arrive, and the completion time is
// the quiescence point of the whole event queue — not m times a
// synchronous round trip.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sim/scenario.hpp"
#include "sim/sim_network.hpp"

namespace ekm {

struct SimReport {
  std::string scenario;
  PipelineResult result;  ///< centers + the paper's goodput ledgers

  // --- what the simulator adds over the synchronous Network ---------------
  double completion_seconds = 0.0;  ///< virtual quiescence time
  /// When the server had everything it aggregated — its committed
  /// clock after the final collection round. Under a deadline this is
  /// what improves: the server stops waiting for stragglers, even
  /// while the dropped sites' own clocks (and thus the quiescence time
  /// above) still run.
  double server_completion_seconds = 0.0;
  /// Critical-path lower bound on server_completion_seconds: the
  /// server's clock replayed counting only its own compute, its
  /// downlink sends, and the arrival times of the uplink frames it
  /// actually aggregated — never the waiting-to-learn-of-a-miss time
  /// that cross-round pipelining (RoundPolicy::pipeline) attacks. The
  /// gap between the two columns is the headroom pipelining can
  /// reclaim; a pipelined run is judged against this bound.
  double server_critical_path_seconds = 0.0;
  double energy_joules = 0.0;       ///< summed site radio energy
  std::uint64_t outages = 0;        ///< dropout windows across sites
  LinkStats uplink_stats;           ///< attempts/drops/retx bits/airtime
  LinkStats downlink_stats;
  std::vector<SimEvent> event_log;  ///< full event trace, time order

  // --- deadline rounds (RoundPolicy) --------------------------------------
  std::uint64_t rounds = 0;           ///< collection rounds opened
  /// Frames dropped from a round: expired in flight or delivered late.
  /// Counts every abandoned frame, including a reallocation-wave
  /// supplement whose site's first-wave coreset still stands — so this
  /// (and sites_dropped below) is an upper bound on actual data loss
  /// when waves run; `supplemental_misses` / `sites_data_dropped`
  /// below carry the exact split.
  std::uint64_t deadline_misses = 0;
  /// The subset of deadline_misses that were reallocation-wave
  /// *supplements* (uplink frames sent under open_subround): the
  /// affected site's first-wave coreset still stands, so these lose no
  /// data. Exact data loss is deadline_misses - supplemental_misses.
  /// (A lost wave *broadcast* also leaves the first wave standing, but
  /// stays in the upper bound: downlink frames are never wave-tagged,
  /// because a later phase may broadcast before opening its round.)
  std::uint64_t supplemental_misses = 0;
  std::uint64_t sites_dropped = 0;    ///< sites with >= 1 abandoned frame
                                      ///< (incl. supplemental-only ones)
  /// Sites with >= 1 *non-supplemental* abandoned frame — the exact
  /// count of sites whose data (or a broadcast they needed) was lost,
  /// where sites_dropped above still counts a responder whose only
  /// miss was a superseded wave supplement. Equal to sites_dropped on
  /// every run without reallocation waves.
  std::uint64_t sites_data_dropped = 0;
  std::uint64_t realloc_waves = 0;    ///< within-round budget-reallocation
                                      ///< waves opened (open_subround);
                                      ///< 0 on every miss-free run

  /// Event-queue high-water mark — max events simultaneously pending.
  /// The memory-pressure gauge the 10k-site fleet sweeps track.
  std::uint64_t queue_high_water = 0;

  // --- fleet churn (`siteN.join=`/`siteN.leave=`, `churn=`) ---------------
  std::uint64_t joins = 0;   ///< membership flips to "member" during the run
  std::uint64_t leaves = 0;  ///< membership flips to "gone" during the run
  /// Frames resolved as drops because their site had left the fleet —
  /// a subset of the expired frames, counted per link in
  /// LinkStats::orphaned. 0 on every static fleet.
  std::uint64_t orphaned_frames = 0;
};

class Coordinator {
 public:
  explicit Coordinator(SimScenario scenario) : scenario_(std::move(scenario)) {}

  [[nodiscard]] const SimScenario& scenario() const { return scenario_; }

  /// Runs a distributed pipeline (kNoReduction, kBklw, kJlBklw) over a
  /// SimNetwork built from the scenario: exactly
  /// run_distributed_pipeline(kind, parts, cfg, net), with cfg.recorder
  /// attached to the network, plus the deployment report. The protocols
  /// read the scenario's RoundPolicy (SimScenario::round) from that
  /// network. With a fault-free scenario and no (or infinite) round
  /// deadline the report's ledgers and centers are bitwise identical
  /// to run_distributed_pipeline over the synchronous Network.
  [[nodiscard]] SimReport run(PipelineKind kind, std::span<const Dataset> parts,
                              const PipelineConfig& cfg) const;

 private:
  SimScenario scenario_;
};

}  // namespace ekm
