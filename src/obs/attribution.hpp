// Critical-path attribution — turns the Recorder's causal capture into
// answers: *why* did the server finish when it did, which actors had no
// slack, and how does one run compare to another.
//
// The simulator records every operation it applies to its server clocks
// (ServerOp, obs/recorder.hpp) at the exact mutation site, in
// dependency order, plus one FrameCausal timeline per uplink frame.
// That op sequence is the per-round dependency DAG flattened: a
// `+= compute` op is a chain edge, a `max(clock, t)` op is a join over
// an external arrival edge (downlink settle, consumed uplink, NAK /
// deadline learn — the pipeline cross-round edges and NAK
// short-circuits included, because the recorded `t` already is the
// pipelined learn time). Replaying the identical IEEE-754 fold is
// therefore the DAG's longest-path computation, and it reproduces the
// run bit for bit:
//
//   * replaying every op         == SimReport::server_completion_seconds
//   * skipping kMissLearn        == SimReport::server_critical_path_seconds
//
// Blame decomposition: each op that advanced the replayed server clock
// owns the interval it advanced it by. Chain ops map directly
// (kCompute → server compute, kDownlinkForward → downlink, kMissLearn →
// deadline wait). A consumed uplink arrival's interval is walked
// *backward* over its FrameCausal segments — delivering-attempt airtime,
// then earlier attempts (retransmit), then the link-busy wait (pipeline
// stall), then the sender's compute+outage (site compute), with any
// remainder charged to what the sender itself was waiting on (the
// broadcast). Every category is a deterministic function
// of recorded values, so the decomposition is bitwise stable at any
// EKM_THREADS; the per-category sums equal server completion up to
// float association (the bit-exact claims above are the fold itself).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace ekm {

/// Where a second of server-completion time went. Order is the stable
/// serialization order of every writer below.
enum class BlameCategory : std::uint8_t {
  kServerCompute,   ///< server-side compute charges
  kDownlink,        ///< broadcast settle + waiting on upstream input
  kSiteCompute,     ///< data-site local compute (incl. outage sit-out)
  kUplinkAirtime,   ///< delivering attempt's airtime + latency
  kRetransmit,      ///< earlier attempts: losses, backoff, ack timeouts
  kPipelineStall,   ///< frame ready but its link still busy (store&fwd)
  kDeadlineWait,    ///< miss path: cutoff / NAK learn waits
};

inline constexpr std::size_t kBlameCategoryCount = 7;

[[nodiscard]] const char* blame_category_name(BlameCategory c);

/// One collection round's share of the decomposition. `commit_s` and
/// `critical_path_s` are the replayed clocks when the round closed
/// (the run's end for the last round).
struct RoundBlame {
  std::uint64_t round = 0;
  double cutoff_s = 0.0;  ///< kNoDeadline when the round was unbounded
  double commit_s = 0.0;
  double critical_path_s = 0.0;
  double blame[kBlameCategoryCount] = {};
};

/// One hop of the critical path: an op that advanced the replayed
/// cp clock, with the interval it owns. Feeds the trace exporter's
/// flow arrows and the dedicated critical-path track.
struct CriticalHop {
  ServerOpKind kind = ServerOpKind::kCompute;
  std::uint32_t site = 0;
  std::uint64_t frame = kNoCausalFrame;
  double cp_before_s = 0.0;
  double cp_after_s = 0.0;
};

/// Per-actor rollup: critical-path seconds contributed by this actor's
/// consumed uplink frames, and the actor's tightest slack against any
/// bounded round cutoff (misses have slack <= 0 by construction).
struct ActorAttribution {
  std::size_t actor = 0;
  double cp_seconds = 0.0;
  std::uint64_t cp_frames = 0;
  double min_slack_s = 0.0;
  bool slack_measured = false;
};

/// Attribution of one run segment (one kBeginRun..kBeginRun window of
/// the op stream — one fabric attach, e.g. one bench cell).
struct RunAttribution {
  bool valid = false;  ///< false when the segment held no ops at all
  double server_completion_s = 0.0;  ///< == server_completion_seconds bitwise
  double critical_path_s = 0.0;  ///< == server_critical_path_seconds bitwise
  double blame_total[kBlameCategoryCount] = {};
  std::vector<RoundBlame> rounds;
  std::vector<CriticalHop> hops;
  std::vector<ActorAttribution> actors;  ///< ascending actor id
};

/// Attributes the recorder's *last* run segment (the common case: one
/// Recorder, one run).
[[nodiscard]] RunAttribution attribute_run(const Recorder& recorder);

/// Attributes every run segment in recording order — one entry per
/// begin_run. The concatenation of all segments' rounds aligns 1:1
/// with Recorder::rounds(), which is how the metrics exporter annotates
/// its JSONL lines.
[[nodiscard]] std::vector<RunAttribution> attribute_all_runs(
    const Recorder& recorder);

// --- renderers -------------------------------------------------------------

/// Human-readable blame report: per-round table, totals, top-k
/// zero-slack actors, per-site slack histogram.
[[nodiscard]] std::string render_explain_text(const RunAttribution& run,
                                              std::size_t top_k = 5);

/// The same report as a single-line JSON object (machine side of
/// `ekm_cli --explain=json`; one line so `tail -1 | python3 -m
/// json.tool` works in CI). `reported_critical_path_s` is
/// SimReport::server_critical_path_seconds; the object carries both it
/// and the replayed value plus their bitwise-equality verdict.
[[nodiscard]] std::string render_explain_json(const RunAttribution& run,
                                              double reported_critical_path_s,
                                              std::size_t top_k = 5);

/// One round's attribution as the JSON object the metrics exporter
/// splices into its JSONL line (`"attribution": {...}`).
[[nodiscard]] std::string render_attribution_member(const RoundBlame& round);

// --- run diffing -----------------------------------------------------------

/// Compares two attribution-annotated metrics JSONL files (the
/// `--metrics-out` artifact) per blame category. A category regresses
/// when B exceeds A by more than `abs_threshold_s` *and* by more than
/// `rel_threshold` of A. Appends a human-readable report to `out`.
/// Returns 0 (compared, no regression), 1 (regression found), or
/// 2 (a file is unreadable or carries no attribution data).
[[nodiscard]] int explain_diff_files(const std::string& path_a,
                                     const std::string& path_b,
                                     double rel_threshold,
                                     double abs_threshold_s, std::string& out);

}  // namespace ekm
