// Flight recorder — the unified observability sink for the simulator,
// the phase scheduler, the pipeline's stages and the hot kernels.
//
// One Recorder collects three signal families that used to live apart:
//   * spans   — scheduler TaskSpans (virtual-clock, one track per
//               actor) and host wall-clock spans from obs/span.hpp's
//               WallSpan (the pipeline's stages and the kernels; their
//               own track, through install_recorder);
//   * events  — the SimNetwork frame events (send/drop/deliver/outage/
//               expire), mirrored as trace instants on an event-queue
//               track, independent of the scenario's `event-log=` cap;
//   * rounds  — one metrics snapshot per collection round (responders,
//               misses/expired/orphaned, uplink bits, energy, realloc
//               waves, quantizer widths, server clock), serialized
//               through a MetricsRegistry into deterministic JSONL.
// src/obs/trace_export.hpp turns the first two into a Chrome/Perfetto
// trace and the third into a JSONL file.
//
// THE contract of this layer (tests/test_obs.cpp): recording is
// side-effect-free. A Recorder only ever *reads* values the run already
// produced — it draws no randomness, pushes no events, advances no
// clock, and every producer guards its recording with a single
// `if (recorder)` branch — so centers, ledgers, energy, and the
// SimEvent log are bitwise identical with recording on or off, at any
// EKM_THREADS, under churn and pipelining alike. Wall-clock spans are
// the one nondeterministic signal, and they exist only inside the trace
// output.
//
// Threading: the simulator and the phase scheduler produce on the
// protocol thread only. Host spans close where their windows end, and
// the phase scheduler runs several sites' compute tasks at once on pool
// threads, so host spans can arrive from several threads, in no fixed
// order: the span list alone is guarded by a mutex. The other producers
// never run concurrently and stay unsynchronized.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"  // install_recorder

namespace ekm {

/// Actor id meaning "the server" on a span (matches sched's
/// kServerActor so scheduler spans forward without translation).
inline constexpr std::size_t kRecorderServerActor =
    static_cast<std::size_t>(-1);

/// One recorded span. Virtual-clock spans carry the owning actor;
/// wall-clock spans (wall == true) live on the host track and their
/// times are seconds since the program's start-up.
struct RecordedSpan {
  std::size_t actor = kRecorderServerActor;
  std::string label;
  std::string kind;  ///< task_kind_name(...) or "host"
  double start_s = 0.0;
  double finish_s = 0.0;
  bool wall = false;
};

/// One mirrored simulator frame event (an instant on the queue track).
struct RecordedEvent {
  double time_s = 0.0;
  const char* name = "";  ///< sim_event_name(...) — static storage
  std::uint32_t site = 0;
  bool uplink = true;
  std::uint16_t attempt = 0;
  std::uint64_t bits = 0;
};

/// "No FrameCausal was recorded for this frame" sentinel.
inline constexpr std::uint64_t kNoCausalFrame = static_cast<std::uint64_t>(-1);

/// One operation the simulator applied to its server clocks, recorded
/// at the exact mutation site. The op sequence *is* the run's causal
/// DAG flattened in dependency order: replaying the identical IEEE-754
/// fold (attribution.hpp) reproduces `server_clock_` — and, skipping
/// kMissLearn, `cp_server_clock_` / SimReport::server_critical_path_
/// seconds — bit for bit. Everything here is a value the run already
/// computed; recording it draws nothing and advances nothing.
enum class ServerOpKind : std::uint8_t {
  kBeginRun,          ///< run boundary marker (pushed by begin_run)
  kRoundOpen,         ///< value = the new round's cutoff, round = ordinal
  kCompute,           ///< server-side compute charge: clock += value
  kDownlinkForward,   ///< downlink settled: clock = max(clock, value)
  kUplinkArrival,     ///< consumed uplink hit: clock = max(clock, value)
  kMissLearn,         ///< server learned of a miss: server clock only
};

struct ServerOp {
  ServerOpKind kind = ServerOpKind::kBeginRun;
  std::uint32_t site = 0;             ///< sending/receiving actor (hits/misses)
  std::uint64_t frame = kNoCausalFrame;  ///< index into frame_causals()
  std::uint64_t round = 0;            ///< kRoundOpen: 1-based ordinal
  double value = 0.0;
};

/// Why one uplink frame arrived when it did: the per-frame timeline the
/// blame decomposition walks backward (compute → outage → link-busy
/// wait → retransmits → delivering airtime). All times are on the
/// sending actor's virtual clock, recorded at send time when the
/// simulator seals the frame's fate.
struct FrameCausal {
  std::uint32_t site = 0;
  std::uint64_t round = 0;        ///< 1-based round the frame belongs to
  double compute_s = 0.0;         ///< local compute charged before the send
  double outage_s = 0.0;          ///< dropout window sat out before sending
  double ready_s = 0.0;           ///< sender clock when the frame was ready
  double first_start_s = 0.0;     ///< first attempt's start (after link busy)
  double send_start_s = 0.0;      ///< start of the last attempt made
  double arrival_s = 0.0;         ///< delivery time (or abandon time if expired)
  double nak_at_s = 0.0;          ///< predicted-arrival NAK time (inf if none)
  std::uint16_t attempts = 0;     ///< transmission attempts actually made
  bool expired = false;
  bool wave = false;              ///< supplemental (realloc-wave) frame
};

/// One causal arrow between actors for the trace exporter: the
/// scheduler records cross-actor task-graph edges, attribution records
/// critical-path hops. Perfetto draws them as flow arrows.
struct RecordedFlow {
  std::size_t from_actor = kRecorderServerActor;
  double from_s = 0.0;
  std::size_t to_actor = kRecorderServerActor;
  double to_s = 0.0;
  bool critical = false;  ///< tagged cp=1 in the trace
};

/// Cumulative run totals a time-aware fabric hands to snapshot_round.
/// Everything here is a value the run already computed; the Recorder
/// diffs consecutive snapshots into per-round deltas itself.
struct RoundTotals {
  std::uint64_t rounds_opened = 0;  ///< ordinal of the round being closed
  double server_time_s = 0.0;
  std::uint64_t missed_frames = 0;
  std::uint64_t supplemental_misses = 0;
  std::uint64_t orphaned_frames = 0;
  std::uint64_t subrounds_opened = 0;
  std::uint64_t uplink_bits = 0;
  std::uint64_t uplink_frames = 0;
  double energy_joules = 0.0;
  /// Event-queue high-water mark (max events simultaneously pending
  /// since the run started) — the simulator's memory-pressure gauge at
  /// 10k-site fleet scale.
  std::size_t queue_high_water = 0;
  /// Per-uplink cumulative missed counts, used to count responders:
  /// a site whose uplink took no new miss this round responded.
  std::vector<std::uint64_t> per_uplink_missed;
};

/// One closed collection round, both as structured fields and as the
/// deterministic JSONL line the exporter writes. The structured fields
/// exist so the exporter can place counter samples (`ph:"C"`) on the
/// timeline without re-parsing its own JSON.
struct RoundSnapshot {
  std::uint64_t round = 0;
  double server_time_s = 0.0;
  std::size_t queue_high_water = 0;
  std::string json_line;
};

class Recorder {
 public:
  Recorder();

  // --- producers (protocol thread only, but for the two span calls) ------
  void record_span(std::size_t actor, std::string label, std::string kind,
                   double start_s, double finish_s);
  void record_wall_span(const char* label,
                        std::chrono::steady_clock::time_point start,
                        double duration_s);
  void record_sim_event(double time_s, const char* name, std::uint32_t site,
                        bool uplink, std::uint16_t attempt, std::uint64_t bits);
  /// A frame left a site narrower than the configured width (adaptive
  /// quantization under deadline pressure). Full-width frames are noted
  /// too, so the histogram carries the whole width distribution.
  void note_quant_width(std::size_t site, int wire_bits, int full_bits);
  /// Closes the round `totals.rounds_opened` (1-based): computes the
  /// per-round deltas against the previous snapshot, folds them into
  /// the registry, and serializes one JSONL line.
  void snapshot_round(const RoundTotals& totals);
  /// Appends one server-clock op (see ServerOpKind). The simulator
  /// calls this adjacent to each `server_clock_` mutation, behind its
  /// one `if (recorder_)` branch.
  void record_server_op(ServerOpKind kind, double value, std::uint32_t site = 0,
                        std::uint64_t frame = kNoCausalFrame,
                        std::uint64_t round = 0);
  /// Appends one frame timeline and returns its index, which the
  /// simulator stamps onto the in-flight SimFrame so receive-side ops
  /// can name their cause.
  [[nodiscard]] std::uint64_t record_frame_causal(const FrameCausal& causal);
  /// Appends one causal arrow for the trace (scheduler task-graph
  /// edges; attribution adds critical-path hops at export time).
  void record_flow(std::size_t from_actor, double from_s, std::size_t to_actor,
                   double to_s, bool critical = false);
  /// Re-arms the per-run delta baseline. A fabric calls this when the
  /// recorder is attached, so one Recorder can ride several runs in
  /// sequence (the bench sweeps) without the first round of a new run
  /// diffing against the last round of the previous one. Accumulated
  /// spans/events/snapshots are kept — they are the artifact. Pushes a
  /// kBeginRun marker so attribution can segment the op stream per run.
  void begin_run();

  // --- consumers ----------------------------------------------------------
  [[nodiscard]] const std::vector<RecordedSpan>& spans() const {
    return spans_;
  }
  [[nodiscard]] const std::vector<RecordedEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<RoundSnapshot>& rounds() const {
    return rounds_;
  }
  [[nodiscard]] const std::vector<ServerOp>& server_ops() const {
    return server_ops_;
  }
  [[nodiscard]] const std::vector<FrameCausal>& frame_causals() const {
    return frame_causals_;
  }
  [[nodiscard]] const std::vector<RecordedFlow>& flows() const {
    return flows_;
  }
  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }

 private:
  MetricsRegistry registry_;  ///< per-round scratch; reset each snapshot
  MetricsRegistry::Id id_responders_;
  MetricsRegistry::Id id_server_time_;
  MetricsRegistry::Id id_misses_;
  MetricsRegistry::Id id_supplemental_;
  MetricsRegistry::Id id_orphaned_;
  MetricsRegistry::Id id_uplink_bits_;
  MetricsRegistry::Id id_uplink_frames_;
  MetricsRegistry::Id id_energy_;
  MetricsRegistry::Id id_waves_;
  MetricsRegistry::Id id_narrowed_;
  MetricsRegistry::Id id_quant_bits_;
  MetricsRegistry::Id id_queue_high_;
  MetricsRegistry::Id id_server_commit_;

  std::mutex spans_mu_;  ///< host spans may come from pool threads
  std::vector<RecordedSpan> spans_;
  std::vector<RecordedEvent> events_;
  std::vector<RoundSnapshot> rounds_;
  std::vector<ServerOp> server_ops_;
  std::vector<FrameCausal> frame_causals_;
  std::vector<RecordedFlow> flows_;
  RoundTotals prev_;  ///< totals at the previous snapshot (zeros at start)
  std::uint64_t quant_narrowed_round_ = 0;  ///< narrowed frames this round
};

}  // namespace ekm
