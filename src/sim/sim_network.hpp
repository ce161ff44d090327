// Discrete-event simulated star network (the time-aware Fabric).
//
// SimNetwork implements the same Fabric interface the synchronous
// Network does, so every protocol in src/distributed and src/core runs
// over it unchanged — but here a frame takes time. Sending charges the
// sender's virtual clock for the compute that produced the frame,
// waits out dropout windows, serializes on the link, rides the radio
// (bits / bandwidth + per-frame latency, jittered), may be lost in
// flight and retransmitted, and finally fires a delivery event.
// Receiving advances the virtual clock by draining the event queue
// until the frame has arrived. The paper's scalar/bit ledgers are
// billed exactly as the synchronous Channel bills them (goodput only),
// so a fault-free simulation reproduces the Network ledgers bit for
// bit; faults show up in airtime, energy, retransmitted bits and the
// completion clock instead.
//
// Two things can now make a frame fail for good (both are first-class
// kDrop outcomes at the frame level, traced as kExpire):
//   * retry-budget exhaustion — all max_retries + 1 attempts were lost;
//   * a round deadline (open_round / RoundPolicy) — retransmissions
//     that would start after the deadline are canceled, and a frame
//     that has not delivered by the deadline is abandoned by the
//     receiver (receive_by returns nullopt).
// Every attempt actually made stays billed in airtime/energy/stats;
// the protocols aggregate over whichever sites delivered.
//
// What happens *between* attempts is the site's RetryPolicy
// (round_policy.hpp, scenario `retry=` / `siteN.retry=`): the default
// fixed ack-timeout (PR 2/3, bit for bit), exponential backoff with
// jitter, or deadline-aware give-up, which skips an attempt whose
// unjittered airtime cannot complete before the open round's cutoff —
// expiring the frame without keying the radio.
//
// Determinism: every random draw (loss, jitter, dropout, site speeds)
// comes from per-link/per-network RNG streams derived from the
// scenario seed, consumed on the protocol thread in program order. The
// EKM_THREADS pool never touches the simulator, so event order and all
// ledgers are bitwise identical at any thread count (tests/test_sim.cpp
// asserts this).
#pragma once

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/scenario.hpp"
#include "sim/site.hpp"

namespace ekm {

class SimNetwork;

/// Fault/airtime accounting of one link (or an aggregate over links).
/// Unlike TrafficLedger, which bills goodput in the paper's units,
/// these count the physical cost of getting the goodput through.
struct LinkStats {
  std::uint64_t attempts = 0;         ///< transmissions incl. retries
  std::uint64_t drops = 0;            ///< attempts lost in flight
  std::uint64_t retransmit_bits = 0;  ///< wire bits spent on retries
  double airtime_s = 0.0;             ///< radio-on time incl. failures
  std::uint64_t expired = 0;          ///< frames the sender gave up on
                                      ///< (retry budget or deadline)
  std::uint64_t missed = 0;           ///< frames the receiver abandoned
                                      ///< (expired, or delivered late)
  std::uint64_t supplemental = 0;     ///< the subset of `missed` that were
                                      ///< reallocation-wave *supplements*
                                      ///< (uplink frames sent under
                                      ///< open_subround): the site's
                                      ///< first-wave data still stands, so
                                      ///< these misses lose no data.
                                      ///< Always 0 on downlinks.
  std::uint64_t orphaned = 0;         ///< the subset of `expired` resolved
                                      ///< by a membership change: the site
                                      ///< had left (siteN.leave / churn)
                                      ///< when the frame needed its radio,
                                      ///< so the frame dropped without an
                                      ///< attempt beyond those already made.

  LinkStats& operator+=(const LinkStats& o) {
    attempts += o.attempts;
    drops += o.drops;
    retransmit_bits += o.retransmit_bits;
    airtime_s += o.airtime_s;
    expired += o.expired;
    missed += o.missed;
    supplemental += o.supplemental;
    orphaned += o.orphaned;
    return *this;
  }
};

/// One frame's resolved fate, decided entirely at send time (every
/// random draw happens in program order on the protocol thread).
struct SimFrame {
  Message msg;
  /// Delivery time; for expired frames, the moment the sender gave up.
  double arrival = 0.0;
  bool expired = false;
  /// The round the frame was sent under (kNoRound for downlinks and
  /// round-less traffic). Uplink receives scoped to a round assert
  /// this matches — the structural guard that a late straggler from
  /// round r can never be consumed as round r+1's frame.
  RoundId round = kNoRound;
  /// An uplink frame sent during a reallocation wave (between
  /// open_subround and the next open_round): a miss of such a frame is
  /// supplemental — the sender's first-wave data still stands at the
  /// server. Downlink frames are never tagged (a later phase may
  /// broadcast before opening its own round, e.g. refine's centers
  /// push), so a lost wave broadcast counts like any downlink miss.
  bool wave = false;
  /// Predicted-arrival NAK time (round pipelining only): the earliest
  /// moment the sender could *prove* the frame would miss its round's
  /// cutoff — an attempt whose minimum-possible airtime overshoots, or
  /// the abandonment itself — plus one control-frame latency.
  /// kNoDeadline when no miss is provable (delivered in time, or an
  /// unbounded round). Consulted only on the receiver's miss path, so
  /// it cannot perturb hits.
  double nak_at = kNoDeadline;
  /// Index among this link's delivered frames (valid when !expired);
  /// ties the frame to its kDeliver event for the receive drain.
  std::uint64_t delivery_seq = 0;
  /// Index of this frame's FrameCausal in the attached Recorder
  /// (obs/recorder.hpp), or kNoCausalFrame when none is attached. Pure
  /// annotation: set and read only behind the recorder branch, so the
  /// member's existence cannot perturb an unrecorded run.
  std::uint64_t causal = static_cast<std::uint64_t>(-1);
};

/// One direction of one site's radio, wrapping the Channel billing
/// discipline with transmission timing and fault injection.
class SimLink final : public Port {
 public:
  void send(Message msg) override;
  [[nodiscard]] bool has_pending() const override {
    expect_outside_compute_action("has_pending");
    return !in_flight_.empty();
  }
  [[nodiscard]] Message receive() override;
  [[nodiscard]] std::optional<Message> receive_by(
      RoundId round, double deadline_cap = kNoDeadline) override;
  std::optional<Message> receive_by(double) = delete;  // see Port
  [[nodiscard]] const TrafficLedger& ledger() const override { return ledger_; }

  [[nodiscard]] const LinkStats& stats() const { return stats_; }

 private:
  friend class SimNetwork;
  SimLink(SimNetwork* net, std::uint32_t site, bool uplink, std::uint64_t seed)
      : net_(net), site_(site), uplink_(uplink), rng_(make_rng(seed)) {}

  SimNetwork* net_;
  std::uint32_t site_;
  bool uplink_;
  TrafficLedger ledger_;  ///< goodput, billed at send exactly like Channel
  LinkStats stats_;
  double busy_until_ = 0.0;  ///< the air is occupied until here
  Rng rng_;                  ///< per-link fault/jitter stream
  std::deque<SimFrame> in_flight_;  ///< sent, not yet consumed (FIFO)
  std::uint64_t deliveries_scheduled_ = 0;  ///< kDeliver events pushed
  std::uint64_t deliveries_done_ = 0;       ///< kDeliver events processed
};

/// The fleet a SimNetwork of `num_sites` runs: each site's radio (the
/// scenario's, or its radio_cycle round-robin), fault rates and retry
/// strategy; the seeded speed skew and stragglers; then the per-site
/// overrides, in declaration order, and the join/leave schedules. An
/// override naming a site beyond the fleet throws precondition_error.
[[nodiscard]] std::vector<Site> make_fleet(std::size_t num_sites,
                                           const SimScenario& scenario);

class SimNetwork final : public Fabric {
 public:
  SimNetwork(std::size_t num_sites, const SimScenario& scenario);

  // Links hold back-pointers to their owning network; a copy or move
  // would leave them aimed at the old object.
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // --- Fabric -------------------------------------------------------------
  [[nodiscard]] std::size_t num_sources() const override { return sites_.size(); }
  [[nodiscard]] Port& uplink(std::size_t source) override;
  [[nodiscard]] Port& downlink(std::size_t source) override;

  /// The scenario's round policy (SimScenario::round). Its `pipeline`
  /// switch also arms this fabric's predicted-arrival NAKs.
  [[nodiscard]] const RoundPolicy& round_policy() const override {
    return scenario_.round;
  }

  /// Opens collection round r (handles are 1-based, in open order) and
  /// anchors its cutoff at the server's current virtual clock. Cutoff
  /// and wave state live in a per-round RoundContext table — NOT one
  /// global — so a prior round's stragglers can still be resolving
  /// (their frames tagged with *their* round) while this round's
  /// traffic rides the fabric. Uplink transmission attempts that would
  /// start at or after the sending round's cutoff are canceled (the
  /// sites know the round schedule), so a straggling or lossy site's
  /// frame expires instead of arriving eventually.
  RoundId open_round(double deadline_seconds) override;

  /// Absolute cutoff of round `round` (kNoDeadline for kNoRound).
  [[nodiscard]] double round_cutoff(RoundId round) const override;

  /// Opens a sub-deadline inside round `round` (the budget
  /// reallocation wave): clamps that round's cutoff to
  /// min(current, absolute_deadline) so the wave respects the round
  /// boundary, marks the round as in-wave (frames sent under it from
  /// here are supplements), and counts the wave in subrounds_opened().
  RoundId open_subround(RoundId round, double absolute_deadline) override;

  // --- inspection ---------------------------------------------------------
  [[nodiscard]] const SimLink& uplink_view(std::size_t source) const;
  [[nodiscard]] const SimLink& downlink_view(std::size_t source) const;
  [[nodiscard]] const SimScenario& scenario() const { return scenario_; }

  /// Virtual time of the latest processed event.
  [[nodiscard]] double now() const { return clock_; }
  [[nodiscard]] double server_clock() const { return server_clock_; }

  // Actor clocks for the phase scheduler's timelines (src/sched/).
  [[nodiscard]] double server_time() const override { return server_clock_; }
  [[nodiscard]] double site_time(std::size_t source) const override {
    EKM_EXPECTS(source < sites_.size());
    return sites_[source].clock_s;
  }

  /// Unjittered single-attempt airtime of a `wire_bits` uplink frame at
  /// the site's current clock — honoring the active trace segment —
  /// for adaptive quantization's fit-the-budget check (qt/policy.hpp).
  [[nodiscard]] double uplink_airtime_s(std::size_t source,
                                        std::uint64_t wire_bits) const override;

  /// Whether the site is a fleet member at its own current clock.
  /// Always true on a static fleet; under churn this lazily extends the
  /// site's membership schedule (a dedicated RNG stream — no draw ever
  /// touches the link streams, so protocol determinism is unaffected).
  [[nodiscard]] bool is_member(std::size_t source) override;

  /// Largest number of events ever simultaneously pending — the
  /// event-queue pressure gauge the fleet-scale sweeps report.
  [[nodiscard]] std::size_t queue_high_water() const {
    return queue_.high_water();
  }

  /// Misses of reallocation-wave frames (see LinkStats::supplemental):
  /// counted inside missed_frames() but losing no data. Exact data
  /// loss is missed_frames() - supplemental_misses().
  [[nodiscard]] std::uint64_t supplemental_misses() const {
    return supplemental_misses_;
  }

  /// Absolute cutoff of the most recently opened round (kNoDeadline
  /// before the first open_round, or when that round is unbounded).
  /// Inspection convenience over round_cutoff(current round).
  [[nodiscard]] double round_deadline() const {
    return round_cutoff(current_round_);
  }

  /// The most recently opened round's handle (kNoRound before the
  /// first open_round). New uplink frames are tagged with this round.
  [[nodiscard]] RoundId current_round() const { return current_round_; }

  /// Critical-path lower bound on the server commit clock: mirrors
  /// every server_clock_ advancement that is real work or a real
  /// arrival (downlink compute, downlink store-and-forward, uplink
  /// arrivals actually consumed) but deletes the waits spent purely on
  /// learning that a straggler missed. By induction it never exceeds
  /// server_clock(); pipelined schedules are judged against it (the
  /// bench's critical-path column — how close the predicted NAKs get
  /// the commit clock to the no-stall schedule).
  [[nodiscard]] double server_critical_path() const {
    return cp_server_clock_;
  }

  /// Frames a receive_by caller abandoned: expired in flight, or
  /// delivered after the round deadline. These are the protocol-level
  /// drops that partial aggregation absorbs.
  [[nodiscard]] std::uint64_t missed_frames() const { return missed_frames_; }

  /// Collection rounds opened so far (open_round calls).
  [[nodiscard]] std::uint64_t rounds_opened() const override {
    return rounds_opened_;
  }

  /// Frames resolved as drops by a membership change (see
  /// LinkStats::orphaned), across all links.
  [[nodiscard]] std::uint64_t orphaned_frames() const {
    return orphaned_frames_;
  }

  /// Membership changes crossed during the run, counted by finish()
  /// over [0, completion] (0 before finish() on a static fleet — and
  /// after it, when nothing churned).
  [[nodiscard]] std::uint64_t joins() const { return joins_; }
  [[nodiscard]] std::uint64_t leaves() const { return leaves_; }

  /// Within-round reallocation waves opened so far (open_subround
  /// calls). Zero on every fault-free or miss-free run.
  [[nodiscard]] std::uint64_t subrounds_opened() const {
    return subrounds_opened_;
  }

  /// Drains every pending event (e.g. broadcast frames no one reads),
  /// checks the per-link ledger invariants, and returns the quiescent
  /// completion time: the moment the last clock, delivery, or radio
  /// falls silent.
  double finish();

  /// Sum of per-site transmit+receive energy (the server is mains
  /// powered and not metered).
  [[nodiscard]] double energy_joules() const;

  /// Dropout windows sat out across all sites.
  [[nodiscard]] std::uint64_t total_outages() const;

  [[nodiscard]] LinkStats total_uplink_stats() const;
  [[nodiscard]] LinkStats total_downlink_stats() const;

  /// Every event processed so far — in processing order while the
  /// simulation runs, canonicalized to (time, push-seq) order by
  /// finish(). The determinism tests compare this log across
  /// EKM_THREADS.
  [[nodiscard]] const std::vector<SimEvent>& event_log() const { return log_; }

  /// Consumes the log without copying (a lossy multi-round run holds
  /// tens of thousands of events). Call after finish().
  [[nodiscard]] std::vector<SimEvent> take_event_log() {
    return std::move(log_);
  }

  /// Attaches a flight recorder (src/obs/): frame events are mirrored
  /// as trace instants (independent of the `event-log=` cap), one
  /// metrics snapshot is taken per collection round, and the phase
  /// scheduler forwards its TaskSpans through Fabric::recorder().
  /// Recording is strictly read-only on the simulation: it draws no
  /// randomness, pushes no events, and advances no clock, so every
  /// number the run produces is bitwise identical with or without a
  /// recorder (tests/test_obs.cpp). Null detaches.
  void set_recorder(Recorder* recorder);
  [[nodiscard]] Recorder* recorder() override { return recorder_; }

 private:
  friend class SimLink;
  void do_send(SimLink& link, Message msg);
  [[nodiscard]] std::optional<Message> do_receive_by(SimLink& link,
                                                     RoundId round,
                                                     double deadline_cap);
  void advance_one_event();
  void assert_link_invariants(const SimLink& link) const;

  /// Closes the latest opened round on the recorder (a snapshot of the
  /// cumulative counters; the recorder diffs them into per-round
  /// deltas). Called at the next open_round and at finish(); guarded
  /// so each round snapshots exactly once. No-op without a recorder.
  void snapshot_round_to_recorder();

  /// Fleet membership of site i at virtual time t. Under stochastic
  /// churn the site's toggle schedule is extended lazily past t from
  /// its dedicated churn RNG stream (hence non-const).
  [[nodiscard]] bool site_member_at(std::size_t i, double t);

  SimScenario scenario_;
  std::vector<Site> sites_;
  std::vector<SimLink> up_;
  std::vector<SimLink> down_;
  EventQueue queue_;
  std::vector<SimEvent> log_;
  double clock_ = 0.0;         ///< latest processed event time
  double server_clock_ = 0.0;  ///< server actor's committed time
  double cp_server_clock_ = 0.0;  ///< critical-path mirror (see above)

  /// Per-round lifecycle state, indexed by RoundId - 1. A context is
  /// never erased: a late frame's round stays resolvable (its cutoff,
  /// its wave flag) for the whole run, which is what lets round r+1
  /// open while round r's stragglers are still on the air.
  struct RoundContext {
    double cutoff = kNoDeadline;  ///< absolute deadline (server clock)
    bool in_wave = false;  ///< open_subround seen; later uplink frames
                           ///< in this round are supplements
  };
  std::vector<RoundContext> rounds_;
  RoundId current_round_ = kNoRound;  ///< latest open_round handle;
                                      ///< tags new uplink frames

  std::uint64_t missed_frames_ = 0;
  std::uint64_t supplemental_misses_ = 0;
  std::uint64_t rounds_opened_ = 0;
  std::uint64_t subrounds_opened_ = 0;
  Recorder* recorder_ = nullptr;        ///< optional flight recorder
  std::uint64_t rounds_snapshotted_ = 0;  ///< rounds already snapshotted

  // --- fleet membership (join/leave overrides, stochastic churn) ----------
  bool membership_active_ = false;   ///< any toggles or churn_rate > 0;
                                     ///< false = static fleet, zero overhead
  std::vector<char> churn_managed_;  ///< per site: schedule extends lazily
                                     ///< from churn_rng_ (no explicit
                                     ///< join/leave pinned it)
  std::vector<Rng> churn_rng_;       ///< per-site churn streams (empty
                                     ///< unless churn_rate > 0)
  std::uint64_t orphaned_frames_ = 0;
  std::uint64_t joins_ = 0;   ///< filled by finish()
  std::uint64_t leaves_ = 0;  ///< filled by finish()
};

}  // namespace ekm
