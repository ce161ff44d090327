// Simulated edge-network channels with communication accounting.
//
// The paper's communication-cost metric is "number of scalars a data
// source sends to the server" (§3.4), refined to bits once quantization
// enters (§6). Every summary in this library crosses a Port as a real
// serialized frame; the port records three ledgers:
//   * bytes  — the physical frame size (64-bit doubles),
//   * bits   — the logical wire size, where a scalar quantized to s
//              significand bits counts 12 + s bits instead of 64,
//   * scalars — the paper's §3–5 unit.
// Tables 3–4 and Figures 3–6 read these ledgers; nothing is estimated.
//
// Two implementations exist behind the Port/Fabric interfaces:
//   * Channel/Network (this header) — the idealized synchronous star:
//     send enqueues instantly, receive dequeues instantly;
//   * SimLink/SimNetwork (src/sim/) — a discrete-event runtime where the
//     same frames ride a LinkModel with bandwidth, latency, jitter,
//     losses and retransmissions on a virtual clock.
// Protocol code (disPCA, disSS, BKLW, the pipelines) is written against
// Fabric and runs unchanged over either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/expects.hpp"
#include "sim/round_policy.hpp"

namespace ekm {

class Recorder;  // src/obs/recorder.hpp — the optional flight recorder

/// Absolute deadline meaning "wait forever" — the paper's synchronous
/// protocol, and the default cap for every deadline-aware receive.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Handle to one open collection round. Fabric::open_round mints them
/// (1-based, in open order, on fabrics that track rounds); every
/// round-scoped receive names the round it collects for, so a
/// time-aware fabric can keep *per-round* cutoff state — several
/// rounds' frames can ride the fabric at once without a late straggler
/// from round r aliasing round r+1's traffic (the simulator asserts
/// the pairing frame by frame).
using RoundId = std::uint64_t;

/// "No round": the state before the first open_round, and the id
/// clock-less fabrics hand back. Its cutoff is kNoDeadline — a receive
/// scoped to kNoRound waits forever (minus any explicit cap).
inline constexpr RoundId kNoRound = 0;

/// Availability floor shared by every deadline-driven collection round:
/// a round that leaves fewer *distinct* responding sites than `floor`
/// throws invariant_error instead of aggregating a degenerate summary.
/// Callers count each site at most once per round — a site that also
/// delivers a reallocation-wave supplement is still one responder, and
/// one that misses the wave after responding stays counted. Under
/// churn a departed site naturally stops counting: it is not a
/// distinct *responding* site.
///
/// `round_ordinal` (1-based; 0 = unknown) attributes the violation in
/// a multi-round sweep — "Lloyd round fell below the floor" is useless
/// when forty Lloyd rounds ran; callers pass Fabric::rounds_opened().
/// The counts ride along so a sweep log is actionable by itself.
inline void enforce_availability_floor(std::size_t responders,
                                       std::size_t floor,
                                       const char* round_name,
                                       std::uint64_t round_ordinal = 0) {
  EKM_ENSURES_MSG(
      responders >= floor,
      std::string(round_name) +
          (round_ordinal > 0
               ? " (collection round #" + std::to_string(round_ordinal) + ")"
               : "") +
          " fell below the availability floor: " +
          std::to_string(responders) + " of the required " +
          std::to_string(floor) + " site(s) responded");
}

/// RAII: marks the calling thread as running a kCompute task's action
/// (src/sched/). The phase scheduler may run several sites' computes at
/// once on pool threads, so a compute action reads its site's inputs,
/// writes only its site's slots and never touches the fabric; the ports
/// check this mark and refuse every call under it, so a compute that
/// sends or receives fails on every run instead of racing on some.
class ComputeActionMark {
 public:
  ComputeActionMark() : outer_(active_) { active_ = true; }
  ComputeActionMark(const ComputeActionMark&) = delete;
  ComputeActionMark& operator=(const ComputeActionMark&) = delete;
  ~ComputeActionMark() { active_ = outer_; }

  /// Whether the calling thread is inside a compute action.
  [[nodiscard]] static bool active() { return active_; }

 private:
  inline static thread_local bool active_ = false;
  bool outer_;
};

/// Throws invariant_error when a port operation runs inside a compute
/// action; `op` names the operation.
inline void expect_outside_compute_action(const char* op) {
  EKM_ENSURES_MSG(!ComputeActionMark::active(),
                  std::string("port ") + op +
                      " from a kCompute task action: compute tasks may run "
                      "concurrently and must not touch the fabric (make the "
                      "task a kUplink or kCollect)");
}

/// One framed message in flight.
struct Message {
  std::vector<std::byte> payload;
  std::uint64_t wire_bits = 0;
  std::size_t scalars = 0;
};

/// Accumulated traffic totals of a channel.
struct TrafficLedger {
  std::uint64_t bytes = 0;
  std::uint64_t bits = 0;
  std::uint64_t scalars = 0;
  std::uint64_t messages = 0;

  TrafficLedger& operator+=(const TrafficLedger& other) {
    bytes += other.bytes;
    bits += other.bits;
    scalars += other.scalars;
    messages += other.messages;
    return *this;
  }

  [[nodiscard]] friend TrafficLedger operator+(TrafficLedger a,
                                               const TrafficLedger& b) {
    a += b;
    return a;
  }

  /// Zeroes every counter — lets one channel account multiple phases
  /// (e.g. per-round ledgers in the simulator) without reallocation.
  void reset() { *this = TrafficLedger{}; }

  [[nodiscard]] friend bool operator==(const TrafficLedger&,
                                       const TrafficLedger&) = default;
};

/// One endpoint-to-endpoint message stream. Implementations bill the
/// ledger on send; receive hands frames back in FIFO order (a simulated
/// implementation may advance a virtual clock to do so).
class Port {
 public:
  virtual ~Port() = default;
  virtual void send(Message msg) = 0;
  [[nodiscard]] virtual bool has_pending() const = 0;
  [[nodiscard]] virtual Message receive() = 0;
  [[nodiscard]] virtual const TrafficLedger& ledger() const = 0;

  /// Round-scoped deadline-aware receive: hands back the next frame if
  /// it is (or will be) delivered no later than round `round`'s cutoff
  /// — further capped by `deadline_cap` (absolute virtual seconds; the
  /// tighter of the two applies, e.g. a reallocation wave's first-wave
  /// deadline) — and nullopt if the
  /// frame misses, in which case the frame is *consumed* (abandoned):
  /// the round has moved on and a late arrival must not alias the next
  /// round's frame. kNoRound scopes to no round (cutoff kNoDeadline):
  /// the blocking-receive idiom for downlinks and round-less protocols.
  /// On an instant fabric every pending frame already arrived, so a
  /// miss only means the peer never sent. A time-aware fabric asserts
  /// that the frame consumed was sent under `round` (when not
  /// kNoRound) — the structural guard against cross-round aliasing.
  [[nodiscard]] virtual std::optional<Message> receive_by(
      RoundId round, double deadline_cap = kNoDeadline) {
    (void)round;
    (void)deadline_cap;
    if (has_pending()) return receive();
    return std::nullopt;
  }
  /// The pre-round-handle spelling, deleted so a raw deadline cannot
  /// silently convert to a RoundId: scope the receive to its round and
  /// pass any tighter deadline as the cap.
  std::optional<Message> receive_by(double) = delete;
};

/// Receives one site's round uplink of `count` frames, scoped to
/// `round` and optionally capped by `deadline_cap` (same semantics as
/// Port::receive_by). Every frame is consumed regardless of outcome (a
/// late frame left queued would alias the next round's traffic on this
/// link); the group is all-or-nothing — if any member misses, nullopt
/// comes back and the site counts as ONE round miss. This is what
/// keeps a multi-frame summary (disPCA's Σ/V pair) from being
/// half-aggregated when only part of it arrived in time. The
/// dispca/disss round collects all go through this helper; the other
/// single-frame collection loops (NR, refine, streaming) still call
/// receive_by directly.
[[nodiscard]] inline std::optional<std::vector<Message>> receive_frames_by(
    Port& port, std::size_t count, RoundId round,
    double deadline_cap = kNoDeadline) {
  std::vector<Message> frames;
  frames.reserve(count);
  bool complete = true;
  for (std::size_t i = 0; i < count; ++i) {
    auto frame = port.receive_by(round, deadline_cap);
    if (frame.has_value()) {
      frames.push_back(std::move(*frame));
    } else {
      complete = false;
    }
  }
  if (!complete) return std::nullopt;
  return frames;
}

/// Deleted like Port::receive_by(double): a raw deadline is not a
/// round handle.
std::optional<std::vector<Message>> receive_frames_by(Port&, std::size_t,
                                                      double) = delete;

/// Star topology around one edge server: per-source uplink (counted by
/// the paper's metric) and downlink (coordination traffic the paper
/// treats as negligible, e.g. footnote 1; still measured for honesty).
class Fabric {
 public:
  virtual ~Fabric() = default;
  [[nodiscard]] virtual std::size_t num_sources() const = 0;
  [[nodiscard]] virtual Port& uplink(std::size_t source) = 0;
  [[nodiscard]] virtual Port& downlink(std::size_t source) = 0;

  /// How this fabric's collection rounds end: the deadline, the
  /// responder floor, budget reallocation and its reserve, cross-round
  /// pipelining and adaptive quantization (src/sim/round_policy.hpp).
  /// Every protocol reads it here, once, on the protocol thread, so a
  /// protocol and its network always agree. RoundPolicy{} — the
  /// paper's wait-for-everyone rounds — unless a fabric overrides it;
  /// SimNetwork reports its scenario's policy.
  [[nodiscard]] virtual const RoundPolicy& round_policy() const {
    static const RoundPolicy kWaitForEveryone{};
    return kWaitForEveryone;
  }

  /// Opens one deadline-driven collection round (src/sim/round_policy.hpp)
  /// and returns its handle — what the round's receive_by calls scope
  /// themselves to, and what round_cutoff() resolves to an absolute
  /// deadline. A time-aware fabric anchors the cutoff at the server's
  /// current virtual clock, keeps it as *per-round* state (several
  /// rounds may be in flight under cross-round pipelining), and stops
  /// uplink retransmissions that would start after it; on the
  /// idealized synchronous star every frame arrives instantly, so
  /// rounds are vacuous and kNoRound comes back regardless of
  /// `deadline_seconds`.
  virtual RoundId open_round(double deadline_seconds) {
    (void)deadline_seconds;
    return kNoRound;
  }

  /// Absolute cutoff of round `round`: the deadline its receives
  /// resolve against, kNoDeadline for kNoRound or on fabrics without
  /// time. Protocols use it to derive schedule values (a wave's
  /// first-wave deadline) from the handle.
  [[nodiscard]] virtual double round_cutoff(RoundId round) const {
    (void)round;
    return kNoDeadline;
  }

  /// Opens a sub-deadline *inside* round `round`: a second collection
  /// wave (e.g. disSS's budget-reallocation wave) that must respect
  /// the enclosing round's cutoff. `absolute_deadline` is an absolute
  /// virtual time (typically that round's cutoff); a time-aware fabric
  /// clamps the round's cutoff to min(current cutoff,
  /// absolute_deadline) — so the wave can never outlive its round —
  /// and returns the same handle, whose round_cutoff() now reads the
  /// clamped value. On the idealized synchronous star every frame
  /// already arrived and the handle passes through untouched.
  virtual RoundId open_subround(RoundId round, double absolute_deadline) {
    (void)absolute_deadline;
    return round;
  }

  /// Virtual clocks, for schedulers and timelines (src/sched/). The
  /// idealized synchronous star has no notion of time, so both read 0;
  /// a time-aware fabric reports its committed actor clocks.
  [[nodiscard]] virtual double server_time() const { return 0.0; }
  [[nodiscard]] virtual double site_time(std::size_t source) const {
    (void)source;
    return 0.0;
  }

  /// Predicted single-attempt airtime of a `wire_bits` uplink frame
  /// from `source` right now — what adaptive quantization
  /// (qt/policy.hpp) weighs against the remaining round budget. The
  /// synchronous star transmits instantly, so 0 comes back and
  /// adaptive policies keep full width.
  [[nodiscard]] virtual double uplink_airtime_s(std::size_t source,
                                                std::uint64_t wire_bits) const {
    (void)source;
    (void)wire_bits;
    return 0.0;
  }

  /// Whether `source` is currently a fleet member. Always true on
  /// fabrics without a membership model; a churning simulator reports
  /// the site's state at its own clock, letting collection loops skip
  /// departed sites instead of counting their orphaned frames as
  /// ordinary misses. Non-const: a lazy churn schedule may extend.
  [[nodiscard]] virtual bool is_member(std::size_t source) {
    (void)source;
    return true;
  }

  /// Collection rounds opened so far — the 1-based ordinal callers
  /// hand to enforce_availability_floor for attribution. 0 on fabrics
  /// that never count rounds (the synchronous star).
  [[nodiscard]] virtual std::uint64_t rounds_opened() const { return 0; }

  /// The attached flight recorder (src/obs/), or null — the default,
  /// and the only possibility on fabrics without one. Protocol code
  /// and the phase scheduler gate ALL observability work on this
  /// pointer, which is what keeps recording zero-cost when off: a null
  /// check is the entire overhead.
  [[nodiscard]] virtual Recorder* recorder() { return nullptr; }

  /// Total source->server traffic — the paper's communication cost.
  [[nodiscard]] TrafficLedger total_uplink() {
    TrafficLedger t;
    for (std::size_t i = 0; i < num_sources(); ++i) t += uplink(i).ledger();
    return t;
  }

  [[nodiscard]] TrafficLedger total_downlink() {
    TrafficLedger t;
    for (std::size_t i = 0; i < num_sources(); ++i) t += downlink(i).ledger();
    return t;
  }
};

/// Unidirectional FIFO channel with zero transit time. Sending enqueues
/// and bills the ledger; receiving dequeues.
class Channel final : public Port {
 public:
  void send(Message msg) override {
    expect_outside_compute_action("send");
    ledger_.bytes += msg.payload.size();
    ledger_.bits += msg.wire_bits;
    ledger_.scalars += msg.scalars;
    ledger_.messages += 1;
    queue_.push_back(std::move(msg));
  }

  [[nodiscard]] bool has_pending() const override {
    expect_outside_compute_action("has_pending");
    return !queue_.empty();
  }

  [[nodiscard]] Message receive() override {
    expect_outside_compute_action("receive");
    EKM_EXPECTS_MSG(!queue_.empty(), "receive on empty channel");
    Message m = std::move(queue_.front());
    queue_.pop_front();
    return m;
  }

  [[nodiscard]] const TrafficLedger& ledger() const override { return ledger_; }

 private:
  std::deque<Message> queue_;
  TrafficLedger ledger_;
};

/// The idealized synchronous star of §3.4: every frame arrives the
/// instant it is sent. This is the reference implementation the paper's
/// scalar/bit tables are measured on; src/sim/ provides the time-aware
/// counterpart.
class Network final : public Fabric {
 public:
  explicit Network(std::size_t num_sources) : up_(num_sources), down_(num_sources) {
    EKM_EXPECTS(num_sources >= 1);
  }

  [[nodiscard]] std::size_t num_sources() const override { return up_.size(); }

  [[nodiscard]] Channel& uplink(std::size_t source) override {
    EKM_EXPECTS(source < up_.size());
    return up_[source];
  }
  [[nodiscard]] Channel& downlink(std::size_t source) override {
    EKM_EXPECTS(source < down_.size());
    return down_[source];
  }

 private:
  std::vector<Channel> up_;
  std::vector<Channel> down_;
};

}  // namespace ekm
