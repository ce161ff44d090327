// Deadline and retransmission policies for collection rounds.
//
// PR 2's simulator billed every fault as retransmit-until-delivered:
// losses cost airtime, energy and virtual time, but the server always
// waited for every site, so faults could never change the answer. A
// RoundPolicy is the other half of the trade-off federated and edge
// systems actually make: each collection round gets a wall-clock
// budget, sites whose uplink has not delivered by the deadline are
// dropped from that round, and the server aggregates over the partial
// responder set (FedAvg-style straggler dropping, applied to the
// paper's summary protocols).
//
// The policy has one home: the scenario (SimScenario::round, set by the
// scenario keys and CLI flags), which SimNetwork reports through
// Fabric::round_policy(). Every protocol (src/distributed, the NR and
// refine rounds in src/core/pipeline.cpp, streaming in the Coordinator)
// reads it from the fabric it runs over and enforces it through
// Fabric::open_round / Port::receive_by. The synchronous Network
// reports RoundPolicy{}, the paper's wait-for-everyone rounds — so the
// same protocol code runs those and deadline-driven partial rounds,
// and a protocol cannot disagree with its network about a round.
//
// A RetryPolicy governs what a sender does *between* attempts of one
// frame. PR 2/3 hard-coded the fixed ack-timeout (one per-frame
// latency, then retransmit); that stays the default and is bitwise
// unchanged. The two alternatives are the strategies edge stacks
// actually deploy: exponential backoff with jitter (decorrelates
// retransmission bursts on a congested radio) and deadline-aware
// give-up (a sender that can see the attempt cannot complete before
// the round cutoff keeps the radio off instead of burning airtime on
// a frame the server will abandon anyway).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>

#include "qt/policy.hpp"

namespace ekm {

/// What a sender does after a transmission attempt is lost.
enum class RetryStrategy {
  /// Retransmit after a fixed ack-timeout of one per-frame latency —
  /// the PR 2/3 behavior, reproduced bit for bit (no extra RNG draws).
  kFixed,
  /// Exponential backoff: the k-th retransmission waits
  /// latency × min(backoff_base^k, backoff_cap), jittered by
  /// ±backoff_jitter. Spreads retry bursts out in time; costs clock,
  /// never goodput.
  kBackoff,
  /// Fixed ack-timeout, plus deadline awareness: an attempt whose
  /// unjittered airtime cannot complete before the open round's cutoff
  /// is never keyed — the frame expires on the spot and the radio
  /// (airtime, energy) is saved. With no deadline this is kFixed.
  kGiveUp,
};

[[nodiscard]] constexpr const char* retry_strategy_name(RetryStrategy s) {
  switch (s) {
    case RetryStrategy::kFixed: return "fixed";
    case RetryStrategy::kBackoff: return "backoff";
    case RetryStrategy::kGiveUp: return "giveup";
  }
  return "?";
}

/// Retransmission policy (scenario key `retry=`, per-site
/// `siteN.retry=`, CLI `--retry`). The backoff knobs apply fleet-wide;
/// only the strategy is per-site overridable.
struct RetryPolicy {
  RetryStrategy strategy = RetryStrategy::kFixed;
  /// Backoff growth per retry (delay factor = base^attempt, attempt
  /// 0-based, so the first retransmission waits one ack-timeout).
  double backoff_base = 2.0;
  /// Cap on the backoff factor (multiples of the ack-timeout).
  double backoff_cap = 64.0;
  /// Symmetric jitter on each backoff delay: scaled by U[1−j, 1+j].
  /// Drawn from the per-link RNG stream on the protocol thread, so
  /// backoff runs stay thread-count deterministic like everything else.
  double backoff_jitter = 0.1;
};

struct RoundPolicy {
  /// Virtual seconds each collection round may take, measured from the
  /// moment the server opens the round (Fabric::open_round). Infinity
  /// (the default) reproduces the paper's synchronous protocol
  /// bit for bit.
  double deadline_s = std::numeric_limits<double>::infinity();

  /// Availability floor: a round that leaves fewer responding sites
  /// than this throws instead of aggregating a degenerate summary.
  /// Counted over *distinct* sites — a site that also completes a
  /// reallocation wave is still one responder.
  std::size_t min_responders = 1;

  /// Deadline-aware budget reallocation (scenario key `realloc=`):
  /// when a site that was allocated part of a round's sample budget
  /// misses the round, the server re-splits the lost allocation among
  /// the still-live responders in a second within-round wave (see
  /// disss.cpp). Off reproduces PR 3's renormalize-over-responders
  /// behavior; either way a round with no misses never opens a wave,
  /// so this flag cannot perturb clean runs.
  bool reallocate = true;

  /// Fraction of a *finite* round budget the schedule reserves for the
  /// reallocation wave (scenario key `realloc-reserve=`): first-wave
  /// summaries are due at `deadline − reserve × budget`, supplements at
  /// the round cutoff. The server only learns who missed a finite
  /// round when the collection deadline passes, so without a reserve a
  /// wave could never deliver — with 0 (the default) finite-deadline
  /// rounds skip the wave entirely and behave exactly like PR 3, and
  /// reallocation acts only on unbounded rounds (where retry-budget
  /// expiries surface the moment the sender gives up). A positive
  /// reserve is the explicit over-provisioning trade: sites that would
  /// have arrived inside the reserve window are dropped and their
  /// budget re-split (the `deadline-fleet` preset schedules 0.5).
  double realloc_reserve = 0.0;

  /// Cross-round pipelining (scenario key `pipeline=`, CLI
  /// `--pipeline`; src/sched/scheduler.hpp has the full story): two
  /// mechanisms behind one switch. On the fabric, the one NAK rule:
  /// a sender NAKs an uplink frame of a finite round out-of-band (one
  /// control-frame latency, no payload airtime, nothing billed) at the
  /// first moment it can *prove* the miss — the attempt start whose
  /// best-case (minimum-jitter) airtime overshoots the cutoff, or the
  /// abandonment itself (retry budget spent, give-up, cancelation,
  /// orphaning), whichever comes first. The NAK is a control-plane
  /// frame — no energy, no ledger entry, no event pushed — and the
  /// receiver consults it only on its miss path. Merge barriers
  /// therefore commit as early as the physics allows, for abandoned
  /// and delivered-but-late frames alike. In the task graphs, round r+1's
  /// tasks depend only on round r's *committed* barrier, so the next
  /// round's downlink broadcast rides the fabric while round r's
  /// stragglers resolve (per-round RoundContext state in SimNetwork
  /// keeps their frames from aliasing). Barriers stay committed-only,
  /// so fault-free and infinite-deadline runs are bitwise identical
  /// with this on or off; straggler fleets keep identical
  /// centers/ledgers/energy with a strictly earlier server completion.
  /// Off (the default) is PR 8's round-serial behavior, bit for bit.
  bool pipeline = false;

  /// Per-frame quantization policy (scenario key `quant=`,
  /// qt/policy.hpp): with kAdaptive, a site about to uplink a coreset
  /// under a finite round deadline narrows the frame's significand
  /// width when the full-width airtime cannot fit the remaining round
  /// budget — the frame shrinks instead of expiring. Only disSS's
  /// coreset frames narrow; the NR and streaming rounds throw
  /// precondition_error under kAdaptive. kFixed (the default) is the
  /// paper's §6 fixed-width billing, bit for bit.
  QuantPolicy quant = QuantPolicy::kFixed;

  /// True when rounds can actually drop sites.
  [[nodiscard]] bool active() const { return std::isfinite(deadline_s); }
};

}  // namespace ekm
