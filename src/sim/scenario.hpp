// Scenario configuration for the discrete-event edge-network simulator.
//
// A SimScenario bundles everything that distinguishes one deployment
// from another: the radio class, fault rates (per-attempt frame loss,
// per-transaction site dropout), timing noise (jitter), compute
// heterogeneity (stragglers, speed skew), and the retransmission
// policy. Named presets cover the deployments the benches sweep;
// parse_scenario() additionally accepts "key=value,key=value" overrides
// so the CLI can express anything the struct can.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/link_model.hpp"
#include "sim/round_policy.hpp"

namespace ekm {

/// One piece of a trace-driven link schedule (`siteN.trace=`): from
/// `start_s` of virtual time until the next segment takes over, the
/// site's link runs at `bandwidth_bps` with `loss_rate` per attempt
/// (and, when given, `dropout_rate` per transaction). Before the first
/// segment's start the base radio/fault settings apply, so a trace
/// layers *under* the radio presets and retry policies instead of
/// replacing them — per-frame latency and energy always stay with the
/// radio class.
struct TraceSegment {
  double start_s = 0.0;
  double bandwidth_bps = 0.0;
  double loss_rate = 0.0;
  std::optional<double> dropout_rate;  ///< nullopt = keep the base rate
};

/// One site's deviations from the fleet-wide scenario knobs, applied in
/// declaration order (later overrides win). Parsed from `siteN.key=value`
/// tokens; an override naming a site index beyond the deployment's size
/// is a configuration error — SimNetwork rejects it loudly, naming the
/// key (a silently inert override once hid fleet-size typos).
struct SiteOverride {
  std::size_t site = 0;
  std::string key;                       ///< the original `siteN.field`
                                         ///< token, for error attribution
  std::optional<LinkModel> radio;        ///< siteN.radio=lora|ble|wifi|5g
  std::optional<double> bandwidth_bps;   ///< siteN.bandwidth=BPS
  std::optional<double> loss_rate;       ///< siteN.loss=P
  std::optional<double> dropout_rate;    ///< siteN.dropout=P
  std::optional<double> compute_speed;   ///< siteN.speed=REL (pins the
                                         ///< speed, after skew/stragglers)
  std::optional<RetryStrategy> retry;    ///< siteN.retry=fixed|backoff|giveup
  std::optional<double> join_s;          ///< siteN.join=T (member from T)
  std::optional<double> leave_s;         ///< siteN.leave=T (gone from T)
  std::vector<TraceSegment> trace;       ///< siteN.trace=start:bw:loss[:drop];...
};

struct SimScenario {
  std::string name = "ideal";

  /// Radio class shared by every site (see link_model.hpp presets).
  LinkModel radio = wifi_link();

  /// Heterogeneous fleets: when non-empty, site i rides
  /// radio_cycle[i % radio_cycle.size()] instead of `radio`
  /// (hetero-mesh uses this); siteN.radio overrides still win.
  std::vector<LinkModel> radio_cycle;

  /// Per-site deviations, applied on top of everything above.
  std::vector<SiteOverride> site_overrides;

  /// How collection rounds end (round_policy.hpp): deadline, responder
  /// floor, reallocation and its reserve, pipelining and quantization.
  /// SimNetwork reports it as its Fabric::round_policy(). The default
  /// reproduces the paper's wait-for-everyone protocol bit for bit.
  RoundPolicy round;

  /// Retransmission policy (round_policy.hpp): what a sender does
  /// between attempts of one frame. The default fixed ack-timeout is
  /// the PR 2/3 behavior bit for bit; `retry=backoff` and
  /// `retry=giveup` (per-site `siteN.retry=`) change only how faults
  /// cost clock/airtime, never the goodput ledgers.
  RetryPolicy retry;

  // --- faults -------------------------------------------------------------
  /// Probability that one transmission attempt is lost in flight. Lost
  /// attempts are retransmitted (billed to airtime/energy, not to the
  /// paper's scalar ledger) until delivered or max_retries is spent.
  double loss_rate = 0.0;
  /// Probability that a site is in a dropout window when it next needs
  /// its radio; it then waits out `outage_seconds` before transmitting.
  double dropout_rate = 0.0;
  double outage_seconds = 5.0;
  /// Stochastic fleet churn (`churn=`): rate (events per virtual
  /// second) of an alternating leave/rejoin process per site —
  /// membership intervals are Exponential(rate) holds, drawn from a
  /// dedicated per-site RNG stream so churn-free runs consume zero
  /// extra draws. Applies only to sites without an explicit
  /// `siteN.join=`/`siteN.leave=` schedule; 0 (the default) disables
  /// churn entirely and reproduces the static-fleet runtime bit for
  /// bit. A site that leaves resolves every in-flight frame of its
  /// links as a first-class orphaned drop.
  double churn_rate = 0.0;
  /// Attempts beyond the first before the link escalates. The protocols
  /// are lossless at the application layer, so after max_retries the
  /// frame is delivered anyway over an assumed reliable fallback — all
  /// attempts stay billed.
  int max_retries = 8;

  // --- timing noise -------------------------------------------------------
  /// Airtime jitter: each attempt's duration is scaled by a uniform
  /// draw from [1 - jitter_frac, 1 + jitter_frac].
  double jitter_frac = 0.0;

  // --- compute heterogeneity ----------------------------------------------
  /// Fraction of sites designated stragglers (chosen by seed)...
  double straggler_fraction = 0.0;
  /// ...and how much slower they are (compute_speed /= slowdown).
  double straggler_slowdown = 4.0;
  /// Multiplicative speed spread across all sites: each site's speed is
  /// additionally scaled by a uniform draw from [1/skew, 1]. 1 = none.
  double site_speed_skew = 1.0;

  // --- compute model ------------------------------------------------------
  /// Virtual seconds the reference edge CPU spends producing one
  /// summary scalar (serialization + the local math behind it). The
  /// absolute value is a calibration constant; the relative spread
  /// across sites is what stragglers/skew act on.
  double seconds_per_scalar = 1e-7;
  /// Server speed relative to the reference edge CPU.
  double server_speed = 16.0;

  // --- reporting ----------------------------------------------------------
  /// Cap on the retained event trace (scenario key `event-log=off|N`):
  /// the simulator records the first N events processed and drops the
  /// rest (0 = record nothing, the `off` spelling). Metrics, clocks
  /// and ledgers are unaffected — only SimReport::event_log shrinks.
  /// Sweep workloads (the pipeline sweep in bench_sim_scenarios) turn
  /// this off so a grid of lossy multi-round runs does not hold tens
  /// of thousands of trace entries per cell in memory. The default
  /// (unlimited) keeps PR 2–4 behavior bit for bit.
  std::size_t event_log_limit = static_cast<std::size_t>(-1);

  std::uint64_t seed = 1;

  [[nodiscard]] bool fault_free() const {
    if (loss_rate != 0.0 || dropout_rate != 0.0 || jitter_frac != 0.0 ||
        churn_rate != 0.0) {
      return false;
    }
    for (const SiteOverride& o : site_overrides) {
      if (o.loss_rate.value_or(0.0) != 0.0) return false;
      if (o.dropout_rate.value_or(0.0) != 0.0) return false;
      // A membership schedule makes frames orphan; a trace segment that
      // injects loss or dropout makes them drop. (A bandwidth-only trace
      // shifts timing but never a frame's fate.)
      if (o.join_s.has_value() || o.leave_s.has_value()) return false;
      for (const TraceSegment& seg : o.trace) {
        if (seg.loss_rate != 0.0 || seg.dropout_rate.value_or(0.0) != 0.0) {
          return false;
        }
      }
    }
    return true;
  }
};

/// Single source of truth for the retry-strategy grammar, shared by
/// the scenario parser (`retry=`, `siteN.retry=`) and the CLI
/// (`--retry`): "fixed" | "backoff" | "giveup", nullopt on anything
/// else.
[[nodiscard]] std::optional<RetryStrategy> retry_strategy_from_name(
    const std::string& name);

/// Named presets, each an opinionated deployment sketch:
///   ideal          — Wi-Fi, no faults (ledger-equivalent to Network)
///   wifi-office    — Wi-Fi, light loss and jitter
///   ble-swarm      — BLE, moderate loss, occasional dropouts
///   lora-field     — LoRa, lossy, long outages, strong skew
///   nr5g-fleet     — 5G, clean radio but a straggling quarter of sites
///   lossy-mesh     — Wi-Fi with heavy loss/dropout, stress preset
///   hetero-mesh    — mixed Wi-Fi/BLE/LoRa fleet (radio_cycle), light
///                    faults, moderate speed skew
///   deadline-fleet — 5G with a straggling, lossier tail of sites and a
///                    finite round deadline (partial aggregation on by
///                    default)
[[nodiscard]] std::vector<std::string> sim_scenario_names();

/// Returns the preset, or nullopt if `name` is not one.
[[nodiscard]] std::optional<SimScenario> sim_scenario_preset(
    const std::string& name);

/// Parses "NAME" or "NAME,key=value,..." or "key=value,...". Keys:
/// radio (lora|ble|wifi|5g), loss, dropout, outage, retries, jitter,
/// stragglers, slowdown, skew, sps (seconds per scalar), server-speed,
/// deadline (virtual seconds per collection round, or inf),
/// min-responders, realloc (on|off: deadline-aware budget
/// reallocation), realloc-reserve (fraction of a finite round budget
/// scheduled for the reallocation wave), pipeline (on|off: cross-round
/// pipelining — predicted-arrival NAKs commit merge barriers early),
/// event-log (off|N: cap the retained event trace),
/// retry (fixed|backoff|giveup), churn (leave/rejoin events per virtual
/// second), quant (fixed|adaptive: per-frame quantization policy),
/// backoff-base, backoff-cap, backoff-jitter, seed, plus per-site overrides
/// siteN.radio, siteN.bandwidth, siteN.loss, siteN.dropout,
/// siteN.speed, siteN.retry, siteN.join, siteN.leave, and
/// siteN.trace=start:bw:loss[:dropout][;start:bw:loss[:dropout]...]
/// (piecewise link-quality segments over virtual time, strictly
/// increasing starts). Overrides apply on top of the preset (default:
/// ideal). Throws precondition_error on unknown names/keys and on
/// malformed values — empty, trailing garbage, or out of range
/// (including finite-looking tokens that overflow double, e.g.
/// `loss=1e999`) — naming the offending key.
[[nodiscard]] SimScenario parse_scenario(const std::string& spec);

}  // namespace ekm
