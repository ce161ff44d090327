#include "sim/sim_network.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <string>

#include "obs/recorder.hpp"

namespace ekm {

namespace {

/// Active trace segment of a site at virtual time t: the last segment
/// whose start has passed, or nullptr while the base radio/fault
/// settings still apply (before the first segment, or no trace at all).
[[nodiscard]] const TraceSegment* trace_segment_at(const Site& site, double t) {
  const TraceSegment* active = nullptr;
  for (const TraceSegment& seg : site.trace) {
    if (seg.start_s > t) break;
    active = &seg;
  }
  return active;
}

}  // namespace

void SimLink::send(Message msg) {
  expect_outside_compute_action("send");
  net_->do_send(*this, std::move(msg));
}

Message SimLink::receive() {
  expect_outside_compute_action("receive");
  std::optional<Message> msg = net_->do_receive_by(*this, kNoRound, kNoDeadline);
  EKM_ENSURES_MSG(msg.has_value(),
                  "blocking receive on a frame that expired (retry budget or "
                  "round deadline) — deadline-aware protocols must use "
                  "receive_by and aggregate over the responders");
  return std::move(*msg);
}

std::optional<Message> SimLink::receive_by(RoundId round, double deadline_cap) {
  expect_outside_compute_action("receive_by");
  return net_->do_receive_by(*this, round, deadline_cap);
}

std::vector<Site> make_fleet(std::size_t num_sites,
                             const SimScenario& scenario) {
  std::vector<Site> sites(num_sites);
  for (std::size_t i = 0; i < num_sites; ++i) {
    Site& s = sites[i];
    s.radio = scenario.radio_cycle.empty()
                  ? scenario.radio
                  : scenario.radio_cycle[i % scenario.radio_cycle.size()];
    s.loss_rate = scenario.loss_rate;
    s.dropout_rate = scenario.dropout_rate;
    s.retry = scenario.retry.strategy;
  }

  // Site heterogeneity, all drawn once from the scenario seed: an
  // optional uniform speed skew per site, then a straggler subset
  // chosen by shuffle and slowed down.
  Rng rng = make_rng(scenario.seed, 0x517e5ULL);
  if (scenario.site_speed_skew > 1.0) {
    std::uniform_real_distribution<double> unif(1.0 / scenario.site_speed_skew,
                                                1.0);
    for (Site& s : sites) s.compute_speed *= unif(rng);
  }
  if (scenario.straggler_fraction > 0.0) {
    const auto stragglers = static_cast<std::size_t>(
        std::ceil(scenario.straggler_fraction * static_cast<double>(num_sites)));
    std::vector<std::size_t> order(num_sites);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i = 0; i < std::min(stragglers, num_sites); ++i) {
      sites[order[i]].compute_speed /= scenario.straggler_slowdown;
    }
  }

  // Per-site overrides come last so they pin exact values — a
  // siteN.speed override wins over the skew/straggler draw above
  // (later overrides win, in declaration order). An override naming a
  // site beyond the fleet is a configuration error: it used to be
  // silently inert, which hid fleet-size typos behind clean runs.
  std::vector<std::optional<double>> join(num_sites);
  std::vector<std::optional<double>> leave(num_sites);
  for (const SiteOverride& o : scenario.site_overrides) {
    EKM_EXPECTS_MSG(o.site < num_sites,
                    "scenario override '" + o.key + "' names site " +
                        std::to_string(o.site) + " but the fleet has only " +
                        std::to_string(num_sites) + " site(s)");
    Site& s = sites[o.site];
    if (o.radio) s.radio = *o.radio;
    if (o.bandwidth_bps) s.radio.bandwidth_bps = *o.bandwidth_bps;
    if (o.loss_rate) s.loss_rate = *o.loss_rate;
    if (o.dropout_rate) s.dropout_rate = *o.dropout_rate;
    if (o.compute_speed) s.compute_speed = *o.compute_speed;
    if (o.retry) s.retry = *o.retry;
    if (!o.trace.empty()) s.trace = o.trace;
    if (o.join_s) join[o.site] = o.join_s;
    if (o.leave_s) leave[o.site] = o.leave_s;
  }

  // Merge explicit membership schedules into per-site toggle lists.
  for (std::size_t i = 0; i < num_sites; ++i) {
    Site& s = sites[i];
    if (join[i] && leave[i]) {
      EKM_EXPECTS_MSG(*join[i] != *leave[i],
                      "site" + std::to_string(i) +
                          ".join and .leave coincide at t=" +
                          std::to_string(*join[i]) +
                          " — membership would be ambiguous");
      if (*join[i] < *leave[i]) {
        s.initial_member = false;
        s.membership_toggles = {*join[i], *leave[i]};
      } else {
        s.membership_toggles = {*leave[i], *join[i]};
      }
    } else if (join[i]) {
      s.initial_member = false;
      s.membership_toggles = {*join[i]};
    } else if (leave[i]) {
      s.membership_toggles = {*leave[i]};
    }
  }
  return sites;
}

SimNetwork::SimNetwork(std::size_t num_sites, const SimScenario& scenario)
    : scenario_(scenario) {
  EKM_EXPECTS(num_sites >= 1);
  EKM_EXPECTS(scenario_.radio.bandwidth_bps > 0.0);
  EKM_EXPECTS(scenario_.seconds_per_scalar >= 0.0);
  for (const LinkModel& r : scenario_.radio_cycle) {
    EKM_EXPECTS(r.bandwidth_bps > 0.0);
  }
  EKM_EXPECTS_MSG(scenario_.round.realloc_reserve >= 0.0 &&
                      scenario_.round.realloc_reserve < 1.0,
                  "realloc_reserve must be in [0, 1)");

  // A cold fleet's first round pushes O(sites) events before the first
  // receive drains any; reserving here keeps a 10k-site sweep from
  // growing the heap through a dozen reallocations mid-round.
  queue_.reserve(4 * num_sites);

  sites_ = make_fleet(num_sites, scenario_);

  // Arm stochastic churn for the sites no override pinned. A static
  // fleet (no joins, no leaves, churn=0) keeps membership_active_
  // false, and every membership check short-circuits — zero extra
  // work, zero extra draws, bit-for-bit prior behavior.
  const bool any_toggles =
      std::any_of(sites_.begin(), sites_.end(), [](const Site& site) {
        return !site.membership_toggles.empty();
      });
  membership_active_ = any_toggles || scenario_.churn_rate > 0.0;
  if (scenario_.churn_rate > 0.0) {
    churn_managed_.assign(num_sites, 0);
    churn_rng_.reserve(num_sites);
    const std::uint64_t churn_seed = derive_seed(scenario_.seed, 0xc4e11ULL);
    for (std::size_t i = 0; i < num_sites; ++i) {
      // Dedicated per-site streams: churn draws never touch the link
      // RNGs, so arming churn shifts no loss/jitter/dropout draw.
      churn_rng_.push_back(make_rng(churn_seed, i));
      churn_managed_[i] =
          static_cast<char>(sites_[i].membership_toggles.empty());
    }
  }

  up_.reserve(num_sites);
  down_.reserve(num_sites);
  for (std::size_t i = 0; i < num_sites; ++i) {
    up_.emplace_back(SimLink(this, static_cast<std::uint32_t>(i), true,
                             derive_seed(scenario_.seed, 0xF0ULL + 2 * i)));
    down_.emplace_back(SimLink(this, static_cast<std::uint32_t>(i), false,
                               derive_seed(scenario_.seed, 0xF1ULL + 2 * i)));
  }
}

Port& SimNetwork::uplink(std::size_t source) {
  EKM_EXPECTS(source < up_.size());
  return up_[source];
}

Port& SimNetwork::downlink(std::size_t source) {
  EKM_EXPECTS(source < down_.size());
  return down_[source];
}

const SimLink& SimNetwork::uplink_view(std::size_t source) const {
  EKM_EXPECTS(source < up_.size());
  return up_[source];
}

const SimLink& SimNetwork::downlink_view(std::size_t source) const {
  EKM_EXPECTS(source < down_.size());
  return down_[source];
}

RoundId SimNetwork::open_round(double deadline_seconds) {
  EKM_EXPECTS_MSG(deadline_seconds > 0.0, "round deadline must be > 0");
  // The round now closing gets its metrics snapshot before the new
  // one's context stops being current. Pure read of existing counters —
  // nothing about the simulation changes (see set_recorder).
  if (recorder_ != nullptr) snapshot_round_to_recorder();
  RoundContext ctx;
  ctx.cutoff = std::isfinite(deadline_seconds)
                   ? server_clock_ + deadline_seconds
                   : kNoDeadline;
  rounds_.push_back(ctx);
  rounds_opened_ += 1;
  // Handles are 1-based so kNoRound (0) stays the "no round" sentinel;
  // the context table is indexed by handle - 1 and never shrinks — a
  // straggler's frame from round r keeps its cutoff resolvable after
  // round r+1 opened, which is what cross-round pipelining rides on.
  current_round_ = static_cast<RoundId>(rounds_.size());
  if (recorder_ != nullptr) {
    recorder_->record_server_op(ServerOpKind::kRoundOpen, ctx.cutoff, 0,
                                kNoCausalFrame, rounds_opened_);
  }
  return current_round_;
}

double SimNetwork::round_cutoff(RoundId round) const {
  if (round == kNoRound) return kNoDeadline;
  EKM_EXPECTS_MSG(round <= rounds_.size(), "round handle from another fabric");
  return rounds_[round - 1].cutoff;
}

RoundId SimNetwork::open_subround(RoundId round, double absolute_deadline) {
  EKM_EXPECTS_MSG(!std::isnan(absolute_deadline),
                  "sub-round deadline must not be NaN");
  EKM_EXPECTS_MSG(round != kNoRound && round <= rounds_.size(),
                  "open_subround needs an open round's handle");
  RoundContext& ctx = rounds_[round - 1];
  // A wave can only tighten the enclosing round's cutoff, never extend
  // it past the round boundary the sites already scheduled around.
  ctx.cutoff = std::min(ctx.cutoff, absolute_deadline);
  // Frames sent under this round from here on are wave supplements: a
  // miss of one is counted supplemental (the sender's first-wave data
  // still stands), which is what makes deadline_misses decomposable
  // into exact data loss + superseded supplements.
  ctx.in_wave = true;
  subrounds_opened_ += 1;
  return round;
}

void SimNetwork::do_send(SimLink& link, Message msg) {
  // The paper's ledger bills goodput at send time, exactly as the
  // synchronous Channel does — fault-free runs must match it bitwise.
  link.ledger_.bytes += msg.payload.size();
  link.ledger_.bits += msg.wire_bits;
  link.ledger_.scalars += msg.scalars;
  link.ledger_.messages += 1;

  Site& site = sites_[link.site_];
  const LinkModel& radio = site.radio;
  const double bits = static_cast<double>(msg.wire_bits);
  std::uniform_real_distribution<double> unif(0.0, 1.0);

  // --- sender-side compute: the frame exists only after the actor has
  // spent the virtual CPU time producing its scalars. ---
  // A frame whose site is not a fleet member (siteN.leave / churn)
  // orphans: a first-class drop resolved without keying the radio. An
  // uplink from a departed site charges no compute and draws no
  // dropout — nothing runs there; a broadcast *to* a departed site is
  // produced at the server as usual, then orphans in the retry loop.
  double ready;
  bool orphaned = false;
  // Per-frame causal timeline (obs/recorder.hpp FrameCausal): plain
  // locals over values the send is computing anyway, recorded only
  // behind the recorder branch at the bottom. No draw, no event, no
  // clock touches either way.
  double causal_compute = 0.0;
  double causal_outage = 0.0;
  if (link.uplink_) {
    if (membership_active_ && !site_member_at(link.site_, site.clock_s)) {
      orphaned = true;
      ready = site.clock_s;
    } else {
      causal_compute = static_cast<double>(msg.scalars) *
                       scenario_.seconds_per_scalar / site.compute_speed;
      site.clock_s += causal_compute;
      // Trace-driven links may override the dropout rate from the
      // active segment; the draw itself stays on the link stream in
      // the same program order (no trace → identical draws).
      double dropout = site.dropout_rate;
      if (const TraceSegment* seg = trace_segment_at(site, site.clock_s)) {
        if (seg->dropout_rate) dropout = *seg->dropout_rate;
      }
      if (dropout > 0.0 && unif(link.rng_) < dropout) {
        // The site is in a dropout window when it reaches for the radio:
        // it sits the outage out, then proceeds.
        site.outages += 1;
        site.clock_s += scenario_.outage_seconds;
        causal_outage = scenario_.outage_seconds;
        queue_.push({site.clock_s, 0, SimEventType::kOutage, link.site_,
                     link.uplink_, 0, msg.wire_bits});
      }
      ready = site.clock_s;
    }
  } else {
    const double compute = static_cast<double>(msg.scalars) *
                           scenario_.seconds_per_scalar / scenario_.server_speed;
    server_clock_ += compute;
    cp_server_clock_ += compute;  // producing the broadcast is real work
    ready = server_clock_;
    if (recorder_ != nullptr) {
      recorder_->record_server_op(ServerOpKind::kCompute, compute, link.site_);
    }
  }

  // Round deadlines govern the collection direction only: an uplink
  // attempt that would start at or after the sending round's cutoff is
  // never made (the sites know the round schedule and stop wasting the
  // radio). Downlink broadcasts are not round-bounded. The frame is
  // bound to the round open *now* — under pipelining a later round may
  // already be open by the time the receiver reaches for this frame,
  // and the fate decided here stays judged against this cutoff.
  const RoundId frame_round = link.uplink_ ? current_round_ : kNoRound;
  const double cutoff = round_cutoff(frame_round);

  // --- transmission attempts: serialize on the link, ride the radio,
  // retransmit on loss until delivered, the retry budget is spent, or
  // the round deadline cancels the remaining attempts. A frame whose
  // budget or deadline runs out is a first-class drop: it never
  // delivers, and every attempt actually made stays billed. What a
  // sender waits between attempts is its RetryPolicy (fixed
  // ack-timeout, exponential backoff + jitter, or deadline-aware
  // give-up); policy draws come from the same per-link RNG stream as
  // loss/jitter, on the protocol thread, so every strategy is
  // thread-count deterministic — and consumes no draws on a clean
  // first attempt, keeping fault-free runs bitwise identical across
  // strategies. ---
  const RetryStrategy strategy = site.retry;
  double start = std::max(ready, link.busy_until_);
  double end = start;  ///< end of the last attempt actually made
  bool delivered = false;
  double abandon_at = start;
  const double first_start = start;  ///< after the link-busy wait
  double causal_send_start = start;  ///< start of the last attempt made
  std::uint16_t causal_attempts = 0;
  // Predicted-arrival NAK (round pipelining): the earliest moment the
  // sender can *prove* this frame will miss its round's cutoff. An
  // attempt whose best-case airtime (minimum jitter) already overshoots
  // is proof at that attempt's start — even if the attempt is still
  // made and even if it delivers (late). Pure arithmetic over values
  // already computed: no draw, no event, no billing, so runs that never
  // consult nak_at (fault-free, unbounded rounds, pipelining off) are
  // bitwise unperturbed.
  const bool predict_nak =
      scenario_.round.pipeline && link.uplink_ && std::isfinite(cutoff);
  double provable_miss_at = kNoDeadline;
  const double base_airtime =
      bits / radio.bandwidth_bps + radio.per_message_latency_s;
  const auto energy_of = [&](double b) { return b * radio.energy_per_bit_j; };
  for (int attempt = 0;; ++attempt) {
    if (!orphaned && membership_active_ &&
        !site_member_at(link.site_, start)) {
      // Mid-round leave: the site departed between attempts (or, on a
      // downlink, before the broadcast reached it). The frame resolves
      // as a first-class orphaned drop at the moment the radio would
      // have keyed — no further attempts, nothing more billed.
      orphaned = true;
    }
    if (orphaned) {
      abandon_at = start;
      break;
    }
    if (start >= cutoff) {
      // Deadline cancelation: the sender abandons at the moment it
      // would have keyed the radio again.
      abandon_at = start;
      break;
    }
    // Trace-driven links: the active segment at this attempt's start
    // overrides bandwidth (hence airtime) and loss; per-frame latency
    // and energy always stay with the radio class. No active segment
    // (or no trace) leaves the static-link arithmetic untouched, bit
    // for bit.
    double attempt_airtime = base_airtime;
    double attempt_loss = site.loss_rate;
    if (const TraceSegment* seg = trace_segment_at(site, start)) {
      attempt_airtime =
          bits / seg->bandwidth_bps + radio.per_message_latency_s;
      attempt_loss = seg->loss_rate;
    }
    if (predict_nak && !std::isfinite(provable_miss_at) &&
        start + attempt_airtime * (1.0 - scenario_.jitter_frac) > cutoff) {
      // Even the luckiest jitter draw cannot land this attempt before
      // the cutoff, and any retransmission starts after this attempt
      // ends — past the cutoff, hence canceled. Miss proven at `start`;
      // the attempt itself still proceeds (it may deliver late, which
      // the receiver will discard like before).
      provable_miss_at = start;
    }
    if (strategy == RetryStrategy::kGiveUp &&
        start + attempt_airtime > cutoff) {
      // Deadline-aware give-up: even the unjittered airtime cannot
      // complete before the round cutoff, so keying the radio would
      // only burn energy on a frame the server will abandon. Expire
      // now, attempt never made, nothing billed for it. (Judged on
      // the expected airtime — drawing jitter for a canceled attempt
      // would shift the loss stream of every later frame.)
      abandon_at = start;
      break;
    }
    // The event field saturates at 16 bits; the retry *policy* must
    // not, or huge max_retries would wrap and disable loss entirely.
    const auto attempt_tag = static_cast<std::uint16_t>(
        std::min(attempt, 0xFFFF));
    double airtime = attempt_airtime;
    if (scenario_.jitter_frac > 0.0) {
      airtime *= 1.0 + scenario_.jitter_frac * (2.0 * unif(link.rng_) - 1.0);
    }
    link.stats_.attempts += 1;
    link.stats_.airtime_s += airtime;
    causal_send_start = start;
    if (causal_attempts < 0xFFFF) causal_attempts += 1;
    if (link.uplink_) site.energy_j += energy_of(bits);  // transmit energy
    queue_.push({start, 0, SimEventType::kSendStart, link.site_, link.uplink_,
                 attempt_tag, msg.wire_bits});
    end = start + airtime;
    const bool lost = attempt_loss > 0.0 && unif(link.rng_) < attempt_loss;
    if (!lost) {
      queue_.push({end, 0, SimEventType::kDeliver, link.site_, link.uplink_,
                   attempt_tag, msg.wire_bits});
      link.busy_until_ = end;
      // Store-and-forward sender: busy until its own frame is through.
      if (link.uplink_) {
        site.clock_s = std::max(site.clock_s, end);
      } else {
        server_clock_ = std::max(server_clock_, end);
        cp_server_clock_ = std::max(cp_server_clock_, end);
        if (recorder_ != nullptr) {
          recorder_->record_server_op(ServerOpKind::kDownlinkForward, end,
                                      link.site_);
        }
      }
      delivered = true;
      break;
    }
    link.stats_.drops += 1;
    link.stats_.retransmit_bits += msg.wire_bits;
    queue_.push({end, 0, SimEventType::kDrop, link.site_, link.uplink_,
                 attempt_tag, msg.wire_bits});
    if (attempt >= scenario_.max_retries) {
      // Retry budget spent mid-frame: a first-class drop outcome, not
      // a magically reliable fallback. The attempt that just failed is
      // billed like every other drop.
      abandon_at = end;
      break;
    }
    // The sender detects the loss after an ack-timeout of one
    // per-frame latency; what it waits beyond that is the retry
    // policy's call.
    double delay = radio.per_message_latency_s;
    if (strategy == RetryStrategy::kBackoff) {
      const double factor =
          std::min(std::pow(scenario_.retry.backoff_base,
                            static_cast<double>(attempt)),
                   scenario_.retry.backoff_cap);
      delay *= factor;
      if (scenario_.retry.backoff_jitter > 0.0) {
        delay *= 1.0 +
                 scenario_.retry.backoff_jitter * (2.0 * unif(link.rng_) - 1.0);
      }
    }
    start = end + delay;
  }

  SimFrame frame;
  frame.msg = std::move(msg);
  // Uplink frames carry the round they were sent under; round-scoped
  // receives assert the tag matches, which structurally enforces the
  // convention every protocol in src/distributed and streaming
  // observes — a late straggler from round r can never be consumed as
  // round r+1's frame. Downlink traffic stays round-less (kNoRound): a
  // later protocol phase may broadcast before it opens its own round
  // (refine pushes centers first), and tagging broadcasts with a stale
  // round — or its wave flag — would smuggle real losses into the
  // supplemental (loses-nothing) bucket. A lost wave *broadcast*
  // therefore stays in the conservative upper bound, like any other
  // downlink miss.
  frame.round = frame_round;
  frame.wave = frame_round != kNoRound && rounds_[frame_round - 1].in_wave;
  if (delivered) {
    frame.arrival = end;
    frame.delivery_seq = link.deliveries_scheduled_++;
  } else {
    frame.arrival = abandon_at;
    frame.expired = true;
    link.stats_.expired += 1;
    if (orphaned) {
      link.stats_.orphaned += 1;
      orphaned_frames_ += 1;
    }
    link.busy_until_ = std::max(link.busy_until_, end);
    if (link.uplink_) {
      site.clock_s = std::max(site.clock_s, end);
    } else {
      server_clock_ = std::max(server_clock_, end);
      cp_server_clock_ = std::max(cp_server_clock_, end);
      if (recorder_ != nullptr) {
        recorder_->record_server_op(ServerOpKind::kDownlinkForward, end,
                                    link.site_);
      }
    }
    queue_.push({abandon_at, 0, SimEventType::kExpire, link.site_, link.uplink_,
                 0, frame.msg.wire_bits});
    // Abandonment is itself proof of the miss (orphan, deadline cancel,
    // give-up, or a spent retry budget) — it can only tighten the
    // attempt-level prediction above, never loosen it.
    if (predict_nak) {
      provable_miss_at = std::min(provable_miss_at, abandon_at);
    }
  }
  if (std::isfinite(provable_miss_at)) {
    // The NAK is a control-plane frame: one per-frame latency to reach
    // the server, no payload airtime, no energy, nothing on any ledger.
    frame.nak_at = provable_miss_at + radio.per_message_latency_s;
  }
  if (recorder_ != nullptr && link.uplink_) {
    // Seal the frame's causal timeline for attribution. Every value is
    // one the send just computed; the index rides the frame so the
    // receive-side op can name its cause.
    FrameCausal causal;
    causal.site = static_cast<std::uint32_t>(link.site_);
    causal.round = frame.round;
    causal.compute_s = causal_compute;
    causal.outage_s = causal_outage;
    causal.ready_s = ready;
    causal.first_start_s = first_start;
    causal.send_start_s = causal_send_start;
    causal.arrival_s = frame.arrival;
    causal.nak_at_s = frame.nak_at;
    causal.attempts = causal_attempts;
    causal.expired = frame.expired;
    causal.wave = frame.wave;
    frame.causal = recorder_->record_frame_causal(causal);
  }
  link.in_flight_.push_back(std::move(frame));
}

std::optional<Message> SimNetwork::do_receive_by(SimLink& link, RoundId round,
                                                 double deadline_cap) {
  EKM_EXPECTS_MSG(!link.in_flight_.empty(),
                  "receive on idle simulated network");
  // The effective deadline is the round's cutoff *as of now* (a wave
  // may have tightened it since the frame was sent), further capped by
  // the caller (disSS's first-wave collects cap frames at the wave
  // split). kNoRound receives are uncapped unless the caller says
  // otherwise.
  const double deadline = std::min(round_cutoff(round), deadline_cap);
  SimFrame frame = std::move(link.in_flight_.front());
  link.in_flight_.pop_front();
  // Round-scoped uplink receives must consume a frame of that round:
  // under pipelining, round r+1's collect running while round r's
  // straggler is still on the air must never swallow the straggler's
  // frame. FIFO links + the one-outstanding-frame-per-round protocol
  // convention make this structural; the assert keeps it so.
  if (round != kNoRound && link.uplink_) {
    EKM_EXPECTS_MSG(frame.round == round,
                    "cross-round frame aliasing: round-scoped receive "
                    "consumed a frame sent under another round");
  }
  const bool miss = frame.expired || frame.arrival > deadline;
  // Either way the frame is consumed: a miss means the round moved on,
  // and a late delivery must not alias the next round's frame.
  if (miss) {
    link.stats_.missed += 1;
    missed_frames_ += 1;
    if (frame.wave) {
      link.stats_.supplemental += 1;
      supplemental_misses_ += 1;
    }
    // The receiver waits the round out (or, with no deadline, learns
    // of the expiry when the sender gives up).
    double learn = std::isfinite(deadline) ? deadline : frame.arrival;
    if (scenario_.round.pipeline && std::isfinite(deadline) && link.uplink_) {
      // Predicted-arrival NAK (round pipelining): the sender proved the
      // miss — at the first provably-late attempt or at abandonment,
      // whichever came first, so a late delivery is covered too — and
      // the server learned of it one control-frame latency later.
      // frame.nak_at is kNoDeadline when no miss was provable, making
      // the clamp a no-op.
      learn = std::min(learn, frame.nak_at);
    }
    if (!frame.expired) {
      // Delivered, but after the deadline: trace the receiver-side
      // abandonment (sender-side expiries traced their own kExpire).
      queue_.push({learn, 0, SimEventType::kExpire, link.site_, link.uplink_,
                   0, frame.msg.wire_bits});
    }
    if (link.uplink_) {
      server_clock_ = std::max(server_clock_, learn);
      if (recorder_ != nullptr) {
        recorder_->record_server_op(ServerOpKind::kMissLearn, learn,
                                    link.site_, frame.causal);
      }
    } else {
      Site& s = sites_[link.site_];
      s.clock_s = std::max(s.clock_s, learn);
    }
    return std::nullopt;
  }

  // Hit: drain the queue until this frame's delivery event has been
  // processed. This reproduces the pre-deadline runtime's event pop
  // order exactly, which keeps the receive-energy accumulation order —
  // and therefore the energy figure, bit for bit — stable.
  while (link.deliveries_done_ <= frame.delivery_seq) {
    EKM_EXPECTS_MSG(!queue_.empty(), "receive on idle simulated network");
    advance_one_event();
  }
  // The reader blocks until the frame is in: receiving advances the
  // reader's clock to the arrival time (it may already be later).
  if (link.uplink_) {
    server_clock_ = std::max(server_clock_, frame.arrival);
    // A consumed arrival is real critical-path work; what the mirror
    // clock deliberately skips is the miss path's learn wait above.
    cp_server_clock_ = std::max(cp_server_clock_, frame.arrival);
    if (recorder_ != nullptr) {
      recorder_->record_server_op(ServerOpKind::kUplinkArrival, frame.arrival,
                                  link.site_, frame.causal);
    }
  } else {
    Site& s = sites_[link.site_];
    s.clock_s = std::max(s.clock_s, frame.arrival);
  }
  return std::move(frame.msg);
}

bool SimNetwork::site_member_at(std::size_t i, double t) {
  if (!membership_active_) return true;
  Site& s = sites_[i];
  if (!churn_rng_.empty() && churn_managed_[i] != 0) {
    // Stochastic churn: extend the site's toggle schedule lazily past t
    // with alternating Exponential(churn_rate) holds from the site's
    // dedicated stream. Lazy extension keeps churn free for sites whose
    // membership is never consulted, and the schedule — once drawn — is
    // immutable, so repeated queries agree.
    std::exponential_distribution<double> gap(scenario_.churn_rate);
    double horizon =
        s.membership_toggles.empty() ? 0.0 : s.membership_toggles.back();
    while (horizon <= t) {
      horizon += gap(churn_rng_[i]);
      s.membership_toggles.push_back(horizon);
    }
  }
  bool member = s.initial_member;
  for (double toggle : s.membership_toggles) {
    if (toggle > t) break;
    member = !member;
  }
  return member;
}

double SimNetwork::uplink_airtime_s(std::size_t source,
                                    std::uint64_t wire_bits) const {
  EKM_EXPECTS(source < sites_.size());
  const Site& s = sites_[source];
  double bandwidth = s.radio.bandwidth_bps;
  if (const TraceSegment* seg = trace_segment_at(s, s.clock_s)) {
    bandwidth = seg->bandwidth_bps;
  }
  return static_cast<double>(wire_bits) / bandwidth +
         s.radio.per_message_latency_s;
}

bool SimNetwork::is_member(std::size_t source) {
  EKM_EXPECTS(source < sites_.size());
  return site_member_at(source, sites_[source].clock_s);
}

void SimNetwork::advance_one_event() {
  SimEvent ev = queue_.pop();
  clock_ = std::max(clock_, ev.time);
  if (ev.type == SimEventType::kDeliver) {
    SimLink& link = ev.uplink ? up_[ev.site] : down_[ev.site];
    link.deliveries_done_ += 1;
    EKM_ENSURES_MSG(link.deliveries_done_ <= link.deliveries_scheduled_,
                    "delivery event with no frame in flight");
    if (!ev.uplink) {
      // Receive energy for the downlink frame, billed at the transmit
      // rate (an upper bound; see link_model.hpp round_trip_joules).
      Site& s = sites_[ev.site];
      s.energy_j += static_cast<double>(ev.bits) * s.radio.energy_per_bit_j;
    }
  }
  // Trace retention is capped by the scenario (`event-log=off|N`): the
  // first N events processed are kept, the rest dropped. Clocks,
  // energy and ledgers above are untouched — only the log shrinks.
  if (log_.size() < scenario_.event_log_limit) log_.push_back(ev);
  // The flight recorder mirrors every event regardless of the cap —
  // its copy feeds the exported trace, not event_log(), so capping one
  // never truncates the other. Mirroring is a pure read of `ev`.
  if (recorder_ != nullptr) {
    recorder_->record_sim_event(ev.time, sim_event_name(ev.type), ev.site,
                                ev.uplink, ev.attempt, ev.bits);
  }
}

void SimNetwork::set_recorder(Recorder* recorder) {
  recorder_ = recorder;
  // Re-arm the delta baseline: this network's rounds start at 1, even
  // if the recorder already rode another run (the bench sweeps attach
  // one recorder to every sweep cell in turn).
  if (recorder_ != nullptr) recorder_->begin_run();
}

void SimNetwork::snapshot_round_to_recorder() {
  if (rounds_snapshotted_ >= rounds_opened_) return;  // nothing open yet
  RoundTotals totals;
  totals.rounds_opened = rounds_opened_;
  totals.server_time_s = server_clock_;
  totals.missed_frames = missed_frames_;
  totals.supplemental_misses = supplemental_misses_;
  totals.orphaned_frames = orphaned_frames_;
  totals.subrounds_opened = subrounds_opened_;
  totals.energy_joules = energy_joules();
  totals.queue_high_water = queue_.high_water();
  totals.per_uplink_missed.reserve(up_.size());
  for (const SimLink& l : up_) {
    totals.uplink_bits += l.ledger().bits;
    totals.uplink_frames += l.ledger().messages;
    totals.per_uplink_missed.push_back(l.stats().missed);
  }
  recorder_->snapshot_round(totals);
  rounds_snapshotted_ = rounds_opened_;
}

void SimNetwork::assert_link_invariants(const SimLink& l) const {
  // Every attempt either delivered or dropped; every frame either
  // scheduled a delivery or expired; retransmitted bits exist only if
  // attempts dropped. Violations mean the billing paths diverged.
  EKM_ENSURES_MSG(l.stats_.attempts == l.deliveries_scheduled_ + l.stats_.drops,
                  "link attempt ledger out of balance");
  EKM_ENSURES_MSG(l.ledger_.messages == l.deliveries_scheduled_ + l.stats_.expired,
                  "link frame ledger out of balance");
  EKM_ENSURES_MSG(l.stats_.drops > 0 || l.stats_.retransmit_bits == 0,
                  "retransmit bits billed without drops");
  EKM_ENSURES_MSG(l.deliveries_done_ == l.deliveries_scheduled_,
                  "unprocessed delivery events after finish");
  // A receiver can only abandon frames that exist: every miss was an
  // expired frame or a late delivery. Reallocation-wave supplements
  // and give-up expiries must keep this balanced — a double-billed
  // wave frame would show up here.
  EKM_ENSURES_MSG(l.stats_.missed <= l.stats_.expired + l.deliveries_scheduled_,
                  "missed frames exceed expiries plus deliveries");
  // Supplemental misses are a classification of misses, never a
  // separate population.
  EKM_ENSURES_MSG(l.stats_.supplemental <= l.stats_.missed,
                  "supplemental misses exceed total misses");
  // Orphaned frames are a classification of expiries: a membership
  // change resolves a frame through the same first-class drop path.
  EKM_ENSURES_MSG(l.stats_.orphaned <= l.stats_.expired,
                  "orphaned frames exceed expiries");
}

double SimNetwork::finish() {
  while (!queue_.empty()) advance_one_event();
  // The final round never sees another open_round; close it here so
  // the JSONL carries exactly one snapshot per round opened.
  if (recorder_ != nullptr) snapshot_round_to_recorder();
  for (const SimLink& l : up_) assert_link_invariants(l);
  for (const SimLink& l : down_) assert_link_invariants(l);
  // Events are processed lazily (a site whose frame is read late may
  // have committed an earlier virtual time than events already
  // drained), so canonicalize the trace into (time, push-seq) order.
  std::sort(log_.begin(), log_.end(),
            [](const SimEvent& a, const SimEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });
  double completion = std::max(clock_, server_clock_);
  for (const Site& s : sites_) completion = std::max(completion, s.clock_s);
  for (const SimLink& l : up_) completion = std::max(completion, l.busy_until_);
  for (const SimLink& l : down_) completion = std::max(completion, l.busy_until_);
  // Count the membership changes the run actually crossed: every
  // toggle in [0, completion], classified by the state it flips into.
  // Recomputed from scratch so finish() stays idempotent.
  if (membership_active_) {
    joins_ = 0;
    leaves_ = 0;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      // Extend churn schedules through the whole run, so a site whose
      // membership was never consulted mid-run still reports its churn.
      (void)site_member_at(i, completion);
      bool member = sites_[i].initial_member;
      for (double toggle : sites_[i].membership_toggles) {
        if (toggle > completion) break;
        member = !member;
        if (member) {
          joins_ += 1;
        } else {
          leaves_ += 1;
        }
      }
    }
  }
  return completion;
}

double SimNetwork::energy_joules() const {
  double total = 0.0;
  for (const Site& s : sites_) total += s.energy_j;
  return total;
}

std::uint64_t SimNetwork::total_outages() const {
  std::uint64_t total = 0;
  for (const Site& s : sites_) total += s.outages;
  return total;
}

LinkStats SimNetwork::total_uplink_stats() const {
  LinkStats t;
  for (const SimLink& l : up_) t += l.stats();
  return t;
}

LinkStats SimNetwork::total_downlink_stats() const {
  LinkStats t;
  for (const SimLink& l : down_) t += l.stats();
  return t;
}

}  // namespace ekm
