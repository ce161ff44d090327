#include "obs/recorder.hpp"

#include <cstdio>

#include "common/expects.hpp"

namespace ekm {
namespace {

/// Origin of the host track: the program's start-up, before any span
/// opens.
const std::chrono::steady_clock::time_point g_wall_origin =
    std::chrono::steady_clock::now();

}  // namespace

Recorder::Recorder() {
  // Fixed registration order — this is the JSONL column order forever.
  id_responders_ = registry_.gauge("round.responders");
  id_server_time_ = registry_.gauge("server.time_s");
  id_misses_ = registry_.counter("round.deadline_misses");
  id_supplemental_ = registry_.counter("round.supplemental_misses");
  id_orphaned_ = registry_.counter("round.orphaned_frames");
  id_uplink_bits_ = registry_.counter("round.uplink_bits");
  id_uplink_frames_ = registry_.counter("round.uplink_frames");
  id_energy_ = registry_.gauge("fleet.energy_joules");
  id_waves_ = registry_.counter("round.realloc_waves");
  id_narrowed_ = registry_.counter("round.quant_frames_narrowed");
  id_quant_bits_ = registry_.histogram("round.quant_bits", {8.0, 16.0, 24.0});
  id_queue_high_ = registry_.gauge("sim.queue_high_water");
  // Registered last (PR order): the server's committed clock when this
  // round closed — under cross-round pipelining the column that shrinks
  // while the deadline-miss columns stay put.
  id_server_commit_ = registry_.gauge("round.server_commit_seconds");
}

void Recorder::record_span(std::size_t actor, std::string label,
                           std::string kind, double start_s, double finish_s) {
  RecordedSpan s;
  s.actor = actor;
  s.label = std::move(label);
  s.kind = std::move(kind);
  s.start_s = start_s;
  s.finish_s = finish_s;
  const std::lock_guard<std::mutex> lock(spans_mu_);
  spans_.push_back(std::move(s));
}

void Recorder::record_wall_span(const char* label,
                                std::chrono::steady_clock::time_point start,
                                double duration_s) {
  RecordedSpan s;
  s.label = label;
  s.kind = "host";
  s.start_s = std::chrono::duration<double>(start - g_wall_origin).count();
  s.finish_s = s.start_s + duration_s;
  s.wall = true;
  const std::lock_guard<std::mutex> lock(spans_mu_);
  spans_.push_back(std::move(s));
}

void Recorder::record_sim_event(double time_s, const char* name,
                                std::uint32_t site, bool uplink,
                                std::uint16_t attempt, std::uint64_t bits) {
  events_.push_back({time_s, name, site, uplink, attempt, bits});
}

void Recorder::note_quant_width(std::size_t site, int wire_bits,
                                int full_bits) {
  (void)site;
  registry_.observe(id_quant_bits_, static_cast<double>(wire_bits));
  if (wire_bits < full_bits) quant_narrowed_round_ += 1;
}

void Recorder::record_server_op(ServerOpKind kind, double value,
                                std::uint32_t site, std::uint64_t frame,
                                std::uint64_t round) {
  server_ops_.push_back({kind, site, frame, round, value});
}

std::uint64_t Recorder::record_frame_causal(const FrameCausal& causal) {
  frame_causals_.push_back(causal);
  return frame_causals_.size() - 1;
}

void Recorder::record_flow(std::size_t from_actor, double from_s,
                           std::size_t to_actor, double to_s, bool critical) {
  flows_.push_back({from_actor, from_s, to_actor, to_s, critical});
}

void Recorder::snapshot_round(const RoundTotals& totals) {
  EKM_EXPECTS_MSG(totals.rounds_opened > prev_.rounds_opened,
                  "round snapshot out of order");
  // Responders: sites whose uplink took no new miss this round. A site
  // that never uplinked this round also counts no miss — the figure is
  // the simulator's best per-round availability signal without any new
  // bookkeeping on the hot path.
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < totals.per_uplink_missed.size(); ++i) {
    const std::uint64_t before =
        i < prev_.per_uplink_missed.size() ? prev_.per_uplink_missed[i] : 0;
    if (totals.per_uplink_missed[i] > before) dropped += 1;
  }
  registry_.set(id_responders_,
                static_cast<double>(totals.per_uplink_missed.size() - dropped));
  registry_.set(id_server_time_, totals.server_time_s);
  registry_.add(id_misses_, totals.missed_frames - prev_.missed_frames);
  registry_.add(id_supplemental_,
                totals.supplemental_misses - prev_.supplemental_misses);
  registry_.add(id_orphaned_, totals.orphaned_frames - prev_.orphaned_frames);
  registry_.add(id_uplink_bits_, totals.uplink_bits - prev_.uplink_bits);
  registry_.add(id_uplink_frames_, totals.uplink_frames - prev_.uplink_frames);
  registry_.set(id_energy_, totals.energy_joules);  // cumulative by design
  registry_.add(id_waves_, totals.subrounds_opened - prev_.subrounds_opened);
  registry_.add(id_narrowed_, quant_narrowed_round_);
  registry_.set(id_queue_high_,
                static_cast<double>(totals.queue_high_water));  // cumulative
  // The round's commit time is the server clock at the snapshot — the
  // moment the next round opened over the closed one's final inputs.
  registry_.set(id_server_commit_, totals.server_time_s);

  RoundSnapshot snap;
  snap.round = totals.rounds_opened;
  snap.server_time_s = totals.server_time_s;
  snap.queue_high_water = totals.queue_high_water;
  char head[48];
  std::snprintf(head, sizeof head, "{\"round\": %llu, \"metrics\": ",
                static_cast<unsigned long long>(totals.rounds_opened));
  snap.json_line = std::string(head) + registry_.to_json() + "}";
  rounds_.push_back(std::move(snap));

  prev_ = totals;
  quant_narrowed_round_ = 0;
  registry_.reset_values();  // next round's line carries deltas, not totals
}

void Recorder::begin_run() {
  prev_ = RoundTotals{};
  quant_narrowed_round_ = 0;
  registry_.reset_values();  // drop observations of a run that never closed
  // Segment marker for attribution: one segment per run.
  server_ops_.push_back({ServerOpKind::kBeginRun, 0, kNoCausalFrame, 0, 0.0});
}

}  // namespace ekm
