#include "sim/coordinator.hpp"

namespace ekm {

SimReport Coordinator::run(PipelineKind kind, std::span<const Dataset> parts,
                           const PipelineConfig& cfg) const {
  EKM_EXPECTS(!parts.empty());
  SimNetwork net(parts.size(), scenario_);
  // The flight recorder (if any) hangs on the network, and the
  // scheduler/protocols reach it through Fabric::recorder(). Null —
  // the default — records nothing.
  net.set_recorder(cfg.recorder);
  SimReport report;
  report.scenario = scenario_.name;
  report.result = run_distributed_pipeline(kind, parts, cfg, net);
  report.completion_seconds = net.finish();
  report.server_completion_seconds = net.server_clock();
  report.server_critical_path_seconds = net.server_critical_path();
  report.energy_joules = net.energy_joules();
  report.outages = net.total_outages();
  report.uplink_stats = net.total_uplink_stats();
  report.downlink_stats = net.total_downlink_stats();
  report.rounds = net.rounds_opened();
  report.deadline_misses = net.missed_frames();
  report.supplemental_misses = net.supplemental_misses();
  report.realloc_waves = net.subrounds_opened();
  // finish() already ran above, so the join/leave census is final.
  report.joins = net.joins();
  report.leaves = net.leaves();
  report.orphaned_frames = net.orphaned_frames();
  report.queue_high_water = net.queue_high_water();
  for (std::size_t i = 0; i < net.num_sources(); ++i) {
    // A site is dropped if any round abandoned one of its uplink
    // frames, or if it lost a broadcast (basis/allocation/centers) and
    // therefore sat a round out without its data reaching the model.
    const LinkStats& up = net.uplink_view(i).stats();
    const LinkStats& down = net.downlink_view(i).stats();
    report.sites_dropped += up.missed > 0 || down.missed > 0;
    // Exact data loss: a site whose only uplink misses were superseded
    // wave supplements left its first-wave data standing. (Downlink
    // misses always count — supplemental is 0 there by construction.)
    report.sites_data_dropped += up.missed > up.supplemental ||
                                 down.missed > down.supplemental;
  }
  report.event_log = net.take_event_log();  // net is consumed — no copy
  return report;
}

}  // namespace ekm
