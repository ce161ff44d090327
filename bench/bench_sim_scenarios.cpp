// Scenario sweep over the discrete-event edge-network simulator: radio
// classes (LoRa / BLE / Wi-Fi / 5G) × fault rates (loss+dropout) for the
// BKLW multi-source pipeline, followed by a deadline sweep — a
// straggler-heavy fleet under lossy-mesh faults with per-round deadlines
// from infinity down to aggressive, tracing the responders-vs-accuracy
// trade of partial aggregation — and a realloc sweep, comparing the
// server-side coreset size and cost ratio with deadline-aware budget
// reallocation off vs on across a fault grid — and a pipeline sweep:
// a deadline-bound fleet with a growing set of link-constrained
// stragglers, run with cross-round pipelining off vs on, tracing how
// close predicted-arrival NAKs plus committed-barrier round edges push
// server completion to the per-run critical-path lower bound
// (`server_critical_path_seconds`; event logging off: a sweep of lossy
// multi-round runs has no use for full traces in memory) — and a churn
// sweep: two sites behind an 8 kbps trace link
// under (deadline × churn-rate) pressure, run with fixed vs adaptive
// per-frame quantization, tracing the misses-vs-accuracy trade of
// graceful degradation — and a fleet scale sweep: fault-free star
// fleets from 256 up to 10240 sites, tracing time-to-fresh-model,
// uplink bits and energy against the event-queue high-water mark the
// 10k-site runs exercise — and an attribution section: the pipeline
// grid re-run under a flight recorder, each cell's recorded
// server-clock op stream replayed into a critical-path blame
// decomposition (src/obs/attribution.hpp) with a per-cell
// `critical_path_matches` verdict asserting the replay reproduces
// `server_critical_path_seconds` bit for bit. Emits per-cell deployment metrics —
// virtual completion time, site energy, goodput vs retransmitted bits,
// attempt/drop counts, responder counts, and the k-means cost ratio
// against the NR (ship-everything) baseline — as BENCH_sim.json so
// successive PRs can track the trajectory, PR-1-style.
//
// Every reported number lives on the virtual clock or in a ledger, so
// the whole JSON is bitwise deterministic for a fixed --seed at any
// EKM_THREADS setting (tests/test_sim.cpp holds the simulator to that).
//
// Usage: bench_sim_scenarios [--n N] [--d D] [--k K] [--sources M]
//                            [--seed S] [--json PATH] [--only SECTION]
//                            [--list] [--meta key=value ...]
//                            [--trace-out FILE] [--metrics-out FILE]
// --meta pairs land verbatim in a top-level "provenance" object
// (tools/run_bench.sh stamps git SHA, compiler, flags, EKM_THREADS).
// --list prints the splice-able section names, one per line, and exits
// (the single source of truth tools/run_bench.sh --list defers to).
// --only runs a single sweep section (cells | deadline_sweep |
// realloc_sweep | pipeline_sweep | churn_sweep |
// fleet_scale_sweep | attribution) and
// emits a JSON holding just that section — still valid JSON with the
// full header/provenance, so tools/run_bench.sh can splice it into an
// existing BENCH_sim.json without re-running the other sweeps. Every
// section's cells are bitwise independent of which other sections ran
// (each cell builds its own Coordinator from its own spec string), so
// a spliced section matches a full run byte for byte.
// --trace-out/--metrics-out attach one flight recorder (src/obs/)
// across all sweep cells — a debug artifact whose presence never
// changes a single reported number (recording is side-effect-free).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "data/generators.hpp"
#include "kmeans/cost.hpp"
#include "obs/attribution.hpp"
#include "obs/trace_export.hpp"
#include "sim/coordinator.hpp"

namespace {

using namespace ekm;

struct Cell {
  std::string radio;
  double fault = 0.0;
  SimReport report;
  double cost_ratio = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 4000, d = 32, k = 4, sources = 8;
  std::uint64_t seed = 7;
  std::string json_path;
  std::string trace_path, metrics_path;
  std::string only;  // empty: run every section
  bool list_sections = false;
  bench::MetaPairs meta;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](std::size_t& out) {
      if (i + 1 < argc) out = static_cast<std::size_t>(std::atoll(argv[++i]));
    };
    if (std::strcmp(argv[i], "--n") == 0) next(n);
    else if (std::strcmp(argv[i], "--d") == 0) next(d);
    else if (std::strcmp(argv[i], "--k") == 0) next(k);
    else if (std::strcmp(argv[i], "--sources") == 0) next(sources);
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc)
      only = argv[++i];
    else if (std::strcmp(argv[i], "--list") == 0)
      list_sections = true;
    else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc)
      metrics_path = argv[++i];
    else if (std::strcmp(argv[i], "--meta") == 0 && i + 1 < argc) {
      if (!bench::parse_meta_pair(argv[++i], meta)) return 2;
    }
  }
  const std::vector<std::string> kSections = {
      "cells",       "deadline_sweep",    "realloc_sweep", "pipeline_sweep",
      "churn_sweep", "fleet_scale_sweep", "attribution"};
  if (list_sections) {
    for (const std::string& s : kSections) std::printf("%s\n", s.c_str());
    return 0;
  }
  if (!only.empty() &&
      std::find(kSections.begin(), kSections.end(), only) == kSections.end()) {
    std::fprintf(stderr, "unknown --only section '%s' (expected one of:",
                 only.c_str());
    for (const std::string& s : kSections) std::fprintf(stderr, " %s", s.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const auto selected = [&](const char* section) {
    return only.empty() || only == section;
  };

  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.k = k;
  Rng data_rng = make_rng(seed, 0xdadaULL);
  const Dataset data = make_gaussian_mixture(spec, data_rng);
  Rng part_rng = make_rng(seed, 0x9a87ULL);
  const std::vector<Dataset> parts = partition_random(data, sources, part_rng);

  PipelineConfig cfg;
  cfg.k = k;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  cfg.coreset_size = 300;
  cfg.pca_dim = 16;

  // One recorder across all sweep cells (each Coordinator run attaches
  // it to its own SimNetwork): spans from different cells share the
  // virtual-time axis, which is fine for a debug artifact. Attached
  // only when an export was requested — and even attached, recording
  // changes no reported number.
  Recorder recorder;
  if (!trace_path.empty() || !metrics_path.empty()) {
    cfg.recorder = &recorder;
    install_recorder(&recorder);
  }

  // The ship-everything baseline the cost ratios are against.
  const PipelineResult nr = run_distributed_pipeline(
      PipelineKind::kNoReduction, parts, cfg);
  const double nr_cost = kmeans_cost(data, nr.centers);

  const std::vector<std::string> radios = {"lora", "ble", "wifi", "5g"};
  const std::vector<double> faults = {0.0, 0.05, 0.2};

  std::vector<Cell> cells;
  std::printf("sim scenarios  n=%zu d=%zu k=%zu sources=%zu pipeline=BKLW\n",
              n, d, k, sources);
  if (selected("cells")) {
  std::printf("%-6s %-6s %14s %12s %14s %14s %9s %7s %10s\n", "radio",
              "fault", "completion_s", "energy_J", "goodput_bits",
              "retx_bits", "attempts", "drops", "cost_ratio");
  for (const std::string& radio : radios) {
    for (double fault : faults) {
      char spec_buf[128];
      std::snprintf(spec_buf, sizeof spec_buf,
                    "radio=%s,loss=%.3f,dropout=%.3f,outage=2,jitter=%.3f,"
                    "seed=%llu",
                    radio.c_str(), fault, fault / 2.0, fault / 2.0,
                    static_cast<unsigned long long>(seed));
      const Coordinator coord(parse_scenario(spec_buf));
      Cell cell;
      cell.radio = radio;
      cell.fault = fault;
      cell.report = coord.run(PipelineKind::kBklw, parts, cfg);
      cell.cost_ratio =
          kmeans_cost(data, cell.report.result.centers) / nr_cost;
      const LinkStats& up = cell.report.uplink_stats;
      std::printf("%-6s %-6.2f %14.4f %12.4e %14llu %14llu %9llu %7llu %10.4f\n",
                  radio.c_str(), fault, cell.report.completion_seconds,
                  cell.report.energy_joules,
                  static_cast<unsigned long long>(cell.report.result.uplink.bits),
                  static_cast<unsigned long long>(up.retransmit_bits),
                  static_cast<unsigned long long>(up.attempts),
                  static_cast<unsigned long long>(up.drops), cell.cost_ratio);
      cells.push_back(std::move(cell));
    }
  }
  }  // selected("cells")

  // --- deadline sweep: responders vs accuracy under partial aggregation.
  // A straggler-heavy, compute-bound fleet with lossy-mesh faults; the
  // per-round deadline tightens from infinity (the paper's protocol,
  // bit-identical to the wait-for-everyone cells above in ledgers and
  // centers) down to budgets that drop the straggling sites.
  struct DeadlineCell {
    double deadline = 0.0;  // infinity encoded as 0 in the printout
    SimReport report;
    double cost_ratio = 0.0;
    bool feasible = true;  // false: the round fell below min-responders
  };
  const std::vector<double> deadlines = {
      std::numeric_limits<double>::infinity(), 16.0, 8.0, 4.0, 2.0, 1.0, 0.5};
  // Single source of truth for the sweep's base scenario: the run and
  // the JSON "scenario" field must not drift apart.
  constexpr const char* kSweepBase =
      "lossy-mesh,stragglers=0.25,slowdown=64,sps=1e-5";
  std::vector<DeadlineCell> dcells;
  if (selected("deadline_sweep")) {
  std::printf("\ndeadline sweep  scenario=lossy-mesh+stragglers pipeline=BKLW\n");
  std::printf("%-10s %12s %14s %14s %9s %7s %10s %10s\n", "deadline",
              "responders", "completion_s", "server_done_s", "misses", "drops",
              "retx_bits", "cost_ratio");
  for (double deadline : deadlines) {
    char spec_buf[192];
    if (std::isfinite(deadline)) {
      std::snprintf(spec_buf, sizeof spec_buf, "%s,deadline=%g,seed=%llu",
                    kSweepBase, deadline,
                    static_cast<unsigned long long>(seed));
    } else {
      std::snprintf(spec_buf, sizeof spec_buf, "%s,seed=%llu", kSweepBase,
                    static_cast<unsigned long long>(seed));
    }
    const Coordinator coord(parse_scenario(spec_buf));
    DeadlineCell cell;
    cell.deadline = deadline;
    try {
      cell.report = coord.run(PipelineKind::kBklw, parts, cfg);
      cell.cost_ratio = kmeans_cost(data, cell.report.result.centers) / nr_cost;
    } catch (const invariant_error&) {
      // The budget was so tight a round fell below the availability
      // floor; record the cell as infeasible rather than killing the
      // whole sweep (other seeds/shapes may hit this at 0.5 s).
      cell.feasible = false;
    }
    if (!cell.feasible) {
      std::printf("%-10g %12s\n", deadline, "infeasible");
      dcells.push_back(std::move(cell));
      continue;
    }
    const std::uint64_t responders =
        sources - cell.report.sites_dropped;
    std::printf("%-10g %8llu/%-3zu %14.4f %14.4f %9llu %7llu %10llu %10.4f\n",
                deadline, static_cast<unsigned long long>(responders), sources,
                cell.report.completion_seconds,
                cell.report.server_completion_seconds,
                static_cast<unsigned long long>(cell.report.deadline_misses),
                static_cast<unsigned long long>(
                    cell.report.uplink_stats.drops),
                static_cast<unsigned long long>(
                    cell.report.uplink_stats.retransmit_bits),
                cell.cost_ratio);
    dcells.push_back(std::move(cell));
  }
  }  // selected("deadline_sweep")

  // --- realloc sweep: budget conservation under faults. A compute-
  // bound straggler fleet (deadline-fleet shaped) whose slow quarter
  // reports costs in time but blows the summary round, so its sample
  // allocation is at stake every round — swept across frame-loss rates
  // with deadline-aware budget reallocation off (PR 3's renormalize-
  // over-responders) and on (the within-round re-split wave). The
  // column to watch is summary_points: with reallocation on, the
  // server's coreset holds ≈ the full sample budget the scenario paid
  // for, instead of shrinking with every dropped site.
  struct ReallocCell {
    double fault = 0.0;
    bool realloc = false;
    SimReport report;
    double cost_ratio = 0.0;
    bool feasible = true;
  };
  constexpr const char* kReallocBase =
      "radio=5g,sps=1e-3,stragglers=0.25,slowdown=16,deadline=8,"
      "realloc-reserve=0.5,outage=2";
  const std::vector<double> realloc_faults = {0.0, 0.05, 0.2};
  std::vector<ReallocCell> rcells;
  if (selected("realloc_sweep")) {
  std::printf("\nrealloc sweep  scenario=5g+stragglers,deadline=8 pipeline=BKLW\n");
  // "miss_sites" (not "responders"): sites_dropped counts any site with
  // an abandoned frame, including a responder whose wave *supplement*
  // missed while its first-wave coreset stands — so it upper-bounds
  // actual data loss in realloc=on cells (see SimReport::sites_dropped).
  // Likewise the JSON emits "uplink_bits" (not "goodput_bits"): with
  // realloc=on the uplink total includes superseded first-wave coresets
  // the server replaced, so bits are a *cost* column here; the benefit
  // column is summary_points.
  std::printf("%-6s %-8s %12s %14s %9s %7s %10s %10s\n", "fault", "realloc",
              "miss_sites", "summary_pts", "misses", "waves", "retx_bits",
              "cost_ratio");
  for (double fault : realloc_faults) {
    for (int realloc_on = 0; realloc_on <= 1; ++realloc_on) {
      char spec_buf[224];
      std::snprintf(spec_buf, sizeof spec_buf,
                    "%s,loss=%.3f,dropout=%.3f,jitter=%.3f,realloc=%s,seed=%llu",
                    kReallocBase, fault, fault / 2.0, fault / 2.0,
                    realloc_on ? "on" : "off",
                    static_cast<unsigned long long>(seed));
      const Coordinator coord(parse_scenario(spec_buf));
      ReallocCell cell;
      cell.fault = fault;
      cell.realloc = realloc_on != 0;
      try {
        cell.report = coord.run(PipelineKind::kBklw, parts, cfg);
        cell.cost_ratio =
            kmeans_cost(data, cell.report.result.centers) / nr_cost;
      } catch (const invariant_error&) {
        cell.feasible = false;
      }
      if (!cell.feasible) {
        std::printf("%-6.2f %-8s %12s\n", fault, realloc_on ? "on" : "off",
                    "infeasible");
        rcells.push_back(std::move(cell));
        continue;
      }
      std::printf("%-6.2f %-8s %8llu/%-3zu %14zu %9llu %7llu %10llu %10.4f\n",
                  fault, realloc_on ? "on" : "off",
                  static_cast<unsigned long long>(cell.report.sites_dropped),
                  sources, cell.report.result.summary_points,
                  static_cast<unsigned long long>(cell.report.deadline_misses),
                  static_cast<unsigned long long>(cell.report.realloc_waves),
                  static_cast<unsigned long long>(
                      cell.report.uplink_stats.retransmit_bits),
                  cell.cost_ratio);
      rcells.push_back(std::move(cell));
    }
  }
  }  // selected("realloc_sweep")

  // --- pipeline sweep: cross-round pipelining vs lock-step rounds. A
  // 3-second-round give-up fleet where 0/1/2 sites sit behind 2 kbps
  // links: their multi-kilobit summaries can never make a round, so
  // they expire at compute-ready time without keying the radio.
  // Centers, ledgers, and energy are therefore identical pipelined or
  // not; what pipelining changes is when the server *learns*:
  // predicted-arrival NAKs prove the miss at scheduled-send time and
  // round r+1's task graph hangs off round r's committed barrier
  // instead of its cutoff. The column
  // to watch is server_completion_seconds against
  // server_critical_path_seconds — the per-run lower bound (server
  // compute + downlink sends + consumed uplink arrivals only); the
  // pipelined rows should close most of the gap the unpipelined rows
  // leave. The 0-straggler rows are the control: the fleet is
  // fault-free there, so pipelining must change nothing at all.
  struct PipelineCell {
    std::size_t slow_sites = 0;
    bool pipelined = false;
    SimReport report;
    double cost_ratio = 0.0;
    bool feasible = true;
  };
  constexpr const char* kPipelineBase =
      "radio=wifi,sps=1e-4,deadline=3,retry=giveup,event-log=off";
  std::vector<PipelineCell> pcells;
  if (selected("pipeline_sweep")) {
  std::printf("\npipeline sweep  scenario=wifi+2kbps-stragglers,deadline=3 "
              "pipeline=BKLW\n");
  std::printf("%-6s %-9s %14s %12s %14s %12s %9s %10s\n", "slow", "pipeline",
              "server_done_s", "cp_bound_s", "completion_s", "energy_J",
              "misses", "cost_ratio");
  for (std::size_t slow = 0; slow <= 2; ++slow) {
    for (int pipeline_on = 0; pipeline_on <= 1; ++pipeline_on) {
      std::string spec = kPipelineBase;
      for (std::size_t j = 0; j < slow; ++j) {
        spec += ",site" + std::to_string(j) + ".bandwidth=2000";
      }
      spec += std::string(",pipeline=") + (pipeline_on ? "on" : "off");
      spec += ",seed=" + std::to_string(seed);
      const Coordinator coord(parse_scenario(spec));
      PipelineCell cell;
      cell.slow_sites = slow;
      cell.pipelined = pipeline_on != 0;
      try {
        cell.report = coord.run(PipelineKind::kBklw, parts, cfg);
        cell.cost_ratio =
            kmeans_cost(data, cell.report.result.centers) / nr_cost;
      } catch (const invariant_error&) {
        cell.feasible = false;
      }
      if (!cell.feasible) {
        std::printf("%-6zu %-9s %14s\n", slow, pipeline_on ? "on" : "off",
                    "infeasible");
        pcells.push_back(std::move(cell));
        continue;
      }
      std::printf("%-6zu %-9s %14.4f %12.4f %14.4f %12.4e %9llu %10.4f\n",
                  slow, pipeline_on ? "on" : "off",
                  cell.report.server_completion_seconds,
                  cell.report.server_critical_path_seconds,
                  cell.report.completion_seconds, cell.report.energy_joules,
                  static_cast<unsigned long long>(cell.report.deadline_misses),
                  cell.cost_ratio);
      pcells.push_back(std::move(cell));
    }
  }
  }  // selected("pipeline_sweep")

  // --- churn sweep: graceful degradation under deadline pressure. Two
  // of the eight sites ride an 8 kbps trace link, so their full-width
  // summary coresets can never cross inside the round; the rest of the
  // fleet optionally churns (stochastic leave/rejoin). Each (deadline,
  // churn) point runs with quant=fixed — the paper's billing, which
  // loses the slow sites' data to the deadline — and quant=adaptive,
  // which narrows those frames until they fit. The columns to watch:
  // misses and summary_pts (adaptive keeps the slow sites' data in the
  // model) against cost_ratio (the accuracy price of the narrowed
  // coordinates). Orphans/joins/leaves trace the churn process itself —
  // identical across the quant pair, since membership draws come from
  // dedicated streams.
  struct ChurnCell {
    double deadline = 0.0;
    double churn = 0.0;
    bool adaptive = false;
    SimReport report;
    double cost_ratio = 0.0;
    bool feasible = true;
  };
  constexpr const char* kChurnBase =
      "radio=wifi,retry=giveup,event-log=off,"
      "site0.trace=0:8000:0,site1.trace=0:8000:0";
  const std::vector<double> churn_deadlines = {8.0, 5.0};
  const std::vector<double> churn_rates = {0.0, 0.02, 0.05};
  std::vector<ChurnCell> ccells;
  if (selected("churn_sweep")) {
  std::printf("\nchurn sweep  scenario=wifi+8kbps-trace-sites pipeline=BKLW\n");
  std::printf("%-9s %-6s %-9s %8s %8s %6s %6s %12s %10s\n", "deadline",
              "churn", "quant", "misses", "orphans", "joins", "leaves",
              "summary_pts", "cost_ratio");
  for (double deadline : churn_deadlines) {
    for (double churn : churn_rates) {
      for (int adaptive_on = 0; adaptive_on <= 1; ++adaptive_on) {
        char spec_buf[256];
        std::snprintf(spec_buf, sizeof spec_buf,
                      "%s,deadline=%g,churn=%.3f,quant=%s,seed=%llu",
                      kChurnBase, deadline, churn,
                      adaptive_on ? "adaptive" : "fixed",
                      static_cast<unsigned long long>(seed));
        const Coordinator coord(parse_scenario(spec_buf));
        ChurnCell cell;
        cell.deadline = deadline;
        cell.churn = churn;
        cell.adaptive = adaptive_on != 0;
        try {
          cell.report = coord.run(PipelineKind::kBklw, parts, cfg);
          cell.cost_ratio =
              kmeans_cost(data, cell.report.result.centers) / nr_cost;
        } catch (const invariant_error&) {
          // A churn draw can empty a round below the availability
          // floor; record the cell rather than killing the sweep.
          cell.feasible = false;
        }
        if (!cell.feasible) {
          std::printf("%-9g %-6.2f %-9s %8s\n", deadline, churn,
                      adaptive_on ? "adaptive" : "fixed", "infeasible");
          ccells.push_back(std::move(cell));
          continue;
        }
        std::printf("%-9g %-6.2f %-9s %8llu %8llu %6llu %6llu %12zu %10.4f\n",
                    deadline, churn, adaptive_on ? "adaptive" : "fixed",
                    static_cast<unsigned long long>(
                        cell.report.deadline_misses),
                    static_cast<unsigned long long>(
                        cell.report.orphaned_frames),
                    static_cast<unsigned long long>(cell.report.joins),
                    static_cast<unsigned long long>(cell.report.leaves),
                    cell.report.result.summary_points, cell.cost_ratio);
        ccells.push_back(std::move(cell));
      }
    }
  }
  }  // selected("churn_sweep")

  // --- fleet scale sweep: the star at fleet scale. Four fault-free
  // wifi fleets from 256 to 10240 sites, on small per-site shards (8
  // points × 8 dims per site) so the cost scales with the protocol, not
  // the data. The columns to watch: server_completion_seconds
  // (time-to-fresh-model — the server drains one frame per site),
  // uplink bits, and energy; queue_high_water gauges the event-queue
  // memory pressure the 10k-site runs exercise (the reservation the
  // simulator makes up front). No cost-ratio column: every cell is
  // fault-free, so the model quality question belongs to the fault
  // sweeps above.
  struct FleetCell {
    std::size_t sites = 0;
    SimReport report;
    bool feasible = true;
  };
  constexpr const char* kFleetBase = "radio=wifi,sps=1e-6,event-log=off";
  const std::size_t fleet_sizes[] = {256, 1024, 4096, 10240};
  std::vector<FleetCell> fcells;
  if (selected("fleet_scale_sweep")) {
  std::printf("\nfleet scale sweep  scenario=wifi,fault-free pipeline=BKLW\n");
  std::printf("%-7s %14s %14s %13s %9s\n", "sites", "server_done_s",
              "completion_s", "uplink_bits", "queue_hw");
  char fleet_spec[160];
  std::snprintf(fleet_spec, sizeof fleet_spec, "%s,seed=%llu", kFleetBase,
                static_cast<unsigned long long>(seed));
  const Coordinator fleet_coord(parse_scenario(fleet_spec));
  for (const std::size_t fleet_sites : fleet_sizes) {
    // Fresh data per fleet size, deterministic in (seed, sites) only —
    // a --only run regenerates exactly what the full run saw.
    GaussianMixtureSpec fleet_spec;
    fleet_spec.n = 8 * fleet_sites;
    fleet_spec.dim = 8;
    fleet_spec.k = 2;
    Rng fleet_data_rng = make_rng(seed, 0xf1ee70000ULL + fleet_sites);
    const Dataset fleet_data = make_gaussian_mixture(fleet_spec, fleet_data_rng);
    Rng fleet_part_rng = make_rng(seed, 0x9a870000ULL + fleet_sites);
    const std::vector<Dataset> fleet_parts =
        partition_random(fleet_data, fleet_sites, fleet_part_rng);
    PipelineConfig fleet_cfg;
    fleet_cfg.k = 2;
    fleet_cfg.epsilon = 0.3;
    fleet_cfg.seed = seed;
    fleet_cfg.coreset_size = 2 * fleet_sites;
    fleet_cfg.pca_dim = 4;
    FleetCell cell;
    cell.sites = fleet_sites;
    try {
      cell.report =
          fleet_coord.run(PipelineKind::kBklw, fleet_parts, fleet_cfg);
    } catch (const invariant_error&) {
      cell.feasible = false;
    }
    if (!cell.feasible) {
      std::printf("%-7zu %14s\n", fleet_sites, "infeasible");
      fcells.push_back(std::move(cell));
      continue;
    }
    std::printf("%-7zu %14.4f %14.4f %13llu %9llu\n", fleet_sites,
                cell.report.server_completion_seconds,
                cell.report.completion_seconds,
                static_cast<unsigned long long>(cell.report.result.uplink.bits),
                static_cast<unsigned long long>(cell.report.queue_high_water));
    fcells.push_back(std::move(cell));
  }
  }  // selected("fleet_scale_sweep")

  // --- attribution: the causal-replay audit over the pipeline grid.
  // Every (slow × on/off) cell of the timing sweep is re-run with its
  // own flight recorder attached, the
  // recorded server-clock op stream is replayed (src/obs/attribution),
  // and the cell reports whether the replayed critical path reproduces
  // the run's server_critical_path_seconds BIT FOR BIT (`cp_match`) —
  // plus where the server's completion time went, per blame category.
  // Each cell builds its own Coordinator and Recorder, so the section
  // is bitwise independent of which other sections ran (the splice
  // contract), and recording never changes a reported number (the
  // recorder contract) — the runs here ARE the pipeline_sweep runs,
  // re-observed.
  struct AttrCell {
    std::size_t slow_sites = 0;
    bool on = false;
    bool feasible = true;
    bool cp_match = false;
    RunAttribution attribution;
    SimReport report;
  };
  constexpr const char* kAttrBase =
      "radio=wifi,sps=1e-4,deadline=3,retry=giveup,event-log=off";
  std::vector<AttrCell> acells;
  if (selected("attribution")) {
  std::printf("\nattribution  scenario=wifi+2kbps-stragglers,deadline=3 "
              "pipeline=BKLW\n");
  std::printf("%-6s %-9s %9s %12s %14s %12s %12s %12s\n", "slow",
              "pipeline", "cp_match", "cp_s", "server_done_s", "site_cmp_s",
              "airtime_s", "dl_wait_s");
  for (std::size_t slow = 0; slow <= 2; ++slow) {
    for (int pipeline_on = 0; pipeline_on <= 1; ++pipeline_on) {
      std::string spec = kAttrBase;
      for (std::size_t j = 0; j < slow; ++j) {
        spec += ",site" + std::to_string(j) + ".bandwidth=2000";
      }
      spec += std::string(",pipeline=") + (pipeline_on ? "on" : "off");
      spec += ",seed=" + std::to_string(seed);
      const Coordinator coord(parse_scenario(spec));
      AttrCell cell;
      cell.slow_sites = slow;
      cell.on = pipeline_on != 0;
      Recorder cell_recorder;
      PipelineConfig attr_cfg = cfg;
      attr_cfg.recorder = &cell_recorder;
      try {
        cell.report = coord.run(PipelineKind::kBklw, parts, attr_cfg);
      } catch (const invariant_error&) {
        cell.feasible = false;
      }
      if (!cell.feasible) {
        std::printf("%-6zu %-9s %9s\n", slow, pipeline_on ? "on" : "off",
                    "infeasible");
        acells.push_back(std::move(cell));
        continue;
      }
      cell.attribution = attribute_run(cell_recorder);
      cell.cp_match = cell.attribution.valid &&
                      cell.attribution.critical_path_s ==
                          cell.report.server_critical_path_seconds;
      const double* blame = cell.attribution.blame_total;
      std::printf(
          "%-6zu %-9s %9s %12.4f %14.4f %12.4f %12.4f %12.4f\n", slow,
          pipeline_on ? "on" : "off", cell.cp_match ? "yes" : "NO",
          cell.attribution.critical_path_s,
          cell.attribution.server_completion_s,
          blame[static_cast<std::size_t>(BlameCategory::kSiteCompute)],
          blame[static_cast<std::size_t>(BlameCategory::kUplinkAirtime)],
          blame[static_cast<std::size_t>(BlameCategory::kDeadlineWait)]);
      acells.push_back(std::move(cell));
    }
  }
  }  // selected("attribution")

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"sim_scenarios\",\n");
    bench::write_provenance(f, meta, "  ");
    // Sections are emitted in a fixed order; each selected one opens
    // with ",\n" after the headerless nr_cost line, so a --only run
    // stays valid JSON and a full run is byte-stable section by
    // section (what tools/run_bench.sh's splice relies on).
    std::fprintf(f,
                 "  \"pipeline\": \"bklw\",\n"
                 "  \"n\": %zu, \"d\": %zu, \"k\": %zu, \"sources\": %zu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"nr_cost\": %.17g",
                 n, d, k, sources, static_cast<unsigned long long>(seed),
                 nr_cost);
    if (selected("cells")) {
    std::fprintf(f, ",\n  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const LinkStats& up = c.report.uplink_stats;
      std::fprintf(
          f,
          "    {\"radio\": \"%s\", \"fault_rate\": %.3f,\n"
          "     \"completion_seconds\": %.17g, \"energy_joules\": %.17g,\n"
          "     \"goodput_bits\": %llu, \"goodput_scalars\": %llu,\n"
          "     \"retransmit_bits\": %llu, \"attempts\": %llu, \"drops\": %llu,\n"
          "     \"uplink_airtime_seconds\": %.17g, \"events\": %zu,\n"
          "     \"cost_ratio_vs_nr\": %.17g}%s\n",
          c.radio.c_str(), c.fault, c.report.completion_seconds,
          c.report.energy_joules,
          static_cast<unsigned long long>(c.report.result.uplink.bits),
          static_cast<unsigned long long>(c.report.result.uplink.scalars),
          static_cast<unsigned long long>(up.retransmit_bits),
          static_cast<unsigned long long>(up.attempts),
          static_cast<unsigned long long>(up.drops), up.airtime_s,
          c.report.event_log.size(), c.cost_ratio,
          i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    }  // selected("cells")
    if (selected("deadline_sweep")) {
    std::fprintf(f,
                 ",\n"
                 "  \"deadline_sweep\": {\n"
                 "    \"scenario\": \"%s\",\n"
                 "    \"pipeline\": \"bklw\",\n"
                 "    \"cells\": [\n",
                 kSweepBase);
    for (std::size_t i = 0; i < dcells.size(); ++i) {
      const DeadlineCell& c = dcells[i];
      const LinkStats& up = c.report.uplink_stats;
      // JSON has no Infinity literal; the unbounded round is deadline 0.
      const double deadline_field = std::isfinite(c.deadline) ? c.deadline : 0.0;
      if (!c.feasible) {
        std::fprintf(f,
                     "      {\"deadline_seconds\": %.17g, \"unbounded\": false,"
                     " \"feasible\": false}%s\n",
                     deadline_field, i + 1 < dcells.size() ? "," : "");
        continue;
      }
      std::fprintf(
          f,
          "      {\"deadline_seconds\": %.17g, \"unbounded\": %s,\n"
          "       \"feasible\": true,\n"
          "       \"responders\": %llu, \"sources\": %zu,\n"
          "       \"deadline_misses\": %llu, \"rounds\": %llu,\n"
          "       \"completion_seconds\": %.17g,\n"
          "       \"server_completion_seconds\": %.17g,\n"
          "       \"energy_joules\": %.17g,\n"
          "       \"goodput_bits\": %llu, \"retransmit_bits\": %llu,\n"
          "       \"attempts\": %llu, \"drops\": %llu, \"expired\": %llu,\n"
          "       \"cost_ratio_vs_nr\": %.17g}%s\n",
          deadline_field, std::isfinite(c.deadline) ? "false" : "true",
          static_cast<unsigned long long>(sources - c.report.sites_dropped),
          sources,
          static_cast<unsigned long long>(c.report.deadline_misses),
          static_cast<unsigned long long>(c.report.rounds),
          c.report.completion_seconds, c.report.server_completion_seconds,
          c.report.energy_joules,
          static_cast<unsigned long long>(c.report.result.uplink.bits),
          static_cast<unsigned long long>(up.retransmit_bits),
          static_cast<unsigned long long>(up.attempts),
          static_cast<unsigned long long>(up.drops),
          static_cast<unsigned long long>(up.expired),
          c.cost_ratio, i + 1 < dcells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }");
    }  // selected("deadline_sweep")
    if (selected("realloc_sweep")) {
    std::fprintf(f,
                 ",\n"
                 "  \"realloc_sweep\": {\n"
                 "    \"scenario\": \"%s\",\n"
                 "    \"pipeline\": \"bklw\",\n"
                 "    \"cells\": [\n",
                 kReallocBase);
    for (std::size_t i = 0; i < rcells.size(); ++i) {
      const ReallocCell& c = rcells[i];
      if (!c.feasible) {
        std::fprintf(f,
                     "      {\"fault_rate\": %.3f, \"realloc\": %s,"
                     " \"feasible\": false}%s\n",
                     c.fault, c.realloc ? "true" : "false",
                     i + 1 < rcells.size() ? "," : "");
        continue;
      }
      std::fprintf(
          f,
          "      {\"fault_rate\": %.3f, \"realloc\": %s, \"feasible\": true,\n"
          "       \"sites_with_misses\": %llu, \"sources\": %zu,\n"
          "       \"summary_points\": %zu, \"realloc_waves\": %llu,\n"
          "       \"deadline_misses\": %llu, \"rounds\": %llu,\n"
          "       \"completion_seconds\": %.17g,\n"
          "       \"server_completion_seconds\": %.17g,\n"
          "       \"uplink_bits\": %llu, \"retransmit_bits\": %llu,\n"
          "       \"cost_ratio_vs_nr\": %.17g}%s\n",
          c.fault, c.realloc ? "true" : "false",
          static_cast<unsigned long long>(c.report.sites_dropped),
          sources, c.report.result.summary_points,
          static_cast<unsigned long long>(c.report.realloc_waves),
          static_cast<unsigned long long>(c.report.deadline_misses),
          static_cast<unsigned long long>(c.report.rounds),
          c.report.completion_seconds, c.report.server_completion_seconds,
          static_cast<unsigned long long>(c.report.result.uplink.bits),
          static_cast<unsigned long long>(
              c.report.uplink_stats.retransmit_bits),
          c.cost_ratio, i + 1 < rcells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }");
    }  // selected("realloc_sweep")
    if (selected("pipeline_sweep")) {
    std::fprintf(f,
                 ",\n"
                 "  \"pipeline_sweep\": {\n"
                 "    \"scenario\": \"%s\",\n"
                 "    \"pipeline\": \"bklw\",\n"
                 "    \"straggler_bandwidth_bps\": 2000,\n"
                 "    \"cells\": [\n",
                 kPipelineBase);
    for (std::size_t i = 0; i < pcells.size(); ++i) {
      const PipelineCell& c = pcells[i];
      if (!c.feasible) {
        std::fprintf(f,
                     "      {\"slow_sites\": %zu, \"pipelined\": %s,"
                     " \"feasible\": false}%s\n",
                     c.slow_sites, c.pipelined ? "true" : "false",
                     i + 1 < pcells.size() ? "," : "");
        continue;
      }
      std::fprintf(
          f,
          "      {\"slow_sites\": %zu, \"pipelined\": %s, \"feasible\": true,\n"
          "       \"server_completion_seconds\": %.17g,\n"
          "       \"server_critical_path_seconds\": %.17g,\n"
          "       \"completion_seconds\": %.17g,\n"
          "       \"energy_joules\": %.17g,\n"
          "       \"deadline_misses\": %llu, \"sites_dropped\": %llu,\n"
          "       \"rounds\": %llu,\n"
          "       \"cost_ratio_vs_nr\": %.17g}%s\n",
          c.slow_sites, c.pipelined ? "true" : "false",
          c.report.server_completion_seconds,
          c.report.server_critical_path_seconds, c.report.completion_seconds,
          c.report.energy_joules,
          static_cast<unsigned long long>(c.report.deadline_misses),
          static_cast<unsigned long long>(c.report.sites_dropped),
          static_cast<unsigned long long>(c.report.rounds),
          c.cost_ratio, i + 1 < pcells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }");
    }  // selected("pipeline_sweep")
    if (selected("churn_sweep")) {
    std::fprintf(f,
                 ",\n"
                 "  \"churn_sweep\": {\n"
                 "    \"scenario\": \"%s\",\n"
                 "    \"pipeline\": \"bklw\",\n"
                 "    \"trace_bandwidth_bps\": 8000,\n"
                 "    \"cells\": [\n",
                 kChurnBase);
    for (std::size_t i = 0; i < ccells.size(); ++i) {
      const ChurnCell& c = ccells[i];
      if (!c.feasible) {
        std::fprintf(f,
                     "      {\"deadline_seconds\": %.17g, \"churn_rate\": %.3f,"
                     " \"adaptive_quant\": %s, \"feasible\": false}%s\n",
                     c.deadline, c.churn, c.adaptive ? "true" : "false",
                     i + 1 < ccells.size() ? "," : "");
        continue;
      }
      std::fprintf(
          f,
          "      {\"deadline_seconds\": %.17g, \"churn_rate\": %.3f,\n"
          "       \"adaptive_quant\": %s, \"feasible\": true,\n"
          "       \"deadline_misses\": %llu, \"orphaned_frames\": %llu,\n"
          "       \"joins\": %llu, \"leaves\": %llu,\n"
          "       \"summary_points\": %zu, \"sites_dropped\": %llu,\n"
          "       \"rounds\": %llu, \"uplink_bits\": %llu,\n"
          "       \"completion_seconds\": %.17g,\n"
          "       \"server_completion_seconds\": %.17g,\n"
          "       \"energy_joules\": %.17g,\n"
          "       \"cost_ratio_vs_nr\": %.17g}%s\n",
          c.deadline, c.churn, c.adaptive ? "true" : "false",
          static_cast<unsigned long long>(c.report.deadline_misses),
          static_cast<unsigned long long>(c.report.orphaned_frames),
          static_cast<unsigned long long>(c.report.joins),
          static_cast<unsigned long long>(c.report.leaves),
          c.report.result.summary_points,
          static_cast<unsigned long long>(c.report.sites_dropped),
          static_cast<unsigned long long>(c.report.rounds),
          static_cast<unsigned long long>(c.report.result.uplink.bits),
          c.report.completion_seconds, c.report.server_completion_seconds,
          c.report.energy_joules, c.cost_ratio,
          i + 1 < ccells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }");
    }  // selected("churn_sweep")
    if (selected("fleet_scale_sweep")) {
    std::fprintf(f,
                 ",\n"
                 "  \"fleet_scale_sweep\": {\n"
                 "    \"scenario\": \"%s\",\n"
                 "    \"pipeline\": \"bklw\",\n"
                 "    \"per_site_points\": 8, \"dim\": 8, \"k\": 2,\n"
                 "    \"cells\": [\n",
                 kFleetBase);
    for (std::size_t i = 0; i < fcells.size(); ++i) {
      const FleetCell& c = fcells[i];
      if (!c.feasible) {
        std::fprintf(f, "      {\"sites\": %zu, \"feasible\": false}%s\n",
                     c.sites, i + 1 < fcells.size() ? "," : "");
        continue;
      }
      std::fprintf(
          f,
          "      {\"sites\": %zu, \"feasible\": true,\n"
          "       \"server_completion_seconds\": %.17g,\n"
          "       \"completion_seconds\": %.17g,\n"
          "       \"uplink_bits\": %llu,\n"
          "       \"queue_high_water\": %llu,\n"
          "       \"summary_points\": %zu, \"rounds\": %llu,\n"
          "       \"energy_joules\": %.17g}%s\n",
          c.sites, c.report.server_completion_seconds,
          c.report.completion_seconds,
          static_cast<unsigned long long>(c.report.result.uplink.bits),
          static_cast<unsigned long long>(c.report.queue_high_water),
          c.report.result.summary_points,
          static_cast<unsigned long long>(c.report.rounds),
          c.report.energy_joules, i + 1 < fcells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }");
    }  // selected("fleet_scale_sweep")
    if (selected("attribution")) {
    std::fprintf(f,
                 ",\n"
                 "  \"attribution\": {\n"
                 "    \"scenario\": \"%s\",\n"
                 "    \"pipeline\": \"bklw\",\n"
                 "    \"straggler_bandwidth_bps\": 2000,\n"
                 "    \"knob\": \"pipeline\",\n"
                 "    \"cells\": [\n",
                 kAttrBase);
    for (std::size_t i = 0; i < acells.size(); ++i) {
      const AttrCell& c = acells[i];
      if (!c.feasible) {
        std::fprintf(f,
                     "      {\"slow_sites\": %zu, \"on\": %s,"
                     " \"feasible\": false}%s\n",
                     c.slow_sites, c.on ? "true" : "false",
                     i + 1 < acells.size() ? "," : "");
        continue;
      }
      std::fprintf(
          f,
          "      {\"slow_sites\": %zu, \"on\": %s,\n"
          "       \"feasible\": true, \"critical_path_matches\": %s,\n"
          "       \"critical_path_seconds\": %.17g,\n"
          "       \"reported_server_critical_path_seconds\": %.17g,\n"
          "       \"server_completion_seconds\": %.17g,\n"
          "       \"blame\": {",
          c.slow_sites, c.on ? "true" : "false",
          c.cp_match ? "true" : "false", c.attribution.critical_path_s,
          c.report.server_critical_path_seconds,
          c.attribution.server_completion_s);
      for (std::size_t b = 0; b < kBlameCategoryCount; ++b) {
        std::fprintf(f, "%s\"%s\": %.17g", b == 0 ? "" : ", ",
                     blame_category_name(static_cast<BlameCategory>(b)),
                     c.attribution.blame_total[b]);
      }
      std::fprintf(f, "}}%s\n", i + 1 < acells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }");
    }  // selected("attribution")
    std::fprintf(f, "\n}\n");
    std::fclose(f);
  }

  install_recorder(nullptr);
  if (!trace_path.empty() && !write_chrome_trace(recorder, trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  if (!metrics_path.empty() &&
      !write_metrics_jsonl(recorder, metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  return 0;
}
