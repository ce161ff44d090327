// Tests for src/obs/attribution: the causal replay must reproduce the
// simulator's server clocks BIT FOR BIT — the attribution engine's one
// hard claim — across the bench's pipeline grid, at any thread count;
// the blame decomposition must account for
// every second of server completion; and the render/diff surfaces
// (`--explain`, `--explain-diff`) must emit well-formed, stable output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "data/generators.hpp"
#include "json_check.hpp"
#include "obs/attribution.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "sim/coordinator.hpp"
#include "sim/scenario.hpp"

namespace ekm {
namespace {

std::vector<Dataset> make_parts(std::size_t m, std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.k = 4;
  Rng rng = make_rng(seed, 0xdadaULL);
  const Dataset data = make_gaussian_mixture(spec, rng);
  Rng part_rng = make_rng(seed, 0x9a87ULL);
  return partition_random(data, m, part_rng);
}

PipelineConfig base_config(std::uint64_t seed = 11) {
  PipelineConfig cfg;
  cfg.k = 3;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  cfg.coreset_size = 200;
  cfg.pca_dim = 8;
  return cfg;
}

// The bench's pipeline straggler shape (bench_sim_scenarios
// kPipelineBase): slow sites ride 2 kbps links into a 3-second give-up
// round.
std::string straggler_spec(std::size_t slow, bool pipeline,
                           std::uint64_t seed) {
  std::string spec = "radio=wifi,sps=1e-4,deadline=3,retry=giveup,event-log=off";
  for (std::size_t j = 0; j < slow; ++j) {
    spec += ",site" + std::to_string(j) + ".bandwidth=2000";
  }
  spec += std::string(",pipeline=") + (pipeline ? "on" : "off");
  spec += ",seed=" + std::to_string(seed);
  return spec;
}

double blame_sum(const double (&blame)[kBlameCategoryCount]) {
  double sum = 0.0;
  for (std::size_t c = 0; c < kBlameCategoryCount; ++c) sum += blame[c];
  return sum;
}

// The bit-exact claims are on the replayed clocks; the per-category
// sums re-associate the same additions, so they get an FP tolerance.
void expect_accounts_for_completion(const RunAttribution& a,
                                    const SimReport& report) {
  ASSERT_TRUE(a.valid);
  EXPECT_EQ(a.critical_path_s, report.server_critical_path_seconds);
  EXPECT_EQ(a.server_completion_s, report.server_completion_seconds);
  EXPECT_NEAR(blame_sum(a.blame_total), report.server_completion_seconds,
              1e-9 * (1.0 + report.server_completion_seconds));
  double rounds_sum = 0.0;
  for (const RoundBlame& r : a.rounds) rounds_sum += blame_sum(r.blame);
  EXPECT_NEAR(rounds_sum, report.server_completion_seconds,
              1e-9 * (1.0 + report.server_completion_seconds));
}

TEST(Attribution, ReplaysCriticalPathBitForBitAcrossSweepGrids) {
  // Every cell of the bench's pipeline_sweep grid: the replayed
  // longest path must equal server_critical_path_seconds exactly — not
  // approximately — and the blame categories must sum to server
  // completion.
  const auto parts = make_parts(8, 1200, 16, 7);
  for (std::size_t slow = 0; slow <= 2; ++slow) {
    for (int on = 0; on <= 1; ++on) {
      const Coordinator coord(parse_scenario(straggler_spec(slow, on != 0, 7)));
      PipelineConfig cfg = base_config(7);
      Recorder rec;
      cfg.recorder = &rec;
      const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
      const RunAttribution a = attribute_run(rec);
      SCOPED_TRACE(std::string(on ? "pipeline=on" : "pipeline=off") +
                   " slow=" + std::to_string(slow));
      expect_accounts_for_completion(a, report);
    }
  }
}

TEST(Attribution, IsBitwiseDeterministicAcrossThreadCounts) {
  // The whole report — replayed clocks, blame, actor rollups, slack
  // histograms — must be byte-identical at any EKM_THREADS: everything
  // it reads lives on the virtual clock.
  const auto parts = make_parts(8, 1200, 16, 7);
  const Coordinator coord(
      parse_scenario(straggler_spec(2, true, 7)));

  std::string rendered[2];
  int i = 0;
  for (const int threads : {1, 8}) {
    set_parallel_threads(threads);
    PipelineConfig cfg = base_config(7);
    Recorder rec;
    cfg.recorder = &rec;
    const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
    rendered[i++] = render_explain_json(
        attribute_run(rec), report.server_critical_path_seconds);
  }
  set_parallel_threads(0);
  EXPECT_EQ(rendered[0], rendered[1]);
}

TEST(Attribution, RecordingForAttributionIsBitwiseNeutral) {
  // The attribution capture (server ops, frame causal timelines, flows)
  // rides the same recorder contract as every other obs producer: a
  // pipelined fleet with one straggling site and the recorder attached
  // must match the bare run bit for bit on everything the run reports.
  const auto parts = make_parts(12, 1200, 16, 5);
  const Coordinator coord(parse_scenario(
      "radio=wifi,deadline=3,retry=giveup,site0.bandwidth=2000,pipeline=on,"
      "seed=5"));
  PipelineConfig cfg = base_config(5);

  const SimReport plain = coord.run(PipelineKind::kBklw, parts, cfg);
  Recorder rec;
  cfg.recorder = &rec;
  const SimReport recorded = coord.run(PipelineKind::kBklw, parts, cfg);

  ASSERT_EQ(plain.result.centers.rows(), recorded.result.centers.rows());
  for (std::size_t r = 0; r < plain.result.centers.rows(); ++r) {
    const auto ra = plain.result.centers.row(r);
    const auto rb = recorded.result.centers.row(r);
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j], rb[j]) << "center " << r << "," << j;
    }
  }
  EXPECT_EQ(plain.result.uplink.bits, recorded.result.uplink.bits);
  EXPECT_EQ(plain.energy_joules, recorded.energy_joules);
  EXPECT_EQ(plain.completion_seconds, recorded.completion_seconds);
  EXPECT_EQ(plain.server_completion_seconds,
            recorded.server_completion_seconds);
  EXPECT_EQ(plain.server_critical_path_seconds,
            recorded.server_critical_path_seconds);
  ASSERT_EQ(plain.event_log.size(), recorded.event_log.size());
  for (std::size_t i = 0; i < plain.event_log.size(); ++i) {
    EXPECT_EQ(plain.event_log[i], recorded.event_log[i]) << "event " << i;
  }
  // And the capture actually happened.
  EXPECT_FALSE(rec.server_ops().empty());
  EXPECT_FALSE(rec.frame_causals().empty());
  // The critical path routes through consumed uplink arrivals; on this
  // straggler scenario at least one hop must be one.
  const RunAttribution a = attribute_run(rec);
  expect_accounts_for_completion(a, recorded);
  bool saw_uplink_hop = false;
  for (const CriticalHop& hop : a.hops) {
    EXPECT_GE(hop.cp_after_s, hop.cp_before_s);
    if (hop.kind == ServerOpKind::kUplinkArrival) saw_uplink_hop = true;
  }
  EXPECT_TRUE(saw_uplink_hop);
}

TEST(Attribution, SegmentsMultiRunRecordersPerRun) {
  // One Recorder across two runs (the bench sweeps' shape): each run
  // segment must attribute against its own run's clocks, and the
  // concatenation of per-segment rounds must align with the recorder's
  // snapshot stream — the invariant the metrics exporter's JSONL
  // annotation rides on.
  const auto parts = make_parts(8, 1200, 16, 7);
  PipelineConfig cfg = base_config(7);
  Recorder rec;
  cfg.recorder = &rec;

  const Coordinator slow_run(
      parse_scenario(straggler_spec(2, false, 7)));
  const Coordinator fast_run(
      parse_scenario(straggler_spec(0, true, 7)));
  const SimReport first = slow_run.run(PipelineKind::kBklw, parts, cfg);
  const SimReport second = fast_run.run(PipelineKind::kBklw, parts, cfg);

  const std::vector<RunAttribution> runs = attribute_all_runs(rec);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].critical_path_s, first.server_critical_path_seconds);
  EXPECT_EQ(runs[0].server_completion_s, first.server_completion_seconds);
  EXPECT_EQ(runs[1].critical_path_s, second.server_critical_path_seconds);
  EXPECT_EQ(runs[1].server_completion_s, second.server_completion_seconds);
  EXPECT_EQ(runs[0].rounds.size() + runs[1].rounds.size(),
            rec.rounds().size());
  // attribute_run on a shared recorder answers for the LAST run.
  const RunAttribution last = attribute_run(rec);
  EXPECT_EQ(last.critical_path_s, second.server_critical_path_seconds);
}

TEST(Attribution, ExplainRenderersAreWellFormed) {
  const auto parts = make_parts(8, 1200, 16, 7);
  const Coordinator coord(
      parse_scenario(straggler_spec(2, true, 7)));
  PipelineConfig cfg = base_config(7);
  Recorder rec;
  cfg.recorder = &rec;
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
  const RunAttribution a = attribute_run(rec);

  // JSON: one single line (the CLI prints it as the last stdout line so
  // `tail -1 | python3 -m json.tool` works), well-formed, and carrying
  // the bitwise verdict.
  const std::string json =
      render_explain_json(a, report.server_critical_path_seconds);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_TRUE(test::JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"matches_reported\": true"), std::string::npos);
  EXPECT_NE(json.find("\"slack_histogram\""), std::string::npos);

  // Text: the blame table names every category and ranks actors.
  const std::string text = render_explain_text(a);
  for (std::size_t c = 0; c < kBlameCategoryCount; ++c) {
    EXPECT_NE(
        text.find(blame_category_name(static_cast<BlameCategory>(c))),
        std::string::npos)
        << blame_category_name(static_cast<BlameCategory>(c));
  }
  EXPECT_NE(text.find("tightest-slack actors"), std::string::npos);
  EXPECT_NE(text.find("slack histogram"), std::string::npos);

  // Per-round attribution members are what the metrics exporter
  // splices into its JSONL lines — each must be a valid JSON object.
  for (const RoundBlame& round : a.rounds) {
    const std::string member = render_attribution_member(round);
    EXPECT_TRUE(test::JsonChecker::valid(member)) << member;
  }
}

TEST(Attribution, DiffEngineFlagsRegressionsAndRejectsGarbage) {
  // End-to-end over the real artifact: two --metrics-out files from a
  // fast and a slow run of the same shape. B slower than A per category
  // → regression (exit 1); identical or faster → clean (exit 0);
  // unreadable / attribution-free files → unusable (exit 2).
  const auto parts = make_parts(8, 1200, 16, 7);
  PipelineConfig cfg = base_config(7);

  const std::string fast_path = "test_attr_fast.jsonl";
  const std::string slow_path = "test_attr_slow.jsonl";
  {
    Recorder rec;
    cfg.recorder = &rec;
    const Coordinator coord(
        parse_scenario(straggler_spec(2, true, 7)));
    (void)coord.run(PipelineKind::kBklw, parts, cfg);
    ASSERT_TRUE(write_metrics_jsonl(rec, fast_path));
  }
  {
    Recorder rec;
    cfg.recorder = &rec;
    const Coordinator coord(
        parse_scenario(straggler_spec(2, false, 7)));
    (void)coord.run(PipelineKind::kBklw, parts, cfg);
    ASSERT_TRUE(write_metrics_jsonl(rec, slow_path));
  }

  std::string report;
  // Turning pipelining off on the same straggler shape buys seconds of
  // deadline waiting the pipelined run never spends: a regression,
  // loudly.
  EXPECT_EQ(explain_diff_files(fast_path, slow_path, 0.10, 1e-3, report), 1);
  EXPECT_NE(report.find("REGRESSED"), std::string::npos) << report;
  EXPECT_NE(report.find("deadline_wait"), std::string::npos) << report;
  // Same file against itself: nothing moved.
  report.clear();
  EXPECT_EQ(explain_diff_files(fast_path, fast_path, 0.10, 1e-3, report), 0);
  // The improvement direction: pipelining shaves seconds off
  // deadline_wait while nudging small categories around (a frame that
  // no longer waits for the cutoff spends a visible fraction of a
  // second in compute/stall instead) — above a coarse absolute floor,
  // nothing regresses.
  report.clear();
  EXPECT_EQ(explain_diff_files(slow_path, fast_path, 0.10, 0.5, report), 0);
  // Garbage in: missing file, and a JSONL with no attribution members.
  report.clear();
  EXPECT_EQ(explain_diff_files("no_such_file.jsonl", fast_path, 0.10, 1e-3,
                               report),
            2);
  const std::string bare_path = "test_attr_bare.jsonl";
  {
    std::ofstream bare(bare_path);
    bare << "{\"round\": 1, \"round.uplink_bits\": 100}\n";
  }
  report.clear();
  EXPECT_EQ(explain_diff_files(fast_path, bare_path, 0.10, 1e-3, report), 2);

  std::remove(fast_path.c_str());
  std::remove(slow_path.c_str());
  std::remove(bare_path.c_str());
}

}  // namespace
}  // namespace ekm
