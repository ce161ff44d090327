// Tests for src/obs: the metrics registry's deterministic typed store,
// the recorder's per-round snapshot protocol, the exporters — and THE
// contract of the whole layer: recording is side-effect-free. A run
// with a recorder attached must be bitwise identical to the same run
// without one — centers, ledgers, energy, and the SimEvent log — at
// any EKM_THREADS, under churn, adaptive quantization, and cross-round
// pipelining all at once.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "data/generators.hpp"
#include "json_check.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
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

// The CI churn smoke's fleet shape: scheduled leave/join, stochastic
// churn, a trace-pinned site, adaptive quantization, pipelining —
// every recording call site fires at least once on this scenario.
constexpr const char* kBusyScenario =
    "deadline-fleet,churn=0.02,quant=adaptive,pipeline=on,"
    "site2.leave=9,site5.join=3,site0.trace=0:8000:0.05;20:2e6:0,seed=1";

void expect_bitwise_equal(const SimReport& a, const SimReport& b) {
  ASSERT_EQ(a.result.centers.rows(), b.result.centers.rows());
  ASSERT_EQ(a.result.centers.cols(), b.result.centers.cols());
  for (std::size_t r = 0; r < a.result.centers.rows(); ++r) {
    const auto ra = a.result.centers.row(r);
    const auto rb = b.result.centers.row(r);
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j], rb[j]) << "center " << r << "," << j;
    }
  }
  EXPECT_EQ(a.result.uplink.bits, b.result.uplink.bits);
  EXPECT_EQ(a.result.uplink.scalars, b.result.uplink.scalars);
  EXPECT_EQ(a.result.uplink.messages, b.result.uplink.messages);
  EXPECT_EQ(a.result.downlink.bits, b.result.downlink.bits);
  EXPECT_EQ(a.result.downlink.messages, b.result.downlink.messages);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.completion_seconds, b.completion_seconds);
  EXPECT_EQ(a.server_completion_seconds, b.server_completion_seconds);
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    EXPECT_EQ(a.event_log[i], b.event_log[i]) << "event " << i;
  }
}

TEST(Metrics, RegistryIsDeterministicAndTyped) {
  MetricsRegistry reg;
  const auto misses = reg.counter("round.misses");
  const auto energy = reg.gauge("fleet.energy");
  const auto widths = reg.histogram("quant.bits", {8.0, 16.0, 24.0});

  reg.add(misses, 3);
  reg.set(energy, 0.5);
  reg.observe(widths, 8.0);   // lands in the first bucket (<= 8)
  reg.observe(widths, 17.0);  // third bucket (<= 24)
  reg.observe(widths, 99.0);  // overflow

  EXPECT_EQ(reg.to_json(),
            "{\"round.misses\": 3, \"fleet.energy\": 0.5, "
            "\"quant.bits\": {\"buckets\": [8, 16, 24], "
            "\"counts\": [1, 0, 1, 1], \"sum\": 124, \"count\": 3}}");

  // Idempotent re-registration returns the same id; a kind change is a
  // registration bug and throws.
  EXPECT_EQ(reg.counter("round.misses"), misses);
  EXPECT_THROW((void)reg.gauge("round.misses"), precondition_error);
  EXPECT_THROW((void)reg.histogram("bad", {2.0, 1.0}), precondition_error);
  EXPECT_THROW(reg.add(energy, 1), precondition_error);
  EXPECT_THROW(reg.set(misses, 1.0), precondition_error);
  EXPECT_THROW(reg.observe(misses, 1.0), precondition_error);

  // reset_values clears values, not registrations — the serialized
  // shape (and therefore the JSONL column order) is stable.
  reg.reset_values();
  EXPECT_EQ(reg.to_json(),
            "{\"round.misses\": 0, \"fleet.energy\": 0, "
            "\"quant.bits\": {\"buckets\": [8, 16, 24], "
            "\"counts\": [0, 0, 0, 0], \"sum\": 0, \"count\": 0}}");
}

TEST(Obs, JsonEscapeHandlesQuotesBackslashesAndControls) {
  // The single escape helper every obs writer shares (json_util.hpp).
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape("\r\b\f"), "\\r\\b\\f");
  // Remaining C0 controls take the \u form; the high bit passes through
  // untouched (UTF-8 continuation bytes must survive verbatim).
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(Obs, ExportersEscapeHostileLabels) {
  // A span label or metric name carrying quotes, backslashes, and
  // control characters must come out of every writer as valid JSON —
  // the PR 7 writers each had their own partial policy (one skipped
  // escaping entirely); this is the regression fence for the shared
  // helper.
  const std::string evil = "say \"hi\"\\path\nnext\x02";

  Recorder rec;
  rec.record_span(0, evil, "kernel", 0.0, 1.0);
  const std::string trace_path = "test_obs_evil_trace.json";
  ASSERT_TRUE(write_chrome_trace(rec, trace_path));
  std::ifstream tf(trace_path);
  std::stringstream buf;
  buf << tf.rdbuf();
  const std::string t = buf.str();
  EXPECT_TRUE(test::JsonChecker::valid(t)) << t;
  EXPECT_NE(t.find("say \\\"hi\\\"\\\\path\\nnext\\u0002"), std::string::npos);
  std::remove(trace_path.c_str());

  MetricsRegistry reg;
  reg.add(reg.counter(evil), 1);
  const std::string j = reg.to_json();
  EXPECT_TRUE(test::JsonChecker::valid(j)) << j;
  EXPECT_NE(j.find("\\u0002"), std::string::npos);
}

TEST(Obs, RecorderSnapshotsDiffTotalsIntoRoundDeltas) {
  Recorder rec;
  rec.note_quant_width(0, 8, 24);   // narrowed
  rec.note_quant_width(1, 24, 24);  // full width

  RoundTotals t1;
  t1.rounds_opened = 1;
  t1.server_time_s = 2.0;
  t1.missed_frames = 2;
  t1.uplink_bits = 1000;
  t1.uplink_frames = 4;
  t1.energy_joules = 0.25;
  t1.per_uplink_missed = {1, 1, 0};  // sites 0 and 1 missed → 1 responder
  rec.snapshot_round(t1);

  ASSERT_EQ(rec.rounds().size(), 1u);
  EXPECT_EQ(rec.rounds()[0].round, 1u);
  const std::string& line = rec.rounds()[0].json_line;
  EXPECT_NE(line.find("\"round\": 1"), std::string::npos);
  EXPECT_NE(line.find("\"round.responders\": 1"), std::string::npos);
  EXPECT_NE(line.find("\"round.deadline_misses\": 2"), std::string::npos);
  EXPECT_NE(line.find("\"round.quant_frames_narrowed\": 1"),
            std::string::npos);

  // Round 2: counters carry the delta, gauges the new absolute value.
  RoundTotals t2 = t1;
  t2.rounds_opened = 2;
  t2.server_time_s = 5.0;
  t2.missed_frames = 3;
  t2.uplink_bits = 1600;
  t2.per_uplink_missed = {1, 2, 0};  // only site 1 missed anew
  rec.snapshot_round(t2);
  const std::string& line2 = rec.rounds()[1].json_line;
  EXPECT_NE(line2.find("\"round.responders\": 2"), std::string::npos);
  EXPECT_NE(line2.find("\"round.deadline_misses\": 1"), std::string::npos);
  EXPECT_NE(line2.find("\"round.uplink_bits\": 600"), std::string::npos);
  EXPECT_NE(line2.find("\"server.time_s\": 5"), std::string::npos);
  // The commit gauge is the last column (appended in PR order), so
  // existing JSONL consumers see their columns unmoved.
  const auto commit_at = line2.find("\"round.server_commit_seconds\": 5");
  ASSERT_NE(commit_at, std::string::npos);
  EXPECT_GT(commit_at, line2.find("\"sim.queue_high_water\""));

  // Snapshots must close rounds in order; a stale ordinal throws.
  EXPECT_THROW(rec.snapshot_round(t1), precondition_error);

  // begin_run() re-arms the baseline so the recorder can ride a second
  // run whose rounds restart at 1 (the bench sweeps).
  rec.begin_run();
  rec.snapshot_round(t1);
  ASSERT_EQ(rec.rounds().size(), 3u);
  EXPECT_EQ(rec.rounds()[2].round, 1u);
}

TEST(Obs, BeginRunReArmsDeltaBaselinesAcrossThreeRuns) {
  // One Recorder across three runs (a bench sweep's lifetime): every
  // begin_run must reset the cumulative→delta baseline, so a run's
  // first snapshot reports its own absolute totals as the round delta —
  // never the previous run's trailing totals leaking through as a
  // negative or inflated diff.
  Recorder rec;
  const std::uint64_t bits_per_run[] = {1000, 700, 1500};
  for (int run = 0; run < 3; ++run) {
    if (run > 0) rec.begin_run();
    RoundTotals t1;
    t1.rounds_opened = 1;
    t1.server_time_s = 2.0;
    t1.uplink_bits = bits_per_run[run];
    t1.uplink_frames = 2;
    t1.per_uplink_missed = {0, 0};
    rec.snapshot_round(t1);
    RoundTotals t2 = t1;
    t2.rounds_opened = 2;
    t2.server_time_s = 4.0;
    t2.uplink_bits = bits_per_run[run] + 300;
    rec.snapshot_round(t2);
  }
  ASSERT_EQ(rec.rounds().size(), 6u);
  for (int run = 0; run < 3; ++run) {
    const RoundSnapshot& first = rec.rounds()[2 * run];
    const RoundSnapshot& second = rec.rounds()[2 * run + 1];
    EXPECT_EQ(first.round, 1u) << "run " << run;
    EXPECT_EQ(second.round, 2u) << "run " << run;
    const std::string want_first =
        "\"round.uplink_bits\": " + std::to_string(bits_per_run[run]);
    EXPECT_NE(first.json_line.find(want_first), std::string::npos)
        << "run " << run << ": " << first.json_line;
    EXPECT_NE(second.json_line.find("\"round.uplink_bits\": 300"),
              std::string::npos)
        << "run " << run << ": " << second.json_line;
    EXPECT_TRUE(test::JsonChecker::valid(first.json_line));
    EXPECT_TRUE(test::JsonChecker::valid(second.json_line));
  }
}

TEST(Obs, RecordingIsBitwiseNeutralUnderChurnPipelineAndThreads) {
  const auto parts = make_parts(8, 1600, 16, 31);
  const Coordinator coord(parse_scenario(kBusyScenario));
  PipelineConfig cfg = base_config(31);

  set_parallel_threads(1);
  const SimReport plain = coord.run(PipelineKind::kBklw, parts, cfg);

  Recorder rec;
  cfg.recorder = &rec;
  install_recorder(&rec);
  const SimReport recorded = coord.run(PipelineKind::kBklw, parts, cfg);
  install_recorder(nullptr);

  // The recorder saw real traffic...
  EXPECT_FALSE(rec.spans().empty());
  EXPECT_FALSE(rec.events().empty());
  ASSERT_FALSE(rec.rounds().empty());
  // ...one snapshot per collection round, in order...
  EXPECT_EQ(rec.rounds().size(), recorded.rounds);
  for (std::size_t i = 0; i < rec.rounds().size(); ++i) {
    EXPECT_EQ(rec.rounds()[i].round, i + 1);
  }
  // ...the mirrored event stream is exactly the canonical log...
  ASSERT_EQ(rec.events().size(), recorded.event_log.size());
  // ...and nothing the run computed moved by a single bit.
  expect_bitwise_equal(plain, recorded);

  // Same contract across thread counts: the recorded totals (drawn on
  // the protocol thread) cannot see the pool size either.
  set_parallel_threads(8);
  Recorder rec8;
  cfg.recorder = &rec8;
  install_recorder(&rec8);
  const SimReport recorded8 = coord.run(PipelineKind::kBklw, parts, cfg);
  install_recorder(nullptr);
  set_parallel_threads(0);
  expect_bitwise_equal(plain, recorded8);
  ASSERT_EQ(rec8.rounds().size(), rec.rounds().size());
  for (std::size_t i = 0; i < rec.rounds().size(); ++i) {
    EXPECT_EQ(rec8.rounds()[i].json_line, rec.rounds()[i].json_line);
  }
}

TEST(Obs, ExportersWriteValidArtifacts) {
  const auto parts = make_parts(6, 1200, 16, 7);
  const Coordinator coord(parse_scenario(kBusyScenario));
  PipelineConfig cfg = base_config(7);
  Recorder rec;
  cfg.recorder = &rec;
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);

  const std::string trace_path = "test_obs_trace.json";
  const std::string metrics_path = "test_obs_metrics.jsonl";
  ASSERT_TRUE(write_chrome_trace(rec, trace_path));
  ASSERT_TRUE(write_metrics_jsonl(rec, metrics_path));

  // Trace: the Chrome JSON envelope with per-actor thread metadata and
  // at least one complete span per scheduler phase kind we know ran.
  std::ifstream tf(trace_path);
  std::stringstream trace;
  trace << tf.rdbuf();
  const std::string t = trace.str();
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.find("\"server\""), std::string::npos);
  EXPECT_NE(t.find("\"site 0\""), std::string::npos);
  EXPECT_NE(t.find("\"event queue\""), std::string::npos);
  EXPECT_NE(t.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(t.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_EQ(t.back(), '\n');

  // JSONL: one line per collection round, each a self-contained object.
  std::ifstream mf(metrics_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(mf, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    lines += 1;
  }
  EXPECT_EQ(lines, report.rounds);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());

  // Unwritable paths fail cleanly instead of crashing or half-writing.
  EXPECT_FALSE(write_chrome_trace(rec, "no-such-dir/x/trace.json"));
  EXPECT_FALSE(write_metrics_jsonl(rec, "no-such-dir/x/m.jsonl"));
}

TEST(Obs, ExportersEmitValidJsonOnChurnPipelineStragglerScenario) {
  // The heaviest export shape all at once — churn, cross-round
  // pipelining, a straggling site under a give-up deadline — and both
  // artifacts must still parse end to end (CI re-checks the same
  // property with python3 -m json.tool): the trace with its flow
  // arrows, counter tracks, and critical-path spans, the metrics JSONL
  // with an attribution member on every line.
  const auto parts = make_parts(12, 1200, 16, 5);
  const Coordinator coord(parse_scenario(
      "radio=wifi,deadline=3,retry=giveup,site0.bandwidth=2000,pipeline=on,"
      "churn=0.01,event-log=off,seed=5"));
  PipelineConfig cfg = base_config(5);
  Recorder rec;
  cfg.recorder = &rec;
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);

  const std::string trace_path = "test_obs_straggler_trace.json";
  const std::string metrics_path = "test_obs_straggler_metrics.jsonl";
  ASSERT_TRUE(write_chrome_trace(rec, trace_path));
  ASSERT_TRUE(write_metrics_jsonl(rec, metrics_path));

  std::ifstream tf(trace_path);
  std::stringstream trace;
  trace << tf.rdbuf();
  const std::string t = trace.str();
  ASSERT_TRUE(test::JsonChecker::valid(t));
  // Flow arrows (ph s/f pairs), the two counter tracks, and the
  // critical-path track all made it in.
  EXPECT_NE(t.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(t.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(t.find("\"sim.frames_in_flight\""), std::string::npos);
  EXPECT_NE(t.find("\"sim.queue_high_water\""), std::string::npos);
  EXPECT_NE(t.find("\"critical path\""), std::string::npos);
  EXPECT_NE(t.find("\"cp\": 1"), std::string::npos);
  EXPECT_NE(t.find("\"site 0\""), std::string::npos);

  std::ifstream mf(metrics_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(mf, line)) {
    EXPECT_TRUE(test::JsonChecker::valid(line)) << line;
    EXPECT_NE(line.find("\"attribution\""), std::string::npos) << line;
    lines += 1;
  }
  EXPECT_EQ(lines, report.rounds);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(Obs, WallSpanAddsItsWindowsToTheDeviceTotal) {
  Stopwatch device;
  {
    const WallSpan window(device);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  const double first = device.total_seconds();
  EXPECT_GT(first, 0.0);
  {
    const WallSpan window("labelled", &device);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(device.total_seconds(), first);
}

TEST(Obs, HostSpansRecordOnlyWhenInstalled) {
  // With one installed, a labelled span lands on the host track; an
  // unlabelled device window records nothing.
  Recorder rec;
  Stopwatch device;
  install_recorder(&rec);
  { const WallSpan span("unit"); }
  { const WallSpan window(device); }
  { const WallSpan span("scoped", &device); }
  install_recorder(nullptr);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].label, "unit");
  EXPECT_TRUE(rec.spans()[0].wall);
  EXPECT_EQ(rec.spans()[1].label, "scoped");
  EXPECT_EQ(rec.spans()[1].kind, "host");
  EXPECT_LE(rec.spans()[1].start_s, rec.spans()[1].finish_s);

  // Uninstalled again: no further spans accumulate.
  { const WallSpan span("after"); }
  EXPECT_EQ(rec.spans().size(), 2u);
}

// ---- the pipeline's stage spans ---------------------------------------

const std::vector<std::string>& stage_labels() {
  static const std::vector<std::string> labels = {
      "dr", "cr", "qt", "transport", "server_solve", "lift", "refine"};
  return labels;
}

// The labels of the recorded spans that are pipeline stages, in the
// order they closed (kernel spans are left out).
std::vector<std::string> recorded_stages(const Recorder& rec) {
  std::vector<std::string> out;
  for (const RecordedSpan& s : rec.spans()) {
    for (const std::string& label : stage_labels()) {
      if (s.label == label) out.push_back(label);
    }
  }
  return out;
}

PipelineConfig stage_config() {
  PipelineConfig cfg = base_config(17);
  cfg.coreset_size = 120;
  cfg.jl_dim = 12;
  cfg.pca_dim = 6;
  cfg.significant_bits = 16;
  cfg.refine_iters = 1;
  return cfg;
}

PipelineResult run_kind(PipelineKind kind, const std::vector<Dataset>& parts,
                        const PipelineConfig& cfg) {
  return parts.size() > 1 ? run_distributed_pipeline(kind, parts, cfg)
                          : run_pipeline(kind, parts[0], cfg);
}

void expect_same_result(const PipelineResult& a, const PipelineResult& b) {
  ASSERT_EQ(a.centers.rows(), b.centers.rows());
  ASSERT_EQ(a.centers.cols(), b.centers.cols());
  for (std::size_t i = 0; i < a.centers.flat().size(); ++i) {
    EXPECT_EQ(a.centers.flat()[i], b.centers.flat()[i]) << i;
  }
  EXPECT_EQ(a.uplink.bits, b.uplink.bits);
  EXPECT_EQ(a.uplink.scalars, b.uplink.scalars);
  EXPECT_EQ(a.uplink.messages, b.uplink.messages);
  EXPECT_EQ(a.downlink.bits, b.downlink.bits);
  EXPECT_EQ(a.downlink.messages, b.downlink.messages);
  EXPECT_EQ(a.summary_points, b.summary_points);
}

struct StageCase {
  PipelineKind kind;
  bool several_sources;
  std::vector<std::string> stages;
};

// Every kind runs the paper's stage list, [JL₁] → CR → [JL₂] → QT at the
// sources, then decode → solve → lift → [refine] at the server, and each
// stage records one span in that order (NR's per-source QT closes inside
// its round's transport span). Recording moves no bit of the result.
TEST(Obs, EveryKindRecordsItsStagesInOrderAndStaysBitwiseNeutral) {
  const std::vector<Dataset> parts = make_parts(3, 900, 24, 41);
  const std::vector<Dataset> one = {concatenate(parts)};
  const PipelineConfig cfg = stage_config();
  const std::vector<StageCase> cases = {
      {PipelineKind::kNoReduction, false,
       {"qt", "transport", "server_solve", "lift"}},
      {PipelineKind::kFss, false,
       {"cr", "qt", "transport", "server_solve", "lift", "refine"}},
      {PipelineKind::kJlFss, false,
       {"dr", "cr", "qt", "transport", "server_solve", "lift", "refine"}},
      {PipelineKind::kFssJl, false,
       {"cr", "dr", "qt", "transport", "server_solve", "lift", "refine"}},
      {PipelineKind::kJlFssJl, false,
       {"dr", "cr", "dr", "qt", "transport", "server_solve", "lift",
        "refine"}},
      {PipelineKind::kNoReduction, true,
       {"qt", "qt", "qt", "transport", "server_solve", "lift"}},
      {PipelineKind::kBklw, true,
       {"cr", "qt", "server_solve", "lift", "refine"}},
      {PipelineKind::kJlBklw, true,
       {"dr", "cr", "qt", "server_solve", "lift", "refine"}},
  };
  for (const StageCase& c : cases) {
    SCOPED_TRACE(pipeline_name(c.kind));
    const std::vector<Dataset>& input = c.several_sources ? parts : one;
    const PipelineResult plain = run_kind(c.kind, input, cfg);
    Recorder rec;
    install_recorder(&rec);
    const PipelineResult recorded = run_kind(c.kind, input, cfg);
    install_recorder(nullptr);
    EXPECT_EQ(recorded_stages(rec), c.stages);
    expect_same_result(plain, recorded);

    // Without a recorder nothing is recorded.
    const std::size_t spans = rec.spans().size();
    (void)run_kind(c.kind, input, cfg);
    EXPECT_EQ(rec.spans().size(), spans);
  }

  // A stage that does not run records nothing: without QT and refine,
  // Algorithm 3 records its two maps around CR, then the server side.
  PipelineConfig bare = cfg;
  bare.significant_bits = 52;
  bare.refine_iters = 0;
  Recorder rec;
  install_recorder(&rec);
  (void)run_pipeline(PipelineKind::kJlFssJl, one[0], bare);
  install_recorder(nullptr);
  EXPECT_EQ(recorded_stages(rec),
            (std::vector<std::string>{"dr", "cr", "dr", "transport",
                                      "server_solve", "lift"}));
}

// A single source's device time is exactly its device stages' windows:
// the maps, the coreset, the quantizer and the refine.
TEST(Obs, SingleSourceDeviceTimeIsTheSumOfItsDeviceStageSpans) {
  const std::vector<Dataset> parts = make_parts(1, 900, 24, 43);
  const PipelineConfig cfg = stage_config();
  for (PipelineKind kind :
       {PipelineKind::kNoReduction, PipelineKind::kFss, PipelineKind::kJlFss,
        PipelineKind::kFssJl, PipelineKind::kJlFssJl}) {
    SCOPED_TRACE(pipeline_name(kind));
    Recorder rec;
    install_recorder(&rec);
    const PipelineResult res = run_pipeline(kind, parts[0], cfg);
    install_recorder(nullptr);
    double device = 0.0;
    std::size_t windows = 0;
    for (const RecordedSpan& s : rec.spans()) {
      if (s.label == "dr" || s.label == "cr" || s.label == "qt" ||
          s.label == "refine") {
        device += s.finish_s - s.start_s;
        windows += 1;
      }
    }
    EXPECT_GE(windows, 1u);
    EXPECT_GT(res.device_seconds, 0.0);
    EXPECT_NEAR(res.device_seconds, device, 1e-9);
  }
}

}  // namespace
}  // namespace ekm
