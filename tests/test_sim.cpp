// Tests for src/sim: the discrete-event runtime's contract with the
// synchronous Network (fault-free ledger/center parity), the
// determinism rules of docs/simulation.md (same seed + any EKM_THREADS
// → identical event order and metrics), fault accounting
// (drop/retransmit billing) and scenario parsing.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "data/generators.hpp"
#include "distributed/bklw.hpp"
#include "net/summary_codec.hpp"
#include "obs/span.hpp"
#include "sim/coordinator.hpp"
#include "sim/event_queue.hpp"
#include "sim/round_policy.hpp"
#include "sim/scenario.hpp"
#include "sim/sim_network.hpp"
#include "swapped_frame.hpp"

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

TEST(EventQueue, PopsByTimeThenPushOrder) {
  EventQueue q;
  q.push({2.0, 0, SimEventType::kDeliver, 0, true, 0, 10});
  q.push({1.0, 0, SimEventType::kSendStart, 1, true, 0, 10});
  q.push({1.0, 0, SimEventType::kDrop, 2, false, 0, 10});
  ASSERT_EQ(q.size(), 3u);
  // Time order first; the two t=1 events tie-break by push order.
  SimEvent a = q.pop();
  EXPECT_EQ(a.site, 1u);
  EXPECT_EQ(a.seq, 1u);
  SimEvent b = q.pop();
  EXPECT_EQ(b.site, 2u);
  SimEvent c = q.pop();
  EXPECT_EQ(c.site, 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW((void)q.pop(), precondition_error);
}

TEST(Scenario, PresetsExistAndParse) {
  for (const std::string& name : sim_scenario_names()) {
    const auto preset = sim_scenario_preset(name);
    ASSERT_TRUE(preset.has_value()) << name;
    EXPECT_EQ(preset->name, name);
    const SimScenario parsed = parse_scenario(name);
    EXPECT_EQ(parsed.name, name);
  }
  EXPECT_FALSE(sim_scenario_preset("no-such-scenario").has_value());
  // The error for an unknown name lists the known ones.
  try {
    (void)parse_scenario("no-such-scenario");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown scenario 'no-such-scenario' (expected "
                        "ideal|wifi-office|"),
              std::string::npos)
        << what;
    for (const std::string& name : sim_scenario_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(Scenario, ParserRejectsMalformedValues) {
  // Trailing garbage and empty values are typos, not numbers; the
  // error names the offending key.
  EXPECT_THROW((void)parse_scenario("loss=0.1x"), precondition_error);
  EXPECT_THROW((void)parse_scenario("loss="), precondition_error);
  EXPECT_THROW((void)parse_scenario("seed="), precondition_error);
  EXPECT_THROW((void)parse_scenario("seed=12z"), precondition_error);
  // Integers must be integers — retries=2.5 used to truncate silently.
  EXPECT_THROW((void)parse_scenario("retries=2.5"), precondition_error);
  EXPECT_THROW((void)parse_scenario("min-responders=1.5"), precondition_error);
  EXPECT_THROW((void)parse_scenario("min-responders=0"), precondition_error);
  // Range checks, including the non-finite values strtod accepts.
  EXPECT_THROW((void)parse_scenario("deadline=0"), precondition_error);
  EXPECT_THROW((void)parse_scenario("deadline=-1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("deadline=nan"), precondition_error);
  EXPECT_THROW((void)parse_scenario("outage=inf"), precondition_error);
  EXPECT_THROW((void)parse_scenario("sps=nan"), precondition_error);
  try {
    (void)parse_scenario("lora-field,loss=0.1x");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("'loss'"), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, ParserRejectsAggregationTreeKeysAsUnknown) {
  // Star is the only aggregation topology: the keys of the removed
  // two-level aggregation tree are unknown keys like any typo, and the
  // error names the key.
  const std::string tokens[] = {"topology=tree", "branching=4",
                                "level-split=0.5", "gateway0.loss=0.1"};
  for (const std::string& token : tokens) {
    const std::string key = token.substr(0, token.find('='));
    try {
      (void)parse_scenario("ideal," + token);
      FAIL() << "expected precondition_error for " << token;
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown scenario key '" + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Scenario, ParserHandlesDeadlineAndSiteOverrides) {
  const SimScenario s = parse_scenario(
      "radio=wifi,deadline=2.5,min-responders=3,"
      "site1.radio=lora,site1.loss=0.5,site0.speed=0.25,"
      "site0.bandwidth=1000,site2.dropout=0.75");
  EXPECT_TRUE(s.round.active());
  EXPECT_DOUBLE_EQ(s.round.deadline_s, 2.5);
  EXPECT_EQ(s.round.min_responders, 3u);
  ASSERT_EQ(s.site_overrides.size(), 5u);
  EXPECT_EQ(s.site_overrides[0].site, 1u);
  ASSERT_TRUE(s.site_overrides[0].radio.has_value());
  EXPECT_EQ(s.site_overrides[0].radio->name, "LoRa SF7");
  EXPECT_EQ(s.site_overrides[2].site, 0u);
  EXPECT_DOUBLE_EQ(s.site_overrides[2].compute_speed.value(), 0.25);

  // "inf" explicitly turns deadline rounds back off.
  EXPECT_FALSE(parse_scenario("deadline-fleet,deadline=inf").round.active());
  EXPECT_TRUE(parse_scenario("deadline-fleet").round.active());
  // hetero-mesh carries a mixed radio cycle; an explicit fleet-wide
  // radio= override replaces it instead of being silently ignored.
  EXPECT_EQ(parse_scenario("hetero-mesh").radio_cycle.size(), 3u);
  const SimScenario homog = parse_scenario("hetero-mesh,radio=5g");
  EXPECT_TRUE(homog.radio_cycle.empty());
  EXPECT_EQ(homog.radio.name, "5G sub-6");

  // Malformed per-site keys fail loudly.
  EXPECT_THROW((void)parse_scenario("site1.frob=1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("sitex.loss=0.1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("site1.loss="), precondition_error);
  EXPECT_THROW((void)parse_scenario("site1.speed=0"), precondition_error);
  EXPECT_THROW((void)parse_scenario("site.loss=0.1"), precondition_error);
}

TEST(Scenario, SiteOverridesShapeTheFleet) {
  const SimScenario s = parse_scenario(
      "radio=wifi,loss=0.1,site1.radio=lora,site1.loss=0.5,"
      "site0.speed=0.25,site0.bandwidth=1000");
  const std::vector<Site> fleet = make_fleet(3, s);
  EXPECT_EQ(fleet[0].radio.name, "Wi-Fi 802.11n");
  EXPECT_DOUBLE_EQ(fleet[0].radio.bandwidth_bps, 1000.0);
  EXPECT_DOUBLE_EQ(fleet[0].compute_speed, 0.25);
  EXPECT_DOUBLE_EQ(fleet[0].loss_rate, 0.1);  // fleet default
  EXPECT_EQ(fleet[1].radio.name, "LoRa SF7");
  EXPECT_DOUBLE_EQ(fleet[1].loss_rate, 0.5);
  EXPECT_DOUBLE_EQ(fleet[2].loss_rate, 0.1);
  EXPECT_FALSE(s.fault_free());

  // An override naming a site beyond the fleet is a configuration
  // error, not a no-op — a silently inert override used to hide
  // fleet-size typos. The error names the offending key.
  const SimScenario oob = parse_scenario("radio=wifi,site9.loss=0.9");
  try {
    SimNetwork bad(3, oob);
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("site9.loss"), std::string::npos)
        << e.what();
  }

  // hetero-mesh assigns radios round-robin from the cycle.
  const std::vector<Site> hetero = make_fleet(4, parse_scenario("hetero-mesh"));
  EXPECT_EQ(hetero[0].radio.name, "Wi-Fi 802.11n");
  EXPECT_EQ(hetero[1].radio.name, "BLE 1M");
  EXPECT_EQ(hetero[2].radio.name, "LoRa SF7");
  EXPECT_EQ(hetero[3].radio.name, "Wi-Fi 802.11n");
}

TEST(Scenario, ParserAppliesOverrides) {
  const SimScenario s = parse_scenario("lora-field,loss=0.5,retries=3,skew=4");
  EXPECT_EQ(s.radio.name, "LoRa SF7");
  EXPECT_DOUBLE_EQ(s.loss_rate, 0.5);
  EXPECT_EQ(s.max_retries, 3);
  EXPECT_DOUBLE_EQ(s.site_speed_skew, 4.0);
  // Preset fields not overridden survive.
  EXPECT_DOUBLE_EQ(s.jitter_frac, 0.2);

  const SimScenario custom = parse_scenario("radio=ble,dropout=0.25");
  EXPECT_EQ(custom.name, "custom");
  EXPECT_EQ(custom.radio.name, "BLE 1M");
  EXPECT_DOUBLE_EQ(custom.dropout_rate, 0.25);

  EXPECT_THROW((void)parse_scenario("no-such-scenario"), precondition_error);
  EXPECT_THROW((void)parse_scenario("loss=nope"), precondition_error);
  EXPECT_THROW((void)parse_scenario("frobnicate=1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("radio=zigbee"), precondition_error);
  EXPECT_THROW((void)parse_scenario("loss=0.1,lora-field"), precondition_error);
}

TEST(Sim, ZeroFaultMatchesSynchronousNetwork) {
  const auto parts = make_parts(5, 1500, 24, 11);
  const PipelineConfig cfg = base_config();
  const Coordinator coord(parse_scenario("ideal"));
  ASSERT_TRUE(coord.scenario().fault_free());
  ASSERT_FALSE(parse_scenario("lossy-mesh").fault_free());
  for (const PipelineKind kind :
       {PipelineKind::kNoReduction, PipelineKind::kBklw,
        PipelineKind::kJlBklw}) {
    const PipelineResult sync = run_distributed_pipeline(kind, parts, cfg);
    const SimReport sim = coord.run(kind, parts, cfg);
    // The paper's ledgers must match bit for bit...
    EXPECT_EQ(sim.result.uplink, sync.uplink) << pipeline_name(kind);
    EXPECT_EQ(sim.result.downlink, sync.downlink) << pipeline_name(kind);
    // ...and so must the model the server ends up with.
    EXPECT_EQ(sim.result.centers, sync.centers) << pipeline_name(kind);
    EXPECT_EQ(sim.result.summary_points, sync.summary_points);
    // Fault-free still takes time: radios are finite.
    EXPECT_GT(sim.completion_seconds, 0.0);
    EXPECT_EQ(sim.uplink_stats.drops, 0u);
    EXPECT_EQ(sim.uplink_stats.retransmit_bits, 0u);
    EXPECT_EQ(sim.uplink_stats.attempts, sim.result.uplink.messages);
  }
}

TEST(Sim, NrSummaryCountsTheRowsThatArrived) {
  // With retries off, lossy-mesh loses some of NR's raw-shard uplinks;
  // the server joins the shards that arrived, and the summary size
  // counts their rows, not the n points the sources hold.
  const auto parts = make_parts(6, 3000, 16, 41);
  const PipelineConfig cfg = base_config(41);
  SimNetwork net(parts.size(),
                 parse_scenario("lossy-mesh,loss=0.5,retries=0,seed=41"));
  const PipelineResult lossy = run_distributed_pipeline(
      PipelineKind::kNoReduction, parts, cfg, net);
  std::size_t joined = 0;
  std::size_t lost = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (net.uplink_view(i).stats().missed == 0) {
      joined += parts[i].size();
    } else {
      lost += 1;
    }
  }
  ASSERT_GT(lost, 0u);
  ASSERT_LT(lost, parts.size());
  EXPECT_EQ(lossy.summary_points, joined);

  // Fault-free, every shard arrives.
  const PipelineResult clean =
      run_distributed_pipeline(PipelineKind::kNoReduction, parts, cfg);
  EXPECT_EQ(clean.summary_points, 3000u);
}

TEST(Sim, EventOrderDeterministicAcrossThreadCounts) {
  const auto parts = make_parts(4, 1200, 16, 23);
  const PipelineConfig cfg = base_config(23);
  const Coordinator coord(parse_scenario("lossy-mesh,seed=23"));

  set_parallel_threads(1);
  const SimReport one = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(8);
  const SimReport eight = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(0);

  ASSERT_EQ(one.event_log.size(), eight.event_log.size());
  for (std::size_t i = 0; i < one.event_log.size(); ++i) {
    EXPECT_EQ(one.event_log[i], eight.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(one.completion_seconds, eight.completion_seconds);
  EXPECT_EQ(one.energy_joules, eight.energy_joules);
  EXPECT_EQ(one.result.uplink, eight.result.uplink);
  EXPECT_EQ(one.result.centers, eight.result.centers);

  // The log is a valid trace: times never rewind.
  for (std::size_t i = 1; i < one.event_log.size(); ++i) {
    EXPECT_GE(one.event_log[i].time, one.event_log[i - 1].time);
  }
}

TEST(Sim, DropRetransmitLedgerAccounting) {
  const auto parts = make_parts(4, 1000, 16, 31);
  const PipelineConfig cfg = base_config(31);
  const Coordinator ideal(parse_scenario("ideal"));
  const Coordinator lossy(parse_scenario("radio=wifi,loss=0.5,retries=16"));

  const SimReport clean = ideal.run(PipelineKind::kBklw, parts, cfg);
  const SimReport faulty = lossy.run(PipelineKind::kBklw, parts, cfg);

  // Losses never corrupt the application layer: same goodput ledger,
  // same centers.
  EXPECT_EQ(faulty.result.uplink, clean.result.uplink);
  EXPECT_EQ(faulty.result.centers, clean.result.centers);

  // At 50% loss over dozens of frames, drops are certain; each drop is
  // one retransmission billed once at the frame's wire size.
  const LinkStats up = faulty.uplink_stats;
  const LinkStats down = faulty.downlink_stats;
  EXPECT_GT(up.drops + down.drops, 0u);
  EXPECT_EQ(up.attempts, faulty.result.uplink.messages + up.drops);
  EXPECT_EQ(down.attempts, faulty.result.downlink.messages + down.drops);
  EXPECT_GT(up.retransmit_bits + down.retransmit_bits, 0u);

  // Retries cost the radio: more airtime, more energy, more time.
  EXPECT_GT(up.airtime_s + down.airtime_s,
            clean.uplink_stats.airtime_s + clean.downlink_stats.airtime_s);
  EXPECT_GT(faulty.energy_joules, clean.energy_joules);
  EXPECT_GT(faulty.completion_seconds, clean.completion_seconds);

  // The trace shows the drops and redeliveries.
  std::size_t drop_events = 0, deliver_events = 0;
  for (const SimEvent& ev : faulty.event_log) {
    drop_events += ev.type == SimEventType::kDrop;
    deliver_events += ev.type == SimEventType::kDeliver;
  }
  EXPECT_EQ(drop_events, up.drops + down.drops);
  EXPECT_EQ(deliver_events,
            faulty.result.uplink.messages + faulty.result.downlink.messages);
}

TEST(Sim, StragglersAndSkewSlowCompletionNotLedgers) {
  const auto parts = make_parts(6, 1200, 16, 41);
  const PipelineConfig cfg = base_config(41);
  // Big per-scalar cost so compute dominates the radio.
  const Coordinator uniform(parse_scenario("radio=5g,sps=1e-5"));
  const Coordinator skewed(
      parse_scenario("radio=5g,sps=1e-5,stragglers=0.5,slowdown=16"));

  const SimReport fast = uniform.run(PipelineKind::kBklw, parts, cfg);
  const SimReport slow = skewed.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_GT(slow.completion_seconds, fast.completion_seconds);
  EXPECT_EQ(slow.result.uplink, fast.result.uplink);
  EXPECT_EQ(slow.result.centers, fast.result.centers);
}

TEST(Sim, DropoutWindowsAppearInTraceAndClock) {
  const auto parts = make_parts(4, 800, 8, 51);
  const PipelineConfig cfg = base_config(51);
  const Coordinator coord(
      parse_scenario("radio=wifi,dropout=0.6,outage=7.5,seed=51"));
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
  std::size_t outages = 0;
  for (const SimEvent& ev : report.event_log) {
    outages += ev.type == SimEventType::kOutage;
  }
  EXPECT_GT(outages, 0u);
  EXPECT_EQ(report.outages, outages);
  // Each outage stalls a site for 7.5 virtual seconds.
  EXPECT_GT(report.completion_seconds, 7.5);
}

TEST(Sim, HugeRetryBudgetStillInjectsLoss) {
  // Regression: the retry policy must not truncate through the 16-bit
  // event attempt tag — retries=65536 once wrapped to 0 and silently
  // disabled loss.
  const auto parts = make_parts(3, 600, 8, 71);
  const PipelineConfig cfg = base_config(71);
  const Coordinator coord(
      parse_scenario("radio=wifi,loss=0.5,retries=65536,seed=71"));
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_GT(report.uplink_stats.drops + report.downlink_stats.drops, 0u);
  EXPECT_GT(report.uplink_stats.retransmit_bits +
                report.downlink_stats.retransmit_bits,
            0u);
}

TEST(Sim, ReceiveOnIdleNetworkThrows) {
  SimNetwork net(2, parse_scenario("ideal"));
  EXPECT_THROW((void)net.uplink(0).receive(), precondition_error);
  EXPECT_THROW((void)net.uplink(2), precondition_error);
}

// --- deadline rounds (RoundPolicy) ----------------------------------------

TEST(Deadline, ZeroFaultDeadlineRunsMatchSynchronousNetwork) {
  // A generous finite deadline over a fault-free scenario exercises the
  // whole open_round/receive_by machinery, and still must reproduce the
  // synchronous Network — and the unbounded simulated run — bit for bit.
  const auto parts = make_parts(5, 1500, 24, 11);
  const PipelineConfig cfg = base_config();
  const Coordinator bounded(parse_scenario("ideal,deadline=1e6"));
  const Coordinator unbounded(parse_scenario("ideal"));
  for (const PipelineKind kind :
       {PipelineKind::kNoReduction, PipelineKind::kBklw,
        PipelineKind::kJlBklw}) {
    const PipelineResult sync = run_distributed_pipeline(kind, parts, cfg);
    const SimReport dl = bounded.run(kind, parts, cfg);
    const SimReport free_run = unbounded.run(kind, parts, cfg);
    EXPECT_EQ(dl.result.uplink, sync.uplink) << pipeline_name(kind);
    EXPECT_EQ(dl.result.downlink, sync.downlink) << pipeline_name(kind);
    EXPECT_EQ(dl.result.centers, sync.centers) << pipeline_name(kind);
    EXPECT_EQ(dl.deadline_misses, 0u);
    EXPECT_EQ(dl.sites_dropped, 0u);
    EXPECT_GT(dl.rounds, 0u);
    // The deadline machinery must not perturb the virtual clocks either.
    EXPECT_EQ(dl.completion_seconds, free_run.completion_seconds);
    EXPECT_EQ(dl.energy_joules, free_run.energy_joules);
    ASSERT_EQ(dl.event_log.size(), free_run.event_log.size());
  }
}

TEST(Deadline, DropsExactlyTheForcedStraggler) {
  // Site 2 computes 50x slower than the rest of a compute-bound fleet;
  // a 2-second round budget drops it and only it.
  const std::size_t m = 4;
  const auto parts = make_parts(m, 1200, 16, 77);
  const PipelineConfig cfg = base_config(77);
  const Coordinator coord(parse_scenario(
      "radio=5g,sps=1e-3,deadline=2,site2.speed=0.02,seed=77"));
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);

  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_EQ(report.sites_dropped, 1u);
  // Every expiry in the trace belongs to site 2's uplink.
  std::size_t expire_events = 0;
  for (const SimEvent& ev : report.event_log) {
    if (ev.type != SimEventType::kExpire) continue;
    expire_events += 1;
    EXPECT_EQ(ev.site, 2u);
    EXPECT_TRUE(ev.uplink);
  }
  EXPECT_GT(expire_events, 0u);
  // The partial aggregate is still a full model...
  EXPECT_EQ(report.result.centers.rows(), cfg.k);
  // ...and the server finished without waiting for the straggler, whose
  // own clock dominates the quiescence time.
  EXPECT_LT(report.server_completion_seconds, report.completion_seconds);

  // The same fleet with no deadline waits for everyone.
  const Coordinator patient(
      parse_scenario("radio=5g,sps=1e-3,site2.speed=0.02,seed=77"));
  const SimReport full = patient.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_EQ(full.deadline_misses, 0u);
  EXPECT_LT(report.server_completion_seconds,
            full.server_completion_seconds);
}

TEST(Deadline, PartialCoresetWeightsSumOverResponders) {
  const std::size_t m = 4;
  const auto parts = make_parts(m, 1600, 12, 91);
  SimNetwork net(m, parse_scenario(
      "radio=5g,sps=1e-3,deadline=2,site1.speed=0.02,seed=91"));
  Stopwatch device_work;
  BklwOptions opts;
  opts.k = 3;
  opts.epsilon = 0.3;
  opts.intrinsic_dim = 6;
  opts.total_samples = 150;
  const Coreset cs = bklw_coreset(parts, opts, net, device_work, 91);
  (void)net.finish();  // also asserts the ledger invariants

  // Site 1 must have missed at least one round; everyone else none.
  EXPECT_GT(net.uplink_view(1).stats().missed, 0u);
  double responder_mass = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i == 1) continue;
    EXPECT_EQ(net.uplink_view(i).stats().missed, 0u) << "site " << i;
    for (std::size_t p = 0; p < parts[i].size(); ++p) {
      responder_mass += parts[i].weight(p);
    }
  }
  // Each local coreset's weights sum to exactly its shard's mass, so
  // the union's mass is the responders' mass — no more, no less.
  double coreset_mass = 0.0;
  for (std::size_t p = 0; p < cs.size(); ++p) {
    coreset_mass += cs.points.weight(p);
  }
  EXPECT_NEAR(coreset_mass, responder_mass, 1e-6 * responder_mass);

  // The full-responder construction covers the whole fleet's mass.
  SimNetwork full_net(m, parse_scenario("radio=5g,seed=91"));
  Stopwatch full_work;
  const Coreset full = bklw_coreset(parts, opts, full_net, full_work, 91);
  double full_mass = 0.0, fleet_mass = 0.0;
  for (std::size_t p = 0; p < full.size(); ++p) {
    full_mass += full.points.weight(p);
  }
  for (const Dataset& part : parts) {
    for (std::size_t p = 0; p < part.size(); ++p) fleet_mass += part.weight(p);
  }
  EXPECT_NEAR(full_mass, fleet_mass, 1e-6 * fleet_mass);
  EXPECT_GT(fleet_mass, responder_mass);
}

TEST(Deadline, AvailabilityFloorThrows) {
  const std::size_t m = 3;
  const auto parts = make_parts(m, 900, 8, 13);
  PipelineConfig cfg = base_config(13);
  // Two of three sites straggle past the budget; requiring all three
  // responders must throw instead of aggregating a sliver.
  const Coordinator coord(parse_scenario(
      "radio=5g,sps=1e-3,deadline=2,min-responders=3,"
      "site0.speed=0.02,site2.speed=0.02,seed=13"));
  try {
    (void)coord.run(PipelineKind::kBklw, parts, cfg);
    FAIL() << "expected invariant_error";
  } catch (const invariant_error& e) {
    // The message carries the context an operator needs to act on a
    // sweep log: which collection round, and the responder shortfall.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("collection round #"), std::string::npos) << msg;
    EXPECT_NE(msg.find("of the required 3"), std::string::npos) << msg;
  }
}

TEST(Deadline, EventOrderDeterministicAcrossThreadCounts) {
  // The determinism contract extends to deadline rounds: faults, drops
  // and partial aggregation included.
  const auto parts = make_parts(4, 1200, 16, 29);
  const PipelineConfig cfg = base_config(29);
  const Coordinator coord(parse_scenario(
      "lossy-mesh,stragglers=0.25,slowdown=64,sps=1e-5,deadline=1,seed=29"));

  set_parallel_threads(1);
  const SimReport one = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(8);
  const SimReport eight = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(0);

  ASSERT_EQ(one.event_log.size(), eight.event_log.size());
  for (std::size_t i = 0; i < one.event_log.size(); ++i) {
    EXPECT_EQ(one.event_log[i], eight.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(one.deadline_misses, eight.deadline_misses);
  EXPECT_EQ(one.sites_dropped, eight.sites_dropped);
  EXPECT_EQ(one.completion_seconds, eight.completion_seconds);
  EXPECT_EQ(one.server_completion_seconds, eight.server_completion_seconds);
  EXPECT_EQ(one.result.centers, eight.result.centers);
}

// --- one round policy, read from the fabric ------------------------------

void expect_same_policy(const RoundPolicy& got, const RoundPolicy& want) {
  EXPECT_EQ(got.deadline_s, want.deadline_s);
  EXPECT_EQ(got.min_responders, want.min_responders);
  EXPECT_EQ(got.reallocate, want.reallocate);
  EXPECT_EQ(got.realloc_reserve, want.realloc_reserve);
  EXPECT_EQ(got.pipeline, want.pipeline);
  EXPECT_EQ(got.quant, want.quant);
}

TEST(RoundPolicyHome, FabricsReportTheirPolicy) {
  // The synchronous star and any fabric that does not override it
  // report the paper's wait-for-everyone rounds.
  expect_same_policy(Network(3).round_policy(), RoundPolicy{});
  const test::SwappedFrame swapped(3, 1, test::Link::kUplink, 1, Message{});
  expect_same_policy(swapped.round_policy(), RoundPolicy{});

  // The simulator reports its scenario's policy, quant included.
  const SimScenario s = parse_scenario(
      "radio=5g,deadline=3,min-responders=2,realloc=off,"
      "realloc-reserve=0.25,pipeline=on,quant=adaptive");
  const SimNetwork net(3, s);
  EXPECT_EQ(net.round_policy().deadline_s, 3.0);
  EXPECT_EQ(net.round_policy().min_responders, 2u);
  EXPECT_FALSE(net.round_policy().reallocate);
  EXPECT_EQ(net.round_policy().realloc_reserve, 0.25);
  EXPECT_TRUE(net.round_policy().pipeline);
  EXPECT_EQ(net.round_policy().quant, QuantPolicy::kAdaptive);
}

TEST(RoundPolicyHome, DirectRunOverSimNetworkMatchesCoordinator) {
  // A protocol driven straight over a SimNetwork honours every round
  // setting of its scenario, exactly as the Coordinator's run of the
  // same scenario does: the deadline (site 1 straggles past it), the
  // reallocation reserve, adaptive quantization and pipelining.
  const std::size_t m = 4;
  const auto parts = make_parts(m, 1600, 12, 91);
  const PipelineConfig cfg = base_config(91);
  const SimScenario s = parse_scenario(
      "radio=5g,sps=1e-3,deadline=2,site1.speed=0.02,realloc-reserve=0.5,"
      "quant=adaptive,pipeline=on,seed=91");
  const Coordinator coord(s);
  for (const PipelineKind kind : {PipelineKind::kBklw, PipelineKind::kJlBklw}) {
    SimNetwork net(m, s);
    const PipelineResult direct =
        run_distributed_pipeline(kind, parts, cfg, net);
    (void)net.finish();
    const SimReport report = coord.run(kind, parts, cfg);
    EXPECT_GT(report.deadline_misses, 0u) << pipeline_name(kind);
    EXPECT_EQ(direct.centers, report.result.centers) << pipeline_name(kind);
    EXPECT_EQ(direct.uplink, report.result.uplink) << pipeline_name(kind);
    EXPECT_EQ(net.missed_frames(), report.deadline_misses)
        << pipeline_name(kind);
    EXPECT_EQ(net.server_clock(), report.server_completion_seconds)
        << pipeline_name(kind);
  }
}

TEST(RoundPolicyHome, ReserveOutsideUnitIntervalThrows) {
  // The scenario parser rejects realloc-reserve=1; a scenario built in
  // code meets the same check when the network is built from it.
  SimScenario s = parse_scenario("radio=5g,deadline=2");
  s.round.realloc_reserve = 1.0;
  EXPECT_THROW(SimNetwork(2, s), precondition_error);
  s.round.realloc_reserve = -0.5;
  EXPECT_THROW(SimNetwork(2, s), precondition_error);
  s.round.realloc_reserve = 0.5;
  EXPECT_NO_THROW(SimNetwork(2, s));
}

// --- retry-budget exhaustion (first-class frame drops) --------------------

TEST(Exhaustion, SpentRetryBudgetIsAFirstClassDrop) {
  // loss=0.9 with a single retry: most frames burn both attempts and
  // expire. The ledgers must balance exactly: every attempt delivered
  // or dropped, every frame delivered or expired, and the trace agrees.
  SimNetwork net(2, parse_scenario("radio=wifi,loss=0.9,retries=1,seed=5"));
  Port& up = net.uplink(0);
  const std::size_t frames = 50;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    Message msg;
    msg.payload.resize(64);
    msg.wire_bits = 512;
    msg.scalars = 8;
    up.send(std::move(msg));
    delivered += up.receive_by(kNoRound).has_value();
  }
  (void)net.finish();  // asserts the per-link ledger invariants

  const LinkStats& stats = net.uplink_view(0).stats();
  const TrafficLedger& ledger = net.uplink_view(0).ledger();
  EXPECT_EQ(ledger.messages, frames);
  EXPECT_GT(stats.expired, 0u);  // p(no expiry in 50 frames) ~ 1e-4
  EXPECT_LT(delivered, frames);
  EXPECT_EQ(delivered + stats.expired, frames);
  EXPECT_EQ(stats.missed, stats.expired);
  // Attempt-level balance: attempts = deliveries + drops, and expired
  // frames burned the full budget (2 attempts each).
  EXPECT_EQ(stats.attempts, delivered + stats.drops);
  EXPECT_EQ(stats.retransmit_bits, stats.drops * 512);

  std::size_t deliver_events = 0, drop_events = 0, expire_events = 0;
  for (const SimEvent& ev : net.event_log()) {
    deliver_events += ev.type == SimEventType::kDeliver;
    drop_events += ev.type == SimEventType::kDrop;
    expire_events += ev.type == SimEventType::kExpire;
  }
  EXPECT_EQ(deliver_events, delivered);
  EXPECT_EQ(drop_events, stats.drops);
  EXPECT_EQ(expire_events, stats.expired);
}

TEST(Exhaustion, BlockingReceiveOnExpiredFrameThrowsLoudly) {
  // A protocol that insists on the lossless contract while frames can
  // expire is a configuration bug; it must fail fast, not hang.
  SimNetwork net(1, parse_scenario("radio=wifi,loss=0.999,retries=0,seed=3"));
  Port& up = net.uplink(0);
  for (int i = 0; i < 20; ++i) {
    Message msg;
    msg.wire_bits = 256;
    msg.scalars = 4;
    up.send(std::move(msg));
  }
  // p(all 20 frames dodge a 99.9% single-attempt loss) ~ 1e-60.
  EXPECT_THROW(
      {
        for (int i = 0; i < 20; ++i) (void)up.receive();
      },
      invariant_error);
}

TEST(Exhaustion, ProtocolsSurviveExpiredFramesWithoutDeadlines) {
  // Even with no round deadline, a spent retry budget drops sites from
  // rounds instead of wedging the protocol — receive_by(kNoRound)
  // reports the expiry and the aggregation is partial. refine_iters
  // additionally regression-tests frame alignment: a site knocked out
  // by a lost basis broadcast must still drain its downlink FIFO, or
  // the refine round would decode the stale allocation as centers.
  const auto parts = make_parts(5, 1000, 12, 47);
  PipelineConfig cfg = base_config(47);
  cfg.refine_iters = 2;
  // ~12% of frames burn all three attempts and expire — enough for
  // several expiries per run without starving a whole round.
  const Coordinator coord(
      parse_scenario("radio=wifi,loss=0.5,retries=2,seed=47"));
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_GT(report.uplink_stats.expired + report.downlink_stats.expired, 0u);
  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_GT(report.sites_dropped, 0u);
  EXPECT_EQ(report.result.centers.rows(), cfg.k);
}

// --- retry policies (RetryPolicy) -----------------------------------------

TEST(Scenario, ParserHandlesRetryReallocAndOverflow) {
  const SimScenario s = parse_scenario(
      "radio=wifi,retry=backoff,backoff-base=3,backoff-cap=8,"
      "backoff-jitter=0.25,realloc=off,site2.retry=giveup");
  EXPECT_EQ(s.retry.strategy, RetryStrategy::kBackoff);
  EXPECT_DOUBLE_EQ(s.retry.backoff_base, 3.0);
  EXPECT_DOUBLE_EQ(s.retry.backoff_cap, 8.0);
  EXPECT_DOUBLE_EQ(s.retry.backoff_jitter, 0.25);
  EXPECT_FALSE(s.round.reallocate);
  ASSERT_EQ(s.site_overrides.size(), 1u);
  EXPECT_EQ(s.site_overrides[0].retry.value(), RetryStrategy::kGiveUp);
  // The fleet default and the per-site override both materialize.
  const std::vector<Site> fleet = make_fleet(3, s);
  EXPECT_EQ(fleet[0].retry, RetryStrategy::kBackoff);
  EXPECT_EQ(fleet[1].retry, RetryStrategy::kBackoff);
  EXPECT_EQ(fleet[2].retry, RetryStrategy::kGiveUp);
  EXPECT_TRUE(parse_scenario("realloc=on").round.reallocate);
  EXPECT_EQ(parse_scenario("ideal").retry.strategy, RetryStrategy::kFixed);
  // The wave's reserve is part of the round schedule: default 0, the
  // deadline-fleet preset opts in, and the key parses/range-checks.
  EXPECT_DOUBLE_EQ(parse_scenario("ideal").round.realloc_reserve, 0.0);
  EXPECT_DOUBLE_EQ(parse_scenario("deadline-fleet").round.realloc_reserve, 0.5);
  EXPECT_DOUBLE_EQ(parse_scenario("realloc-reserve=0.25").round.realloc_reserve,
                   0.25);
  EXPECT_THROW((void)parse_scenario("realloc-reserve=1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("realloc-reserve=-0.1"),
               precondition_error);

  EXPECT_THROW((void)parse_scenario("retry=sometimes"), precondition_error);
  EXPECT_THROW((void)parse_scenario("realloc=2"), precondition_error);
  EXPECT_THROW((void)parse_scenario("realloc="), precondition_error);
  EXPECT_THROW((void)parse_scenario("backoff-base=0.5"), precondition_error);
  EXPECT_THROW((void)parse_scenario("backoff-jitter=1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("site1.retry=nope"), precondition_error);

  // Overflowing tokens are typos, not infinities (the parse_num ERANGE
  // fix): they throw naming the key, while an explicit "inf" stays
  // valid exactly where infinity means something (deadline).
  EXPECT_THROW((void)parse_scenario("loss=1e999"), precondition_error);
  EXPECT_THROW((void)parse_scenario("deadline=1e999"), precondition_error);
  try {
    (void)parse_scenario("sps=1e999");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("'sps'"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(parse_scenario("deadline-fleet,deadline=inf").round.active());
}

TEST(Retry, FaultFreeStrategiesMatchFixedBitwise) {
  // With no losses a retry policy never acts (and never draws), so
  // backoff and give-up runs must reproduce the fixed-policy run —
  // events, clocks, energy, ledgers, centers — bit for bit.
  const auto parts = make_parts(4, 1200, 16, 19);
  const PipelineConfig cfg = base_config(19);
  const Coordinator fixed(parse_scenario("ideal"));
  const SimReport base = fixed.run(PipelineKind::kBklw, parts, cfg);
  for (const char* spec : {"ideal,retry=backoff", "ideal,retry=giveup"}) {
    const Coordinator coord(parse_scenario(spec));
    const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
    ASSERT_EQ(report.event_log.size(), base.event_log.size()) << spec;
    for (std::size_t i = 0; i < report.event_log.size(); ++i) {
      EXPECT_EQ(report.event_log[i], base.event_log[i]) << spec << " " << i;
    }
    EXPECT_EQ(report.completion_seconds, base.completion_seconds) << spec;
    EXPECT_EQ(report.energy_joules, base.energy_joules) << spec;
    EXPECT_EQ(report.result.uplink, base.result.uplink) << spec;
    EXPECT_EQ(report.result.centers, base.result.centers) << spec;
  }
}

TEST(Retry, BackoffDelaysRetriesWithoutTouchingGoodput) {
  // backoff-jitter=0 keeps the RNG stream identical to the fixed run,
  // so both nets see the same loss pattern attempt for attempt; only
  // the retransmission timing differs, and only from the second retry
  // of a frame on (backoff factor 2^k vs always 1).
  const auto run = [](const char* spec) {
    SimNetwork net(1, parse_scenario(spec));
    const RoundId round = net.open_round(kNoDeadline);
    Port& up = net.uplink(0);
    std::size_t delivered = 0;
    for (int i = 0; i < 20; ++i) {
      Message msg;
      msg.payload.resize(64);
      msg.wire_bits = 512;
      msg.scalars = 8;
      up.send(std::move(msg));
      delivered += up.receive_by(round).has_value();
    }
    const double completion = net.finish();  // asserts ledger invariants
    return std::tuple(net.uplink_view(0).stats(),
                      net.uplink_view(0).ledger(), delivered, completion);
  };
  const auto [fixed_stats, fixed_ledger, fixed_delivered, fixed_done] =
      run("radio=wifi,loss=0.9,retries=8,seed=6");
  const auto [bo_stats, bo_ledger, bo_delivered, bo_done] =
      run("radio=wifi,loss=0.9,retries=8,retry=backoff,backoff-jitter=0,"
          "seed=6");
  // Same fault pattern, same goodput, same attempt/drop accounting.
  EXPECT_EQ(bo_delivered, fixed_delivered);
  EXPECT_EQ(bo_stats.attempts, fixed_stats.attempts);
  EXPECT_EQ(bo_stats.drops, fixed_stats.drops);
  EXPECT_EQ(bo_stats.expired, fixed_stats.expired);
  EXPECT_EQ(bo_stats.retransmit_bits, fixed_stats.retransmit_bits);
  EXPECT_EQ(bo_ledger, fixed_ledger);
  // At 90% loss over 20 frames some frame certainly burned >= 2
  // retries, and each such retry waits strictly longer under backoff.
  EXPECT_GT(fixed_stats.drops, fixed_stats.attempts - 20);  // multi-drop frames
  EXPECT_GT(bo_done, fixed_done);
}

TEST(Retry, BackoffIsDeterministicAcrossThreadCountsAndLossless) {
  const auto parts = make_parts(4, 1200, 16, 23);
  const PipelineConfig cfg = base_config(23);
  const Coordinator coord(
      parse_scenario("radio=wifi,loss=0.5,retries=16,retry=backoff,seed=23"));

  set_parallel_threads(1);
  const SimReport one = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(8);
  const SimReport eight = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(0);
  ASSERT_EQ(one.event_log.size(), eight.event_log.size());
  for (std::size_t i = 0; i < one.event_log.size(); ++i) {
    EXPECT_EQ(one.event_log[i], eight.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(one.completion_seconds, eight.completion_seconds);
  EXPECT_EQ(one.energy_joules, eight.energy_joules);
  EXPECT_EQ(one.result.centers, eight.result.centers);

  // Without a deadline the app layer stays lossless under backoff too:
  // same goodput and centers as the fixed-policy run of the same fleet.
  const Coordinator fixed(
      parse_scenario("radio=wifi,loss=0.5,retries=16,seed=23"));
  const SimReport base = fixed.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_EQ(one.result.uplink, base.result.uplink);
  EXPECT_EQ(one.result.centers, base.result.centers);
  EXPECT_GT(one.uplink_stats.drops + one.downlink_stats.drops, 0u);
}

TEST(Retry, GiveUpSkipsAttemptsThatCannotMakeTheDeadline) {
  // One site behind a 1 kbps link, a 2-second round, a 1 Mbit frame:
  // the fixed sender keys the radio for ~1000 s of futile airtime (the
  // frame is delivered long after the receiver abandoned it); the
  // give-up sender sees start + airtime > cutoff and never transmits.
  const auto run = [](const char* spec) {
    SimNetwork net(1, parse_scenario(spec));
    const RoundId round = net.open_round(2.0);
    Message msg;
    msg.payload.resize(1 << 17);
    msg.wire_bits = 1'000'000;
    msg.scalars = 4;
    net.uplink(0).send(std::move(msg));
    EXPECT_FALSE(net.uplink(0).receive_by(round).has_value());
    (void)net.finish();  // asserts the attempt/frame ledger invariants
    return std::pair(net.uplink_view(0).stats(), net.energy_joules());
  };
  const auto [fixed_stats, fixed_energy] =
      run("radio=wifi,site0.bandwidth=1000");
  const auto [giveup_stats, giveup_energy] =
      run("radio=wifi,site0.bandwidth=1000,retry=giveup");

  // Fixed: one attempt, delivered late, abandoned by the receiver.
  EXPECT_EQ(fixed_stats.attempts, 1u);
  EXPECT_EQ(fixed_stats.expired, 0u);
  EXPECT_EQ(fixed_stats.missed, 1u);
  EXPECT_GT(fixed_stats.airtime_s, 900.0);
  EXPECT_GT(fixed_energy, 0.0);
  // Give-up: no attempt, frame expired, radio never keyed.
  EXPECT_EQ(giveup_stats.attempts, 0u);
  EXPECT_EQ(giveup_stats.expired, 1u);
  EXPECT_EQ(giveup_stats.missed, 1u);
  EXPECT_EQ(giveup_stats.airtime_s, 0.0);
  EXPECT_EQ(giveup_energy, 0.0);
}

// --- deadline-aware budget reallocation (disSS step 4b) -------------------

TEST(Realloc, WaveRestoresBudgetAndConservesMass) {
  // Site 1 reports its cost in time (one scalar is cheap even at 2% of
  // reference speed) but cannot compute+ship its summary inside the
  // round, so its sample allocation is lost. With reallocation off the
  // union shrinks by that allocation (PR 3); with it on, the server
  // re-splits the lost budget among the responders inside the same
  // round and the union keeps ~ the full budget. Either way every
  // local coreset's weights sum to exactly its shard's mass, so the
  // union's mass is the responders' mass — reallocation buys sample
  // resolution, never phantom mass.
  const std::size_t m = 4;
  const auto parts = make_parts(m, 1600, 12, 91);
  // realloc-reserve schedules the wave's share of the round.
  const std::string spec =
      "radio=5g,sps=1e-3,deadline=2,site1.speed=0.02,realloc-reserve=0.5,"
      "seed=91";
  BklwOptions opts;
  opts.k = 3;
  opts.epsilon = 0.3;
  opts.intrinsic_dim = 6;
  opts.total_samples = 150;

  SimNetwork net_off(m, parse_scenario(spec + ",realloc=off"));
  Stopwatch work_off;
  const Coreset off = bklw_coreset(parts, opts, net_off, work_off, 91);
  (void)net_off.finish();
  EXPECT_EQ(net_off.subrounds_opened(), 0u);
  EXPECT_GT(net_off.uplink_view(1).stats().missed, 0u);

  SimNetwork net_on(m, parse_scenario(spec));
  Stopwatch work_on;
  const Coreset on = bklw_coreset(parts, opts, net_on, work_on, 91);
  (void)net_on.finish();
  EXPECT_GE(net_on.subrounds_opened(), 1u);
  EXPECT_GT(net_on.uplink_view(1).stats().missed, 0u);

  // Budget conservation: the reallocated union carries strictly more
  // samples than the responder-only union — the lost allocation came
  // back as responder-side resolution.
  EXPECT_GT(on.size(), off.size());

  // Mass conservation: both unions weigh exactly the responders' data.
  double responder_mass = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i == 1) continue;
    for (std::size_t p = 0; p < parts[i].size(); ++p) {
      responder_mass += parts[i].weight(p);
    }
  }
  const auto mass_of = [](const Coreset& cs) {
    double mass = 0.0;
    for (std::size_t p = 0; p < cs.size(); ++p) {
      mass += cs.points.weight(p);
    }
    return mass;
  };
  EXPECT_NEAR(mass_of(off), responder_mass, 1e-6 * responder_mass);
  EXPECT_NEAR(mass_of(on), responder_mass, 1e-6 * responder_mass);
}

TEST(Realloc, NoReserveKeepsFiniteDeadlineRoundsPr3Shaped) {
  // Regression: with no reserve scheduled (the default), default-on
  // reallocation must not change a finite-deadline round at all — the
  // first wave collects at the full round deadline and the wave is
  // skipped (it could never deliver). In particular a fault-free fleet
  // whose summaries land late in the round must NOT be dropped against
  // a shrunken sub-deadline (this exact shape once threw the
  // availability floor with realloc=on while realloc=off succeeded).
  const auto parts = make_parts(4, 1500, 8, 7);
  PipelineConfig cfg = base_config(7);
  const Coordinator on(parse_scenario("radio=5g,sps=4e-3,deadline=6,seed=7"));
  const Coordinator off(
      parse_scenario("radio=5g,sps=4e-3,deadline=6,realloc=off,seed=7"));
  const SimReport a = on.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = off.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_EQ(a.realloc_waves, 0u);
  EXPECT_EQ(b.realloc_waves, 0u);
  ASSERT_EQ(a.event_log.size(), b.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    EXPECT_EQ(a.event_log[i], b.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(a.result.centers, b.result.centers);
  EXPECT_EQ(a.result.summary_points, b.result.summary_points);
  EXPECT_EQ(a.completion_seconds, b.completion_seconds);
}

TEST(Realloc, FloorCountsDistinctSitesNotWaveFrames) {
  // 3 of 4 sites respond; the wave then collects up to 3 supplemental
  // frames from the same sites. A floor of 3 must hold (3 distinct
  // responders) and a floor of 4 must throw — wave supplements never
  // top the responder count up.
  const std::size_t m = 4;
  const auto parts = make_parts(m, 1600, 12, 91);
  PipelineConfig cfg = base_config(91);
  const char* base_spec =
      "radio=5g,sps=1e-3,deadline=4,realloc-reserve=0.5,"
      "site1.speed=0.02,seed=91,min-responders=";
  const Coordinator ok(parse_scenario(std::string(base_spec) + "3"));
  const SimReport report = ok.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_GE(report.realloc_waves, 1u);
  EXPECT_EQ(report.sites_dropped, 1u);
  const Coordinator strict(parse_scenario(std::string(base_spec) + "4"));
  EXPECT_THROW((void)strict.run(PipelineKind::kBklw, parts, cfg),
               invariant_error);
}

TEST(Realloc, WaveIsDeterministicAcrossThreadCounts) {
  const std::size_t m = 4;
  const auto parts = make_parts(m, 1600, 12, 91);
  const PipelineConfig cfg = base_config(91);
  const Coordinator coord(parse_scenario(
      "radio=5g,sps=1e-3,deadline=4,realloc-reserve=0.5,"
      "site1.speed=0.02,seed=91"));

  set_parallel_threads(1);
  const SimReport one = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(8);
  const SimReport eight = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(0);

  // The wave actually ran, and ran identically at both thread counts.
  EXPECT_GE(one.realloc_waves, 1u);
  EXPECT_EQ(one.realloc_waves, eight.realloc_waves);
  ASSERT_EQ(one.event_log.size(), eight.event_log.size());
  for (std::size_t i = 0; i < one.event_log.size(); ++i) {
    EXPECT_EQ(one.event_log[i], eight.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(one.completion_seconds, eight.completion_seconds);
  EXPECT_EQ(one.server_completion_seconds, eight.server_completion_seconds);
  EXPECT_EQ(one.result.centers, eight.result.centers);
  EXPECT_EQ(one.result.summary_points, eight.result.summary_points);

  // realloc=off is PR 3's behavior: no waves, fewer summary points.
  const Coordinator off(parse_scenario(
      "radio=5g,sps=1e-3,deadline=4,realloc-reserve=0.5,"
      "site1.speed=0.02,seed=91,realloc=off"));
  const SimReport pr3 = off.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_EQ(pr3.realloc_waves, 0u);
  EXPECT_GT(one.result.summary_points, pr3.result.summary_points);
}

// --- scenario keys of the round scheduler (src/sched/) -------------------

TEST(Scenario, ParserHandlesPipelineEventLogRejectsOverlap) {
  EXPECT_FALSE(parse_scenario("ideal").round.pipeline);
  EXPECT_TRUE(parse_scenario("pipeline=on").round.pipeline);
  EXPECT_FALSE(parse_scenario("deadline-fleet,pipeline=off").round.pipeline);
  EXPECT_THROW((void)parse_scenario("pipeline=2"), precondition_error);
  EXPECT_THROW((void)parse_scenario("pipeline="), precondition_error);
  // One NAK rule: the expiry-NAK switch is gone, and its key is an
  // unknown key like any typo, named in the error.
  try {
    (void)parse_scenario("ideal,overlap=on");
    FAIL() << "expected precondition_error for overlap=on";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown scenario key 'overlap'"),
              std::string::npos)
        << e.what();
  }

  EXPECT_EQ(parse_scenario("event-log=off").event_log_limit, 0u);
  EXPECT_EQ(parse_scenario("event-log=0").event_log_limit, 0u);
  EXPECT_EQ(parse_scenario("event-log=250").event_log_limit, 250u);
  // Default: unlimited (PR 2–4 behavior).
  EXPECT_EQ(parse_scenario("ideal").event_log_limit,
            static_cast<std::size_t>(-1));
  EXPECT_THROW((void)parse_scenario("event-log="), precondition_error);
  EXPECT_THROW((void)parse_scenario("event-log=-1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("event-log=2.5"), precondition_error);
  EXPECT_THROW((void)parse_scenario("event-log=x"), precondition_error);
}

// --- cross-round pipelining (RoundPolicy::pipeline) -----------------------

TEST(Pipeline, FaultFreeFiniteDeadlineRunsBitIdentical) {
  // Pipelining must be unobservable when nothing misses: the cross-round
  // task-graph edges never reorder the creation-order replay, and with
  // every frame inside its cutoff there is no provable miss to NAK.
  const auto parts = make_parts(5, 1500, 24, 11);
  const PipelineConfig cfg = base_config();
  const Coordinator off(parse_scenario("ideal,deadline=1e6"));
  const Coordinator on(parse_scenario("ideal,deadline=1e6,pipeline=on"));
  for (const PipelineKind kind :
       {PipelineKind::kNoReduction, PipelineKind::kBklw,
        PipelineKind::kJlBklw}) {
    const SimReport a = off.run(kind, parts, cfg);
    const SimReport b = on.run(kind, parts, cfg);
    EXPECT_EQ(b.result.uplink, a.result.uplink) << pipeline_name(kind);
    EXPECT_EQ(b.result.centers, a.result.centers) << pipeline_name(kind);
    EXPECT_EQ(b.completion_seconds, a.completion_seconds);
    EXPECT_EQ(b.server_completion_seconds, a.server_completion_seconds);
    EXPECT_EQ(b.energy_joules, a.energy_joules);
    ASSERT_EQ(b.event_log.size(), a.event_log.size());
    for (std::size_t i = 0; i < a.event_log.size(); ++i) {
      EXPECT_EQ(b.event_log[i], a.event_log[i]) << "event " << i;
    }
  }
}

TEST(Pipeline, InfiniteDeadlineStragglerRunsBitIdentical) {
  // Predicted-arrival NAKs are gated on a *finite* cutoff: with no
  // deadline nothing can provably miss, so even a fleet with a hard
  // straggler and retry-budget expiries reproduces bit for bit.
  const auto parts = make_parts(4, 1200, 16, 47);
  const PipelineConfig cfg = base_config(47);
  const Coordinator off(
      parse_scenario("radio=wifi,loss=0.5,retries=2,site2.speed=0.02,seed=47"));
  const Coordinator on(parse_scenario(
      "radio=wifi,loss=0.5,retries=2,site2.speed=0.02,seed=47,pipeline=on"));
  const SimReport a = off.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = on.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_GT(a.deadline_misses, 0u);  // expiries actually happened
  EXPECT_EQ(b.deadline_misses, a.deadline_misses);
  EXPECT_EQ(b.result.centers, a.result.centers);
  EXPECT_EQ(b.result.uplink, a.result.uplink);
  EXPECT_EQ(b.completion_seconds, a.completion_seconds);
  EXPECT_EQ(b.server_completion_seconds, a.server_completion_seconds);
  EXPECT_EQ(b.energy_joules, a.energy_joules);
  ASSERT_EQ(b.event_log.size(), a.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    EXPECT_EQ(b.event_log[i], a.event_log[i]) << "event " << i;
  }
}

TEST(Pipeline, GiveUpStragglerNaksSpeedUpServerCompletion) {
  // One site behind a 2 kbps link in a 3-second-round fleet with
  // give-up retries: its disPCA V frame and its summary coreset can
  // never fit the round, so it expires them at compute-ready time —
  // seconds before the cutoff, without keying the radio. Unpipelined,
  // the server still waits each round out; pipelined, the abandonment
  // NAK commits the merge barrier at the last *final* input, the basis
  // broadcast goes out early, and the fast sites run their disSS
  // phases while the old schedule would still have been waiting on the
  // straggler's round.
  // The protocol actions are identical either way — same frames, same
  // responders, same RNG draws — so ledgers and centers must match
  // bitwise while the server's time-to-model strictly improves.
  const auto parts = make_parts(4, 2000, 16, 5);
  const PipelineConfig cfg = base_config(5);
  const char* base =
      "radio=wifi,sps=1e-4,deadline=3,retry=giveup,site0.bandwidth=2000,"
      "seed=5";
  const Coordinator off(parse_scenario(base));
  const Coordinator on(parse_scenario(std::string(base) + ",pipeline=on"));
  const SimReport a = off.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = on.run(PipelineKind::kBklw, parts, cfg);

  // The straggler actually missed rounds, identically in both runs.
  EXPECT_GT(a.deadline_misses, 0u);
  EXPECT_EQ(b.deadline_misses, a.deadline_misses);
  EXPECT_EQ(b.sites_dropped, a.sites_dropped);
  // Same protocol, same model, same paper metrics...
  EXPECT_EQ(b.result.centers, a.result.centers);
  EXPECT_EQ(b.result.uplink, a.result.uplink);
  EXPECT_EQ(b.result.summary_points, a.result.summary_points);
  EXPECT_EQ(b.energy_joules, a.energy_joules);
  // ...but the server finishes strictly earlier, and the deployment
  // quiesces no later.
  EXPECT_LT(b.server_completion_seconds, a.server_completion_seconds);
  EXPECT_LE(b.completion_seconds, a.completion_seconds);
}

TEST(Pipeline, PredictedNaksFireBeforeAbandonTime) {
  // A lossless fleet whose straggler *delivers* its frames — hundreds
  // of seconds late. The sender never gives up, so there is no
  // abandonment to NAK; the predicted-arrival NAK fires at the first
  // attempt whose best-case airtime already overshoots the round, and
  // the server commits each round at that NAK instead of the cutoff.
  const auto parts = make_parts(4, 2000, 16, 5);
  const PipelineConfig cfg = base_config(5);
  const char* base =
      "radio=wifi,loss=0,sps=1e-4,deadline=3,site0.bandwidth=2000,seed=5";
  const Coordinator off(parse_scenario(base));
  const Coordinator piped(parse_scenario(std::string(base) + ",pipeline=on"));
  const SimReport a = off.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = piped.run(PipelineKind::kBklw, parts, cfg);

  // The straggler missed rounds by late delivery, identically in both.
  EXPECT_GT(a.deadline_misses, 0u);
  EXPECT_EQ(b.deadline_misses, a.deadline_misses);
  EXPECT_EQ(b.result.centers, a.result.centers);
  EXPECT_EQ(b.result.uplink, a.result.uplink);
  EXPECT_EQ(b.energy_joules, a.energy_joules);
  // The sender-side schedule proves the miss well before the cutoff,
  // and the critical-path bound brackets the result.
  EXPECT_LT(b.server_completion_seconds, a.server_completion_seconds);
  EXPECT_GE(b.server_completion_seconds, b.server_critical_path_seconds);
}

TEST(Pipeline, LateFrameNeverAliasesTheNextRound) {
  // Site 2 sits behind a 1 kbps link: its round-r frame is still on the
  // air when round r+1 opens. Round r's receive consumes the late frame
  // (abandoning it); an r+1-scoped receive reaching the same link while
  // the r frame is queued is cross-round aliasing and must trip the
  // fabric's assert rather than hand round r's data to round r+1.
  SimNetwork net(3,
                 parse_scenario("radio=wifi,site2.bandwidth=1000,pipeline=on"));
  const auto send_late = [&] {
    Message msg;
    msg.payload.resize(1 << 14);
    msg.wire_bits = 100'000;  // ~100 s at 1 kbps: late for any 2 s round
    msg.scalars = 4;
    net.uplink(2).send(std::move(msg));
  };

  // Correct lifecycle: the round that sent the frame receives it.
  const RoundId r1 = net.open_round(2.0);
  send_late();
  const RoundId r2 = net.open_round(2.0);  // pipelined round r+1 opens
  EXPECT_FALSE(net.uplink(2).receive_by(r1).has_value());  // late → miss
  send_late();
  EXPECT_FALSE(net.uplink(2).receive_by(r2).has_value());

  // Violation: a frame sent under r3 but reached for with r4's handle.
  const RoundId r3 = net.open_round(2.0);
  send_late();
  const RoundId r4 = net.open_round(2.0);
  EXPECT_GT(r4, r3);
  EXPECT_THROW((void)net.uplink(2).receive_by(r4), precondition_error);
}

TEST(Pipeline, DeterministicAcrossThreadCounts) {
  const auto parts = make_parts(12, 1800, 16, 23);
  const PipelineConfig cfg = base_config(23);
  const Coordinator coord(parse_scenario(
      "lossy-mesh,seed=23,deadline=4,retry=giveup,pipeline=on"));

  set_parallel_threads(1);
  const SimReport one = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(8);
  const SimReport eight = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(0);

  ASSERT_EQ(one.event_log.size(), eight.event_log.size());
  for (std::size_t i = 0; i < one.event_log.size(); ++i) {
    EXPECT_EQ(one.event_log[i], eight.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(one.completion_seconds, eight.completion_seconds);
  EXPECT_EQ(one.server_completion_seconds, eight.server_completion_seconds);
  EXPECT_EQ(one.server_critical_path_seconds,
            eight.server_critical_path_seconds);
  EXPECT_EQ(one.energy_joules, eight.energy_joules);
  EXPECT_EQ(one.result.uplink, eight.result.uplink);
  EXPECT_EQ(one.result.centers, eight.result.centers);
}

// --- event-log cap (scenario `event-log=off|N`) ---------------------------

TEST(EventLog, CapShrinksTraceNotMetrics) {
  const auto parts = make_parts(4, 1200, 16, 23);
  const PipelineConfig cfg = base_config(23);
  const Coordinator full(parse_scenario("lossy-mesh,seed=23"));
  const Coordinator capped(parse_scenario("lossy-mesh,seed=23,event-log=40"));
  const Coordinator off(parse_scenario("lossy-mesh,seed=23,event-log=off"));

  const SimReport a = full.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = capped.run(PipelineKind::kBklw, parts, cfg);
  const SimReport c = off.run(PipelineKind::kBklw, parts, cfg);

  ASSERT_GT(a.event_log.size(), 40u);
  EXPECT_EQ(b.event_log.size(), 40u);
  EXPECT_EQ(c.event_log.size(), 0u);
  // Only the retained trace shrinks; every metric is untouched.
  for (const SimReport* r : {&b, &c}) {
    EXPECT_EQ(r->completion_seconds, a.completion_seconds);
    EXPECT_EQ(r->server_completion_seconds, a.server_completion_seconds);
    EXPECT_EQ(r->energy_joules, a.energy_joules);
    EXPECT_EQ(r->deadline_misses, a.deadline_misses);
    EXPECT_EQ(r->result.uplink, a.result.uplink);
    EXPECT_EQ(r->result.centers, a.result.centers);
  }
}

// --- supplemental-miss accounting (exact data loss) -----------------------

TEST(Supplemental, WaveFrameMissesAreClassified) {
  // Frames sent under open_subround carry the wave tag; a miss of one
  // is supplemental (the sender's first-wave data stands), where the
  // same miss in the main collection is real data loss.
  SimNetwork net(1, parse_scenario("radio=wifi,site0.bandwidth=1000"));
  const auto send_big = [&] {
    Message msg;
    msg.payload.resize(1 << 17);
    msg.wire_bits = 1'000'000;  // ~1000 s at 1 kbps: can never make 2 s
    msg.scalars = 4;
    net.uplink(0).send(std::move(msg));
  };
  const RoundId round = net.open_round(2.0);
  send_big();
  EXPECT_FALSE(net.uplink(0).receive_by(round).has_value());
  EXPECT_EQ(net.missed_frames(), 1u);
  EXPECT_EQ(net.supplemental_misses(), 0u);

  const RoundId wave = net.open_subround(round, net.round_cutoff(round));
  send_big();
  EXPECT_FALSE(net.uplink(0).receive_by(wave).has_value());
  EXPECT_EQ(net.missed_frames(), 2u);
  EXPECT_EQ(net.supplemental_misses(), 1u);
  EXPECT_EQ(net.uplink_view(0).stats().supplemental, 1u);

  // The next round resets the wave tag.
  const RoundId next = net.open_round(2.0);
  send_big();
  EXPECT_FALSE(net.uplink(0).receive_by(next).has_value());
  EXPECT_EQ(net.missed_frames(), 3u);
  EXPECT_EQ(net.supplemental_misses(), 1u);
  (void)net.finish();  // asserts supplemental <= missed per link
}

TEST(Supplemental, DownlinkFramesAreNeverWaveTagged) {
  // Regression: in_wave_ only resets at the next open_round, and a
  // later phase may broadcast *before* opening its round (refine
  // pushes centers first). Those downlink frames must not be tagged as
  // wave supplements — a lost broadcast is real data impact and must
  // stay out of the loses-nothing bucket.
  SimNetwork net(1, parse_scenario("radio=wifi,loss=0.9,retries=0,seed=3"));
  const RoundId rid = net.open_round(2.0);
  (void)net.open_subround(rid, net.round_cutoff(rid));
  // Post-wave "next phase" broadcasts, still under the stale wave flag:
  // at 90% loss with no retries most of these expire.
  std::size_t missed = 0;
  for (int i = 0; i < 20; ++i) {
    Message msg;
    msg.wire_bits = 512;
    msg.scalars = 8;
    net.downlink(0).send(std::move(msg));
    missed += !net.downlink(0).receive_by(kNoRound).has_value();
  }
  EXPECT_GT(missed, 0u);  // p(no expiry in 20 frames) ~ 1e-20
  EXPECT_EQ(net.supplemental_misses(), 0u);
  EXPECT_EQ(net.downlink_view(0).stats().supplemental, 0u);
  EXPECT_EQ(net.downlink_view(0).stats().missed, missed);
  (void)net.finish();
}

TEST(Supplemental, ReportSplitsExactLoss) {
  // The forced-straggler realloc shape: site 1 reports cost but misses
  // the summary round; the wave re-splits its budget among the three
  // responders, whose supplements all deliver. deadline_misses counts
  // site 1's abandoned frames only, nothing supplemental — and the two
  // site-drop counters agree.
  const std::size_t m = 4;
  const auto parts = make_parts(m, 1600, 12, 91);
  const PipelineConfig cfg = base_config(91);
  const Coordinator coord(parse_scenario(
      "radio=5g,sps=1e-3,deadline=4,realloc-reserve=0.5,"
      "site1.speed=0.02,seed=91"));
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_GE(report.realloc_waves, 1u);
  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_EQ(report.supplemental_misses, 0u);
  EXPECT_EQ(report.sites_dropped, 1u);
  EXPECT_EQ(report.sites_data_dropped, 1u);

  // Under frame loss, wave supplements can miss too; the split stays
  // coherent: supplements are a subset of misses, and a site whose
  // only miss is a superseded supplement is not a data drop.
  const Coordinator lossy(parse_scenario(
      "radio=5g,sps=1e-3,deadline=4,realloc-reserve=0.5,loss=0.2,"
      "retries=1,site1.speed=0.02,seed=91"));
  const SimReport faulty = lossy.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_LE(faulty.supplemental_misses, faulty.deadline_misses);
  EXPECT_LE(faulty.sites_data_dropped, faulty.sites_dropped);
}

// --- fleet churn, trace-driven links, adaptive quantization ---------------

TEST(Scenario, ParserHandlesChurnTraceAndQuant) {
  const SimScenario s = parse_scenario(
      "radio=wifi,churn=0.05,quant=adaptive,site0.join=2,site1.leave=3.5,"
      "site0.trace=0:8000:0.1;5:1e6:0:0.25");
  EXPECT_DOUBLE_EQ(s.churn_rate, 0.05);
  EXPECT_EQ(s.round.quant, QuantPolicy::kAdaptive);
  ASSERT_EQ(s.site_overrides.size(), 3u);
  EXPECT_DOUBLE_EQ(s.site_overrides[0].join_s.value(), 2.0);
  EXPECT_DOUBLE_EQ(s.site_overrides[1].leave_s.value(), 3.5);
  const auto& trace = s.site_overrides[2].trace;
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(trace[0].bandwidth_bps, 8000.0);
  EXPECT_DOUBLE_EQ(trace[0].loss_rate, 0.1);
  EXPECT_FALSE(trace[0].dropout_rate.has_value());  // keep the base rate
  EXPECT_DOUBLE_EQ(trace[1].start_s, 5.0);
  EXPECT_DOUBLE_EQ(trace[1].loss_rate, 0.0);
  ASSERT_TRUE(trace[1].dropout_rate.has_value());
  EXPECT_DOUBLE_EQ(*trace[1].dropout_rate, 0.25);
  EXPECT_FALSE(s.fault_free());

  // Defaults: fixed quantization, no churn. A membership schedule or a
  // loss/dropout-injecting trace makes the scenario faulty; a
  // bandwidth-only trace shifts timing but never a frame's fate.
  EXPECT_EQ(parse_scenario("ideal").round.quant, QuantPolicy::kFixed);
  EXPECT_DOUBLE_EQ(parse_scenario("ideal").churn_rate, 0.0);
  EXPECT_TRUE(parse_scenario("site0.trace=0:8000:0").fault_free());
  EXPECT_FALSE(parse_scenario("site0.trace=0:8000:0.1").fault_free());
  EXPECT_FALSE(parse_scenario("site0.trace=0:8000:0:0.1").fault_free());
  EXPECT_FALSE(parse_scenario("site0.leave=4").fault_free());
  EXPECT_FALSE(parse_scenario("site0.join=4").fault_free());
  EXPECT_FALSE(parse_scenario("churn=0.1").fault_free());

  // Malformed values fail loudly.
  EXPECT_THROW((void)parse_scenario("churn=-1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("churn=nan"), precondition_error);
  EXPECT_THROW((void)parse_scenario("churn="), precondition_error);
  EXPECT_THROW((void)parse_scenario("quant=sometimes"), precondition_error);
  EXPECT_THROW((void)parse_scenario("quant="), precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.join=-1"), precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.join=inf"), precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.leave=0"), precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.trace="), precondition_error);
  // Segments: bandwidth must be positive, loss in [0,1), the field
  // count 3 or 4, every number a number, and starts strictly increasing.
  EXPECT_THROW((void)parse_scenario("site0.trace=0:0:0"), precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.trace=0:1000:1"),
               precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.trace=0:1000"), precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.trace=0:1000:0:0.5:7"),
               precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.trace=x:1000:0"),
               precondition_error);
  EXPECT_THROW((void)parse_scenario("site0.trace=0:1000:0;0:2000:0"),
               precondition_error);
  try {
    (void)parse_scenario("site2.trace=5:1000:0;3:2000:0");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("site2.trace"), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, LaterSiteOverridesWin) {
  // Overrides apply in declaration order — the grammar's documented
  // "later overrides win" rule, locked by this regression test.
  const SimScenario s = parse_scenario(
      "radio=wifi,site0.bandwidth=1000,site0.loss=0.2,site0.retry=backoff,"
      "site0.bandwidth=2000,site0.loss=0.4,site0.retry=giveup");
  const std::vector<Site> fleet = make_fleet(1, s);
  EXPECT_DOUBLE_EQ(fleet[0].radio.bandwidth_bps, 2000.0);
  EXPECT_DOUBLE_EQ(fleet[0].loss_rate, 0.4);
  EXPECT_EQ(fleet[0].retry, RetryStrategy::kGiveUp);
}

TEST(Churn, MidRoundLeaveDropsTheSiteOnceNotPerFrame) {
  // Site 0's two-frame summary (think disPCA's Σ/V pair) is half
  // arrived when the site leaves: frame 1 is through before the
  // departure, frame 2's send would start after it and orphans without
  // keying the radio. The group receive counts exactly one site miss —
  // not one per frame — and no frame is double-counted in any ledger.
  SimNetwork net(2, parse_scenario(
      "radio=wifi,sps=0,site0.bandwidth=1000,site0.leave=1"));
  const RoundId round = net.open_round(100.0);
  for (int f = 0; f < 2; ++f) {
    Message msg;
    msg.wire_bits = 1000;  // 1 s + latency per frame at 1 kbps
    msg.scalars = 0;
    net.uplink(0).send(std::move(msg));
  }
  const auto frames = receive_frames_by(net.uplink(0), 2, round);
  EXPECT_FALSE(frames.has_value());  // all-or-nothing: ONE site miss
  (void)net.finish();  // asserts the ledgers, incl. orphaned <= expired

  const LinkStats& stats = net.uplink_view(0).stats();
  EXPECT_EQ(net.uplink_view(0).ledger().messages, 2u);
  EXPECT_EQ(stats.attempts, 1u);  // frame 2 never keyed the radio
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.orphaned, 1u);
  EXPECT_EQ(stats.missed, 1u);
  EXPECT_EQ(net.missed_frames(), 1u);
  EXPECT_EQ(net.orphaned_frames(), 1u);
  EXPECT_EQ(net.leaves(), 1u);
  EXPECT_EQ(net.joins(), 0u);
}

TEST(Churn, FarFutureLeaveIsBitIdenticalToStaticFleet) {
  // A membership schedule activates the churn machinery, but a leave
  // the run never reaches must not perturb anything: the gates draw no
  // randomness, so events, clocks, energy and centers reproduce the
  // static fleet bit for bit — and the join/leave census stays empty.
  const auto parts = make_parts(4, 1200, 16, 23);
  const PipelineConfig cfg = base_config(23);
  const Coordinator fleet(parse_scenario("lossy-mesh,seed=23"));
  const Coordinator late(parse_scenario("lossy-mesh,seed=23,site0.leave=1e9"));
  const SimReport a = fleet.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = late.run(PipelineKind::kBklw, parts, cfg);
  ASSERT_EQ(b.event_log.size(), a.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    EXPECT_EQ(b.event_log[i], a.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(b.completion_seconds, a.completion_seconds);
  EXPECT_EQ(b.energy_joules, a.energy_joules);
  EXPECT_EQ(b.result.uplink, a.result.uplink);
  EXPECT_EQ(b.result.centers, a.result.centers);
  EXPECT_EQ(b.joins, 0u);
  EXPECT_EQ(b.leaves, 0u);
  EXPECT_EQ(b.orphaned_frames, 0u);
}

TEST(Churn, PipelineSurvivesAnEarlyLeaver) {
  // Site 3 departs before it can ship anything heavier than its cost
  // scalar: its frames orphan, the deadline rounds treat it as a
  // dropped responder, and the model is built from the remaining sites.
  const auto parts = make_parts(4, 1200, 16, 53);
  const PipelineConfig cfg = base_config(53);
  const Coordinator coord(
      parse_scenario("radio=wifi,deadline=5,site3.leave=1e-6,seed=53"));
  const SimReport report = coord.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_EQ(report.leaves, 1u);
  EXPECT_EQ(report.joins, 0u);
  EXPECT_GT(report.orphaned_frames, 0u);
  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_GE(report.sites_dropped, 1u);
  EXPECT_EQ(report.result.centers.rows(), cfg.k);
  // Orphans are expiries; the report's counter agrees with the links.
  EXPECT_LE(report.orphaned_frames,
            report.uplink_stats.expired + report.downlink_stats.expired);
}

TEST(Churn, StochasticChurnIsDeterministicAcrossThreadCounts) {
  // Churn draws come from dedicated per-site streams consumed on the
  // protocol thread, so the whole membership schedule — and everything
  // downstream of it — is identical at any pool size.
  // LoRa transfers take virtual seconds, so an Exp(0.1) leave/rejoin
  // process actually fires inside the run — the census must be
  // non-trivial for the determinism claim to mean anything.
  const auto parts = make_parts(4, 1200, 16, 83);
  const PipelineConfig cfg = base_config(83);
  const Coordinator coord(
      parse_scenario("radio=lora,deadline=30,churn=0.1,seed=83"));

  set_parallel_threads(1);
  const SimReport one = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(8);
  const SimReport eight = coord.run(PipelineKind::kBklw, parts, cfg);
  set_parallel_threads(0);

  EXPECT_GT(one.joins + one.leaves, 0u);
  ASSERT_EQ(one.event_log.size(), eight.event_log.size());
  for (std::size_t i = 0; i < one.event_log.size(); ++i) {
    EXPECT_EQ(one.event_log[i], eight.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(one.joins, eight.joins);
  EXPECT_EQ(one.leaves, eight.leaves);
  EXPECT_EQ(one.orphaned_frames, eight.orphaned_frames);
  EXPECT_EQ(one.completion_seconds, eight.completion_seconds);
  EXPECT_EQ(one.energy_joules, eight.energy_joules);
  EXPECT_EQ(one.result.centers, eight.result.centers);
}

TEST(Trace, SegmentMatchingBaseRadioIsBitIdentical) {
  // A single segment pinning exactly the base radio's bandwidth (Wi-Fi,
  // 50 Mbps) and the fleet loss rate changes no arithmetic and no draw:
  // the traced run reproduces the plain run bit for bit.
  const auto parts = make_parts(3, 900, 8, 9);
  const PipelineConfig cfg = base_config(9);
  const Coordinator plain(parse_scenario("radio=wifi,loss=0.2,retries=4,seed=9"));
  const Coordinator traced(parse_scenario(
      "radio=wifi,loss=0.2,retries=4,seed=9,"
      "site0.trace=0:5e7:0.2,site1.trace=0:5e7:0.2"));
  const SimReport a = plain.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = traced.run(PipelineKind::kBklw, parts, cfg);
  ASSERT_EQ(b.event_log.size(), a.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    EXPECT_EQ(b.event_log[i], a.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(b.completion_seconds, a.completion_seconds);
  EXPECT_EQ(b.energy_joules, a.energy_joules);
  EXPECT_EQ(b.result.uplink, a.result.uplink);
  EXPECT_EQ(b.result.centers, a.result.centers);
}

TEST(Trace, SegmentsLayerBandwidthAndLossUnderTheRadio) {
  // Bandwidth: the opening 1 kbps segment stretches a 1000-bit frame to
  // ~1 s of airtime where the base Wi-Fi radio would take microseconds;
  // once the site's clock passes t=10 the second segment restores a
  // fast link and the same frame costs milliseconds.
  SimNetwork net(1, parse_scenario("radio=wifi,site0.trace=0:1000:0;10:1e6:0"));
  const auto send_frame = [&](std::size_t scalars) {
    Message msg;
    msg.wire_bits = 1000;
    msg.scalars = scalars;
    net.uplink(0).send(std::move(msg));
    (void)net.uplink(0).receive();
  };
  send_frame(0);
  const double slow_airtime = net.uplink_view(0).stats().airtime_s;
  EXPECT_GT(slow_airtime, 1.0);
  // 2e8 scalars at the default 1e-7 s/scalar push the clock past the
  // segment boundary before the attempt starts.
  send_frame(200'000'000);
  EXPECT_LT(net.uplink_view(0).stats().airtime_s, slow_airtime + 0.1);
  (void)net.finish();

  // Loss: a segment injects per-attempt loss on a fleet whose base loss
  // is zero — drops appear without touching any other site's stream.
  SimNetwork lossy(1, parse_scenario(
      "radio=wifi,retries=8,seed=3,site0.trace=0:1e6:0.9"));
  for (int i = 0; i < 20; ++i) {
    Message msg;
    msg.wire_bits = 512;
    msg.scalars = 0;
    lossy.uplink(0).send(std::move(msg));
    (void)lossy.uplink(0).receive_by(kNoRound);
  }
  EXPECT_GT(lossy.uplink_view(0).stats().drops, 0u);
  (void)lossy.finish();
}

TEST(Quant, AdaptiveIsBitIdenticalWhenBudgetsFit) {
  // Adaptive quantization consults the budget but narrows nothing when
  // every full-width frame fits its round: the run reproduces the
  // fixed-policy run — events, ledgers, centers — bit for bit.
  const auto parts = make_parts(4, 1200, 16, 19);
  const PipelineConfig cfg = base_config(19);
  const Coordinator fixed(parse_scenario("radio=wifi,deadline=1e6,seed=19"));
  const Coordinator adaptive(
      parse_scenario("radio=wifi,deadline=1e6,quant=adaptive,seed=19"));
  const SimReport a = fixed.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = adaptive.run(PipelineKind::kBklw, parts, cfg);
  ASSERT_EQ(b.event_log.size(), a.event_log.size());
  for (std::size_t i = 0; i < a.event_log.size(); ++i) {
    EXPECT_EQ(b.event_log[i], a.event_log[i]) << "event " << i;
  }
  EXPECT_EQ(b.completion_seconds, a.completion_seconds);
  EXPECT_EQ(b.result.uplink, a.result.uplink);
  EXPECT_EQ(b.result.centers, a.result.centers);
}

TEST(Quant, AdaptiveNarrowsFramesToSurviveDeadlines) {
  // Two sites ride an 8 kbps trace link: their full-width summary
  // coresets cannot cross inside the round budget, so the fixed policy
  // loses their data to the deadline. Adaptive narrows those frames
  // until they fit — strictly fewer misses and more of the fleet's
  // data in the model, paid for in quantized coordinates (fewer wire
  // bits, a different — degraded — solution).
  const auto parts = make_parts(4, 1600, 16, 63);
  const PipelineConfig cfg = base_config(63);
  const char* base =
      "radio=wifi,deadline=4,retry=giveup,seed=63,"
      "site0.trace=0:8000:0,site1.trace=0:8000:0";
  const Coordinator fixed(parse_scenario(base));
  const Coordinator adaptive(
      parse_scenario(std::string(base) + ",quant=adaptive"));
  const SimReport a = fixed.run(PipelineKind::kBklw, parts, cfg);
  const SimReport b = adaptive.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_GT(a.deadline_misses, 0u);
  EXPECT_LT(b.deadline_misses, a.deadline_misses);
  EXPECT_GT(b.result.summary_points, a.result.summary_points);
  EXPECT_LT(b.result.uplink.bits, a.result.uplink.bits);
  EXPECT_EQ(b.result.centers.rows(), cfg.k);
}

// Only disSS narrows frames. The NR round sends at the configured width,
// so it rejects quant=adaptive instead of running as if it were fixed.
TEST(Quant, AdaptiveRejectedByNrRound) {
  const auto parts = make_parts(4, 800, 8, 64);
  const Coordinator coord(
      parse_scenario("radio=wifi,deadline=0.5,quant=adaptive,seed=64"));
  try {
    (void)coord.run(PipelineKind::kNoReduction, parts, base_config(64));
    FAIL() << "the NR round accepted quant=adaptive";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("NR round: quant=adaptive"),
              std::string::npos)
        << e.what();
  }
}

TEST(Exhaustion, EmptyShardWithRefineStaysFrameAligned) {
  // An empty site never projects or samples, but it still receives
  // every broadcast (basis, allocation, refine centers). Each must be
  // consumed in its own phase — a stale frame left queued would be
  // decoded as the next phase's payload. Bit-parity with the
  // synchronous Network proves the alignment.
  auto parts = make_parts(3, 900, 8, 57);
  parts.emplace_back();  // one empty site
  PipelineConfig cfg = base_config(57);
  cfg.refine_iters = 2;
  const PipelineResult sync =
      run_distributed_pipeline(PipelineKind::kBklw, parts, cfg);
  const Coordinator coord(parse_scenario("ideal"));
  const SimReport sim = coord.run(PipelineKind::kBklw, parts, cfg);
  EXPECT_EQ(sim.result.centers, sync.centers);
  EXPECT_EQ(sim.result.uplink, sync.uplink);
  EXPECT_EQ(sim.result.downlink, sync.downlink);
}

}  // namespace
}  // namespace ekm
