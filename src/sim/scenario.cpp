#include "sim/scenario.hpp"

#include <cmath>

#include "common/expects.hpp"
#include "common/parse_num.hpp"

namespace ekm {
namespace {

SimScenario wifi_office() {
  SimScenario s;
  s.radio = wifi_link();
  s.loss_rate = 0.01;
  s.jitter_frac = 0.05;
  return s;
}

SimScenario ble_swarm() {
  SimScenario s;
  s.radio = ble_link();
  s.loss_rate = 0.02;
  s.dropout_rate = 0.05;
  s.outage_seconds = 2.0;
  s.jitter_frac = 0.1;
  return s;
}

SimScenario lora_field() {
  SimScenario s;
  s.radio = lora_link();
  s.loss_rate = 0.05;
  s.dropout_rate = 0.02;
  s.outage_seconds = 30.0;
  s.jitter_frac = 0.2;
  s.site_speed_skew = 2.0;
  return s;
}

SimScenario nr5g_fleet() {
  SimScenario s;
  s.radio = nr5g_link();
  s.loss_rate = 0.005;
  s.straggler_fraction = 0.25;
  s.straggler_slowdown = 4.0;
  return s;
}

SimScenario lossy_mesh() {
  SimScenario s;
  s.radio = wifi_link();
  s.loss_rate = 0.2;
  s.dropout_rate = 0.1;
  s.outage_seconds = 1.0;
  s.jitter_frac = 0.3;
  return s;
}

SimScenario hetero_mesh() {
  SimScenario s;
  s.radio = wifi_link();
  s.radio_cycle = {wifi_link(), ble_link(), lora_link()};
  s.loss_rate = 0.05;
  s.dropout_rate = 0.02;
  s.outage_seconds = 2.0;
  s.jitter_frac = 0.1;
  s.site_speed_skew = 2.0;
  return s;
}

SimScenario deadline_fleet() {
  SimScenario s;
  s.radio = nr5g_link();
  s.loss_rate = 0.01;
  s.jitter_frac = 0.05;
  s.straggler_fraction = 0.25;
  s.straggler_slowdown = 16.0;
  // Compute-dominated fleet (think the local SVD on a microcontroller):
  // at typical bench shapes a fast site finishes a round in a couple of
  // virtual seconds, the 16x straggling quarter needs tens — an
  // 8-second budget drops the stragglers and keeps everyone else with
  // comfortable margin.
  s.seconds_per_scalar = 1e-3;
  s.round.deadline_s = 8.0;
  // Half the round budget is reserved for the budget-reallocation
  // wave: fast sites finish well inside the 4-second first-wave
  // window, and a dropped straggler's sample allocation comes back as
  // responder-side resolution instead of vanishing.
  s.round.realloc_reserve = 0.5;
  return s;
}

// The named presets in listing order: the one place a preset's name is
// written. A default SimScenario is `ideal`.
struct Preset {
  const char* name;
  SimScenario (*make)();
};
constexpr Preset kPresets[] = {
    {"ideal", [] { return SimScenario{}; }},
    {"wifi-office", wifi_office},
    {"ble-swarm", ble_swarm},
    {"lora-field", lora_field},
    {"nr5g-fleet", nr5g_fleet},
    {"lossy-mesh", lossy_mesh},
    {"hetero-mesh", hetero_mesh},
    {"deadline-fleet", deadline_fleet},
};

LinkModel radio_by_name(const std::string& key, const std::string& name) {
  if (name == "lora") return lora_link();
  if (name == "ble") return ble_link();
  if (name == "wifi") return wifi_link();
  if (name == "5g" || name == "nr5g") return nr5g_link();
  EKM_EXPECTS_MSG(false, "unknown radio class '" + name + "' for scenario key '" +
                             key + "' (expected lora|ble|wifi|5g)");
  return {};
}

RetryStrategy retry_by_name(const std::string& key, const std::string& name) {
  const auto strategy = retry_strategy_from_name(name);
  EKM_EXPECTS_MSG(strategy.has_value(),
                  "unknown retry strategy '" + name + "' for scenario key '" +
                      key + "' (expected fixed|backoff|giveup)");
  return *strategy;
}

bool bool_by_name(const std::string& key, const std::string& value) {
  if (value == "on" || value == "1" || value == "true") return true;
  if (value == "off" || value == "0" || value == "false") return false;
  EKM_EXPECTS_MSG(false, "malformed boolean for scenario key '" + key +
                             "': '" + value + "' (expected on|off)");
  return false;
}

/// Checked double parse (common/parse_num.hpp): the whole token must be
/// consumed — `loss=0.1x` and `loss=` are configuration typos, not
/// values, and must fail loudly naming the key.
double parse_double(const std::string& key, const std::string& value) {
  EKM_EXPECTS_MSG(!value.empty(),
                  "empty value for scenario key '" + key + "'");
  const auto v = parse_full_double(value);
  EKM_EXPECTS_MSG(v.has_value(),
                  "malformed value for scenario key '" + key + "': '" + value +
                      "'");
  return *v;
}

/// Checked integer parse — rejects empty values, trailing garbage, and
/// fractional values that a double-then-cast would silently truncate
/// (`retries=2.5` was accepted as 2 before this existed).
long long parse_int(const std::string& key, const std::string& value) {
  EKM_EXPECTS_MSG(!value.empty(),
                  "empty value for scenario key '" + key + "'");
  const auto v = parse_full_ll(value);
  EKM_EXPECTS_MSG(v.has_value(),
                  "malformed integer for scenario key '" + key + "': '" +
                      value + "'");
  return *v;
}

/// `siteN.trace=start:bw:loss[:dropout];...` — piecewise link-quality
/// segments over virtual time. Starts must be strictly increasing so
/// the active segment at any instant is unambiguous.
std::vector<TraceSegment> parse_trace(const std::string& key,
                                      const std::string& value) {
  EKM_EXPECTS_MSG(!value.empty(), "empty value for scenario key '" + key + "'");
  std::vector<TraceSegment> trace;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t semi = value.find(';', pos);
    const std::string seg_str =
        value.substr(pos, semi == std::string::npos ? std::string::npos
                                                    : semi - pos);
    pos = semi == std::string::npos ? value.size() + 1 : semi + 1;
    std::vector<std::string> fields;
    std::size_t fpos = 0;
    while (fpos <= seg_str.size()) {
      const std::size_t colon = seg_str.find(':', fpos);
      fields.push_back(seg_str.substr(
          fpos, colon == std::string::npos ? std::string::npos : colon - fpos));
      fpos = colon == std::string::npos ? seg_str.size() + 1 : colon + 1;
    }
    EKM_EXPECTS_MSG(fields.size() == 3 || fields.size() == 4,
                    "malformed trace segment '" + seg_str +
                        "' in scenario key '" + key +
                        "' (expected start:bandwidth:loss[:dropout])");
    TraceSegment seg;
    seg.start_s = parse_double(key, fields[0]);
    EKM_EXPECTS_MSG(std::isfinite(seg.start_s) && seg.start_s >= 0.0,
                    "trace segment start must be finite and >= 0 in scenario "
                    "key '" + key + "'");
    seg.bandwidth_bps = parse_double(key, fields[1]);
    EKM_EXPECTS_MSG(std::isfinite(seg.bandwidth_bps) && seg.bandwidth_bps > 0.0,
                    "trace segment bandwidth must be > 0 in scenario key '" +
                        key + "'");
    seg.loss_rate = parse_double(key, fields[2]);
    EKM_EXPECTS_MSG(seg.loss_rate >= 0.0 && seg.loss_rate < 1.0,
                    "trace segment loss must be in [0, 1) in scenario key '" +
                        key + "'");
    if (fields.size() == 4) {
      seg.dropout_rate = parse_double(key, fields[3]);
      EKM_EXPECTS_MSG(*seg.dropout_rate >= 0.0 && *seg.dropout_rate <= 1.0,
                      "trace segment dropout must be in [0, 1] in scenario "
                      "key '" + key + "'");
    }
    EKM_EXPECTS_MSG(trace.empty() || seg.start_s > trace.back().start_s,
                    "trace segment starts must be strictly increasing in "
                    "scenario key '" + key + "'");
    trace.push_back(seg);
  }
  return trace;
}

/// `siteN.key=value` per-site override. Appends one SiteOverride per
/// token; SimNetwork applies them in order, so later tokens win.
void apply_site_override(SimScenario& s, const std::string& key,
                         const std::string& value) {
  constexpr std::size_t kPrefixLen = 4;  // "site"
  const std::size_t dot = key.find('.');
  EKM_EXPECTS_MSG(dot != std::string::npos && dot > kPrefixLen,
                  "malformed per-site scenario key '" + key +
                      "' (expected siteN.radio|bandwidth|loss|dropout|speed|"
                      "retry|join|leave|trace)");
  const long long index =
      parse_int(key, key.substr(kPrefixLen, dot - kPrefixLen));
  EKM_EXPECTS_MSG(index >= 0,
                  "site index must be >= 0 in scenario key '" + key + "'");
  const std::string field = key.substr(dot + 1);

  SiteOverride o;
  o.site = static_cast<std::size_t>(index);
  o.key = key;
  if (field == "radio") {
    o.radio = radio_by_name(key, value);
  } else if (field == "bandwidth") {
    o.bandwidth_bps = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(*o.bandwidth_bps) && *o.bandwidth_bps > 0.0,
                    "bandwidth must be > 0 in scenario key '" + key + "'");
  } else if (field == "loss") {
    o.loss_rate = parse_double(key, value);
    EKM_EXPECTS_MSG(*o.loss_rate >= 0.0 && *o.loss_rate < 1.0,
                    "loss must be in [0, 1) in scenario key '" + key + "'");
  } else if (field == "dropout") {
    o.dropout_rate = parse_double(key, value);
    EKM_EXPECTS_MSG(*o.dropout_rate >= 0.0 && *o.dropout_rate <= 1.0,
                    "dropout must be in [0, 1] in scenario key '" + key + "'");
  } else if (field == "speed") {
    o.compute_speed = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(*o.compute_speed) && *o.compute_speed > 0.0,
                    "speed must be > 0 in scenario key '" + key + "'");
  } else if (field == "retry") {
    o.retry = retry_by_name(key, value);
  } else if (field == "join") {
    o.join_s = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(*o.join_s) && *o.join_s >= 0.0,
                    "join time must be finite and >= 0 in scenario key '" +
                        key + "'");
  } else if (field == "leave") {
    o.leave_s = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(*o.leave_s) && *o.leave_s > 0.0,
                    "leave time must be finite and > 0 in scenario key '" +
                        key + "'");
  } else if (field == "trace") {
    o.trace = parse_trace(key, value);
  } else {
    EKM_EXPECTS_MSG(false,
                    "unknown per-site field '" + field +
                        "' in scenario key '" + key +
                        "' (expected radio|bandwidth|loss|dropout|speed|retry|"
                        "join|leave|trace)");
  }
  s.site_overrides.push_back(std::move(o));
}

void apply_override(SimScenario& s, const std::string& key,
                    const std::string& value) {
  if (key.rfind("site", 0) == 0 && key.find('.') != std::string::npos) {
    apply_site_override(s, key, value);
  } else if (key == "radio") {
    s.radio = radio_by_name(key, value);
    // An explicit fleet-wide radio replaces a preset's mixed cycle
    // (hetero-mesh) — otherwise the override would be silently ignored.
    s.radio_cycle.clear();
  } else if (key == "loss") {
    s.loss_rate = parse_double(key, value);
    EKM_EXPECTS_MSG(s.loss_rate >= 0.0 && s.loss_rate < 1.0,
                    "loss must be in [0, 1)");
  } else if (key == "dropout") {
    s.dropout_rate = parse_double(key, value);
    EKM_EXPECTS_MSG(s.dropout_rate >= 0.0 && s.dropout_rate <= 1.0,
                    "dropout must be in [0, 1]");
  } else if (key == "outage") {
    s.outage_seconds = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(s.outage_seconds) && s.outage_seconds >= 0.0,
                    "outage must be finite and >= 0");
  } else if (key == "retries") {
    const long long v = parse_int(key, value);
    EKM_EXPECTS_MSG(v >= 0 && v <= 1 << 30, "retries must be in [0, 2^30]");
    s.max_retries = static_cast<int>(v);
  } else if (key == "jitter") {
    s.jitter_frac = parse_double(key, value);
    EKM_EXPECTS_MSG(s.jitter_frac >= 0.0 && s.jitter_frac < 1.0,
                    "jitter must be in [0, 1)");
  } else if (key == "stragglers") {
    s.straggler_fraction = parse_double(key, value);
    EKM_EXPECTS_MSG(s.straggler_fraction >= 0.0 && s.straggler_fraction <= 1.0,
                    "stragglers must be in [0, 1]");
  } else if (key == "slowdown") {
    s.straggler_slowdown = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(s.straggler_slowdown) &&
                        s.straggler_slowdown >= 1.0,
                    "slowdown must be >= 1");
  } else if (key == "skew") {
    s.site_speed_skew = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(s.site_speed_skew) &&
                        s.site_speed_skew >= 1.0,
                    "skew must be >= 1");
  } else if (key == "sps") {
    s.seconds_per_scalar = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(s.seconds_per_scalar) &&
                        s.seconds_per_scalar >= 0.0,
                    "sps must be finite and >= 0");
  } else if (key == "server-speed") {
    s.server_speed = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(s.server_speed) && s.server_speed > 0.0,
                    "server-speed must be > 0");
  } else if (key == "deadline") {
    // "inf" turns deadline rounds off explicitly (strtod parses it).
    s.round.deadline_s = parse_double(key, value);
    EKM_EXPECTS_MSG(s.round.deadline_s > 0.0 && !std::isnan(s.round.deadline_s),
                    "deadline must be > 0 (virtual seconds, or inf)");
  } else if (key == "min-responders") {
    const long long v = parse_int(key, value);
    EKM_EXPECTS_MSG(v >= 1, "min-responders must be >= 1");
    s.round.min_responders = static_cast<std::size_t>(v);
  } else if (key == "realloc") {
    s.round.reallocate = bool_by_name(key, value);
  } else if (key == "realloc-reserve") {
    s.round.realloc_reserve = parse_double(key, value);
    EKM_EXPECTS_MSG(s.round.realloc_reserve >= 0.0 &&
                        s.round.realloc_reserve < 1.0,
                    "realloc-reserve must be in [0, 1)");
  } else if (key == "pipeline") {
    s.round.pipeline = bool_by_name(key, value);
  } else if (key == "event-log") {
    // "off" = keep nothing; N = keep the first N events processed.
    if (value == "off") {
      s.event_log_limit = 0;
    } else {
      const long long v = parse_int(key, value);
      EKM_EXPECTS_MSG(v >= 0, "event-log must be 'off' or an integer >= 0");
      s.event_log_limit = static_cast<std::size_t>(v);
    }
  } else if (key == "retry") {
    s.retry.strategy = retry_by_name(key, value);
  } else if (key == "churn") {
    s.churn_rate = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(s.churn_rate) && s.churn_rate >= 0.0,
                    "churn must be finite and >= 0 (leave/rejoin events per "
                    "virtual second)");
  } else if (key == "quant") {
    const auto policy = quant_policy_from_name(value);
    EKM_EXPECTS_MSG(policy.has_value(),
                    "unknown quantization policy '" + value +
                        "' for scenario key 'quant' (expected fixed|adaptive)");
    s.round.quant = *policy;
  } else if (key == "backoff-base") {
    s.retry.backoff_base = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(s.retry.backoff_base) &&
                        s.retry.backoff_base >= 1.0,
                    "backoff-base must be >= 1");
  } else if (key == "backoff-cap") {
    s.retry.backoff_cap = parse_double(key, value);
    EKM_EXPECTS_MSG(std::isfinite(s.retry.backoff_cap) &&
                        s.retry.backoff_cap >= 1.0,
                    "backoff-cap must be >= 1");
  } else if (key == "backoff-jitter") {
    s.retry.backoff_jitter = parse_double(key, value);
    EKM_EXPECTS_MSG(s.retry.backoff_jitter >= 0.0 && s.retry.backoff_jitter < 1.0,
                    "backoff-jitter must be in [0, 1)");
  } else if (key == "seed") {
    // Full 64-bit parse — a double round-trip would collapse seeds
    // above 2^53 and overflow into UB near 2^64.
    EKM_EXPECTS_MSG(!value.empty(), "empty value for scenario key 'seed'");
    const auto v = parse_full_ull(value);
    EKM_EXPECTS_MSG(v.has_value(),
                    "malformed value for scenario key 'seed': '" + value + "'");
    s.seed = *v;
  } else {
    EKM_EXPECTS_MSG(false, "unknown scenario key '" + key + "'");
  }
}

// The preset names as the unknown-scenario error lists them.
std::string known_scenarios() {
  std::string known;
  for (const std::string& name : sim_scenario_names()) {
    known += (known.empty() ? "" : "|") + name;
  }
  return known;
}

}  // namespace

std::optional<RetryStrategy> retry_strategy_from_name(const std::string& name) {
  if (name == "fixed") return RetryStrategy::kFixed;
  if (name == "backoff") return RetryStrategy::kBackoff;
  if (name == "giveup") return RetryStrategy::kGiveUp;
  return std::nullopt;
}

std::vector<std::string> sim_scenario_names() {
  std::vector<std::string> names;
  for (const Preset& preset : kPresets) names.emplace_back(preset.name);
  return names;
}

std::optional<SimScenario> sim_scenario_preset(const std::string& name) {
  for (const Preset& preset : kPresets) {
    if (name != preset.name) continue;
    SimScenario s = preset.make();
    s.name = preset.name;
    return s;
  }
  return std::nullopt;
}

SimScenario parse_scenario(const std::string& spec) {
  SimScenario s;
  bool named = false;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (token.empty()) {
      EKM_EXPECTS_MSG(first && spec.empty(), "empty scenario token");
      break;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      EKM_EXPECTS_MSG(first && !named, "scenario name must come first");
      const auto preset = sim_scenario_preset(token);
      EKM_EXPECTS_MSG(preset.has_value(), "unknown scenario '" + token +
                                              "' (expected " +
                                              known_scenarios() + ")");
      s = *preset;
      named = true;
    } else {
      apply_override(s, token.substr(0, eq), token.substr(eq + 1));
      if (!named) s.name = "custom";
    }
    first = false;
  }
  return s;
}

}  // namespace ekm
