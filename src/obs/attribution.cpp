#include "obs/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "net/channel.hpp"

namespace ekm {
namespace {

/// %.17g — the round-trip-exact double format every obs writer uses.
void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

/// Charges `min(remaining, max(0, length))` to `category` and returns
/// the charge — the backward walk over a frame's causal segments.
double charge(double& remaining, double length, double* blame,
              BlameCategory category) {
  const double take = std::min(remaining, std::max(0.0, length));
  if (take > 0.0) {
    blame[static_cast<std::size_t>(category)] += take;
    remaining -= take;
  }
  return take;
}

struct Segment {
  std::size_t begin = 0;  ///< first op past the kBeginRun marker
  std::size_t end = 0;    ///< one past the last op
};

/// The op stream split at kBeginRun markers: one segment per run, in
/// recording order. Empty segments (a run that applied no ops) are
/// kept — the rounds() alignment in the metrics exporter needs every
/// run represented. A recorder that never saw begin_run (hand-driven
/// in tests) yields one whole-stream segment.
std::vector<Segment> run_segments(const std::vector<ServerOp>& ops) {
  std::vector<Segment> segments;
  std::size_t begin = 0;
  bool seen_marker = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != ServerOpKind::kBeginRun) continue;
    if (seen_marker || i > begin) segments.push_back({begin, i});
    begin = i + 1;
    seen_marker = true;
  }
  if (seen_marker || ops.size() > begin) {
    segments.push_back({begin, ops.size()});
  }
  return segments;
}

RunAttribution attribute_segment(const Recorder& recorder, Segment segment) {
  const std::vector<ServerOp>& ops = recorder.server_ops();
  const std::vector<FrameCausal>& causals = recorder.frame_causals();

  RunAttribution run;
  run.valid = segment.end > segment.begin;

  // The replayed clocks. Bit-for-bit fidelity rests on this loop
  // applying the exact operations SimNetwork applied, in order, with
  // the same IEEE arithmetic — nothing may be resorted or re-associated.
  double server = 0.0;
  double cp = 0.0;
  std::uint64_t current_round = 0;
  std::vector<double> cutoffs;  ///< by round ordinal - 1

  auto round_row = [&](std::uint64_t ordinal) -> RoundBlame& {
    // Ops before the first kRoundOpen (the initial broadcast of a
    // protocol that opens its round afterwards) fold into round 1.
    const std::uint64_t want = std::max<std::uint64_t>(ordinal, 1);
    while (run.rounds.size() < want) {
      RoundBlame row;
      row.round = run.rounds.size() + 1;
      row.cutoff_s = kNoDeadline;
      run.rounds.push_back(row);
    }
    return run.rounds[want - 1];
  };
  auto actor_row = [&](std::uint32_t site) -> ActorAttribution& {
    const std::size_t want = static_cast<std::size_t>(site) + 1;
    while (run.actors.size() < want) {
      ActorAttribution a;
      a.actor = run.actors.size();
      a.min_slack_s = std::numeric_limits<double>::infinity();
      run.actors.push_back(a);
    }
    return run.actors[site];
  };

  for (std::size_t i = segment.begin; i < segment.end; ++i) {
    const ServerOp& op = ops[i];
    const double server_before = server;
    const double cp_before = cp;
    switch (op.kind) {
      case ServerOpKind::kBeginRun:
        continue;  // never inside a segment, but harmless
      case ServerOpKind::kRoundOpen: {
        // Stamp the closing round's clocks before switching context.
        if (current_round > 0) {
          RoundBlame& prev = round_row(current_round);
          prev.commit_s = server;
          prev.critical_path_s = cp;
        }
        current_round = op.round;
        RoundBlame& row = round_row(current_round);
        row.cutoff_s = op.value;
        cutoffs.resize(
            std::max<std::size_t>(cutoffs.size(), current_round), kNoDeadline);
        cutoffs[current_round - 1] = op.value;
        continue;
      }
      case ServerOpKind::kCompute:
        server += op.value;
        cp += op.value;
        break;
      case ServerOpKind::kDownlinkForward:
        server = std::max(server, op.value);
        cp = std::max(cp, op.value);
        break;
      case ServerOpKind::kUplinkArrival:
        server = std::max(server, op.value);
        cp = std::max(cp, op.value);
        break;
      case ServerOpKind::kMissLearn:
        server = std::max(server, op.value);
        // Deliberately not cp: the mirror clock skips learn waits.
        break;
    }

    // --- blame: the interval this op advanced the server clock by ---
    const double delta = server - server_before;
    RoundBlame& row = round_row(current_round);
    switch (op.kind) {
      case ServerOpKind::kCompute:
        row.blame[static_cast<std::size_t>(BlameCategory::kServerCompute)] +=
            delta;
        break;
      case ServerOpKind::kDownlinkForward:
        row.blame[static_cast<std::size_t>(BlameCategory::kDownlink)] += delta;
        break;
      case ServerOpKind::kMissLearn:
        row.blame[static_cast<std::size_t>(BlameCategory::kDeadlineWait)] +=
            delta;
        break;
      case ServerOpKind::kUplinkArrival: {
        double remaining = delta;
        if (op.frame != kNoCausalFrame && op.frame < causals.size()) {
          const FrameCausal& fc = causals[op.frame];
          // Backward from the arrival: the delivering attempt's
          // airtime, earlier attempts, the link-busy wait, the
          // sender's own compute, and finally whatever the sender was
          // itself waiting on before its compute began.
          charge(remaining, fc.arrival_s - fc.send_start_s, row.blame,
                 BlameCategory::kUplinkAirtime);
          charge(remaining, fc.send_start_s - fc.first_start_s, row.blame,
                 BlameCategory::kRetransmit);
          charge(remaining, fc.first_start_s - fc.ready_s, row.blame,
                 BlameCategory::kPipelineStall);
          charge(remaining, fc.compute_s + fc.outage_s, row.blame,
                 BlameCategory::kSiteCompute);
          charge(remaining, remaining, row.blame, BlameCategory::kDownlink);
        } else {
          charge(remaining, remaining, row.blame,
                 BlameCategory::kUplinkAirtime);
        }
        break;
      }
      default:
        break;
    }

    // --- critical-path hops (cp-advancing ops only) ---
    if (cp > cp_before) {
      run.hops.push_back({op.kind, op.site, op.frame, cp_before, cp});
    }

    // --- per-actor rollup + slack against the frame's round cutoff ---
    if (op.kind == ServerOpKind::kUplinkArrival ||
        op.kind == ServerOpKind::kMissLearn) {
      ActorAttribution& actor = actor_row(op.site);
      if (op.kind == ServerOpKind::kUplinkArrival && cp > cp_before) {
        actor.cp_seconds += cp - cp_before;
        actor.cp_frames += 1;
      }
      if (op.frame != kNoCausalFrame && op.frame < causals.size()) {
        const FrameCausal& fc = causals[op.frame];
        if (fc.round >= 1 && fc.round <= cutoffs.size() &&
            std::isfinite(cutoffs[fc.round - 1])) {
          const double slack = cutoffs[fc.round - 1] - op.value;
          if (!actor.slack_measured || slack < actor.min_slack_s) {
            actor.min_slack_s = slack;
          }
          actor.slack_measured = true;
        }
      }
    }
  }

  if (current_round > 0) {
    RoundBlame& last = round_row(current_round);
    last.commit_s = server;
    last.critical_path_s = cp;
  }
  run.server_completion_s = server;
  run.critical_path_s = cp;
  for (const RoundBlame& row : run.rounds) {
    for (std::size_t c = 0; c < kBlameCategoryCount; ++c) {
      run.blame_total[c] += row.blame[c];
    }
  }
  return run;
}

void append_blame_object(std::string& out, const double* blame) {
  out += "{";
  for (std::size_t c = 0; c < kBlameCategoryCount; ++c) {
    if (c > 0) out += ", ";
    out += "\"";
    out += blame_category_name(static_cast<BlameCategory>(c));
    out += "\": ";
    append_double(out, blame[c]);
  }
  out += "}";
}

/// Actors ranked most-to-blame first: tightest slack, then largest
/// critical-path contribution, then id — the "top-k slack-free actors".
std::vector<const ActorAttribution*> ranked_actors(const RunAttribution& run) {
  std::vector<const ActorAttribution*> ranked;
  for (const ActorAttribution& a : run.actors) {
    if (a.slack_measured || a.cp_frames > 0) ranked.push_back(&a);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ActorAttribution* a, const ActorAttribution* b) {
              const double sa =
                  a->slack_measured ? a->min_slack_s
                                    : std::numeric_limits<double>::infinity();
              const double sb =
                  b->slack_measured ? b->min_slack_s
                                    : std::numeric_limits<double>::infinity();
              if (sa != sb) return sa < sb;
              if (a->cp_seconds != b->cp_seconds) {
                return a->cp_seconds > b->cp_seconds;
              }
              return a->actor < b->actor;
            });
  return ranked;
}

// Slack histogram over per-site min slack. Fixed edges in seconds; the
// first bucket (<= 0) is the slack-free count — those sites bound their
// rounds.
constexpr double kSlackEdges[] = {0.0, 0.01, 0.1, 0.5, 1.0, 5.0};
constexpr std::size_t kSlackBuckets =
    sizeof(kSlackEdges) / sizeof(kSlackEdges[0]) + 1;

void slack_histogram(const RunAttribution& run, std::uint64_t* counts) {
  for (std::size_t b = 0; b < kSlackBuckets; ++b) counts[b] = 0;
  for (const ActorAttribution& a : run.actors) {
    if (!a.slack_measured) continue;
    std::size_t b = 0;
    while (b < kSlackBuckets - 1 && a.min_slack_s > kSlackEdges[b]) b += 1;
    counts[b] += 1;
  }
}

void append_slack_histogram(std::string& out, const RunAttribution& run) {
  std::uint64_t counts[kSlackBuckets];
  slack_histogram(run, counts);
  out += "{\"edges_s\": [";
  for (std::size_t b = 0; b < kSlackBuckets - 1; ++b) {
    if (b > 0) out += ", ";
    append_double(out, kSlackEdges[b]);
  }
  out += "], \"counts\": [";
  for (std::size_t b = 0; b < kSlackBuckets; ++b) {
    if (b > 0) out += ", ";
    append_u64(out, counts[b]);
  }
  out += "]}";
}

// --- diff-side mini scanner ------------------------------------------------
//
// The diff reads files this repo's own writers produced, so a
// full JSON parser is not needed: every value of interest is a
// `"key": <number>` pair on a one-object-per-line JSONL line. The
// scanner still fails loudly (exit 2) on lines that do not carry the
// expected keys, so a wrong file cannot silently diff as all-zeros.

bool find_number(const std::string& line, std::size_t from, const char* key,
                 double& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle, from);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(p, &end);
  if (end == p) return false;
  out = v;
  return true;
}

struct DiffTotals {
  std::uint64_t rounds = 0;
  double blame[kBlameCategoryCount] = {};
  double critical_path_s = 0.0;   ///< last round's replayed cp
  double server_commit_s = 0.0;   ///< last round's commit
};

/// Loads the attribution members of one metrics JSONL file. Returns
/// false (with a message in `err`) when the file is unreadable or no
/// line carries an attribution object.
bool load_totals(const std::string& path, DiffTotals& totals,
                 std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot read " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find("\"attribution\":");
    if (at == std::string::npos) continue;
    DiffTotals row;
    bool ok = find_number(line, at, "server_commit_seconds",
                          row.server_commit_s) &&
              find_number(line, at, "critical_path_seconds",
                          row.critical_path_s);
    for (std::size_t c = 0; ok && c < kBlameCategoryCount; ++c) {
      ok = find_number(line, at,
                       blame_category_name(static_cast<BlameCategory>(c)),
                       row.blame[c]);
    }
    if (!ok) {
      err = path + ": malformed attribution line";
      return false;
    }
    totals.rounds += 1;
    for (std::size_t c = 0; c < kBlameCategoryCount; ++c) {
      totals.blame[c] += row.blame[c];
    }
    totals.critical_path_s = row.critical_path_s;
    totals.server_commit_s = row.server_commit_s;
  }
  if (totals.rounds == 0) {
    err = path + ": no attribution data (was it written with --metrics-out "
                 "by a build with attribution?)";
    return false;
  }
  return true;
}

}  // namespace

const char* blame_category_name(BlameCategory c) {
  switch (c) {
    case BlameCategory::kServerCompute: return "server_compute";
    case BlameCategory::kDownlink: return "downlink";
    case BlameCategory::kSiteCompute: return "site_compute";
    case BlameCategory::kUplinkAirtime: return "uplink_airtime";
    case BlameCategory::kRetransmit: return "retransmit";
    case BlameCategory::kPipelineStall: return "pipeline_stall";
    case BlameCategory::kDeadlineWait: return "deadline_wait";
  }
  return "?";
}

RunAttribution attribute_run(const Recorder& recorder) {
  const std::vector<Segment> segments = run_segments(recorder.server_ops());
  if (segments.empty()) return RunAttribution{};
  return attribute_segment(recorder, segments.back());
}

std::vector<RunAttribution> attribute_all_runs(const Recorder& recorder) {
  std::vector<RunAttribution> out;
  for (const Segment& s : run_segments(recorder.server_ops())) {
    out.push_back(attribute_segment(recorder, s));
  }
  return out;
}

std::string render_explain_text(const RunAttribution& run, std::size_t top_k) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "attribution: server completion %.6fs, critical path %.6fs, "
                "%zu round%s\n",
                run.server_completion_s, run.critical_path_s,
                run.rounds.size(), run.rounds.size() == 1 ? "" : "s");
  out += buf;

  std::snprintf(buf, sizeof buf, "%5s %10s %10s", "round", "commit_s", "cp_s");
  out += buf;
  for (std::size_t c = 0; c < kBlameCategoryCount; ++c) {
    std::snprintf(buf, sizeof buf, " %14s",
                  blame_category_name(static_cast<BlameCategory>(c)));
    out += buf;
  }
  out += "\n";
  for (const RoundBlame& row : run.rounds) {
    std::snprintf(buf, sizeof buf, "%5llu %10.4f %10.4f",
                  static_cast<unsigned long long>(row.round), row.commit_s,
                  row.critical_path_s);
    out += buf;
    for (std::size_t c = 0; c < kBlameCategoryCount; ++c) {
      std::snprintf(buf, sizeof buf, " %14.6f", row.blame[c]);
      out += buf;
    }
    out += "\n";
  }
  std::snprintf(buf, sizeof buf, "%5s %10s %10s", "total", "", "");
  out += buf;
  for (std::size_t c = 0; c < kBlameCategoryCount; ++c) {
    std::snprintf(buf, sizeof buf, " %14.6f", run.blame_total[c]);
    out += buf;
  }
  out += "\n";

  const std::vector<const ActorAttribution*> ranked = ranked_actors(run);
  const std::size_t shown = std::min(top_k, ranked.size());
  if (shown > 0) out += "tightest-slack actors:\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const ActorAttribution& a = *ranked[i];
    if (a.slack_measured) {
      std::snprintf(buf, sizeof buf,
                    "  site %zu: min slack %.6fs, %.6fs on the critical path "
                    "(%llu frame%s)\n",
                    a.actor, a.min_slack_s, a.cp_seconds,
                    static_cast<unsigned long long>(a.cp_frames),
                    a.cp_frames == 1 ? "" : "s");
    } else {
      std::snprintf(buf, sizeof buf,
                    "  site %zu: unbounded rounds, %.6fs on the critical path "
                    "(%llu frame%s)\n",
                    a.actor, a.cp_seconds,
                    static_cast<unsigned long long>(a.cp_frames),
                    a.cp_frames == 1 ? "" : "s");
    }
    out += buf;
  }

  std::uint64_t counts[kSlackBuckets];
  slack_histogram(run, counts);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kSlackBuckets; ++b) total += counts[b];
  if (total == 0) return out;
  out += "slack histogram (sites):";
  for (std::size_t b = 0; b < kSlackBuckets; ++b) {
    if (b == 0) {
      std::snprintf(buf, sizeof buf, " <=0s: %llu",
                    static_cast<unsigned long long>(counts[b]));
    } else if (b < kSlackBuckets - 1) {
      std::snprintf(buf, sizeof buf, "  <=%gs: %llu", kSlackEdges[b],
                    static_cast<unsigned long long>(counts[b]));
    } else {
      std::snprintf(buf, sizeof buf, "  >%gs: %llu",
                    kSlackEdges[kSlackBuckets - 2],
                    static_cast<unsigned long long>(counts[b]));
    }
    out += buf;
  }
  out += "\n";
  return out;
}

std::string render_explain_json(const RunAttribution& run,
                                double reported_critical_path_s,
                                std::size_t top_k) {
  std::string out = "{\"explain\": {\"server_completion_seconds\": ";
  append_double(out, run.server_completion_s);
  out += ", \"critical_path_seconds\": ";
  append_double(out, run.critical_path_s);
  out += ", \"reported_server_critical_path_seconds\": ";
  append_double(out, reported_critical_path_s);
  out += ", \"matches_reported\": ";
  out += run.critical_path_s == reported_critical_path_s ? "true" : "false";
  out += ", \"blame\": ";
  append_blame_object(out, run.blame_total);
  out += ", \"rounds\": [";
  for (std::size_t i = 0; i < run.rounds.size(); ++i) {
    const RoundBlame& row = run.rounds[i];
    if (i > 0) out += ", ";
    out += "{\"round\": ";
    append_u64(out, row.round);
    out += ", \"cutoff_seconds\": ";
    if (std::isfinite(row.cutoff_s)) {
      append_double(out, row.cutoff_s);
    } else {
      out += "null";
    }
    out += ", ";
    out += render_attribution_member(row).substr(1);  // reuse, drop the '{'
  }
  out += "], \"top_actors\": [";
  const std::vector<const ActorAttribution*> ranked = ranked_actors(run);
  const std::size_t shown = std::min(top_k, ranked.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const ActorAttribution& a = *ranked[i];
    if (i > 0) out += ", ";
    out += "{\"actor\": ";
    append_u64(out, a.actor);
    out += ", \"critical_path_seconds\": ";
    append_double(out, a.cp_seconds);
    out += ", \"critical_path_frames\": ";
    append_u64(out, a.cp_frames);
    out += ", \"min_slack_seconds\": ";
    if (a.slack_measured) {
      append_double(out, a.min_slack_s);
    } else {
      out += "null";
    }
    out += "}";
  }
  out += "], \"slack_histogram\": ";
  append_slack_histogram(out, run);
  out += "}}";
  return out;
}

std::string render_attribution_member(const RoundBlame& round) {
  std::string out = "{\"server_commit_seconds\": ";
  append_double(out, round.commit_s);
  out += ", \"critical_path_seconds\": ";
  append_double(out, round.critical_path_s);
  out += ", \"blame\": ";
  append_blame_object(out, round.blame);
  out += "}";
  return out;
}

int explain_diff_files(const std::string& path_a, const std::string& path_b,
                       double rel_threshold, double abs_threshold_s,
                       std::string& out) {
  DiffTotals a;
  DiffTotals b;
  std::string err;
  if (!load_totals(path_a, a, err) || !load_totals(path_b, b, err)) {
    out += "explain-diff: " + err + "\n";
    return 2;
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "explain-diff: A=%s (%llu rounds)  B=%s (%llu rounds)\n",
                path_a.c_str(), static_cast<unsigned long long>(a.rounds),
                path_b.c_str(), static_cast<unsigned long long>(b.rounds));
  out += buf;
  std::snprintf(buf, sizeof buf, "%-16s %14s %14s %14s  %s\n", "category",
                "A_s", "B_s", "delta_s", "verdict");
  out += buf;
  bool regressed = false;
  auto judge = [&](const char* name, double va, double vb) {
    const double delta = vb - va;
    const bool bad = delta > abs_threshold_s &&
                     delta > rel_threshold * std::max(va, abs_threshold_s);
    regressed = regressed || bad;
    std::snprintf(buf, sizeof buf, "%-16s %14.6f %14.6f %+14.6f  %s\n", name,
                  va, vb, delta, bad ? "REGRESSED" : "ok");
    out += buf;
  };
  for (std::size_t c = 0; c < kBlameCategoryCount; ++c) {
    judge(blame_category_name(static_cast<BlameCategory>(c)), a.blame[c],
          b.blame[c]);
  }
  judge("critical_path", a.critical_path_s, b.critical_path_s);
  judge("server_commit", a.server_commit_s, b.server_commit_s);
  return regressed ? 1 : 0;
}

}  // namespace ekm
