#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/attribution.hpp"
#include "obs/json_util.hpp"

namespace ekm {
namespace {

// Track layout inside the virtual-time process (pid 1): tid 0 is the
// server, tid 1+i is site i, the event queue rides one past the
// highest site track, and the critical path gets its own track one
// past that. Host wall-clock spans (pipeline stages and kernels) live
// in their own process (pid 2) so Perfetto never tries to align wall and virtual
// timestamps on one timeline.
constexpr int kVirtualPid = 1;
constexpr int kHostPid = 2;

std::uint64_t virtual_tid(std::size_t actor) {
  return actor == kRecorderServerActor ? 0 : 1 + actor;
}

void emit_thread_name(std::FILE* f, int pid, std::uint64_t tid,
                      const std::string& name, bool& first) {
  std::fprintf(f,
               "%s  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": %d, "
               "\"tid\": %llu, \"args\": {\"name\": \"%s\"}}",
               first ? "" : ",\n", pid, static_cast<unsigned long long>(tid),
               json_escape(name).c_str());
  first = false;
}

/// One `ph:"s"`/`ph:"f"` flow pair — the causal arrow Perfetto draws
/// between two tracks. `bp:"e"` binds the finish to the enclosing
/// slice's end so arrows land on span edges, not slice starts.
void emit_flow(std::FILE* f, std::uint64_t id, const char* name,
               std::uint64_t from_tid, double from_ts_us,
               std::uint64_t to_tid, double to_ts_us, bool critical) {
  const char* cp_arg = critical ? ", \"args\": {\"cp\": 1}" : "";
  std::fprintf(f,
               ",\n  {\"ph\": \"s\", \"id\": %llu, \"name\": \"%s\", "
               "\"cat\": \"flow\", \"pid\": %d, \"tid\": %llu, "
               "\"ts\": %.17g%s}",
               static_cast<unsigned long long>(id), name, kVirtualPid,
               static_cast<unsigned long long>(from_tid), from_ts_us, cp_arg);
  std::fprintf(f,
               ",\n  {\"ph\": \"f\", \"bp\": \"e\", \"id\": %llu, "
               "\"name\": \"%s\", \"cat\": \"flow\", \"pid\": %d, "
               "\"tid\": %llu, \"ts\": %.17g%s}",
               static_cast<unsigned long long>(id), name, kVirtualPid,
               static_cast<unsigned long long>(to_tid), to_ts_us, cp_arg);
}

const char* hop_name(const CriticalHop& hop) {
  switch (hop.kind) {
    case ServerOpKind::kCompute: return "server compute";
    case ServerOpKind::kDownlinkForward: return "downlink";
    case ServerOpKind::kUplinkArrival: return "uplink arrival";
    default: return "cp";
  }
}

}  // namespace

bool write_chrome_trace(const Recorder& recorder, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  // Discover the fleet size from what was recorded, so the queue and
  // critical-path tracks land just past the last actor track.
  std::size_t max_site = 0;
  bool any_site = false;
  for (const RecordedSpan& s : recorder.spans()) {
    if (!s.wall && s.actor != kRecorderServerActor) {
      max_site = std::max(max_site, s.actor);
      any_site = true;
    }
  }
  for (const RecordedEvent& e : recorder.events()) {
    max_site = std::max(max_site, static_cast<std::size_t>(e.site));
    any_site = true;
  }
  const std::uint64_t queue_tid = any_site ? max_site + 2 : 1;
  const std::uint64_t cp_tid = queue_tid + 1;

  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;

  // Metadata: name the processes and every track we will emit onto.
  std::fprintf(f,
               "  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, "
               "\"args\": {\"name\": \"virtual time (simulated fabric)\"}}",
               kVirtualPid);
  first = false;
  std::fprintf(f,
               ",\n  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, "
               "\"args\": {\"name\": \"host wall clock\"}}",
               kHostPid);
  emit_thread_name(f, kVirtualPid, 0, "server", first);
  if (any_site) {
    for (std::size_t i = 0; i <= max_site; ++i) {
      emit_thread_name(f, kVirtualPid, 1 + i, "site " + std::to_string(i),
                       first);
    }
  }
  emit_thread_name(f, kVirtualPid, queue_tid, "event queue", first);
  emit_thread_name(f, kVirtualPid, cp_tid, "critical path", first);
  emit_thread_name(f, kHostPid, 0, "stages and kernels", first);

  for (const RecordedSpan& s : recorder.spans()) {
    const int pid = s.wall ? kHostPid : kVirtualPid;
    const std::uint64_t tid = s.wall ? 0 : virtual_tid(s.actor);
    const double ts_us = s.start_s * 1e6;
    const double dur_us = (s.finish_s - s.start_s) * 1e6;
    std::fprintf(f,
                 ",\n  {\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
                 "\"pid\": %d, \"tid\": %llu, \"ts\": %.17g, \"dur\": %.17g}",
                 json_escape(s.label).c_str(), json_escape(s.kind).c_str(),
                 pid, static_cast<unsigned long long>(tid), ts_us,
                 dur_us < 0.0 ? 0.0 : dur_us);
  }

  for (const RecordedEvent& e : recorder.events()) {
    std::fprintf(
        f,
        ",\n  {\"ph\": \"i\", \"name\": \"%s\", \"cat\": \"frame\", "
        "\"pid\": %d, \"tid\": %llu, \"ts\": %.17g, \"s\": \"t\", "
        "\"args\": {\"site\": %u, \"uplink\": %s, \"attempt\": %u, "
        "\"bits\": %llu}}",
        e.name, kVirtualPid, static_cast<unsigned long long>(queue_tid),
        e.time_s * 1e6, e.site, e.uplink ? "true" : "false",
        static_cast<unsigned>(e.attempt),
        static_cast<unsigned long long>(e.bits));
  }

  // Frames-in-flight counter (`ph:"C"`): every on-air attempt opens at
  // its kSendStart and closes at its kDeliver or kDrop — exactly one of
  // which exists per attempt — so the running sum is the number of
  // frames on the air. Events were recorded in queue-pop order, which
  // is not time order; a stable sort by time keeps simultaneous events
  // in their recorded (deterministic) order.
  {
    const std::vector<RecordedEvent>& events = recorder.events();
    std::vector<std::size_t> order(events.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&events](std::size_t a, std::size_t b) {
                       return events[a].time_s < events[b].time_s;
                     });
    std::int64_t in_flight = 0;
    for (const std::size_t i : order) {
      const RecordedEvent& e = events[i];
      if (std::strcmp(e.name, "send") == 0) {
        in_flight += 1;
      } else if (std::strcmp(e.name, "deliver") == 0 ||
                 std::strcmp(e.name, "drop") == 0) {
        in_flight -= 1;
      } else {
        continue;
      }
      std::fprintf(f,
                   ",\n  {\"ph\": \"C\", \"name\": \"sim.frames_in_flight\", "
                   "\"pid\": %d, \"ts\": %.17g, "
                   "\"args\": {\"frames\": %lld}}",
                   kVirtualPid, e.time_s * 1e6,
                   static_cast<long long>(in_flight));
    }
  }

  // Queue high-water counter: one sample per closed round, placed at
  // the round's commit time. Cumulative by construction (the queue
  // never forgets its peak), so the curve is a running maximum.
  for (const RoundSnapshot& snap : recorder.rounds()) {
    std::fprintf(f,
                 ",\n  {\"ph\": \"C\", \"name\": \"sim.queue_high_water\", "
                 "\"pid\": %d, \"ts\": %.17g, \"args\": {\"events\": %llu}}",
                 kVirtualPid, snap.server_time_s * 1e6,
                 static_cast<unsigned long long>(snap.queue_high_water));
  }

  // Causal arrows. Scheduler-recorded task-graph edges first, then the
  // attribution layer's critical path: one X span per hop on the
  // dedicated track (tagged cp=1) and one flow arrow per consumed
  // arrival from the sender's delivering attempt to the server.
  std::uint64_t flow_id = 0;
  for (const RecordedFlow& flow : recorder.flows()) {
    emit_flow(f, ++flow_id, flow.critical ? "cp" : "dep",
              virtual_tid(flow.from_actor), flow.from_s * 1e6,
              virtual_tid(flow.to_actor), flow.to_s * 1e6, flow.critical);
  }
  for (const RunAttribution& run : attribute_all_runs(recorder)) {
    for (const CriticalHop& hop : run.hops) {
      std::fprintf(f,
                   ",\n  {\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"cp\", "
                   "\"pid\": %d, \"tid\": %llu, \"ts\": %.17g, "
                   "\"dur\": %.17g, \"args\": {\"cp\": 1, \"site\": %u}}",
                   hop_name(hop), kVirtualPid,
                   static_cast<unsigned long long>(cp_tid),
                   hop.cp_before_s * 1e6,
                   (hop.cp_after_s - hop.cp_before_s) * 1e6, hop.site);
      if (hop.kind == ServerOpKind::kUplinkArrival &&
          hop.frame != kNoCausalFrame &&
          hop.frame < recorder.frame_causals().size()) {
        const FrameCausal& fc = recorder.frame_causals()[hop.frame];
        emit_flow(f, ++flow_id, "cp", virtual_tid(fc.site),
                  fc.send_start_s * 1e6, virtual_tid(kRecorderServerActor),
                  fc.arrival_s * 1e6, /*critical=*/true);
      }
    }
  }

  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_metrics_jsonl(const Recorder& recorder, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Annotate each round's line with its attribution when the recorded
  // op stream aligns with the snapshots (it always does for fabric-
  // driven runs; hand-driven recorders with no ops just skip this).
  // The concatenation of every run segment's rounds matches rounds()
  // in order, one entry per snapshot.
  std::vector<std::string> members;
  for (const RunAttribution& run : attribute_all_runs(recorder)) {
    for (const RoundBlame& row : run.rounds) {
      members.push_back(render_attribution_member(row));
    }
  }
  const bool annotate = members.size() == recorder.rounds().size();
  for (std::size_t i = 0; i < recorder.rounds().size(); ++i) {
    const RoundSnapshot& snap = recorder.rounds()[i];
    if (annotate && !snap.json_line.empty() &&
        snap.json_line.back() == '}') {
      // Splice `, "attribution": {...}` inside the line's closing brace
      // (the line stays one JSON object per round).
      std::fprintf(f, "%.*s, \"attribution\": %s}\n",
                   static_cast<int>(snap.json_line.size() - 1),
                   snap.json_line.c_str(), members[i].c_str());
    } else {
      std::fprintf(f, "%s\n", snap.json_line.c_str());
    }
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace ekm
