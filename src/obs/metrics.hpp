// Metrics registry — the counters/gauges/histograms half of the flight
// recorder (src/obs/recorder.hpp holds the span/event half).
//
// Design constraints, in order:
//   1. Deterministic serialization. Metrics live in a flat vector in
//      registration order; to_json() walks that vector, so two
//      registries fed the same registration + update sequence emit the
//      same bytes. No hash maps anywhere near the output path.
//   2. Zero interference. A registry only ever stores numbers handed to
//      it — it draws no randomness, touches no clock, and is updated
//      exclusively from the protocol thread, so attaching one to a run
//      cannot perturb RNG streams, event order, or any numeric path
//      (tests/test_obs.cpp holds the whole obs layer to that).
//   3. Cheap when off. Nothing in this header is consulted unless a
//      Recorder is attached; the registry itself is plain vectors.
//
// Counter  — monotone uint64 (frames missed, bits shipped).
// Gauge    — last-write-wins double (energy, server clock).
// Histogram — fixed upper-bound buckets + overflow, with sum/count, for
//            value distributions (quantizer widths, span durations).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ekm {

class MetricsRegistry {
 public:
  /// Opaque handle to a registered metric (index into the flat store).
  using Id = std::size_t;

  /// Registers a metric under `name`. Names should be dotted paths
  /// ("sim.deadline_misses"); re-registering a name returns the
  /// existing id (same kind required), so call sites can register
  /// idempotently.
  Id counter(const std::string& name);
  Id gauge(const std::string& name);
  /// `upper_bounds` must be strictly increasing; an implicit +inf
  /// overflow bucket is appended.
  Id histogram(const std::string& name, std::vector<double> upper_bounds);

  void add(Id id, std::uint64_t delta);   ///< counter += delta
  void set(Id id, double value);          ///< gauge = value
  void observe(Id id, double value);      ///< histogram sample

  [[nodiscard]] std::size_t size() const { return metrics_.size(); }

  /// One JSON object: {"name": value, ...} in registration order.
  /// Counters emit integers, gauges shortest-roundtrip doubles,
  /// histograms {"buckets": [...], "counts": [...], "sum": s,
  /// "count": n}. Deterministic byte-for-byte for a fixed
  /// registration + update history.
  [[nodiscard]] std::string to_json() const;

  /// Resets every value (not the registrations): counters to 0, gauges
  /// to 0.0, histogram counts/sums to 0. Used by per-round snapshots
  /// that want deltas rather than running totals.
  void reset_values();

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    Kind kind = Kind::kCounter;
    std::string name;
    std::uint64_t count = 0;            // counter value / histogram n
    double value = 0.0;                 // gauge value / histogram sum
    std::vector<double> bounds;         // histogram upper bounds
    std::vector<std::uint64_t> buckets; // bounds.size() + 1 (overflow)
  };

  Id register_metric(Kind kind, const std::string& name);

  std::vector<Metric> metrics_;  ///< registration order == output order
};

}  // namespace ekm
