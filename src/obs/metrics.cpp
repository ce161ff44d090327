#include "obs/metrics.hpp"

#include <cstdio>

#include "common/expects.hpp"
#include "obs/json_util.hpp"

namespace ekm {
namespace {

/// %.17g — enough digits to round-trip any double, and the same format
/// the bench JSON emitters use, so obs output diffs cleanly against
/// them. Deterministic: printf of a finite double is locale-independent
/// for the "C" numeric locale the binaries run under.
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::register_metric(Kind kind,
                                                     const std::string& name) {
  EKM_EXPECTS_MSG(!name.empty(), "metric name must be non-empty");
  for (Id i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == name) {
      EKM_EXPECTS_MSG(metrics_[i].kind == kind,
                      "metric '" + name + "' re-registered as a different kind");
      return i;
    }
  }
  Metric m;
  m.kind = kind;
  m.name = name;
  metrics_.push_back(std::move(m));
  return metrics_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::counter(const std::string& name) {
  return register_metric(Kind::kCounter, name);
}

MetricsRegistry::Id MetricsRegistry::gauge(const std::string& name) {
  return register_metric(Kind::kGauge, name);
}

MetricsRegistry::Id MetricsRegistry::histogram(const std::string& name,
                                               std::vector<double> upper_bounds) {
  for (std::size_t i = 1; i < upper_bounds.size(); ++i) {
    EKM_EXPECTS_MSG(upper_bounds[i - 1] < upper_bounds[i],
                    "histogram bounds must be strictly increasing");
  }
  const Id id = register_metric(Kind::kHistogram, name);
  Metric& m = metrics_[id];
  if (m.buckets.empty()) {
    m.bounds = std::move(upper_bounds);
    m.buckets.assign(m.bounds.size() + 1, 0);
  }
  return id;
}

void MetricsRegistry::add(Id id, std::uint64_t delta) {
  EKM_EXPECTS(id < metrics_.size());
  EKM_EXPECTS_MSG(metrics_[id].kind == Kind::kCounter,
                  "add() on a non-counter metric");
  metrics_[id].count += delta;
}

void MetricsRegistry::set(Id id, double value) {
  EKM_EXPECTS(id < metrics_.size());
  EKM_EXPECTS_MSG(metrics_[id].kind == Kind::kGauge,
                  "set() on a non-gauge metric");
  metrics_[id].value = value;
}

void MetricsRegistry::observe(Id id, double value) {
  EKM_EXPECTS(id < metrics_.size());
  Metric& m = metrics_[id];
  EKM_EXPECTS_MSG(m.kind == Kind::kHistogram,
                  "observe() on a non-histogram metric");
  std::size_t b = 0;
  while (b < m.bounds.size() && value > m.bounds[b]) ++b;
  m.buckets[b] += 1;
  m.count += 1;
  m.value += value;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += '"';
    // Names are dotted identifiers today, but the writer must stay
    // total if a caller registers something wilder (obs/json_util.hpp).
    out += json_escape(m.name);
    out += "\": ";
    switch (m.kind) {
      case Kind::kCounter:
        append_u64(out, m.count);
        break;
      case Kind::kGauge:
        append_double(out, m.value);
        break;
      case Kind::kHistogram: {
        out += "{\"buckets\": [";
        for (std::size_t b = 0; b < m.bounds.size(); ++b) {
          if (b > 0) out += ", ";
          append_double(out, m.bounds[b]);
        }
        out += "], \"counts\": [";
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
          if (b > 0) out += ", ";
          append_u64(out, m.buckets[b]);
        }
        out += "], \"sum\": ";
        append_double(out, m.value);
        out += ", \"count\": ";
        append_u64(out, m.count);
        out += '}';
        break;
      }
    }
  }
  out += '}';
  return out;
}

void MetricsRegistry::reset_values() {
  for (Metric& m : metrics_) {
    m.count = 0;
    m.value = 0.0;
    for (std::uint64_t& b : m.buckets) b = 0;
  }
}

}  // namespace ekm
