// Per-frame quantization policy — graceful degradation under deadline
// pressure (scenario key `quant=`, RoundPolicy::quant; disSS reads it
// from Fabric::round_policy()).
//
// `fixed` is the paper's §6 setting: every coreset frame ships at the
// configured significand width (PipelineConfig::significant_bits),
// whatever the link looks like. `adaptive` lets a site consult the
// remaining round budget and its current link segment right before an
// uplink and drop to a narrower width from a small ladder when the
// frame would otherwise expire at the deadline — frames shrink instead
// of dying, trading resolution for survival. The server-side re-check
// semantics are exact either way: values quantized to s bits are
// representable at every width >= s, so the server's fixed-width
// re-quantization is a no-op on an adaptively narrowed frame.
#pragma once

#include <optional>
#include <string>

namespace ekm {

enum class QuantPolicy {
  kFixed,     ///< always the configured significand width (default)
  kAdaptive,  ///< narrow per frame when the round budget demands it
};

/// Single source of truth for the `quant=` grammar, shared by the
/// scenario parser and the CLI: "fixed" | "adaptive", nullopt otherwise.
[[nodiscard]] inline std::optional<QuantPolicy> quant_policy_from_name(
    const std::string& name) {
  if (name == "fixed") return QuantPolicy::kFixed;
  if (name == "adaptive") return QuantPolicy::kAdaptive;
  return std::nullopt;
}

}  // namespace ekm
