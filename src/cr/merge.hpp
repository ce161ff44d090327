// Shared associative-merge layer for summaries.
//
// Coreset summaries are built from one associative operator, the
// weighted union: disSS's server union and the streaming
// merge-and-reduce carry both call through here.
//
// Determinism contract: merges are folds over an explicit operand
// order. A fixed order (the protocols use ascending site index) gives
// bitwise-stable output; permuting the operands permutes rows of the
// result but preserves the weighted point multiset exactly
// (tests/test_cr.cpp).
#pragma once

#include <vector>

#include "cr/coreset.hpp"

namespace ekm {

/// Weighted union of two coresets: points of `a` then points of `b`,
/// weights carried through unchanged. The associative operator behind
/// the streaming merge-and-reduce tree. Ignores delta/basis (both are
/// 0/absent on every coreset that crosses this merge — disSS and
/// streaming summaries are ambient).
[[nodiscard]] Dataset merge_weighted(const Coreset& a, const Coreset& b);

/// Ordered weighted union of many summary pieces: concatenation in
/// operand order, empty pieces skipped. This is disSS's server union.
/// Returns an empty Dataset when every piece is empty (callers enforce
/// their own non-empty invariants).
[[nodiscard]] Dataset merge_union(std::vector<Dataset> pieces);

}  // namespace ekm
