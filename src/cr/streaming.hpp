// Streaming coreset maintenance via merge-and-reduce
// [Har-Peled–Mazumdar STOC'04; Braverman–Feldman–Lang '16 — refs [19],
// [25] of the paper].
//
// Edge devices usually *collect* data over time rather than hold it all
// at once. The merge-and-reduce tree keeps one coreset per power-of-two
// bucket of the stream: incoming points fill a leaf buffer; full buffers
// are compressed by sensitivity sampling; equal-level coresets are merged
// (weighted union) and re-compressed, carrying the level up like binary
// addition. At any moment the union of the O(log n) live levels is a
// coreset of everything seen, with ε degrading by a factor logarithmic in
// the stream length — the classic trade documented in the paper's related
// work. finalize() therefore lets a device answer "summarize everything
// so far" at any time with memory O(|S| log n) instead of O(n).
#pragma once

#include <optional>
#include <vector>

#include "cr/sensitivity.hpp"
#include "net/channel.hpp"

namespace ekm {

struct StreamingCoresetOptions {
  std::size_t k = 2;
  std::size_t leaf_size = 512;     ///< raw points per leaf buffer
  std::size_t coreset_size = 128;  ///< |S| per compressed bucket
  std::uint64_t seed = 42;
  bool include_bicriteria_centers = true;
};

class StreamingCoreset {
 public:
  explicit StreamingCoreset(const StreamingCoresetOptions& opts);

  /// Feeds a batch (weights honoured), point by point: O(1) amortized
  /// per point plus the periodic compressions.
  void insert(const Dataset& batch);

  /// Weighted union of all live levels plus the partial leaf, compressed
  /// once more to `coreset_size` if it exceeds it. Does not disturb the
  /// stream state — more points may follow.
  [[nodiscard]] Coreset finalize() const;

  [[nodiscard]] std::size_t points_seen() const { return points_seen_; }

  /// Number of live merge levels (for tests: should stay O(log n)).
  [[nodiscard]] std::size_t live_levels() const;

  /// Current resident memory in points (leaf + live levels).
  [[nodiscard]] std::size_t resident_points() const;

 private:
  void flush_leaf();
  void carry(Coreset coreset, std::size_t level);
  [[nodiscard]] Coreset compress(const Dataset& points, std::uint64_t stream) const;

  StreamingCoresetOptions opts_;
  std::vector<std::vector<double>> leaf_;  // raw buffered points
  std::vector<double> leaf_weights_;
  std::size_t dim_ = 0;
  std::vector<std::optional<Coreset>> levels_;
  std::size_t points_seen_ = 0;
  std::uint64_t compressions_ = 0;
};

/// One deployment round over a network port: folds `batch` into the
/// stream, finalizes, and ships the summary through `up` (point
/// coordinates billed at `significant_bits`, §6). A round on a stream
/// that has still seen nothing ships an empty frame, so the server's
/// per-round receive stays matched even for late-starting sites.
/// Returns the summary that crossed the wire. Works over any Port —
/// the synchronous Channel or a simulated SimLink (src/sim/).
Coreset stream_round_uplink(StreamingCoreset& stream, const Dataset& batch,
                            Port& up, int significant_bits = 52);

}  // namespace ekm
