#include "cr/streaming.hpp"

#include <algorithm>

#include "cr/merge.hpp"
#include "net/summary_codec.hpp"

namespace ekm {

StreamingCoreset::StreamingCoreset(const StreamingCoresetOptions& opts)
    : opts_(opts) {
  EKM_EXPECTS(opts_.leaf_size >= 1);
  EKM_EXPECTS(opts_.coreset_size >= 1);
  EKM_EXPECTS(opts_.k >= 1);
}

void StreamingCoreset::insert(const Dataset& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (dim_ == 0) dim_ = batch.dim();
    EKM_EXPECTS_MSG(batch.dim() == dim_, "stream dimension changed");
    leaf_.emplace_back(batch.point(i).begin(), batch.point(i).end());
    leaf_weights_.push_back(batch.weight(i));
    ++points_seen_;
    if (leaf_.size() >= opts_.leaf_size) flush_leaf();
  }
}

Coreset StreamingCoreset::compress(const Dataset& points,
                                   std::uint64_t stream) const {
  SensitivitySampleOptions sopts;
  sopts.k = opts_.k;
  sopts.sample_size = opts_.coreset_size;
  sopts.include_bicriteria_centers = opts_.include_bicriteria_centers;
  Rng rng = make_rng(opts_.seed, stream);
  return sensitivity_sample(points, sopts, rng);
}

void StreamingCoreset::flush_leaf() {
  if (leaf_.empty()) return;
  Matrix pts(leaf_.size(), dim_);
  for (std::size_t i = 0; i < leaf_.size(); ++i) {
    std::copy(leaf_[i].begin(), leaf_[i].end(), pts.row_ptr(i));
  }
  Dataset buffer(std::move(pts), std::move(leaf_weights_));
  leaf_.clear();
  leaf_weights_ = {};
  carry(compress(buffer, ++compressions_), 0);
}

void StreamingCoreset::carry(Coreset coreset, std::size_t level) {
  if (levels_.size() <= level) levels_.resize(level + 1);
  if (!levels_[level]) {
    levels_[level] = std::move(coreset);
    return;
  }
  // Merge equal-level coresets and re-compress — binary-counter carry.
  Dataset merged = merge_weighted(*levels_[level], coreset);
  levels_[level].reset();
  carry(compress(merged, ++compressions_), level + 1);
}

Coreset StreamingCoreset::finalize() const {
  EKM_EXPECTS_MSG(points_seen_ > 0, "empty stream");
  // Union of the live levels plus the partial leaf.
  std::vector<Dataset> pieces;
  if (!leaf_.empty()) {
    Matrix pts(leaf_.size(), dim_);
    for (std::size_t i = 0; i < leaf_.size(); ++i) {
      std::copy(leaf_[i].begin(), leaf_[i].end(), pts.row(i).begin());
    }
    pieces.emplace_back(std::move(pts), leaf_weights_);
  }
  for (const auto& lvl : levels_) {
    if (lvl) pieces.push_back(lvl->points);
  }
  Coreset out;
  out.points = concatenate(pieces);
  if (out.points.size() > opts_.coreset_size) {
    out = compress(out.points, 0xf1a1ULL);  // final squeeze
  }
  return out;
}

std::size_t StreamingCoreset::live_levels() const {
  std::size_t live = 0;
  for (const auto& lvl : levels_) live += lvl.has_value();
  return live;
}

Coreset stream_round_uplink(StreamingCoreset& stream, const Dataset& batch,
                            Port& up, int significant_bits) {
  if (!batch.empty()) stream.insert(batch);
  Coreset summary;
  if (stream.points_seen() > 0) summary = stream.finalize();
  up.send(encode_coreset(summary, significant_bits));
  return summary;
}

std::size_t StreamingCoreset::resident_points() const {
  std::size_t resident = leaf_.size();
  for (const auto& lvl : levels_) {
    if (lvl) resident += lvl->size();
  }
  return resident;
}

}  // namespace ekm
