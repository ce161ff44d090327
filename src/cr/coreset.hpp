// Coreset representation (Definition 3.2 of the paper).
//
// A coreset is the tuple (S, Δ, w): a weighted point set plus a constant
// cost offset. The paper's definition generalizes classic coresets by the
// Δ term, which FSS needs to account for the energy discarded by its
// PCA step. Points may be stored either in the ambient space or as
// coordinates in a subspace with an explicit orthonormal basis — the
// distinction is what separates FSS's O(kd/ε²) communication cost (basis
// must be shipped) from Algorithm 2's ˜O(k³/ε⁶) (no basis on the wire).
#pragma once

#include <optional>

#include "data/dataset.hpp"
#include "linalg/matrix.hpp"

namespace ekm {

struct Coreset {
  /// Weighted points. If `basis` is set these are coordinates in the
  /// subspace spanned by the rows of *basis; otherwise ambient points.
  Dataset points;
  /// Constant cost offset Δ of Definition 3.2 (eq. (4)).
  double delta = 0.0;
  /// Optional orthonormal basis (t x d, rows orthonormal): the ambient
  /// representation of point i is points.point(i) * basis.
  std::optional<Matrix> basis;

  [[nodiscard]] std::size_t size() const { return points.size(); }

  /// Materializes ambient points (identity if there is no basis).
  [[nodiscard]] Dataset to_ambient() const;
};

}  // namespace ekm
