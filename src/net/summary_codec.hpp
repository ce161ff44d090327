// Wire format for data summaries (coresets, PCA factors, scalars).
//
// Encoders produce a `Message` whose `wire_bits` reflects the logical
// encoding width: coreset/ matrix *data* scalars quantized to s
// significand bits are billed 12 + s bits each, everything else (weights,
// Δ, headers, dimensions) at full 64-bit width. Decoders reverse the
// framing; round-trip tests assert exactness. Decoders validate each
// frame as if it came off a real wire: a wrong tag, a malformed shape,
// a non-finite value, a negative weight or trailing bytes throw
// precondition_error naming the frame kind and the field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cr/coreset.hpp"
#include "linalg/matrix.hpp"
#include "net/channel.hpp"

namespace ekm {

/// Bits billed per data scalar when quantized to `significant_bits`
/// (52 = unquantized full double).
[[nodiscard]] std::uint64_t wire_bits_per_scalar(int significant_bits);

/// Wire bits a coreset frame would bill at `significant_bits`, without
/// encoding it — what adaptive quantization (qt/policy.hpp) weighs
/// against Fabric::uplink_airtime_s before committing to a width.
/// encode_coreset bills exactly this.
[[nodiscard]] std::uint64_t coreset_wire_bits(const Coreset& coreset,
                                              int significant_bits);

/// Encodes a coreset (S, Δ, w) — with optional subspace basis — into a
/// frame. `significant_bits` affects only the billing of the point
/// coordinates (the paper quantizes coreset points only; the basis, when
/// present, is part of the PCA summary and stays full-width).
[[nodiscard]] Message encode_coreset(const Coreset& coreset,
                                     int significant_bits = 52);

[[nodiscard]] Coreset decode_coreset(const Message& msg);

/// Encodes a dense matrix (e.g. the Σ_t1, V_t1 factors of disPCA, or raw
/// data for the NR baseline).
[[nodiscard]] Message encode_matrix(const Matrix& m, int significant_bits = 52);

[[nodiscard]] Matrix decode_matrix(const Message& msg);

/// The shape a matrix frame declares.
struct MatrixShape {
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// A matrix frame's shape, with its tag and header checked as
/// decode_matrix checks them; its cells are not read, and a frame with
/// none is checked whole, as decode_matrix checks it. A receiver checks
/// the shape against the one it expects before it commits any storage.
[[nodiscard]] MatrixShape matrix_frame_shape(const Message& msg);

/// Appends a matrix frame's cells, row-major, to `cells` and returns its
/// shape, with every check decode_matrix makes; on a throw `cells` is
/// left as it was. A receiver that joins frames decodes each straight
/// into its rows of one buffer, reserving their total first.
MatrixShape append_matrix_cells(const Message& msg,
                                std::vector<double>& cells);

/// Encodes a bare scalar (e.g. a local bicriteria cost in disSS step 1).
[[nodiscard]] Message encode_scalar(double value);

[[nodiscard]] double decode_scalar(const Message& msg);

}  // namespace ekm
