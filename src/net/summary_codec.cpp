#include "net/summary_codec.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/serial.hpp"

namespace ekm {
namespace {

constexpr std::uint32_t kTagCoreset = 0x434f5245;  // "CORE"
constexpr std::uint32_t kTagMatrix = 0x4d415452;   // "MATR"
constexpr std::uint32_t kTagScalar = 0x53434c52;   // "SCLR"

// Decoders treat every payload as if it came off a real wire: a frame
// decodes only if each field is well-formed, every value is finite and
// nothing trails the last field. Failures name the frame kind and the
// field.
std::string frame_error(const char* frame, const char* field,
                        const char* problem) {
  return std::string(frame) + " frame: " + field + " " + problem;
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

void put_matrix(ByteWriter& w, const Matrix& m) {
  w.put_u64(m.rows());
  w.put_u64(m.cols());
  w.put_doubles(m.flat());
}

// A matrix field's header: its shape, checked against the count of the
// cells that follow, which `r` is left at.
MatrixShape get_shape(ByteReader& r, const char* frame, const char* field) {
  const auto rows = r.get_u64();
  const auto cols = r.get_u64();
  const std::size_t count = r.get_doubles_count();
  // Guard the product against wrap-around from hostile headers before
  // trusting rows x cols as a shape.
  EKM_EXPECTS_MSG(rows == 0 || cols == count / rows,
                  frame_error(frame, field, "shape does not match its cells"));
  EKM_EXPECTS_MSG(count == rows * cols,
                  frame_error(frame, field, "shape does not match its cells"));
  return {static_cast<std::size_t>(rows), static_cast<std::size_t>(cols)};
}

// Appends the cells of a field of that shape to `cells` and checks them.
void append_cells(ByteReader& r, const MatrixShape& shape,
                  std::vector<double>& cells, const char* frame,
                  const char* field) {
  const std::size_t old = cells.size();
  r.append_doubles(shape.rows * shape.cols, cells);
  EKM_EXPECTS_MSG(all_finite(std::span<const double>(cells).subspan(old)),
                  frame_error(frame, field, "holds a non-finite value"));
}

Matrix get_matrix(ByteReader& r, const char* frame, const char* field) {
  const MatrixShape shape = get_shape(r, frame, field);
  std::vector<double> cells;
  append_cells(r, shape, cells, frame, field);
  return Matrix(shape.rows, shape.cols, std::move(cells));
}

// A matrix frame's tag and header; `r` is left at its first cell.
MatrixShape open_matrix_frame(ByteReader& r) {
  EKM_EXPECTS_MSG(r.get_u32() == kTagMatrix, "not a matrix frame");
  return get_shape(r, "matrix", "cells");
}

void expect_consumed(const ByteReader& r, const char* frame) {
  EKM_EXPECTS_MSG(r.exhausted(),
                  frame_error(frame, "payload", "has trailing bytes"));
}

}  // namespace

std::uint64_t wire_bits_per_scalar(int significant_bits) {
  if (significant_bits >= 52 || significant_bits <= 0) return 64;
  return 12 + static_cast<std::uint64_t>(significant_bits);
}

std::uint64_t coreset_wire_bits(const Coreset& coreset, int significant_bits) {
  const std::size_t point_scalars =
      coreset.points.size() * coreset.points.dim();
  const std::size_t basis_scalars =
      coreset.basis ? coreset.basis->rows() * coreset.basis->cols() : 0;
  const std::size_t n = coreset.points.size();
  return point_scalars * wire_bits_per_scalar(significant_bits) +
         (basis_scalars + n + 1) * 64;
}

Message encode_coreset(const Coreset& coreset, int significant_bits) {
  ByteWriter w;
  w.put_u32(kTagCoreset);
  put_matrix(w, coreset.points.points());
  w.put_f64(coreset.delta);
  const std::size_t n = coreset.points.size();
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) weights[i] = coreset.points.weight(i);
  w.put_doubles(weights);
  w.put_u32(coreset.basis ? 1 : 0);
  if (coreset.basis) put_matrix(w, *coreset.basis);

  Message msg;
  const std::size_t point_scalars = coreset.points.size() * coreset.points.dim();
  const std::size_t basis_scalars =
      coreset.basis ? coreset.basis->rows() * coreset.basis->cols() : 0;
  msg.scalars = point_scalars + basis_scalars + n /*weights*/ + 1 /*delta*/;
  msg.wire_bits = coreset_wire_bits(coreset, significant_bits);
  msg.payload = w.take();
  return msg;
}

Coreset decode_coreset(const Message& msg) {
  ByteReader r(msg.payload);
  EKM_EXPECTS_MSG(r.get_u32() == kTagCoreset, "not a coreset frame");
  Matrix pts = get_matrix(r, "coreset", "points");
  const double delta = r.get_f64();
  EKM_EXPECTS_MSG(std::isfinite(delta),
                  frame_error("coreset", "delta", "is not finite"));
  std::vector<double> weights = r.get_doubles();
  EKM_EXPECTS_MSG(weights.size() == pts.rows(),
                  frame_error("coreset", "weights", "count does not match "
                                                    "the points"));
  EKM_EXPECTS_MSG(std::all_of(weights.begin(), weights.end(),
                              [](double w) {
                                return std::isfinite(w) && w >= 0.0;
                              }),
                  frame_error("coreset", "weights",
                              "must be finite and non-negative"));
  const std::uint32_t has_basis = r.get_u32();
  EKM_EXPECTS_MSG(has_basis <= 1,
                  frame_error("coreset", "basis flag", "is neither 0 nor 1"));
  Coreset cs;
  cs.points = Dataset(std::move(pts), std::move(weights));
  cs.delta = delta;
  if (has_basis == 1) cs.basis = get_matrix(r, "coreset", "basis");
  expect_consumed(r, "coreset");
  return cs;
}

Message encode_matrix(const Matrix& m, int significant_bits) {
  ByteWriter w;
  w.put_u32(kTagMatrix);
  put_matrix(w, m);
  Message msg;
  msg.scalars = m.rows() * m.cols();
  msg.wire_bits = msg.scalars * wire_bits_per_scalar(significant_bits);
  msg.payload = w.take();
  return msg;
}

Matrix decode_matrix(const Message& msg) {
  std::vector<double> cells;
  const MatrixShape shape = append_matrix_cells(msg, cells);
  return Matrix(shape.rows, shape.cols, std::move(cells));
}

MatrixShape matrix_frame_shape(const Message& msg) {
  ByteReader r(msg.payload);
  const MatrixShape shape = open_matrix_frame(r);
  // A frame without cells is checked whole: a receiver may skip it here.
  if (shape.rows * shape.cols == 0) expect_consumed(r, "matrix");
  return shape;
}

MatrixShape append_matrix_cells(const Message& msg,
                                std::vector<double>& cells) {
  ByteReader r(msg.payload);
  const MatrixShape shape = open_matrix_frame(r);
  const std::size_t old = cells.size();
  try {
    append_cells(r, shape, cells, "matrix", "cells");
    expect_consumed(r, "matrix");
  } catch (...) {
    cells.resize(old);
    throw;
  }
  return shape;
}

Message encode_scalar(double value) {
  ByteWriter w;
  w.put_u32(kTagScalar);
  w.put_f64(value);
  Message msg;
  msg.scalars = 1;
  msg.wire_bits = 64;
  msg.payload = w.take();
  return msg;
}

double decode_scalar(const Message& msg) {
  ByteReader r(msg.payload);
  EKM_EXPECTS_MSG(r.get_u32() == kTagScalar, "not a scalar frame");
  const double value = r.get_f64();
  EKM_EXPECTS_MSG(std::isfinite(value),
                  frame_error("scalar", "value", "is not finite"));
  expect_consumed(r, "scalar");
  return value;
}

}  // namespace ekm
