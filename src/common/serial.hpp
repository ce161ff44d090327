// Binary (de)serialization used by the simulated edge network.
//
// The communication-cost metric of the paper is "number of scalars" /
// "number of bits" sent by data sources; we measure it by actually
// serializing every summary into a ByteWriter and counting bytes plus the
// sub-byte bit budget reported by the quantizer. Little-endian, fixed
// width, no padding — the format is part of the experiment, not just a
// transport detail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/expects.hpp"

namespace ekm {

/// Append-only binary writer.
class ByteWriter {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &value, sizeof(T));
  }

  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_f64(double v) { put(v); }

  void put_doubles(std::span<const double> vals) {
    put_u64(vals.size());
    if (vals.empty()) return;  // empty span's data() may be null
    // Appended as they are: no zero-filled run to copy over.
    const auto* bytes = reinterpret_cast<const std::byte*>(vals.data());
    buf_.insert(buf_.end(), bytes, bytes + vals.size_bytes());
  }

  [[nodiscard]] std::size_t size_bytes() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Sequential binary reader over a byte span. Throws on overrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    EKM_EXPECTS_MSG(pos_ + sizeof(T) <= data_.size(), "ByteReader overrun");
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  [[nodiscard]] std::uint32_t get_u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get<std::uint64_t>(); }
  [[nodiscard]] double get_f64() { return get<double>(); }

  /// The length prefix of a run of doubles, checked against the bytes
  /// left; append_doubles then reads the run.
  [[nodiscard]] std::size_t get_doubles_count() {
    const auto n = get_u64();
    // Divide instead of multiply: n * sizeof(double) could wrap for a
    // hostile length field and sneak past the bound.
    EKM_EXPECTS_MSG(n <= (data_.size() - pos_) / sizeof(double),
                    "ByteReader overrun (doubles)");
    return static_cast<std::size_t>(n);
  }

  /// Appends the next n doubles to `out`.
  void append_doubles(std::size_t n, std::vector<double>& out) {
    EKM_EXPECTS_MSG(n <= (data_.size() - pos_) / sizeof(double),
                    "ByteReader overrun (doubles)");
    if (n == 0) return;  // empty out's data() may be null
    const std::size_t old = out.size();
    out.resize(old + n);
    std::memcpy(out.data() + old, data_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
  }

  [[nodiscard]] std::vector<double> get_doubles() {
    std::vector<double> vals;
    append_doubles(get_doubles_count(), vals);
    return vals;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace ekm
