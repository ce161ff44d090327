// Tests for src/net: channel FIFO semantics, traffic ledgers, and the
// summary wire codecs (round-trip exactness, billing, and validation at
// decode).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/summary_codec.hpp"

namespace ekm {
namespace {

TEST(Channel, FifoOrder) {
  Channel ch;
  ch.send(encode_scalar(1.0));
  ch.send(encode_scalar(2.0));
  EXPECT_TRUE(ch.has_pending());
  EXPECT_DOUBLE_EQ(decode_scalar(ch.receive()), 1.0);
  EXPECT_DOUBLE_EQ(decode_scalar(ch.receive()), 2.0);
  EXPECT_FALSE(ch.has_pending());
  EXPECT_THROW((void)ch.receive(), precondition_error);
}

TEST(Channel, LedgerAccumulates) {
  Channel ch;
  ch.send(encode_scalar(1.0));
  ch.send(encode_scalar(2.0));
  const TrafficLedger& l = ch.ledger();
  EXPECT_EQ(l.messages, 2u);
  EXPECT_EQ(l.scalars, 2u);
  EXPECT_EQ(l.bits, 128u);
  EXPECT_GT(l.bytes, 16u);  // payload + framing
  // Receiving does not change the ledger.
  (void)ch.receive();
  EXPECT_EQ(ch.ledger().messages, 2u);
}

TEST(TrafficLedger, ResetAndPlus) {
  Channel ch;
  ch.send(encode_scalar(1.0));
  ch.send(encode_scalar(2.0));
  TrafficLedger a = ch.ledger();
  const TrafficLedger sum = a + ch.ledger();
  EXPECT_EQ(sum.messages, 4u);
  EXPECT_EQ(sum.scalars, 4u);
  EXPECT_EQ(sum.bits, 2u * a.bits);
  EXPECT_EQ(sum.bytes, 2u * a.bytes);
  a.reset();
  EXPECT_EQ(a, TrafficLedger{});
  EXPECT_EQ(a + sum, sum);
}

TEST(LinkModel, RoundTripHelpers) {
  const LinkModel link{"test", 1e6, 0.5, 2.0e-9};
  TrafficLedger up;
  up.bits = 1'000'000;
  up.messages = 2;
  TrafficLedger down;
  down.bits = 500'000;
  down.messages = 1;
  // Half-duplex: the round trip is the sum of the two directions.
  EXPECT_DOUBLE_EQ(link.round_trip_seconds(up, down),
                   link.transfer_seconds(up) + link.transfer_seconds(down));
  EXPECT_DOUBLE_EQ(link.round_trip_seconds(up, down), 1.0 + 1.0 + 0.5 + 0.5);
  EXPECT_DOUBLE_EQ(link.round_trip_joules(up, down),
                   (1'000'000 + 500'000) * 2.0e-9);
  // A zeroed downlink ledger degrades to the one-way figures.
  EXPECT_DOUBLE_EQ(link.round_trip_seconds(up, TrafficLedger{}),
                   link.transfer_seconds(up));
}

TEST(LinkModel, TransferTimeAndEnergy) {
  TrafficLedger t;
  t.bits = 1'000'000;
  t.messages = 10;
  const LinkModel wifi = wifi_link();
  // 1 Mbit at 50 Mbps = 0.02 s + 10 * 2 ms latency = 0.04 s.
  EXPECT_NEAR(wifi.transfer_seconds(t), 0.02 + 0.02, 1e-9);
  EXPECT_NEAR(wifi.transfer_joules(t), 1e6 * 5e-9, 1e-12);
}

TEST(LinkModel, RadioClassOrdering) {
  TrafficLedger t;
  t.bits = 8'000'000;
  t.messages = 4;
  EXPECT_GT(lora_link().transfer_seconds(t), ble_link().transfer_seconds(t));
  EXPECT_GT(ble_link().transfer_seconds(t), wifi_link().transfer_seconds(t));
  EXPECT_GT(wifi_link().transfer_seconds(t), nr5g_link().transfer_seconds(t));
}

TEST(Channel, IsAPort) {
  // The synchronous Channel and Network satisfy the Port/Fabric
  // interfaces the simulator shares (src/sim/).
  Channel ch;
  Port& port = ch;
  port.send(encode_scalar(4.0));
  EXPECT_TRUE(port.has_pending());
  EXPECT_DOUBLE_EQ(decode_scalar(port.receive()), 4.0);
  Network net(2);
  Fabric& fabric = net;
  fabric.uplink(1).send(encode_scalar(5.0));
  EXPECT_EQ(fabric.total_uplink().messages, 1u);
}

TEST(Network, UplinkAndDownlinkSeparated) {
  Network net(3);
  net.uplink(0).send(encode_scalar(1.0));
  net.uplink(2).send(encode_scalar(2.0));
  net.downlink(1).send(encode_scalar(3.0));
  EXPECT_EQ(net.total_uplink().messages, 2u);
  EXPECT_EQ(net.total_downlink().messages, 1u);
  EXPECT_EQ(net.total_uplink().scalars, 2u);
  EXPECT_THROW((void)net.uplink(3), precondition_error);
}

TEST(Codec, MatrixRoundTrip) {
  Rng rng = make_rng(70);
  const Matrix m = Matrix::gaussian(7, 5, rng);
  const Message msg = encode_matrix(m);
  EXPECT_EQ(msg.scalars, 35u);
  EXPECT_EQ(msg.wire_bits, 35u * 64);
  EXPECT_EQ(decode_matrix(msg), m);
}

TEST(Codec, EmptyMatrixRoundTrip) {
  const Message msg = encode_matrix(Matrix(0, 0));
  EXPECT_EQ(msg.scalars, 0u);
  const Matrix out = decode_matrix(msg);
  EXPECT_EQ(out.rows(), 0u);
}

TEST(Codec, QuantizedBillingReducesBits) {
  Rng rng = make_rng(71);
  const Matrix m = Matrix::gaussian(10, 10, rng);
  const Message full = encode_matrix(m, 52);
  const Message q8 = encode_matrix(m, 8);
  EXPECT_EQ(full.wire_bits, 100u * 64);
  EXPECT_EQ(q8.wire_bits, 100u * 20);  // 12 + 8 bits per scalar
  // Payload bytes identical — billing is logical, transport is doubles.
  EXPECT_EQ(full.payload.size(), q8.payload.size());
}

TEST(Codec, WireBitsPerScalarTable) {
  EXPECT_EQ(wire_bits_per_scalar(52), 64u);
  EXPECT_EQ(wire_bits_per_scalar(1), 13u);
  EXPECT_EQ(wire_bits_per_scalar(23), 35u);
  EXPECT_EQ(wire_bits_per_scalar(0), 64u);   // degenerate: treat as full
  EXPECT_EQ(wire_bits_per_scalar(-3), 64u);
}

TEST(Codec, CoresetRoundTripNoBasis) {
  Coreset cs;
  cs.points = Dataset(Matrix{{1.0, 2.0}, {3.0, 4.0}}, {0.5, 1.5});
  cs.delta = 7.25;
  const Message msg = encode_coreset(cs);
  EXPECT_EQ(msg.scalars, 4u + 2 + 1);  // coords + weights + delta
  const Coreset out = decode_coreset(msg);
  EXPECT_EQ(out.points.points(), cs.points.points());
  EXPECT_DOUBLE_EQ(out.points.weight(0), 0.5);
  EXPECT_DOUBLE_EQ(out.points.weight(1), 1.5);
  EXPECT_DOUBLE_EQ(out.delta, 7.25);
  EXPECT_FALSE(out.basis.has_value());
}

TEST(Codec, CoresetRoundTripWithBasis) {
  Coreset cs;
  cs.points = Dataset(Matrix{{2.0}}, {1.0});
  cs.basis = Matrix{{0.6, 0.8}};
  const Message msg = encode_coreset(cs);
  EXPECT_EQ(msg.scalars, 1u + 2 + 1 + 1);  // coords + basis + weight + delta
  const Coreset out = decode_coreset(msg);
  ASSERT_TRUE(out.basis.has_value());
  EXPECT_EQ(*out.basis, *cs.basis);
}

TEST(Codec, CoresetQuantizedBillingCountsPointsOnly) {
  Coreset cs;
  cs.points = Dataset(Matrix(4, 3), std::vector<double>(4, 1.0));
  cs.basis = Matrix(3, 10);
  const Message msg = encode_coreset(cs, 8);
  // 12 point scalars at 20 bits; 30 basis + 4 weights + 1 delta at 64.
  EXPECT_EQ(msg.wire_bits, 12u * 20 + (30u + 4 + 1) * 64);
}

TEST(Codec, EmptyCoresetRoundTrip) {
  const Message msg = encode_coreset(Coreset{});
  const Coreset out = decode_coreset(msg);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_DOUBLE_EQ(out.delta, 0.0);
}

TEST(Codec, TagMismatchThrows) {
  const Message m = encode_matrix(Matrix(1, 1));
  EXPECT_THROW((void)decode_coreset(m), precondition_error);
  EXPECT_THROW((void)decode_scalar(m), precondition_error);
  const Message s = encode_scalar(1.0);
  EXPECT_THROW((void)decode_matrix(s), precondition_error);
}

TEST(Codec, TruncatedFrameThrows) {
  Message msg = encode_matrix(Matrix(2, 2));
  msg.payload.resize(msg.payload.size() / 2);
  EXPECT_THROW((void)decode_matrix(msg), precondition_error);
}

// --- validation at decode: each test corrupts one valid encoded frame.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// A valid coreset frame whose values are distinct markers, so a test
// can find and overwrite exactly one field's bytes.
Coreset marked_coreset() {
  Coreset cs;
  cs.points = Dataset(Matrix{{1.25, 2.5}, {3.75, 4.5}}, {0.5, 7.5});
  cs.delta = 6.125;
  cs.basis = Matrix{{0.6, 0.8, 0.0}, {0.0, 0.0, 1.0}};
  return cs;
}

// The frame with the encoded double `marker` (which must occur once)
// overwritten by `value`.
Message with_replaced(Message msg, double marker, double value) {
  std::byte pattern[sizeof(double)];
  std::memcpy(pattern, &marker, sizeof(double));
  const auto at = std::search(msg.payload.begin(), msg.payload.end(),
                              std::begin(pattern), std::end(pattern));
  EXPECT_NE(at, msg.payload.end()) << "marker " << marker;
  if (at != msg.payload.end()) std::memcpy(&*at, &value, sizeof(double));
  return msg;
}

template <typename Decode>
void expect_rejected(Decode decode, const Message& msg,
                     const std::string& names) {
  try {
    (void)decode(msg);
    ADD_FAILURE() << "expected precondition_error naming '" << names << "'";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
        << e.what();
  }
}

TEST(Codec, TrailingBytesAreRejected) {
  ASSERT_NO_THROW((void)decode_coreset(encode_coreset(marked_coreset())));
  Message cs = encode_coreset(marked_coreset());
  cs.payload.push_back(std::byte{0});
  expect_rejected(decode_coreset, cs, "coreset frame: payload has trailing");
  Message m = encode_matrix(Matrix{{1.0, 2.0}});
  m.payload.push_back(std::byte{0});
  expect_rejected(decode_matrix, m, "matrix frame: payload has trailing");
  Message s = encode_scalar(1.0);
  s.payload.push_back(std::byte{0});
  expect_rejected(decode_scalar, s, "scalar frame: payload has trailing");
}

TEST(Codec, NonFiniteMatrixCellsAndScalarsAreRejected) {
  const Message m = encode_matrix(Matrix{{1.25, 2.5}, {3.75, 4.5}});
  expect_rejected(decode_matrix, with_replaced(m, 3.75, kNaN),
                  "matrix frame: cells");
  expect_rejected(decode_matrix, with_replaced(m, 1.25, -kInf),
                  "matrix frame: cells");
  const Message s = encode_scalar(1.25);
  expect_rejected(decode_scalar, with_replaced(s, 1.25, kNaN),
                  "scalar frame: value");
  expect_rejected(decode_scalar, with_replaced(s, 1.25, kInf),
                  "scalar frame: value");
}

TEST(Codec, NonFiniteCoresetPointsBasisAndDeltaAreRejected) {
  const Message msg = encode_coreset(marked_coreset());
  expect_rejected(decode_coreset, with_replaced(msg, 3.75, kNaN),
                  "coreset frame: points");
  expect_rejected(decode_coreset, with_replaced(msg, 2.5, kInf),
                  "coreset frame: points");
  expect_rejected(decode_coreset, with_replaced(msg, 0.6, kInf),
                  "coreset frame: basis");
  expect_rejected(decode_coreset, with_replaced(msg, 6.125, kNaN),
                  "coreset frame: delta");
}

TEST(Codec, CoresetWeightsMustBeFiniteAndNonNegative) {
  const Message msg = encode_coreset(marked_coreset());
  for (const double bad : {kInf, kNaN, -7.5}) {
    expect_rejected(decode_coreset, with_replaced(msg, 7.5, bad),
                    "coreset frame: weights");
  }
}

TEST(Codec, CoresetBasisFlagMustBeZeroOrOne) {
  Coreset cs = marked_coreset();
  cs.basis.reset();
  Message msg = encode_coreset(cs);
  // Without a basis the flag is the frame's last field.
  const std::uint32_t flag = 2;
  std::memcpy(msg.payload.data() + msg.payload.size() - sizeof(flag), &flag,
              sizeof(flag));
  expect_rejected(decode_coreset, msg, "coreset frame: basis flag");
}

// A receiver that joins frames reads each one's shape before any cell,
// then appends the cells to one buffer: matrix_frame_shape rejects what
// decode_matrix rejects in the tag and header, and append_matrix_cells
// appends exactly decode_matrix's cells or, from a bad frame, nothing.
// A frame without cells has nothing left to read, so its shape check
// takes in the trailing-bytes check too.
TEST(Codec, MatrixFramesAppendTheirDecodedCells) {
  Rng rng = make_rng(902);
  const Matrix a = Matrix::gaussian(3, 4, rng);
  const Matrix b = Matrix::gaussian(300, 4, rng);
  const MatrixShape shape = matrix_frame_shape(encode_matrix(a));
  EXPECT_EQ(shape.rows, 3u);
  EXPECT_EQ(shape.cols, 4u);
  expect_rejected(matrix_frame_shape, encode_scalar(1.0),
                  "not a matrix frame");
  Message lying = encode_matrix(a);  // declares 4 rows over 12 cells
  const std::uint64_t rows = 4;
  std::memcpy(lying.payload.data() + sizeof(std::uint32_t), &rows,
              sizeof(rows));
  expect_rejected(matrix_frame_shape, lying,
                  "matrix frame: cells shape does not match");
  Message empty = encode_matrix(Matrix());
  EXPECT_EQ(matrix_frame_shape(empty).rows, 0u);
  empty.payload.push_back(std::byte{0});
  expect_rejected(matrix_frame_shape, empty,
                  "matrix frame: payload has trailing");

  Matrix joined = a;
  joined.append_rows(b);
  std::vector<double> cells;
  const MatrixShape got = append_matrix_cells(encode_matrix(a), cells);
  EXPECT_EQ(got.rows, 3u);
  EXPECT_EQ(got.cols, 4u);
  (void)append_matrix_cells(encode_matrix(b), cells);
  EXPECT_EQ(Matrix(303, 4, cells), joined);

  const Message marked = encode_matrix(Matrix{{1.25, 2.5}, {3.75, 4.5}});
  Message trailing = marked;
  trailing.payload.push_back(std::byte{0});
  const std::vector<double> before = cells;
  const auto append = [&](const Message& msg) {
    return append_matrix_cells(msg, cells);
  };
  expect_rejected(append, with_replaced(marked, 3.75, kNaN),
                  "matrix frame: cells holds a non-finite value");
  expect_rejected(append, trailing, "matrix frame: payload has trailing");
  expect_rejected(append, lying, "matrix frame: cells shape does not match");
  EXPECT_EQ(cells, before);
}

TEST(Codec, RandomBytesNeverCrashDecoders) {
  // Fuzz-ish robustness: arbitrary payloads must either decode or throw
  // a contract error — never read out of bounds or abort.
  Rng rng = make_rng(900);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 256);
  for (int trial = 0; trial < 500; ++trial) {
    Message msg;
    msg.payload.resize(len(rng));
    for (std::byte& b : msg.payload) b = static_cast<std::byte>(byte(rng));
    try {
      (void)decode_coreset(msg);
    } catch (const precondition_error&) {
    }
    try {
      (void)decode_matrix(msg);
    } catch (const precondition_error&) {
    }
    try {
      (void)decode_scalar(msg);
    } catch (const precondition_error&) {
    }
  }
  SUCCEED();
}

TEST(Codec, BitFlippedFrameEitherDecodesOrThrows) {
  Rng rng = make_rng(901);
  const Matrix m = Matrix::gaussian(4, 4, rng);
  const Message base = encode_matrix(m);
  std::uniform_int_distribution<std::size_t> pos(0, base.payload.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int trial = 0; trial < 300; ++trial) {
    Message msg = base;
    msg.payload[pos(rng)] ^= static_cast<std::byte>(1 << bit(rng));
    try {
      (void)decode_matrix(msg);
    } catch (const precondition_error&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace ekm
