#include "data/loaders.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/expects.hpp"
#include "common/parse_num.hpp"

namespace ekm {
namespace {

std::uint32_t read_be_u32(std::istream& in) {
  unsigned char b[4];
  in.read(reinterpret_cast<char*>(b), 4);
  if (!in) throw std::runtime_error("IDX file truncated");
  return (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
         (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]};
}

}  // namespace

Dataset load_csv(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());

  std::vector<double> values;
  std::size_t cols = 0;
  std::size_t rows = 0;
  std::size_t line_no = 0;
  std::string line;
  std::string cell;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::replace(line.begin(), line.end(), ',', ' ');
    std::istringstream ls(line);
    std::size_t c = 0;
    while (ls >> cell) {
      ++c;
      const auto v = parse_full_double(cell);
      EKM_EXPECTS_MSG(v.has_value() && std::isfinite(*v),
                      "CSV cell '" + cell + "' in " + path.string() +
                          " at row " + std::to_string(line_no) + ", column " +
                          std::to_string(c) + " is not a finite number");
      values.push_back(*v);
    }
    if (c == 0) continue;
    if (cols == 0) cols = c;
    if (c != cols) {
      throw std::runtime_error("ragged CSV row in " + path.string());
    }
    ++rows;
  }
  if (rows == 0) throw std::runtime_error("empty CSV " + path.string());
  return Dataset(Matrix(rows, cols, std::move(values)));
}

std::optional<Dataset> load_idx_images(const std::filesystem::path& path,
                                       std::size_t max_rows) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  const std::uint32_t magic = read_be_u32(in);
  if (magic != 0x0803) {
    throw std::runtime_error("not an IDX3 image file: " + path.string());
  }
  const std::uint32_t count = read_be_u32(in);
  const std::uint32_t h = read_be_u32(in);
  const std::uint32_t w = read_be_u32(in);
  const std::size_t n =
      max_rows > 0 ? std::min<std::size_t>(count, max_rows) : count;
  const std::size_t d = static_cast<std::size_t>(h) * w;

  Matrix pts(n, d);
  std::vector<unsigned char> buf(d);
  for (std::size_t i = 0; i < n; ++i) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(d));
    if (!in) throw std::runtime_error("IDX image data truncated");
    auto row = pts.row(i);
    for (std::size_t j = 0; j < d; ++j) row[j] = buf[j] / 255.0;
  }
  return Dataset(std::move(pts));
}

Dataset load_or_generate_mnist(const std::filesystem::path& data_dir,
                               std::size_t n, Rng& rng) {
  auto real = load_idx_images(data_dir / "train-images-idx3-ubyte", n);
  if (real) {
    normalize_zero_mean_unit_range(*real);
    return std::move(*real);
  }
  MnistLikeSpec spec;
  spec.n = n;
  return make_mnist_like(spec, rng);
}

Dataset load_or_generate_neurips(const std::filesystem::path& data_dir,
                                 std::size_t n, std::size_t dim, Rng& rng) {
  const auto csv = data_dir / "neurips_counts.csv";
  if (std::filesystem::exists(csv)) {
    Dataset real = load_csv(csv);
    normalize_zero_mean_unit_range(real);
    return real;
  }
  NeuripsLikeSpec spec;
  spec.n = n;
  spec.dim = dim;
  return make_neurips_like(spec, rng);
}

}  // namespace ekm
