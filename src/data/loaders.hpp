// Dataset loaders with synthetic fallback.
//
// If real dataset files are present (MNIST IDX images, or a dense CSV),
// experiments run on them; otherwise the deterministic generators from
// generators.hpp provide structurally equivalent stand-ins.
#pragma once

#include <filesystem>
#include <optional>
#include <string>

#include "data/dataset.hpp"
#include "data/generators.hpp"

namespace ekm {

/// Loads a dense numeric CSV: cells are separated by commas and/or
/// whitespace; blank lines and lines starting with '#' are skipped (no
/// header handling). Each cell must parse whole as a finite double
/// (common/parse_num.hpp) — otherwise precondition_error names the
/// file, the cell, and its 1-based row (the line number in the file)
/// and column. Throws std::runtime_error when the file cannot be
/// opened, holds no rows, or has rows of different lengths.
[[nodiscard]] Dataset load_csv(const std::filesystem::path& path);

/// Loads an MNIST IDX3 image file (magic 0x00000803), flattening each
/// image into a row of [0, 1]-scaled intensities. Returns nullopt if the
/// file does not exist; throws on a malformed file.
[[nodiscard]] std::optional<Dataset> load_idx_images(
    const std::filesystem::path& path, std::size_t max_rows = 0);

/// MNIST experiment input: real `train-images-idx3-ubyte` under
/// `data_dir` if present (subsampled to `n` rows), otherwise
/// make_mnist_like. Output is §7.1-normalized either way.
[[nodiscard]] Dataset load_or_generate_mnist(const std::filesystem::path& data_dir,
                                             std::size_t n, Rng& rng);

/// NeurIPS-corpus experiment input: `neurips_counts.csv` under `data_dir`
/// if present, otherwise make_neurips_like with (n, dim).
[[nodiscard]] Dataset load_or_generate_neurips(
    const std::filesystem::path& data_dir, std::size_t n, std::size_t dim,
    Rng& rng);

}  // namespace ekm
