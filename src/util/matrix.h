#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/cow_array.h"
#include "util/require.h"

namespace choreo {

/// Row-major matrix. Used for traffic matrices (bytes task->task) and
/// network rate matrices (bits/s machine->machine).
///
/// Rows are stored in chunks of a power-of-two number of rows, each chunk a
/// CowArray shared copy-on-write. Copying a matrix copies one handle per
/// chunk; the first is held inline, so a one-chunk matrix is one allocation.
/// Any access through the non-const operator(), a read included, first
/// copies the chunk it lands in unless this matrix is the chunk's only
/// holder; the const operator() and row() never copy, so read a shared
/// matrix through a const reference. A measurement cycle that rewrites a few
/// rows of a copy of the last view therefore copies only those rows' chunks,
/// and a reader can tell an untouched row by its address: row(r) of two live
/// matrices returns the same pointer exactly when they share the chunk
/// holding row r.
///
/// A chunk holds as many rows as fit in 4 KiB, or one row if a row is
/// larger. The bound keeps a one-row write from copying much more than the
/// row once rows are long (a 500-machine rate row, 4 000 bytes, is its own
/// chunk), and a small matrix (a 5-VM session view, an app's traffic matrix)
/// stays one allocation, so its copies and reads pay no per-row cost. It is
/// a constant, not a setting: nothing outside this class sees the chunks.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), shift_(chunk_shift(cols)) {
    if (rows == 0 || cols == 0) return;
    const std::size_t per_chunk = std::size_t{1} << shift_;
    head_ = CowArray<T>(std::min(per_chunk, rows) * cols, fill);
    if (rows > per_chunk) tail_.reserve((rows - 1) >> shift_);
    for (std::size_t r = per_chunk; r < rows; r += per_chunk) {
      tail_.emplace_back(std::min(per_chunk, rows - r) * cols, fill);
    }
  }

  /// Square convenience constructor.
  explicit Matrix(std::size_t n, T fill = T{}) : Matrix(n, n, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return !head_; }

  /// Copies the chunk holding row r first while another matrix shares it.
  T& operator()(std::size_t r, std::size_t c) {
    CHOREO_REQUIRE(r < rows_ && c < cols_);
    const std::size_t k = r >> shift_;
    if (k == 0) return head_.mutable_data()[r * cols_ + c];
    return tail_[k - 1].mutable_data()[(r & row_mask()) * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    CHOREO_REQUIRE(r < rows_ && c < cols_);
    return row_at(r)[c];
  }

  /// Row r's cols() entries, read in place.
  const T* row(std::size_t r) const {
    CHOREO_REQUIRE(r < rows_);
    return row_at(r);
  }

  /// Sum of all entries, in row-major order.
  T total() const {
    T sum{};
    for (std::size_t k = 0; k < chunk_count(); ++k) {
      const T* v = chunk(k).data();
      for (std::size_t i = 0; i < chunk(k).size(); ++i) sum += v[i];
    }
    return sum;
  }

  /// Sum of row r (total egress of task r for a traffic matrix).
  T row_sum(std::size_t r) const {
    const T* v = row(r);
    T sum{};
    for (std::size_t c = 0; c < cols_; ++c) sum += v[c];
    return sum;
  }

  /// Sum of column c (total ingress of task c for a traffic matrix).
  T col_sum(std::size_t c) const {
    CHOREO_REQUIRE(c < cols_);
    T sum{};
    for (std::size_t r = 0; r < rows_; ++r) sum += row_at(r)[c];
    return sum;
  }

  bool operator==(const Matrix& other) const {
    if (rows_ != other.rows_ || cols_ != other.cols_ ||
        chunk_count() != other.chunk_count()) {
      return false;
    }
    // Equal shapes have equal chunk layouts.
    for (std::size_t k = 0; k < chunk_count(); ++k) {
      const T* a = chunk(k).data();
      if (!std::equal(a, a + chunk(k).size(), other.chunk(k).data())) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kChunkBytes = 4096;

  /// log2 of the rows per chunk: the most rows that fit in kChunkBytes, at
  /// least one.
  static unsigned chunk_shift(std::size_t cols) {
    unsigned shift = 0;
    if (cols == 0) return shift;
    while ((std::size_t{2} << shift) * cols * sizeof(T) <= kChunkBytes) ++shift;
    return shift;
  }
  std::size_t row_mask() const { return (std::size_t{1} << shift_) - 1; }
  std::size_t chunk_count() const { return head_ ? 1 + tail_.size() : 0; }
  const CowArray<T>& chunk(std::size_t k) const { return k == 0 ? head_ : tail_[k - 1]; }
  const T* row_at(std::size_t r) const {
    const std::size_t k = r >> shift_;
    if (k == 0) return head_.data() + r * cols_;
    return tail_[k - 1].data() + (r & row_mask()) * cols_;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  unsigned shift_ = 0;
  CowArray<T> head_;                // rows [0, 2^shift_)
  std::vector<CowArray<T>> tail_;  // the chunks after it, in row order
};

using DoubleMatrix = Matrix<double>;

}  // namespace choreo
