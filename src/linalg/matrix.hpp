// Dense row-major matrix of doubles.
//
// Deliberately small: Jaal only needs the operations the summarization
// pipeline uses (products, transpose, row views, norms).  All dimensions are
// checked; violations throw std::invalid_argument because they are caller
// programming errors that we want to surface loudly in tests.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

namespace jaal::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled from `data` in row-major order.
  /// Throws std::invalid_argument if data.size() != rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  /// Brace construction from nested lists: Matrix{{1,2},{3,4}}.
  /// Throws std::invalid_argument on ragged rows.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws std::out_of_range.
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// Contiguous view of one row.
  [[nodiscard]] std::span<double> row(std::size_t r);
  [[nodiscard]] std::span<const double> row(std::size_t r) const;

  /// Reshapes to rows x cols over the same storage: the first min(old, new)
  /// row-major elements keep their values, new ones are zero, and capacity
  /// is kept, so shrinking and regrowing within it never allocates.
  void resize(std::size_t rows, std::size_t cols);
  /// Reserves storage for `elements` entries; the shape is unchanged.
  void reserve(std::size_t elements) { data_.reserve(elements); }

  /// Underlying row-major storage.
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }
  [[nodiscard]] std::span<double> data() noexcept { return data_; }

  [[nodiscard]] Matrix transposed() const;

  /// Matrix product; throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator+(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator-(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator*(double scalar) const;

  bool operator==(const Matrix& rhs) const = default;

  /// Frobenius norm: sqrt(sum of squared entries).
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Max |a_ij - b_ij|; throws std::invalid_argument on shape mismatch.
  [[nodiscard]] double max_abs_diff(const Matrix& rhs) const;

  /// Identity matrix of size n.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Diagonal matrix from a vector of diagonal entries.
  [[nodiscard]] static Matrix diagonal(std::span<const double> diag);

  /// Keep the first `c` columns (view-copy).  Throws if c > cols().
  [[nodiscard]] Matrix left_cols(std::size_t c) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace jaal::linalg
