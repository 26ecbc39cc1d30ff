// Structure-of-arrays (column-major) companion to the row-major Matrix.
//
// The SIMD kernels in linalg/simd.hpp vectorize across *rows* (points) of a
// batch, which needs each field's values contiguous: column j of an
// n x p batch is one array of n values.  SoaMatrix<T> stores exactly that,
// with each column padded to a multiple of 64 bytes (8 doubles, 16 floats)
// so full-width kernels can be pointed at any column without alignment
// gymnastics (the padding is zero-filled and never addressed by the
// kernels, which take explicit n).  The Jacobi SVD works on a
// SoaMatrix<double>; k-means clusters a SoaMatrix<float>, whose from_rows
// rounds each value to the nearest float (the precision summaries ship at).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace jaal::linalg {

template <class T>
class SoaMatrix {
 public:
  SoaMatrix() = default;

  /// Zero-initialized rows x cols, column-major with padded column stride.
  SoaMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), stride_(pad(rows)), data_(stride_ * cols) {}

  /// Transposing copy of a row-major matrix, each value converted to T.
  [[nodiscard]] static SoaMatrix from_rows(const Matrix& m) {
    SoaMatrix out(m.rows(), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const auto row = m.row(r);
      for (std::size_t c = 0; c < m.cols(); ++c) {
        out(r, c) = static_cast<T>(row[c]);
      }
    }
    return out;
  }

  /// Transposing copy back to row-major.
  [[nodiscard]] Matrix to_rows() const {
    Matrix out(rows_, cols_);
    for (std::size_t c = 0; c < cols_; ++c) {
      const T* column = col(c);
      for (std::size_t r = 0; r < rows_; ++r) out(r, c) = column[r];
    }
    return out;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Elements between the starts of adjacent columns (>= rows()).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  /// Start of column c (contiguous; rows() live values, padding after).
  [[nodiscard]] T* col(std::size_t c) noexcept {
    return data_.data() + c * stride_;
  }
  [[nodiscard]] const T* col(std::size_t c) const noexcept {
    return data_.data() + c * stride_;
  }
  [[nodiscard]] std::span<T> col_span(std::size_t c) noexcept {
    return {col(c), rows_};
  }
  [[nodiscard]] std::span<const T> col_span(std::size_t c) const noexcept {
    return {col(c), rows_};
  }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[c * stride_ + r];
  }
  [[nodiscard]] T operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[c * stride_ + r];
  }

  /// Base pointer for the SIMD kernels: column j lives at data() + j*stride().
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

 private:
  static constexpr std::size_t kPad = 64 / sizeof(T);

  static constexpr std::size_t pad(std::size_t n) noexcept {
    return (n + kPad - 1) / kPad * kPad;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::vector<T> data_;
};

}  // namespace jaal::linalg
