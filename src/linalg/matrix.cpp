#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace jaal::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Matrix: data size does not match rows*cols");
  }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer rows");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  data_.resize(rows * cols, 0.0);
  rows_ = rows;
  cols_ = cols;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix multiply: inner dimensions differ");
  }
  Matrix out(rows_, rhs.cols_);
  // ikj loop order keeps the inner loop contiguous in both operands.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* rhs_row = rhs.data_.data() + k * rhs.cols_;
      double* out_row = out.data_.data() + i * rhs.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out_row[j] += a * rhs_row[j];
      }
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix add: shape mismatch");
  }
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix subtract: shape mismatch");
  }
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= scalar;
  return out;
}

double Matrix::frobenius_norm() const noexcept {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::max_abs_diff(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - rhs.data_[i]));
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix Matrix::diagonal(std::span<const double> diag) {
  Matrix out(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) out(i, i) = diag[i];
  return out;
}

Matrix Matrix::left_cols(std::size_t c) const {
  if (c > cols_) throw std::invalid_argument("Matrix::left_cols: c > cols()");
  Matrix out(rows_, c);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_), c,
                out.data_.begin() + static_cast<std::ptrdiff_t>(r * c));
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")";
  if (m.rows() <= 8 && m.cols() <= 8) {
    os << " [";
    for (std::size_t r = 0; r < m.rows(); ++r) {
      os << (r == 0 ? "[" : " [");
      for (std::size_t c = 0; c < m.cols(); ++c) {
        os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
      }
      os << "]" << (r + 1 < m.rows() ? "\n" : "");
    }
    os << "]";
  }
  return os;
}

}  // namespace jaal::linalg
