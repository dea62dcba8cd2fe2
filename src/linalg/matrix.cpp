#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"

namespace dsml::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.size() > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    DSML_REQUIRE(row.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  DSML_REQUIRE(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  DSML_REQUIRE(r < rows_ && c < cols_, "Matrix::at: index out of range");
  return (*this)(r, c);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  kernels::transpose(data_.data(), cols_, rows_, cols_, t.data_.data(), rows_);
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  DSML_REQUIRE(cols_ == other.rows_, "Matrix::multiply: dimension mismatch");
  Matrix out(rows_, other.cols_);
  kernels::gemm_accumulate(data_.data(), cols_, other.data_.data(),
                           other.cols_, out.data_.data(), other.cols_, rows_,
                           cols_, other.cols_);
  return out;
}

Vector Matrix::multiply(std::span<const double> v) const {
  DSML_REQUIRE(v.size() == cols_, "Matrix::multiply: vector size mismatch");
  Vector out(rows_, 0.0);  // gemv accumulates into out
  kernels::gemv(data_.data(), cols_, rows_, cols_, v.data(), out.data());
  return out;
}

Vector Matrix::multiply_transposed(std::span<const double> v) const {
  DSML_REQUIRE(v.size() == rows_,
               "Matrix::multiply_transposed: vector size mismatch");
  Vector out(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    const auto r = row(i);
    for (std::size_t j = 0; j < cols_; ++j) out[j] += vi * r[j];
  }
  return out;
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto r = row(i);
    for (std::size_t a = 0; a < cols_; ++a) {
      const double ra = r[a];
      if (ra == 0.0) continue;
      for (std::size_t b = a; b < cols_; ++b) {
        g(a, b) += ra * r[b];
      }
    }
  }
  for (std::size_t a = 0; a < cols_; ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      g(a, b) = g(b, a);
    }
  }
  return g;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DSML_REQUIRE(same_shape(other), "Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  DSML_REQUIRE(same_shape(other), "Matrix::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::select_columns(std::span<const std::size_t> cols) const {
  Matrix out(rows_, cols.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      DSML_REQUIRE(cols[j] < cols_, "select_columns: index out of range");
      out(r, j) = (*this)(r, cols[j]);
    }
  }
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> rows) const {
  Matrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    DSML_REQUIRE(rows[i] < rows_, "select_rows: index out of range");
    std::copy_n(row(rows[i]).data(), cols_, out.row(i).data());
  }
  return out;
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  DSML_REQUIRE(a.same_shape(b), "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

double dot(std::span<const double> a, std::span<const double> b) {
  DSML_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  DSML_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vector subtract(std::span<const double> a, std::span<const double> b) {
  DSML_REQUIRE(a.size() == b.size(), "subtract: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector add(std::span<const double> a, std::span<const double> b) {
  DSML_REQUIRE(a.size() == b.size(), "add: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector scale(std::span<const double> a, double s) {
  Vector out(a.begin(), a.end());
  for (double& x : out) x *= s;
  return out;
}

}  // namespace dsml::linalg
