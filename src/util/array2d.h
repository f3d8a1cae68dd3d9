// Contiguous row-major 2-D array. Index convention: (i, j) with i along x
// (fastest-varying, contiguous) and j along y. All grid fields in wfire
// (level set function, ignition time, heat flux, images) use this container.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace wfire::util {

template <typename T>
class Array2D {
 public:
  Array2D() = default;

  Array2D(int nx, int ny, T fill = T{})
      : nx_(nx), ny_(ny), data_(checked_size(nx, ny), fill) {}

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] bool contains(int i, int j) const {
    return i >= 0 && i < nx_ && j >= 0 && j < ny_;
  }

  T& operator()(int i, int j) {
    WFIRE_ASSERT(contains(i, j), "Array2D index out of range");
    return data_[static_cast<std::size_t>(j) * nx_ + i];
  }
  const T& operator()(int i, int j) const {
    WFIRE_ASSERT(contains(i, j), "Array2D index out of range");
    return data_[static_cast<std::size_t>(j) * nx_ + i];
  }

  // Clamped access: reads the nearest in-range sample. Used by stencils and
  // interpolation near boundaries.
  [[nodiscard]] const T& at_clamped(int i, int j) const {
    i = std::clamp(i, 0, nx_ - 1);
    j = std::clamp(j, 0, ny_ - 1);
    return data_[static_cast<std::size_t>(j) * nx_ + i];
  }

  // The nx contiguous values of row j: the per-row entry point of stencil
  // loops that index within the row without a per-read check.
  [[nodiscard]] T* row(int j) {
    WFIRE_ASSERT(j >= 0 && j < ny_, "Array2D row out of range");
    return data_.data() + static_cast<std::size_t>(j) * nx_;
  }
  [[nodiscard]] const T* row(int j) const {
    WFIRE_ASSERT(j >= 0 && j < ny_, "Array2D row out of range");
    return data_.data() + static_cast<std::size_t>(j) * nx_;
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::span<T> span() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> span() const {
    return {data_.data(), data_.size()};
  }

  void fill(const T& v) { std::fill(data_.begin(), data_.end(), v); }

  [[nodiscard]] bool same_shape(const Array2D& o) const {
    return nx_ == o.nx_ && ny_ == o.ny_;
  }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  friend bool operator==(const Array2D& a, const Array2D& b) {
    return a.nx_ == b.nx_ && a.ny_ == b.ny_ && a.data_ == b.data_;
  }

 private:
  static std::size_t checked_size(int nx, int ny) {
    if (nx < 0 || ny < 0) throw std::invalid_argument("Array2D: negative dims");
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  }

  int nx_ = 0;
  int ny_ = 0;
  std::vector<T> data_;
};

// Elementwise reductions used throughout diagnostics.
template <typename T>
[[nodiscard]] T min_value(const Array2D<T>& a) {
  WFIRE_ASSERT(!a.empty(), "min_value of empty array");
  return *std::min_element(a.begin(), a.end());
}

template <typename T>
[[nodiscard]] T max_value(const Array2D<T>& a) {
  WFIRE_ASSERT(!a.empty(), "max_value of empty array");
  return *std::max_element(a.begin(), a.end());
}

template <typename T>
[[nodiscard]] double sum(const Array2D<T>& a) {
  double s = 0;
  for (const T& v : a) s += static_cast<double>(v);
  return s;
}

}  // namespace wfire::util
