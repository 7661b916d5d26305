// Small math helpers: 2-D vectors for the virtual environment, polynomial
// evaluation shared by the fitting and model layers, and an inline
// round-to-nearest for the replication lattices.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace roia {

/// 2-D position/direction in the virtual environment.
struct Vec2 {
  double x{0.0};
  double y{0.0};

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double k) const { return {x * k, y * k}; }
  constexpr Vec2& operator+=(Vec2 o) { x += o.x; y += o.y; return *this; }

  [[nodiscard]] constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  [[nodiscard]] constexpr double lengthSq() const { return x * x + y * y; }
  [[nodiscard]] double length() const { return std::sqrt(lengthSq()); }
  [[nodiscard]] constexpr double distanceSq(Vec2 o) const { return (*this - o).lengthSq(); }
  [[nodiscard]] double distance(Vec2 o) const { return (*this - o).length(); }
  [[nodiscard]] Vec2 normalized() const {
    const double len = length();
    return len > 0.0 ? Vec2{x / len, y / len} : Vec2{};
  }

  constexpr bool operator==(const Vec2&) const = default;
};

/// std::llround without the libm call: rounds half away from zero and
/// returns exactly what std::llround returns for every double. Magnitudes
/// below 2^62 are rounded inline (the truncation and the fraction are both
/// exact there); larger values, infinities and NaN defer to std::llround.
inline std::int64_t llroundInline(double v) {
  if (!(std::fabs(v) < 0x1p62)) return std::llround(v);
  const auto truncated = static_cast<std::int64_t>(v);
  const double fraction = v - static_cast<double>(truncated);
  return truncated + static_cast<std::int64_t>(fraction >= 0.5) -
         static_cast<std::int64_t>(fraction <= -0.5);
}

/// Horner evaluation of a polynomial with coefficients in ascending order:
/// coeffs[0] + coeffs[1]*x + coeffs[2]*x^2 + ...
inline double evalPolynomial(std::span<const double> coeffs, double x) {
  double acc = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) {
    acc = acc * x + coeffs[i];
  }
  return acc;
}

/// Linear interpolation.
constexpr double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// True if |a - b| <= atol + rtol * max(|a|, |b|).
inline bool approxEqual(double a, double b, double rtol = 1e-9, double atol = 1e-12) {
  return std::fabs(a - b) <= atol + rtol * std::fmax(std::fabs(a), std::fabs(b));
}

}  // namespace roia
