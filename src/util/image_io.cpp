#include "util/image_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace wfire::util {

namespace {
unsigned char to_byte(double t) {
  return static_cast<unsigned char>(std::clamp(t, 0.0, 1.0) * 255.0 + 0.5);
}
}  // namespace

void write_pgm(const std::string& path, const Array2D<double>& img, double lo,
               double hi) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pgm: cannot open " + path);
  out << "P5\n" << img.nx() << ' ' << img.ny() << "\n255\n";
  const double scale = hi > lo ? 1.0 / (hi - lo) : 0.0;
  for (int j = img.ny() - 1; j >= 0; --j)
    for (int i = 0; i < img.nx(); ++i)
      out.put(static_cast<char>(to_byte((img(i, j) - lo) * scale)));
}

void write_ppm(const std::string& path, const Array2D<Rgb>& img) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_ppm: cannot open " + path);
  out << "P6\n" << img.nx() << ' ' << img.ny() << "\n255\n";
  for (int j = img.ny() - 1; j >= 0; --j)
    for (int i = 0; i < img.nx(); ++i) {
      const Rgb& p = img(i, j);
      out.put(static_cast<char>(p.r));
      out.put(static_cast<char>(p.g));
      out.put(static_cast<char>(p.b));
    }
}

Rgb colormap_hot(double t) {
  t = std::clamp(t, 0.0, 1.0);
  // Three ramps: red rises on [0,1/3], green on [1/3,2/3], blue on [2/3,1].
  return Rgb{to_byte(3.0 * t), to_byte(3.0 * t - 1.0), to_byte(3.0 * t - 2.0)};
}

void write_false_color(const std::string& path, const Array2D<double>& field,
                       double lo, double hi, Rgb (*cmap)(double)) {
  Array2D<Rgb> img(field.nx(), field.ny());
  const double scale = hi > lo ? 1.0 / (hi - lo) : 0.0;
  for (int j = 0; j < field.ny(); ++j)
    for (int i = 0; i < field.nx(); ++i)
      img(i, j) = cmap((field(i, j) - lo) * scale);
  write_ppm(path, img);
}

}  // namespace wfire::util
