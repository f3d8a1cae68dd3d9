// PGM/PPM image output. Used to dump false-color heat flux maps (paper
// Fig. 1) and synthetic infrared scenes (paper Fig. 3) without any external
// imaging dependency.
#pragma once

#include <array>
#include <string>

#include "util/array2d.h"

namespace wfire::util {

struct Rgb {
  unsigned char r = 0, g = 0, b = 0;
};

// Grayscale 8-bit PGM; values are linearly mapped from [lo, hi] to [0, 255].
// Row 0 of the array is written at the bottom of the image (y up).
void write_pgm(const std::string& path, const Array2D<double>& img, double lo,
               double hi);

// Color PPM from an RGB buffer.
void write_ppm(const std::string& path, const Array2D<Rgb>& img);

// "Hot iron" false-color map (black->red->yellow->white), t in [0,1].
[[nodiscard]] Rgb colormap_hot(double t);

// Renders a scalar field to PPM through a colormap with range [lo, hi].
void write_false_color(const std::string& path, const Array2D<double>& field,
                       double lo, double hi, Rgb (*cmap)(double) = colormap_hot);

}  // namespace wfire::util
