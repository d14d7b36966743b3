#pragma once
// Independent reference checker.
//
// Straight-line loops over whole frames for every operation the measured
// applications perform. It deliberately does not use src/ref, whose
// convolution, median and histogram call the same simd::ops() table as
// the kernels under test. The one shared definition is the Bayer window
// rule (BayerDemosaicKernel::demosaic_window); the tiling around it is
// done here.
//
// Where arithmetic is not exact (the analytics IIR with alpha = 0.4, the
// separable blur against the 2-D reference), a threshold or histogram bin
// decision whose reference value lies within kEps of the boundary may go
// either way; that freedom is carried through the dilate window.

#include <string>
#include <vector>

#include "core/tile.h"

namespace perfbench {

inline constexpr double kEps = 1e-9;

struct Image {
  int w = 0, h = 0;
  std::vector<double> px;  ///< row-major

  Image() = default;
  Image(int w_, int h_, std::vector<double> v = {})
      : w(w_), h(h_), px(v.empty() ? std::vector<double>(static_cast<std::size_t>(w_) * h_, 0.0) : std::move(v)) {}
  [[nodiscard]] double at(int x, int y) const {
    return px[static_cast<std::size_t>(y) * w + x];
  }
  double& at(int x, int y) { return px[static_cast<std::size_t>(y) * w + x]; }
};

/// Valid-mode windowed operations (output shrinks by window - 1).
[[nodiscard]] Image median3x3(const Image& in);
/// Convolution with the paper's coefficient flip:
/// out(o) = sum in(o + (x, y)) * coeff(cw-1-x, ch-1-y).
[[nodiscard]] Image convolve(const Image& in, const Image& coeff);
[[nodiscard]] Image sobel(const Image& in);
[[nodiscard]] Image crop(const Image& in, int x0, int y0, int w, int h);
[[nodiscard]] Image bayer(const Image& mosaic);
/// First bin i < bins-1 with v < uppers[i], else the last bin.
[[nodiscard]] std::vector<long> histogram(const Image& in,
                                          const std::vector<double>& uppers);

/// Fig. 1(b) under the Trim alignment: median3x3 and conv5x5 of the frame,
/// the median trimmed to the convolution's extent, their difference, and
/// its histogram over apps::diff_bins(bins).
[[nodiscard]] std::vector<long> fig1_histogram(const Image& frame, int bins);

/// One analytics frame's acceptable outputs.
struct AnalyticsExpect {
  /// Cleaned edge map: 0 or 1 where decided, -1 where either is correct.
  Image edges;
  /// Per-bin bounds on the blurred image's histogram.
  std::vector<long> hist_lo, hist_hi;
  long pixels = 0;  ///< histogram total
};

/// Reference for the analytics application over consecutive frames
/// (the temporal IIR carries state from one frame to the next).
class AnalyticsReference {
 public:
  AnalyticsReference(int w, int h) : prev_(w, h) {}
  [[nodiscard]] AnalyticsExpect next(const Image& frame);

 private:
  Image prev_;
};

/// Checks: return an empty string when `got` is acceptable, else a
/// description of the first mismatch.
[[nodiscard]] std::string compare(const bpp::Tile& got, const Image& want,
                                  double tol);
[[nodiscard]] std::string compare_counts(const bpp::Tile& got,
                                         const std::vector<long>& want);
[[nodiscard]] std::string compare_edges(const bpp::Tile& got,
                                        const AnalyticsExpect& want);
[[nodiscard]] std::string compare_stats(const bpp::Tile& got,
                                        const AnalyticsExpect& want);

}  // namespace perfbench
