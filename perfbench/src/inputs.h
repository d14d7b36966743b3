#pragma once
// Seeded inputs and the graphs that consume them.
//
// Every pixel is a multiple of 1/4 in [0, 256), drawn from a hash of
// (seed, frame, x, y). With such inputs every Fig. 1(b) intermediate
// (median, dyadic 5x5 blur, difference) is exact in double in any
// summation order, so its histograms compare with ==.
//
// The graphs are rebuilt from library kernels exactly as src/apps wires
// them, with the seeded InputKernel in place of the default generator; the
// benchmark checks after compile that each has the kernel count of the
// bundled application.

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/multiplex.h"
#include "core/graph.h"
#include "kernels/input.h"

namespace perfbench {

[[nodiscard]] bpp::PixelFn seeded_pixels(std::uint64_t seed);

/// Frame `f` of `fn` as a row-major w*h vector.
[[nodiscard]] std::vector<double> frame_pixels(bpp::Size2 size, int f,
                                               const bpp::PixelFn& fn);

/// The analytics application's fixed parameters (apps::analytics_app
/// defaults).
inline constexpr double kAnalyticsAlpha = 0.4;
inline constexpr double kAnalyticsEdgeLevel = 120.0;
inline constexpr int kAnalyticsBins = 16;

[[nodiscard]] bpp::Graph fig1_graph(bpp::Size2 frame, double rate_hz,
                                    int frames, int bins, const bpp::PixelFn& fn);
[[nodiscard]] bpp::Graph analytics_graph(bpp::Size2 frame, double rate_hz,
                                         int frames, const bpp::PixelFn& fn);
[[nodiscard]] bpp::Graph bayer_graph(bpp::Size2 frame, double rate_hz,
                                     int frames, const bpp::PixelFn& fn);
[[nodiscard]] bpp::Graph histogram_graph(bpp::Size2 frame, double rate_hz,
                                         int frames, int bins,
                                         const bpp::PixelFn& fn);
[[nodiscard]] bpp::Graph parallel_buffer_graph(bpp::Size2 frame,
                                               double rate_hz, int frames,
                                               const bpp::PixelFn& fn);
[[nodiscard]] bpp::Graph multi_conv_graph(bpp::Size2 frame, double rate_hz,
                                          int frames, const bpp::PixelFn& fn);

/// A compiled mapping folded onto `workers` host threads: core c runs on
/// worker c % workers.
[[nodiscard]] bpp::Mapping fold(const bpp::Mapping& m, int workers);

}  // namespace perfbench
