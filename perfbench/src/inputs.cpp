#include "inputs.h"

#include <algorithm>

#include "apps/pipelines.h"
#include "kernels/kernels.h"

using namespace bpp;

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Tile row_tile(const std::vector<double>& v, bool column) {
  const int n = static_cast<int>(v.size());
  Tile t = column ? Tile(1, n) : Tile(n, 1);
  for (int i = 0; i < n; ++i)
    (column ? t.at(0, i) : t.at(i, 0)) = v[static_cast<std::size_t>(i)];
  return t;
}

const std::vector<double> kBinomial5 = {1 / 16.0, 4 / 16.0, 6 / 16.0,
                                        4 / 16.0, 1 / 16.0};

}  // namespace

PixelFn seeded_pixels(std::uint64_t seed) {
  // A seed-dependent gradient plus hash noise, in quarter steps: the
  // images have structure (so edge maps are not all 0 or all 1) and every
  // value is exactly representable.
  const std::uint64_t s = splitmix64(seed);
  const int gx = 1 + static_cast<int>(s % 13);
  const int gy = 1 + static_cast<int>((s >> 8) % 17);
  const int gf = static_cast<int>((s >> 16) % 29);
  return [s, gx, gy, gf](int frame, int x, int y) {
    const std::uint64_t h = splitmix64(
        s ^ (static_cast<std::uint64_t>(frame) << 42) ^
        (static_cast<std::uint64_t>(x) << 21) ^ static_cast<std::uint64_t>(y));
    const long q = (4L * (gx * x + gy * y + gf * frame) + static_cast<long>(h % 384)) % 1024;
    return static_cast<double>(q) / 4.0;
  };
}

std::vector<double> frame_pixels(Size2 size, int f, const PixelFn& fn) {
  std::vector<double> v(static_cast<std::size_t>(size.area()));
  for (int y = 0; y < size.h; ++y)
    for (int x = 0; x < size.w; ++x)
      v[static_cast<std::size_t>(y) * size.w + x] = fn(f, x, y);
  return v;
}

Graph fig1_graph(Size2 frame, double rate_hz, int frames, int bins,
                 const PixelFn& fn) {
  Graph g;
  auto& input = g.add<InputKernel>("input", frame, rate_hz, frames, fn);
  auto& med = g.add<MedianKernel>("median3x3", 3, 3);
  auto& conv = g.add<ConvolutionKernel>("conv5x5", 5, 5);
  auto& coeff = g.add<ConstSource>("coeff5x5", apps::blur_coeff5x5());
  Kernel& sub = g.add_kernel(make_subtract("subtract"));
  auto& hist = g.add<HistogramKernel>("histogram", bins);
  auto& hbins = g.add<ConstSource>("histBins", row_tile(apps::diff_bins(bins), false));
  auto& merge = g.add<HistogramMergeKernel>("merge", bins);
  auto& out = g.add<OutputKernel>("result", Size2{bins, 1});
  g.connect(input, "out", med, "in");
  g.connect(input, "out", conv, "in");
  g.connect(coeff, "out", conv, "coeff");
  g.connect(med, "out", sub, "in0");
  g.connect(conv, "out", sub, "in1");
  g.connect(sub, "out", hist, "in");
  g.connect(hbins, "out", hist, "bins");
  g.connect(hist, "out", merge, "partial");
  g.connect(merge, "out", out, "in");
  g.add_dependency(input, merge);
  return g;
}

Graph analytics_graph(Size2 frame, double rate_hz, int frames,
                      const PixelFn& fn) {
  Graph g;
  auto& input = g.add<InputKernel>("input", frame, rate_hz, frames, fn);
  auto& mix = g.add<TemporalMixKernel>("denoise", kAnalyticsAlpha);
  auto& init = g.add<InitialValueKernel>("loopInit", frame, rate_hz, 0.0);
  g.connect(input, "out", mix, "x");
  g.connect(init, "out", mix, "prev");
  g.connect(mix, "out", init, "in");

  auto& blurH = g.add<ConvolutionKernel>("blurH", 5, 1);
  auto& cH = g.add<ConstSource>("coeffH", row_tile(kBinomial5, false));
  auto& blurV = g.add<ConvolutionKernel>("blurV", 1, 5);
  auto& cV = g.add<ConstSource>("coeffV", row_tile(kBinomial5, true));
  g.connect(mix, "out", blurH, "in");
  g.connect(cH, "out", blurH, "coeff");
  g.connect(blurH, "out", blurV, "in");
  g.connect(cV, "out", blurV, "coeff");

  auto& sob = g.add<SobelKernel>("sobel");
  Kernel& th = g.add_kernel(make_threshold("edgeThresh", kAnalyticsEdgeLevel));
  auto& dil = g.add<MorphologyKernel>("clean", MorphologyKernel::Op::Dilate, 3, 3);
  auto& edges = g.add<OutputKernel>("edges");
  g.connect(blurV, "out", sob, "in");
  g.connect(sob, "out", th, "in");
  g.connect(th, "out", dil, "in");
  g.connect(dil, "out", edges, "in");

  auto& hist = g.add<HistogramKernel>("histogram", kAnalyticsBins);
  auto& hbins = g.add<ConstSource>(
      "histBins", HistogramKernel::uniform_bins(kAnalyticsBins, 0.0, 256.0));
  auto& merge = g.add<HistogramMergeKernel>("merge", kAnalyticsBins);
  auto& stats = g.add<OutputKernel>("stats", Size2{kAnalyticsBins, 1});
  g.connect(blurV, "out", hist, "in");
  g.connect(hbins, "out", hist, "bins");
  g.connect(hist, "out", merge, "partial");
  g.connect(merge, "out", stats, "in");
  g.add_dependency(input, merge);
  return g;
}

Graph bayer_graph(Size2 frame, double rate_hz, int frames, const PixelFn& fn) {
  Graph g;
  auto& input = g.add<InputKernel>("input", frame, rate_hz, frames, fn);
  auto& demosaic = g.add<BayerDemosaicKernel>("demosaic");
  auto& out = g.add<OutputKernel>("result", Size2{2, 2});
  g.connect(input, "out", demosaic, "in");
  g.connect(demosaic, "out", out, "in");
  return g;
}

Graph histogram_graph(Size2 frame, double rate_hz, int frames, int bins,
                      const PixelFn& fn) {
  Graph g;
  auto& input = g.add<InputKernel>("input", frame, rate_hz, frames, fn);
  auto& hist = g.add<HistogramKernel>("histogram", bins);
  auto& hbins = g.add<ConstSource>(
      "histBins", HistogramKernel::uniform_bins(bins, 0.0, 256.0));
  auto& merge = g.add<HistogramMergeKernel>("merge", bins);
  auto& out = g.add<OutputKernel>("result", Size2{bins, 1});
  g.connect(input, "out", hist, "in");
  g.connect(hbins, "out", hist, "bins");
  g.connect(hist, "out", merge, "partial");
  g.connect(merge, "out", out, "in");
  g.add_dependency(input, merge);
  return g;
}

Graph parallel_buffer_graph(Size2 frame, double rate_hz, int frames,
                            const PixelFn& fn) {
  Graph g;
  auto& input = g.add<InputKernel>("input", frame, rate_hz, frames, fn);
  auto& conv = g.add<ConvolutionKernel>("conv9x9", 9, 9);
  auto& csrc = g.add<ConstSource>("coeff9x9", Tile(Size2{9, 9}, 1.0 / 81.0));
  auto& out = g.add<OutputKernel>("result");
  g.connect(input, "out", conv, "in");
  g.connect(csrc, "out", conv, "coeff");
  g.connect(conv, "out", out, "in");
  return g;
}

Graph multi_conv_graph(Size2 frame, double rate_hz, int frames,
                       const PixelFn& fn) {
  Graph g;
  auto& input = g.add<InputKernel>("input", frame, rate_hz, frames, fn);
  auto& c1 = g.add<ConvolutionKernel>("convA", 3, 3);
  auto& s1 = g.add<ConstSource>("coeffA", apps::blur_coeff3x3());
  auto& c2 = g.add<ConvolutionKernel>("convB", 3, 3);
  auto& s2 = g.add<ConstSource>("coeffB", apps::blur_coeff3x3());
  auto& c3 = g.add<ConvolutionKernel>("convC", 5, 5);
  auto& s3 = g.add<ConstSource>("coeffC", apps::blur_coeff5x5());
  auto& out = g.add<OutputKernel>("result");
  g.connect(input, "out", c1, "in");
  g.connect(s1, "out", c1, "coeff");
  g.connect(c1, "out", c2, "in");
  g.connect(s2, "out", c2, "coeff");
  g.connect(c2, "out", c3, "in");
  g.connect(s3, "out", c3, "coeff");
  g.connect(c3, "out", out, "in");
  return g;
}

Mapping fold(const Mapping& m, int workers) {
  Mapping f;
  f.cores = std::min(workers, m.cores);
  f.core_of = m.core_of;
  for (int& c : f.core_of) c %= f.cores;
  return f;
}

}  // namespace perfbench
