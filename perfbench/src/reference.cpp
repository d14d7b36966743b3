#include "reference.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "apps/pipelines.h"
#include "kernels/bayer.h"

namespace perfbench {

namespace {

const double kBinomial5[5] = {1 / 16.0, 4 / 16.0, 6 / 16.0, 4 / 16.0, 1 / 16.0};

Image blur5x5() {
  Image c(5, 5);
  for (int y = 0; y < 5; ++y)
    for (int x = 0; x < 5; ++x) c.at(x, y) = kBinomial5[x] * kBinomial5[y];
  return c;
}

std::vector<double> uniform_uppers(int bins) {
  std::vector<double> u(static_cast<std::size_t>(bins));
  for (int i = 0; i < bins; ++i)
    u[static_cast<std::size_t>(i)] = 0.0 + 256.0 * (i + 1) / bins;
  return u;
}

int bin_of(double v, const std::vector<double>& uppers) {
  const int bins = static_cast<int>(uppers.size());
  for (int i = 0; i < bins - 1; ++i)
    if (v < uppers[static_cast<std::size_t>(i)]) return i;
  return bins - 1;
}

std::string where(int x, int y, double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << "(" << x << "," << y << ") got " << got << " want " << want;
  return os.str();
}

}  // namespace

Image median3x3(const Image& in) {
  Image out(in.w - 2, in.h - 2);
  for (int y = 0; y < out.h; ++y)
    for (int x = 0; x < out.w; ++x) {
      double v[9];
      int n = 0;
      for (int j = 0; j < 3; ++j)
        for (int i = 0; i < 3; ++i) v[n++] = in.at(x + i, y + j);
      std::sort(v, v + 9);
      out.at(x, y) = v[4];
    }
  return out;
}

Image convolve(const Image& in, const Image& coeff) {
  Image out(in.w - coeff.w + 1, in.h - coeff.h + 1);
  for (int y = 0; y < out.h; ++y)
    for (int x = 0; x < out.w; ++x) {
      double s = 0.0;
      for (int j = 0; j < coeff.h; ++j)
        for (int i = 0; i < coeff.w; ++i)
          s += in.at(x + i, y + j) * coeff.at(coeff.w - 1 - i, coeff.h - 1 - j);
      out.at(x, y) = s;
    }
  return out;
}

Image sobel(const Image& in) {
  Image out(in.w - 2, in.h - 2);
  for (int y = 0; y < out.h; ++y)
    for (int x = 0; x < out.w; ++x) {
      auto p = [&](int i, int j) { return in.at(x + i, y + j); };
      const double gx = (p(2, 0) + 2 * p(2, 1) + p(2, 2)) - (p(0, 0) + 2 * p(0, 1) + p(0, 2));
      const double gy = (p(0, 2) + 2 * p(1, 2) + p(2, 2)) - (p(0, 0) + 2 * p(1, 0) + p(2, 0));
      out.at(x, y) = std::abs(gx) + std::abs(gy);
    }
  return out;
}

Image crop(const Image& in, int x0, int y0, int w, int h) {
  Image out(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) out.at(x, y) = in.at(x0 + x, y0 + y);
  return out;
}

Image bayer(const Image& mosaic) {
  const int iw = (mosaic.w - 4) / 2 + 1, ih = (mosaic.h - 4) / 2 + 1;
  Image out(iw * 2, ih * 2);
  bpp::Tile win(4, 4);
  for (int wy = 0; wy < ih; ++wy)
    for (int wx = 0; wx < iw; ++wx) {
      for (int j = 0; j < 4; ++j)
        for (int i = 0; i < 4; ++i) win.at(i, j) = mosaic.at(wx * 2 + i, wy * 2 + j);
      const bpp::Tile cell = bpp::BayerDemosaicKernel::demosaic_window(win);
      for (int j = 0; j < 2; ++j)
        for (int i = 0; i < 2; ++i) out.at(wx * 2 + i, wy * 2 + j) = cell.at(i, j);
    }
  return out;
}

std::vector<long> histogram(const Image& in, const std::vector<double>& uppers) {
  std::vector<long> counts(uppers.size(), 0);
  for (double v : in.px) ++counts[static_cast<std::size_t>(bin_of(v, uppers))];
  return counts;
}

std::vector<long> fig1_histogram(const Image& frame, int bins) {
  const Image med = median3x3(frame);
  const Image conv = convolve(frame, blur5x5());
  Image diff = crop(med, 1, 1, conv.w, conv.h);
  for (std::size_t i = 0; i < diff.px.size(); ++i) diff.px[i] -= conv.px[i];
  return histogram(diff, bpp::apps::diff_bins(bins));
}

AnalyticsExpect AnalyticsReference::next(const Image& frame) {
  constexpr double alpha = 0.4, level = 120.0;
  constexpr int bins = 16;
  Image y(frame.w, frame.h);
  for (std::size_t i = 0; i < y.px.size(); ++i)
    y.px[i] = alpha * frame.px[i] + (1.0 - alpha) * prev_.px[i];
  prev_ = y;

  const Image blurred = convolve(y, blur5x5());
  const Image grad = sobel(blurred);
  Image edge(grad.w, grad.h);  // 0, 1, or -1 (undecided)
  for (std::size_t i = 0; i < grad.px.size(); ++i) {
    const double g = grad.px[i];
    edge.px[i] = std::abs(g - level) <= kEps ? -1.0 : (g > level ? 1.0 : 0.0);
  }

  AnalyticsExpect e;
  e.edges = Image(edge.w - 2, edge.h - 2);
  for (int yy = 0; yy < e.edges.h; ++yy)
    for (int xx = 0; xx < e.edges.w; ++xx) {
      bool any_one = false, any_open = false;
      for (int j = 0; j < 3; ++j)
        for (int i = 0; i < 3; ++i) {
          const double v = edge.at(xx + i, yy + j);
          any_one |= v == 1.0;
          any_open |= v < 0.0;
        }
      e.edges.at(xx, yy) = any_one ? 1.0 : (any_open ? -1.0 : 0.0);
    }

  const std::vector<double> uppers = uniform_uppers(bins);
  e.hist_lo.assign(bins, 0);
  e.hist_hi.assign(bins, 0);
  for (double v : blurred.px) {
    const int lo = bin_of(v - kEps, uppers), hi = bin_of(v + kEps, uppers);
    if (lo == hi) ++e.hist_lo[static_cast<std::size_t>(lo)];
    for (int b = lo; b <= hi; ++b) ++e.hist_hi[static_cast<std::size_t>(b)];
  }
  e.pixels = static_cast<long>(blurred.px.size());
  return e;
}

std::string compare(const bpp::Tile& got, const Image& want, double tol) {
  if (got.width() != want.w || got.height() != want.h)
    return "size mismatch";
  for (int y = 0; y < want.h; ++y)
    for (int x = 0; x < want.w; ++x)
      if (!(std::abs(got.at(x, y) - want.at(x, y)) <= tol))
        return where(x, y, got.at(x, y), want.at(x, y));
  return {};
}

std::string compare_counts(const bpp::Tile& got, const std::vector<long>& want) {
  if (got.width() != static_cast<int>(want.size()) || got.height() != 1)
    return "histogram size mismatch";
  for (int i = 0; i < got.width(); ++i)
    if (got.at(i, 0) != static_cast<double>(want[static_cast<std::size_t>(i)]))
      return "bin " + where(i, 0, got.at(i, 0),
                            static_cast<double>(want[static_cast<std::size_t>(i)]));
  return {};
}

std::string compare_edges(const bpp::Tile& got, const AnalyticsExpect& want) {
  if (got.width() != want.edges.w || got.height() != want.edges.h)
    return "edge map size mismatch";
  for (int y = 0; y < want.edges.h; ++y)
    for (int x = 0; x < want.edges.w; ++x) {
      const double w = want.edges.at(x, y), g = got.at(x, y);
      if (w < 0.0 ? (g != 0.0 && g != 1.0) : g != w) return "edge " + where(x, y, g, w);
    }
  return {};
}

std::string compare_stats(const bpp::Tile& got, const AnalyticsExpect& want) {
  const int bins = static_cast<int>(want.hist_lo.size());
  if (got.width() != bins || got.height() != 1) return "stats size mismatch";
  long total = 0;
  for (int i = 0; i < bins; ++i) {
    const double g = got.at(i, 0);
    total += static_cast<long>(g);
    if (g < static_cast<double>(want.hist_lo[static_cast<std::size_t>(i)]) ||
        g > static_cast<double>(want.hist_hi[static_cast<std::size_t>(i)]))
      return "stats bin " + where(i, 0, g, static_cast<double>(want.hist_lo[static_cast<std::size_t>(i)]));
  }
  if (total != want.pixels) return "stats total " + std::to_string(total);
  return {};
}

}  // namespace perfbench
