// Per-layer timings of the core and kernel primitives the runtime's
// per-firing path is built from, each timed around its public call.

#include <vector>

#include "apps/pipelines.h"
#include "core/firing.h"
#include "core/spsc_ring.h"
#include "core/tile.h"
#include "core/token.h"
#include "kernels/elementwise.h"
#include "kernels/simd/simd.h"
#include "parts.h"

using namespace bpp;

namespace perfbench {

namespace {

constexpr int kBatch = 1 << 14;  // operations per timed batch
constexpr int kBatches = 15;

/// Results of the timed operations land here so they cannot be elided.
volatile double g_observed = 0.0;

/// Median over batches of the per-operation time of `op`, in ns.
template <class Op>
double ns_per_op(Op&& op, int per_batch = kBatch) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < per_batch; ++i) op(i);
    ns.push_back(1e9 * (now_s() - t0) / per_batch);
  }
  return median(ns);
}

}  // namespace

void measure_primitives(Sink& sink) {
  Metrics& m = sink.metrics;
  double sink_value = 0.0;  // keeps results observable

  {
    Scope s(sink.spans, "core.tile_alloc");
    m["core.tile_alloc_ns"] = {ns_per_op([&](int i) {
                                 Tile t(1, 1);
                                 t.at(0, 0) = i;
                                 sink_value += t.at(0, 0);
                               }),
                               "ns"};
  }
  {
    Scope s(sink.spans, "core.ring_push_pop");
    SpscRing<Item> ring(1024);
    m["core.ring_push_pop_ns"] = {ns_per_op([&](int i) {
                                    Tile t(1, 1);
                                    t.at(0, 0) = i;
                                    ring.try_push(Item(std::move(t)));
                                    sink_value += as_tile(*ring.front()).at(0, 0);
                                    ring.pop();
                                  }),
                                  "ns"};
  }
  {
    Scope s(sink.spans, "core.decide");
    // The Fig. 1(b) subtract kernel with a pixel waiting on both inputs.
    auto sub = make_subtract("subtract");
    sub->ensure_configured();
    const std::vector<int> connected = {0, 1};
    const Item pixel = Tile(1, 1);
    auto head = [&](int) -> const Item* { return &pixel; };
    FireDecision d;
    m["core.decide_ns"] = {ns_per_op([&](int) {
                             decide_fire_into(*sub, connected, head, d);
                             sink_value += d.method;
                           }),
                           "ns"};
  }

  // Whole-frame kernels at the active ISA (Fig. 11 big frame).
  const int w = 96, h = 72;
  Tile frame(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) frame.at(x, y) = (x * 7 + y * 13) % 256;
  const simd::Ops& ops = simd::ops();
  {
    Scope s(sink.spans, "kernels.conv5x5");
    const Tile coeff = apps::blur_coeff5x5();
    Tile out(w - 4, h - 4);
    const double px = static_cast<double>((w - 4) * (h - 4));
    m["kernels.conv5x5_ns_per_px"] = {
        ns_per_op([&](int) {
          ops.conv2d(frame.data(), frame.stride(), coeff.data(), 5, 5, out.data(),
                     out.stride(), w - 4, h - 4);
          sink_value += out.at(0, 0);
        }, 64) / px,
        "ns"};
  }
  {
    Scope s(sink.spans, "kernels.median3x3");
    Tile out(w - 2, h - 2);
    const double px = static_cast<double>((w - 2) * (h - 2));
    m["kernels.median3x3_ns_per_px"] = {
        ns_per_op([&](int) {
          ops.median3x3_2d(frame.data(), frame.stride(), out.data(), out.stride(), w - 2,
                           h - 2);
          sink_value += out.at(0, 0);
        }, 64) / px,
        "ns"};
  }
  g_observed = sink_value;
}

}  // namespace perfbench
