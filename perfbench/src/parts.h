#pragma once
// The four parts of the system the benchmark drives. Each metric is a
// median over all samples of a run.

#include <memory>

#include "common.h"

namespace perfbench {

/// The Fig. 1(b) application flood-filled through run_threaded on 1 and on
/// 4 workers.
[[nodiscard]] std::unique_ptr<Part> make_flood_part();
/// The analytics application paced on 4 workers.
[[nodiscard]] std::unique_ptr<Part> make_paced_part();
/// compile, predict and simulate over the Fig. 13 suite.
[[nodiscard]] std::unique_ptr<Part> make_toolchain_part();
/// Waves of paced tenants through an in-process bpd daemon, then journal
/// recovery.
[[nodiscard]] std::unique_ptr<Part> make_service_part();

/// Per-layer timings of the core and kernel primitives (traced runs).
void measure_primitives(Sink& sink);

}  // namespace perfbench
