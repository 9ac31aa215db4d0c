// The four workloads.  Each builds its inputs from the seed, sets up the
// system under test several times (setup_s is their median), measures for
// the requested time, checks outputs, and fills a Report.  With
// Options::trace the measured time is split: an untraced half gives the
// throughput baseline and SUT thread load, a traced half gives the spans.
#pragma once

#include "harness.hpp"

namespace perfbench {

Report run_batch_full(const Options& options);
Report run_serve_fast(const Options& options);
Report run_stream_fleet(const Options& options);
Report run_long_trace(const Options& options);

}  // namespace perfbench
