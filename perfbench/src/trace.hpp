// Spans for the traced run, recorded from the benchmark's own files
// around calls into the library's public functions.
//
// A span has a name, a request id, a parent, a start and a duration.  Each
// benchmark thread owns one SpanLog (no locking on the hot path); logs are
// merged and written out when the run ends.  Three sources:
//
//   measured  the benchmark timed the call on the operation's path
//             (a handle_line call, a BatchEngine-free job replay, ...);
//   replayed  the benchmark re-ran a public piece on the same input to
//             time it (parse_request, make_instance_key, SolveInstance,
//             compute_lower_bound, batch_result_to_json) and attributes
//             the time to the parent it happens inside in the system;
//   reported  the duration comes from the program's own output (queue
//             wait, job elapsed_us, per-member elapsed_us, window
//             elapsed); its start is unknown and written as -1.
//
// A span's self time is its duration minus its direct children's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

enum class SpanSource : char { kMeasured = 'm', kReplayed = 'r', kReported = 'p' };

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t request = 0;
  std::int64_t parent = -1;  ///< index in the same log; -1 for a root
  std::int64_t start_ns = -1;
  std::int64_t dur_ns = 0;
  SpanSource source = SpanSource::kMeasured;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a measured span now; returns its index for end()/children.
  std::int64_t begin(const char* name, std::uint64_t request,
                     std::int64_t parent = -1);
  void end(std::int64_t index);

  /// Records a finished span with known times.
  std::int64_t add(const char* name, std::uint64_t request,
                   std::int64_t parent, Clock::time_point start,
                   Clock::time_point stop, SpanSource source);
  /// Records a span the program reported (duration only).
  std::int64_t add_reported(const char* name, std::uint64_t request,
                            std::int64_t parent, double dur_ms);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Runs `fn` and records it as a replayed child of `parent`.
template <typename Fn>
auto replay(SpanLog& log, const char* name, std::uint64_t request,
            std::int64_t parent, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  log.add(name, request, parent, start, Clock::now(), SpanSource::kReplayed);
  return result;
}

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Writes the spans to options.spans_path (one JSON object per line, when
/// a path is set) and returns per-name totals over every log (self time =
/// duration minus the direct children's durations).
[[nodiscard]] std::map<std::string, SpanTotals> collect(
    const Options& options, const std::vector<const SpanLog*>& logs);

/// Span name of a standard line-up member ("core.aligned_dp", ...); throws
/// for a member without one, so a renamed or added member stops the run
/// (drive() asks for every member's span before it starts).
[[nodiscard]] const char* member_span(const std::string& member);

/// Mean self time per operation of the named span, in ms.
[[nodiscard]] double self_ms_per(const std::map<std::string, SpanTotals>& totals,
                                 const std::string& name, double ops);

}  // namespace perfbench
