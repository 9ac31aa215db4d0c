// Shared pieces of the repo benchmark: options, clocks, the report every
// workload fills in, latency percentiles, memory and thread-CPU probes, and
// the output checks common to all workloads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "model/machine.hpp"
#include "model/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Smallest multiple of `k` that is at least `x`.
[[nodiscard]] inline std::size_t round_up(std::size_t x, std::size_t k) {
  return (x + k - 1) / k * k;
}

/// Set-up repetitions per run; setup_s reports their median.  A set-up
/// pays page faults and pool start-up, which memory noise on a shared
/// host moves more than the timed phase, so it takes five samples.
inline constexpr int kSetupRepeats = 5;

/// Deterministic work counters: computed over a fixed slice of the
/// workload (see each workload's file comment), so they repeat exactly
/// across runs of one seed.
using Counters = std::map<std::string, std::uint64_t>;

/// What one workload run measured.  The workload fills the raw figures;
/// main.cpp turns them into the end-to-end or per-layer metric set.
struct Report {
  // Correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages

  // End to end (untraced phase).
  std::vector<double> setup_s;     ///< one entry per set-up repetition
  double ops = 0;                  ///< completed operations in the phase
  double wall_s = 0;               ///< timed wall time of the phase
  std::vector<double> latency_ms;  ///< per-operation client latency
  double tail_pct = 99;            ///< fixed tail percentile of the workload
  double cost_total = 0;           ///< over the deterministic check slice
  double gap_pct_mean = 0;         ///< over the deterministic check slice

  Counters counters;

  // Traced mode only.
  std::map<std::string, double> layers;  ///< per-layer metric values
  double traced_ops_per_s = 0;
  double pool_busy_pct = 0;

  void fail(const std::string& what);
};

/// Timed figures of one measured phase.
struct PhaseResult {
  double ops = 0;                  ///< completed operations
  double wall_s = 0;               ///< wall time, checks excluded
  std::vector<double> latency_ms;  ///< one sample per operation
};

/// Linear-interpolated percentile of an unsorted sample (p in [0, 100]).
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Per-thread CPU accounting from the process's own task list.  Threads
/// the benchmark starts register themselves; every other thread belongs to
/// the system under test (engine, service and solver pools).
class ThreadCpu {
 public:
  /// Marks the calling thread as a benchmark thread.
  void register_harness_thread();
  /// Starts a measurement interval.
  void start();
  /// CPU time of system-under-test threads since start(), divided by
  /// (their count x wall time), in percent.
  [[nodiscard]] double busy_pct() const;

 private:
  [[nodiscard]] std::map<long, double> sample() const;
  mutable std::mutex mutex_;
  std::set<long> harness_;
  std::map<long, double> start_cpu_;
  Clock::time_point start_;
};

/// What a workload gives drive().
struct Hooks {
  /// Releases the previous system under test (untimed; may be empty).
  std::function<void()> teardown;
  /// Builds the system under test and runs the untimed warm-up pass.
  std::function<void()> setup;
  /// Runs one timed phase of about `seconds`.  A traced phase records
  /// spans and fills Report::layers after its clock stops.
  std::function<PhaseResult(double seconds, bool traced)> phase;
};

/// The run every workload shares: kSetupRepeats timed set-ups, then one
/// untraced phase over --seconds (with --trace, half of it followed by a
/// traced half).  Fills setup_s, the phase figures, pool_busy_pct and
/// traced_ops_per_s of `report`.
void drive(const Options& options, const Hooks& hooks, ThreadCpu& cpu,
           Report& report);

/// Runs operations next, next+1, ... on `threads` benchmark threads for
/// `seconds`, then on to the next multiple of `cycle`, so a phase starts
/// and ends at a cycle boundary over the input set and every phase does
/// the same mix of work.  op(index, thread) returns the latency in ms.
[[nodiscard]] PhaseResult run_cycles(
    std::atomic<std::size_t>& next, std::size_t cycle, std::size_t threads,
    double seconds, ThreadCpu& cpu,
    const std::function<double(std::size_t, std::size_t)>& op);

/// Machine for a generated trace: local-only, l_j = the task's universe
/// (the CLI's and the daemon's default).
[[nodiscard]] hyperrec::MachineSpec machine_for(
    const hyperrec::MultiTaskTrace& trace);

/// Validates `schedule` and re-evaluates it with the boundary evaluator
/// (independent of any solver or instance cache); records a failure when
/// the shape is invalid or the cost differs from `expected_cost`.
void check_schedule(Report& report, const std::string& what,
                    const hyperrec::MultiTaskTrace& trace,
                    const hyperrec::MachineSpec& machine,
                    const hyperrec::MultiTaskSchedule& schedule,
                    hyperrec::Cost expected_cost);

/// Response bytes with every run of digits counted as one byte: the size
/// of a document's structure without its timing values, which repeats
/// exactly where the raw size cannot.
[[nodiscard]] std::uint64_t normalized_bytes(const std::string& document);

/// Counter name for a portfolio member's wins ("core.wins.<member>").
[[nodiscard]] std::string wins_counter(const std::string& member);

/// The standard line-up's member names, in line-up order, as
/// hyperrec::standard_solvers() gives them.
[[nodiscard]] const std::vector<std::string>& member_names();

/// The latency line-up served by serve_fast, stream_fleet and long_trace
/// (a configuration choice, as the daemon's --solvers flag takes it).
[[nodiscard]] const std::vector<std::string>& fast_lineup();

}  // namespace perfbench
