#include "harness.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "model/cost_switch.hpp"
#include "trace.hpp"

namespace perfbench {

void Report::fail(const std::string& what) {
  failed += 1;
  if (errors.size() < 8) errors.push_back(what);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before execve (here, the Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void ThreadCpu::register_harness_thread() {
  const std::lock_guard<std::mutex> lock(mutex_);
  harness_.insert(static_cast<long>(syscall(SYS_gettid)));
}

void ThreadCpu::start() {
  const std::map<long, double> now = sample();
  const std::lock_guard<std::mutex> lock(mutex_);
  start_cpu_ = now;
  start_ = Clock::now();
}

double ThreadCpu::busy_pct() const {
  const std::map<long, double> now = sample();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  double cpu = 0;
  std::size_t threads = 0;
  for (const auto& [tid, seconds] : now) {
    if (harness_.count(tid) != 0) continue;
    const auto before = start_cpu_.find(tid);
    cpu += seconds - (before == start_cpu_.end() ? 0.0 : before->second);
    threads += 1;
  }
  if (threads == 0 || wall <= 0) return 0.0;
  return 100.0 * cpu / (static_cast<double>(threads) * wall);
}

std::map<long, double> ThreadCpu::sample() const {
  // utime and stime are fields 14 and 15 of /proc/self/task/<tid>/stat,
  // counted after the parenthesised command name (which may hold spaces).
  std::map<long, double> cpu;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return cpu;
  while (const dirent* entry = readdir(dir)) {
    if (!std::isdigit(static_cast<unsigned char>(entry->d_name[0]))) continue;
    std::ifstream stat(std::string("/proc/self/task/") + entry->d_name +
                       "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(line.substr(close + 2));
    std::string field;
    double utime = 0;
    double stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stod(field);
      if (i == 15) stime = std::stod(field);
    }
    cpu[std::stol(entry->d_name)] = (utime + stime) / ticks;
  }
  closedir(dir);
  return cpu;
}

void drive(const Options& options, const Hooks& hooks, ThreadCpu& cpu,
           Report& report) {
  // Fail loudly when the library's line-up no longer matches the layers.
  for (const std::string& member : member_names()) (void)member_span(member);
  for (const std::string& member : fast_lineup()) {
    if (std::find(member_names().begin(), member_names().end(), member) ==
        member_names().end()) {
      throw std::runtime_error("latency line-up member '" + member +
                               "' is not in standard_solvers()");
    }
  }
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (hooks.teardown) hooks.teardown();
    const Clock::time_point start = Clock::now();
    hooks.setup();
    report.setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  const double measure_s = options.trace ? options.seconds / 2
                                         : options.seconds;
  cpu.start();
  PhaseResult untraced = hooks.phase(measure_s, /*traced=*/false);
  report.pool_busy_pct = cpu.busy_pct();
  report.ops = untraced.ops;
  report.wall_s = untraced.wall_s;
  report.latency_ms = std::move(untraced.latency_ms);
  if (options.trace) {
    const PhaseResult traced = hooks.phase(measure_s, /*traced=*/true);
    report.traced_ops_per_s = traced.ops / traced.wall_s;
  }
}

PhaseResult run_cycles(
    std::atomic<std::size_t>& next, std::size_t cycle, std::size_t threads,
    double seconds, ThreadCpu& cpu,
    const std::function<double(std::size_t, std::size_t)>& op) {
  std::vector<std::vector<double>> latency(threads);
  next = round_up(next.load(), cycle);
  std::atomic<std::size_t> limit{std::numeric_limits<std::size_t>::max()};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto loop = [&](std::size_t t) {
    cpu.register_harness_thread();
    while (true) {
      const std::size_t index = next.fetch_add(1);
      if (Clock::now() >= deadline) {
        std::size_t unset = std::numeric_limits<std::size_t>::max();
        limit.compare_exchange_strong(unset, round_up(index, cycle));
      }
      if (index >= limit.load()) break;
      latency[t].push_back(op(index, t));
    }
  };
  if (threads == 1) {
    // On the calling thread, which ran the set-up: a fresh thread would
    // allocate from a fresh malloc arena and raise the peak resident set.
    loop(0);
  } else {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(loop, t);
    for (std::thread& worker : workers) worker.join();
  }
  PhaseResult phase;
  phase.wall_s = ms_between(start, Clock::now()) / 1e3;
  for (const std::vector<double>& samples : latency) {
    phase.latency_ms.insert(phase.latency_ms.end(), samples.begin(),
                            samples.end());
  }
  phase.ops = static_cast<double>(phase.latency_ms.size());
  return phase;
}

hyperrec::MachineSpec machine_for(const hyperrec::MultiTaskTrace& trace) {
  std::vector<std::size_t> locals;
  locals.reserve(trace.task_count());
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    locals.push_back(trace.task(j).local_universe());
  }
  return hyperrec::MachineSpec::local_only(locals);
}

void check_schedule(Report& report, const std::string& what,
                    const hyperrec::MultiTaskTrace& trace,
                    const hyperrec::MachineSpec& machine,
                    const hyperrec::MultiTaskSchedule& schedule,
                    hyperrec::Cost expected_cost) {
  try {
    schedule.validate(trace.task_count(), trace.steps());
    const hyperrec::CostBreakdown cost =
        hyperrec::evaluate_fully_sync_switch(trace, machine, schedule);
    if (cost.total != expected_cost) {
      report.fail(what + ": reported cost " + std::to_string(expected_cost) +
                  " != re-evaluated " + std::to_string(cost.total));
    }
  } catch (const std::exception& error) {
    report.fail(what + ": invalid schedule: " + error.what());
  }
}

std::uint64_t normalized_bytes(const std::string& document) {
  std::uint64_t bytes = 0;
  bool in_digits = false;
  for (const char c : document) {
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!digit || !in_digits) bytes += 1;
    in_digits = digit;
  }
  return bytes;
}

std::string wins_counter(const std::string& member) {
  return "core.wins." + member;
}

const std::vector<std::string>& member_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const hyperrec::NamedSolver& solver : hyperrec::standard_solvers()) {
      out.push_back(solver.name);
    }
    return out;
  }();
  return names;
}

const std::vector<std::string>& fast_lineup() {
  static const std::vector<std::string> names = {"aligned-dp", "greedy-w8",
                                                 "coord-descent"};
  return names;
}

}  // namespace perfbench
