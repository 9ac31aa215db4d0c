// long_trace: hierarchical solves of long traces.
//
// One job at a time: build the SolveInstance of a 4-task x 20,000-step x
// universe-256 trace and solve it with solve_hierarchical (certificates
// on, the latency line-up per 512-step segment, an explicit 2-thread
// pool).  Tasks alternate the random and phased families, so every job
// carries the same mix and job latency stays unimodal.  kDistinct inputs
// are cycled in whole cycles; a repeat must reproduce the first answer
// exactly.
//
// Check slice (cost_total, gap_pct_mean, counters): the first answer of
// each distinct job; a job the timed phases did not reach is solved once
// after them, untimed.  Each first answer's schedule must validate and
// re-evaluate to its reported cost.
//
// Traced half: the same jobs replayed through the public pieces in order
// (SolveInstance -> solve_hierarchical without its certificate ->
// attach_certificate), each a span.
#include <atomic>
#include <optional>

#include "core/hierarchical.hpp"
#include "core/lower_bound.hpp"
#include "trace.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kDistinct = 4;
constexpr std::size_t kSteps = 20000;
constexpr std::size_t kUniverse = 256;
constexpr std::size_t kThreads = 2;

struct Job {
  std::string name;
  hyperrec::MultiTaskTrace trace;
  hyperrec::MachineSpec machine;
};

struct Answer {
  hyperrec::MTSolution solution;
  std::size_t segments = 0;
};

class LongTrace {
 public:
  explicit LongTrace(const Options& options) : options_(options) {
    for (std::size_t i = 0; i < kDistinct; ++i) {
      hyperrec::Xoshiro256 root(options.seed);
      hyperrec::Xoshiro256 rng = root.split(i);
      Job job;
      job.name = "random-phased-" + std::to_string(i);
      for (std::size_t j = 0; j < 4; ++j) {
        hyperrec::Xoshiro256 task_rng = rng.split(j);
        job.trace.add_task(hyperrec::workload::make_family(
            j % 2 == 0 ? "random" : "phased", kSteps, kUniverse, task_rng));
      }
      job.machine = machine_for(job.trace);
      jobs_.push_back(std::move(job));
    }
    report_.tail_pct = 90;
    cpu_.register_harness_thread();
  }

  Report run() {
    Hooks hooks;
    hooks.teardown = [this] { pool_.reset(); };
    hooks.setup = [this] {
      pool_ = std::make_unique<hyperrec::ThreadPool>(kThreads);
      (void)solve_and_check(0);  // warm-up: the first input
    };
    hooks.phase = [this](double seconds, bool traced) {
      if (!traced) {
        return run_cycles(next_, kDistinct, 1, seconds, cpu_,
                          [this](std::size_t index, std::size_t) {
                            return solve_and_check(index);
                          });
      }
      SpanLog log(Clock::now());
      PhaseResult phase = run_cycles(next_, kDistinct, 1, seconds, cpu_,
                                     [&](std::size_t index, std::size_t) {
                                       return replay_job(index, log);
                                     });
      const auto totals = collect(options_, {&log});
      for (const char* name :
           {"model.instance_build", "core.hierarchical", "core.lower_bound"}) {
        report_.layers[std::string(name) + "_ms"] =
            self_ms_per(totals, name, phase.ops);
      }
      return phase;
    };
    drive(options_, hooks, cpu_, report_);
    finish_checks();
    return std::move(report_);
  }

 private:
  hyperrec::HierarchicalConfig config(bool certify) const {
    hyperrec::HierarchicalConfig config;
    config.pool = pool_.get();
    config.portfolio.solvers = fast_lineup();
    config.certify = certify;
    return config;
  }

  double solve_and_check(std::size_t index) {
    const Job& job = jobs_[index % kDistinct];
    const Clock::time_point start = Clock::now();
    const hyperrec::SolveInstance instance(job.trace, job.machine);
    hyperrec::HierarchicalResult result =
        hyperrec::solve_hierarchical(instance, config(true));
    const double latency = ms_between(start, Clock::now());
    record(index % kDistinct, std::move(result.solution), result.segments);
    return latency;
  }

  // The same job through the public pieces, one span each.
  double replay_job(std::size_t index, SpanLog& log) {
    const Job& job = jobs_[index % kDistinct];
    const Clock::time_point start = Clock::now();
    const std::int64_t op = log.begin("long.job", index);
    const hyperrec::SolveInstance instance =
        replay(log, "model.instance_build", index, op, [&] {
          return hyperrec::SolveInstance(job.trace, job.machine);
        });
    hyperrec::HierarchicalResult result =
        replay(log, "core.hierarchical", index, op, [&] {
          return hyperrec::solve_hierarchical(instance, config(false));
        });
    replay(log, "core.lower_bound", index, op, [&] {
      hyperrec::attach_certificate(instance, result.solution);
      return 0;
    });
    log.end(op);
    const double latency = ms_between(start, Clock::now());
    record(index % kDistinct, std::move(result.solution), result.segments);
    return latency;
  }

  void record(std::size_t i, hyperrec::MTSolution solution,
              std::size_t segments) {
    report_.attempted += 1;
    if (!first_[i].has_value()) {
      first_[i] = Answer{std::move(solution), segments};
      return;
    }
    const Answer& first = *first_[i];
    if (solution.total() != first.solution.total() ||
        solution.lower_bound != first.solution.lower_bound ||
        solution.gap_pct != first.solution.gap_pct ||
        segments != first.segments) {
      report_.fail(jobs_[i].name + ": answer differs from its first solve");
    }
  }

  void finish_checks() {
    double gap_sum = 0;
    for (std::size_t i = 0; i < kDistinct; ++i) {
      if (!first_[i].has_value()) (void)solve_and_check(i);
      const Answer& answer = *first_[i];
      check_schedule(report_, jobs_[i].name, jobs_[i].trace, jobs_[i].machine,
                     answer.solution.schedule, answer.solution.total());
      if (!answer.solution.gap_pct.has_value()) {
        report_.fail(jobs_[i].name + ": no certified gap");
      }
      report_.cost_total += static_cast<double>(answer.solution.total());
      gap_sum += answer.solution.gap_pct.value_or(0.0);
      report_.counters["core.segments"] += answer.segments;
    }
    report_.gap_pct_mean = gap_sum / static_cast<double>(kDistinct);
  }

  const Options& options_;
  std::vector<Job> jobs_;
  std::unique_ptr<hyperrec::ThreadPool> pool_;
  std::atomic<std::size_t> next_{1};  ///< next job (the warm-up ran job 0)
  std::optional<Answer> first_[kDistinct];
  ThreadCpu cpu_;
  Report report_;
};

}  // namespace

Report run_long_trace(const Options& options) {
  return LongTrace(options).run();
}

}  // namespace perfbench
