// batch_full: the CLI/daemon default shape.
//
// A BatchEngine with the full standard line-up, certificates on and no
// cache solves 4-task x 96-step x universe-32 jobs of all five families,
// in a closed loop with two jobs in flight (two client threads, each
// solving one-job batches on the engine's 2-thread pool and rendering the
// result document, as the CLI does).  The inputs are kDistinct jobs cycled
// in order; every job is a pure function of its input, so a repeat must
// reproduce the first answer exactly.
//
// Check slice (cost_total, gap_pct_mean, counters): the first answer of
// each distinct job; a job the timed phases did not reach is solved once
// after them, untimed.
//
// Traced half: the same jobs replayed through the public pieces in order
// (SolveInstance -> solve_portfolio -> attach_certificate ->
// batch_result_to_json) on the two client threads; the replayed answer
// must equal the engine's.
#include <atomic>
#include <optional>
#include <thread>

#include "core/lower_bound.hpp"
#include "engine/batch_engine.hpp"
#include "io/result_json.hpp"
#include "trace.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hyperrec::engine::BatchEngine;
using hyperrec::engine::BatchJob;
using hyperrec::engine::BatchResult;
using hyperrec::engine::JobResult;

constexpr std::size_t kDistinct = 20;
constexpr std::size_t kClients = 2;

struct Answer {
  hyperrec::MTSolution solution;
  std::string winner;
  std::uint64_t bytes = 0;
};

bool same_answer(const hyperrec::MTSolution& a, const std::string& winner_a,
                 const Answer& b) {
  return a.total() == b.solution.total() &&
         a.lower_bound == b.solution.lower_bound &&
         a.gap_pct == b.solution.gap_pct && winner_a == b.winner;
}

class BatchFull {
 public:
  explicit BatchFull(const Options& options) : options_(options) {
    const std::vector<std::string>& kinds = hyperrec::workload::family_names();
    for (std::size_t i = 0; i < kDistinct; ++i) {
      hyperrec::Xoshiro256 root(options.seed);
      hyperrec::Xoshiro256 rng = root.split(i);
      BatchJob job;
      const std::string& kind = kinds[i % kinds.size()];
      job.trace = hyperrec::workload::make_multi_family(kind, 4, 96, 32, rng);
      job.machine = machine_for(job.trace);
      job.name = kind + "-" + std::to_string(i);
      jobs_.push_back(std::move(job));
    }
    report_.tail_pct = 90;
    cpu_.register_harness_thread();
  }

  Report run() {
    Hooks hooks;
    hooks.setup = [this] {
      hyperrec::engine::BatchEngineConfig config;
      config.parallelism = kClients;
      config.certify = true;
      engine_ = std::make_unique<BatchEngine>(std::move(config));
      // Warm-up: the first input of each client, two in flight.
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([this, c] { solve_and_check(c); });
      }
      for (std::thread& client : clients) client.join();
    };
    hooks.teardown = [this] { engine_.reset(); };
    hooks.phase = [this](double seconds, bool traced) {
      return traced ? traced_phase(seconds)
                    : run_cycles(next_, kDistinct, kClients, seconds, cpu_,
                                 [this](std::size_t index, std::size_t) {
                                   return solve_and_check(index);
                                 });
    };
    drive(options_, hooks, cpu_, report_);
    finish_checks();
    return std::move(report_);
  }

 private:
  // One engine job: solve + render, then check against the first answer.
  double solve_and_check(std::size_t index) {
    const BatchJob& job = jobs_[index % kDistinct];
    const Clock::time_point start = Clock::now();
    const BatchResult result = engine_->solve({job});
    const std::string document = hyperrec::io::batch_result_to_json(result);
    const double latency = ms_between(start, Clock::now());
    const JobResult& out = result.jobs.front();
    record(index % kDistinct, out.ok, out.error, out.solution, out.winner,
           document);
    return latency;
  }

  void record(std::size_t i, bool ok, const std::string& error,
              const hyperrec::MTSolution& solution, const std::string& winner,
              const std::string& document) {
    const std::lock_guard<std::mutex> lock(mutex_);
    report_.attempted += 1;
    if (!ok) {
      report_.fail(jobs_[i].name + ": " + error);
      return;
    }
    if (!first_[i].has_value()) {
      first_[i] = Answer{solution, winner, normalized_bytes(document)};
    } else if (!same_answer(solution, winner, *first_[i])) {
      report_.fail(jobs_[i].name + ": answer differs from its first solve");
    }
  }

  PhaseResult traced_phase(double seconds) {
    std::vector<SpanLog> logs(kClients, SpanLog(Clock::now()));
    std::vector<double> member_ms(kClients, 0);
    std::vector<double> waste_ms(kClients, 0);
    PhaseResult phase = run_cycles(
        next_, kDistinct, kClients, seconds, cpu_,
        [&](std::size_t index, std::size_t c) {
          return replay_job(index, logs[c], member_ms[c], waste_ms[c]);
        });
    std::vector<const SpanLog*> views;
    for (const SpanLog& log : logs) views.push_back(&log);
    const auto totals = collect(options_, views);
    std::map<std::string, double>& layers = report_.layers;
    for (const char* name :
         {"model.instance_build", "core.lower_bound", "io.render",
          "core.aligned_dp", "core.greedy", "core.coord_descent",
          "core.genetic", "core.annealing"}) {
      layers[std::string(name) + "_ms"] = self_ms_per(totals, name, phase.ops);
    }
    layers["engine.portfolio_overhead_ms"] =
        self_ms_per(totals, "engine.portfolio", phase.ops);
    double member = 0;
    double waste = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      member += member_ms[c];
      waste += waste_ms[c];
    }
    layers["core.member_waste_pct"] = member > 0 ? 100.0 * waste / member : 0;
    return phase;
  }

  // The engine's job path, replayed through the public pieces.
  double replay_job(std::size_t index, SpanLog& log, double& member_ms,
                    double& waste_ms) {
    const std::size_t i = index % kDistinct;
    const BatchJob& job = jobs_[i];
    const Clock::time_point start = Clock::now();
    const std::int64_t op = log.begin("batch.job", index);
    const hyperrec::SolveInstance instance =
        replay(log, "model.instance_build", index, op, [&] {
          return hyperrec::SolveInstance(job.trace, job.machine, job.options);
        });
    hyperrec::engine::PortfolioConfig portfolio;
    portfolio.parallel = false;
    const std::int64_t race = log.begin("engine.portfolio", index, op);
    hyperrec::engine::PortfolioResult result =
        hyperrec::engine::solve_portfolio(instance, portfolio);
    log.end(race);
    for (const hyperrec::engine::PortfolioEntry& entry : result.entries) {
      const double ms = static_cast<double>(entry.elapsed.count()) / 1e3;
      log.add_reported(member_span(entry.solver), index, race, ms);
      member_ms += ms;
      if (entry.solver != result.winner) waste_ms += ms;
    }
    replay(log, "core.lower_bound", index, op, [&] {
      hyperrec::attach_certificate(instance, result.best);
      return 0;
    });
    BatchResult batch;
    batch.parallelism = kClients;
    batch.jobs.resize(1);
    JobResult& out = batch.jobs.front();
    out.name = job.name;
    out.ok = true;
    out.winner = result.winner;
    out.solution = result.best;
    out.entries = result.entries;
    const std::string document = replay(log, "io.render", index, op, [&] {
      return hyperrec::io::batch_result_to_json(batch);
    });
    log.end(op);
    record(i, true, "", out.solution, out.winner, document);
    return ms_between(start, Clock::now());
  }

  void finish_checks() {
    double gap_sum = 0;
    for (std::size_t i = 0; i < kDistinct; ++i) {
      if (!first_[i].has_value()) (void)solve_and_check(i);
      if (!first_[i].has_value()) continue;  // the failure is recorded
      const Answer& answer = *first_[i];
      check_schedule(report_, jobs_[i].name, jobs_[i].trace,
                     jobs_[i].machine, answer.solution.schedule,
                     answer.solution.total());
      if (!answer.solution.gap_pct.has_value()) {
        report_.fail(jobs_[i].name + ": no certified gap");
      }
      report_.cost_total += static_cast<double>(answer.solution.total());
      gap_sum += answer.solution.gap_pct.value_or(0.0);
      report_.counters[wins_counter(answer.winner)] += 1;
      report_.counters["io.response_bytes"] += answer.bytes;
    }
    report_.gap_pct_mean = gap_sum / static_cast<double>(kDistinct);
  }

  const Options& options_;
  std::vector<BatchJob> jobs_;
  std::unique_ptr<BatchEngine> engine_;
  std::atomic<std::size_t> next_{kClients};  ///< next job index to run
  std::mutex mutex_;
  std::optional<Answer> first_[kDistinct];
  ThreadCpu cpu_;
  Report report_;
};

}  // namespace

Report run_batch_full(const Options& options) {
  return BatchFull(options).run();
}

}  // namespace perfbench
