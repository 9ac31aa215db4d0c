// stream_fleet: fleet streaming through a StreamMultiplexer.
//
// 64 streams of 4 tasks x universe 32 (mixed families) stream through one
// multiplexer on an explicit 2-thread pool: window 256, trigger steps:16,
// the latency line-up.  Streams 2k and 2k+1 (k < 16) replay the same trace
// in lockstep, so their window re-solves coalesce in the shared cache;
// the other 32 streams are unique.  Stream starts are staggered over 16
// rounds, so each round fires the trigger on 4 streams instead of all 64
// at once.  The producer keeps one round in flight: it appends one step to
// every active stream, then drains, so the backlog never grows.  A
// trigger's latency runs from the append that fired it to the drain that
// returns with the stream's snapshot covering that step; by then the
// stream's engine must hold one more window, which succeeded, and the
// snapshot must count one more re-solve than before the append.
//
// Work is cut into epochs: an epoch opens a fresh multiplexer (and with
// it a fresh shared cache), streams kSteps steps per stream, flushes and
// drains.  Every epoch replays the same traces, so every epoch must
// publish the same final costs and the same counters (the hit/coalesced
// split depends on timing; their sum does not).  A timed phase runs whole
// epochs, and checks them once its clock has stopped; the set-up warm-up
// streams the first kWarmupRounds rounds of a throwaway epoch.
//
// Check slice (cost_total, gap_pct_mean, counters): the first timed
// epoch, checked after the run.  Its final snapshots must validate and
// re-evaluate to their published cost; the gap is each stream's final
// cost against a certified lower bound of its whole trace.
//
// Traced half: per round, the appends and the drain are measured spans;
// each window re-solve's elapsed time is reported by the engine after the
// epoch drains.  The core/cache/model layers are then timed by replaying
// the window solves of a fixed sample of streams through make_instance_key,
// SolveInstance and solve_portfolio (cold, after the timed phase).
#include "cache/fingerprint.hpp"
#include "core/lower_bound.hpp"
#include "streaming/stream_multiplexer.hpp"
#include "streaming/trigger_spec.hpp"
#include "trace.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hyperrec::streaming::StreamMultiplexer;

constexpr std::size_t kStreams = 64;
constexpr std::size_t kPairs = 16;
constexpr std::size_t kEvery = 16;
constexpr std::size_t kSteps = 512;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kRounds = kSteps + kEvery - 1;
constexpr std::size_t kWarmupRounds = 128;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kReplayStreams = 8;

std::size_t offset_of(std::size_t s) {
  return s < 2 * kPairs ? (s / 2) % kEvery : (s - 2 * kPairs) % kEvery;
}

std::size_t trace_of(std::size_t s) {
  return s < 2 * kPairs ? s / 2 : s - kPairs;
}

/// Per-epoch outcome; equal across epochs.
struct EpochResult {
  std::vector<hyperrec::Cost> costs;  ///< final published cost per stream
  Counters counters;
  bool operator==(const EpochResult&) const = default;
};

/// A timed phase's figures beyond PhaseResult.
struct Phase {
  PhaseResult timed;
  SpanLog log{Clock::now()};
  std::vector<double> resolve_ms;
  std::vector<EpochResult> epochs;  ///< checked after the clock stops
};

class StreamFleet {
 public:
  explicit StreamFleet(const Options& options) : options_(options) {
    const std::vector<std::string>& kinds = hyperrec::workload::family_names();
    for (std::size_t t = 0; t < kStreams - kPairs; ++t) {
      hyperrec::Xoshiro256 root(options.seed);
      hyperrec::Xoshiro256 rng = root.split(t);
      const hyperrec::MultiTaskTrace generated =
          hyperrec::workload::make_multi_family(kinds[t % kinds.size()], 4,
                                                kSteps, 32, rng);
      // Periodic traces round up to whole periods; every stream streams
      // exactly kSteps.
      hyperrec::MultiTaskTrace trace;
      for (std::size_t j = 0; j < generated.task_count(); ++j) {
        trace.add_task(generated.task(j).slice(0, kSteps));
      }
      traces_.push_back(std::move(trace));
    }
    machine_ = machine_for(traces_.front());
    report_.tail_pct = 99;
    cpu_.register_harness_thread();
  }

  Report run() {
    Hooks hooks;
    hooks.teardown = [this] {
      mux_.reset();
      pool_.reset();
    };
    hooks.setup = [this] {
      pool_ = std::make_unique<hyperrec::ThreadPool>(kThreads);
      open_epoch();
      for (; round_ < kWarmupRounds; ++round_) run_round(nullptr, nullptr);
    };
    hooks.phase = [this](double seconds, bool traced) {
      return run_phase(seconds, traced);
    };
    drive(options_, hooks, cpu_, report_);
    mux_.reset();
    check_slice();
    return std::move(report_);
  }

 private:
  void open_epoch() {
    hyperrec::streaming::MultiplexerConfig config;
    config.pool = pool_.get();
    config.stream.window = kWindow;
    config.stream.trigger = hyperrec::streaming::parse_trigger_spec(
        "steps:" + std::to_string(kEvery));
    config.stream.portfolio.solvers = fast_lineup();
    mux_ = std::make_unique<StreamMultiplexer>(std::move(config));
    for (std::size_t s = 0; s < kStreams; ++s) {
      if (mux_->open_stream(machine_) != s) {
        throw std::runtime_error("multiplexer stream ids are not dense");
      }
    }
    round_ = 0;
  }

  // One round: append the next step of every active stream, drain, and
  // take a latency sample for every stream whose trigger fired.
  void run_round(Phase* phase, SpanLog* log) {
    const std::int64_t span =
        log != nullptr ? log->begin("streaming.round", round_) : -1;
    const Clock::time_point append_start = Clock::now();
    struct Fired {
      std::size_t stream;
      std::size_t resolves_before;  ///< of the stream's snapshot
      std::size_t windows_before;   ///< of the stream's engine
      Clock::time_point at;
    };
    std::vector<Fired> fired;
    std::size_t appended = 0;
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::size_t offset = offset_of(s);
      if (round_ < offset || round_ - offset >= kSteps) continue;
      const std::size_t step = round_ - offset;
      const bool fires = step % kEvery == 0;
      std::size_t resolves = 0;
      std::size_t windows = 0;
      if (fires) {  // the stream is idle: the last round was drained
        const auto snapshot = mux_->snapshot(s);
        resolves = snapshot == nullptr ? 0 : snapshot->resolves;
        windows = mux_->engine(s).windows().size();
      }
      const Clock::time_point at = Clock::now();
      mux_->append_step(s, traces_[trace_of(s)].step(step));
      appended += 1;
      if (fires) fired.push_back({s, resolves, windows, at});
    }
    const Clock::time_point drain_start = Clock::now();
    mux_->drain();
    const Clock::time_point done = Clock::now();
    if (log != nullptr) {
      log->add("streaming.append", round_, span, append_start, drain_start,
               SpanSource::kMeasured);
      log->add("streaming.drain", round_, span, drain_start, done,
               SpanSource::kMeasured);
      log->end(span);
    }
    // The fired re-solve must have run, succeeded and published: the
    // engine has a new window and it is ok, and the snapshot counts one
    // more re-solve than before the append and covers the appended step.
    for (const Fired& f : fired) {
      const auto snapshot = mux_->snapshot(f.stream);
      const std::size_t covered = round_ - offset_of(f.stream) + 1;
      const auto& windows = mux_->engine(f.stream).windows();
      report_.attempted += 1;
      if (windows.size() <= f.windows_before || !windows.back().ok ||
          snapshot == nullptr || snapshot->resolves <= f.resolves_before ||
          snapshot->steps != covered) {
        report_.fail("stream " + std::to_string(f.stream) +
                     ": trigger at step " + std::to_string(covered - 1) +
                     " did not publish a successful re-solve covering it");
      } else if (phase != nullptr) {
        phase->timed.latency_ms.push_back(ms_between(f.at, done));
      }
    }
    if (phase != nullptr) phase->timed.ops += static_cast<double>(appended);
  }

  // Flushes and drains the epoch and records its outcome for the checks
  // after the clock stops.  With a traced phase, each window re-solve's
  // reported time becomes a span.
  void close_epoch(Phase& phase, bool traced) {
    mux_->flush_all();
    mux_->drain();
    EpochResult result;
    const hyperrec::streaming::FleetStats stats = mux_->fleet_stats();
    const bool first = !first_epoch_.has_value() && phase.epochs.empty();
    for (std::size_t s = 0; s < kStreams; ++s) {
      const auto snapshot = mux_->snapshot(s);
      if (first) first_snapshots_.push_back(snapshot);
      report_.attempted += 1;
      if (snapshot == nullptr || !snapshot->published_cost.has_value() ||
          snapshot->steps != kSteps) {
        report_.fail("stream " + std::to_string(s) +
                     ": no final snapshot over the whole stream");
        result.costs.push_back(-1);
        continue;
      }
      result.costs.push_back(*snapshot->published_cost);
      for (const auto& window : mux_->engine(s).windows()) {
        // A pair's second lookup reads "cache" or "coalesced"; the window
        // was solved once either way, so member wins repeat exactly.
        if (window.winner != "cache" && window.winner != "coalesced") {
          result.counters[wins_counter(window.winner)] += 1;
        }
        if (traced) {
          phase.resolve_ms.push_back(
              static_cast<double>(window.elapsed.count()) / 1e3);
          phase.log.add_reported("streaming.resolve", s, -1,
                                 phase.resolve_ms.back());
        }
      }
    }
    if (stats.failures != 0 || stats.failed_windows != 0 ||
        stats.dropped != 0) {
      report_.fail("fleet reported failed windows or poisoned streams");
    }
    Counters& counters = result.counters;
    counters["streaming.resolves"] = stats.resolves;
    counters["streaming.publications"] = stats.publications;
    // Timing decides whether a pair's second lookup hits or coalesces;
    // only their sum takes part in the epoch comparison.
    counters["cache.hits_plus_coalesced"] =
        stats.cache.hits + stats.cache.coalesced;
    counters["cache.misses"] = stats.cache.misses;
    counters["cache.evictions"] = stats.cache.evictions;
    if (first) first_stats_ = stats.cache;
    phase.epochs.push_back(std::move(result));
  }

  // Every epoch replays the same traces: pair streams publish the same
  // cost, and each epoch's costs and counters equal the first epoch's.
  void check_epochs(const std::vector<EpochResult>& epochs) {
    for (const EpochResult& result : epochs) {
      for (std::size_t k = 0; k < kPairs; ++k) {
        if (result.costs[2 * k] != result.costs[2 * k + 1]) {
          report_.fail("pair " + std::to_string(k) +
                       ": streams of one trace published different costs");
        }
      }
      if (!first_epoch_.has_value()) {
        first_epoch_ = result;
      } else if (!(result == *first_epoch_)) {
        report_.fail("an epoch's costs or counters differ from the first's");
      }
    }
  }

  // Runs whole epochs until the time is up, so every phase does the same
  // mix of window sizes; the epochs are checked after the clock stops.
  PhaseResult run_phase(double seconds, bool traced) {
    Phase phase;
    SpanLog* log = traced ? &phase.log : nullptr;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    do {
      open_epoch();
      for (; round_ < kRounds; ++round_) run_round(&phase, log);
      close_epoch(phase, traced);
    } while (Clock::now() < deadline);
    phase.timed.wall_s = ms_between(start, Clock::now()) / 1e3;
    check_epochs(phase.epochs);
    if (traced) {
      replay_windows(phase);
      fill_layers(phase);
    }
    return std::move(phase.timed);
  }

  // Times the layers under a window re-solve by replaying the windows of
  // a fixed sample of streams of the closed epoch, cold.
  void replay_windows(Phase& phase) {
    SpanLog& log = phase.log;
    for (std::size_t s = 0; s < kReplayStreams; ++s) {
      const hyperrec::streaming::StreamingEngine& engine = mux_->engine(s);
      for (const auto& window : engine.windows()) {
        const std::uint64_t id = (s << 32) | window.index;
        hyperrec::MultiTaskTrace slice;
        for (std::size_t j = 0; j < engine.trace().task_count(); ++j) {
          slice.add_task(
              engine.trace().task(j).slice(window.window_lo, window.window_hi));
        }
        const std::int64_t root = log.begin("streaming.window_replay", id);
        (void)replay(log, "cache.key", id, root, [&] {
          return hyperrec::cache::make_instance_key(slice, machine_, {});
        });
        const hyperrec::SolveInstance instance =
            replay(log, "model.instance_build", id, root,
                   [&] { return hyperrec::SolveInstance(slice, machine_); });
        hyperrec::engine::PortfolioConfig portfolio;
        portfolio.solvers = fast_lineup();
        portfolio.parallel = false;
        const std::int64_t race = log.begin("engine.portfolio", id, root);
        const hyperrec::engine::PortfolioResult result =
            hyperrec::engine::solve_portfolio(instance, portfolio);
        log.end(race);
        for (const auto& entry : result.entries) {
          const double ms = static_cast<double>(entry.elapsed.count()) / 1e3;
          log.add_reported(member_span(entry.solver), id, race, ms);
          member_ms_ += ms;
          if (entry.solver != result.winner) waste_ms_ += ms;
        }
        log.end(root);
        replayed_windows_ += 1;
      }
    }
  }

  void fill_layers(const Phase& traced) {
    const auto totals = collect(options_, {&traced.log});
    std::map<std::string, double>& layers = report_.layers;
    const double windows = static_cast<double>(replayed_windows_);
    for (const char* name :
         {"cache.key", "model.instance_build", "core.aligned_dp",
          "core.greedy", "core.coord_descent"}) {
      layers[std::string(name) + "_ms"] = self_ms_per(totals, name, windows);
    }
    layers["engine.portfolio_overhead_ms"] =
        self_ms_per(totals, "engine.portfolio", windows);
    layers["core.member_waste_pct"] =
        member_ms_ > 0 ? 100.0 * waste_ms_ / member_ms_ : 0;
    const auto append = totals.find("streaming.append");
    layers["streaming.append_us"] =
        append == totals.end() || traced.timed.ops == 0
            ? 0
            : 1e3 * append->second.total_ms / traced.timed.ops;
    double resolve_sum = 0;
    for (const double ms : traced.resolve_ms) resolve_sum += ms;
    layers["streaming.resolve_ms"] =
        traced.resolve_ms.empty()
            ? 0
            : resolve_sum / static_cast<double>(traced.resolve_ms.size());
    const double lookups = static_cast<double>(
        first_stats_.hits + first_stats_.coalesced + first_stats_.misses);
    layers["cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(first_stats_.hits +
                                          first_stats_.coalesced) /
                          lookups
                    : 0;
  }

  // The check slice: the first closed epoch's final snapshots validate,
  // re-evaluate to their published cost, and are scored against a
  // certified lower bound of the whole stream.
  void check_slice() {
    if (!first_epoch_.has_value()) return;  // no epoch closed: failed above
    double gap_sum = 0;
    for (std::size_t s = 0; s < kStreams; ++s) {
      const auto& snapshot = first_snapshots_[s];
      if (snapshot == nullptr || !snapshot->published_cost.has_value()) {
        continue;  // already failed in close_epoch
      }
      const hyperrec::MultiTaskTrace& trace = traces_[trace_of(s)];
      check_schedule(report_, "stream " + std::to_string(s), trace, machine_,
                     snapshot->schedule, *snapshot->published_cost);
      const hyperrec::SolveInstance instance(trace, machine_);
      const hyperrec::Cost bound = hyperrec::compute_lower_bound(instance).bound;
      gap_sum += hyperrec::certified_gap_pct(*snapshot->published_cost, bound)
                     .value_or(0.0);
      report_.cost_total += static_cast<double>(*snapshot->published_cost);
    }
    report_.gap_pct_mean = gap_sum / static_cast<double>(kStreams);
    report_.counters = first_epoch_->counters;
    report_.counters["cache.hits"] = first_stats_.hits;
    report_.counters["cache.coalesced"] = first_stats_.coalesced;
  }

  const Options& options_;
  std::vector<hyperrec::MultiTaskTrace> traces_;
  hyperrec::MachineSpec machine_;
  std::unique_ptr<hyperrec::ThreadPool> pool_;
  std::unique_ptr<StreamMultiplexer> mux_;
  std::size_t round_ = 0;
  std::optional<EpochResult> first_epoch_;
  std::vector<std::shared_ptr<const hyperrec::streaming::StreamSnapshot>>
      first_snapshots_;
  hyperrec::cache::SolveCacheStats first_stats_;
  std::size_t replayed_windows_ = 0;
  double member_ms_ = 0;
  double waste_ms_ = 0;
  ThreadCpu cpu_;
  Report report_;
};

}  // namespace

Report run_stream_fleet(const Options& options) {
  return StreamFleet(options).run();
}

}  // namespace perfbench
