#include "model/cost_switch.hpp"

#include <algorithm>
#include <array>

#include "model/instance.hpp"
#include "model/trace_stats.hpp"
#include "support/bitset_kernels.hpp"

namespace hyperrec {

namespace {

Cost combine(UploadMode mode, Cost acc, Cost value) {
  return mode == UploadMode::kTaskParallel ? std::max(acc, value) : acc + value;
}

/// Cost of task j's local hyperreconfiguration into interval k, including
/// the optional changeover term against the previous hypercontext.
Cost local_hyper_cost(const MachineSpec& machine, std::size_t j,
                      const std::vector<DynamicBitset>& unions, std::size_t k,
                      bool changeover) {
  Cost cost = machine.tasks[j].local_init;
  if (changeover) {
    const DynamicBitset& current = unions[k];
    if (k == 0) {
      cost += static_cast<Cost>(current.count());
    } else {
      cost += static_cast<Cost>(
          current.symmetric_difference_count(unions[k - 1]));
    }
  }
  return cost;
}

/// Validates that within every global block the per-task private quotas fit
/// into the machine's pool of g units (§3: the global hypercontext assigns
/// the private-global resources to the tasks).  All range queries are O(1)
/// against the precomputed stats.
void check_private_feasibility(const MultiTaskTraceStats& stats,
                               const MachineSpec& machine,
                               const MultiTaskSchedule& schedule,
                               std::size_t steps) {
  if (machine.private_global_units == 0) return;
  // Walk block bounds [lo, hi) without materialising a boundary vector —
  // this check runs once per evaluation, and the exhaustive/coordinate-
  // descent loops evaluate millions of schedules.
  const std::vector<std::size_t>& bounds = schedule.global_boundaries;
  const std::size_t blocks = bounds.empty() ? 1 : bounds.size();
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = bounds.empty() ? 0 : bounds[b];
    const std::size_t hi = (b + 1 < bounds.size()) ? bounds[b + 1] : steps;
    std::uint64_t quota_sum = 0;
    // The per-step demand sum is a lower bound on the quota sum, so the
    // O(1) cross-task query short-circuits clearly infeasible blocks.
    if (stats.max_step_demand_sum(lo, hi) <= machine.private_global_units) {
      for (std::size_t j = 0; j < stats.task_count(); ++j) {
        quota_sum += stats.task(j).max_private_demand(lo, hi);
      }
    } else {
      quota_sum = machine.private_global_units + 1;
    }
    HYPERREC_ENSURE(quota_sum <= machine.private_global_units,
                    "private-global demand exceeds the unit pool within a "
                    "global block; insert a global hyperreconfiguration");
  }
}

/// The §4.2 input checks shared by the evaluator and the scorer: equal-length
/// traces, schedule shape, global-boundary placement and private-global
/// feasibility.  The machine/trace shape check is the caller's — the
/// SolveInstance constructor already ran it.
void check_fully_sync_inputs(const MultiTaskTrace& trace,
                             const MultiTaskTraceStats& stats,
                             const MachineSpec& machine,
                             const MultiTaskSchedule& schedule) {
  HYPERREC_ENSURE(trace.synchronized(),
                  "fully synchronised evaluation requires equal-length traces");
  const std::size_t n = trace.steps();
  schedule.validate(trace.task_count(), n);
  if (machine.has_global_resources()) {
    HYPERREC_ENSURE(!schedule.global_boundaries.empty() &&
                        schedule.global_boundaries.front() == 0,
                    "machines with global resources need a global "
                    "hyperreconfiguration at step 0");
  } else {
    HYPERREC_ENSURE(schedule.global_boundaries.empty(),
                    "machines without global resources cannot perform global "
                    "hyperreconfigurations");
  }
  check_private_feasibility(stats, machine, schedule, n);
}

/// Stats-backed §4.2 evaluation core.  Per task and interval it derives the
/// minimal hypercontext *size* from the precomputed tables (O(words) per
/// interval); the union bitsets themselves are materialised only when the
/// changeover term needs them.
CostBreakdown evaluate_fully_sync_impl(const MultiTaskTrace& trace,
                                       const MultiTaskTraceStats& stats,
                                       const MachineSpec& machine,
                                       const MultiTaskSchedule& schedule,
                                       const EvalOptions& options) {
  check_fully_sync_inputs(trace, stats, machine, schedule);
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();

  // Per task: interval sizes |U| + priv from the stats views, flattened into
  // one arena indexed by a per-task offset + interval cursor (one allocation
  // instead of one per task — the exhaustive and coordinate-descent loops
  // run this evaluation millions of times).  Union bitsets are materialised
  // only under changeover (the Δ term needs the actual sets).
  struct TaskCursor {
    std::size_t offset = 0;  ///< task's first entry in flat_sizes
    std::size_t k = 0;       ///< interval index at the current step
  };
  std::vector<TaskCursor> cursors(m);
  std::size_t total_intervals = 0;
  for (std::size_t j = 0; j < m; ++j) {
    total_intervals += schedule.tasks[j].interval_count();
  }
  std::vector<Cost> flat_sizes;
  flat_sizes.reserve(total_intervals);
  std::vector<std::vector<DynamicBitset>> unions(options.changeover ? m : 0);
  for (std::size_t j = 0; j < m; ++j) {
    const TaskTraceStats& task = stats.task(j);
    const Partition& partition = schedule.tasks[j];
    cursors[j].offset = flat_sizes.size();
    if (options.changeover) unions[j].reserve(partition.interval_count());
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      flat_sizes.push_back(
          static_cast<Cost>(task.hypercontext_size(start, end)));
      if (options.changeover) unions[j].push_back(task.local_union(start, end));
    }
  }

  CostBreakdown breakdown;
  breakdown.per_step.resize(n);

  for (std::size_t l = 0; l < n; ++l) {
    bool any_boundary = false;
    Cost hyper_term = 0;
    // |h^pub| participates in the max for task-parallel upload and is added
    // once for task-sequential — both are the combine starting value.
    Cost reconfig_term = static_cast<Cost>(machine.public_context_size);

    for (std::size_t j = 0; j < m; ++j) {
      const Partition& partition = schedule.tasks[j];
      // The cursor knows the next boundary (starts are sorted and walked in
      // step order), so no per-step binary search.
      const std::size_t next = cursors[j].k + 1;
      const bool boundary =
          l == 0 || (next < partition.interval_count() &&
                     partition.starts()[next] == l);
      if (boundary && l > 0) cursors[j].k = next;
      const std::size_t k = cursors[j].k;
      if (boundary) {
        any_boundary = true;
        hyper_term = combine(
            options.hyper_upload, hyper_term,
            options.changeover
                ? local_hyper_cost(machine, j, unions[j], k, true)
                : machine.tasks[j].local_init);
      }
      reconfig_term = combine(options.reconfig_upload, reconfig_term,
                              flat_sizes[cursors[j].offset + k]);
    }

    Cost global_term = 0;
    if (std::binary_search(schedule.global_boundaries.begin(),
                           schedule.global_boundaries.end(), l)) {
      global_term = machine.global_init;
    }

    if (any_boundary) ++breakdown.partial_hyper_steps;
    breakdown.per_step[l] = StepCost{hyper_term, reconfig_term};
    breakdown.hyper += hyper_term;
    breakdown.reconfig += reconfig_term;
    breakdown.global_hyper += global_term;
  }
  breakdown.total =
      breakdown.hyper + breakdown.reconfig + breakdown.global_hyper;
  return breakdown;
}

AsyncCostBreakdown evaluate_async_impl(const MultiTaskTrace& trace,
                                       const MultiTaskTraceStats& stats,
                                       const MachineSpec& machine,
                                       const MultiTaskSchedule& schedule,
                                       const EvalOptions& options) {
  HYPERREC_ENSURE(machine.public_context_size == 0,
                  "public resources require a context- or fully-synchronised "
                  "machine (§3)");
  HYPERREC_ENSURE(schedule.tasks.size() == trace.task_count(),
                  "schedule task count mismatch");
  HYPERREC_ENSURE(schedule.global_boundaries.size() <= 1,
                  "asynchronous evaluation covers a single global block");
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    HYPERREC_ENSURE(schedule.tasks[j].n() == trace.task(j).size(),
                    "schedule step count mismatch for task");
  }

  // Private feasibility over the single block.
  if (machine.private_global_units > 0) {
    std::uint64_t quota_sum = 0;
    for (std::size_t j = 0; j < trace.task_count(); ++j) {
      quota_sum += stats.task(j).max_private_demand(0, trace.task(j).size());
    }
    HYPERREC_ENSURE(quota_sum <= machine.private_global_units,
                    "private-global demand exceeds the unit pool");
  }

  AsyncCostBreakdown breakdown;
  breakdown.per_task.resize(trace.task_count(), 0);
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    const TaskTraceStats& task = stats.task(j);
    const Partition& partition = schedule.tasks[j];
    Cost total = 0;
    std::vector<DynamicBitset> unions;
    if (options.changeover) unions.reserve(partition.interval_count());
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      const Cost reconfig_each =
          static_cast<Cost>(task.hypercontext_size(start, end));
      if (options.changeover) unions.push_back(task.local_union(start, end));
      total += local_hyper_cost(machine, j, unions, k, options.changeover);
      total += reconfig_each * static_cast<Cost>(end - start);
    }
    breakdown.per_task[j] = total;
  }
  breakdown.global_hyper =
      machine.has_global_resources() ? machine.global_init : 0;
  const Cost slowest = breakdown.per_task.empty()
                           ? 0
                           : *std::max_element(breakdown.per_task.begin(),
                                               breakdown.per_task.end());
  breakdown.total = breakdown.global_hyper + slowest;
  return breakdown;
}

/// The scorer's arithmetic once its inputs are checked (see
/// score_fully_sync).  Forced inline, so score_pass_popcnt below and the
/// portable call in score_fully_sync each compile their own copy for their
/// own target.
[[gnu::always_inline]] inline Cost score_pass(
    const MultiTaskTraceStats& stats, const MachineSpec& machine,
    const MultiTaskSchedule& schedule, const EvalOptions& options) {
  const std::size_t n = stats.trace().steps();
  const std::size_t m = stats.task_count();
  const bool hyper_parallel = options.hyper_upload == UploadMode::kTaskParallel;
  const bool reconfig_parallel =
      options.reconfig_upload == UploadMode::kTaskParallel;
  const Cost public_size = static_cast<Cost>(machine.public_context_size);

  // Global term: w per global hyperreconfiguration (validated < n, unique).
  Cost total = static_cast<Cost>(schedule.global_boundaries.size()) *
               machine.global_init;
  if (!reconfig_parallel) total += static_cast<Cost>(n) * public_size;

  // One chunk-major pass over the boundaries, 64 steps at a time.  The
  // task-sequential terms are closed forms charged per interval where it
  // starts — v_j for the hyper term, size·length for the reconfig term —
  // while the task-parallel terms keep one stack slot per step of the
  // chunk: each boundary step is charged the largest v_j of the tasks
  // hyperreconfiguring there, and each step the largest interval size in
  // force (at least |h^pub|).
  constexpr std::size_t kChunk = 64;
  std::array<Cost, kChunk> hyper_at;
  std::array<Cost, kChunk> reconfig_at;
  for (std::size_t chunk = 0; chunk < n; chunk += kChunk) {
    const std::size_t chunk_end = std::min(n, chunk + kChunk);
    if (hyper_parallel) hyper_at.fill(0);
    if (reconfig_parallel) reconfig_at.fill(public_size);
    for (std::size_t j = 0; j < m; ++j) {
      const TaskTraceStats& task = stats.task(j);
      const std::vector<std::size_t>& starts = schedule.tasks[j].starts();
      const std::size_t intervals = starts.size();
      const Cost v = machine.tasks[j].local_init;
      // First interval overlapping the chunk (starts[0] == 0 <= chunk).
      std::size_t k = chunk == 0
                          ? 0
                          : static_cast<std::size_t>(
                                std::upper_bound(starts.begin(), starts.end(),
                                                 chunk) -
                                starts.begin() - 1);
      for (; k < intervals && starts[k] < chunk_end; ++k) {
        const std::size_t start = starts[k];
        const std::size_t end = k + 1 < intervals ? starts[k + 1] : n;
        const bool starts_here = start >= chunk;
        if (starts_here) {
          if (hyper_parallel) {
            hyper_at[start - chunk] = std::max(hyper_at[start - chunk], v);
          } else {
            total += v;
          }
        }
        if (reconfig_parallel) {
          const Cost size =
              static_cast<Cost>(task.hypercontext_size(start, end));
          const std::size_t hi = std::min(end, chunk_end) - chunk;
          for (std::size_t l = std::max(start, chunk) - chunk; l < hi; ++l) {
            reconfig_at[l] = std::max(reconfig_at[l], size);
          }
        } else if (starts_here) {
          total += static_cast<Cost>(task.hypercontext_size(start, end)) *
                   static_cast<Cost>(end - start);
        }
      }
    }
    for (std::size_t l = 0; l < chunk_end - chunk; ++l) {
      if (hyper_parallel) total += hyper_at[l];
      if (reconfig_parallel) total += reconfig_at[l];
    }
  }
  return total;
}

/// The pass for CPUs with a hardware popcount (kernels::hardware_popcount):
/// the one-word interval unions then cost one instruction each.
HYPERREC_TARGET_POPCNT Cost score_pass_popcnt(
    const MultiTaskTraceStats& stats, const MachineSpec& machine,
    const MultiTaskSchedule& schedule, const EvalOptions& options) {
  return score_pass(stats, machine, schedule, options);
}

}  // namespace

std::vector<std::vector<LocalHypercontext>> derive_local_hypercontexts(
    const MultiTaskTraceStats& stats, const MultiTaskSchedule& schedule) {
  std::vector<std::vector<LocalHypercontext>> result(stats.task_count());
  for (std::size_t j = 0; j < stats.task_count(); ++j) {
    const TaskTraceStats& task = stats.task(j);
    const Partition& partition = schedule.tasks[j];
    result[j].reserve(partition.interval_count());
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      result[j].push_back(LocalHypercontext{
          task.local_union(start, end),
          task.max_private_demand(start, end)});
    }
  }
  return result;
}

std::vector<std::vector<LocalHypercontext>> derive_local_hypercontexts(
    const MultiTaskTrace& trace, const MultiTaskSchedule& schedule) {
  return derive_local_hypercontexts(MultiTaskTraceStats(trace), schedule);
}

CostBreakdown evaluate_fully_sync_switch(const MultiTaskTrace& trace,
                                         const MachineSpec& machine,
                                         const MultiTaskSchedule& schedule,
                                         const EvalOptions& options) {
  const MultiTaskTraceStats stats(trace);
  machine.validate_trace(trace);
  return evaluate_fully_sync_impl(trace, stats, machine, schedule, options);
}

CostBreakdown evaluate_fully_sync_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return evaluate_fully_sync_impl(instance.trace(), instance.stats(),
                                  instance.machine(), schedule,
                                  instance.options());
}

Cost score_fully_sync(const SolveInstance& instance,
                      const MultiTaskSchedule& schedule) {
  const EvalOptions& options = instance.options();
  // The changeover Δ term needs the union bitsets themselves.
  if (options.changeover) {
    return evaluate_fully_sync_switch(instance, schedule).total;
  }
  const MultiTaskTraceStats& stats = instance.stats();
  const MachineSpec& machine = instance.machine();
  check_fully_sync_inputs(instance.trace(), stats, machine, schedule);
  return kernels::hardware_popcount()
             ? score_pass_popcnt(stats, machine, schedule, options)
             : score_pass(stats, machine, schedule, options);
}

AsyncCostBreakdown evaluate_async_switch(const MultiTaskTrace& trace,
                                         const MachineSpec& machine,
                                         const MultiTaskSchedule& schedule,
                                         const EvalOptions& options) {
  const MultiTaskTraceStats stats(trace);
  machine.validate_trace(trace);
  return evaluate_async_impl(trace, stats, machine, schedule, options);
}

AsyncCostBreakdown evaluate_async_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return evaluate_async_impl(instance.trace(), instance.stats(),
                             instance.machine(), schedule, instance.options());
}

Cost no_hyperreconfiguration_cost(const MachineSpec& machine,
                                  std::size_t steps) {
  return static_cast<Cost>(machine.total_switches()) *
         static_cast<Cost>(steps);
}

Cost evaluate_switch_total(SyncMode mode, const MultiTaskTrace& trace,
                           const MachineSpec& machine,
                           const MultiTaskSchedule& schedule,
                           const EvalOptions& options) {
  switch (mode) {
    case SyncMode::kFullySynchronized:
      return evaluate_fully_sync_switch(trace, machine, schedule, options)
          .total;
    case SyncMode::kHypercontextSynchronized: {
      EvalOptions adjusted = options;
      adjusted.reconfig_upload = UploadMode::kTaskParallel;
      return evaluate_fully_sync_switch(trace, machine, schedule, adjusted)
          .total;
    }
    case SyncMode::kContextSynchronized: {
      EvalOptions adjusted = options;
      adjusted.hyper_upload = UploadMode::kTaskParallel;
      return evaluate_fully_sync_switch(trace, machine, schedule, adjusted)
          .total;
    }
    case SyncMode::kNonSynchronized:
      return evaluate_async_switch(trace, machine, schedule, options).total;
  }
  HYPERREC_ASSERT(false);
}

}  // namespace hyperrec
