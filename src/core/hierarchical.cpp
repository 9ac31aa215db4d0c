#include "core/hierarchical.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "cache/fingerprint.hpp"
#include "model/trace_stats.hpp"
#include "support/cost_math.hpp"

namespace hyperrec {

namespace {

/// Σ_j max-demand_j([lo, hi)) ≤ g — same block-feasibility rule as the
/// evaluator's quota check, O(1) per task from the precomputed stats.
bool block_feasible(const SolveInstance& instance, std::size_t lo,
                    std::size_t hi) {
  const std::uint32_t pool = instance.machine().private_global_units;
  if (pool == 0) return true;
  std::uint64_t quota_sum = 0;
  for (std::size_t j = 0; j < instance.task_count(); ++j) {
    quota_sum += instance.task_stats(j).max_private_demand(lo, hi);
  }
  return quota_sum <= pool;
}

/// A segment solution must treat its window as one global block: extra
/// global boundaries would be dropped by the stitch (same invariant as
/// solve_private_global's inner solvers).
void check_segment_shape(const MTSolution& solution,
                         const MachineSpec& machine) {
  static const std::vector<std::size_t> kSingleBlock{0};
  if (machine.has_global_resources()) {
    HYPERREC_ENSURE(solution.schedule.global_boundaries == kSingleBlock,
                    "segment solver split its window with extra global "
                    "hyperreconfigurations; the boundary DP owns the block "
                    "structure");
  }
}

}  // namespace

HierarchicalResult solve_hierarchical(const SolveInstance& instance,
                                      const HierarchicalConfig& config) {
  HYPERREC_ENSURE(instance.synchronized(),
                  "hierarchical solver needs equal-length traces");
  HYPERREC_ENSURE(!instance.options().changeover,
                  "hierarchical solver does not support changeover costs: "
                  "interval costs would couple across segment seams");
  HYPERREC_ENSURE(config.segment >= 1, "segment length must be at least 1");

  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  const std::size_t n = instance.steps();
  const std::size_t m = instance.task_count();

  engine::PortfolioConfig member = config.portfolio;
  member.parallel = false;  // segments, not members, are the parallel unit
  member.pool = nullptr;

  HierarchicalResult result;

  // Flat fallback: one window covers the whole trace.
  if (n <= config.segment || m == 0) {
    result.segments = 1;
    if (config.cache) {
      cache::CacheOutcome outcome = cache::CacheOutcome::kMiss;
      result.solution = config.cache->get_or_compute_guarded(
          cache::make_instance_key(instance),
          [&] {
            return cache::ComputeResult{
                engine::solve_portfolio(instance, member, config.cancel).best,
                true};
          },
          &outcome);
      if (outcome != cache::CacheOutcome::kMiss) ++result.cache_hits;
    } else {
      result.solution =
          engine::solve_portfolio(instance, member, config.cancel).best;
    }
    result.global_blocks = result.solution.schedule.global_boundaries.size();
    if (config.certify) {
      attach_certificate(instance, result.solution, config.bound);
    }
    return result;
  }

  // Segment windows [starts[k], starts[k+1]).
  std::vector<std::size_t> seg_starts;
  for (std::size_t s = 0; s < n; s += config.segment) seg_starts.push_back(s);
  const std::size_t segments = seg_starts.size();
  result.segments = segments;
  auto seg_end = [&](std::size_t k) {
    return k + 1 < segments ? seg_starts[k + 1] : n;
  };

  // Every window must fit the private-global pool on its own — a finer
  // segmentation is the only remedy, so fail with that advice up front
  // instead of letting every portfolio member die on the quota check.
  for (std::size_t k = 0; k < segments; ++k) {
    HYPERREC_ENSURE(block_feasible(instance, seg_starts[k], seg_end(k)),
                    "a segment exceeds the private-global pool on its own; "
                    "shrink HierarchicalConfig::segment");
  }

  // Segments are solved against the machine minus its global
  // hyperreconfiguration cost — the boundary DP below owns the w·#blocks
  // term (same construction as solve_private_global's block machine).
  MachineSpec seg_machine = machine;
  seg_machine.global_init = 0;

  std::vector<MTSolution> seg_solutions(segments);
  std::vector<std::string> seg_errors(segments);
  std::atomic<std::size_t> hits{0};
  auto solve_segment = [&](std::size_t k) noexcept {
    try {
      const std::size_t lo = seg_starts[k];
      const std::size_t hi = seg_end(k);
      MultiTaskTrace sub;
      for (std::size_t j = 0; j < m; ++j) {
        sub.add_task(trace.task(j).slice(lo, hi));
      }
      if (config.cache) {
        cache::CacheOutcome outcome = cache::CacheOutcome::kMiss;
        const cache::InstanceKey key =
            cache::make_instance_key(sub, seg_machine, options);
        seg_solutions[k] = config.cache->get_or_compute_guarded(
            key,
            [&] {
              SolveInstance window(std::move(sub), seg_machine, options);
              return cache::ComputeResult{
                  engine::solve_portfolio(window, member, config.cancel).best,
                  true};
            },
            &outcome);
        if (outcome != cache::CacheOutcome::kMiss) {
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        const SolveInstance window(std::move(sub), seg_machine, options);
        seg_solutions[k] =
            engine::solve_portfolio(window, member, config.cancel).best;
      }
      check_segment_shape(seg_solutions[k], seg_machine);
    } catch (const std::exception& e) {
      seg_errors[k] = e.what();
    }
  };

  ThreadPool& pool = config.pool ? *config.pool : ThreadPool::global();
  if (config.parallel && segments > 1 && !pool.on_worker_thread()) {
    std::vector<std::future<void>> futures;
    futures.reserve(segments);
    for (std::size_t k = 0; k < segments; ++k) {
      futures.push_back(pool.submit([&, k] { solve_segment(k); }));
    }
    for (auto& future : futures) future.get();
  } else {
    for (std::size_t k = 0; k < segments; ++k) solve_segment(k);
  }
  for (std::size_t k = 0; k < segments; ++k) {
    if (!seg_errors[k].empty()) {
      throw PreconditionError("hierarchical segment " + std::to_string(k) +
                              " failed: " + seg_errors[k]);
    }
  }
  result.cache_hits = hits.load(std::memory_order_relaxed);

  // Stitch: concatenate per-task partition starts.  Each window's partition
  // starts at its local step 0, so every segment start is a boundary of
  // every task and the splice is valid by construction.
  std::vector<std::vector<std::size_t>> task_starts(m);
  for (std::size_t j = 0; j < m; ++j) task_starts[j].reserve(n / 4 + 4);
  for (std::size_t k = 0; k < segments; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      for (const std::size_t s : seg_solutions[k].schedule.tasks[j].starts()) {
        task_starts[j].push_back(seg_starts[k] + s);
      }
    }
  }

  // Boundary DP over segment edges (generalizing solve_private_global's
  // outer DP).  Given the stitched local partitions, the block structure
  // only decides the w·#blocks term and per-block quota feasibility — the
  // hyper/reconfig terms are unchanged because every segment start is
  // already a boundary of every task.  Feasibility is monotone in the
  // range, so the scan breaks at the first infeasible end.
  std::vector<std::size_t> global_bounds;
  if (machine.has_global_resources()) {
    const Cost w = machine.global_init;
    std::vector<Cost> best(segments + 1, kCostInfinity);
    std::vector<std::size_t> parent(segments + 1, 0);
    best[0] = 0;
    for (std::size_t a = 0; a < segments; ++a) {
      if (best[a] >= kCostInfinity) continue;
      for (std::size_t b = a + 1; b <= segments; ++b) {
        const std::size_t hi = b < segments ? seg_starts[b] : n;
        if (!block_feasible(instance, seg_starts[a], hi)) break;
        const Cost candidate = best[a] + w;
        if (candidate < best[b]) {
          best[b] = candidate;
          parent[b] = a;
        }
      }
    }
    // Single segments are feasible.
    HYPERREC_ASSERT(best[segments] < kCostInfinity);
    for (std::size_t cursor = segments; cursor != 0; cursor = parent[cursor]) {
      global_bounds.push_back(seg_starts[parent[cursor]]);
    }
    std::reverse(global_bounds.begin(), global_bounds.end());
  }
  result.global_blocks = global_bounds.size();

  // Seam repair: a forced boundary at a segment edge is dropped for task j
  // when merging the adjacent intervals is an exact-cost win.  Only under
  // task-sequential reconfiguration upload (per-task deltas separate; under
  // the per-step max they do not), and never at a chosen global boundary
  // (those must stay boundaries of every task).  Deltas are computed
  // against the current partition state, so each accepted merge is an exact
  // improvement of the final evaluated cost.
  if (config.seam_repair &&
      options.reconfig_upload == UploadMode::kTaskSequential) {
    const bool hyper_parallel =
        options.hyper_upload == UploadMode::kTaskParallel;
    for (std::size_t k = 1; k < segments; ++k) {
      const std::size_t seam = seg_starts[k];
      if (std::binary_search(global_bounds.begin(), global_bounds.end(),
                             seam)) {
        continue;
      }
      // Tasks still hyperreconfiguring at this seam (all of them, until a
      // merge removes one).
      std::vector<std::size_t> at_seam(m);
      for (std::size_t j = 0; j < m; ++j) at_seam[j] = 1;
      auto seam_hyper = [&]() {
        Cost term = 0;
        for (std::size_t j = 0; j < m; ++j) {
          if (!at_seam[j]) continue;
          const Cost v = machine.tasks[j].local_init;
          term = hyper_parallel ? std::max(term, v) : term + v;
        }
        return term;
      };
      for (std::size_t j = 0; j < m; ++j) {
        std::vector<std::size_t>& starts = task_starts[j];
        const auto it =
            std::lower_bound(starts.begin(), starts.end(), seam);
        HYPERREC_ASSERT(it != starts.end() && *it == seam && it != starts.begin());
        const std::size_t p = *(it - 1);
        const std::size_t q =
            (it + 1 != starts.end()) ? *(it + 1) : n;
        const TaskTraceStats& stats = instance.task_stats(j);
        auto interval_cost = [&stats](std::size_t lo, std::size_t hi) {
          return static_cast<Cost>(stats.hypercontext_size(lo, hi)) *
                 static_cast<Cost>(hi - lo);
        };
        const Cost reconfig_delta = interval_cost(p, q) -
                                    interval_cost(p, seam) -
                                    interval_cost(seam, q);
        const Cost before_hyper = seam_hyper();
        at_seam[j] = 0;
        const Cost hyper_delta = seam_hyper() - before_hyper;
        if (reconfig_delta + hyper_delta < 0) {
          starts.erase(it);
          ++result.seam_merges;
        } else {
          at_seam[j] = 1;
        }
      }
    }
  }

  MultiTaskSchedule schedule;
  schedule.tasks.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    schedule.tasks.push_back(
        Partition::from_starts(std::move(task_starts[j]), n));
  }
  schedule.global_boundaries = std::move(global_bounds);
  result.solution = make_solution(instance, std::move(schedule));
  if (config.certify) {
    attach_certificate(instance, result.solution, config.bound);
  }
  return result;
}

}  // namespace hyperrec
