#include "core/private_global.hpp"

#include <algorithm>

#include "core/coordinate_descent.hpp"
#include "support/cost_math.hpp"

namespace hyperrec {

namespace {

/// Copies steps [lo, hi) of every task into a fresh trace.
MultiTaskTrace subtrace(const MultiTaskTrace& trace, std::size_t lo,
                        std::size_t hi) {
  MultiTaskTrace result;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    TaskTrace task(trace.task(j).local_universe());
    for (std::size_t i = lo; i < hi; ++i) {
      task.push_back(trace.task(j).at(i));
    }
    result.add_task(std::move(task));
  }
  return result;
}

bool block_feasible(const MultiTaskTraceStats& stats,
                    const MachineSpec& machine, std::size_t lo,
                    std::size_t hi) {
  std::uint64_t quota_sum = 0;
  for (std::size_t j = 0; j < stats.task_count(); ++j) {
    quota_sum += stats.task(j).max_private_demand(lo, hi);
  }
  return quota_sum <= machine.private_global_units;
}

}  // namespace

PrivateGlobalSolution solve_private_global(const MultiTaskTrace& trace,
                                           const MachineSpec& machine,
                                           const EvalOptions& options,
                                           const PrivateGlobalConfig& config) {
  machine.validate_trace(trace);
  HYPERREC_ENSURE(trace.synchronized(),
                  "private-global solver needs equal-length traces");
  HYPERREC_ENSURE(machine.private_global_units > 0,
                  "machine has no private-global resources; use a plain "
                  "MT-Switch solver");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();

  MTSolverFn inner = config.inner;
  if (!inner) {
    inner = [](const SolveInstance& block, const CancelToken& cancel) {
      CoordinateDescentConfig cd_config;
      cd_config.cancel = cancel;
      return solve_coordinate_descent(block, cd_config);
    };
  }

  // Shared interval-query precomputation for the feasibility scans and the
  // per-block quota extraction (O(1) per query instead of O(range)).
  const MultiTaskTraceStats stats(trace);

  // Candidate boundaries, always containing 0, sorted + deduplicated.
  std::vector<std::size_t> candidates = config.candidates;
  if (candidates.empty()) {
    candidates.resize(n);
    for (std::size_t i = 0; i < n; ++i) candidates[i] = i;
  } else {
    candidates.push_back(0);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    HYPERREC_ENSURE(candidates.back() < n, "candidate beyond last step");
  }
  const std::size_t c = candidates.size();

  // Blocks are solved against the parent machine minus its global
  // hyperreconfiguration cost: the private-global pool stays intact
  // (validate_trace and the evaluator's quota check need the real unit
  // count, and the private demands stay in the trace so the evaluator adds
  // them to |h^loc|), but global_init drops to 0 because the outer DP
  // charges w per block itself.
  MachineSpec block_machine = machine;
  block_machine.global_init = 0;

  // An inner solver must treat its block as a single global block: any
  // further global boundary it placed would silently vanish in the stitch,
  // leaving the DP's cost estimate and the stitched schedule inconsistent.
  static const std::vector<std::size_t> kSingleBlock{0};

  // Forward DP over candidate boundaries, interleaved with the block
  // solves.  When row `a` is processed best[a] is final, so blocks starting
  // at a candidate the DP cannot reach are never solved; and because the
  // per-block quotas are range maxima, a superset of an infeasible block is
  // infeasible too — the scan `break`s at the first infeasible end.
  PrivateGlobalSolution result;
  std::vector<Cost> best(c + 1, kCostInfinity);
  std::vector<std::size_t> parent(c + 1, 0);
  std::vector<MTSolution> best_block(c + 1);  // inner solution of (parent[b], b)
  best[0] = 0;
  for (std::size_t a = 0; a < c; ++a) {
    if (best[a] >= kCostInfinity) continue;  // unreachable from candidate 0
    for (std::size_t b = a + 1; b <= c; ++b) {
      const std::size_t lo = candidates[a];
      const std::size_t hi = b < c ? candidates[b] : n;
      if (!block_feasible(stats, machine, lo, hi)) break;
      // One SolveInstance per block: the inner solver (and anything it
      // races) shares the block's precomputation.
      const SolveInstance block(subtrace(trace, lo, hi), block_machine,
                                options);
      MTSolution solution = inner(block, config.cancel);
      ++result.inner_invocations;
      HYPERREC_ENSURE(solution.schedule.global_boundaries == kSingleBlock,
                      "inner solver split a private-global block with extra "
                      "global hyperreconfigurations; blocks must stay single "
                      "global blocks (add candidates instead)");
      const Cost candidate = best[a] + machine.global_init + solution.total();
      if (candidate < best[b]) {
        best[b] = candidate;
        parent[b] = a;
        best_block[b] = std::move(solution);
      }
    }
  }
  HYPERREC_ENSURE(best[c] < kCostInfinity,
                  "no feasible global-block decomposition exists");

  // Reconstruct blocks.
  std::vector<std::pair<std::size_t, std::size_t>> blocks;  // candidate idx
  for (std::size_t cursor = c; cursor != 0; cursor = parent[cursor]) {
    blocks.emplace_back(parent[cursor], cursor);
  }
  std::reverse(blocks.begin(), blocks.end());

  // Stitch per-block schedules into one global schedule.
  std::vector<std::vector<std::size_t>> starts(m);
  for (const auto& [a, b] : blocks) {
    const std::size_t lo = candidates[a];
    const std::size_t hi = b < c ? candidates[b] : n;
    const MTSolution& sol = best_block[b];
    for (std::size_t j = 0; j < m; ++j) {
      for (const std::size_t s : sol.schedule.tasks[j].starts()) {
        starts[j].push_back(lo + s);
      }
    }
    std::vector<std::uint32_t> quotas(m);
    for (std::size_t j = 0; j < m; ++j) {
      quotas[j] = stats.task(j).max_private_demand(lo, hi);
    }
    result.quotas.push_back(std::move(quotas));
  }

  MultiTaskSchedule schedule;
  for (std::size_t j = 0; j < m; ++j) {
    schedule.tasks.push_back(Partition::from_starts(std::move(starts[j]), n));
  }
  for (const auto& [a, b] : blocks) {
    schedule.global_boundaries.push_back(candidates[a]);
  }
  result.solution = make_solution(trace, machine, std::move(schedule), options);
  return result;
}

}  // namespace hyperrec
