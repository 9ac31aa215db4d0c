#include "core/annealing.hpp"

#include <cmath>
#include <utility>

#include "support/rng.hpp"

namespace hyperrec {

namespace {

void toggle(DynamicBitset& mask, std::size_t pos) {
  if (mask.test(pos)) {
    mask.reset(pos);
  } else {
    mask.set(pos);
  }
}

}  // namespace

MTSolution solve_annealing(const MultiTaskTrace& trace,
                           const MachineSpec& machine,
                           const EvalOptions& options, const SaConfig& config) {
  return solve_annealing(SolveInstance(trace, machine, options), config);
}

MTSolution solve_annealing(const SolveInstance& instance,
                           const SaConfig& config) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  HYPERREC_ENSURE(trace.synchronized(), "annealing needs equal-length traces");
  HYPERREC_ENSURE(config.seed_schedule.size() <= 1, "at most one seed");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  const bool global_resources = machine.has_global_resources();

  Xoshiro256 rng(config.seed);

  std::vector<DynamicBitset> masks;
  if (config.seed_schedule.empty()) {
    masks.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      DynamicBitset mask(n);
      mask.set(0);
      masks.push_back(std::move(mask));
    }
  } else {
    for (const Partition& partition : config.seed_schedule.front().tasks) {
      masks.push_back(partition.to_boundary_mask());
    }
  }

  // The one schedule every candidate is scored from: a move changes one
  // task's mask, so only that task's partition is rebuilt (in place).
  MultiTaskSchedule schedule;
  schedule.tasks.assign(masks.size(), Partition::single(n));
  for (std::size_t j = 0; j < masks.size(); ++j) {
    schedule.tasks[j].assign_boundary_mask(masks[j]);
  }
  if (global_resources) schedule.global_boundaries.push_back(0);

  Cost current = score_fully_sync(instance, schedule);
  std::vector<DynamicBitset> best = masks;
  Cost best_cost = current;

  double temperature = config.initial_temperature > 0
                           ? config.initial_temperature
                           : static_cast<double>(machine.total_switches());

  // lint: hot-loop begin
  for (std::size_t it = 0; it < config.iterations; ++it) {
    if (config.cancel.cancelled()) break;
    // Move: flip a random boundary bit, or slide a boundary by one step.
    // The move is applied in place and recorded as the bits it toggled, so
    // a rejected move is undone by toggling them back.
    const std::size_t j = rng.uniform(m);
    const std::size_t s = 1 + rng.uniform(n - 1);
    DynamicBitset& mask = masks[j];
    std::size_t slid_to = n;  // second toggled bit of a slide; n = none
    if (rng.flip(0.7) || n < 3) {
      toggle(mask, s);
    } else {
      // Slide: move boundary s to s±1 when possible.
      const std::size_t to = rng.flip(0.5) && s + 1 < n ? s + 1
                             : (s > 1 ? s - 1 : s + 1);
      if (to < n && mask.test(s) && !mask.test(to)) {
        slid_to = to;
        toggle(mask, to);
      }
      toggle(mask, s);
    }
    schedule.tasks[j].assign_boundary_mask(mask);

    const Cost candidate = score_fully_sync(instance, schedule);
    const Cost delta = candidate - current;
    if (delta <= 0 ||
        rng.uniform01() < std::exp(-static_cast<double>(delta) / temperature)) {
      current = candidate;
      if (current < best_cost) {
        best_cost = current;
        best = masks;
      }
    } else {
      toggle(mask, s);
      if (slid_to < n) toggle(mask, slid_to);
      schedule.tasks[j].assign_boundary_mask(mask);
    }
    temperature *= config.cooling;
  }
  // lint: hot-loop end
  for (std::size_t j = 0; j < best.size(); ++j) {
    schedule.tasks[j].assign_boundary_mask(best[j]);
  }
  return make_solution(instance, std::move(schedule));
}

}  // namespace hyperrec
