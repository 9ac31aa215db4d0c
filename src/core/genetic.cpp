#include "core/genetic.hpp"

#include <algorithm>
#include <utility>

#include "core/aligned_dp.hpp"
#include "support/rng.hpp"

namespace hyperrec {

namespace {

using Chromosome = std::vector<DynamicBitset>;  // one boundary mask per task

/// Rebuilds `schedule`'s partitions from `genes` in place: once the starts
/// vectors have grown, decoding a candidate allocates nothing.
void decode_into(const Chromosome& genes, MultiTaskSchedule& schedule) {
  if (schedule.tasks.size() != genes.size()) {
    schedule.tasks.assign(genes.size(), Partition::single(1));
  }
  for (std::size_t j = 0; j < genes.size(); ++j) {
    schedule.tasks[j].assign_boundary_mask(genes[j]);
  }
}

/// Overwrites every mask with bit 0 plus each later bit set with
/// probability `density`.
void fill_random(Chromosome& genes, double density, Xoshiro256& rng) {
  for (DynamicBitset& mask : genes) {
    mask.reset_all();
    mask.set(0);
    for (std::size_t s = 1; s < mask.size(); ++s) {
      if (rng.flip(density)) mask.set(s);
    }
  }
}

Chromosome random_chromosome(std::size_t m, std::size_t n, double density,
                             Xoshiro256& rng) {
  Chromosome genes(m, DynamicBitset(n));
  fill_random(genes, density, rng);
  return genes;
}

Chromosome from_schedule(const MultiTaskSchedule& schedule) {
  Chromosome genes;
  genes.reserve(schedule.tasks.size());
  for (const Partition& partition : schedule.tasks) {
    genes.push_back(partition.to_boundary_mask());
  }
  return genes;
}

/// Reused word buffers for the breeding operators: every mask has the same
/// universe, so copy-assigning into them never reallocates.
struct BreedBuffers {
  DynamicBitset segment;
  DynamicBitset diff;
};

/// Two-point crossover applied per task mask: swaps bits [lo, hi] of the
/// two masks with one masked XOR each; step 0 stays set.
void crossover(Chromosome& a, Chromosome& b, BreedBuffers& buffers,
               Xoshiro256& rng) {
  const std::size_t n = a.front().size();
  for (std::size_t j = 0; j < a.size(); ++j) {
    std::size_t lo = 1 + rng.uniform(n - 1);
    std::size_t hi = 1 + rng.uniform(n - 1);
    if (lo > hi) std::swap(lo, hi);
    buffers.segment.reset_all();
    buffers.segment.set_range(lo, hi + 1);
    buffers.diff = a[j];
    buffers.diff ^= b[j];
    buffers.diff &= buffers.segment;
    a[j] ^= buffers.diff;
    b[j] ^= buffers.diff;
  }
}

/// Flips each bit s >= 1 with probability `rate`, drawing one coin per bit
/// in step order and applying the flips as one XOR per mask.
void mutate(Chromosome& genes, double rate, BreedBuffers& buffers,
            Xoshiro256& rng) {
  for (DynamicBitset& mask : genes) {
    buffers.diff.reset_all();
    for (std::size_t s = 1; s < mask.size(); ++s) {
      if (rng.flip(rate)) buffers.diff.set(s);
    }
    mask ^= buffers.diff;
  }
}

}  // namespace

GaResult solve_genetic(const MultiTaskTrace& trace, const MachineSpec& machine,
                       const EvalOptions& options, const GaConfig& config) {
  return solve_genetic(SolveInstance(trace, machine, options), config);
}

GaResult solve_genetic(const SolveInstance& instance, const GaConfig& config) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  HYPERREC_ENSURE(trace.synchronized(), "GA needs equal-length traces");
  HYPERREC_ENSURE(config.population >= 4, "population too small");
  HYPERREC_ENSURE(config.tournament >= 1, "tournament size must be >= 1");
  HYPERREC_ENSURE(config.seed_schedule.size() <= 1, "at most one seed");
  HYPERREC_ENSURE(config.elites + config.immigrants <= config.population,
                  "elites plus immigrants exceed the population");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  const bool global_resources = machine.has_global_resources();
  const double mutation_rate = config.mutation_rate > 0
                                   ? config.mutation_rate
                                   : 1.5 / static_cast<double>(n);

  Xoshiro256 rng(config.seed);

  // The one schedule every candidate is decoded into and scored from.
  MultiTaskSchedule schedule;
  if (global_resources) schedule.global_boundaries.push_back(0);

  if (config.cancel.cancelled()) {
    // Expired before any work: return the warm-start seed when given (one
    // evaluation, same price as the fallback), else the single-interval
    // schedule (aligned-DP seeding could blow the deadline).
    GaResult result;
    decode_into(from_schedule(config.seed_schedule.empty()
                                  ? MultiTaskSchedule::all_single(m, n)
                                  : config.seed_schedule.front()),
                schedule);
    result.best = make_solution(instance, std::move(schedule));
    return result;
  }

  // --- initial population: heuristic seeds + random densities -------------
  std::vector<Chromosome> population;
  population.reserve(config.population);
  if (!config.seed_schedule.empty()) {
    population.push_back(from_schedule(config.seed_schedule.front()));
  }
  if (!options.changeover) {
    population.push_back(from_schedule(solve_aligned_dp(instance).schedule));
  }
  population.push_back(from_schedule(MultiTaskSchedule::all_single(m, n)));
  population.push_back(from_schedule(MultiTaskSchedule::all_every_step(m, n)));
  while (population.size() < config.population) {
    const double density = 0.02 + 0.38 * rng.uniform01();
    population.push_back(random_chromosome(m, n, density, rng));
  }

  // Fitness is scored serially: a candidate scores in a few microseconds,
  // so a fork/join per generation would cost about as much as it shares
  // out, and the portfolio and batch layers already run solvers and jobs in
  // parallel.
  std::vector<Cost> fitness(population.size());
  std::size_t evaluations = 0;
  auto evaluate_population = [&]() {
    for (std::size_t i = 0; i < population.size(); ++i) {
      decode_into(population[i], schedule);
      fitness[i] = score_fully_sync(instance, schedule);
    }
    evaluations += population.size();
  };
  evaluate_population();

  auto best_index = [&]() {
    return static_cast<std::size_t>(
        std::min_element(fitness.begin(), fitness.end()) - fitness.begin());
  };

  auto tournament_pick = [&]() {
    std::size_t winner = rng.uniform(population.size());
    for (std::size_t k = 1; k < config.tournament; ++k) {
      const std::size_t rival = rng.uniform(population.size());
      if (fitness[rival] < fitness[winner]) winner = rival;
    }
    return winner;
  };

  GaResult result;
  result.history.reserve(config.generations);
  Chromosome best_genes = population[best_index()];
  Cost best_cost = fitness[best_index()];
  std::size_t stale = 0;

  // Double-buffered generations: `next` is bred by copy-assigning into
  // chromosomes of the same shape, then swapped with `population`, so the
  // generation loop reuses every mask's storage.  `spare` takes the second
  // child of the last pair when an odd number of child slots remain (it is
  // bred, so the RNG draws stay those of a full pair, and then dropped).
  std::vector<Chromosome> next = population;
  Chromosome spare = population.front();
  BreedBuffers buffers{DynamicBitset(n), DynamicBitset(n)};
  std::vector<std::size_t> order(population.size());

  // lint: hot-loop begin
  for (std::size_t gen = 0; gen < config.generations; ++gen) {
    if (config.cancel.cancelled()) break;
    // --- breed the next generation (serial, deterministic) ----------------
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return fitness[a] < fitness[b];
    });
    std::size_t filled = 0;
    for (std::size_t e = 0; e < config.elites && e < order.size(); ++e) {
      next[filled++] = population[order[e]];
    }
    for (std::size_t im = 0; im < config.immigrants; ++im) {
      const double density = 0.02 + 0.38 * rng.uniform01();
      fill_random(next[filled++], density, rng);
    }
    while (filled < next.size()) {
      Chromosome& child_a = next[filled];
      Chromosome& child_b = filled + 1 < next.size() ? next[filled + 1] : spare;
      child_a = population[tournament_pick()];
      child_b = population[tournament_pick()];
      if (rng.flip(config.crossover_rate)) {
        crossover(child_a, child_b, buffers, rng);
      }
      mutate(child_a, mutation_rate, buffers, rng);
      mutate(child_b, mutation_rate, buffers, rng);
      filled += 2;
    }

    std::swap(population, next);
    evaluate_population();

    const std::size_t champion = best_index();
    if (fitness[champion] < best_cost) {
      best_cost = fitness[champion];
      best_genes = population[champion];
      stale = 0;
    } else {
      ++stale;
    }
    result.history.push_back(best_cost);
    if (config.patience > 0 && stale >= config.patience) break;
  }
  // lint: hot-loop end

  decode_into(best_genes, schedule);
  result.best = make_solution(instance, std::move(schedule));
  result.evaluations = evaluations;
  return result;
}

}  // namespace hyperrec
