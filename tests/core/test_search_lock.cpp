// Regression lock for the genetic algorithm and simulated annealing.
//
// Both searches are deterministic in their seed, so any change to how they
// decode, breed, move or score candidates must reproduce the exact same
// trajectory: the GA's best total, full per-generation history, evaluation
// count and best schedule, and the annealer's best total and schedule.  The
// pinned values below were recorded from the evaluator-scored
// implementation (a mismatch prints the actual row); the grid covers every
// workload family, all four upload-mode pairs, changeover on and off,
// global resources (public context and a private-global pool), universes on
// either side of the 64-bit word seam, step counts across the 64/128
// mask-word seams, and warm-started runs.
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/annealing.hpp"
#include "core/genetic.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

struct LockCase {
  const char* family;
  std::size_t tasks;
  std::size_t steps;  ///< requested; periodic rounds up to whole periods
  std::size_t universe;
  UploadMode hyper;
  UploadMode reconfig;
  bool changeover;
  std::size_t public_context;  ///< |h^pub|; > 0 gives global resources
  std::uint32_t private_high;  ///< > 0 adds a private demand curve + pool
  bool warm_start;             ///< seed both searches with every-step
  std::uint64_t seed;
};

struct Pinned {
  std::size_t steps;
  Cost ga_total;
  std::size_t ga_evaluations;
  /// Per-generation best costs, run-length encoded as {cost, generations}.
  std::vector<std::pair<Cost, std::size_t>> ga_history;
  std::uint64_t ga_starts_digest;
  Cost sa_total;
  std::uint64_t sa_starts_digest;
};

constexpr UploadMode kPar = UploadMode::kTaskParallel;
constexpr UploadMode kSeq = UploadMode::kTaskSequential;

const LockCase kCases[] = {
    {"phased", 3, 63, 63, kPar, kSeq, false, 0, 0, false, 1},
    {"random", 2, 64, 64, kSeq, kSeq, false, 3, 4, false, 2},
    {"random-walk", 3, 65, 65, kPar, kPar, true, 0, 0, false, 3},
    {"bursty", 2, 127, 64, kSeq, kPar, false, 0, 0, false, 4},
    {"periodic", 2, 120, 63, kPar, kSeq, true, 2, 0, false, 5},
    {"phased", 2, 129, 65, kSeq, kSeq, true, 0, 3, false, 6},
    {"random", 4, 96, 32, kPar, kSeq, false, 0, 0, true, 7},
    {"random-walk", 1, 130, 128, kPar, kPar, false, 5, 2, false, 8},
    {"bursty", 3, 64, 65, kSeq, kPar, true, 0, 0, true, 9},
};

// Recorded values, one per case above (see the file comment).
const Pinned kPinned[] = {
    {63, 2656, 2420,
     {{2656, 120}},
     0x68133311d075d4a5ull, 3241, 0x8fa21b94e0043574ull},
    {64, 4259, 2420,
     {{4259, 120}},
     0xc60e8da9ca5fa1f7ull, 4936, 0x177949c4f579c664ull},
    {65, 1359, 2420,
     {{1399, 4}, {1376, 17}, {1373, 6}, {1364, 52}, {1360, 25}, {1359, 16}},
     0xa45e338fa0d3aefbull, 1397, 0x6d40e7318dd34e49ull},
    {127, 4694, 2420,
     {{4748, 24}, {4745, 8}, {4741, 18}, {4738, 30}, {4735, 2}, {4723, 29},
      {4694, 9}},
     0x362769502921d385ull, 5533, 0x1999ffa26939d152ull},
    {128, 8721, 2420,
     {{8721, 120}},
     0x6a0e2fd9da5c8337ull, 10417, 0x962d3a730ef3f67ull},
    {129, 6681, 2420,
     {{7309, 1}, {7251, 1}, {7229, 1}, {7191, 1}, {7122, 1}, {7102, 1},
      {7085, 1}, {7061, 1}, {6993, 3}, {6986, 1}, {6980, 1}, {6957, 3},
      {6949, 2}, {6947, 1}, {6924, 2}, {6919, 2}, {6891, 3}, {6882, 1},
      {6881, 1}, {6863, 1}, {6852, 2}, {6848, 1}, {6840, 3}, {6825, 3},
      {6813, 2}, {6810, 2}, {6789, 3}, {6772, 9}, {6757, 8}, {6756, 1},
      {6751, 1}, {6750, 7}, {6747, 2}, {6742, 4}, {6719, 8}, {6716, 1},
      {6705, 1}, {6703, 3}, {6698, 10}, {6692, 4}, {6681, 16}},
     0x99840c137486988cull, 7197, 0xe57c77f11b4516d6ull},
    {96, 4707, 2420,
     {{4707, 120}},
     0x460454e4ad162275ull, 4707, 0x460454e4ad162275ull},
    {130, 4718, 2420,
     {{4718, 120}},
     0x4acc8e64565a04c4ull, 4851, 0x2db9e3f66a7a624full},
    {64, 4258, 2420,
     {{4388, 15}, {4356, 31}, {4343, 28}, {4335, 4}, {4297, 9}, {4258, 33}},
     0x7533807db1d24ad3ull, 4992, 0x6ea619145f2d5579ull},
};

static_assert(std::size(kCases) == std::size(kPinned));

struct Built {
  MultiTaskTrace trace;
  MachineSpec machine;
  EvalOptions options;
};

Built build(const LockCase& c) {
  Xoshiro256 rng(c.seed);
  Built built;
  std::uint32_t pool = 0;
  for (std::size_t j = 0; j < c.tasks; ++j) {
    Xoshiro256 task_rng = rng.split(j);
    TaskTrace task =
        workload::make_family(c.family, c.steps, c.universe, task_rng);
    if (c.private_high > 0) {
      const std::uint32_t high = c.private_high + static_cast<std::uint32_t>(j);
      workload::add_private_demand(task, 1, high, 3);
      pool += high;
    }
    built.trace.add_task(std::move(task));
  }
  built.machine = MachineSpec::local_only(
      std::vector<std::size_t>(c.tasks, c.universe));
  for (std::size_t j = 0; j < c.tasks; ++j) {
    built.machine.tasks[j].local_init =
        static_cast<Cost>(c.universe / 8 + 2 * j + 1);  // distinct v_j
  }
  built.machine.public_context_size = c.public_context;
  built.machine.private_global_units = pool;
  if (built.machine.has_global_resources()) built.machine.global_init = 40;
  built.options = EvalOptions{c.hyper, c.reconfig, c.changeover};
  return built;
}

MultiTaskSchedule warm_schedule(const Built& built) {
  MultiTaskSchedule schedule = MultiTaskSchedule::all_every_step(
      built.trace.task_count(), built.trace.steps());
  if (built.machine.has_global_resources()) {
    schedule.global_boundaries.push_back(0);
  }
  return schedule;
}

std::uint64_t starts_digest(const MultiTaskSchedule& schedule) {
  std::uint64_t hash = 0xCBF29CE484222325ull;  // FNV-1a 64
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001B3ull;
  };
  for (const Partition& partition : schedule.tasks) {
    mix(partition.interval_count());
    for (const std::size_t s : partition.starts()) mix(s);
  }
  for (const std::size_t g : schedule.global_boundaries) mix(g);
  return hash;
}

std::vector<Cost> expand(
    const std::vector<std::pair<Cost, std::size_t>>& runs) {
  std::vector<Cost> history;
  for (const auto& [cost, generations] : runs) {
    history.insert(history.end(), generations, cost);
  }
  return history;
}

std::string literal(std::size_t steps, const GaResult& ga,
                    const MTSolution& sa) {
  std::ostringstream out;
  out << "{" << steps << ", " << ga.best.total() << ", " << ga.evaluations
      << ", {";
  for (std::size_t g = 0; g < ga.history.size();) {
    std::size_t run = 1;
    while (g + run < ga.history.size() &&
           ga.history[g + run] == ga.history[g]) {
      ++run;
    }
    out << (g ? ", " : "") << "{" << ga.history[g] << ", " << run << "}";
    g += run;
  }
  out << "}, 0x" << std::hex << starts_digest(ga.best.schedule) << "ull, "
      << std::dec << sa.total() << ", 0x" << std::hex
      << starts_digest(sa.schedule) << "ull},";
  return out.str();
}

TEST(SearchRegressionLock, GeneticAndAnnealingTrajectoriesArePinned) {
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const LockCase& c = kCases[i];
    const Pinned& pinned = kPinned[i];
    SCOPED_TRACE(testing::Message() << "case " << i << " (" << c.family
                                    << ", seed " << c.seed << ")");
    const Built built = build(c);
    const SolveInstance instance(built.trace, built.machine, built.options);

    GaConfig ga_config;
    ga_config.population = 20;
    ga_config.generations = 120;
    ga_config.seed = c.seed * 7919;
    SaConfig sa_config;
    sa_config.iterations = 1500;
    sa_config.seed = c.seed * 104729;
    if (c.warm_start) {
      ga_config.seed_schedule.push_back(warm_schedule(built));
      sa_config.seed_schedule.push_back(warm_schedule(built));
    }
    const GaResult ga = solve_genetic(instance, ga_config);
    const MTSolution sa = solve_annealing(instance, sa_config);

    const bool match = instance.steps() == pinned.steps &&
                       ga.best.total() == pinned.ga_total &&
                       ga.evaluations == pinned.ga_evaluations &&
                       ga.history == expand(pinned.ga_history) &&
                       starts_digest(ga.best.schedule) ==
                           pinned.ga_starts_digest &&
                       sa.total() == pinned.sa_total &&
                       starts_digest(sa.schedule) == pinned.sa_starts_digest;
    EXPECT_TRUE(match) << "actual: " << literal(instance.steps(), ga, sa);
    EXPECT_EQ(ga.best.total(), ga.history.back());
  }
}

}  // namespace
}  // namespace hyperrec
