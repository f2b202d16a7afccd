#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "util/error.hpp"

namespace svo::sim {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.trace.num_jobs = 3000;
  cfg.trace.min_jobs_per_canonical_size = 4;
  cfg.trace.canonical_sizes = {32, 64};
  cfg.task_sizes = {32, 64};
  cfg.repetitions = 2;
  cfg.gen.params.num_gsps = 6;
  return cfg;
}

TEST(ScenarioFactoryTest, TraceBuiltOnceWithExpectedSize) {
  const ScenarioFactory factory(small_config());
  EXPECT_EQ(factory.trace().jobs.size(), 3000u);
}

TEST(ScenarioFactoryTest, ScenarioShapeMatchesConfig) {
  const ScenarioFactory factory(small_config());
  const Scenario s = factory.make(32, 0);
  EXPECT_EQ(s.instance.assignment.num_tasks(), 32u);
  EXPECT_EQ(s.instance.assignment.num_gsps(), 6u);
  EXPECT_EQ(s.trust.size(), 6u);
  s.instance.assignment.validate();
}

TEST(ScenarioFactoryTest, DeterministicPerKey) {
  const ScenarioFactory factory(small_config());
  const Scenario a = factory.make(64, 1);
  const Scenario b = factory.make(64, 1);
  EXPECT_DOUBLE_EQ(a.instance.assignment.deadline,
                   b.instance.assignment.deadline);
  EXPECT_DOUBLE_EQ(a.instance.assignment.payment,
                   b.instance.assignment.payment);
  EXPECT_EQ(a.tvof_seed, b.tvof_seed);
  EXPECT_EQ(a.rvof_seed, b.rvof_seed);
  EXPECT_EQ(a.trust.graph().edge_count(), b.trust.graph().edge_count());
}

TEST(ScenarioFactoryTest, DifferentRepetitionsDiffer) {
  const ScenarioFactory factory(small_config());
  const Scenario a = factory.make(64, 0);
  const Scenario b = factory.make(64, 1);
  EXPECT_NE(a.tvof_seed, b.tvof_seed);
  // Payment draw almost surely differs across repetitions.
  EXPECT_NE(a.instance.assignment.payment, b.instance.assignment.payment);
}

TEST(ScenarioFactoryTest, MechanismSeedsAreDistinct) {
  const ScenarioFactory factory(small_config());
  const Scenario s = factory.make(32, 0);
  EXPECT_NE(s.tvof_seed, s.rvof_seed);
}

TEST(ScenarioFactoryTest, UnknownSizeThrows) {
  const ScenarioFactory factory(small_config());
  EXPECT_THROW((void)factory.make(7777, 0), InvalidArgument);
}

TEST(ScenarioFactoryTest, MoreGspsThanTasksThrows) {
  // Regression: constraint (13) cannot hold with more GSPs than tasks,
  // and instance generation used to redraw deadline/payment forever.
  // ctest runs this under a TIMEOUT (tests/CMakeLists.txt).
  for (const auto& [gsps, tasks] :
       {std::pair<std::size_t, std::int64_t>{9, 8}, {65, 64}}) {
    ExperimentConfig cfg = small_config();
    cfg.gen.params.num_gsps = gsps;
    cfg.trace.canonical_sizes = {tasks};
    cfg.task_sizes = {static_cast<std::size_t>(tasks)};
    const ScenarioFactory factory(cfg);
    EXPECT_THROW((void)factory.make(static_cast<std::size_t>(tasks), 1),
                 InvalidArgument)
        << gsps << " GSPs, " << tasks << " tasks";
  }
  // As many GSPs as tasks is feasible (one task each) and still works.
  ExperimentConfig cfg = small_config();
  cfg.gen.params.num_gsps = 32;
  EXPECT_EQ(ScenarioFactory(cfg).make(32, 0).instance.assignment.num_gsps(),
            32u);
}

}  // namespace
}  // namespace svo::sim
