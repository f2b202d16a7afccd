#include "layers.hpp"

#include <chrono>

#include "ip/greedy.hpp"
#include "ip/local_search.hpp"
#include "ip/warm_start.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

double us_since(Clock::time_point start) {
  return static_cast<double>(ns_since(start)) * 1e-3;
}

}  // namespace

bool proven(svo::ip::AssignStatus status) noexcept {
  return status == svo::ip::AssignStatus::Optimal ||
         status == svo::ip::AssignStatus::Infeasible;
}

TimedSolver::Totals TimedSolver::Totals::operator-(const Totals& base) const {
  return {calls - base.calls,         solve_ns - base.solve_ns,
          nodes - base.nodes,         proven - base.proven,
          warm_offered - base.warm_offered,
          warm_accepted - base.warm_accepted};
}

TimedSolver::Totals& TimedSolver::Totals::operator+=(const Totals& other) {
  calls += other.calls;
  solve_ns += other.solve_ns;
  nodes += other.nodes;
  proven += other.proven;
  warm_offered += other.warm_offered;
  warm_accepted += other.warm_accepted;
  return *this;
}

svo::ip::AssignmentSolution TimedSolver::solve(
    const svo::ip::AssignmentInstance& inst) const {
  const auto start = Clock::now();
  svo::ip::AssignmentSolution sol = inner_.solve(inst);
  record(ns_since(start), sol.stats, false);
  return sol;
}

svo::ip::AssignmentSolution TimedSolver::solve(
    const svo::ip::AssignmentInstance& inst,
    const svo::ip::WarmStart& warm) const {
  const auto start = Clock::now();
  svo::ip::AssignmentSolution sol = inner_.solve(inst, warm);
  record(ns_since(start), sol.stats, warm.has_incumbent());
  return sol;
}

void TimedSolver::record(std::uint64_t ns, const svo::ip::SolveStats& stats,
                         bool warm_offered) const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  calls_.fetch_add(1, kRelaxed);
  solve_ns_.fetch_add(ns, kRelaxed);
  nodes_.fetch_add(stats.nodes, kRelaxed);
  if (proven(stats.status)) proven_.fetch_add(1, kRelaxed);
  if (warm_offered) warm_offered_.fetch_add(1, kRelaxed);
  if (stats.warm_start_used) warm_accepted_.fetch_add(1, kRelaxed);
}

TimedSolver::Totals TimedSolver::totals() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  return {calls_.load(kRelaxed),        solve_ns_.load(kRelaxed),
          nodes_.load(kRelaxed),        proven_.load(kRelaxed),
          warm_offered_.load(kRelaxed), warm_accepted_.load(kRelaxed)};
}

TrustReplay& TrustReplay::operator+=(const TrustReplay& other) {
  us += other.us;
  computes += other.computes;
  power_iterations += other.power_iterations;
  nonconverged += other.nonconverged;
  return *this;
}

TrustReplay replay_trust(const svo::trust::ReputationEngine& engine,
                         const svo::trust::TrustGraph& trust,
                         const svo::core::MechanismResult& result) {
  TrustReplay out;
  const auto tally = [&out](const svo::trust::ReputationResult& rep,
                            double us) {
    out.us += us;
    ++out.computes;
    out.power_iterations += rep.iterations;
    if (!rep.converged) ++out.nonconverged;
  };
  auto start = Clock::now();
  const svo::trust::ReputationResult global = engine.compute(trust);
  tally(global, us_since(start));
  for (const svo::core::IterationRecord& rec : result.journal) {
    if (!rec.feasible) continue;
    const std::vector<std::size_t> members = rec.coalition.members();
    start = Clock::now();
    const svo::trust::ReputationResult rep = engine.compute(trust, members);
    tally(rep, us_since(start));
  }
  return out;
}

double replay_seed_us(const svo::ip::AssignmentInstance& inst,
                      const svo::core::MechanismResult& result,
                      const svo::ip::BnbOptions& options) {
  using Order = svo::ip::GreedyOptions::Order;
  double us = 0.0;
  for (const svo::core::IterationRecord& rec : result.journal) {
    const svo::ip::AssignmentInstance sub =
        inst.restrict_to(rec.coalition.mask(inst.num_gsps()));
    const auto start = Clock::now();
    svo::ip::Assignment seed = svo::ip::greedy_construct(sub, Order::RegretDescending);
    if (seed.empty()) seed = svo::ip::greedy_construct(sub, Order::TimeDescending);
    if (!seed.empty()) {
      static_cast<void>(svo::ip::local_search(sub, seed, options.polish));
    }
    us += us_since(start);
  }
  return us;
}

void Quality::add(const svo::core::MechanismResult& result) {
  if (result.success) payoffs.push_back(result.payoff_share);
  for (const svo::core::IterationRecord& rec : result.journal) {
    ++solves;
    if (!proven(rec.stats.status)) ++truncated;
  }
}

void Quality::add_metrics(Output& out) const {
  out.add("payoff_mean", mean(payoffs), "units");
  out.add("truncated_ratio",
          ratio(static_cast<double>(truncated), static_cast<double>(solves)),
          "ratio");
}

void add_layer_metrics(const LayerTally& tally, Output& out) {
  const double runs = static_cast<double>(tally.run_us.size());
  const double replayed = static_cast<double>(tally.replayed);
  const double run_mean = mean(tally.run_us);
  const double ip_us = static_cast<double>(tally.ip.solve_ns) * 1e-3;
  const double ip_per_run = ratio(ip_us, runs);
  const double seed_per_run = ratio(tally.seed_us, replayed);
  const double trust_per_run = ratio(tally.trust.us, replayed);
  const double self_per_run = run_mean - ip_per_run - trust_per_run;
  if (self_per_run < 0.0) {
    out.fail("timed solves and replayed reputation computes exceed the "
             "mechanism's own run time");
  }
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  out.add("ip.solve_us_per_run", ip_per_run, "us");
  out.add("ip.share", ratio(ip_per_run, run_mean), "ratio");
  out.add("ip.calls_per_run", ratio(count(tally.ip.calls), runs), "count");
  out.add("ip.nodes_per_run", ratio(count(tally.ip.nodes), runs), "count");
  out.add("ip.nodes_per_ms", ratio(count(tally.ip.nodes), ip_us * 1e-3),
          "nodes/ms");
  out.add("ip.proven_ratio", ratio(count(tally.ip.proven), count(tally.ip.calls)),
          "ratio");
  out.add("ip.warm_accept_ratio",
          ratio(count(tally.ip.warm_accepted), count(tally.ip.warm_offered)),
          "ratio");
  out.add("ip.seed_us_per_run", seed_per_run, "us");
  out.add("ip.search_us_per_run", ip_per_run - seed_per_run, "us");
  out.add("trust.compute_us_per_run", trust_per_run, "us");
  out.add("trust.share", ratio(trust_per_run, run_mean), "ratio");
  out.add("trust.computes_per_run", ratio(count(tally.trust.computes), replayed),
          "count");
  out.add("linalg.power_iters_per_run",
          ratio(count(tally.trust.power_iterations), replayed), "count");
  out.add("trust.nonconverged", count(tally.trust.nonconverged), "count");
  out.add("core.run_us.p50", median(tally.run_us), "us");
  out.add("core.iterations_per_run", ratio(count(tally.iterations), runs),
          "count");
  out.add("core.self_us_per_run", self_per_run, "us");
  out.add("core.self_share", ratio(self_per_run, run_mean), "ratio");
}

std::string check_result(const svo::ip::AssignmentInstance& inst,
                         const svo::core::MechanismResult& result) {
  if (!result.success) return {};
  if (result.mapping.size() != inst.num_tasks()) {
    return "mapping covers " + std::to_string(result.mapping.size()) +
           " of " + std::to_string(inst.num_tasks()) + " tasks";
  }
  for (const std::size_t g : result.mapping) {
    if (!result.selected.contains(g)) return "mapping uses a GSP outside the VO";
  }
  const svo::ip::AssignmentInstance sub =
      inst.restrict_to(result.selected.mask(inst.num_gsps()));
  std::vector<std::size_t> row_of(inst.num_gsps(), 0);
  std::size_t row = 0;
  for (const std::size_t g : result.selected.members()) row_of[g] = row++;
  svo::ip::Assignment local(result.mapping.size());
  for (std::size_t t = 0; t < local.size(); ++t) {
    local[t] = row_of[result.mapping[t]];
  }
  // (13) is checked on the VO's own instance: every member gets a task.
  if (std::string why = svo::ip::check_feasible(sub, local); !why.empty()) {
    return "infeasible mapping: " + why;
  }
  if (svo::ip::assignment_cost(inst, result.mapping) != result.cost) {
    return "reported cost differs from the recomputed assignment cost";
  }
  return {};
}

std::string compare_runs(const svo::core::MechanismResult& a,
                         std::uint64_t probe_a,
                         const svo::core::MechanismResult& b,
                         std::uint64_t probe_b) {
  if (a.success != b.success) return "success differs";
  if (a.selected.bits() != b.selected.bits()) return "selected VO differs";
  if (a.mapping != b.mapping) return "mapping differs";
  if (a.cost != b.cost) return "cost differs";
  if (a.value != b.value) return "value differs";
  if (probe_a != probe_b) return "RNG probe differs";
  if (a.journal.size() != b.journal.size()) return "journal length differs";
  for (std::size_t i = 0; i < a.journal.size(); ++i) {
    const svo::core::IterationRecord& x = a.journal[i];
    const svo::core::IterationRecord& y = b.journal[i];
    if (x.coalition.bits() != y.coalition.bits() || x.feasible != y.feasible ||
        x.cost != y.cost || x.removed_gsp != y.removed_gsp ||
        x.stats.status != y.stats.status || x.stats.nodes != y.stats.nodes) {
      return "journal record " + std::to_string(i) + " differs";
    }
  }
  return {};
}

}  // namespace perfbench
