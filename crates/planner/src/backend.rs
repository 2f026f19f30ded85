//! Pluggable solver backends (§3.3): one intent translation, many solvers.
//!
//! The paper's planner compiles intent to MiniZinc and hands it to
//! interchangeable optimization backends (OR-Tools CP, CBC) plus the
//! Appendix C heuristic. This module is that seam for the workspace: every
//! solving strategy implements [`SolverBackend`] over the shared
//! [`Translation`] IR, and [`PortfolioBackend`] races them with cooperative
//! cancellation and shared-incumbent pruning.
//!
//! Determinism contract: a backend's *result* (assignment + outcome for a
//! completed search) must not depend on wall-clock timing. The portfolio
//! therefore
//!
//! * waits for every member (it only cancels the race — one child of the
//!   caller's token, shared by all members — once the exact backend has
//!   *proved* optimality, in which case the exact result wins selection
//!   no matter what the others would have returned);
//! * lets only the exact backend prune against the shared incumbent — and
//!   the solver prunes strictly (`bound >` incumbent), so an equal-cost
//!   optimum is never cut and a completed exact search returns the same
//!   incumbent it would have found running solo;
//! * publishes a member's cost to the shared incumbent only after
//!   `model.check` passes, so an infeasible heuristic sketch can never
//!   prune the true optimum;
//! * picks the winner by (feasibility, model cost, fixed member order) —
//!   never by who finished first.

use crate::decompose::{reconcile, shard_translation, solve_parts, TranslationPart};
use crate::heuristic::{place_bundles, HeuristicConfig};
use crate::intent::PlanIntent;
use crate::translate::Translation;
use cornet_model::Model;
use cornet_obs::{ActiveSpan, SpanId, Tracer};
use cornet_solver::{solve, CancelToken, Outcome, SearchStats, SharedIncumbent, SolverConfig};
use cornet_types::{CornetError, Inventory, NodeId, Result};
use std::time::{Duration, Instant};

/// Which backend the planner should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Exact branch & bound CP solver (proves optimality under budget).
    #[default]
    Exact,
    /// Algorithm 1 (Appendix C): timezone-sequenced market-permutation
    /// local search over the translation's units.
    Heuristic,
    /// Race exact and heuristic; deterministic winner.
    Portfolio,
    /// Shard the translation by timezone/market, race a portfolio per
    /// shard with apportioned capacities, then reconcile shared capacity
    /// across shards (§3.3.3 idea (b) taken past independent components).
    Sharded,
}

impl BackendChoice {
    /// Parse a CLI-facing backend name.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "exact" => Ok(BackendChoice::Exact),
            "heuristic" => Ok(BackendChoice::Heuristic),
            "portfolio" => Ok(BackendChoice::Portfolio),
            "sharded" => Ok(BackendChoice::Sharded),
            other => Err(CornetError::Parse(format!(
                "unknown backend {other:?} (expected exact|heuristic|portfolio|sharded)"
            ))),
        }
    }

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Exact => "exact",
            BackendChoice::Heuristic => "heuristic",
            BackendChoice::Portfolio => "portfolio",
            BackendChoice::Sharded => "sharded",
        }
    }

    /// Instantiate the backend with the planner's configuration.
    pub fn instantiate(
        self,
        solver: &SolverConfig,
        heuristic: &HeuristicConfig,
    ) -> Box<dyn SolverBackend> {
        match self {
            BackendChoice::Exact => Box::new(ExactBackend {
                config: solver.clone(),
            }),
            BackendChoice::Heuristic => Box::new(HeuristicBackend {
                config: heuristic.clone(),
                capacity_override: None,
            }),
            BackendChoice::Portfolio => Box::new(PortfolioBackend::standard(solver, heuristic)),
            BackendChoice::Sharded => Box::new(ShardedBackend::standard(solver, heuristic)),
        }
    }
}

/// Search budget shared by all backends (the solver's node and wall-clock
/// limits, lifted out of `SolverConfig` so non-CP backends honor them too).
#[derive(Clone, Debug)]
pub struct Budget {
    /// Maximum search nodes (exact backend).
    pub max_nodes: u64,
    /// Wall-clock limit.
    pub time_limit: Duration,
}

impl Budget {
    /// Lift the budget fields out of a solver configuration.
    pub fn from_config(config: &SolverConfig) -> Self {
        Budget {
            max_nodes: config.max_nodes,
            time_limit: config.time_limit,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::from_config(&SolverConfig::default())
    }
}

/// Everything a backend may consult: the shared [`Translation`] IR (model,
/// units, slots, window) plus the source intent and inventory that
/// unit-level backends like the heuristic need.
#[derive(Clone)]
pub struct SolveContext<'a> {
    /// The translated model and its decode tables.
    pub translation: &'a Translation,
    /// Node inventory (attribute lookups for the heuristic).
    pub inventory: &'a Inventory,
    /// The source intent (capacity and tolerance knobs).
    pub intent: &'a PlanIntent,
    /// Shared-incumbent hook, set by the portfolio driver. Only the exact
    /// backend prunes against it; see the module docs for why.
    pub incumbent: Option<SharedIncumbent>,
    /// Observability handle; every backend run records a `solve.<name>`
    /// span on it (noop by default).
    pub tracer: Tracer,
    /// Parent for backend spans (the planner's `plan` span, or the
    /// portfolio's own span for member runs).
    pub span_parent: Option<SpanId>,
}

impl<'a> SolveContext<'a> {
    /// Context over a translation: no shared incumbent, no tracer — set
    /// the fields to attach them.
    pub fn new(
        translation: &'a Translation,
        inventory: &'a Inventory,
        intent: &'a PlanIntent,
    ) -> Self {
        SolveContext {
            translation,
            inventory,
            intent,
            incumbent: None,
            tracer: Tracer::noop(),
            span_parent: None,
        }
    }
}

/// Open the span every backend run records.
fn open_solve_span(ctx: &SolveContext<'_>, name: &'static str) -> ActiveSpan {
    ctx.tracer
        .span_with_parent(&format!("solve.{name}"), ctx.span_parent)
}

/// Close a backend-run span with the outcome attributes shared by every
/// backend: termination category, cost, feasibility, budget consumption
/// and whether the run was cancelled under it.
fn close_solve_span(
    ctx: &SolveContext<'_>,
    mut span: ActiveSpan,
    name: &'static str,
    budget: &Budget,
    cancel: &CancelToken,
    result: &BackendResult,
) {
    if !span.is_recording() {
        return;
    }
    span.attr("outcome", format!("{:?}", result.outcome));
    if let Some(cost) = result.cost {
        span.attr("cost", cost);
    }
    if let Some(run) = result.runs.first() {
        span.attr("feasible", run.feasible);
    }
    span.attr("search_nodes", result.stats.nodes);
    span.attr("propagations", result.stats.propagations);
    span.attr("bound_prunes", result.stats.bound_prunes);
    span.attr("budget_nodes", budget.max_nodes);
    span.attr("solutions", result.stats.solutions);
    span.attr("cancelled", cancel.is_cancelled());
    span.finish();
    ctx.tracer.incr(&format!("solves.{name}"), 1);
}

/// One backend's contribution to a (possibly racing) solve — the
/// per-backend statistics `PlanResult` records.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Backend name (`exact`, `heuristic`, `sharded`).
    pub backend: &'static str,
    /// How the backend's search ended.
    pub outcome: Outcome,
    /// Model-objective cost of its best assignment.
    pub cost: Option<i64>,
    /// Whether the assignment passes `model.check`.
    pub feasible: bool,
    /// Search counters.
    pub stats: SearchStats,
    /// Wall-clock time this run consumed (for portfolio members, the
    /// member's full race time including cancellation latency).
    pub elapsed: Duration,
    /// Shard index when the run solved one shard of a sharded solve.
    pub shard: Option<usize>,
    /// Whether this run's assignment was selected.
    pub winner: bool,
}

impl BackendRun {
    /// The run of a backend solving on its own: no shard, and the winner
    /// until a portfolio or sharded solve says otherwise. `elapsed` is the
    /// run's own clock.
    fn solo(
        backend: &'static str,
        outcome: Outcome,
        cost: Option<i64>,
        feasible: bool,
        stats: SearchStats,
    ) -> Self {
        BackendRun {
            backend,
            outcome,
            cost,
            feasible,
            stats,
            elapsed: stats.elapsed,
            shard: None,
            winner: true,
        }
    }
}

/// Result of a backend solve over one translation.
#[derive(Clone, Debug)]
pub struct BackendResult {
    /// Termination category of the winning run.
    pub outcome: Outcome,
    /// Best assignment over the translation's model variables.
    pub assignment: Option<Vec<i64>>,
    /// Model-objective cost of `assignment`.
    pub cost: Option<i64>,
    /// Winning run's search counters.
    pub stats: SearchStats,
    /// Every participating backend's run, in fixed member order.
    pub runs: Vec<BackendRun>,
    /// Independent components the solve was divided into and merged from
    /// (1 unless `PlanOptions::decompose` split the model).
    pub parts: usize,
}

impl BackendResult {
    fn from_run(run: BackendRun, assignment: Option<Vec<i64>>) -> Self {
        BackendResult {
            outcome: run.outcome,
            assignment,
            cost: run.cost,
            stats: run.stats,
            runs: vec![run],
            parts: 1,
        }
    }
}

/// A scheduling strategy over the shared translation IR.
pub trait SolverBackend: Send + Sync {
    /// Stable backend name for stats and logs.
    fn name(&self) -> &'static str;

    /// Search for a schedule within `budget`, checking `cancel`
    /// cooperatively. Must be deterministic given the same context and an
    /// uncancelled run.
    fn solve(&self, ctx: &SolveContext<'_>, budget: &Budget, cancel: &CancelToken)
        -> BackendResult;
}

/// The exact branch & bound CP solver.
#[derive(Clone, Debug, Default)]
pub struct ExactBackend {
    /// Base solver knobs; budget and hooks are overlaid per solve.
    pub config: SolverConfig,
}

impl SolverBackend for ExactBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        let span = open_solve_span(ctx, "exact");
        let config = SolverConfig {
            max_nodes: budget.max_nodes,
            time_limit: budget.time_limit,
            cancel: Some(cancel.clone()),
            incumbent: ctx.incumbent.clone(),
            ..self.config.clone()
        };
        let model = &ctx.translation.model;
        let r = solve(model, &config);
        let (assignment, cost) = r.best.map(|sol| (sol.assignment, sol.cost)).unzip();
        let feasible = assignment.as_ref().is_some_and(|a| model.check(a).is_ok());
        let result = BackendResult::from_run(
            BackendRun::solo("exact", r.outcome, cost, feasible, r.stats),
            assignment,
        );
        close_solve_span(ctx, span, "exact", budget, cancel, &result);
        result
    }
}

/// Algorithm 1 (Appendix C) over the translation's units.
#[derive(Clone, Debug, Default)]
pub struct HeuristicBackend {
    /// Heuristic knobs; `slot_capacity` is overridden by the intent's
    /// plain concurrency rule when one is declared.
    pub config: HeuristicConfig,
    /// Hard capacity override (wins over the intent's rule) — the sharded
    /// backend sets this to a shard's apportioned share of the global
    /// capacity so per-shard heuristic sketches stay globally mergeable.
    pub capacity_override: Option<i64>,
}

impl SolverBackend for HeuristicBackend {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        let span = open_solve_span(ctx, "heuristic");
        let (run, assignment) = if cancel.is_cancelled() {
            let idle = SearchStats::default();
            let run = BackendRun::solo("heuristic", Outcome::Unknown, None, false, idle);
            (run, None)
        } else {
            self.sketch(ctx)
        };
        let result = BackendResult::from_run(run, assignment);
        close_solve_span(ctx, span, "heuristic", budget, cancel, &result);
        result
    }
}

impl HeuristicBackend {
    /// Run Algorithm 1 over the translation's units and express the
    /// placements as a model assignment.
    fn sketch(&self, ctx: &SolveContext<'_>) -> (BackendRun, Option<Vec<i64>>) {
        let started = Instant::now();
        let mut config = self.config.clone();
        let declared = || ctx.intent.plain_concurrency_capacity();
        if let Some(cap) = self.capacity_override.or_else(declared) {
            config.slot_capacity = cap;
        }
        let t = ctx.translation;
        let units: Vec<&[NodeId]> = t.units.iter().map(|u| &u.nodes[..]).collect();
        let placed = place_bundles(ctx.inventory, &units, &t.busy, t.slots.len(), &config);
        let model = &t.model;
        let mut assignment = vec![0i64; model.var_count()];
        for (unit, placement) in t.units.iter().zip(&placed.placement) {
            if let Some(slot_idx) = placement {
                assignment[unit.var.index()] = (*slot_idx + 1) as i64;
            }
        }
        let feasible = model.check(&assignment).is_ok();
        let cost = model.cost(&assignment);
        let elapsed = started.elapsed();
        let stats = SearchStats {
            solutions: 1,
            elapsed,
            time_to_best: elapsed,
            ..SearchStats::default()
        };
        // The heuristic proves nothing; a model-feasible sketch is
        // Feasible, anything else is best-effort Unknown (the assignment
        // is still returned for decoding).
        let outcome = if feasible {
            Outcome::Feasible
        } else {
            Outcome::Unknown
        };
        let run = BackendRun::solo("heuristic", outcome, Some(cost), feasible, stats);
        (run, Some(assignment))
    }
}

/// Race several backends on threads; deterministic winner.
pub struct PortfolioBackend {
    /// Members in fixed tie-break order (earlier wins ties).
    pub members: Vec<Box<dyn SolverBackend>>,
}

impl PortfolioBackend {
    /// The standard lineup: exact, then heuristic — exact first so a
    /// proved optimum always wins ties. Two members, not three: a greedy
    /// one would rerun the exact search's own cost-ordered first dive.
    pub fn standard(solver: &SolverConfig, heuristic: &HeuristicConfig) -> Self {
        Self::lineup(solver, heuristic, None)
    }

    /// The standard lineup with the heuristic member packing against
    /// `capacity_override` (a shard's apportioned share) when given.
    fn lineup(
        solver: &SolverConfig,
        heuristic: &HeuristicConfig,
        capacity_override: Option<i64>,
    ) -> Self {
        PortfolioBackend {
            members: vec![
                Box::new(ExactBackend {
                    config: solver.clone(),
                }),
                Box::new(HeuristicBackend {
                    config: heuristic.clone(),
                    capacity_override,
                }),
            ],
        }
    }
}

impl SolverBackend for PortfolioBackend {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        let mut span = open_solve_span(ctx, "portfolio");
        span.attr("members", self.members.len());
        let span_id = span.is_recording().then(|| span.id());
        let model = &ctx.translation.model;
        let incumbent = ctx.incumbent.clone().unwrap_or_default();
        // One token for the whole race, a child of the caller's: members
        // see an external cancellation on their next node, and a member
        // that ends the race cancels nothing outside it.
        let race = cancel.child();

        let results: Vec<Option<BackendResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .members
                .iter()
                .map(|member| {
                    let mut member_ctx = ctx.clone();
                    // Only the exact backend prunes against the shared
                    // bound (it ignores `incumbent` otherwise).
                    member_ctx.incumbent = Some(incumbent.clone());
                    // Member spans nest under the portfolio's own span.
                    member_ctx.span_parent = span_id;
                    let (incumbent, race) = (&incumbent, &race);
                    scope.spawn(move || {
                        let member_started = Instant::now();
                        let mut result = member.solve(&member_ctx, budget, race);
                        // Per-member race time: the satellite metric
                        // `PlanResult.backend_runs[].elapsed` reports.
                        if result.runs.len() == 1 {
                            result.runs[0].elapsed = member_started.elapsed();
                        }
                        // Publish only checked-feasible costs: an
                        // infeasible sketch must never prune the optimum.
                        if let (Some(a), Some(c)) = (&result.assignment, result.cost) {
                            if model.check(a).is_ok() {
                                incumbent.publish(c);
                                member_ctx.tracer.incr("incumbent.published", 1);
                            }
                        }
                        // A proved optimum cannot be beaten and wins every
                        // tie (exact is first in member order), so the
                        // other members' answers no longer matter — the
                        // race is over.
                        if result.outcome == Outcome::Optimal {
                            race.cancel();
                        }
                        result
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        });

        // Deterministic winner: best (infeasibility, cost, member order).
        // Wall-clock never participates.
        let winner = results
            .iter()
            .enumerate()
            .filter_map(|(i, result)| {
                let result = result.as_ref()?;
                Some(match (&result.assignment, result.cost) {
                    (Some(_), Some(cost)) => ((!result.runs[0].feasible) as u8, cost, i),
                    _ => (2, i64::MAX, i),
                })
            })
            .min()
            .map(|(_, _, i)| i);
        let winner_name = winner.map(|i| self.members[i].name());
        let runs: Vec<BackendRun> = results
            .iter()
            .flatten()
            .flat_map(|result| &result.runs)
            .map(|run| BackendRun {
                winner: Some(run.backend) == winner_name,
                ..run.clone()
            })
            .collect();
        // Why members stopped early: an external caller cancelling the
        // whole race, or one member proving optimality and ending it.
        let cancel_cause = if cancel.is_cancelled() {
            "external"
        } else if race.is_cancelled() {
            "optimal_member"
        } else {
            "none"
        };
        span.attr("cancel_cause", cancel_cause);
        if let Some(name) = winner_name {
            span.attr("winner", name);
        }
        let result = match winner.and_then(|i| results.into_iter().nth(i).flatten()) {
            Some(won) => BackendResult { runs, ..won },
            None => BackendResult {
                outcome: Outcome::Unknown,
                assignment: None,
                cost: None,
                stats: SearchStats::default(),
                runs,
                parts: 1,
            },
        };
        close_solve_span(ctx, span, "portfolio", budget, cancel, &result);
        result
    }
}

/// Schedule-quality rank of a full-model assignment candidate:
/// (infeasible, unscheduled units, makespan proxy, cost). Lower wins.
fn candidate_rank(model: &Model, assignment: &[i64], feasible: bool) -> (bool, usize, i64, i64) {
    let leftovers = assignment.iter().filter(|&&v| v == 0).count();
    let makespan = assignment.iter().copied().max().unwrap_or(0);
    (!feasible, leftovers, makespan, model.cost(assignment))
}

/// Sharded portfolio solving: partition the translation by timezone and
/// market, race a portfolio per shard with apportioned capacity shares,
/// merge the shard plans and reconcile shared capacity globally.
///
/// Capacity soundness is by construction: a cross-shard capacity
/// constraint is split into per-shard shares that sum exactly to the
/// original bound ([`crate::decompose::shard_translation`]), so the merged
/// assignment satisfies the global model before reconciliation even runs —
/// reconciliation only claws back slack the apportionment stranded. A
/// full-problem heuristic runs as a safety net and the final plan is the
/// better of the two under [`candidate_rank`], so the sharded backend is
/// never worse than the heuristic alone.
pub struct ShardedBackend {
    /// Solver knobs for per-shard exact members.
    pub solver: SolverConfig,
    /// Heuristic knobs for per-shard members and the safety net.
    pub heuristic: HeuristicConfig,
}

impl ShardedBackend {
    /// The standard configuration.
    pub fn standard(solver: &SolverConfig, heuristic: &HeuristicConfig) -> Self {
        ShardedBackend {
            solver: solver.clone(),
            heuristic: heuristic.clone(),
        }
    }

    /// Solve with an explicit shard visiting order (testing hook: the
    /// published plan must not depend on it). `None` uses shard order.
    pub fn solve_ordered(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
        order: Option<&[usize]>,
    ) -> BackendResult {
        let started = Instant::now();
        let mut span = open_solve_span(ctx, "sharded");
        let span_id = span.is_recording().then(|| span.id());
        let model = &ctx.translation.model;
        // Everything below nests under this solve's span.
        let mut inner_ctx = ctx.clone();
        inner_ctx.span_parent = span_id.or(ctx.span_parent);

        let Some(split) = shard_translation(ctx.translation, ctx.inventory) else {
            // One timezone/market, or a cross-shard constraint we cannot
            // apportion — fall back to the plain portfolio race.
            span.attr("fallback", "portfolio");
            let inner = PortfolioBackend::standard(&self.solver, &self.heuristic);
            let result = inner.solve(&inner_ctx, budget, cancel);
            close_solve_span(ctx, span, "sharded", budget, cancel, &result);
            return result;
        };
        let shards = &split.shards;
        span.attr("shards", shards.len());
        span.attr("coupled_capacity_constraints", split.coupled);
        ctx.tracer
            .incr("sharded.shards_solved", shards.len() as u64);

        // The shard fan targets half the budget, so translation,
        // reconciliation and the safety net fit in the rest; the node
        // budget is divided among the shards.
        let fan_budget = Budget {
            max_nodes: (budget.max_nodes / shards.len() as u64).max(10_000),
            time_limit: budget.time_limit / 2,
        };
        let parts: Vec<&TranslationPart> = shards.iter().map(|s| &s.part).collect();
        let fan = solve_parts(
            &inner_ctx,
            &parts,
            order,
            &fan_budget,
            |si, sctx, sbudget| {
                // Per shard: the standard race, its heuristic member packing
                // against the shard's apportioned capacity share.
                let race = PortfolioBackend::lineup(
                    &self.solver,
                    &self.heuristic,
                    shards[si].heuristic_cap,
                );
                let mut result = race.solve(sctx, sbudget, cancel);
                for run in &mut result.runs {
                    (run.shard, run.winner) = (Some(si), false);
                }
                result
            },
        );
        let all_optimal = fan.outcome == Outcome::Optimal;
        let (stats, mut runs) = (fan.stats, fan.runs);
        let mut assignment = fan.assignment.expect("the fan merges an assignment");

        let rec = reconcile(model, &mut assignment);
        span.attr("reconcile_rounds", rec.rounds);
        span.attr("reconcile_moves", rec.moves);
        span.attr("reconcile_feasible", rec.feasible);
        ctx.tracer.incr("sharded.reconcile_rounds", rec.rounds);
        ctx.tracer.incr("sharded.reconcile_moves", rec.moves);

        // Full-problem safety net: the merged plan must beat the plain
        // heuristic on schedule quality or it is not published.
        let net = HeuristicBackend {
            config: self.heuristic.clone(),
            capacity_override: None,
        };
        inner_ctx.incumbent = None;
        let net_result = net.solve(&inner_ctx, budget, cancel);

        let merged_rank = candidate_rank(model, &assignment, rec.feasible);
        let merged_wins = match net_result.assignment.as_deref() {
            // Merged-first tie-break: equal rank publishes the shard plan.
            Some(net_a) => merged_rank <= candidate_rank(model, net_a, net_result.runs[0].feasible),
            None => true,
        };
        span.attr("winner", if merged_wins { "sharded" } else { "heuristic" });

        let merged_outcome = if !rec.feasible {
            Outcome::Unknown
        } else if split.coupled == 0 && all_optimal {
            // Independent shards each solved to proven optimality compose
            // into a global optimum.
            Outcome::Optimal
        } else {
            Outcome::Feasible
        };
        let merged_cost = model.cost(&assignment);
        runs.push(BackendRun {
            elapsed: started.elapsed(),
            winner: merged_wins,
            ..BackendRun::solo(
                "sharded",
                merged_outcome,
                Some(merged_cost),
                rec.feasible,
                stats,
            )
        });
        runs.extend(net_result.runs.iter().map(|run| BackendRun {
            winner: !merged_wins,
            ..run.clone()
        }));

        let result = if merged_wins {
            BackendResult {
                outcome: merged_outcome,
                assignment: Some(assignment),
                cost: Some(merged_cost),
                stats,
                runs,
                parts: 1,
            }
        } else {
            BackendResult { runs, ..net_result }
        };
        close_solve_span(ctx, span, "sharded", budget, cancel, &result);
        result
    }
}

impl SolverBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn solve(
        &self,
        ctx: &SolveContext<'_>,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> BackendResult {
        self.solve_ordered(ctx, budget, cancel, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::ConstraintRule;
    use crate::translate::{translate, TranslateOptions};
    use cornet_types::{Attributes, Inventory, NfType, NodeId, Topology};

    fn fixture(n: usize, cap: i64) -> (PlanIntent, Inventory, Topology, Vec<NodeId>) {
        let mut inv = Inventory::new();
        for i in 0..n {
            let market = if i % 2 == 0 { "NYC" } else { "DFW" };
            let tz = if i % 2 == 0 { -5.0 } else { -6.0 };
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz),
            );
        }
        let intent = PlanIntent::from_json(&format!(
            r#"{{
            "scheduling_window": {{"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-10 23:59:00",
                                   "granularity": {{"metric": "day", "value": 1}}}},
            "maintenance_window": {{"start": "0:00", "end": "6:00"}},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": [
                {{"name": "concurrency", "base_attribute": "common_id",
                  "operator": "<=", "granularity": {{"metric": "day", "value": 1}},
                  "default_capacity": {cap}}}
            ]
        }}"#
        ))
        .unwrap();
        let topo = Topology::with_capacity(n);
        let nodes: Vec<NodeId> = inv.ids().collect();
        (intent, inv, topo, nodes)
    }

    fn run(choice: BackendChoice, n: usize, cap: i64) -> BackendResult {
        let (intent, inv, topo, nodes) = fixture(n, cap);
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent);
        let backend = choice.instantiate(&SolverConfig::default(), &HeuristicConfig::default());
        backend.solve(&ctx, &Budget::default(), &CancelToken::new())
    }

    #[test]
    fn choice_parse_round_trips() {
        for c in [
            BackendChoice::Exact,
            BackendChoice::Heuristic,
            BackendChoice::Portfolio,
            BackendChoice::Sharded,
        ] {
            assert_eq!(BackendChoice::parse(c.name()).unwrap(), c);
        }
        assert!(BackendChoice::parse("simplex").is_err());
    }

    #[test]
    fn exact_backend_proves_optimal() {
        let r = run(BackendChoice::Exact, 6, 2);
        assert_eq!(r.outcome, Outcome::Optimal);
        assert!(r.runs[0].feasible);
        assert_eq!(r.runs.len(), 1);
    }

    #[test]
    fn heuristic_backend_returns_assignment() {
        let r = run(BackendChoice::Heuristic, 6, 2);
        let a = r.assignment.expect("heuristic always proposes");
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&v| v >= 0));
    }

    #[test]
    fn portfolio_reports_all_members_and_one_winner() {
        let r = run(BackendChoice::Portfolio, 6, 2);
        let names: Vec<_> = r.runs.iter().map(|run| run.backend).collect();
        assert_eq!(names, vec!["exact", "heuristic"]);
        assert_eq!(r.runs.iter().filter(|run| run.winner).count(), 1);
        assert_eq!(r.outcome, Outcome::Optimal, "exact completes on 6 nodes");
        // The winning cost is the minimum over feasible members.
        let min_cost = r
            .runs
            .iter()
            .filter(|run| run.feasible)
            .filter_map(|run| run.cost)
            .min()
            .unwrap();
        assert_eq!(r.cost, Some(min_cost));
    }

    #[test]
    fn portfolio_matches_exact_on_completed_search() {
        let exact = run(BackendChoice::Exact, 8, 3);
        let portfolio = run(BackendChoice::Portfolio, 8, 3);
        assert_eq!(portfolio.assignment, exact.assignment);
        assert_eq!(portfolio.cost, exact.cost);
    }

    #[test]
    fn portfolio_reports_per_member_elapsed() {
        let r = run(BackendChoice::Portfolio, 6, 2);
        for member in &r.runs {
            assert!(
                member.elapsed > Duration::ZERO,
                "{} run must report its race time",
                member.backend
            );
        }
    }

    #[test]
    fn sharded_splits_by_market_and_merges_feasibly() {
        // Alternating NYC/DFW fixture with a plain (cross-shard)
        // concurrency rule → two shards with apportioned capacity.
        let r = run(BackendChoice::Sharded, 12, 4);
        let a = r.assignment.expect("sharded plan");
        let (intent, inv, topo, nodes) = fixture(12, 4);
        let t = translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        assert!(
            t.model.check(&a).is_ok(),
            "merged plan is globally feasible"
        );
        let shard_runs = r.runs.iter().filter(|run| run.shard.is_some()).count();
        assert!(shard_runs >= 4, "two shards × two members: {shard_runs}");
        assert!(
            r.runs.iter().any(|run| run.backend == "sharded"),
            "aggregate sharded run is reported"
        );
    }

    #[test]
    fn sharded_matches_exact_when_shards_decouple() {
        // Per-market capacity → no cross-shard constraint: shard optima
        // compose into a global optimum.
        let (mut intent, inv, topo, nodes) = fixture(8, 2);
        intent.constraints = vec![crate::intent::ConstraintRule::Concurrency {
            base_attribute: "common_id".into(),
            aggregate_attribute: Some("market".into()),
            operator: "<=".into(),
            granularity: cornet_types::Granularity::daily(),
            default_capacity: 2,
        }];
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent);
        let exact = ExactBackend::default().solve(&ctx, &Budget::default(), &CancelToken::new());
        let sharded = ShardedBackend::standard(
            &SolverConfig::default(),
            &HeuristicConfig::default(),
        )
        .solve(&ctx, &Budget::default(), &CancelToken::new());
        assert_eq!(sharded.outcome, Outcome::Optimal);
        assert_eq!(sharded.cost, exact.cost);
    }

    #[test]
    fn sharded_plan_is_independent_of_shard_solve_order() {
        let (intent, inv, topo, nodes) = fixture(10, 3);
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent);
        let backend =
            ShardedBackend::standard(&SolverConfig::default(), &HeuristicConfig::default());
        let fwd =
            backend.solve_ordered(&ctx, &Budget::default(), &CancelToken::new(), Some(&[0, 1]));
        let rev =
            backend.solve_ordered(&ctx, &Budget::default(), &CancelToken::new(), Some(&[1, 0]));
        assert_eq!(fwd.assignment, rev.assignment);
        assert_eq!(fwd.cost, rev.cost);
    }

    #[test]
    fn sharded_falls_back_when_unshardable() {
        // Single market/timezone → nothing to shard; the backend degrades
        // to the plain portfolio and still solves.
        let mut inv = Inventory::new();
        for i in 0..6 {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new()
                    .with("market", "NYC")
                    .with("utc_offset", -5.0),
            );
        }
        let (intent, _, topo, _) = fixture(6, 2);
        let nodes: Vec<NodeId> = inv.ids().collect();
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent);
        let r = ShardedBackend::standard(&SolverConfig::default(), &HeuristicConfig::default())
            .solve(&ctx, &Budget::default(), &CancelToken::new());
        assert_eq!(r.outcome, Outcome::Optimal, "portfolio fallback completes");
        assert!(r.assignment.is_some());
    }

    #[test]
    fn truncated_race_is_two_members_and_costs_what_solo_exact_costs() {
        // The `esa_market` shape: one unit per market weighing its node
        // count, under a capacity the weights do not tile, so the bound
        // cannot close the search and the node budget truncates it.
        let sizes = [5usize, 7, 3, 6, 4, 8, 2, 5, 9, 3];
        let mut inv = Inventory::new();
        for (m, &size) in sizes.iter().enumerate() {
            for i in 0..size {
                let attrs = Attributes::new()
                    .with("market", format!("M{m}"))
                    .with("utc_offset", if m % 2 == 0 { -5.0 } else { -6.0 });
                inv.push(format!("n{m}-{i}"), NfType::ENodeB, attrs);
            }
        }
        let nodes: Vec<NodeId> = inv.ids().collect();
        let (mut intent, _, _, _) = fixture(0, nodes.len() as i64 / 3);
        intent.schedulable_attribute = "market".into();
        let ConstraintRule::Concurrency { base_attribute, .. } = &mut intent.constraints[0] else {
            unreachable!("the fixture declares one concurrency rule")
        };
        *base_attribute = "market".into();
        let topo = Topology::with_capacity(nodes.len());
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let ctx = SolveContext::new(&translation, &inv, &intent);
        let budget = Budget {
            max_nodes: 300,
            ..Budget::default()
        };
        let solve = |choice: BackendChoice| {
            choice
                .instantiate(&SolverConfig::default(), &HeuristicConfig::default())
                .solve(&ctx, &budget, &CancelToken::new())
        };
        let exact = solve(BackendChoice::Exact);
        assert_eq!(
            exact.outcome,
            Outcome::Feasible,
            "the budget truncates exact"
        );

        // The sketch (112) costs more than exact's first dive (110), so
        // its published bound cuts nothing exact's own incumbent does not:
        // the race's exact member is the solo search, node for node.
        let race = solve(BackendChoice::Portfolio);
        assert_eq!(race.runs.len(), 2, "one race, two members");
        assert_eq!(
            race.cost, exact.cost,
            "the winner costs what solo exact costs"
        );
        let sharded = solve(BackendChoice::Sharded);
        let shards = sharded
            .runs
            .iter()
            .filter_map(|run| run.shard)
            .max()
            .unwrap()
            + 1;
        assert!(shards >= 2, "the two timezones shard");
        for si in 0..shards {
            let members = sharded.runs.iter().filter(|run| run.shard == Some(si));
            assert_eq!(members.count(), 2, "shard {si} races two members");
        }
    }

    #[test]
    fn pre_cancelled_portfolio_returns_unknown() {
        use cornet_obs::AttrValue;
        let (intent, inv, topo, nodes) = fixture(4, 2);
        let translation =
            translate(&intent, &inv, &topo, &nodes, &TranslateOptions::default()).unwrap();
        let tracer = Tracer::wall();
        let mut ctx = SolveContext::new(&translation, &inv, &intent);
        ctx.tracer = tracer.clone();
        let backend = BackendChoice::Portfolio
            .instantiate(&SolverConfig::default(), &HeuristicConfig::default());
        let cancel = CancelToken::new();
        cancel.cancel();
        let r = backend.solve(&ctx, &Budget::default(), &cancel);
        assert!(
            r.assignment.is_none() || r.outcome != Outcome::Optimal,
            "a cancelled race must not claim optimality"
        );
        // Every member started cancelled — through the race's child token,
        // nobody copied anything — and every member is still reported.
        assert_eq!(r.runs.len(), 2);
        assert!(r.runs.iter().all(|run| run.outcome != Outcome::Optimal));
        let trace = tracer.snapshot();
        let race = trace.spans_named("solve.portfolio").next().unwrap();
        assert_eq!(
            race.attr("cancel_cause"),
            Some(&AttrValue::Str("external".into()))
        );
        for member in trace.children_of(race.id) {
            assert_eq!(member.attr("cancelled"), Some(&AttrValue::Bool(true)));
        }
    }
}
