//! The incremental validator: delta-driven maintenance of `G ⊨ Σ`.
//!
//! ## The affected-area algorithm
//!
//! Let `T` be the union of the deltas' footprints ([`DeltaEffect::touched`]):
//! the node of an attribute write, the endpoints of an added or explicitly
//! removed edge, a created node, or — for `RemoveNode` — just the dead id
//! itself (its implicitly removed edges contribute nothing further; see
//! fact 2). Two facts make `T` a complete boundary for the update:
//!
//! 1. **New violations localise to `T`.** A violating match that exists
//!    after the update but was not stored before is either a brand-new
//!    match — so its image uses a new node or new edge, both of which put
//!    a touched node in the image — or an old match whose literal status
//!    flipped, which requires an attribute change on a matched node, again
//!    a touched node in the image.
//! 2. **Dead witnesses intersect `T` too.** A match killed by the update
//!    used a removed node (the dead id is in `T` and in the match's image)
//!    or an explicitly removed edge (both endpoints are in its image and
//!    in `T`). An edge removed *implicitly* by `RemoveNode` only affects
//!    matches whose image contains the dead endpoint — the first case.
//!
//! Hence the per-update recipe: apply the deltas; drop every stored
//! witness whose image meets `T` — an inverted-index lookup proportional
//! to the *affected* witnesses, not the store
//! ([`ViolationStore::drop_intersecting`]); then re-enumerate only matches
//! whose image meets the *live* part of `T` via exclusion-aware anchored
//! matching ([`Matcher::for_each_anchored_excluding`]): anchoring each
//! pattern variable `v` on `T` while *excluding* `T` from the candidate
//! domains of variables declared before `v` enumerates exactly the matches
//! whose first touched variable is `v`, so the union over anchors visits
//! each affected match exactly once — no post-hoc owner filter, no
//! redundant matching work.
//!
//! Both hot loops are thereby output-sensitive: per update the engine does
//! work proportional to the affected area, never to global state.
//! Recomputation fans out across worker threads at **seed granularity**:
//! the anchored seed sets are chunked into `(constraint, anchor,
//! seed-range)` units and the units pulled off a shared queue by scoped
//! workers — the [`shard`] machinery this delta path shares
//! with the seeding full pass of [`IncrementalValidator::with_threads`]
//! and with [`violations_sharded`](crate::par::violations_sharded)'s
//! pivot split. Sharding *within* a rule means a large affected area
//! under one wildcard rule no longer recomputes single-threaded.

use crate::metrics::{EngineMetrics, MetricsSnapshot, Phase, WorkerShard};
use crate::shard::{self, SeedStats, SeedUnit};
use crate::store::ViolationStore;
use crate::view::{ReadStore, ReadView, SharedViews, StoreChange};
use ged_analysis::{AnalysisReport, Pruned, RuleCost};
use ged_core::constraint::{Constraint, ViolationKind};
use ged_core::reason::ValidationReport;
use ged_core::satisfy::{violations_recorded, Violation};
use ged_graph::{Delta, DeltaEffect, DeltaSet, Graph, NodeId, Symbol};
use ged_obs::{CellRecorder, MatchRecorder, NOOP};
use ged_pattern::{Match, MatchOptions, MatchScratch, Matcher};
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// What one [`IncrementalValidator::apply`] / [`apply_all`] call did.
///
/// [`apply_all`]: IncrementalValidator::apply_all
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Deltas that actually changed the graph (no-ops excluded).
    pub deltas_applied: usize,
    /// Witnesses present before the update and gone after it. A witness
    /// the affected-area pass drops and immediately re-derives is
    /// *retained*, not removed — churn is measured against the pre-update
    /// store, not against the internal drop/re-enumerate cycle.
    pub violations_removed: usize,
    /// Witnesses absent before the update and present after it.
    pub violations_added: usize,
    /// Affected witnesses that survived the update: dropped by the prune
    /// and re-derived unchanged (same GED and assignment; their failed
    /// literals are refreshed) by re-enumeration.
    pub violations_retained: usize,
    /// Nodes in the touched set that seeded re-enumeration.
    pub touched_nodes: usize,
    /// Ids of the nodes created by `AddNode` deltas, in application order —
    /// the handle callers need to target a just-inserted node with
    /// follow-up deltas (the validator owns the graph, so there is no
    /// other way to learn them).
    pub created: Vec<NodeId>,
}

/// Configuration for [`IncrementalValidator::with_analysis`]: what to do
/// with the static-analysis findings before seeding. Rejection of an
/// Error-severity Σ (unsatisfiable chase fragment, unbound variables) is
/// unconditional; this only tunes the rest.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Drop the rules the analyzer proved safe to prune (implied rules,
    /// duplicates, rules that can never fire or never produce a
    /// violation) before seeding. Default `true`.
    pub prune: bool,
    /// Worker count for the seeding pass and delta path; `None` uses all
    /// available cores (as [`IncrementalValidator::new`]).
    pub threads: Option<usize>,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            prune: true,
            threads: None,
        }
    }
}

/// The record a [`with_analysis`](IncrementalValidator::with_analysis)
/// validator keeps of its pre-deployment analysis: the full report plus
/// exactly which rules were dropped (empty when pruning was disabled or
/// nothing was prunable).
#[derive(Debug, Clone)]
pub struct DeployAnalysis {
    /// The analyzer's findings for the *original* Σ (indices in
    /// [`Pruned`] refer to it, not to the pruned rule vector).
    pub report: AnalysisReport,
    /// Rules dropped before seeding, in original Σ order.
    pub pruned: Vec<Pruned>,
}

/// Maintains the violation set of `G ⊨ Σ` under a stream of updates, for
/// any constraint family of the unified layer (`C` = `Ged`, `Gdc`,
/// `DisjGed`, …).
///
/// Owns the graph (updates must flow through the validator so the store
/// stays consistent) and a [`ViolationStore`] that after every call equals
/// what a from-scratch [`validate`] with no witness limit would produce.
///
/// Reads can also proceed *concurrently* with the write path: a
/// [`read_view`](IncrementalValidator::read_view) is a cloneable
/// `Send + Sync` handle whose queries answer against the snapshot
/// published at the last batch boundary, so any number of reader threads
/// query while the one writer keeps applying deltas (DESIGN.md §9).
///
/// [`validate`]: ged_core::reason::validate
#[derive(Debug)]
pub struct IncrementalValidator<C: Constraint> {
    graph: Graph,
    sigma: Arc<Vec<C>>,
    store: ViolationStore,
    threads: usize,
    seed_stats: SeedStats,
    metrics: Arc<EngineMetrics>,
    analysis: Option<Arc<DeployAnalysis>>,
    /// Per-rule constant-premise pre-filters ([`shard::premise_attrs`]),
    /// extracted once at construction so the delta path never re-reads a
    /// rule's literal view.
    rule_attrs: Vec<shard::PremiseAttrs>,
    /// The slot shared with every [`ReadView`]: front snapshot buffer,
    /// epoch counter, reader count. Lazily activated by the first
    /// [`read_view`](IncrementalValidator::read_view) call; until then
    /// the delta path skips all publish work.
    views: Arc<SharedViews>,
    /// The writer-private back buffer of the double-buffered publish
    /// scheme: the previously published snapshot, reclaimed via
    /// `Arc::try_unwrap` when no reader pinned it. `None` until the
    /// first reclaim and after a failed one (the next publish then
    /// rebuilds O(store)).
    back: Option<ReadStore>,
    /// Changelog of store changes the back buffer has not seen yet —
    /// replayed at the next publish so publishing stays O(changed).
    lag: Vec<StoreChange>,
}

/// A cloned validator is an independent fork: it deep-copies the graph,
/// store, and metrics registry (tallies diverge from the clone point) and
/// starts with a *fresh, inactive* view set — [`ReadView`]s of the
/// original keep reading the original, never the clone.
impl<C: Constraint> Clone for IncrementalValidator<C> {
    fn clone(&self) -> IncrementalValidator<C> {
        IncrementalValidator {
            graph: self.graph.clone(),
            sigma: Arc::clone(&self.sigma),
            store: self.store.clone(),
            threads: self.threads,
            seed_stats: self.seed_stats.clone(),
            metrics: Arc::new((*self.metrics).clone()),
            analysis: self.analysis.clone(),
            rule_attrs: self.rule_attrs.clone(),
            views: Arc::new(SharedViews::new()),
            back: None,
            lag: Vec::new(),
        }
    }
}

impl<C: Constraint> IncrementalValidator<C> {
    /// Build a validator, seeding the store with a full validation pass
    /// sharded at seed granularity (see
    /// [`with_threads`](IncrementalValidator::with_threads)). Uses all
    /// available cores.
    pub fn new(graph: Graph, sigma: Vec<C>) -> IncrementalValidator<C> {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1);
        IncrementalValidator::with_threads(graph, sigma, threads)
    }

    /// Retune the worker count used by subsequent delta maintenance
    /// (`1` = fully sequential) — the post-construction counterpart of
    /// [`with_threads`], for validators whose deployment environment
    /// changes after seeding (e.g. scaling workers up once the initial
    /// full pass is done, or pinning a debug run to one thread).
    ///
    /// Retuning does not touch [`seed_stats`](IncrementalValidator::seed_stats):
    /// those describe the seeding pass that already ran.
    ///
    /// [`with_threads`]: IncrementalValidator::with_threads
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads >= 1, "thread count must be at least 1");
        self.threads = threads;
    }

    /// The worker count the delta path fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// As [`IncrementalValidator::new`] with an explicit worker count
    /// (`1` = fully sequential).
    ///
    /// The seeding full pass shards at **seed granularity**, like the
    /// delta path: each constraint picks its most selective pattern
    /// variable as pivot, the pivot's candidate list splits into up to
    /// `threads` chunks, and workers pull `(constraint, anchor,
    /// seed-range)` units off the shared [`shard`] queue.
    /// A Σ whose cost is concentrated in one expensive wildcard rule
    /// therefore still seeds on all cores — rule-granularity sharding
    /// (the previous design) would have left it effectively
    /// single-threaded. How the pass split is recorded in
    /// [`seed_stats`](IncrementalValidator::seed_stats).
    pub fn with_threads(graph: Graph, sigma: Vec<C>, threads: usize) -> IncrementalValidator<C> {
        assert!(threads >= 1);
        let metrics = EngineMetrics::for_sigma(&sigma);
        let t_seed = metrics.start();
        let mut store = ViolationStore::for_sigma(&sigma);
        // Constraints with an empty pattern have exactly one (empty)
        // match: nothing to shard, checked inline — tallied into an extra
        // coordinator-side shard so their cost still attributes per rule.
        let mut inline = WorkerShard::new(sigma.len(), metrics.is_enabled());
        let mut found: Vec<(usize, Match, ViolationKind)> = Vec::new();
        let mut units: Vec<SeedUnit> = Vec::new();
        for (ci, c) in sigma.iter().enumerate() {
            let pattern = c.pattern();
            if pattern.var_count() == 0 {
                found.extend(seed_inline(&graph, c, ci, &mut inline));
                continue;
            }
            shard::push_pivot_units(&mut units, &graph, ci, c, threads);
        }
        let n_rules = sigma.len();
        let enabled = metrics.is_enabled();
        // Constant-premise pre-filters, extracted once per rule — the
        // per-unit hot path installs them without re-reading the rule's
        // literal view.
        let rule_attrs: Vec<shard::PremiseAttrs> = sigma.iter().map(shard::premise_attrs).collect();
        let (batches, per_worker, shards) = shard::run_units_with(
            threads,
            &units,
            || (WorkerShard::new(n_rules, enabled), MatchScratch::new()),
            |unit, out, (ws, scratch)| {
                if ws.enabled {
                    let recorder = CellRecorder::new();
                    let t0 = Instant::now();
                    let before = out.len();
                    shard::check_unit(
                        &graph,
                        &sigma[unit.ci],
                        unit,
                        &rule_attrs[unit.ci],
                        scratch,
                        &recorder,
                        |m, kind| {
                            out.push((unit.ci, m.to_vec(), kind));
                        },
                    );
                    ws.add_unit(
                        unit.ci,
                        recorder.attempts(),
                        recorder.prefilter_rejects(),
                        recorder.matches(),
                        (out.len() - before) as u64,
                        t0.elapsed().as_nanos() as u64,
                    );
                } else {
                    shard::check_unit(
                        &graph,
                        &sigma[unit.ci],
                        unit,
                        &rule_attrs[unit.ci],
                        scratch,
                        &NOOP,
                        |m, kind| {
                            out.push((unit.ci, m.to_vec(), kind));
                        },
                    );
                }
            },
        );
        metrics.merge_pass(&inline, Phase::Seeding);
        for (ws, _) in &shards {
            metrics.merge_pass(ws, Phase::Seeding);
        }
        for (ci, m, kind) in found.into_iter().chain(batches) {
            store.insert(ci, m, kind);
        }
        metrics.finish(Phase::Seeding, t_seed);
        metrics.note_store(&store);
        let seed_stats = SeedStats {
            units: units.len(),
            per_worker,
            violations: store.total(),
        };
        IncrementalValidator {
            graph,
            sigma: Arc::new(sigma),
            store,
            threads,
            seed_stats,
            metrics: Arc::new(metrics),
            analysis: None,
            rule_attrs,
            views: Arc::new(SharedViews::new()),
            back: None,
            lag: Vec::new(),
        }
    }

    /// Build a validator behind the pre-deployment static-analysis gate
    /// of `ged-analysis` (DESIGN.md §7): `analyze(&sigma)` runs first,
    /// and
    ///
    /// * an Error-severity Σ (unsatisfiable chase fragment, literals with
    ///   unbound variables) is **rejected** — `Err` carries the full
    ///   [`AnalysisReport`] so the caller can print exactly why;
    /// * with [`AnalysisConfig::prune`] (the default), rules the analyzer
    ///   proved safe to drop — implied by the rest of the chase fragment,
    ///   duplicates, rules that can never fire or never produce a
    ///   violation — are removed *before* the seeding pass, so neither
    ///   seeding nor the delta path ever pays for them;
    /// * the validator records what happened: [`analysis`] returns the
    ///   report plus the pruned-rule list.
    ///
    /// Pruning never changes whether the maintained graph satisfies Σ,
    /// and the kept rules' violation sets are bit-for-bit what the
    /// unpruned validator maintains for them (soundness argument in
    /// DESIGN.md §7; asserted by the EXP-ANALYZE harness section and the
    /// randomized soundness test).
    ///
    /// [`analysis`]: IncrementalValidator::analysis
    pub fn with_analysis(
        graph: Graph,
        sigma: Vec<C>,
        config: AnalysisConfig,
    ) -> Result<IncrementalValidator<C>, AnalysisReport> {
        let report = ged_analysis::analyze(&sigma);
        if report.has_errors() {
            return Err(report);
        }
        let (sigma, pruned) = if config.prune && !report.prunable.is_empty() {
            let drop: Vec<usize> = report.prunable.iter().map(|p| p.index).collect();
            let kept = sigma
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, c)| c)
                .collect();
            (kept, report.prunable.clone())
        } else {
            (sigma, Vec::new())
        };
        let threads = config.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZero::get)
                .unwrap_or(1)
        });
        let mut v = IncrementalValidator::with_threads(graph, sigma, threads);
        v.analysis = Some(Arc::new(DeployAnalysis { report, pruned }));
        Ok(v)
    }

    /// The pre-deployment analysis record, when this validator was built
    /// via [`with_analysis`](IncrementalValidator::with_analysis);
    /// `None` for the plain constructors.
    pub fn analysis(&self) -> Option<&DeployAnalysis> {
        self.analysis.as_deref()
    }

    /// Re-run the static analyzer over the *deployed* Σ, cross-referencing
    /// the live per-rule metrics attribution: wildcard-label notes on
    /// rules that dominate the measured match attempts are upgraded to
    /// warnings. The lint-side of the observability loop — deploy, let the
    /// metrics accumulate, re-analyze.
    pub fn analyze_current(&self) -> AnalysisReport {
        let costs: Vec<RuleCost> = self
            .metrics
            .snapshot()
            .rules
            .iter()
            .map(|r| RuleCost {
                name: r.name.clone(),
                match_attempts: r.match_attempts,
            })
            .collect();
        ged_analysis::analyze_with_costs(&self.sigma, &costs)
    }

    /// How the construction-time seeding pass split across workers —
    /// unit and per-worker counts, fixed at construction (later
    /// [`set_threads`](IncrementalValidator::set_threads) retuning does
    /// not rewrite history).
    pub fn seed_stats(&self) -> &SeedStats {
        &self.seed_stats
    }

    /// A point-in-time aggregate of the engine's metrics registry:
    /// per-phase latency histograms, per-rule match/violation counters,
    /// store gauges, and the recent batch trace. Human-readable via
    /// `Display`, machine-readable via [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Turn instrumentation on or off (on by default). While disabled the
    /// delta path monomorphizes with the no-op recorder and reads no
    /// clock — it *is* the uninstrumented engine; existing tallies are
    /// kept, not reset.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics.set_enabled(on);
    }

    /// Is instrumentation currently on?
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// The recent apply batches retained by the event-trace ring buffer,
    /// oldest first, as `(batch id, stats)` — the same trace that is
    /// dumped to stderr when the maintenance path panics.
    pub fn trace(&self) -> Vec<(u64, ApplyStats)> {
        self.metrics.trace()
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The rule set Σ.
    pub fn sigma(&self) -> &[C] {
        &self.sigma
    }

    /// The maintained violation store.
    pub fn store(&self) -> &ViolationStore {
        &self.store
    }

    /// `G ⊨ Σ` right now?
    pub fn is_satisfied(&self) -> bool {
        self.store.is_empty()
    }

    /// Total number of current violations.
    pub fn violation_count(&self) -> usize {
        self.store.total()
    }

    /// The current violations as a [`ValidationReport`] (Σ order, witnesses
    /// sorted per GED).
    pub fn report(&self) -> ValidationReport {
        self.store.to_report(&self.sigma)
    }

    /// Create a snapshot-isolated read view: a cloneable `Send + Sync`
    /// handle whose queries (`violations()`, `to_report()`, `metrics()` —
    /// all `&self`) answer against the snapshot published at the last
    /// batch boundary. Hand clones to as many reader threads as needed
    /// while the single writer keeps calling
    /// [`apply`](IncrementalValidator::apply) /
    /// [`apply_all`](IncrementalValidator::apply_all) — readers never
    /// block the writer and never observe a torn mid-batch store.
    ///
    /// The first call activates publishing: it pays one O(store) snapshot
    /// build, and from then on `maintain` publishes an updated snapshot
    /// after every batch (O(changed) via the changelog double buffer;
    /// timed as [`Phase::SnapshotPublish`]). A validator no view was ever
    /// taken of does no publish work at all.
    ///
    /// # Example
    ///
    /// ```
    /// use ged_core::{Ged, Literal};
    /// use ged_engine::{Delta, IncrementalValidator};
    /// use ged_graph::{sym, Graph, Value};
    /// use ged_pattern::{parse_pattern, Var};
    ///
    /// let q = parse_pattern("t(x); t(y)").unwrap();
    /// let key = Ged::new(
    ///     "key",
    ///     q,
    ///     vec![Literal::vars(Var(0), sym("k"), Var(1), sym("k"))],
    ///     vec![Literal::id(Var(0), Var(1))],
    /// );
    /// let mut g = Graph::new();
    /// let a = g.add_node(sym("t"));
    /// let b = g.add_node(sym("t"));
    /// g.set_attr(a, sym("k"), 1);
    ///
    /// let mut v = IncrementalValidator::new(g, vec![key]);
    /// let view = v.read_view();
    /// assert!(view.is_satisfied());
    ///
    /// // A reader thread could hold `view.clone()` here. The writer
    /// // keeps applying; each batch publishes a new epoch.
    /// v.apply(&Delta::SetAttr { node: b, attr: sym("k"), value: Value::from(1) });
    /// assert_eq!(view.epoch(), 1);
    /// assert_eq!(view.violation_count(), 2);
    /// ```
    pub fn read_view(&self) -> ReadView<C> {
        self.views
            .activate_with(|| ReadStore::from_store(&self.store, self.views.epoch()));
        self.metrics.set_published_epoch(self.views.epoch());
        ReadView::register(
            Arc::clone(&self.sigma),
            Arc::clone(&self.views),
            Arc::clone(&self.metrics),
        )
    }

    /// The epoch of the most recently published read-view snapshot: the
    /// number of store-changing batches since [`read_view`] first
    /// activated the views (0 before activation, and forever 0 if no
    /// view is ever created — publishing is skipped entirely then).
    ///
    /// This is the writer-side twin of [`ReadView::epoch`]: a server
    /// that owns the validator mutably can stamp apply replies with the
    /// epoch its readers will observe, without holding a view of its
    /// own.
    ///
    /// [`read_view`]: IncrementalValidator::read_view
    pub fn published_epoch(&self) -> u64 {
        self.views.epoch()
    }

    /// Apply one delta and maintain the store.
    ///
    /// The returned [`ApplyStats`] classify the churn against the
    /// pre-update store: removed, added, and retained witnesses, plus the
    /// ids of any nodes the delta created.
    ///
    /// # Example
    ///
    /// ```
    /// use ged_core::{Ged, Literal};
    /// use ged_engine::{Delta, IncrementalValidator};
    /// use ged_graph::{sym, Graph, Value};
    /// use ged_pattern::{parse_pattern, Var};
    ///
    /// // key: two t-nodes with equal `k` must be the same node.
    /// let q = parse_pattern("t(x); t(y)").unwrap();
    /// let key = Ged::new(
    ///     "key",
    ///     q,
    ///     vec![Literal::vars(Var(0), sym("k"), Var(1), sym("k"))],
    ///     vec![Literal::id(Var(0), Var(1))],
    /// );
    ///
    /// let mut g = Graph::new();
    /// let a = g.add_node(sym("t"));
    /// let b = g.add_node(sym("t"));
    /// g.set_attr(a, sym("k"), 1);
    /// g.set_attr(b, sym("k"), 2);
    ///
    /// let mut v = IncrementalValidator::new(g, vec![key]);
    /// assert!(v.is_satisfied(), "distinct keys: no violation");
    ///
    /// // Re-keying `b` onto `a`'s key creates the two symmetric
    /// // witnesses — maintained incrementally, not by revalidating.
    /// let stats = v.apply(&Delta::SetAttr {
    ///     node: b,
    ///     attr: sym("k"),
    ///     value: Value::from(1),
    /// });
    /// assert_eq!(stats.violations_added, 2);
    /// assert_eq!(v.violation_count(), 2);
    ///
    /// // Undoing the write repairs both.
    /// let stats = v.apply(&Delta::DelAttr { node: b, attr: sym("k") });
    /// assert_eq!(stats.violations_removed, 2);
    /// assert!(v.is_satisfied());
    /// ```
    pub fn apply(&mut self, delta: &Delta) -> ApplyStats {
        let t = self.metrics.start();
        let effect = self.graph.apply_delta(delta);
        self.metrics.finish(Phase::DeltaApply, t);
        self.maintain(std::iter::once(effect))
    }

    /// Apply a batch of deltas left to right, then maintain the store once
    /// over the union of their touched sets — cheaper than per-delta
    /// maintenance when deltas cluster in the same region.
    pub fn apply_all(&mut self, deltas: &DeltaSet) -> ApplyStats {
        let t = self.metrics.start();
        let effects: Vec<DeltaEffect> = deltas
            .deltas()
            .iter()
            .map(|d| self.graph.apply_delta(d))
            .collect();
        self.metrics.finish(Phase::DeltaApply, t);
        self.maintain(effects)
    }

    /// Prune and re-derive the store after the given effects.
    fn maintain(&mut self, effects: impl IntoIterator<Item = DeltaEffect>) -> ApplyStats {
        let mut stats = ApplyStats::default();
        let mut touched: HashSet<NodeId> = HashSet::new();
        for eff in effects {
            if !eff.changed {
                continue;
            }
            stats.deltas_applied += 1;
            stats.created.extend(eff.created);
            touched.extend(eff.touched);
        }
        if stats.deltas_applied == 0 {
            return stats;
        }
        // If anything below unwinds, dump the recent batch trace so the
        // panic report carries the apply history that led up to it. The
        // guard borrows a local clone of the registry handle so `self`
        // stays free for the publish step.
        let metrics = Arc::clone(&self.metrics);
        let _trace_dump = metrics.dump_trace_on_panic();

        // Drop while `touched` still holds removed ids, so witnesses of
        // dead nodes (and of edges whose endpoints these are) go too. The
        // dropped entries are the pre-update snapshot of the affected area.
        let t = self.metrics.start();
        let dropped = self.store.drop_intersecting(&touched);
        self.metrics.finish(Phase::WitnessDrop, t);
        let pruned = self.store.total();

        // While read views are active, every store change is also logged
        // so the publish step can bring the snapshot buffers up to date
        // by O(changed) replay. Drops first, then the re-derived
        // witnesses: a retained witness nets out to an upsert.
        let views_active = self.views.is_active();
        let mut changes: Vec<StoreChange> = Vec::new();
        if views_active {
            changes.reserve(dropped.len());
            changes.extend(
                dropped
                    .iter()
                    .map(|(ci, m, _)| StoreChange::Remove(*ci, m.clone())),
            );
        }

        // Only live nodes seed re-enumeration (ids removed by this batch
        // have no matches to contribute).
        touched.retain(|&n| self.graph.is_alive(n));
        stats.touched_nodes = touched.len();

        if !touched.is_empty() {
            // For a handful of touched nodes the anchored re-enumeration is
            // microseconds of work per rule; spawning scoped threads would
            // cost more than it saves, so small deltas stay sequential.
            const PARALLEL_TOUCHED_THRESHOLD: usize = 8;
            let threads = if touched.len() < PARALLEL_TOUCHED_THRESHOLD {
                1
            } else {
                self.threads
            };
            // The anchored seed sets derive from the footprint as a
            // sorted, deduplicated vector: batch deltas touching the same
            // node repeatedly collapse to one anchor seed, and seed-chunk
            // boundaries are deterministic (`HashSet` iteration order is
            // not).
            let mut footprint: Vec<NodeId> = touched.iter().copied().collect();
            footprint.sort_unstable();
            let graph = &self.graph;
            let area = affected_area(
                graph,
                &self.sigma,
                &self.rule_attrs,
                &footprint,
                &touched,
                threads,
                &self.metrics,
            );
            let t = self.metrics.start();
            for (ci, m, kind) in area {
                if views_active {
                    changes.push(StoreChange::Upsert(ci, m.clone(), kind.clone()));
                }
                self.store.insert(ci, m, kind);
            }
            self.metrics.finish(Phase::StoreInsert, t);
        }
        // Classify churn against the snapshot: a dropped witness the
        // re-enumeration restored was retained, not removed + re-added.
        // Every re-enumerated match that was stored before the update was
        // necessarily dropped (its image meets `touched`), so the inserted
        // keys split exactly into retained (in the snapshot) and new.
        stats.violations_retained = dropped
            .iter()
            .filter(|(ci, m, _)| self.store.contains(*ci, m))
            .count();
        stats.violations_removed = dropped.len() - stats.violations_retained;
        stats.violations_added = self.store.total() - pruned - stats.violations_retained;
        self.metrics
            .record_batch(&stats, dropped.len(), &self.store);
        // The explicit publish step: fold the batch's changes into a new
        // snapshot and swap it in, so read views advance exactly at batch
        // boundaries — never mid-batch.
        if views_active {
            let t = self.metrics.start();
            self.publish(changes);
            self.metrics.finish(Phase::SnapshotPublish, t);
        }
        stats
    }

    /// Publish the post-batch snapshot for the read views (the
    /// generation-tagged double buffer of DESIGN.md §9).
    ///
    /// The common case is O(changed): the back buffer — the snapshot
    /// published one batch ago, reclaimed after its swap-out — replays
    /// the changelog it missed (`self.lag`) plus this batch's `changes`,
    /// gets the next epoch, and is swapped in as the new front. The old
    /// front is then reclaimed via `Arc::try_unwrap` as the next back
    /// buffer; only when a reader still pins it does the reclaim fail,
    /// making the *next* publish rebuild from the store (O(store)).
    fn publish(&mut self, changes: Vec<StoreChange>) {
        let epoch = self.views.bump_epoch();
        let mut next = match self.back.take() {
            Some(mut back) => {
                back.apply(&self.lag);
                back.apply(&changes);
                back
            }
            None => ReadStore::from_store(&self.store, epoch),
        };
        next.epoch = epoch;
        let old = self.views.publish(Arc::new(next));
        self.lag.clear();
        match Arc::try_unwrap(old) {
            Ok(prev) => {
                // `prev` is the state one batch behind the new front, so
                // `changes` is exactly what it is missing.
                self.back = Some(prev);
                self.lag = changes;
            }
            Err(_) => {
                // A reader snapshot still pins the old front: surrender
                // the buffer and rebuild at the next publish.
                self.back = None;
            }
        }
        self.metrics.set_published_epoch(epoch);
    }

    /// Consume the validator, returning the graph it owns.
    pub fn into_graph(self) -> Graph {
        self.graph
    }
}

impl std::fmt::Display for ApplyStats {
    /// One-line summary:
    /// `applied 3 delta(s): +2/−1 witness(es), 4 retained, 5 node(s) touched`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "applied {} delta(s): +{}/−{} witness(es), {} retained, {} node(s) touched",
            self.deltas_applied,
            self.violations_added,
            self.violations_removed,
            self.violations_retained,
            self.touched_nodes
        )?;
        if !self.created.is_empty() {
            write!(f, ", {} created", self.created.len())?;
        }
        Ok(())
    }
}

/// Seed one empty-pattern constraint inline — its single empty match has
/// no seeds to shard — tallying cost into the coordinator-side `shard`
/// when instrumentation is on.
fn seed_inline<C: Constraint>(
    g: &Graph,
    c: &C,
    ci: usize,
    shard: &mut WorkerShard,
) -> Vec<(usize, Match, ViolationKind)> {
    let vs: Vec<Violation> = if shard.enabled {
        let recorder = CellRecorder::new();
        let t0 = Instant::now();
        let vs = violations_recorded(g, c, None, &recorder);
        shard.add_unit(
            ci,
            recorder.attempts(),
            recorder.prefilter_rejects(),
            recorder.matches(),
            vs.len() as u64,
            t0.elapsed().as_nanos() as u64,
        );
        vs
    } else {
        violations_recorded(g, c, None, &NOOP)
    };
    vs.into_iter().map(|v| (ci, v.assignment, v.kind)).collect()
}

/// Enumerate the violating matches of constraint `ci` anchored at
/// variable `anchor` over one chunk of its seed set, each exactly once.
/// This is the unit of sharded affected-area work; see the module docs
/// for why nothing outside the footprint can change status — the argument
/// only needs `c.check` to read the ids and attributes of matched nodes,
/// which the [`Constraint`] contract guarantees for every family, so the
/// exclusion-aware anchored delta path is shared rather than duplicated
/// per family.
///
/// Exactly-once discipline: the match whose *first* touched variable (in
/// declaration order) is `v` is enumerated only when anchoring `v` —
/// variables declared before `v` have the touched nodes *excluded* from
/// their candidate domains, so every other anchoring prunes the match
/// before it is ever completed. Chunks of one anchor's seed set are
/// disjoint (slices of a deduplicated vector), so sharding a seed set
/// preserves the discipline: no match is enumerated twice, none is
/// enumerated and then discarded.
fn affected_unit<C: Constraint, R: MatchRecorder>(
    g: &Graph,
    (c, attrs): (&C, &shard::PremiseAttrs),
    unit: &shard::SeedUnit,
    touched: &HashSet<NodeId>,
    scratch: &mut MatchScratch,
    recorder: &R,
    out: &mut Vec<(usize, Match, ViolationKind)>,
) {
    let anchor = unit.anchor;
    let pattern = c.pattern();
    let mut matcher = Matcher::with_recorder(pattern, g, MatchOptions::homomorphism(), recorder);
    shard::require_premise_attrs(attrs, &mut matcher);
    matcher.for_each_anchored_excluding_in(
        scratch,
        anchor,
        unit.seed_slice(),
        &|u, n| u.idx() < anchor.idx() && touched.contains(&n),
        |m| {
            debug_assert_eq!(
                pattern.vars().find(|u| touched.contains(&m[u.idx()])),
                Some(anchor),
                "the anchor owns every match the exclusions let through"
            );
            if let Some(kind) = c.check(g, m) {
                out.push((unit.ci, m.to_vec(), kind));
            }
            ControlFlow::Continue(())
        },
    );
}

/// The affected area of one update across the whole rule set: every
/// violating match of every constraint whose image intersects the
/// footprint, each exactly once, sharded across `threads` workers at
/// **seed granularity**.
///
/// `footprint` is the live touched set as a sorted, deduplicated vector
/// (the debug assertion checks the seed lists inherit that — a duplicated
/// anchor seed would enumerate its matches twice and double-count work);
/// `touched` is the same set in hashed form for the O(1) exclusion
/// membership tests.
///
/// Work units are the `(constraint, anchor variable, seed-range)` triples
/// of [`shard`]: each anchor's label-compatible seed list is
/// split into up to `threads` chunks, and workers pull units off the
/// shared queue ([`shard::run_units_with`]), so a single wildcard rule with a
/// large affected area fans out across all cores instead of recomputing
/// single-threaded per rule (rule-level sharding — the PR 1 design — kept
/// whole-rule re-enumerations on one worker). The seeding full pass of
/// [`IncrementalValidator::with_threads`] and the pivot split of
/// [`violations_sharded`](crate::par::violations_sharded) ride the same
/// queue; this path differs from them only in anchoring *every* pattern
/// variable (not one pivot) and layering the exclusion discipline on top.
fn affected_area<C: Constraint>(
    g: &Graph,
    sigma: &[C],
    rule_attrs: &[shard::PremiseAttrs],
    footprint: &[NodeId],
    touched: &HashSet<NodeId>,
    threads: usize,
    metrics: &EngineMetrics,
) -> Vec<(usize, Match, ViolationKind)> {
    assert!(threads >= 1);
    let t = metrics.start();
    // Seed lists are memoized per distinct variable label: most rules
    // repeat one label across variables (and rules share labels), so the
    // O(|footprint|) filter runs once per label, not once per variable,
    // and chunking is by index range into the shared list — no copies.
    let mut seed_cache: Vec<(Symbol, Arc<Vec<NodeId>>)> = Vec::new();
    let mut units: Vec<SeedUnit> = Vec::new();
    for (ci, c) in sigma.iter().enumerate() {
        let pattern = c.pattern();
        if pattern.var_count() == 0 {
            // The empty match has an empty image: never affected by deltas.
            continue;
        }
        for v in pattern.vars() {
            let lv = pattern.label(v);
            let seeds = match seed_cache.iter().find(|(l, _)| *l == lv) {
                Some((_, s)) => Arc::clone(s),
                None => {
                    let s: Arc<Vec<NodeId>> = Arc::new(
                        footprint
                            .iter()
                            .copied()
                            .filter(|&n| lv.matches(g.label(n)))
                            .collect(),
                    );
                    debug_assert!(
                        s.windows(2).all(|w| w[0] < w[1]),
                        "anchor seeds are deduplicated (and sorted): {s:?}"
                    );
                    seed_cache.push((lv, Arc::clone(&s)));
                    s
                }
            };
            shard::push_units(&mut units, ci, v, seeds, threads);
        }
    }
    // The materialize/re-enumerate boundary shares one clock read.
    let t = metrics.lap(Phase::Materialize, t);
    let n_rules = sigma.len();
    let enabled = metrics.is_enabled();
    let (all, _per_worker, shards) = shard::run_units_with(
        threads,
        &units,
        || (WorkerShard::new(n_rules, enabled), MatchScratch::new()),
        |unit, out, (ws, scratch)| {
            if ws.enabled {
                let recorder = CellRecorder::new();
                let t0 = Instant::now();
                let before = out.len();
                affected_unit(
                    g,
                    (&sigma[unit.ci], &rule_attrs[unit.ci]),
                    unit,
                    touched,
                    scratch,
                    &recorder,
                    out,
                );
                ws.add_unit(
                    unit.ci,
                    recorder.attempts(),
                    recorder.prefilter_rejects(),
                    recorder.matches(),
                    (out.len() - before) as u64,
                    t0.elapsed().as_nanos() as u64,
                );
            } else {
                affected_unit(
                    g,
                    (&sigma[unit.ci], &rule_attrs[unit.ci]),
                    unit,
                    touched,
                    scratch,
                    &NOOP,
                    out,
                );
            }
        },
    );
    metrics.finish(Phase::Reenumerate, t);
    for (ws, _) in &shards {
        metrics.merge_pass(ws, Phase::Reenumerate);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_graph::{sym, Value};
    use ged_pattern::{parse_pattern, Var};

    /// key: two t-nodes with equal `k` must be identical.
    fn key_ged() -> Ged {
        let q = parse_pattern("t(x); t(y)").unwrap();
        Ged::new(
            "key",
            q,
            vec![Literal::vars(Var(0), sym("k"), Var(1), sym("k"))],
            vec![Literal::id(Var(0), Var(1))],
        )
    }

    fn two_dupes() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.set_attr(a, sym("k"), 1);
        g.set_attr(b, sym("k"), 1);
        g
    }

    /// Normalise a report for equality checks (`Violation` itself is not
    /// `PartialEq`; kinds compare via their debug rendering).
    fn canon_report(r: &ValidationReport) -> Vec<(String, Vec<NodeId>, String)> {
        r.violations
            .iter()
            .map(|v| {
                (
                    v.ged_name.clone(),
                    v.assignment.clone(),
                    format!("{:?}", v.kind),
                )
            })
            .collect()
    }

    fn assert_consistent<C: Constraint>(v: &IncrementalValidator<C>) {
        let full = ged_core::reason::validate(v.graph(), v.sigma(), None);
        let full_set: std::collections::BTreeSet<(String, Vec<NodeId>)> = full
            .violations
            .iter()
            .map(|x| (x.ged_name.clone(), x.assignment.clone()))
            .collect();
        let inc_set: std::collections::BTreeSet<(String, Vec<NodeId>)> = v
            .report()
            .violations
            .iter()
            .map(|x| (x.ged_name.clone(), x.assignment.clone()))
            .collect();
        assert_eq!(inc_set, full_set);
    }

    #[test]
    fn initial_store_matches_full_validation() {
        let v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        assert_eq!(v.violation_count(), 2, "two symmetric witnesses");
        assert_consistent(&v);
    }

    #[test]
    fn attr_change_creates_and_repairs_violations() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.set_attr(a, sym("k"), 1);
        g.set_attr(b, sym("k"), 2);
        let mut v = IncrementalValidator::with_threads(g, vec![key_ged()], 2);
        assert!(v.is_satisfied());

        let stats = v.apply(&Delta::SetAttr {
            node: b,
            attr: sym("k"),
            value: Value::from(1),
        });
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.violations_added, 2);
        assert!(!v.is_satisfied());
        assert_consistent(&v);

        let stats = v.apply(&Delta::DelAttr {
            node: b,
            attr: sym("k"),
        });
        assert_eq!(stats.violations_removed, 2);
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    #[test]
    fn node_removal_clears_its_witnesses() {
        let mut v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        assert_eq!(v.violation_count(), 2);
        let b = v.graph().nodes().nth(1).unwrap();
        let stats = v.apply(&Delta::RemoveNode { node: b });
        assert_eq!(stats.violations_removed, 2);
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    #[test]
    fn edge_bound_pattern_tracks_edge_deltas() {
        // φ: connected t-nodes must agree on attribute p.
        let q = parse_pattern("t(x) -[e]-> t(y)").unwrap();
        let phi = Ged::new(
            "agree",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("p"), Var(1), sym("p"))],
        );
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.set_attr(a, sym("p"), 1);
        g.set_attr(b, sym("p"), 2);
        let mut v = IncrementalValidator::with_threads(g, vec![phi], 1);
        assert!(v.is_satisfied(), "no edges, no matches");

        v.apply(&Delta::AddEdge {
            src: a,
            label: sym("e"),
            dst: b,
        });
        assert_eq!(v.violation_count(), 1);
        assert_consistent(&v);

        v.apply(&Delta::RemoveEdge {
            src: a,
            label: sym("e"),
            dst: b,
        });
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    #[test]
    fn batched_deltas_maintain_once() {
        let mut v = IncrementalValidator::with_threads(Graph::new(), vec![key_ged()], 1);
        let mut batch = DeltaSet::new();
        batch.push(Delta::AddNode { label: sym("t") });
        batch.push(Delta::AddNode { label: sym("t") });
        let stats = v.apply_all(&batch);
        assert_eq!(stats.deltas_applied, 2);
        assert_eq!(
            stats.created,
            v.graph().nodes().collect::<Vec<_>>(),
            "created ids are reported in application order"
        );
        assert!(v.is_satisfied(), "no attributes yet");
        let nodes: Vec<NodeId> = v.graph().nodes().collect();
        let mut batch = DeltaSet::new();
        for &n in &nodes {
            batch.push(Delta::SetAttr {
                node: n,
                attr: sym("k"),
                value: Value::from(9),
            });
        }
        let stats = v.apply_all(&batch);
        assert_eq!(stats.violations_added, 2);
        assert_consistent(&v);
    }

    /// Regression: an attribute write that leaves the violation set
    /// identical used to count the affected witnesses in *both*
    /// `violations_removed` and `violations_added` (the drop/re-derive
    /// cycle leaked into the stats). They are retained, full stop.
    #[test]
    fn unrelated_attr_write_counts_retained_not_churn() {
        let mut v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        assert_eq!(v.violation_count(), 2);
        let a = v.graph().nodes().next().unwrap();
        let stats = v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("note"),
            value: Value::from("irrelevant"),
        });
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.violations_removed, 0, "no witness died");
        assert_eq!(stats.violations_added, 0, "no witness appeared");
        assert_eq!(stats.violations_retained, 2, "both witnesses re-derived");
        assert_eq!(v.violation_count(), 2);
        assert_consistent(&v);
    }

    #[test]
    fn partial_churn_splits_removed_added_and_retained() {
        // Three t-nodes with k=1: 6 symmetric witnesses among {a,b,c}.
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..3).map(|_| g.add_node(sym("t"))).collect();
        for &n in &nodes {
            g.set_attr(n, sym("k"), 1);
        }
        let mut v = IncrementalValidator::with_threads(g, vec![key_ged()], 1);
        assert_eq!(v.violation_count(), 6);
        // Re-keying c: the 4 witnesses containing c die, the 2 among
        // {a, b} are untouched (not even dropped), nothing is added.
        let c = nodes[2];
        let stats = v.apply(&Delta::SetAttr {
            node: c,
            attr: sym("k"),
            value: Value::from(2),
        });
        assert_eq!(stats.violations_removed, 4);
        assert_eq!(stats.violations_added, 0);
        assert_eq!(stats.violations_retained, 0);
        assert_eq!(v.violation_count(), 2);
        assert_consistent(&v);
    }

    #[test]
    fn no_op_deltas_do_nothing() {
        let mut v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        let count = v.violation_count();
        let a = v.graph().nodes().next().unwrap();
        let stats = v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(1),
        });
        assert_eq!(stats, ApplyStats::default(), "same value: nothing to do");
        assert_eq!(v.violation_count(), count);
    }

    /// The generic delta path serves GDCs: a dense-order range constraint
    /// is maintained through attribute writes exactly like a GED.
    #[test]
    fn gdc_sigma_is_maintained_incrementally() {
        use ged_ext::{Gdc, GdcLiteral, Pred};
        let q = parse_pattern("product(x)").unwrap();
        let cap = Gdc::forbidding(
            "rating≤5",
            q,
            vec![GdcLiteral::constant(Var(0), sym("rating"), Pred::Gt, 5)],
        );
        let mut g = Graph::new();
        let p = g.add_node(sym("product"));
        g.set_attr(p, sym("rating"), 4);
        let mut v = IncrementalValidator::with_threads(g, vec![cap], 1);
        assert!(v.is_satisfied());

        let stats = v.apply(&Delta::SetAttr {
            node: p,
            attr: sym("rating"),
            value: Value::from(9),
        });
        assert_eq!(stats.violations_added, 1);
        assert!(!v.is_satisfied());
        assert_consistent(&v);
        let report = v.report();
        assert_eq!(report.violations[0].ged_name, "rating≤5");
        assert!(matches!(
            report.violations[0].kind,
            ged_core::constraint::ViolationKind::Predicates(_)
        ));

        let stats = v.apply(&Delta::SetAttr {
            node: p,
            attr: sym("rating"),
            value: Value::from(5),
        });
        assert_eq!(stats.violations_removed, 1);
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    /// The generic delta path serves GED∨: a domain constraint (violated
    /// iff *every* disjunct fails) is maintained through deltas, including
    /// node creation.
    #[test]
    fn disj_sigma_is_maintained_incrementally() {
        use ged_ext::DisjGed;
        let q = parse_pattern("τ(x)").unwrap();
        let domain = DisjGed::new(
            "A∈{0,1}",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 0),
                Literal::constant(Var(0), sym("A"), 1),
            ],
        );
        let mut v = IncrementalValidator::with_threads(Graph::new(), vec![domain], 1);
        assert!(v.is_satisfied());

        // A new τ-node has no A attribute: every disjunct fails.
        let stats = v.apply(&Delta::AddNode { label: sym("τ") });
        let n = stats.created[0];
        assert_eq!(stats.violations_added, 1);
        assert_eq!(
            v.report().violations[0].kind,
            ged_core::constraint::ViolationKind::Disjunction
        );
        assert_consistent(&v);

        // Satisfying one disjunct repairs it; an out-of-domain value
        // re-violates.
        v.apply(&Delta::SetAttr {
            node: n,
            attr: sym("A"),
            value: Value::from(1),
        });
        assert!(v.is_satisfied());
        assert_consistent(&v);
        v.apply(&Delta::SetAttr {
            node: n,
            attr: sym("A"),
            value: Value::from(7),
        });
        assert_eq!(v.violation_count(), 1);
        assert_consistent(&v);
    }

    /// One store shape serves all families: parallel full validation over
    /// GDCs equals the sequential generic validate.
    #[test]
    fn parallel_validation_is_generic_over_gdcs() {
        use ged_ext::{Gdc, GdcLiteral, Pred};
        let q = parse_pattern("t(x)").unwrap();
        let sigma: Vec<Gdc> = (0..4)
            .map(|i| {
                Gdc::new(
                    format!("A≥{i}"),
                    q.clone(),
                    vec![],
                    vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Ge, i)],
                )
            })
            .collect();
        let mut g = Graph::new();
        for val in 0..6 {
            let n = g.add_node(sym("t"));
            g.set_attr(n, sym("A"), val);
        }
        let seq = ged_core::reason::validate(&g, &sigma, None);
        for threads in [1, 3] {
            let par = crate::par::validate_parallel(&g, &sigma, threads, None);
            assert_eq!(par.total_violations(), seq.total_violations());
            assert_eq!(
                crate::par::validate_rules_parallel(&g, &sigma, threads, None),
                seq.per_ged
                    .iter()
                    .map(|r| r.violation_count)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// One `IncrementalValidator<AnyConstraint>` serves a heterogeneous Σ:
    /// a plain GED, a dense-order GDC, and a disjunctive GED∨ in one rule
    /// set, maintained through deltas that hit each family.
    #[test]
    fn mixed_any_constraint_sigma_is_maintained_incrementally() {
        use ged_core::constraint::AnyConstraint;
        use ged_ext::{DisjGed, Gdc, GdcLiteral, Pred};
        let q = parse_pattern("t(x)").unwrap();
        let sigma: Vec<AnyConstraint> = vec![
            key_ged().into(),
            Gdc::forbidding(
                "k≤9",
                q.clone(),
                vec![GdcLiteral::constant(Var(0), sym("k"), Pred::Gt, 9)],
            )
            .into(),
            DisjGed::new(
                "mode∈{a,b}",
                q,
                vec![],
                vec![
                    Literal::constant(Var(0), sym("mode"), "a"),
                    Literal::constant(Var(0), sym("mode"), "b"),
                ],
            )
            .into(),
        ];
        let mut v = IncrementalValidator::with_threads(two_dupes(), sigma, 2);
        // Seeding: the key dupes violate the GED (2 witnesses) and, having
        // no `mode`, the domain GED∨ (2 witnesses); k = 1 satisfies the GDC.
        assert_eq!(v.violation_count(), 4);
        assert_consistent(&v);

        let a = v.graph().nodes().next().unwrap();
        let stats = v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(50),
        });
        // Re-keying `a` repairs both key witnesses but trips the GDC cap.
        assert_eq!(stats.violations_removed, 2);
        assert_eq!(stats.violations_added, 1);
        assert_consistent(&v);

        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("mode"),
            value: Value::from("b"),
        });
        assert_consistent(&v);
        let names: Vec<String> = v
            .report()
            .violations
            .iter()
            .map(|x| x.ged_name.clone())
            .collect();
        assert!(names.contains(&"k≤9".to_string()));
        assert!(names.contains(&"mode∈{a,b}".to_string()));
        assert!(!names.contains(&"key".to_string()));
    }

    /// The seed-chunk sharded affected area equals the sequential one —
    /// same witness set for any worker count, on a wildcard rule whose
    /// seed list spans the whole footprint.
    #[test]
    fn sharded_affected_area_equals_sequential() {
        use ged_pattern::Pattern;
        let mut q = Pattern::new();
        let x = q.var("x", "_");
        let y = q.var("y", "_");
        let wild_key = Ged::new(
            "wild-key",
            q,
            vec![Literal::vars(x, sym("k"), y, sym("k"))],
            vec![Literal::id(x, y)],
        );
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..24).map(|_| g.add_node(sym("t"))).collect();
        for (i, &n) in nodes.iter().enumerate() {
            g.set_attr(n, sym("k"), (i % 5) as i64);
        }
        let sigma = vec![wild_key];
        let mut footprint: Vec<NodeId> = nodes.iter().copied().step_by(2).collect();
        footprint.sort_unstable();
        let touched: HashSet<NodeId> = footprint.iter().copied().collect();
        let canon = |mut v: Vec<(usize, Match, ViolationKind)>| {
            v.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            v
        };
        let metrics = EngineMetrics::for_sigma(&sigma);
        let rule_attrs: Vec<_> = sigma.iter().map(shard::premise_attrs).collect();
        let sequential = canon(affected_area(
            &g,
            &sigma,
            &rule_attrs,
            &footprint,
            &touched,
            1,
            &metrics,
        ));
        assert!(!sequential.is_empty(), "the workload has affected matches");
        for threads in [2, 4, 7] {
            let sharded = canon(affected_area(
                &g,
                &sigma,
                &rule_attrs,
                &footprint,
                &touched,
                threads,
                &metrics,
            ));
            assert_eq!(sharded, sequential, "{threads} workers");
        }
    }

    /// `set_threads` retunes the delta path after construction: a batch
    /// large enough to cross the parallel threshold is maintained
    /// correctly at the new worker count.
    #[test]
    fn set_threads_is_honored_by_the_delta_path() {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..20).map(|_| g.add_node(sym("t"))).collect();
        let mut v = IncrementalValidator::with_threads(g, vec![key_ged()], 1);
        assert_eq!(v.threads(), 1);
        v.set_threads(4);
        assert_eq!(v.threads(), 4);
        let mut batch = DeltaSet::new();
        for &n in &nodes {
            batch.push(Delta::SetAttr {
                node: n,
                attr: sym("k"),
                value: Value::from(3),
            });
        }
        let stats = v.apply_all(&batch);
        assert_eq!(stats.touched_nodes, nodes.len(), "crosses the threshold");
        assert_eq!(v.violation_count(), nodes.len() * (nodes.len() - 1));
        assert_consistent(&v);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn set_threads_rejects_zero() {
        let mut v = IncrementalValidator::with_threads(Graph::new(), vec![key_ged()], 1);
        v.set_threads(0);
    }

    #[test]
    fn empty_pattern_geds_are_stable() {
        use ged_pattern::Pattern;
        let trivial = Ged::new("t", Pattern::new(), vec![], vec![]);
        let mut v = IncrementalValidator::with_threads(Graph::new(), vec![trivial], 1);
        assert!(v.is_satisfied());
        v.apply(&Delta::AddNode { label: sym("t") });
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    /// A Σ whose cost is concentrated in one wildcard rule, over a graph
    /// where that rule has real work: the seeding skew scenario the
    /// seed-granularity construction pass exists for.
    fn hot_wildcard_sigma_and_graph() -> (Graph, Vec<ged_core::constraint::AnyConstraint>) {
        use ged_core::constraint::AnyConstraint;
        use ged_ext::{Gdc, GdcLiteral, Pred};
        use ged_pattern::Pattern;
        let mut q = Pattern::new();
        let x = q.var("x", "_");
        let y = q.var("y", "_");
        let wild_key = Ged::new(
            "wild-key",
            q,
            vec![Literal::vars(x, sym("k"), y, sym("k"))],
            vec![Literal::id(x, y)],
        );
        let qt = parse_pattern("t(x)").unwrap();
        let sigma: Vec<AnyConstraint> = vec![
            wild_key.into(),
            Gdc::forbidding(
                "k≤40",
                qt.clone(),
                vec![GdcLiteral::constant(Var(0), sym("k"), Pred::Gt, 40)],
            )
            .into(),
            Ged::new(
                "t-note",
                qt,
                vec![Literal::constant(Var(0), sym("flag"), 1)],
                vec![Literal::constant(Var(0), sym("note"), "set")],
            )
            .into(),
        ];
        let mut g = Graph::new();
        for i in 0..30i64 {
            let label = if i % 3 == 0 { sym("t") } else { sym("u") };
            let n = g.add_node(label);
            g.set_attr(n, sym("k"), i % 7);
            if i % 5 == 0 {
                g.set_attr(n, sym("flag"), 1);
            }
        }
        (g, sigma)
    }

    /// Lockstep: the seed-granularity seeding pass produces the same
    /// store as the sequential one at every worker count, on a mixed Σ
    /// dominated by a single wildcard rule — and both equal a
    /// from-scratch full validation.
    #[test]
    fn seeding_is_lockstep_with_sequential_at_1_2_8_workers() {
        let (g, sigma) = hot_wildcard_sigma_and_graph();
        let sequential = IncrementalValidator::with_threads(g.clone(), sigma.clone(), 1);
        assert!(
            sequential.violation_count() > 0,
            "the workload seeds a non-trivial store"
        );
        assert_consistent(&sequential);
        let witness_set = |v: &IncrementalValidator<_>| {
            v.store()
                .iter()
                .map(|(ci, m, _)| (ci, m.clone()))
                .collect::<std::collections::BTreeSet<_>>()
        };
        let expected = witness_set(&sequential);
        for threads in [2usize, 8] {
            let sharded = IncrementalValidator::with_threads(g.clone(), sigma.clone(), threads);
            assert_eq!(
                witness_set(&sharded),
                expected,
                "identical seeded stores at {threads} workers"
            );
            assert_consistent(&sharded);
        }
    }

    /// The seeding pass splits a single rule's anchor domain across
    /// workers: with one wildcard rule and `n` workers, construction
    /// produces multiple units (rule-granularity would produce work for
    /// only one worker).
    #[test]
    fn seeding_splits_a_single_rule_across_workers() {
        use ged_pattern::Pattern;
        let mut q = Pattern::new();
        let x = q.var("x", "_");
        let y = q.var("y", "_");
        let wild = Ged::new(
            "wild-key",
            q,
            vec![Literal::vars(x, sym("k"), y, sym("k"))],
            vec![Literal::id(x, y)],
        );
        let mut g = Graph::new();
        for i in 0..40i64 {
            let n = g.add_node(sym("t"));
            g.set_attr(n, sym("k"), i % 4);
        }
        let v = IncrementalValidator::with_threads(g, vec![wild], 4);
        let stats = v.seed_stats();
        assert_eq!(stats.units, 4, "one rule still yields `threads` units");
        assert_eq!(stats.per_worker.iter().sum::<usize>(), stats.units);
        assert!(
            stats.per_worker.len() > 1,
            "more than one worker ran: {stats:?}"
        );
        assert_eq!(stats.violations, v.violation_count());
        assert_consistent(&v);
    }

    /// `SeedStats` invariants: per-worker unit counts sum to the unit
    /// total at every worker count, and the stats are fixed at
    /// construction — `set_threads` retuning does not rewrite them.
    #[test]
    fn seed_stats_sum_and_survive_set_threads() {
        let (g, sigma) = hot_wildcard_sigma_and_graph();
        for threads in [1usize, 2, 8] {
            let mut v = IncrementalValidator::with_threads(g.clone(), sigma.clone(), threads);
            let stats = v.seed_stats().clone();
            assert_eq!(
                stats.per_worker.iter().sum::<usize>(),
                stats.units,
                "per-worker counts sum to the unit total at {threads} workers"
            );
            assert_eq!(stats.violations, v.violation_count());
            v.set_threads(5);
            assert_eq!(
                v.seed_stats(),
                &stats,
                "retuning the delta path leaves the seeding record untouched"
            );
        }
    }

    /// The metrics snapshot reflects the work the engine actually did:
    /// seeding fills the per-rule counters and the seeding phase, apply
    /// batches fill the delta-path phases, churn counters, store gauges,
    /// and the batch trace.
    #[test]
    fn metrics_snapshot_reflects_seeding_and_delta_batches() {
        let (g, sigma) = hot_wildcard_sigma_and_graph();
        let mut v = IncrementalValidator::with_threads(g, sigma, 2);
        assert!(v.metrics_enabled(), "instrumentation is on by default");
        let seeded = v.metrics();
        assert_eq!(seeded.batches, 0, "no batch applied yet");
        assert!(seeded.match_attempts() > 0, "seeding attempted candidates");
        assert!(seeded.matches_found() > 0);
        assert_eq!(
            seeded.phase(Phase::Seeding).unwrap().count,
            1,
            "construction times exactly one seeding pass"
        );
        assert!(seeded.rules.iter().any(|r| r.seed_ns > 0));
        assert_eq!(
            seeded.rules.iter().map(|r| r.violations_found).sum::<u64>(),
            v.violation_count() as u64,
            "seeding attribution sums to the seeded store"
        );
        assert_eq!(seeded.store_size, v.violation_count() as u64);
        assert_eq!(seeded.rules[0].name, v.sigma()[0].name());

        let n = v.graph().nodes().next().unwrap();
        let stats = v.apply(&Delta::SetAttr {
            node: n,
            attr: sym("k"),
            value: Value::from(100),
        });
        let m = v.metrics();
        assert_eq!(m.batches, 1);
        assert_eq!(m.deltas_applied, 1);
        assert_eq!(m.touched_nodes, stats.touched_nodes as u64);
        assert_eq!(m.witnesses_added, stats.violations_added as u64);
        assert_eq!(m.witnesses_removed, stats.violations_removed as u64);
        for phase in [Phase::DeltaApply, Phase::WitnessDrop, Phase::Materialize] {
            assert_eq!(m.phase(phase).unwrap().count, 1, "{}", phase.name());
        }
        assert_eq!(m.store_size, v.violation_count() as u64);
        assert!(m.store_slab_slots >= m.store_size);
        let trace = v.trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].0, 1, "batch ids are 1-based ring sequences");
        assert_eq!(trace[0].1, stats);
        // The snapshot renders both ways, and the JSON parses back.
        assert!(m.to_string().contains("1 batch(es)"));
        let json = ged_obs::Json::parse(&format!("{:#}", m.to_json())).unwrap();
        assert_eq!(json.get_u64("batches"), Some(1));
    }

    /// Every leaf of a JSON document as `path: Kind`, in document order.
    /// Array elements fold into `[]`, and a `path: Kind` seen before is
    /// not repeated, so equal-shaped array entries list once.
    fn key_paths(json: &ged_obs::Json) -> Vec<String> {
        use ged_obs::Json;
        fn walk(j: &Json, path: &str, out: &mut Vec<String>) {
            let kind = match j {
                Json::Obj(fields) => {
                    for (k, v) in fields {
                        let sep = if path.is_empty() { "" } else { "." };
                        walk(v, &format!("{path}{sep}{k}"), out);
                    }
                    return;
                }
                Json::Arr(items) => {
                    for v in items {
                        walk(v, &format!("{path}[]"), out);
                    }
                    return;
                }
                Json::Null => "Null",
                Json::Bool(_) => "Bool",
                Json::Int(_) => "Int",
                Json::Float(_) => "Float",
                Json::Str(_) => "Str",
            };
            let leaf = format!("{path}: {kind}");
            if !out.contains(&leaf) {
                out.push(leaf);
            }
        }
        let mut out = Vec::new();
        walk(json, "", &mut out);
        out
    }

    /// The `metrics` reply's schema, as `perfbench --trace 1`, `gedctl`
    /// and the `METRICS_10K*.json` artifacts read it: every key path in
    /// order, with its leaf kind.
    #[test]
    fn metrics_json_schema_is_pinned() {
        let (g, sigma) = hot_wildcard_sigma_and_graph();
        let mut v = IncrementalValidator::with_threads(g, sigma, 2);
        let n = v.graph().nodes().next().unwrap();
        v.apply(&Delta::SetAttr {
            node: n,
            attr: sym("k"),
            value: Value::from(100),
        });
        let json = v.metrics().to_json();
        let expected = vec![
            "enabled: Bool",
            "batches: Int",
            "deltas_applied: Int",
            "touched_nodes: Int",
            "witnesses.dropped: Int",
            "witnesses.removed: Int",
            "witnesses.added: Int",
            "witnesses.retained: Int",
            "store_size: Int",
            "store_slab_slots: Int",
            "read_views: Int",
            "published_epoch: Int",
            "match_attempts: Int",
            "matches_found: Int",
            "phases[].phase: Str",
            "phases[].count: Int",
            "phases[].sum_ns: Int",
            "phases[].max_ns: Int",
            "phases[].p50_ns: Int",
            "phases[].p95_ns: Int",
            "phases[].p99_ns: Int",
            "unit_latency.count: Int",
            "unit_latency.sum_ns: Int",
            "unit_latency.max_ns: Int",
            "unit_latency.p50_ns: Int",
            "unit_latency.p95_ns: Int",
            "unit_latency.p99_ns: Int",
            "rules[].name: Str",
            "rules[].match_attempts: Int",
            "rules[].prefilter_rejects: Int",
            "rules[].matches_found: Int",
            "rules[].violations_found: Int",
            "rules[].seed_ns: Int",
            "rules[].reenum_ns: Int",
            "trace[].batch: Int",
            "trace[].deltas_applied: Int",
            "trace[].removed: Int",
            "trace[].added: Int",
            "trace[].retained: Int",
            "trace[].touched_nodes: Int",
        ];
        assert_eq!(key_paths(&json), expected);
    }

    /// Disabling metrics freezes the registry: the delta path runs with
    /// the no-op recorder and records nothing, and re-enabling resumes
    /// (histograms only ever grow).
    #[test]
    fn disabled_metrics_record_nothing_and_resume_on_reenable() {
        let mut v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        v.set_metrics_enabled(false);
        let frozen = v.metrics();
        let a = v.graph().nodes().next().unwrap();
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(7),
        });
        let m = v.metrics();
        assert!(!m.enabled);
        assert_eq!(m.batches, frozen.batches, "no batch recorded while off");
        assert_eq!(m.match_attempts(), frozen.match_attempts());
        assert!(v.trace().is_empty());

        v.set_metrics_enabled(true);
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(1),
        });
        let m = v.metrics();
        assert_eq!(m.batches, frozen.batches + 1);
        assert!(m.match_attempts() > frozen.match_attempts());
    }

    /// A cloned validator gets an independent copy of the registry:
    /// tallies diverge after the clone, starting from the same values.
    #[test]
    fn cloned_validator_does_not_share_metrics() {
        let mut original = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        let clone = original.clone();
        assert_eq!(clone.metrics().batches, original.metrics().batches);
        let a = original.graph().nodes().next().unwrap();
        original.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(3),
        });
        assert_eq!(original.metrics().batches, 1);
        assert_eq!(clone.metrics().batches, 0, "the clone saw no batch");
    }

    #[test]
    fn apply_stats_display_is_a_one_line_summary() {
        let stats = ApplyStats {
            deltas_applied: 3,
            violations_removed: 1,
            violations_added: 2,
            violations_retained: 4,
            touched_nodes: 5,
            created: vec![NodeId(9)],
        };
        assert_eq!(
            stats.to_string(),
            "applied 3 delta(s): +2/−1 witness(es), 4 retained, 5 node(s) touched, 1 created"
        );
        assert!(!stats.to_string().contains('\n'));
    }

    /// The view handle is `Send + Sync` and every query surface of the
    /// validator reachable from a query path takes `&self` — the
    /// compile-time half of the read-path symmetry audit (DESIGN.md §9).
    #[test]
    fn read_views_are_send_sync_and_queries_take_shared_refs() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::view::ReadView<Ged>>();
        assert_send_sync::<crate::view::ViolationSnapshot<Ged>>();
        // Every logically-read-only accessor works through a shared
        // reference (this fails to compile if one regresses to &mut).
        let v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        let shared: &IncrementalValidator<Ged> = &v;
        let _ = shared.graph();
        let _ = shared.sigma();
        let _ = shared.store();
        let _ = shared.is_satisfied();
        let _ = shared.violation_count();
        let _ = shared.report();
        let _ = shared.metrics();
        let _ = shared.metrics_enabled();
        let _ = shared.trace();
        let _ = shared.seed_stats();
        let _ = shared.threads();
        let _ = shared.analysis();
        let _ = shared.analyze_current();
        let _ = shared.read_view();
    }

    /// A read view answers against the published batch boundary: the
    /// seeded state at epoch 0, then exactly one epoch per maintained
    /// batch, with the same report the writer-side surface produces.
    #[test]
    fn read_view_tracks_batch_boundaries() {
        let mut v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        let view = v.read_view();
        assert_eq!(view.epoch(), 0, "activation snapshot is epoch 0");
        assert_eq!(view.violation_count(), 2);
        assert_eq!(
            canon_report(&view.to_report()),
            canon_report(&v.report()),
            "view equals the writer surface at the boundary"
        );

        // Pin the pre-batch snapshot, then write.
        let pinned = view.snapshot();
        let b = v.graph().nodes().nth(1).unwrap();
        v.apply(&Delta::RemoveNode { node: b });
        assert_eq!(view.epoch(), 1, "one publish per maintained batch");
        assert!(view.is_satisfied());
        assert_eq!(
            pinned.epoch(),
            0,
            "a held snapshot stays pinned to its boundary"
        );
        assert_eq!(pinned.violation_count(), 2);

        // A no-op batch publishes nothing: the state did not change.
        let a = v.graph().nodes().next().unwrap();
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(1),
        });
        assert_eq!(view.epoch(), 1, "no-op deltas publish no new epoch");
        assert_consistent(&v);
    }

    /// The double buffer reclaims the old front when nothing pins it and
    /// falls back to an O(store) rebuild when a reader snapshot does —
    /// both paths must produce the exact writer-side state.
    #[test]
    fn publish_is_correct_with_and_without_pinned_snapshots() {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..6).map(|_| g.add_node(sym("t"))).collect();
        let mut v = IncrementalValidator::with_threads(g, vec![key_ged()], 1);
        let view = v.read_view();
        let mut pinned = Vec::new();
        for (step, &n) in nodes.iter().enumerate() {
            // Every other batch holds the current snapshot across the
            // apply, forcing the try_unwrap reclaim to fail.
            if step % 2 == 0 {
                pinned.push(view.snapshot());
            }
            v.apply(&Delta::SetAttr {
                node: n,
                attr: sym("k"),
                value: Value::from(7),
            });
            assert_eq!(view.epoch(), (step + 1) as u64);
            assert_eq!(
                view.violation_count(),
                v.violation_count(),
                "published snapshot equals the writer store at step {step}"
            );
            let report = view.to_report();
            assert_eq!(
                canon_report(&report),
                canon_report(&v.report()),
                "step {step}"
            );
        }
        // Pinned snapshots kept their boundary state: epoch k saw the
        // store after k batches — k keyed dupes, k(k−1) witnesses.
        for snap in &pinned {
            let k = snap.epoch() as usize;
            assert_eq!(snap.violation_count(), k * (k.max(1) - 1));
        }
        assert_consistent(&v);
    }

    /// Lazy activation: a validator nobody ever took a view of does no
    /// publish work (no `snapshot-publish` samples, epoch stays 0), and
    /// the first view activates it mid-stream with the current state.
    #[test]
    fn views_activate_lazily_mid_stream() {
        let mut v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        let a = v.graph().nodes().next().unwrap();
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("note"),
            value: Value::from(1),
        });
        let m = v.metrics();
        assert_eq!(m.phase(Phase::SnapshotPublish).unwrap().count, 0);
        assert_eq!(m.published_epoch, 0);
        assert_eq!(m.read_views, 0);

        let view = v.read_view();
        assert_eq!(view.epoch(), 0, "activation republishes from epoch 0");
        assert_eq!(view.violation_count(), 2, "current state, not seed state");
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(9),
        });
        let m = v.metrics();
        assert_eq!(m.phase(Phase::SnapshotPublish).unwrap().count, 1);
        assert_eq!(m.published_epoch, 1);
        assert_eq!(view.violation_count(), 0);
    }

    /// The `read_views` gauge mirrors live handles through clone and
    /// drop, and the view's `metrics()` reads the writer's registry.
    #[test]
    fn read_view_gauge_tracks_clones_and_drops() {
        let v = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        assert_eq!(v.metrics().read_views, 0);
        let view = v.read_view();
        assert_eq!(v.metrics().read_views, 1);
        let extra = view.clone();
        assert_eq!(v.metrics().read_views, 2);
        assert_eq!(
            extra.metrics().read_views,
            2,
            "views read the writer's registry"
        );
        drop(view);
        assert_eq!(v.metrics().read_views, 1);
        drop(extra);
        assert_eq!(v.metrics().read_views, 0);
        // The snapshot renders the new gauges both ways.
        let m = v.metrics();
        assert!(m.to_string().contains("read views: 0 live"));
        let json = ged_obs::Json::parse(&format!("{:#}", m.to_json())).unwrap();
        assert_eq!(json.get_u64("read_views"), Some(0));
        assert_eq!(json.get_u64("published_epoch"), Some(0));
    }

    /// A cloned validator starts with a fresh, inactive view set: views
    /// of the original keep reading the original, and the clone pays no
    /// publish cost until someone takes a view of *it*.
    #[test]
    fn cloned_validator_does_not_share_views() {
        let original = IncrementalValidator::with_threads(two_dupes(), vec![key_ged()], 1);
        let view = original.read_view();
        let mut clone = original.clone();
        assert_eq!(clone.metrics().read_views, 0, "fresh gauge on the clone");
        let a = clone.graph().nodes().next().unwrap();
        clone.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(9),
        });
        assert_eq!(view.epoch(), 0, "the clone's batches publish elsewhere");
        assert_eq!(view.violation_count(), 2);
        assert_eq!(
            clone.metrics().phase(Phase::SnapshotPublish).unwrap().count,
            0,
            "inactive views on the clone: no publish work"
        );
    }

    /// Empty-pattern constraints seed inline (their single empty match
    /// has no seeds to shard) alongside sharded rules, at any worker
    /// count — they contribute no units but are still checked.
    #[test]
    fn seeding_handles_empty_pattern_rules_at_any_worker_count() {
        use ged_pattern::Pattern;
        let trivial = Ged::new("trivial", Pattern::new(), vec![], vec![]);
        for threads in [1usize, 4] {
            let v = IncrementalValidator::with_threads(
                two_dupes(),
                vec![trivial.clone(), key_ged()],
                threads,
            );
            assert_eq!(v.violation_count(), 2, "the two key witnesses");
            // The empty-pattern rule contributes no work units; only the
            // key rule's anchor domain is sharded.
            assert_eq!(v.seed_stats().units, threads.min(2));
            assert_consistent(&v);
        }
    }
}
