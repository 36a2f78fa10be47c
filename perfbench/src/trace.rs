//! Host-time tracing from outside the simulator.
//!
//! The sim crates may not read clocks, so every span here is recorded by
//! the benchmark around calls into the public API: timing decorators wrap
//! the `Workload` and `SystemDesign` traits, and the run loop brackets
//! workload construction, `DesignSpec::build`, executor construction and
//! `run_scenario`.
//!
//! Coarse spans (a handful per run, plus one per controller call) are kept
//! one by one.  Per-transaction spans — millions of them — are folded into
//! an [`Agg`] (count and sum) under their parent span, so the
//! trace stays small however long the run.

use atrapos_engine::{
    DesignStats, IntervalOutcome, ReconfigureError, SystemDesign, TableSpec, TransactionSpec,
    TxnOutcome, Workload, WorkloadChange,
};
use atrapos_numa::{CoreId, Cycles, Machine};
use atrapos_storage::{Database, Key, TableId};
use rand::rngs::SmallRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names shared by the run loop, the decorators and the metrics.
pub const REPEAT: &str = "repeat";
pub const WORKLOAD_NEW: &str = "workloads.new";
pub const POPULATE: &str = "workloads.populate";
pub const DESIGN_BUILD: &str = "engine.designs.build";
pub const EXECUTOR_NEW: &str = "engine.executor.new";
pub const SCENARIO: &str = "engine.executor.scenario";
pub const TEARDOWN: &str = "teardown";
pub const DRAW: &str = "workloads.draw";
/// Prefix of the per-design execute aggregates (`<prefix>.<design>`).
pub const EXECUTE: &str = "engine.designs.execute";
pub const ON_INTERVAL: &str = "core.controller.on_interval";
pub const TOPOLOGY_CHANGE: &str = "engine.designs.on_topology_change";

/// One coarse span: a named interval of host time under a parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns
            .map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// Many short spans of one name under one parent, kept as count and sum
/// instead of one record each.
#[derive(Debug, Clone)]
pub struct Agg {
    pub name: String,
    pub parent: Option<usize>,
    pub count: u64,
    pub total_ns: u64,
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: new spans and aggregates attach to the
    /// top.
    open: Vec<usize>,
    aggs: Vec<Agg>,
    /// Virtual pause the controller imposed, summed over its calls, in
    /// virtual seconds.
    pub pause_secs: f64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggs: Vec::new(),
            pause_secs: 0.0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.enter_at(name, now)
    }

    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        self.exit_at(id, now);
    }

    /// Open a span starting at `start_ns` under the innermost open span.
    pub fn enter_at(&mut self, name: &str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: None,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit_at(&mut self, id: usize, end_ns: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = Some(end_ns);
    }

    /// Fold one short span of `ns` into the aggregate `name` under the
    /// innermost open span.
    pub fn record(&mut self, name: &str, ns: u64) {
        let parent = self.open.last().copied();
        // Newest first: the live aggregates of the current parent are at
        // the end.
        let slot = match self
            .aggs
            .iter()
            .rposition(|a| a.parent == parent && a.name == name)
        {
            Some(i) => i,
            None => {
                self.aggs.push(Agg {
                    name: name.to_string(),
                    parent,
                    count: 0,
                    total_ns: 0,
                });
                self.aggs.len() - 1
            }
        };
        let agg = &mut self.aggs[slot];
        agg.count += 1;
        agg.total_ns += ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host time of span `id` not covered by its child spans and
    /// aggregates.  Children of one thread never overlap, so covered time
    /// is the sum of their durations.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum::<u64>()
            + self
                .aggs
                .iter()
                .filter(|a| a.parent == Some(id))
                .map(|a| a.total_ns)
                .sum::<u64>();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Total duration of every span named `name`.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed self time of every span named `name`.
    pub fn self_ns_of(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// (count, total ns) of the aggregates whose name is `name` or starts
    /// with `name.`.
    pub fn agg_totals(&self, name: &str) -> (u64, u64) {
        self.aggs
            .iter()
            .filter(|a| {
                a.name == name
                    || a.name
                        .strip_prefix(name)
                        .is_some_and(|rest| rest.starts_with('.'))
            })
            .fold((0, 0), |(c, t), a| (c + a.count, t + a.total_ns))
    }
}

/// A trace shared between the run loop and the decorators it installs.
pub type Tracer = Arc<Mutex<Trace>>;

fn lock(tracer: &Tracer) -> std::sync::MutexGuard<'_, Trace> {
    tracer
        .lock()
        .expect("trace lock poisoned: a traced call panicked")
}

/// Run `f` inside span `name` when tracing, or plainly when not.
pub fn span<R>(tracer: Option<&Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let id = lock(t).enter(name);
            let out = f();
            lock(t).exit(id);
            out
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times every transaction draw of the wrapped workload.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    tracer: Tracer,
}

impl TimedWorkload {
    pub fn new(inner: Box<dyn Workload>, tracer: Tracer) -> Self {
        Self { inner, tracer }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<TableSpec> {
        self.inner.tables()
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        span(Some(&self.tracer), POPULATE, || {
            self.inner.populate(db, filter)
        });
    }

    fn next_transaction(&mut self, rng: &mut SmallRng, client: CoreId) -> TransactionSpec {
        let t0 = Instant::now();
        let spec = self.inner.next_transaction(rng, client);
        lock(&self.tracer).record(DRAW, elapsed_ns(t0));
        spec
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        let t0 = Instant::now();
        self.inner.next_transaction_into(rng, client, spec);
        lock(&self.tracer).record(DRAW, elapsed_ns(t0));
    }

    fn table_domains(&self) -> Vec<(TableId, atrapos_core::KeyDomain)> {
        self.inner.table_domains()
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        self.inner.reconfigure(change)
    }
}

/// Times every `execute`, `on_interval` and `on_topology_change` of the
/// wrapped design, and sums the virtual pauses the controller imposes.
pub struct TimedDesign {
    inner: Box<dyn SystemDesign>,
    tracer: Tracer,
    /// `engine.designs.execute.<design>`, fixed at construction so the
    /// per-transaction path does not format names.
    execute_name: String,
}

impl TimedDesign {
    pub fn new(inner: Box<dyn SystemDesign>, tracer: Tracer) -> Self {
        let execute_name = format!("{EXECUTE}.{}", metric_suffix(inner.name()));
        Self {
            inner,
            tracer,
            execute_name,
        }
    }
}

/// A design name as a metric-name segment: lower case, runs of anything
/// but letters and digits collapsed to `_` ("shared-nothing (per socket)"
/// becomes "shared_nothing_per_socket").
pub fn metric_suffix(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.is_empty() && !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_end_matches('_').to_string()
}

impl SystemDesign for TimedDesign {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(
        &mut self,
        machine: &mut Machine,
        spec: &TransactionSpec,
        client: CoreId,
        start: Cycles,
    ) -> TxnOutcome {
        let t0 = Instant::now();
        let out = self.inner.execute(machine, spec, client, start);
        lock(&self.tracer).record(&self.execute_name, elapsed_ns(t0));
        out
    }

    fn on_interval(
        &mut self,
        machine: &mut Machine,
        now: Cycles,
        interval_throughput: f64,
    ) -> IntervalOutcome {
        let inner = &mut self.inner;
        let out = span(Some(&self.tracer), ON_INTERVAL, || {
            inner.on_interval(machine, now, interval_throughput)
        });
        lock(&self.tracer).pause_secs += machine.secs(out.pause_cycles);
        out
    }

    fn on_topology_change(&mut self, machine: &Machine) {
        let inner = &mut self.inner;
        span(Some(&self.tracer), TOPOLOGY_CHANGE, || {
            inner.on_topology_change(machine)
        });
    }

    fn stats(&self) -> DesignStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic tree with known times:
    ///
    /// ```text
    /// repeat        0..100
    ///   build       0..30     (populate 5..25 inside)
    ///   scenario   30..90     draws 10 ns × 2, executes 25 ns, interval 40..45
    ///   (10 ns of repeat uncovered)
    /// ```
    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new();
        let repeat = t.enter_at(REPEAT, 0);
        let build = t.enter_at(DESIGN_BUILD, 0);
        let populate = t.enter_at(POPULATE, 5);
        t.exit_at(populate, 25);
        t.exit_at(build, 30);
        let scenario = t.enter_at(SCENARIO, 30);
        t.record(DRAW, 4);
        t.record(DRAW, 6);
        t.record("engine.designs.execute.plp", 25);
        let interval = t.enter_at(ON_INTERVAL, 40);
        t.exit_at(interval, 45);
        t.exit_at(scenario, 90);
        t.exit_at(repeat, 100);

        assert_eq!(t.self_ns(populate), 20);
        assert_eq!(t.self_ns(build), 30 - 20);
        assert_eq!(t.self_ns(scenario), 60 - 10 - 25 - 5);
        assert_eq!(t.self_ns(repeat), 100 - 30 - 60);
        assert_eq!(t.self_ns_of(SCENARIO), 20);
        assert_eq!(t.agg_totals(DRAW), (2, 10));
        assert_eq!(t.agg_totals(EXECUTE), (1, 25));
        assert_eq!(t.span_count(ON_INTERVAL), 1);
        // Aggregates attach to the span open when they were recorded.
        assert!(t.aggs.iter().all(|a| a.parent == Some(scenario)));
    }

    #[test]
    fn children_longer_than_their_parent_clamp_to_zero() {
        let mut t = Trace::new();
        let parent = t.enter_at(SCENARIO, 0);
        t.record(DRAW, 50);
        t.exit_at(parent, 10);
        assert_eq!(t.self_ns(parent), 0);
    }

    #[test]
    fn agg_prefix_does_not_match_longer_names() {
        let mut t = Trace::new();
        t.record("workloads.drawing", 7);
        t.record(DRAW, 3);
        assert_eq!(t.agg_totals(DRAW), (1, 3));
    }

    #[test]
    fn design_names_become_metric_segments() {
        assert_eq!(
            metric_suffix("shared-nothing (per socket)"),
            "shared_nothing_per_socket"
        );
        assert_eq!(metric_suffix("atrapos"), "atrapos");
        assert_eq!(metric_suffix("PLP"), "plp");
    }
}
