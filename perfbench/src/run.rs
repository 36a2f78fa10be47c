//! One repeat of a workload: set up, simulate, check, summarise.

use crate::metrics::{median, quantile, DESIGNS};
use crate::pace::{Kernel, Pacer, SharedPace};
use crate::suite::JobFn;
use crate::trace::{
    metric_suffix, span, TimedDesign, TimedWorkload, Trace, Tracer, DESIGN_BUILD, DRAW, EXECUTE,
    EXECUTOR_NEW, ON_INTERVAL, POPULATE, REPEAT, SCENARIO, TEARDOWN, WORKLOAD_NEW,
};
use atrapos_core::LatencyHistogram;
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::{
    RunStats, Scenario, ScenarioOutcome, SystemDesign, VirtualExecutor, Workload,
};
use atrapos_numa::{Breakdown, Component, Machine};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Simulated totals over every job of a repeat.  Deterministic for a
/// seed: a host-only change must leave all of it unchanged.
#[derive(Debug, Default)]
pub struct SimTotals {
    pub committed: u64,
    pub aborted: u64,
    pub rejected: u64,
    pub virtual_secs: f64,
    /// Committed latencies in cycles, merged over segments and jobs.
    pub latency: LatencyHistogram,
    pub ghz: f64,
    pub breakdown: Breakdown,
    pub waits: u64,
    pub instructions: u64,
    pub occupied_cycles: u64,
    pub qpi_bytes: u64,
    pub local_bytes: u64,
    pub distributed: u64,
    pub design_aborted: u64,
    pub queue_depth_max: u64,
    pub repartitions: u64,
}

impl SimTotals {
    /// Executed transactions (committed or aborted).
    pub fn txns(&self) -> u64 {
        self.committed + self.aborted
    }

    fn absorb(&mut self, outcome: &ScenarioOutcome, machine: &Machine) {
        for seg in &outcome.segments {
            let s = &seg.stats;
            self.committed += s.committed;
            self.aborted += s.aborted;
            self.rejected += s.rejected;
            self.virtual_secs += s.virtual_secs;
            self.latency.merge(&s.latency_histogram);
            self.breakdown.merge(&s.breakdown);
            self.queue_depth_max = self.queue_depth_max.max(s.queue_depth_max);
            self.repartitions += s.repartitions;
        }
        self.ghz = machine.topology.frequency_ghz();
        self.waits += machine
            .all_core_counters()
            .iter()
            .map(|c| c.waits)
            .sum::<u64>();
        self.instructions += machine.total_instructions();
        self.occupied_cycles += machine.total_occupied_cycles();
        self.qpi_bytes += machine.interconnect.total_cross_socket_bytes();
        self.local_bytes += machine.interconnect.local_memory_bytes;
        self.distributed += outcome.design_stats.distributed_txns.unwrap_or(0);
        self.design_aborted += outcome.design_stats.aborted;
    }

    fn latency_us(&self, q: f64) -> f64 {
        quantile(&self.latency, q) / (self.ghz * 1e3)
    }

    /// The simulated end-to-end metrics.
    pub fn end_to_end(&self, out: &mut BTreeMap<String, f64>) {
        put(
            out,
            "sim_ktps",
            self.committed as f64 / self.virtual_secs / 1e3,
        );
        put(out, "sim_p50_latency_us", self.latency_us(0.50));
        put(out, "sim_p99_latency_us", self.latency_us(0.99));
    }

    /// The simulated per-layer metrics.
    fn per_layer(&self, out: &mut BTreeMap<String, f64>) {
        let txns = self.txns() as f64;
        put(out, "engine.executor.txns", txns);
        for c in Component::ALL {
            let name = format!("numa.breakdown.{}_cycles_per_txn", metric_suffix(c.label()));
            put(out, &name, self.breakdown.get(c) as f64 / txns);
        }
        put(out, "numa.waits_per_txn", self.waits as f64 / txns);
        put(
            out,
            "numa.qpi_imc_ratio",
            self.qpi_bytes as f64 / (self.qpi_bytes + self.local_bytes).max(1) as f64,
        );
        put(
            out,
            "numa.ipc",
            self.instructions as f64 / self.occupied_cycles.max(1) as f64,
        );
        put(
            out,
            "engine.designs.distributed_pct",
            pct(self.distributed as f64, txns),
        );
        put(out, "engine.designs.aborted", self.design_aborted as f64);
        put(
            out,
            "engine.executor.queue_depth_max",
            self.queue_depth_max as f64,
        );
        put(out, "engine.executor.rejected", self.rejected as f64);
        put(
            out,
            "core.controller.repartitions",
            self.repartitions as f64,
        );
        let attempted = self.txns() + self.rejected;
        put(
            out,
            "sim_failed_pct",
            pct((self.aborted + self.rejected) as f64, attempted as f64),
        );
    }
}

fn put(out: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    out.insert(name.to_string(), value);
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The accounting identities every segment must satisfy.
pub fn check_segment(job: &str, label: &str, s: &RunStats) -> Vec<String> {
    let mut problems = Vec::new();
    let mut fail = |what: String| problems.push(format!("{job} [{label}]: {what}"));
    let by_socket: u64 = s.committed_by_socket.iter().sum();
    if by_socket != s.committed {
        fail(format!(
            "committed_by_socket sums to {by_socket}, committed is {}",
            s.committed
        ));
    }
    if s.latency_histogram.count() != s.committed {
        fail(format!(
            "latency histogram holds {}, committed is {}",
            s.latency_histogram.count(),
            s.committed
        ));
    }
    if s.open_loop {
        if s.offered != s.admitted + s.rejected {
            fail(format!(
                "offered {} != admitted {} + rejected {}",
                s.offered, s.admitted, s.rejected
            ));
        }
        if s.admitted + s.queue_depth_start != s.committed + s.aborted + s.queue_depth_end {
            fail(format!(
                "admitted {} + queued at start {} != committed {} + aborted {} + queued at end {}",
                s.admitted, s.queue_depth_start, s.committed, s.aborted, s.queue_depth_end
            ));
        }
    }
    problems
}

/// One repeat of a workload.
pub struct Repeat {
    /// Seconds from building the workloads to ready executors: reference
    /// seconds (see [`crate::pace`]) when untraced, host seconds when
    /// traced.
    pub setup_s: f64,
    /// Host seconds inside `run_scenario`, kernel passes left out.
    pub sim_s: f64,
    /// Reference seconds inside `run_scenario` (untraced repeats only).
    pub sim_ref_s: f64,
    pub sim: SimTotals,
    /// FNV-1a of the serialized outcomes and machine counters.
    pub digest: u64,
    pub trace: Option<Trace>,
    pub problems: Vec<String>,
}

impl Repeat {
    /// Simulated transactions per host second inside `run_scenario`.
    pub fn host_rate(&self) -> f64 {
        self.sim.txns() as f64 / self.sim_s
    }

    /// Simulated transactions per reference second inside `run_scenario`.
    pub fn ref_rate(&self) -> f64 {
        self.sim.txns() as f64 / self.sim_ref_s
    }
}

/// FNV-1a, 64 bit: a stable digest needing no dependency.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Run every job of `plan` once, traced or not.  Untraced repeats time
/// set-up and simulation in reference seconds, with `kernel`.
pub fn run_repeat(plan: &[JobFn], traced: bool, kernel: &Arc<Kernel>) -> Repeat {
    let tracer: Option<Tracer> = traced.then(|| Arc::new(Mutex::new(Trace::new())));
    let t = tracer.as_ref();
    let mut rep = Repeat {
        setup_s: 0.0,
        sim_s: 0.0,
        sim_ref_s: 0.0,
        sim: SimTotals::default(),
        digest: FNV_OFFSET,
        trace: None,
        problems: Vec::new(),
    };
    span(t, REPEAT, || {
        for make in plan {
            let pace = SharedPace::default();
            let Ready { mut ex, scenario } = if traced {
                let t0 = Instant::now();
                let ready = set_up(make, t, None);
                rep.setup_s += t0.elapsed().as_secs_f64();
                ready
            } else {
                let (secs, ready) = kernel.time(|| set_up(make, t, Some((kernel, &pace))));
                rep.setup_s += secs;
                ready
            };
            let outcome = if traced {
                let t1 = Instant::now();
                let outcome = span(t, SCENARIO, || ex.run_scenario(&scenario));
                rep.sim_s += t1.elapsed().as_secs_f64();
                outcome
            } else {
                pace.lock().expect("pace log lock poisoned").start();
                let outcome = ex.run_scenario(&scenario);
                let paced = pace.lock().expect("pace log lock poisoned").finish(kernel);
                rep.sim_s += paced.host_secs;
                rep.sim_ref_s += paced.ref_secs;
                outcome
            };
            let job = format!("{}/{}", scenario.name, ex.design().name());
            match outcome {
                Ok(outcome) => {
                    for seg in &outcome.segments {
                        rep.problems
                            .extend(check_segment(&job, &seg.label, &seg.stats));
                    }
                    let machine = ex.machine();
                    rep.sim.absorb(&outcome, machine);
                    let counters = format!(
                        "{:?}",
                        (
                            machine
                                .all_core_counters()
                                .iter()
                                .map(|c| c.waits)
                                .sum::<u64>(),
                            machine.total_instructions(),
                            machine.total_occupied_cycles(),
                            machine.interconnect.total_cross_socket_bytes(),
                            machine.interconnect.local_memory_bytes,
                        )
                    );
                    rep.digest = fnv1a(rep.digest, serde::json::to_string(&outcome).as_bytes());
                    rep.digest = fnv1a(rep.digest, counters.as_bytes());
                }
                Err(e) => rep.problems.push(format!("{job}: scenario failed: {e}")),
            }
            span(t, TEARDOWN, || drop(ex));
        }
    });
    if let Some(tracer) = tracer {
        let trace = Arc::try_unwrap(tracer)
            .expect("decorators were dropped with their executors")
            .into_inner()
            .expect("trace lock poisoned: a traced call panicked");
        let (draws, _) = trace.agg_totals(DRAW);
        if draws != rep.sim.txns() {
            rep.problems.push(format!(
                "traced {draws} draws, but {} transactions executed",
                rep.sim.txns()
            ));
        }
        rep.trace = Some(trace);
    }
    rep
}

/// A job built into an executor that is ready to run its scenario.
struct Ready {
    ex: VirtualExecutor,
    scenario: Scenario,
}

/// Build one job, wrapping the workload and design in timing decorators
/// when tracing, and the workload in a [`Pacer`] logging to `pace` when
/// pacing.
fn set_up(make: &JobFn, t: Option<&Tracer>, pace: Option<(&Arc<Kernel>, &SharedPace)>) -> Ready {
    let SweepJob {
        machine,
        design,
        workload,
        scenario,
        config,
        ..
    } = span(t, WORKLOAD_NEW, make);
    let workload: Box<dyn Workload> = match t {
        Some(t) => Box::new(TimedWorkload::new(workload, t.clone())),
        None => match pace {
            Some((kernel, log)) => Box::new(Pacer::new(workload, kernel.clone(), log.clone())),
            None => workload,
        },
    };
    let built = span(t, DESIGN_BUILD, || {
        design.build(&machine, workload.as_ref())
    });
    let built: Box<dyn SystemDesign> = match t {
        Some(t) => Box::new(TimedDesign::new(built, t.clone())),
        None => built,
    };
    let ex = span(t, EXECUTOR_NEW, || {
        VirtualExecutor::new(machine, built, workload, config)
    });
    Ready { ex, scenario }
}

/// Reference seconds to set every job of `plan` up once, without running
/// it.  Jobs are set up one at a time, as in a repeat, so that peak memory
/// is the same as a repeat's.
pub fn setup_only(plan: &[JobFn], kernel: &Kernel) -> f64 {
    plan.iter()
        .map(|make| kernel.time(|| set_up(make, None, None)).0)
        .sum()
}

/// The per-layer metrics of one traced repeat.
pub fn layer_metrics(rep: &Repeat) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    rep.sim.per_layer(&mut out);
    let t = rep
        .trace
        .as_ref()
        .expect("per-layer metrics need a traced repeat");
    let txns = rep.sim.txns() as f64;
    let scenario = t.span_ns(SCENARIO) as f64;
    let (draws, draw_ns) = t.agg_totals(DRAW);
    put(
        &mut out,
        "workloads.draw_ns",
        draw_ns as f64 / draws.max(1) as f64,
    );
    put(
        &mut out,
        "workloads.draw_share_pct",
        pct(draw_ns as f64, scenario),
    );
    let self_ns = t.self_ns_of(SCENARIO) as f64;
    put(&mut out, "engine.executor.self_ns_per_txn", self_ns / txns);
    put(
        &mut out,
        "engine.executor.self_share_pct",
        pct(self_ns, scenario),
    );
    for d in DESIGNS {
        let (n, total) = t.agg_totals(&format!("{EXECUTE}.{d}"));
        let mean = if n == 0 { 0.0 } else { total as f64 / n as f64 };
        put(&mut out, &format!("engine.designs.execute_ns.{d}"), mean);
    }
    let (_, execute_ns) = t.agg_totals(EXECUTE);
    put(
        &mut out,
        "engine.designs.execute_share_pct",
        pct(execute_ns as f64, scenario),
    );
    let calls = t.span_count(ON_INTERVAL);
    let interval_ns = t.span_ns(ON_INTERVAL) as f64;
    put(&mut out, "core.controller.calls", calls as f64);
    put(
        &mut out,
        "core.controller.on_interval_ms",
        if calls == 0 {
            0.0
        } else {
            interval_ns / calls as f64 / 1e6
        },
    );
    put(
        &mut out,
        "core.controller.share_pct",
        pct(interval_ns, scenario),
    );
    put(&mut out, "core.controller.pause_ms", t.pause_secs * 1e3);
    put(
        &mut out,
        "workloads.new_s",
        t.span_ns(WORKLOAD_NEW) as f64 / 1e9,
    );
    put(
        &mut out,
        "engine.designs.build_s",
        t.span_ns(DESIGN_BUILD) as f64 / 1e9,
    );
    put(
        &mut out,
        "workloads.populate_s",
        t.span_ns(POPULATE) as f64 / 1e9,
    );
    // Host time of the repeat that no named layer accounts for.
    let root = t
        .spans()
        .iter()
        .position(|s| s.name == REPEAT)
        .expect("every traced repeat opens a root span");
    put(
        &mut out,
        "trace.unexplained_pct",
        pct(t.self_ns(root) as f64, t.spans()[root].duration_ns() as f64),
    );
    out
}

/// Median of each per-layer metric over the traced repeats.
pub fn median_layer_metrics(traced: &[Repeat]) -> BTreeMap<String, f64> {
    let per_repeat: Vec<BTreeMap<String, f64>> = traced.iter().map(layer_metrics).collect();
    let mut out = BTreeMap::new();
    if let Some(first) = per_repeat.first() {
        for name in first.keys() {
            let values: Vec<f64> = per_repeat
                .iter()
                .filter_map(|m| m.get(name))
                .copied()
                .collect();
            out.insert(name.clone(), median(&values));
        }
    }
    out
}
