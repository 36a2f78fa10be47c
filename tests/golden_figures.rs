//! Golden-figure regression tests.
//!
//! The committed Figure 10–13 scenario timelines, the ycsb02 drifting
//! hotspot and the open-loop overload02 burst run at a fixed seed on a
//! reduced scale, and the per-segment `RunStats` (committed / aborted /
//! throughput / repartitionings, p50 / p99 latency, and the open-loop
//! offered / rejected / final queue depth) must match the snapshot JSON
//! files under `tests/goldens/`.  The virtual-time simulator is fully deterministic, so
//! any mismatch means a change to the *simulated behaviour* — which every
//! pure performance refactor must avoid (same seed ⇒ same simulated
//! stats).
//!
//! To regenerate the snapshots after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p atrapos-bench --test golden_figures
//! ```
//!
//! then commit the updated files together with the change that explains
//! them.

use atrapos_bench::figures::{
    fig10_scenario, fig11_scenario, fig12_scenario, fig13_scenario, figure_executor,
    overload02_jobs, ycsb02_jobs,
};
use atrapos_bench::Scale;
use atrapos_engine::scenario::ScenarioOutcome;
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::Scenario;
use atrapos_workloads::TatpTxn;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The fixed scale the goldens are recorded at: small enough that the whole
/// suite runs in seconds even unoptimized, large enough that the adaptive
/// controller still observes several monitoring intervals per phase.
fn golden_scale() -> Scale {
    let mut s = Scale::quick();
    s.tatp_subscribers = 4_000;
    s.ycsb_records = 4_000;
    s.phase_secs = 0.01;
    s.interval_min_secs = 0.002;
    s.interval_max_secs = 0.008;
    s
}

/// One segment of a golden snapshot.  Floats are compared exactly: the
/// simulator is deterministic and JSON float printing round-trips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenSegment {
    label: String,
    start_secs: f64,
    committed: u64,
    aborted: u64,
    throughput_tps: f64,
    repartitions: u64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    offered: u64,
    rejected: u64,
    queue_depth_end: u64,
}

/// A golden snapshot of one scenario × variant run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenFile {
    scenario: String,
    variant: String,
    segments: Vec<GoldenSegment>,
}

fn golden_of(outcome: &ScenarioOutcome, variant: &str) -> GoldenFile {
    GoldenFile {
        scenario: outcome.scenario.clone(),
        variant: variant.to_string(),
        segments: outcome
            .segments
            .iter()
            .map(|s| GoldenSegment {
                label: s.label.clone(),
                start_secs: s.start_secs,
                committed: s.stats.committed,
                aborted: s.stats.aborted,
                throughput_tps: s.stats.throughput_tps,
                repartitions: s.stats.repartitions,
                p50_latency_us: s.stats.p50_latency_us,
                p99_latency_us: s.stats.p99_latency_us,
                offered: s.stats.offered,
                rejected: s.stats.rejected,
                queue_depth_end: s.stats.queue_depth_end,
            })
            .collect(),
    }
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn check_golden(name: &str, adaptive: bool, initial: TatpTxn, scenario: &Scenario) {
    let scale = golden_scale();
    let outcome = figure_executor(&scale, adaptive, initial)
        .run_scenario(scenario)
        .expect("figure scenario runs");
    let variant = if adaptive { "atrapos" } else { "static" };
    check_outcome_golden(name, variant, &outcome);
}

fn check_outcome_golden(name: &str, variant: &str, outcome: &ScenarioOutcome) {
    let got = golden_of(outcome, variant);
    assert!(
        got.segments.iter().any(|s| s.committed > 0),
        "{name}: golden run committed nothing — the scale is broken"
    );

    let path = goldens_dir().join(format!("{name}.json"));
    if std::env::var("UPDATE_GOLDENS")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        std::fs::write(&path, serde::json::to_string_pretty(&got)).expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             run `UPDATE_GOLDENS=1 cargo test -p atrapos-bench --test golden_figures` to create it",
            path.display()
        )
    });
    let want: GoldenFile = serde::json::from_str(&text)
        .unwrap_or_else(|e| panic!("unparseable golden {}: {e}", path.display()));
    assert_eq!(
        want, got,
        "\n{name}: simulated per-segment stats diverged from the committed golden snapshot.\n\
         If this behaviour change is intentional, regenerate with\n\
         UPDATE_GOLDENS=1 cargo test -p atrapos-bench --test golden_figures\n"
    );
}

#[test]
fn fig10_static_matches_golden() {
    let scale = golden_scale();
    check_golden(
        "fig10_static",
        false,
        TatpTxn::UpdateSubscriberData,
        &fig10_scenario(&scale),
    );
}

#[test]
fn fig10_adaptive_matches_golden() {
    let scale = golden_scale();
    check_golden(
        "fig10_atrapos",
        true,
        TatpTxn::UpdateSubscriberData,
        &fig10_scenario(&scale),
    );
}

#[test]
fn fig11_static_matches_golden() {
    let scale = golden_scale();
    check_golden(
        "fig11_static",
        false,
        TatpTxn::GetSubscriberData,
        &fig11_scenario(&scale),
    );
}

#[test]
fn fig11_adaptive_matches_golden() {
    let scale = golden_scale();
    check_golden(
        "fig11_atrapos",
        true,
        TatpTxn::GetSubscriberData,
        &fig11_scenario(&scale),
    );
}

#[test]
fn fig12_static_matches_golden() {
    let scale = golden_scale();
    check_golden(
        "fig12_static",
        false,
        TatpTxn::GetSubscriberData,
        &fig12_scenario(&scale),
    );
}

#[test]
fn fig12_adaptive_matches_golden() {
    let scale = golden_scale();
    check_golden(
        "fig12_atrapos",
        true,
        TatpTxn::GetSubscriberData,
        &fig12_scenario(&scale),
    );
}

#[test]
fn fig13_adaptive_matches_golden() {
    let scale = golden_scale();
    check_golden(
        "fig13_atrapos",
        true,
        TatpTxn::GetNewDestination,
        &fig13_scenario(&scale),
    );
}

/// Pin every job of a lab-job list; the golden file name is derived from
/// the job name (`<experiment>/<design label>`).
fn check_jobs_goldens(jobs: Vec<SweepJob>) {
    for job in jobs {
        let name = job.name.to_lowercase().replace(['/', '-', ' '], "_");
        let variant = job.name.clone();
        let outcome = job.run().expect("golden scenario runs");
        check_outcome_golden(&name, &variant, &outcome);
    }
}

#[test]
fn ycsb02_matches_goldens_on_all_four_designs() {
    // The drifting-hotspot timeline, pinned per design.
    check_jobs_goldens(ycsb02_jobs(&golden_scale()));
}

#[test]
fn overload02_matches_goldens_on_all_four_designs() {
    // The open-loop burst timeline, pinned per design: arrivals, admission
    // rejections and queue-inclusive latency are what the open loop adds.
    check_jobs_goldens(overload02_jobs(&golden_scale()));
}
