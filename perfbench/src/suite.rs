//! The benchmark's workloads, each a fixed list of simulation jobs.
//!
//! A job is built from scratch on every repeat (workload construction is
//! part of set-up), so a workload is a list of job constructors.  The seed
//! drives the executor's transaction stream and, in open loop, the arrival
//! stream; the datasets are fixed by each definition.

use atrapos_bench::figures::figure_job;
use atrapos_bench::harness::machine;
use atrapos_bench::Scale;
use atrapos_core::KeyDistribution;
use atrapos_engine::scenario::{Scenario, ScenarioEvent};
use atrapos_engine::sweep::SweepJob;
use atrapos_engine::{AtraposConfig, DesignSpec, ExecutorConfig};
use atrapos_workloads::{TatpTxn, Tpcc, TpccConfig, Ycsb, YcsbConfig};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["tatp-adaptive", "tpcc-designs", "ycsb-open"];

/// Full size is what the benchmark measures; tiny is the self-tests'
/// smoke size, small enough for a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Builds one simulation job.
pub type JobFn = Box<dyn Fn() -> SweepJob>;

/// The job constructors of workload `name`, or `None` for an unknown
/// name.
pub fn plan(name: &str, seed: u64, size: Size) -> Option<Vec<JobFn>> {
    match name {
        "tatp-adaptive" => Some(tatp_adaptive(seed, size)),
        "tpcc-designs" => Some(tpcc_designs(seed, size)),
        "ycsb-open" => Some(ycsb_open(seed, size)),
        _ => None,
    }
}

/// The adaptive figure variant (TATP, 20 000 subscribers at full size, on
/// the 4×4 machine, scale-matched controller) through four phases of the
/// figures' length: uniform, a hotspot (50% of requests on 20% of the
/// keys), socket 3 failing, and the standard mix.  Shorter phases let the
/// post-failure pause swallow the mix phase before the controller settles.
fn tatp_adaptive(seed: u64, size: Size) -> Vec<JobFn> {
    let scale = match size {
        Size::Full => Scale::quick(),
        Size::Tiny => Scale {
            tatp_subscribers: 2_000,
            phase_secs: 0.01,
            interval_min_secs: 0.004,
            interval_max_secs: 0.01,
            ..Scale::quick()
        },
    };
    let p = scale.phase_secs;
    let scenario = Scenario::new("tatp-adaptive", 4.0 * p)
        .starting_as("uniform")
        .at(
            p,
            "hotspot",
            ScenarioEvent::SetSkew {
                distribution: KeyDistribution::Hotspot {
                    data_fraction: 0.2,
                    access_fraction: 0.5,
                },
            },
        )
        .at(2.0 * p, "failed", ScenarioEvent::FailSocket { socket: 3 })
        .at(3.0 * p, "mix", ScenarioEvent::SetMix);
    vec![Box::new(move || {
        let mut job = figure_job(
            "tatp-adaptive",
            &scale,
            true,
            TatpTxn::GetSubscriberData,
            &scenario,
        );
        job.config.seed = seed;
        job
    })]
}

/// Virtual seconds each TPC-C design runs.
const TPCC_SECS: f64 = 0.06;

/// TPC-C, 40 warehouses at full size, on the 4×10 machine: Centralized,
/// coarse shared-nothing, PLP and default ATraPos back to back for equal
/// virtual lengths.  The monitoring interval equals the run, so the
/// controller is never called.
fn tpcc_designs(seed: u64, size: Size) -> Vec<JobFn> {
    let (warehouses, secs) = match size {
        Size::Full => (40, TPCC_SECS),
        Size::Tiny => (4, 0.002),
    };
    let designs = [
        DesignSpec::Centralized,
        DesignSpec::coarse_shared_nothing(),
        DesignSpec::Plp,
        DesignSpec::atrapos(),
    ];
    designs
        .into_iter()
        .map(|design| -> JobFn {
            Box::new(move || SweepJob {
                name: format!("tpcc-designs/{}", design.label()),
                machine: machine(4, 10),
                design: design.clone(),
                workload: Box::new(Tpcc::new(TpccConfig::scaled(warehouses))),
                scenario: Scenario::new("tpcc-designs", secs),
                config: whole_run_config(seed, secs),
            })
        })
        .collect()
}

/// Poisson arrival rate of `ycsb-open`, about 0.8× the workload's
/// closed-loop capacity on the 8×10 machine (798 KTPS).
const YCSB_RATE_TPS: f64 = 640_000.0;
/// Admission-queue bound of `ycsb-open`.
const YCSB_ADMISSION_BOUND: u64 = 128;
/// Virtual seconds `ycsb-open` runs.
const YCSB_SECS: f64 = 0.5;

/// YCSB-A, Zipfian θ = 0.99 over 1 M records at full size, on the 8×10
/// machine with static ATraPos, served open loop: Poisson arrivals at a
/// fixed rate into a bounded admission queue.
fn ycsb_open(seed: u64, size: Size) -> Vec<JobFn> {
    let (records, secs) = match size {
        Size::Full => (1_000_000, YCSB_SECS),
        Size::Tiny => (10_000, 0.002),
    };
    let scenario = Scenario::new("ycsb-open", secs)
        .at_unlabelled(
            0.0,
            ScenarioEvent::SetAdmissionBound {
                bound: YCSB_ADMISSION_BOUND,
            },
        )
        .at_unlabelled(
            0.0,
            ScenarioEvent::SetArrivalRate {
                rate_tps: YCSB_RATE_TPS,
            },
        );
    vec![Box::new(move || SweepJob {
        name: "ycsb-open".to_string(),
        machine: machine(8, 10),
        design: DesignSpec::atrapos_with(AtraposConfig::static_atrapos()),
        workload: Box::new(Ycsb::new(YcsbConfig::workload_a(records))),
        scenario: scenario.clone(),
        config: whole_run_config(seed, secs),
    })]
}

/// Executor parameters whose monitoring interval and time-series bucket
/// span the whole run.
fn whole_run_config(seed: u64, secs: f64) -> ExecutorConfig {
    ExecutorConfig {
        seed,
        default_interval_secs: secs,
        time_series_bucket_secs: secs,
    }
}
