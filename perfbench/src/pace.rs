//! Host time in reference seconds.
//!
//! On a small share of a busy host the simulator's speed moves by 20–70%
//! within seconds and between runs, as other tenants load the core it runs
//! on.  The thread is not descheduled when this happens (its CPU time
//! equals its wall time); it just runs slower.  A fixed reference kernel,
//! run between stretches of the simulation, slows down with it, so every
//! stretch of host time is converted into reference seconds at the pace
//! the kernel measured next to it:
//!
//! ```text
//! reference seconds = host seconds × REF_KERNEL_SECS / kernel seconds now
//! ```
//!
//! One reference second is the host time of a second of work on a core
//! that runs the kernel in [`REF_KERNEL_SECS`].  The kernel is many
//! independent hash chains over a table that fits the L1 cache: it competes
//! for the execution units and caches a busy neighbour on the same core
//! takes, which is what slows the simulator.  A latency-bound ALU chain or
//! a DRAM pointer chase did not follow the simulator's slow-downs.

use atrapos_engine::{ReconfigureError, TableSpec, TransactionSpec, Workload, WorkloadChange};
use atrapos_numa::CoreId;
use atrapos_storage::{Database, Key, TableId};
use rand::rngs::SmallRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Host seconds one kernel pass takes on the reference core.  The value
/// only sets the scale: it is close to the pass's fastest time on the
/// 2-CPU Intel Xeon development VM (225–245 µs; median 280 µs).
pub const REF_KERNEL_SECS: f64 = 250e-6;

/// Independent chains the kernel advances in step.
const CHAINS: usize = 8;
/// Steps of every chain in one pass.
const STEPS: usize = 40_000;
/// Entries of the kernel's table: 32 KiB, inside the L1 data cache.
const TABLE: usize = 4096;

/// The reference kernel.
pub struct Kernel {
    table: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    pub fn new() -> Self {
        let table = (0..TABLE as u64)
            .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d))
            .collect();
        Self { table }
    }

    /// Host seconds of one pass.
    pub fn pass_secs(&self) -> f64 {
        let t0 = Instant::now();
        let mut h: [u64; CHAINS] = std::array::from_fn(|i| i as u64 + 1);
        for _ in 0..STEPS {
            for x in &mut h {
                let entry = self.table[(*x >> 40) as usize & (TABLE - 1)];
                *x = (*x ^ entry)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(7);
            }
        }
        std::hint::black_box(h);
        t0.elapsed().as_secs_f64()
    }

    /// Reference seconds of `host_secs` that ran at the pace of a pass
    /// that took `pass_secs`.
    pub fn to_ref(host_secs: f64, pass_secs: f64) -> f64 {
        host_secs * REF_KERNEL_SECS / pass_secs
    }

    /// Reference seconds `f` takes, judged by a pass before and after it,
    /// and its result.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (f64, T) {
        let before = self.pass_secs();
        let t0 = Instant::now();
        let out = f();
        let host = t0.elapsed().as_secs_f64();
        let after = self.pass_secs();
        (Self::to_ref(host, (before + after) / 2.0), out)
    }
}

/// Host time of a simulation, in host and in reference seconds.  Kernel
/// passes are in neither.
#[derive(Debug, Default, Clone, Copy)]
pub struct Paced {
    pub host_secs: f64,
    pub ref_secs: f64,
    pub passes: u64,
}

/// Shared between a [`Pacer`] and the run loop.
#[derive(Default)]
pub struct PaceLog {
    totals: Paced,
    /// Start of the stretch not yet converted.
    since: Option<Instant>,
}

pub type SharedPace = Arc<Mutex<PaceLog>>;

/// Host time between kernel passes.
const STRETCH: Duration = Duration::from_millis(25);
/// Draws between reads of the clock.
const CHECK_DRAWS: u32 = 64;

impl PaceLog {
    /// Start timing a simulation.
    pub fn start(&mut self) {
        self.since = Some(Instant::now());
    }

    /// Convert the stretch since the last pass (or [`Self::start`]) at the
    /// pace of a pass run now, if it is at least `min` long.
    fn close(&mut self, kernel: &Kernel, min: Duration) {
        let Some(since) = self.since else { return };
        let host = since.elapsed();
        if host < min {
            return;
        }
        let pass = kernel.pass_secs();
        self.totals.host_secs += host.as_secs_f64();
        self.totals.ref_secs += Kernel::to_ref(host.as_secs_f64(), pass);
        self.totals.passes += 1;
        self.since = Some(Instant::now());
    }

    /// Stop timing: convert the last stretch and return the totals since
    /// the log was made.
    pub fn finish(&mut self, kernel: &Kernel) -> Paced {
        self.close(kernel, Duration::ZERO);
        self.since = None;
        self.totals
    }
}

/// Runs a kernel pass every [`STRETCH`] of the wrapped workload's
/// simulation and converts the stretch into reference seconds.  Between
/// passes it counts draws and reads the clock every [`CHECK_DRAWS`].
pub struct Pacer {
    inner: Box<dyn Workload>,
    kernel: Arc<Kernel>,
    log: SharedPace,
    draws: u32,
}

impl Pacer {
    pub fn new(inner: Box<dyn Workload>, kernel: Arc<Kernel>, log: SharedPace) -> Self {
        Self {
            inner,
            kernel,
            log,
            draws: 0,
        }
    }

    fn tick(&mut self) {
        self.draws += 1;
        if self.draws == CHECK_DRAWS {
            self.draws = 0;
            self.log
                .lock()
                .expect("pace log lock poisoned")
                .close(&self.kernel, STRETCH);
        }
    }
}

impl Workload for Pacer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<TableSpec> {
        self.inner.tables()
    }

    fn populate(&self, db: &mut Database, filter: &dyn Fn(TableId, &Key) -> bool) {
        self.inner.populate(db, filter);
    }

    fn next_transaction(&mut self, rng: &mut SmallRng, client: CoreId) -> TransactionSpec {
        let spec = self.inner.next_transaction(rng, client);
        self.tick();
        spec
    }

    fn next_transaction_into(
        &mut self,
        rng: &mut SmallRng,
        client: CoreId,
        spec: &mut TransactionSpec,
    ) {
        self.inner.next_transaction_into(rng, client, spec);
        self.tick();
    }

    fn table_domains(&self) -> Vec<(TableId, atrapos_core::KeyDomain)> {
        self.inner.table_domains()
    }

    fn reconfigure(&mut self, change: &WorkloadChange) -> Result<(), ReconfigureError> {
        self.inner.reconfigure(change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_scale_with_the_kernel_pace() {
        // A stretch that ran while the kernel took twice its reference
        // time did half as much work as its host time says.
        let slow = Kernel::to_ref(1.0, 2.0 * REF_KERNEL_SECS);
        assert!((slow - 0.5).abs() < 1e-12, "{slow}");
        assert!((Kernel::to_ref(3.0, REF_KERNEL_SECS) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_log_converts_every_stretch_once() {
        let kernel = Kernel::new();
        let mut log = PaceLog::default();
        log.start();
        std::thread::sleep(Duration::from_millis(2));
        log.close(&kernel, Duration::from_secs(3600));
        assert_eq!(log.totals.passes, 0, "a short stretch waits");
        log.close(&kernel, Duration::ZERO);
        let totals = log.finish(&kernel);
        assert_eq!(totals.passes, 2);
        assert!(totals.host_secs >= 0.002 && totals.ref_secs > 0.0);
        assert_eq!(log.finish(&kernel).passes, 2, "finished logs stay put");
    }
}
