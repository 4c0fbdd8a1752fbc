//! The closed loop every workload runs, and the metric records it produces.
//!
//! One client in one process on one OS thread: each op starts only after
//! the previous one finished and was judged. Ops run in a fixed round-robin
//! cycle, and the loop runs whole cycles so every op is sampled equally
//! often. The first cycle is a warm-up: it fills caches, runs with the
//! flight recorder on (which counts the wire bytes), and records each op's
//! deterministic outputs, which every later repetition must reproduce bit
//! for bit.

use crate::oracle::Verdict;
use crate::ring::Ring;
use crate::stats;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// What one executed op reports to the loop.
#[derive(Debug, Clone)]
pub struct OpRun {
    /// Wall seconds of `SimBuilder::run` for this op (the oracle's own work
    /// is excluded).
    pub wall: f64,
    pub verdict: Verdict,
    /// Bit-exact identity of the op's deterministic outputs (virtual time,
    /// output checksums, contributor sets).
    pub fingerprint: String,
    /// Modeled virtual makespan in seconds.
    pub virtual_secs: f64,
    /// Uncompressed bytes the op moved. Ring ops know these and the wire
    /// bytes only when run traced, so the loop takes them from the warm-up.
    pub logical_bytes: u64,
    pub wire_bytes: u64,
}

/// Everything the loop measured.
pub struct LoopResult {
    pub labels: Vec<String>,
    /// The warm-up execution of each distinct op.
    pub reference: Vec<OpRun>,
    /// `(op index, wall seconds)` of every timed op, in order.
    pub timed: Vec<(usize, f64)>,
    pub cycles: usize,
    pub attempted: u64,
    /// One line per failed op, naming it.
    pub failures: Vec<String>,
    /// One line per op whose deterministic outputs drifted.
    pub drift: Vec<String>,
    pub max_err_over_bound: f64,
    pub warmup_s: f64,
    /// Wall seconds of the timed window: every timed op with its checking.
    pub timed_s: f64,
    /// Process CPU seconds over the timed window.
    pub timed_cpu_s: f64,
    /// Peak resident set after set-up, the warm-up and the first timed
    /// cycle: a fixed amount of work. The peak keeps rising with every
    /// further cycle on some workloads, and how many cycles fit in the
    /// window depends on the host's speed.
    pub peak_rss_mib: f64,
}

/// Run one warm-up cycle, then whole timed cycles until the next cycle would
/// end further from `seconds` than stopping now.
pub fn closed_loop(ring: &Ring, seconds: f64) -> LoopResult {
    let labels = ring.labels();
    let mut res = LoopResult {
        labels: labels.clone(),
        reference: Vec::with_capacity(labels.len()),
        timed: Vec::new(),
        cycles: 0,
        attempted: 0,
        failures: Vec::new(),
        drift: Vec::new(),
        max_err_over_bound: 0.0,
        warmup_s: 0.0,
        timed_s: 0.0,
        timed_cpu_s: 0.0,
        peak_rss_mib: f64::NAN,
    };
    let start = Instant::now();
    for i in 0..labels.len() {
        let run = ring.run(i, true);
        res.account(i, &run, "warm-up");
        res.reference.push(run);
    }
    res.warmup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let cpu_start = crate::host::cpu_seconds();
    loop {
        let cycle_start = Instant::now();
        for (i, label) in labels.iter().enumerate() {
            let run = ring.run(i, false);
            res.account(i, &run, &format!("cycle {}", res.cycles));
            if run.fingerprint != res.reference[i].fingerprint {
                res.drift.push(format!(
                    "{label} (cycle {}): {} != warm-up {}",
                    res.cycles, run.fingerprint, res.reference[i].fingerprint
                ));
            }
            res.timed.push((i, run.wall));
        }
        res.cycles += 1;
        if res.cycles == 1 {
            res.peak_rss_mib = crate::host::peak_rss_mib();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cycle = cycle_start.elapsed().as_secs_f64();
        if elapsed + cycle / 2.0 >= seconds {
            res.timed_s = elapsed;
            res.timed_cpu_s = crate::host::cpu_seconds() - cpu_start;
            return res;
        }
    }
}

impl LoopResult {
    fn account(&mut self, i: usize, run: &OpRun, when: &str) {
        self.attempted += 1;
        match &run.verdict.failure {
            Some(msg) => self.failures.push(format!("{} ({when}): {msg}", self.labels[i])),
            None => {
                self.max_err_over_bound =
                    self.max_err_over_bound.max(run.verdict.max_err_over_bound)
            }
        }
    }

    pub fn walls(&self) -> Vec<f64> {
        self.timed.iter().map(|t| t.1).collect()
    }

    /// The timed walls of op `i`, in order.
    pub fn walls_of(&self, i: usize) -> Vec<f64> {
        self.timed.iter().filter(|t| t.0 == i).map(|t| t.1).collect()
    }

    /// Timed ops per wall second of the timed window, checking included.
    pub fn ops_per_s(&self) -> f64 {
        self.timed.len() as f64 / self.timed_s
    }

    /// Timed ops over the program's summed wall time, the oracle excluded.
    pub fn ops_per_busy_s(&self) -> f64 {
        self.timed.len() as f64 / self.walls().iter().sum::<f64>()
    }

    /// Σ logical bytes / Σ wire bytes over one cycle.
    pub fn compression_ratio(&self) -> f64 {
        let logical: u64 = self.reference.iter().map(|r| r.logical_bytes).sum();
        let wire: u64 = self.reference.iter().map(|r| r.wire_bytes).sum();
        logical as f64 / wire.max(1) as f64
    }

    /// Mean modeled makespan over the distinct ops.
    pub fn virtual_ms_per_op(&self) -> f64 {
        let v: f64 = self.reference.iter().map(|r| r.virtual_secs).sum();
        v / self.reference.len() as f64 * 1e3
    }

    /// Each distinct op's median and 90th-percentile walls in ms and its
    /// sample count, in cycle order.
    pub fn per_op_ms(&self) -> Vec<(String, f64, f64, usize)> {
        (0..self.labels.len())
            .map(|i| {
                let w = self.walls_of(i);
                let (p50, p90) = (stats::median(&w), stats::quantile(&w, 0.9));
                (self.labels[i].clone(), p50 * 1e3, p90 * 1e3, w.len())
            })
            .collect()
    }

    /// The geometric mean over the distinct ops of each op's 90th-percentile
    /// wall, in ms: the tail latency of a typical op, every op weighed alike
    /// however long it runs.
    ///
    /// A shared host's speed can change in phases of seconds to minutes.
    /// On a 2-vCPU VM every op ran either in a slow phase, at a steady
    /// 1.6-1.9x its best wall, or in a fast phase whose walls scattered
    /// over the range below that, and a run spent anything from none to all
    /// of its time in either. An upper percentile reads the slow phase,
    /// which nearly every run has some of and which repeats closely; the
    /// median, the mean and the minimum read how much of the run fell in
    /// each. The 90th rather than the 95th: single ops stalled 2-4x now and
    /// then, and with 60-240 walls per op the 95th sat among them in some
    /// runs.
    pub fn op_wall_p90_ms(&self) -> f64 {
        let n = self.labels.len();
        let log_sum: f64 = (0..n).map(|i| stats::quantile(&self.walls_of(i), 0.9).ln()).sum();
        (log_sum / n as f64).exp() * 1e3
    }
}
