//! The ring workloads: `ring_deep` and `ring_wide`.
//!
//! Every op is one `netsim::SimBuilder::run` of a `hzccl::collectives` verb
//! over per-rank fields generated during set-up. The events engine runs all
//! ranks as fibers on one OS thread, and every codec call is single-threaded
//! (`Mode::SingleThread`). Untraced runs charge compute with the paper's
//! calibrated throughput model, so virtual time is deterministic; the
//! traced run re-runs each op with the flight recorder, the critical-path
//! profiler and measured compute to split wall time by layer.

use crate::bench::{Metric, OpRun};
use crate::codec::{resolve_eb, rotated, Probe, SNAPSHOT};
use crate::oracle::{self, Verdict};
use crate::spans::Tracer;
use crate::stats;
use datasets::App;
use hzccl::collectives::{self, CollectiveOpts, RecoveryPolicy};
use hzccl::{error_bounds, Mode, Resilience, Variant};
use netsim::{
    ComputeTiming, CriticalPath, Event, FaultPlan, Json, LinkTier, NetConfig, Registry, RunReport,
    SimBuilder, Topology, TraceConfig,
};
use std::time::Instant;
use tuner::{Algo, Engine, Op, Plan, ScenarioSpec, ThreadMode};

/// Which ring workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingKind {
    /// 8 ranks x 256 KiB: codec-bound ring collectives, plus the resilient
    /// and recoverable ones under seeded drops, corruption and crashes.
    Deep,
    /// 256 ranks x 16 KiB: ~130k messages per flat op, simulator- and
    /// per-call-bound.
    Wide,
}

/// The collective verb an op calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Allreduce,
    ReduceScatter,
    /// `allreduce_recoverable` under `RecoveryPolicy::Shrink`.
    Recoverable,
}

/// One distinct op of a ring workload's cycle.
#[derive(Debug, Clone)]
pub struct RingOp {
    pub label: String,
    /// Index into the workload's applications.
    pub app: usize,
    pub verb: Verb,
    pub variant: Variant,
    pub segments: usize,
    /// Two-tier fabric the cluster and the schedule both see.
    pub topology: Option<Topology>,
    /// Seeded drops, corruption or crashes.
    pub faults: Option<FaultPlan>,
    /// Route the op through the resilient (checksummed, retransmitting)
    /// transport.
    pub resilient: bool,
    /// Ranks the fault plan crashes; the survivors' sum is the oracle.
    pub victims: Vec<usize>,
}

/// The exact sum an op's result is judged against.
pub struct Reference {
    pub sum: Vec<f64>,
    /// Largest per-element sum of absolute values (the f32 rounding base).
    pub abs_sum_max: f64,
}

impl Reference {
    fn over(fields: &[Vec<f32>], ranks: impl Iterator<Item = usize>) -> Reference {
        let n = fields[0].len();
        let mut sum = vec![0f64; n];
        let mut abs = vec![0f64; n];
        for r in ranks {
            for ((s, a), &v) in sum.iter_mut().zip(&mut abs).zip(&fields[r]) {
                *s += f64::from(v);
                *a += f64::from(v).abs();
            }
        }
        Reference { sum, abs_sum_max: abs.iter().fold(0.0, |m: f64, &v| m.max(v)) }
    }
}

/// One application's per-rank inputs.
pub struct AppInputs {
    pub eb: f64,
    pub fields: Vec<Vec<f32>>,
    pub reference: Reference,
}

impl AppInputs {
    /// `ranks` fields from the application's snapshot rotated by a seeded
    /// offset, each a slightly rescaled copy (the repository's bench
    /// convention: same compressibility, distinct values).
    fn generate(app: App, ranks: usize, elems: usize, seed: u64) -> (AppInputs, f64) {
        let t = Instant::now();
        let base = app.generate(elems, SNAPSHOT);
        let generate_s = t.elapsed().as_secs_f64();
        let base = rotated(&base, seed);
        let eb = resolve_eb(&base);
        let fields: Vec<Vec<f32>> = (0..ranks)
            .map(|r| {
                let k = 1.0 + 0.001 * r as f32;
                base.iter().map(|&v| v * k).collect()
            })
            .collect();
        let reference = Reference::over(&fields, 0..ranks);
        (AppInputs { eb, fields, reference }, generate_s)
    }
}

/// What one rank returns: its value, and for recoverable verbs whose data it
/// holds and under which epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOut {
    pub value: Vec<f32>,
    pub contributors: Option<Vec<usize>>,
    pub epoch: u32,
}

/// A rank's result: typed errors arrive as their message.
pub type RankResult = Result<RankOut, String>;

/// How compute is charged to the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// The paper-calibrated throughput model: deterministic virtual time.
    Modeled,
    /// Real kernel wall time: the traced run's kernel share.
    Measured,
}

/// A ring workload after set-up.
pub struct Ring {
    pub apps: Vec<AppInputs>,
    pub ops: Vec<RingOp>,
    /// Survivor-sum oracles of the ops with victims, by op index.
    survivor_refs: Vec<Option<Reference>>,
    pub generate_s: f64,
}

/// The paper's 8x8 two-tier fabric scaled to 256 ranks: 32 nodes x 8 ranks.
pub const WIDE_TOPOLOGY: (usize, usize) = (32, 8);

impl Ring {
    pub fn setup(kind: RingKind, seed: u64) -> Ring {
        let (ranks, elems, apps): (usize, usize, &[App]) = match kind {
            // 256 KiB per rank keeps the codec-bound regime (~93% of the
            // wall in codec kernels; ~90% at 2 and 16 MiB) while an op's few
            // MiB of data stay in cache: at 2 and 16 MiB per rank the host's
            // memory load swung throughput by 15-25% between runs
            RingKind::Deep => (8, 64 << 10, &[App::SimSet2, App::CesmAtm]),
            // 256 ranks, not 512: a 512-rank cycle took ~0.8 s, too few
            // samples per op in one run to read a p90 with ten beyond it
            RingKind::Wide => (256, 4 << 10, &[App::SimSet2]),
        };
        let mut generate_s = 0.0;
        let apps: Vec<AppInputs> = apps
            .iter()
            .enumerate()
            .map(|(a, &app)| {
                let (inputs, secs) = AppInputs::generate(
                    app,
                    ranks,
                    elems,
                    stats::splitmix(seed ^ ((a as u64) << 32)),
                );
                generate_s += secs;
                inputs
            })
            .collect();
        let ops = match kind {
            // the faulted ops run on CESM-ATM, the application whose
            // blocks are mostly non-constant
            RingKind::Deep => [deep_ops(apps.len()), recover_ops(1, ranks, seed)].concat(),
            RingKind::Wide => wide_ops(),
        };
        Ring::with_ops(apps, ops, generate_s)
    }

    /// A workload over explicit inputs and ops.
    pub fn with_ops(apps: Vec<AppInputs>, ops: Vec<RingOp>, generate_s: f64) -> Ring {
        let survivor_refs = ops
            .iter()
            .map(|op| {
                let fields = &apps[op.app].fields;
                (!op.victims.is_empty()).then(|| {
                    Reference::over(fields, (0..fields.len()).filter(|r| !op.victims.contains(r)))
                })
            })
            .collect();
        Ring { apps, ops, survivor_refs, generate_s }
    }

    /// Checksum of every input field.
    pub fn input_checksum(&self) -> u64 {
        self.apps
            .iter()
            .flat_map(|a| &a.fields)
            .fold(0, |h, f| stats::splitmix(h ^ stats::checksum(f)))
    }

    /// Rank 0's and rank 1's fields of each application, for the codec
    /// probes.
    pub fn probes(&self) -> Vec<Probe<'_>> {
        self.apps
            .iter()
            .map(|a| Probe { data: &a.fields[0], partner: &a.fields[1], eb: a.eb })
            .collect()
    }

    fn cluster(&self, op: &RingOp, timing: Timing, traced: bool) -> SimBuilder {
        let nranks = self.apps[op.app].fields.len();
        // auto borrows the hz table, its headline dispatch target
        let table = if op.variant == Variant::Auto { Variant::Hzccl } else { op.variant };
        let mut sim = SimBuilder::new(nranks).timing(match timing {
            Timing::Modeled => {
                ComputeTiming::Modeled(hzccl::paper_model(table, Mode::SingleThread))
            }
            Timing::Measured => ComputeTiming::Measured,
        });
        if traced {
            sim = sim.trace(TraceConfig::default());
        }
        if let Some(plan) = &op.faults {
            sim = sim.faults(plan.clone());
        }
        if let Some(topo) = op.topology {
            sim = sim.topology(topo);
        }
        sim
    }

    fn opts(&self, op: &RingOp) -> CollectiveOpts {
        let mut opts = CollectiveOpts::for_variant(op.variant, self.apps[op.app].eb)
            .with_mode(Mode::SingleThread)
            .with_segments(op.segments);
        if op.resilient {
            opts = opts.with_resilience(Resilience::default());
        }
        if let Some(topo) = op.topology {
            opts = opts.with_topology(topo);
        }
        if op.verb == Verb::Recoverable {
            opts = opts.with_recovery(RecoveryPolicy::Shrink);
        }
        opts
    }

    /// Run op `i` once; returns the report and the wall seconds of
    /// `SimBuilder::run`.
    pub fn execute(&self, i: usize, timing: Timing, traced: bool) -> (RunReport<RankResult>, f64) {
        let op = &self.ops[i];
        let sim = self.cluster(op, timing, traced);
        let opts = self.opts(op);
        let fields = &self.apps[op.app].fields;
        let verb = op.verb;
        let t = Instant::now();
        let report = sim.run(|comm| {
            let data = &fields[comm.rank()];
            let plain = |value| RankOut { value, contributors: None, epoch: 0 };
            match verb {
                Verb::Allreduce => collectives::allreduce(comm, data, &opts).map(plain),
                Verb::ReduceScatter => collectives::reduce_scatter(comm, data, &opts).map(plain),
                Verb::Recoverable => {
                    collectives::allreduce_recoverable(comm, data, &opts).map(|p| RankOut {
                        value: p.value,
                        contributors: Some(p.contributors),
                        epoch: p.epoch,
                    })
                }
            }
            .map_err(|e| e.to_string())
        });
        (report, t.elapsed().as_secs_f64())
    }

    /// The documented worst-case error of op `i`.
    fn bound(&self, i: usize) -> f64 {
        let op = &self.ops[i];
        let inputs = &self.apps[op.app];
        let (n, eb) = (inputs.fields.len(), inputs.eb);
        let survivors = n - op.victims.len();
        let reference = self.survivor_refs[i].as_ref().unwrap_or(&inputs.reference);
        match (op.verb, op.variant) {
            (Verb::Recoverable, Variant::Mpi) => {
                oracle::f32_sum_bound(survivors, reference.abs_sum_max)
            }
            (Verb::Recoverable, _) => error_bounds::shrink_allreduce(survivors, eb),
            (_, Variant::Mpi) => oracle::f32_sum_bound(n, reference.abs_sum_max),
            (Verb::ReduceScatter, Variant::Hzccl) => error_bounds::hzccl_reduce_scatter(n, eb),
            (Verb::ReduceScatter, _) => error_bounds::ccoll_reduce_scatter(n, eb),
            (_, Variant::Hzccl) => error_bounds::hzccl_allreduce(n, eb),
            // auto may pick any flavour: hold it to the loosest, ccoll's
            (_, Variant::CColl | Variant::Auto) => error_bounds::ccoll_allreduce(n, eb),
        }
    }

    /// Judge op `i`'s report; returns the verdict and the fingerprint of its
    /// deterministic outputs.
    pub fn judge(&self, i: usize, report: &RunReport<RankResult>) -> (Verdict, String) {
        let op = &self.ops[i];
        let inputs = &self.apps[op.app];
        let n = inputs.fields.len();
        let fingerprint = |out: u64, members: &Option<Vec<usize>>, epoch: u32| {
            format!(
                "t={:016x} out={out:016x} members={members:?} epoch={epoch}",
                report.stats.makespan.to_bits()
            )
        };
        let fail = |msg: String| (Verdict::failed(msg.clone()), format!("failed: {msg}"));

        for p in &report.panics {
            let seeded =
                op.victims.contains(&p.rank) && p.message.contains("crashed by fault plan");
            if !seeded {
                return fail(format!("rank {} panicked: {}", p.rank, p.message));
            }
        }
        for &v in &op.victims {
            if report.panic_of(v).is_none() {
                return fail(format!("seeded victim {v} never crashed"));
            }
        }
        let mut outs = Vec::with_capacity(report.outcomes.len());
        for o in &report.outcomes {
            match &o.value {
                Ok(out) => outs.push((o.rank, out)),
                Err(e) => return fail(format!("rank {}: typed error: {e}", o.rank)),
            }
        }
        let survivors: Vec<usize> = (0..n).filter(|r| !op.victims.contains(r)).collect();
        if outs.iter().map(|o| o.0).ne(survivors.iter().copied()) {
            return fail("the ranks that returned are not the seeded survivors".into());
        }
        let Some(&(_, first)) = outs.first() else {
            return fail("no rank returned".into());
        };

        if op.verb == Verb::ReduceScatter {
            let chunks = hzccl::chunks::node_chunks(inputs.fields[0].len(), n);
            let mut worst = Verdict { max_err_over_bound: 0.0, failure: None };
            let mut sum = 0u64;
            for &(r, out) in &outs {
                let chunk = chunks[r].clone();
                if out.value.len() != chunk.len() {
                    return fail(format!(
                        "rank {r}: {} values for a {}-value chunk",
                        out.value.len(),
                        chunk.len()
                    ));
                }
                let reference = &inputs.reference.sum[chunk];
                let v = oracle::judge_error(&out.value, |k| reference[k], self.bound(i));
                if v.failure.is_some() {
                    return fail(format!("rank {r}: {}", v.failure.unwrap_or_default()));
                }
                worst.max_err_over_bound = worst.max_err_over_bound.max(v.max_err_over_bound);
                sum = stats::splitmix(sum ^ stats::checksum(&out.value));
            }
            return (worst, fingerprint(sum, &None, 0));
        }

        // ccoll's allgather keeps the owner's chunk as reduced while every
        // other rank receives it through a compression round trip, so its
        // ranks differ within the bound; auto may pick ccoll. Those ranks
        // are each judged against the bound, the others must agree bitwise.
        let per_rank =
            op.verb == Verb::Allreduce && matches!(op.variant, Variant::CColl | Variant::Auto);
        for &(r, out) in &outs[1..] {
            if !per_rank && out.value != first.value {
                return fail(format!("rank {r} disagrees with rank {}", outs[0].0));
            }
            if out.contributors != first.contributors || out.epoch != first.epoch {
                return fail(format!("rank {r} disagrees on membership or epoch"));
            }
        }
        if op.verb == Verb::Recoverable {
            if first.contributors.as_ref() != Some(&survivors) {
                return fail(format!(
                    "contributors {:?} != survivors {survivors:?}",
                    first.contributors
                ));
            }
            let want = if op.victims.is_empty() { 0..=0 } else { 1..=op.victims.len() as u32 };
            if !want.contains(&first.epoch) {
                return fail(format!("epoch {} outside {want:?}", first.epoch));
            }
        }
        let reference = self.survivor_refs[i].as_ref().unwrap_or(&inputs.reference);
        let judged = if per_rank { &outs[..] } else { &outs[..1] };
        let mut worst = Verdict { max_err_over_bound: 0.0, failure: None };
        let mut sum = 0u64;
        for &(r, out) in judged {
            if out.value.len() != reference.sum.len() {
                return fail(format!(
                    "rank {r}: {} values out, {} in",
                    out.value.len(),
                    reference.sum.len()
                ));
            }
            let v = oracle::judge_error(&out.value, |k| reference.sum[k], self.bound(i));
            if let Some(msg) = v.failure {
                return fail(format!("rank {r}: {msg}"));
            }
            worst.max_err_over_bound = worst.max_err_over_bound.max(v.max_err_over_bound);
            sum = stats::splitmix(sum ^ stats::checksum(&out.value));
        }
        (worst, fingerprint(sum, &first.contributors, first.epoch))
    }

    /// Everything the traced run measures, per op, averaged over the cycle.
    pub fn layers(&self, t: &mut Tracer) -> RingLayers {
        let mut acc = RingLayers::default();
        let mut waits = Registry::new();
        let engine = Engine::paper();
        let net = NetConfig::default();
        for i in 0..self.ops.len() {
            let op = &self.ops[i];
            let nranks = self.apps[op.app].fields.len();
            let check = |acc: &mut RingLayers, what: &str, report: &RunReport<RankResult>| {
                acc.attempted += 1;
                let (v, fp) = self.judge(i, report);
                if let Some(msg) = v.failure {
                    acc.failures.push(format!("{} ({what}): {msg}", op.label));
                }
                fp
            };

            // untraced, traced, untraced again: the untraced wall is the mean
            // of the two runs around the traced one, so the first run's cold
            // caches do not read as a negative tracing overhead
            let untraced = |t: &mut Tracer, acc: &mut RingLayers| {
                let ((report, wall), _) = t.span("netsim::SimBuilder::run", Some(i), |_| {
                    self.execute(i, Timing::Modeled, false)
                });
                (check(acc, "untraced", &report), wall)
            };
            let (fp_u, before) = untraced(t, &mut acc);
            let ((report_t, wall_t), _) = t.span("netsim::SimBuilder::run", Some(i), |_| {
                self.execute(i, Timing::Modeled, true)
            });
            let fp_t = check(&mut acc, "traced", &report_t);
            let makespan = report_t.stats.makespan;
            let (reg, _) = t.span("netsim::Registry::record_report", Some(i), |_| {
                let mut r = Registry::new();
                r.record_report(&report_t);
                r
            });
            let (cp, analyze_s) = t.span("netsim::CriticalPath::analyze", Some(i), |_| {
                CriticalPath::analyze_with_topology(&report_t.traces, &net, op.topology.as_ref())
            });
            drop(report_t);
            waits.merge(&reg);
            let counter = |name: &str| reg.counter(name).unwrap_or(0);
            let messages = counter("hz_messages_total");
            let wire = counter("hz_wire_bytes_total");
            let residual = (cp.buckets.total() - makespan).abs() / makespan;
            if residual.is_nan() || residual > 1e-9 {
                acc.failures.push(format!(
                    "{}: critical-path buckets miss the makespan by {residual:e}",
                    op.label
                ));
            }

            let (fp_again, after) = untraced(t, &mut acc);
            let wall_u = (before + after) / 2.0;
            if fp_t != fp_u || fp_again != fp_u {
                acc.failures.push(format!(
                    "{}: the deterministic outputs changed between runs (untraced {fp_u}, \
                     traced {fp_t}, untraced again {fp_again})",
                    op.label
                ));
            }

            let ((report_m, wall_m), _) = t.span("netsim::SimBuilder::run", Some(i), |_| {
                self.execute(i, Timing::Measured, false)
            });
            check(&mut acc, "measured", &report_m);
            let b = report_m.stats.total;
            let kernel = b.cpr + b.dpr + b.hpr + b.cpt;
            drop(report_m);

            let steps = (messages as usize).div_ceil(nranks);
            let bytes = (wire / messages.max(1)) as usize;
            let (probe_wall, _) =
                t.span("netsim::SimBuilder::run", Some(i), |_| message_probe(nranks, steps, bytes));

            let (prediction, decide_s) = self.tuner(t, &engine, i, makespan);

            let row = OpLayers {
                wall_u,
                wall_t,
                wall_m,
                kernel,
                messages,
                wire,
                logical: counter("hz_logical_bytes_total"),
                retransmits: counter("hz_retransmits_total"),
                timeouts: counter("hz_timeouts_total"),
                degraded: counter("hz_degraded_segments_total"),
                recoveries: counter("hz_recoveries_total"),
                epochs: reg.gauge("hz_epochs").unwrap_or(0.0),
                survivors: reg.gauge("hz_survivors").unwrap_or(nranks as f64),
                makespan,
                buckets: cp.buckets.entries(),
                tiers: op.topology.map(|_| {
                    [LinkTier::Intra, LinkTier::Inter].map(|tier| cp.by_tier[tier.index()].total())
                }),
                residual,
                analyze_s,
                probe_wall,
                probe_messages: (steps * nranks) as u64,
                prediction,
                decide_s,
            };
            acc.rows.push(row);
        }
        acc.recv_wait_p50 =
            waits.histogram("hz_recv_wait_seconds").map_or(0.0, |h| h.quantile(0.5));
        acc
    }

    /// Time `Engine::decide` on op `i`'s scenario and compare the engine's
    /// prediction for the plan op `i` runs with the observed makespan.
    /// Returns `(relative prediction error if the op has a plan the tuner
    /// prices, seconds per decide call)`.
    fn tuner(
        &self,
        t: &mut Tracer,
        engine: &Engine,
        i: usize,
        observed: f64,
    ) -> (Option<f64>, f64) {
        let op = &self.ops[i];
        let inputs = &self.apps[op.app];
        let tuner_op =
            if op.verb == Verb::ReduceScatter { Op::ReduceScatter } else { Op::Allreduce };
        // the compressibility probe hzccl::auto makes before it decides
        let sample = &inputs.fields[0][..inputs.fields[0].len().min(hzccl::auto::PROBE_ELEMS)];
        let ratios = engine
            .block_candidates
            .iter()
            .map(|&b| {
                let cfg =
                    fzlight::Config::new(fzlight::ErrorBound::Abs(inputs.eb)).with_block_len(b);
                let ratio = fzlight::compress(sample, &cfg)
                    .map_or(1.0, |s| (sample.len() * 4) as f64 / s.compressed_size().max(1) as f64);
                (b, ratio.max(1.0))
            })
            .collect();
        let spec = ScenarioSpec {
            op: tuner_op,
            elems: inputs.fields[0].len(),
            nranks: inputs.fields.len(),
            eb: inputs.eb,
            ratios,
            topology: op.topology,
        };
        const REPS: usize = 200;
        let (decision, decide_s) = t.span("tuner::Engine::decide", Some(i), |_| {
            let mut last = None;
            for _ in 0..REPS {
                last = Some(std::hint::black_box(engine.decide(&spec)));
            }
            last
        });
        let decision = decision.expect("REPS > 0");
        if op.faults.is_some() || op.resilient || op.verb == Verb::Recoverable {
            return (None, decide_s / REPS as f64);
        }
        let plan = match op.variant {
            Variant::Auto => decision.plan,
            v => Plan {
                flavor: v.flavor(),
                algo: Algo::Ring,
                mode: ThreadMode::St,
                block_len: fzlight::DEFAULT_BLOCK_LEN,
                segments: op.segments,
                hierarchical: op.topology.is_some(),
            },
        };
        let (predicted, _) =
            t.span("tuner::Engine::predict", Some(i), |_| engine.predict(&spec, &plan));
        (Some((predicted - observed).abs() / observed), decide_s / REPS as f64)
    }
}

/// A ring of `steps` sendrecv exchanges of `bytes` each on `nranks` ranks,
/// with no compute: the simulator's own cost per message.
fn message_probe(nranks: usize, steps: usize, bytes: usize) -> f64 {
    let sim = SimBuilder::new(nranks)
        .timing(ComputeTiming::Modeled(hzccl::paper_model(Variant::Mpi, Mode::SingleThread)));
    let t = Instant::now();
    let report = sim.run(|comm| {
        let (rank, n) = (comm.rank(), comm.size());
        for s in 0..steps {
            std::hint::black_box(comm.sendrecv(
                (rank + 1) % n,
                s as u64,
                vec![0u8; bytes],
                (rank + n - 1) % n,
            ));
        }
    });
    let wall = t.elapsed().as_secs_f64();
    assert!(report.is_clean(), "the message probe has no faults to die of");
    wall
}

/// What the traced run measured on one op.
pub struct OpLayers {
    pub wall_u: f64,
    pub wall_t: f64,
    pub wall_m: f64,
    pub kernel: f64,
    pub messages: u64,
    pub wire: u64,
    pub logical: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub degraded: u64,
    pub recoveries: u64,
    pub epochs: f64,
    pub survivors: f64,
    pub makespan: f64,
    pub buckets: [(&'static str, f64); 11],
    /// Intra- and inter-node critical-path seconds on two-tier ops.
    pub tiers: Option<[f64; 2]>,
    pub residual: f64,
    pub analyze_s: f64,
    pub probe_wall: f64,
    pub probe_messages: u64,
    pub prediction: Option<f64>,
    pub decide_s: f64,
}

/// The traced run's per-op rows and their checks.
#[derive(Default)]
pub struct RingLayers {
    pub rows: Vec<OpLayers>,
    pub recv_wait_p50: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl RingLayers {
    /// The netsim, critpath, hzccl, resilient, recovery, tuner and wall
    /// reconciliation metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let rows = &self.rows;
        let n = rows.len();
        let sum = |f: &dyn Fn(&OpLayers) -> f64| rows.iter().map(f).sum::<f64>();
        let mean = |f: &dyn Fn(&OpLayers) -> f64| sum(f) / n as f64;
        let messages = sum(&|r| r.messages as f64);
        let (wall_m, kernel) = (sum(&|r| r.wall_m), sum(&|r| r.kernel));
        let netsim = sum(&|r| r.messages as f64 * r.probe_wall / r.probe_messages.max(1) as f64);
        let mut m = vec![
            Metric::new("netsim.run_ms", mean(&|r| r.wall_u) * 1e3, "ms", n),
            Metric::new("netsim.messages_per_op", messages / n as f64, "count", n),
            Metric::new("netsim.kernel_wall_share", kernel / wall_m, "share", n),
            Metric::new("netsim.self_ns_per_message", (wall_m - kernel) / messages * 1e9, "ns", n),
            Metric::new(
                "netsim.probe_ns_per_message",
                sum(&|r| r.probe_wall) / sum(&|r| r.probe_messages as f64) * 1e9,
                "ns",
                n,
            ),
            Metric::new(
                "netsim.trace_overhead_share",
                sum(&|r| r.wall_t) / sum(&|r| r.wall_u) - 1.0,
                "share",
                n,
            ),
            Metric::new("netsim.recv_wait_p50_us", self.recv_wait_p50 * 1e6, "us", n),
            Metric::new(
                "critpath.analyze_ns_per_message",
                sum(&|r| r.analyze_s) / messages * 1e9,
                "ns",
                n,
            ),
        ];
        for (k, (name, _)) in rows[0].buckets.iter().enumerate() {
            m.push(Metric::new(
                format!("critpath.{name}_ms"),
                mean(&|r| r.buckets[k].1) * 1e3,
                "ms",
                n,
            ));
        }
        let tiered: Vec<[f64; 2]> = rows.iter().filter_map(|r| r.tiers).collect();
        for (k, name) in ["critpath.intra_ms", "critpath.inter_ms"].into_iter().enumerate() {
            let v = tiered.iter().fold(0.0, |acc, t| acc + t[k]) / tiered.len().max(1) as f64;
            m.push(Metric::new(name, v * 1e3, "ms", tiered.len()));
        }
        let predictions: Vec<f64> = rows.iter().filter_map(|r| r.prediction).collect();
        m.extend([
            Metric::new(
                "critpath.tiling_residual",
                rows.iter().map(|r| r.residual).fold(0.0, f64::max),
                "share",
                n,
            ),
            Metric::new("hzccl.wire_bytes_per_op", mean(&|r| r.wire as f64), "B", n),
            Metric::new("hzccl.logical_bytes_per_op", mean(&|r| r.logical as f64), "B", n),
            Metric::new(
                "resilient.retransmits_per_op",
                mean(&|r| r.retransmits as f64),
                "count",
                n,
            ),
            Metric::new("resilient.timeouts_per_op", mean(&|r| r.timeouts as f64), "count", n),
            Metric::new(
                "resilient.degraded_segments_per_op",
                mean(&|r| r.degraded as f64),
                "count",
                n,
            ),
            Metric::new(
                "resilient.first_try_share",
                1.0 - sum(&|r| r.retransmits as f64) / messages,
                "share",
                n,
            ),
            Metric::new("recovery.recoveries_per_op", mean(&|r| r.recoveries as f64), "count", n),
            Metric::new(
                "recovery.epochs_max",
                rows.iter().map(|r| r.epochs).fold(0.0, f64::max),
                "count",
                n,
            ),
            Metric::new(
                "recovery.survivors_min",
                rows.iter().map(|r| r.survivors).fold(f64::INFINITY, f64::min),
                "count",
                n,
            ),
            Metric::new("tuner.decide_us", mean(&|r| r.decide_s) * 1e6, "us", n),
            Metric::new(
                "tuner.prediction_error",
                predictions.iter().fold(0.0, |acc, p| acc + p) / predictions.len().max(1) as f64,
                "share",
                predictions.len(),
            ),
            Metric::new("wall.kernel_share", kernel / wall_m, "share", n),
            Metric::new("wall.netsim_share", netsim / wall_m, "share", n),
            Metric::new("wall.remainder_share", 1.0 - (kernel + netsim) / wall_m, "share", n),
        ]);
        m
    }

    /// The counts and modeled buckets that must repeat bit for bit.
    pub fn deterministic(&self, labels: &[String]) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .zip(labels)
                .map(|(r, label)| {
                    let mut pairs = vec![
                        ("op", Json::Str(label.clone())),
                        ("virtual_s", Json::Num(r.makespan)),
                        ("messages", Json::Num(r.messages as f64)),
                        ("wire_bytes", Json::Num(r.wire as f64)),
                        ("logical_bytes", Json::Num(r.logical as f64)),
                        ("retransmits", Json::Num(r.retransmits as f64)),
                        ("recoveries", Json::Num(r.recoveries as f64)),
                        ("epochs", Json::Num(r.epochs)),
                        ("survivors", Json::Num(r.survivors)),
                    ];
                    pairs.extend(r.buckets.iter().map(|&(name, secs)| (name, Json::Num(secs))));
                    Json::obj(pairs)
                })
                .collect(),
        )
    }
}

impl Ring {
    /// Labels of the distinct ops of one round-robin cycle.
    pub fn labels(&self) -> Vec<String> {
        self.ops.iter().map(|op| op.label.clone()).collect()
    }

    /// Run op `index` of the cycle, with the flight recorder on for the
    /// warm-up (it fills `logical_bytes` / `wire_bytes`), and judge it.
    pub fn run(&self, index: usize, warmup: bool) -> OpRun {
        let (report, wall) = self.execute(index, Timing::Modeled, warmup);
        let (verdict, fingerprint) = self.judge(index, &report);
        let (mut logical_bytes, mut wire_bytes) = (0u64, 0u64);
        for ev in report.traces.iter().flat_map(|t| &t.events) {
            if let Event::Send { wire_bytes: w, logical_bytes: l, .. } = *ev {
                wire_bytes += w as u64;
                logical_bytes += l as u64;
            }
        }
        OpRun {
            wall,
            verdict,
            fingerprint,
            virtual_secs: report.stats.makespan,
            logical_bytes,
            wire_bytes,
        }
    }
}

fn op(label: &str, app: usize, verb: Verb, variant: Variant, segments: usize) -> RingOp {
    RingOp {
        label: label.into(),
        app,
        verb,
        variant,
        segments,
        topology: None,
        faults: None,
        resilient: false,
        victims: Vec::new(),
    }
}

/// hz allreduce S=4, ccoll allreduce S=1, mpi allreduce S=4, hz
/// reduce_scatter S=1 and auto allreduce, one cycle per application.
fn deep_ops(apps: usize) -> Vec<RingOp> {
    let names = ["Sim Set 2", "CESM-ATM"];
    (0..apps)
        .flat_map(|a| {
            let name = names[a];
            [
                op(&format!("{name} hz allreduce S=4"), a, Verb::Allreduce, Variant::Hzccl, 4),
                op(&format!("{name} ccoll allreduce S=1"), a, Verb::Allreduce, Variant::CColl, 1),
                op(&format!("{name} mpi allreduce S=4"), a, Verb::Allreduce, Variant::Mpi, 4),
                op(
                    &format!("{name} hz reduce_scatter S=1"),
                    a,
                    Verb::ReduceScatter,
                    Variant::Hzccl,
                    1,
                ),
                op(&format!("{name} auto allreduce"), a, Verb::Allreduce, Variant::Auto, 1),
            ]
        })
        .collect()
}

/// Flat mpi allreduce, flat hz allreduce, and hz allreduce on the two-tier
/// 32x8 fabric.
fn wide_ops() -> Vec<RingOp> {
    let (nodes, ppn) = WIDE_TOPOLOGY;
    let mut tiered =
        op(&format!("hz allreduce {nodes}x{ppn}"), 0, Verb::Allreduce, Variant::Hzccl, 1);
    tiered.topology = Some(Topology::paper(nodes, ppn));
    vec![
        op("mpi allreduce", 0, Verb::Allreduce, Variant::Mpi, 1),
        op("hz allreduce", 0, Verb::Allreduce, Variant::Hzccl, 1),
        tiered,
    ]
}

/// {mpi, ccoll, hz} x {resilient allreduce under 2% drop + 1% corruption,
/// Shrink-policy recoverable allreduce with seeded crash victims}.
///
/// The seed picks the victims. The fault plans' own seeds, the victim
/// counts (one for mpi and ccoll, two for hz, the paper's flavour) and the
/// crash steps are fixed: they set how many messages are resent and how
/// many repairs run, and left to the seed they made the work per op, not the
/// program, differ between runs (ops per second ranged 8.6 to 12.1).
fn recover_ops(app: usize, ranks: usize, seed: u64) -> Vec<RingOp> {
    let mut ops = Vec::new();
    for (k, (name, variant, deaths)) in
        [("mpi", Variant::Mpi, 1), ("ccoll", Variant::CColl, 1), ("hz", Variant::Hzccl, 2)]
            .into_iter()
            .enumerate()
    {
        let plan_seed = 0xFA17 + k as u64;
        let mut lossy =
            op(&format!("{name} resilient allreduce"), app, Verb::Allreduce, variant, 1);
        lossy.faults = Some(FaultPlan::new(plan_seed).with_drop(0.02).with_corrupt(0.01));
        lossy.resilient = true;
        ops.push(lossy);

        let mut crash =
            op(&format!("{name} recoverable allreduce"), app, Verb::Recoverable, variant, 1);
        let mut victims = Vec::new();
        let mut ctr = stats::splitmix(seed ^ plan_seed);
        while victims.len() < deaths {
            ctr = stats::splitmix(ctr);
            let r = (ctr % ranks as u64) as usize;
            if !victims.contains(&r) {
                victims.push(r);
            }
        }
        victims.sort_unstable();
        // a rank makes 2(ranks-1) data-plane sends per attempt: crash every
        // victim before its last one so each dies in the first attempt
        let last_step = 2 * (ranks as u64 - 1) - 1;
        let mut plan = FaultPlan::new(plan_seed);
        for (j, &r) in victims.iter().enumerate() {
            plan = plan.with_crash(r, (2 + 2 * j as u64).min(last_step));
        }
        crash.faults = Some(plan);
        crash.victims = victims;
        ops.push(crash);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::closed_loop;

    fn tiny(elems: usize, ops: Vec<RingOp>) -> Ring {
        let (inputs, secs) = AppInputs::generate(App::CesmAtm, 4, elems, 7);
        Ring::with_ops(vec![inputs], ops, secs)
    }

    #[test]
    fn a_clean_op_passes_and_a_perturbed_result_fails() {
        let ring = tiny(4096, vec![op("hz", 0, Verb::Allreduce, Variant::Hzccl, 1)]);
        let (mut report, _) = ring.execute(0, Timing::Modeled, false);
        let (ok, _) = ring.judge(0, &report);
        assert!(ok.failure.is_none(), "{ok:?}");
        assert!(ok.max_err_over_bound > 0.0 && ok.max_err_over_bound <= 1.0);

        // one rank's result nudged: the ranks disagree
        let out = report.outcomes[2].value.as_mut().expect("clean rank");
        out.value[5] += 1.0;
        assert!(ring.judge(0, &report).0.failure.expect("caught").contains("disagrees"));

        // every rank nudged alike: the bound catches it
        for o in &mut report.outcomes {
            let out = o.value.as_mut().expect("clean rank");
            out.value[5] = out.value[0] + 1e6;
        }
        assert!(ring.judge(0, &report).0.failure.expect("caught").contains("exceeds the bound"));
    }

    #[test]
    fn forced_typed_errors_and_failures_are_counted_not_dropped() {
        // 2 elements on 4 ranks: every rank returns TooFewElements
        let ring = tiny(2, vec![op("too few", 0, Verb::Allreduce, Variant::Mpi, 1)]);
        let res = closed_loop(&ring, 0.0);
        assert_eq!(res.attempted, 2, "warm-up and one timed cycle");
        assert_eq!(res.failures.len(), 2);
        assert!(res.failures[0].contains("typed error"), "{:?}", res.failures);
    }

    #[test]
    fn victims_that_survive_fail_the_survivor_oracle() {
        let mut claimed = op("claims a victim", 0, Verb::Recoverable, Variant::Mpi, 1);
        claimed.victims = vec![1];
        let ring = tiny(4096, vec![claimed]);
        let (report, _) = ring.execute(0, Timing::Modeled, false);
        let v = ring.judge(0, &report).0;
        assert!(v.failure.expect("caught").contains("never crashed"));
    }

    #[test]
    fn seeded_crashes_leave_the_seeded_survivors() {
        let ops = recover_ops(0, 4, 11);
        let ring = tiny(4096, ops);
        for i in 0..ring.ops.len() {
            let (report, _) = ring.execute(i, Timing::Modeled, false);
            let (v, _) = ring.judge(i, &report);
            assert!(v.failure.is_none(), "{}: {v:?}", ring.ops[i].label);
        }
    }

    #[test]
    fn the_seed_changes_the_inputs_and_reproduces_them() {
        let a = Ring::setup(RingKind::Wide, 1).input_checksum();
        assert_eq!(a, Ring::setup(RingKind::Wide, 1).input_checksum());
        assert_ne!(a, Ring::setup(RingKind::Wide, 2).input_checksum());
    }
}
