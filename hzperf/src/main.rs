//! `hzperf` — the repository's benchmark.
//!
//! One command runs a named workload from a seed and prints every metric by
//! name and unit; its last line is one JSON object. Run from the repository
//! root:
//!
//! ```text
//! cargo run --release --manifest-path hzperf/Cargo.toml -- \
//!     --workload ring_deep --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` runs the closed loop with tracing off and reports the
//! end-to-end metrics; `--trace 1` is the separate traced run that reports
//! the per-layer metrics. See `hzperf/README.md` for the workloads, the
//! metric definitions and what each layer metric should move.

mod bench;
mod codec;
mod host;
mod oracle;
mod ring;
mod spans;
mod stats;

use bench::{closed_loop, Metric};
use host::Host;
use netsim::Json;
use ring::{Ring, RingKind};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads this binary runs, as `BENCHMARK.json` names them.
const WORKLOADS: [(&str, RingKind); 2] =
    [("ring_deep", RingKind::Deep), ("ring_wide", RingKind::Wide)];

/// Metrics of the untraced run, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("op_wall_p90_ms", "ms"),
    ("compression_ratio", "ratio"),
    ("max_err_over_bound", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics of the traced run, with their units.
const PER_LAYER: [(&str, &str); 50] = [
    ("datasets.generate_s", "s"),
    ("streambench.peak_gbps", "GB/s"),
    ("fzlight.compress_gbps", "GB/s"),
    ("fzlight.compress_pct_stream", "%"),
    ("fzlight.quantize_gbps", "GB/s"),
    ("fzlight.encode_gbps", "GB/s"),
    ("fzlight.decode_gbps", "GB/s"),
    ("fzlight.compress_remainder_share", "share"),
    ("fzlight.decompress_gbps", "GB/s"),
    ("fzlight.small_call_us", "us"),
    ("hzdyn.sum_gbps", "GB/s"),
    ("hzdyn.p4_share", "share"),
    ("ompszp.compress_gbps", "GB/s"),
    ("ompszp.decompress_gbps", "GB/s"),
    ("netsim.run_ms", "ms"),
    ("netsim.messages_per_op", "count"),
    ("netsim.kernel_wall_share", "share"),
    ("netsim.self_ns_per_message", "ns"),
    ("netsim.probe_ns_per_message", "ns"),
    ("netsim.trace_overhead_share", "share"),
    ("netsim.recv_wait_p50_us", "us"),
    ("critpath.analyze_ns_per_message", "ns"),
    ("critpath.cpr_ms", "ms"),
    ("critpath.dpr_ms", "ms"),
    ("critpath.hpr_ms", "ms"),
    ("critpath.cpt_ms", "ms"),
    ("critpath.other_ms", "ms"),
    ("critpath.alpha_ms", "ms"),
    ("critpath.wire_ms", "ms"),
    ("critpath.jitter_ms", "ms"),
    ("critpath.resilience_ms", "ms"),
    ("critpath.recovery_ms", "ms"),
    ("critpath.blocked_wait_ms", "ms"),
    ("critpath.intra_ms", "ms"),
    ("critpath.inter_ms", "ms"),
    ("critpath.tiling_residual", "share"),
    ("hzccl.wire_bytes_per_op", "B"),
    ("hzccl.logical_bytes_per_op", "B"),
    ("resilient.retransmits_per_op", "count"),
    ("resilient.timeouts_per_op", "count"),
    ("resilient.degraded_segments_per_op", "count"),
    ("resilient.first_try_share", "share"),
    ("recovery.recoveries_per_op", "count"),
    ("recovery.epochs_max", "count"),
    ("recovery.survivors_min", "count"),
    ("tuner.decide_us", "us"),
    ("tuner.prediction_error", "share"),
    ("wall.kernel_share", "share"),
    ("wall.netsim_share", "share"),
    ("wall.remainder_share", "share"),
];

/// Full set-ups per untraced run: at least `MIN_SETUPS`, and more while they
/// total under `SETUP_BUDGET_S` seconds, up to `MAX_SETUPS`; `setup_s` is
/// their median. Millisecond set-ups need the extra samples to be steady.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.0;

const USAGE: &str = "usage: hzperf --workload ring_deep|ring_wide --seed N --seconds S --trace 0|1";

struct Args {
    workload: &'static str,
    kind: RingKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.0 == value)
                        .ok_or_else(|| bad("a workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("non-negative seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, kind) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one run reports.
struct Report {
    args: Args,
    host: Host,
    input_checksum: u64,
    /// The metrics of the JSON result line, in `BENCHMARK.json` order.
    metrics: Vec<Metric>,
    /// More measurements, printed and saved but not in the result line.
    extra: Vec<Metric>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
    attempted: u64,
    failures: Vec<String>,
    drift: Vec<String>,
    /// Outputs that must repeat bit for bit for the same seed.
    deterministic: Json,
    /// Every timed wall in ms, by op (untraced runs only).
    op_walls: Json,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hzperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    quiet_seeded_crashes();
    let malloc_fixed = host::fix_malloc_thresholds();
    let pinned = host::pin_to_current_cpu();
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut report = if args.trace { traced(args, &out_dir) } else { untraced(args) };
    report.notes.push(match pinned {
        Ok(cpu) => format!("set up and measured pinned to CPU {cpu}"),
        Err(e) => format!("set up and measured unpinned: {e}"),
    });
    report.notes.push(if malloc_fixed {
        "glibc malloc thresholds fixed: mmap 32 MiB, trim 64 MiB".into()
    } else {
        "glibc malloc thresholds left dynamic (not glibc, or mallopt refused)".into()
    });
    match report.finish(&out_dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hzperf: cannot write results under {}: {e}", out_dir.display());
            ExitCode::FAILURE
        }
    }
}

/// The seeded crashes of `ring_deep`'s recoverable ops are the point of the
/// exercise: keep their panic reports off stderr and pass anything else to
/// the stock hook.
fn quiet_seeded_crashes() {
    let stock = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !(msg.contains("crashed by fault plan") || msg.contains("observed crash of rank")) {
            stock(info);
        }
    }));
}

/// The closed loop with tracing off: the end-to-end metrics.
fn untraced(args: Args) -> Report {
    let mut setup_samples: Vec<f64> = Vec::new();
    let mut ring = None;
    while setup_samples.len() < MIN_SETUPS
        || (setup_samples.len() < MAX_SETUPS && setup_samples.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(ring.take());
        let t = Instant::now();
        ring = Some(Ring::setup(args.kind, args.seed));
        setup_samples.push(t.elapsed().as_secs_f64());
    }
    let ring = ring.expect("MIN_SETUPS > 0");
    let input_checksum = ring.input_checksum();
    let res = closed_loop(&ring, args.seconds);
    let peak_rss_end = host::peak_rss_mib();
    drop(ring);
    let host = Host::probe();

    let walls = res.walls();
    let n = walls.len();
    let metrics = vec![
        Metric::new("op_wall_p90_ms", res.op_wall_p90_ms(), "ms", n),
        Metric::new("compression_ratio", res.compression_ratio(), "ratio", res.reference.len()),
        Metric::new("max_err_over_bound", res.max_err_over_bound, "ratio", res.attempted as usize),
        Metric::new("setup_s", stats::median(&setup_samples), "s", setup_samples.len()),
        Metric::new("peak_rss_mib", res.peak_rss_mib, "MiB", 1),
    ];
    let mut notes = Vec::new();
    let metrics = in_order(metrics, &END_TO_END, &mut notes);

    let mut extra = vec![
        Metric::new("ops_per_s", res.ops_per_s(), "1/s", n),
        Metric::new("op_wall_p50_ms", stats::median(&walls) * 1e3, "ms", n),
        Metric::new(
            "failed_share",
            res.failures.len() as f64 / res.attempted as f64,
            "share",
            res.attempted as usize,
        ),
        Metric::new("warmup_s", res.warmup_s, "s", 1),
        Metric::new("timed_s", res.timed_s, "s", 1),
        Metric::new("peak_rss_end_mib", peak_rss_end, "MiB", 1),
        Metric::new("timed_cpu_share", res.timed_cpu_s / res.timed_s, "share", 1),
        Metric::new("ops_per_busy_s", res.ops_per_busy_s(), "1/s", n),
        Metric::new("cycles", res.cycles as f64, "count", 1),
    ];
    notes.push(format!(
        "failed_share = {} failed / {} attempted (warm-up and timed ops, every one checked)",
        res.failures.len(),
        res.attempted
    ));
    // whole cycles: every op has one timed wall per cycle
    if !stats::tail_is_valid(res.cycles, 0.9) {
        notes.push(format!(
            "op_wall_p90_ms is not a valid tail: each op has only {} timed walls, \
             fewer than 10 beyond its p90",
            res.cycles
        ));
    }
    extra.push(Metric::new("virtual_ms_per_op", res.virtual_ms_per_op(), "ms", res.labels.len()));
    for (label, p50, p90, k) in res.per_op_ms() {
        extra.push(Metric::new(format!("op_p50_ms[{label}]"), p50, "ms", k));
        extra.push(Metric::new(format!("op_p90_ms[{label}]"), p90, "ms", k));
    }

    let ops = res
        .reference
        .iter()
        .zip(&res.labels)
        .map(|(r, label)| {
            Json::obj(vec![
                ("op", Json::Str(label.clone())),
                ("fingerprint", Json::Str(r.fingerprint.clone())),
                ("virtual_s", Json::Num(r.virtual_secs)),
                ("logical_bytes", Json::Num(r.logical_bytes as f64)),
                ("wire_bytes", Json::Num(r.wire_bytes as f64)),
                // NaN on a failed op, which JSON cannot carry
                ("max_err_over_bound", finite_or_null(r.verdict.max_err_over_bound)),
            ])
        })
        .collect();
    let deterministic = vec![
        ("input_checksum", Json::Str(format!("{input_checksum:016x}"))),
        ("ops", Json::Arr(ops)),
        ("compression_ratio", Json::Num(res.compression_ratio())),
        ("max_err_over_bound", Json::Num(res.max_err_over_bound)),
        ("virtual_ms_per_op", Json::Num(res.virtual_ms_per_op())),
    ];
    let op_walls = Json::obj(
        res.labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let ms = res.walls_of(i).into_iter().map(|w| Json::Num(w * 1e3)).collect();
                (label.as_str(), Json::Arr(ms))
            })
            .collect(),
    );
    Report {
        args,
        host,
        input_checksum,
        metrics,
        extra,
        notes,
        attempted: res.attempted,
        failures: res.failures,
        drift: res.drift,
        deterministic: Json::obj(deterministic),
        op_walls,
    }
}

/// The traced run: every per-layer metric, from spans around each public
/// call and from the program's own counters.
fn traced(args: Args, out_dir: &Path) -> Report {
    let started = Instant::now();
    let mut t = Tracer::new();
    let (ring, setup_s) = t.span("setup", None, |_| Ring::setup(args.kind, args.seed));
    let input_checksum = ring.input_checksum();
    let (host, _) = t.span("streambench::run", None, |_| Host::probe());

    let mut metrics = vec![
        Metric::new("datasets.generate_s", ring.generate_s, "s", 1),
        Metric::new("streambench.peak_gbps", host.stream_peak_gbps, "GB/s", 3),
    ];
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut det = vec![("input_checksum", Json::Str(format!("{input_checksum:016x}")))];
    match codec::layers(&mut t, &ring.probes(), host.stream_peak_gbps) {
        Ok((m, d)) => {
            metrics.extend(m);
            det.push(("codec", d));
        }
        Err(e) => failures.push(format!("codec probes: {e}")),
    }
    let layers = ring.layers(&mut t);
    attempted += layers.attempted;
    failures.extend(layers.failures.iter().cloned());
    metrics.extend(layers.metrics());
    det.push(("ops", layers.deterministic(&ring.labels())));

    let trace_path = results_path(out_dir, &args, "spans.jsonl");
    let mut notes = Vec::new();
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| t.write_jsonl(&trace_path)) {
        failures.push(format!("cannot write spans to {}: {e}", trace_path.display()));
    } else {
        notes.push(format!("{} spans written to {}", t.spans().len(), trace_path.display()));
    }

    let ordered = in_order(metrics, &PER_LAYER, &mut notes);
    let extra = vec![
        Metric::new("setup_s", setup_s, "s", 1),
        Metric::new("traced_run_s", started.elapsed().as_secs_f64(), "s", 1),
    ];
    Report {
        args,
        host,
        input_checksum,
        metrics: ordered,
        extra,
        notes,
        attempted,
        failures,
        drift: Vec::new(),
        deterministic: Json::obj(det),
        op_walls: Json::Null,
    }
}

/// `metrics` in the order of `list`. A metric of the list the run could not
/// produce (its probe failed, which is counted as a failure) reports 0 and
/// is noted as n/a; a produced metric the list does not name is dropped.
fn in_order(
    mut metrics: Vec<Metric>,
    list: &[(&str, &'static str)],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut missing = Vec::new();
    let ordered = list
        .iter()
        .map(|&(name, unit)| match metrics.iter().position(|m| m.name == name) {
            Some(k) => metrics.swap_remove(k),
            None => {
                missing.push(name);
                Metric::new(name, 0.0, unit, 0)
            }
        })
        .collect();
    if !missing.is_empty() {
        notes.push(format!("n/a (0, not measured): {}", missing.join(", ")));
    }
    ordered
}

fn finite_or_null(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// `out/<workload>-seed<seed>-trace<0|1>.<suffix>`.
fn results_path(out_dir: &Path, args: &Args, suffix: &str) -> PathBuf {
    out_dir.join(format!(
        "{}-seed{}-trace{}.{suffix}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ))
}

/// Checksum of the running executable's bytes: the key of the cross-run
/// determinism record, so a rebuilt program never meets a record an
/// earlier build left.
fn binary_checksum() -> std::io::Result<u64> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }))
}

impl Report {
    /// Compare the deterministic outputs with an earlier run of the same
    /// binary and seed, write the full results, print the report and the
    /// result line.
    fn finish(mut self, out_dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let suffix = format!("{:016x}.deterministic.json", binary_checksum()?);
        let det_path = results_path(out_dir, &self.args, &suffix);
        let det = self.deterministic.render();
        match std::fs::read_to_string(&det_path) {
            Ok(earlier) if earlier != det => self.drift.push(format!(
                "deterministic outputs differ from the earlier run of this binary recorded in {}",
                det_path.display()
            )),
            Ok(_) => {}
            Err(_) => std::fs::write(&det_path, &det)?,
        }
        for m in self.metrics.iter().filter(|m| !m.value.is_finite()) {
            self.failures.push(format!("{} is not a finite number ({})", m.name, m.value));
        }
        let failed = self.failures.len() as u64;
        let correct = failed == 0 && self.drift.is_empty();

        let metric_json = |m: &Metric| {
            Json::obj(vec![
                ("name", Json::Str(m.name.clone())),
                ("value", finite_or_null(m.value)),
                ("unit", Json::Str(m.unit.into())),
                ("samples", Json::Num(m.samples as f64)),
            ])
        };
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let full = Json::obj(vec![
            ("schema_version", Json::Num(1.0)),
            ("workload", Json::Str(self.args.workload.into())),
            ("seed", Json::Num(self.args.seed as f64)),
            ("seconds", Json::Num(self.args.seconds)),
            ("trace", Json::Bool(self.args.trace)),
            ("host", self.host.to_json()),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("failures", strs(&self.failures)),
            ("drift", strs(&self.drift)),
            ("metrics", Json::Arr(self.metrics.iter().map(metric_json).collect())),
            ("extra", Json::Arr(self.extra.iter().map(metric_json).collect())),
            ("deterministic", self.deterministic.clone()),
            ("op_walls_ms", self.op_walls.clone()),
        ]);
        std::fs::write(results_path(out_dir, &self.args, "json"), full.render())?;

        let h = &self.host;
        println!(
            "hzperf {} seed={} seconds={} trace={}: closed loop, 1 client, 1 OS thread",
            self.args.workload,
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace)
        );
        println!(
            "host: nproc={} llc={} MiB {} stream peak {:.2} GB/s (1 thread, 3 arrays x {} MiB)",
            h.nproc,
            h.llc_bytes >> 20,
            h.rustc,
            h.stream_peak_gbps,
            h.stream_array_bytes >> 20
        );
        println!("input checksum {:016x}", self.input_checksum);
        for m in self.metrics.iter().chain(&self.extra) {
            println!("  {:<36} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
        for line in &self.notes {
            println!("{line}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
            eprintln!("hzperf: FAILED: {f}");
        }
        for d in &self.drift {
            println!("DRIFT: {d}");
            eprintln!("hzperf: DRIFT: {d}");
        }
        let result = Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let value = if m.value.is_finite() { m.value } else { 0.0 };
                            (
                                m.name.clone(),
                                Json::obj(vec![
                                    ("value", Json::Num(value)),
                                    ("unit", Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", result.render());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload ring_wide --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), ("ring_wide", 7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload ring_wide --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload ring_wide --seed 1 --seconds 1").is_err());
    }

    #[test]
    fn benchmark_json_names_exactly_the_metrics_and_workloads_emitted() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        for (workload, _) in names("workloads") {
            assert!(WORKLOADS.iter().any(|w| w.0 == workload), "{workload} is not runnable");
        }
    }
}
