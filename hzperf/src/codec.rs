//! The codec-layer probes every traced run makes, on the workload's own
//! rank fields: `fzlight`, its compress stages, `hzdyn` and `ompszp`.
//!
//! Both fields of a homomorphic-sum pair share one absolute bound, resolved
//! from REL 1e-3 per application during set-up: `hzdyn` refuses to sum
//! streams whose bounds differ.

use crate::bench::Metric;
use crate::spans::Tracer;
use crate::stats;
use fzlight::codec::{decode_block, encode_block};
use fzlight::{Config, ErrorBound, DEFAULT_BLOCK_LEN};
use netsim::Json;

/// Relative error bound every workload resolves per application.
pub const REL: f64 = 1e-3;
/// Elements per compress call at `ring_wide`'s chunk size (16 KiB per rank
/// split over 256 ranks).
pub const SMALL_CALL_ELEMS: usize = 16;

/// The absolute bound REL resolves to on `field`.
pub fn resolve_eb(field: &[f32]) -> f64 {
    ErrorBound::Rel(REL).resolve(field).expect("generated fields are finite")
}

/// The snapshot of each application every workload draws its fields from.
/// The seed does not pick the snapshot: snapshots differ in compressibility
/// (Sim Set 2 compressed 11x on one seed and 18x on the next), which would
/// let the amount of work per op, not the program, set the run-to-run
/// spread. The seed rotates and scales the fields instead.
pub const SNAPSHOT: u64 = 0;

/// `base` rotated left by a seeded offset: a field with the snapshot's
/// block statistics and values of its own.
pub fn rotated(base: &[f32], seed: u64) -> Vec<f32> {
    let off = (stats::splitmix(seed) % base.len().max(1) as u64) as usize;
    base[off..].iter().chain(&base[..off]).copied().collect()
}

/// Input of the codec-layer probes: a field, a partner field for the
/// homomorphic sum, and their shared absolute bound.
pub struct Probe<'a> {
    pub data: &'a [f32],
    pub partner: &'a [f32],
    pub eb: f64,
}

/// Run `f` `reps` times inside one span, three spans in all; seconds per
/// call is the median span over `reps`.
fn per_call(t: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..3)
        .map(|_| {
            t.span(name, None, |_| {
                for _ in 0..reps {
                    f();
                }
            })
            .1
        })
        .collect();
    stats::median(&secs) / reps as f64
}

/// Calls per span so a span covers at least 16 MiB of input.
fn reps_for(bytes: usize) -> usize {
    (16usize << 20).div_ceil(bytes.max(1))
}

/// Seconds per call of each codec stage on one probe input.
#[derive(Default)]
struct StageTimes {
    bytes: f64,
    compress: f64,
    quantize: f64,
    encode: f64,
    decode: f64,
    decompress: f64,
    sum: f64,
    oszp_compress: f64,
    oszp_decompress: f64,
    small_call: f64,
    p4: u64,
    pairs: u64,
}

fn probe_stages(t: &mut Tracer, p: &Probe<'_>) -> Result<StageTimes, String> {
    let cfg = Config::new(ErrorBound::Abs(p.eb));
    let n = p.data.len();
    let reps = reps_for(n * 4);
    let mut st = StageTimes { bytes: (n * 4) as f64, ..StageTimes::default() };
    let err = |e: fzlight::Error| e.to_string();

    let stream = fzlight::compress(p.data, &cfg).map_err(err)?;
    st.compress = per_call(t, "fzlight::compress", reps, || {
        std::hint::black_box(fzlight::compress(std::hint::black_box(p.data), &cfg).ok());
    });
    st.decompress = per_call(t, "fzlight::decompress", reps, || {
        std::hint::black_box(fzlight::decompress(&stream).ok());
    });

    // the compress pipeline's stages, timed on the same 32-element blocks
    let block = DEFAULT_BLOCK_LEN;
    let inv_2eb = 1.0 / (2.0 * p.eb);
    let mut q = vec![0i32; n];
    st.quantize = per_call(t, "fzlight::quantize_block", reps, || {
        for (i, (v, o)) in p.data.chunks(block).zip(q.chunks_mut(block)).enumerate() {
            fzlight::quantize_block(v, inv_2eb, i * block, o).expect("finite probe input");
        }
    });
    // 1-D Lorenzo deltas over the one thread-chunk, split into magnitudes
    // and a sign bitmap per block as the encoder takes them
    let mut mags = vec![0u32; n];
    let mut signs = vec![0u64; n.div_ceil(block)];
    let mut prev = q.first().map_or(0, |&v| i64::from(v));
    for (i, &v) in q.iter().enumerate() {
        let d = i64::from(v) - prev;
        prev = i64::from(v);
        mags[i] = d.unsigned_abs() as u32;
        signs[i / block] |= u64::from(d < 0) << (i % block);
    }
    let mut enc = Vec::with_capacity(n * 4 + signs.len() * 9);
    st.encode = per_call(t, "fzlight::codec::encode_block", reps, || {
        enc.clear();
        for (b, m) in mags.chunks(block).enumerate() {
            encode_block(m, signs[b], &mut enc);
        }
    });
    let mut deltas = [0i64; DEFAULT_BLOCK_LEN];
    let mut decoded = 0usize;
    st.decode = per_call(t, "fzlight::codec::decode_block", reps, || {
        let mut pos = 0;
        for m in mags.chunks(block) {
            pos += decode_block(&enc[pos..], &mut deltas[..m.len()]).expect("own encoding");
        }
        decoded = pos;
    });
    if decoded != enc.len() {
        return Err(format!("decode consumed {decoded} of {} encoded bytes", enc.len()));
    }

    let partner = fzlight::compress(p.partner, &cfg).map_err(err)?;
    let (_, stats) = hzdyn::homomorphic_sum_with_stats(&stream, &partner).map_err(err)?;
    st.p4 = stats.p4;
    st.pairs = stats.total();
    st.sum = per_call(t, "hzdyn::homomorphic_sum_with_stats", reps, || {
        std::hint::black_box(hzdyn::homomorphic_sum_with_stats(&stream, &partner).ok());
    });

    let oszp = ompszp::compress(p.data, &cfg).map_err(err)?;
    st.oszp_compress = per_call(t, "ompszp::compress", reps, || {
        std::hint::black_box(ompszp::compress(std::hint::black_box(p.data), &cfg).ok());
    });
    st.oszp_decompress = per_call(t, "ompszp::decompress", reps, || {
        std::hint::black_box(ompszp::decompress(&oszp).ok());
    });

    let small: Vec<&[f32]> = p.data.chunks_exact(SMALL_CALL_ELEMS).take(4096).collect();
    st.small_call = per_call(t, "fzlight::compress", 4, || {
        for s in &small {
            std::hint::black_box(fzlight::compress(std::hint::black_box(s), &cfg).ok());
        }
    }) / small.len() as f64;
    Ok(st)
}

/// The fzlight, hzdyn and ompszp per-layer metrics over `probes`, plus their
/// deterministic counts.
pub fn layers(
    t: &mut Tracer,
    probes: &[Probe<'_>],
    stream_peak_gbps: f64,
) -> Result<(Vec<Metric>, Json), String> {
    let all: Vec<StageTimes> =
        probes.iter().map(|p| probe_stages(t, p)).collect::<Result<_, _>>()?;
    let total = |f: fn(&StageTimes) -> f64| all.iter().map(f).sum::<f64>();
    let bytes = total(|s| s.bytes);
    let gbps = |secs: f64| bytes / secs / 1e9;
    let compress = total(|s| s.compress);
    let (quantize, encode) = (total(|s| s.quantize), total(|s| s.encode));
    let p4: u64 = all.iter().map(|s| s.p4).sum();
    let pairs: u64 = all.iter().map(|s| s.pairs).sum();
    let n = probes.len();
    let metrics = vec![
        Metric::new("fzlight.compress_gbps", gbps(compress), "GB/s", n),
        Metric::new(
            "fzlight.compress_pct_stream",
            gbps(compress) / stream_peak_gbps * 100.0,
            "%",
            n,
        ),
        Metric::new("fzlight.quantize_gbps", gbps(quantize), "GB/s", n),
        Metric::new("fzlight.encode_gbps", gbps(encode), "GB/s", n),
        Metric::new("fzlight.decode_gbps", gbps(total(|s| s.decode)), "GB/s", n),
        Metric::new(
            "fzlight.compress_remainder_share",
            1.0 - (quantize + encode) / compress,
            "share",
            n,
        ),
        Metric::new("fzlight.decompress_gbps", gbps(total(|s| s.decompress)), "GB/s", n),
        Metric::new("fzlight.small_call_us", total(|s| s.small_call) / n as f64 * 1e6, "us", n),
        Metric::new("hzdyn.sum_gbps", gbps(total(|s| s.sum)), "GB/s", n),
        Metric::new("hzdyn.p4_share", p4 as f64 / pairs.max(1) as f64, "share", n),
        Metric::new("ompszp.compress_gbps", gbps(total(|s| s.oszp_compress)), "GB/s", n),
        Metric::new("ompszp.decompress_gbps", gbps(total(|s| s.oszp_decompress)), "GB/s", n),
    ];
    let det = Json::obj(vec![
        ("hzdyn_p4_pairs", Json::Num(p4 as f64)),
        ("hzdyn_pairs", Json::Num(pairs as f64)),
    ]);
    Ok((metrics, det))
}
