//! Order statistics over measured samples.

/// The `p`-quantile (`0 <= p <= 1`) of `xs` by linear interpolation between
/// order statistics (the default of NumPy and of R's type 7). `NaN` for an
/// empty sample.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Whether a `p`-quantile of `n` samples has at least ten samples beyond it,
/// the rule for reporting a tail percentile at all.
pub fn tail_is_valid(n: usize, p: f64) -> bool {
    // the epsilon absorbs binary rounding of 1 - p (100 * 0.1 < 10 in f64)
    (n as f64 * (1.0 - p) + 1e-9).floor() >= 10.0
}

/// 64-bit FNV-1a over the bit patterns of `values`, word by word: the
/// identity of an array for the determinism checks.
pub fn checksum(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = values.chunks_exact(2);
    for pair in &mut words {
        let w = u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32);
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for v in words.remainder() {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!tail_is_valid(99, 0.9));
        assert!(tail_is_valid(100, 0.9));
        assert!(tail_is_valid(20, 0.5));
    }

    #[test]
    fn checksum_sees_every_bit() {
        let a = [1.0f32, 2.0, 3.0];
        let mut b = a;
        b[2] = f32::from_bits(b[2].to_bits() ^ 1);
        assert_ne!(checksum(&a), checksum(&b));
        assert_eq!(checksum(&a), checksum(&[1.0, 2.0, 3.0]));
    }
}
