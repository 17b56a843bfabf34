//! Order statistics and fingerprints. Measurement helpers live here, inside
//! the benchmark, so a change to the product's own `percentile` cannot move
//! a reported number.

/// Ascending copy under a total order (NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them — the rule the driver applies to ten runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread a bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Nearest-rank percentile of an unsorted sample; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples a tail percentile needs so that at least ten lie beyond the
/// reported one: 1 100 for p99.
pub fn samples_needed(p: f64) -> usize {
    (11.0 / (1.0 - p)).round() as usize
}

/// [`percentile`], refused on a sample smaller than [`samples_needed`]: a
/// tail read off fewer observations is noise.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let need = samples_needed(p);
    if values.len() < need {
        return Err(format!(
            "p{:.0} needs {need} samples, got {}",
            p * 100.0,
            values.len()
        ));
    }
    Ok(percentile(values, p))
}

/// A tail percentile that one slow episode of the machine cannot move: the
/// round of `span_s` seconds is cut into `slices` equal windows, each
/// sample goes to the window it was sent in (`sent_s` since the round
/// began), and every non-empty window gives its own [`percentile`]. The
/// caller reports the median over the windows of all rounds. A pooled p99
/// of ~1 300 samples is its 13th-worst; a 0.3 s stall of a shared host
/// supplies those by itself, but spoils only the window it falls in.
pub fn window_tails(
    sent_s: &[f64],
    values: &[f64],
    span_s: f64,
    slices: usize,
    p: f64,
) -> Vec<f64> {
    let mut windows = vec![Vec::new(); slices];
    for (&at, &v) in sent_s.iter().zip(values) {
        let slot = ((at / span_s * slices as f64) as usize).min(slices - 1);
        windows[slot].push(v);
    }
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, p))
        .collect()
}

/// FNV-1a 64 over whatever is folded in, in order. Used for the
/// "arithmetic unchanged" fingerprints, so it must never depend on the
/// product's own checksum code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn f32s(&mut self, values: &[f32]) -> &mut Self {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10.0, 12.0, 11.0, 15.0, 9.0], n=4) == [9.5, 11.0, 13.5]
        assert_eq!(
            quartiles(&[10.0, 12.0, 11.0, 15.0, 9.0]),
            Some([9.5, 11.0, 13.5])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn p99_refuses_fewer_than_1100_samples() {
        assert_eq!(samples_needed(0.99), 1100);
        let short: Vec<f64> = (0..1099).map(f64::from).collect();
        assert!(tail_percentile(&short, 0.99).is_err());
        let enough: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Ok(1089.0));
    }

    #[test]
    fn window_tails_confine_a_stall_to_its_window() {
        // 4 s at 100 samples/s, latency 10 + a little; one 0.3 s stall of
        // 30 slow samples in the second of four windows.
        let sent: Vec<f64> = (0..400).map(|i| f64::from(i) / 100.0).collect();
        let values: Vec<f64> = (0..400)
            .map(|i| {
                if (120..150).contains(&i) {
                    90.0
                } else {
                    10.0 + f64::from(i % 10) / 10.0
                }
            })
            .collect();
        let tails = window_tails(&sent, &values, 4.0, 4, 0.99);
        assert_eq!(tails, vec![10.9, 90.0, 10.9, 10.9]);
        assert_eq!(median(&tails), 10.9);
        // The pooled p99 reads the stall instead.
        assert_eq!(percentile(&values, 0.99), 90.0);
        // Empty windows give nothing; a sample sent at the very end lands
        // in the last window.
        assert_eq!(window_tails(&[0.1, 4.0], &[1.0, 2.0], 4.0, 4, 0.99), vec![1.0, 2.0]);
    }

    #[test]
    fn fnv_matches_reference_vectors_and_is_order_sensitive() {
        assert_eq!(Fnv::default().bytes(b"").0, 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").0, 0xaf63_dc4c_8601_ec8c);
        let ab = Fnv::default().u64(1).u64(2).0;
        let ba = Fnv::default().u64(2).u64(1).0;
        assert_ne!(ab, ba);
        assert_eq!(Fnv::default().f32s(&[1.5]).hex().len(), 16);
    }
}
