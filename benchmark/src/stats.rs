//! Order statistics over timing samples.

use deca_check::json::Json;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// benchmark's acceptance rule (interquartile distance over median) uses.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    (exclusive_quantile(&sorted, 0.25), exclusive_quantile(&sorted, 0.75))
}

/// The `p`-quantile (`0 < p < 1`) by the same exclusive method.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    exclusive_quantile(&sorted(values), p)
}

/// The 90th percentile, but only where at least ten samples lie beyond it:
/// below a hundred samples a tail percentile is one or two outliers.
pub fn p90_if_supported(values: &[f64]) -> Option<f64> {
    (values.len() >= 100).then(|| percentile(values, 0.9))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn exclusive_quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    if n == 1 {
        return sorted[0];
    }
    // Position p·(n+1) counted from 1, clamped to the sample range and
    // interpolated (extrapolated at the ends, as Python does).
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
}

/// What the results file records about one cell's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p90: Option<f64>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary { n: values.len(), median: median(values), q1, q3, p90: p90_if_supported(values) }
    }

    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("n", Json::int(self.n as u64)),
            ("median", Json::num(self.median)),
            ("q1", Json::num(self.q1)),
            ("q3", Json::num(self.q3)),
        ];
        if let Some(p90) = self.p90 {
            members.push(("p90", Json::num(p90)));
        }
        Json::obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90_if_supported(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = p90_if_supported(&enough).unwrap();
        assert!((p90 - 90.9).abs() < 1e-9, "{p90}");
        assert_eq!(enough.iter().filter(|&&v| v > p90).count(), 10);
    }

    #[test]
    fn summary_json_carries_p90_only_when_supported() {
        let samples: Vec<f64> = (1..=120).map(|i| f64::from(i) * 0.013).collect();
        let s = Summary::of(&samples);
        let json = Json::parse(&s.to_json().to_compact()).unwrap();
        assert_eq!(json.get("n").and_then(Json::as_u64), Some(120));
        assert_eq!(json.get("median").and_then(Json::as_f64), Some(s.median));
        assert_eq!(json.get("q1").and_then(Json::as_f64), Some(s.q1));
        assert_eq!(json.get("q3").and_then(Json::as_f64), Some(s.q3));
        assert_eq!(json.get("p90").and_then(Json::as_f64), s.p90);
        assert!(s.p90.is_some());
        assert!(Summary::of(&[0.25, 0.5]).to_json().get("p90").is_none());
    }
}
