//! Sample sets, quantiles and the metric report both output formats are
//! rendered from.

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them, so the spreads this binary
/// prints match the ones the steadiness check recomputes.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    // The same integer arithmetic as CPython's implementation, clamping
    // (and the extrapolation it implies for tiny n) included.
    let q = |i: i64| {
        let (ld, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), median(&s), q(3))
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Exact `q`-quantile (0..=1) by nearest rank over a sorted copy.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil().clamp(1.0, s.len() as f64) as usize;
    s[rank - 1]
}

/// One reported metric: the median of its samples, with the quartiles
/// and sample count that back it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

/// An ordered list of metrics for one workload run.
#[derive(Default, Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Report the median of `samples` (must be non-empty).
    pub fn samples(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        let (q1, med, q3) = quartiles(samples);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: med,
            n: samples.len(),
            q1,
            q3,
        });
    }

    /// Report a single value: a deterministic count, or a figure that is
    /// one measurement over the whole run.
    pub fn value(&mut self, name: &str, unit: &'static str, v: f64) {
        self.samples(name, unit, &[v]);
    }

    /// Report one figure computed over `n` pooled samples (a percentile of
    /// all requests, say); the table shows `n` as its sample count.
    pub fn pooled(&mut self, name: &str, unit: &'static str, v: f64, n: usize) {
        self.value(name, unit, v);
        self.metrics.last_mut().expect("just pushed").n = n;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable table: value, unit, sample count and quartiles.
    pub fn print_table(&self, title: &str) {
        println!("# {title}");
        println!(
            "# {:<40} {:>16} {:<6} {:>4} {:>14} {:>14}",
            "metric", "median", "unit", "n", "q1", "q3"
        );
        for m in &self.metrics {
            println!(
                "  {:<40} {:>16.6} {:<6} {:>4} {:>14.6} {:>14.6}",
                m.name, m.value, m.unit, m.n, m.q1, m.q3
            );
        }
    }

    /// The `"metrics"` object of the result line.  Values go out with
    /// Rust's shortest round-trip formatting (all their digits).
    pub fn json_metrics(&self, prefix: &str) -> String {
        let parts: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(
                    m.value.is_finite(),
                    "metric {} is not finite: {}",
                    m.name,
                    m.value
                );
                format!(
                    "\"{prefix}{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
    }
}
