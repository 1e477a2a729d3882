//! Order statistics and the metric sheet every run prints.

use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One named metric with its unit and, for timings, its sample count.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Sheet {
    pub metrics: Vec<Metric>,
}

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn put_sampled(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: Some(n),
        });
    }

    /// One human-readable line per metric.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            match m.samples {
                Some(n) => println!("metric {} = {} {} (n={n})", m.name, m.value, m.unit),
                None => println!("metric {} = {} {}", m.name, m.value, m.unit),
            }
        }
    }

    /// The `"metrics"` JSON object. Non-finite values are written as
    /// `null`, so a broken measurement cannot pass as a number.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }
}
