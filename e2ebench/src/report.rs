//! Percentiles, request timing records and the result line.

use std::time::Instant;

use sparseinfer::json::Json;
use sparseinfer_trace::replay::percentile_f;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples, by the
/// trace harness's definition; `0.0` for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_f(&v, p / 100.0)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Wall-clock stamps of one request, as seen by the client or driving loop.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    pub submitted: Option<Instant>,
    pub first_token: Option<Instant>,
    pub last_token: Option<Instant>,
    pub tokens: usize,
}

impl Timing {
    pub fn token(&mut self, at: Instant) {
        if self.first_token.is_none() {
            self.first_token = Some(at);
        }
        self.last_token = Some(at);
        self.tokens += 1;
    }

    pub fn ttft_ms(&self) -> Option<f64> {
        Some((self.first_token? - self.submitted?).as_secs_f64() * 1e3)
    }

    /// `(last − first) / (tokens − 1)`; `None` below two tokens.
    pub fn tpot_ms(&self) -> Option<f64> {
        if self.tokens < 2 {
            return None;
        }
        let span = self.last_token? - self.first_token?;
        Some(span.as_secs_f64() * 1e3 / (self.tokens - 1) as f64)
    }
}

/// The end-to-end latency and throughput figures of a timed window.
#[derive(Debug, Clone, Default)]
pub struct Latency {
    pub ttft_p50_ms: f64,
    pub ttft_p90_ms: f64,
    pub tpot_p50_ms: f64,
    pub tpot_p90_ms: f64,
    pub tokens_per_s: f64,
}

impl Latency {
    pub fn from_timings<'a>(
        timings: impl IntoIterator<Item = &'a Timing>,
        tokens: usize,
        wall_s: f64,
    ) -> Self {
        let (mut ttft, mut tpot) = (Vec::new(), Vec::new());
        for t in timings {
            ttft.extend(t.ttft_ms());
            tpot.extend(t.tpot_ms());
        }
        Self {
            ttft_p50_ms: percentile(&ttft, 50.0),
            ttft_p90_ms: percentile(&ttft, 90.0),
            tpot_p50_ms: percentile(&tpot, 50.0),
            tpot_p90_ms: percentile(&tpot, 90.0),
            tokens_per_s: tokens as f64 / wall_s,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ordered `name → (value, unit)` metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_string(),
                        Json::Object(vec![
                            ("value".to_string(), Json::Number(value)),
                            ("unit".to_string(), Json::String(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The benchmark's result line.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> Json {
    Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Number(attempted as f64)),
        ("failed".to_string(), Json::Number(failed as f64)),
        ("metrics".to_string(), metrics.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_sorts_then_takes_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tpot_spans_first_to_last_token() {
        let t0 = Instant::now();
        let mut t = Timing {
            submitted: Some(t0),
            ..Timing::default()
        };
        assert_eq!(t.tpot_ms(), None);
        for ms in [10, 30, 50] {
            t.token(t0 + std::time::Duration::from_millis(ms));
        }
        assert!((t.ttft_ms().unwrap() - 10.0).abs() < 1e-9);
        assert!((t.tpot_ms().unwrap() - 20.0).abs() < 1e-9);
    }
}
