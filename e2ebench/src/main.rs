//! `e2ebench`: the repository's end-to-end serving benchmark.
//!
//! ```text
//! e2ebench --workload <chat_decode|rag_prefill|http_stream> --seed <n>
//!          --seconds <s> --trace <0|1> [--out <file>] [--spans <file>]
//! ```
//!
//! One run builds the workload's setup (timed as `setup_s`, the median of
//! several builds), drives its traffic for `--seconds`, checks the
//! outputs, and prints one JSON result line last on stdout. With
//! `--trace 0` the line holds the end-to-end metrics; with `--trace 1` the
//! run wraps the engine and predictor layers, records spans, and reports
//! per-layer metrics instead (never both from one run). `--out` appends
//! the result line, tagged with workload, seed and trace flag, to a file;
//! `--spans` names the Chrome trace-event dump of a traced run. Nothing
//! else is written. The exit code is non-zero when any output check
//! fails.

mod http;
mod library;
mod probe;
mod report;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use sparseinfer::json::Json;

use probe::{EngineProbe, TracedPredictor};
use report::{Latency, Metrics};

const USAGE: &str = "usage: e2ebench --workload <chat_decode|rag_prefill|http_stream> \
--seed <n> --seconds <s> --trace <0|1> [--out <file>] [--spans <file>]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ChatDecode,
    RagPrefill,
    HttpStream,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "chat_decode" => Some(Self::ChatDecode),
            "rag_prefill" => Some(Self::RagPrefill),
            "http_stream" => Some(Self::HttpStream),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ChatDecode => "chat_decode",
            Self::RagPrefill => "rag_prefill",
            Self::HttpStream => "http_stream",
        }
    }

    /// Set-up builds per run; `setup_s` is their median.
    fn setup_repeats(self) -> usize {
        match self {
            Self::HttpStream => 9,
            _ => 3,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out, mut spans) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out" => out = Some(value()?),
            "--spans" => spans = Some(value()?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        spans,
    })
}

/// What a workload run hands back.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every output check (solo re-run / library identity) passed.
    pub checks_passed: bool,
    pub latency: Latency,
    pub agreement_pct: f64,
    /// Per-layer metrics; `Some` only on a traced run.
    pub layers: Option<LayerMetrics>,
}

/// Per-layer metrics of a traced run plus its time attribution.
pub struct LayerMetrics {
    pub metrics: Metrics,
    /// `(row, ns)`: self times of each span name plus the unattributed
    /// remainder; they sum to the traced wall clock.
    pub attribution: Vec<(String, u64)>,
    pub attributed_wall_ns: u64,
}

impl LayerMetrics {
    /// Predictor and engine rows, from the wrappers' counters and span
    /// totals. "Per token" means per position an engine call scored.
    pub fn engine_layers(predictor: &TracedPredictor, engine: &EngineProbe) -> Self {
        use std::sync::atomic::Ordering::Relaxed;
        let mut m = Metrics::default();
        let positions = engine.positions.load(Relaxed).max(1) as f64;
        let pred = probe::total("predictor");
        let eng = probe::total("engine");
        let rows = predictor.probe.rows.load(Relaxed).max(1) as f64;
        let skipped = predictor.probe.skipped_rows.load(Relaxed) as f64;
        m.put(
            "predictor.ms_per_token",
            pred.ns as f64 / 1e6 / positions,
            "ms",
        );
        m.put("predictor.skip_pct", 100.0 * skipped / rows, "pct");
        m.put("engine.ms_per_token", eng.ns as f64 / 1e6 / positions, "ms");
        m.put(
            "engine.self_ms_per_token",
            eng.ns.saturating_sub(eng.child_ns) as f64 / 1e6 / positions,
            "ms",
        );
        m.put(
            "engine.macs_per_token",
            engine.macs.load(Relaxed) as f64 / positions,
            "count",
        );
        let stat_tokens = engine.stat_tokens.load(Relaxed).max(1) as f64;
        m.put(
            "engine.effective_skip_pct",
            100.0 * engine.effective_skip_micro.load(Relaxed) as f64 / 1e6 / stat_tokens,
            "pct",
        );
        // Computed, not measured: MACs × bytes per weight (4 for f32, 1
        // for int8).
        m.put(
            "engine.weight_mb_per_token",
            engine.weight_bytes.load(Relaxed) as f64 / positions / (1 << 20) as f64,
            "MB",
        );
        Self {
            metrics: m,
            attribution: Vec::new(),
            attributed_wall_ns: 0,
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.put(name, value, unit);
    }

    /// The serve rows of a workload that bypasses `crates/serve`.
    pub fn serve_bypassed(&mut self) {
        for name in [
            "serve.headers_ms_p50",
            "serve.first_event_after_engine_ms_p50",
            "serve.first_event_after_engine_ms_p90",
        ] {
            self.put(name, 0.0, "ms");
        }
        self.put("serve.rejected", 0.0, "count");
        self.put("serve.errors", 0.0, "count");
    }

    /// Splits `tracks_ns` — the summed wall clock of every root-span
    /// track — into each span name's self time (its duration minus its
    /// children) plus the time no root span covers. `roots` names the
    /// root spans; `request` lifetime spans overlap the others and are
    /// left out. Also adds the `trace.*` rows, per emitted token over the
    /// timed window `window_ns`.
    pub fn attribution(&mut self, window_ns: u64, tracks_ns: u64, tokens: usize, roots: &[&str]) {
        let mut rows = Vec::new();
        let mut covered = 0u64;
        for (name, t) in probe::totals() {
            if name == "request" {
                continue;
            }
            if roots.contains(&name) {
                covered += t.ns;
            }
            rows.push((format!("{name} (self)"), t.ns.saturating_sub(t.child_ns)));
        }
        let unattributed = tracks_ns.saturating_sub(covered);
        rows.push(("unattributed".to_string(), unattributed));
        let tokens = tokens.max(1) as f64;
        let spans: u64 = probe::totals().iter().map(|(_, t)| t.count).sum();
        self.put(
            "trace.wall_ms_per_token",
            window_ns as f64 / 1e6 / tokens,
            "ms",
        );
        self.put(
            "trace.unattributed_ms_per_token",
            unattributed as f64 / 1e6 / tokens,
            "ms",
        );
        self.put("trace.spans", spans as f64, "count");
        self.attribution = rows;
        self.attributed_wall_ns = tracks_ns;
    }
}

/// Writes the stored spans as Chrome trace-event JSON (loadable in
/// Perfetto), with the attribution table under `otherData`.
fn write_spans(path: &str, workload: Workload, layers: &LayerMetrics) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let (spans, dropped) = probe::take_spans();
    let mut s = String::with_capacity(spans.len() * 160 + 1024);
    s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let request = if sp.request == u64::MAX {
            "null".to_string()
        } else {
            sp.request.to_string()
        };
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            sp.name,
            sp.track,
            sp.start_ns as f64 / 1e3,
            sp.end_ns.saturating_sub(sp.start_ns) as f64 / 1e3,
            sp.id,
            sp.parent,
            request,
        );
    }
    let rows = Json::Array(
        layers
            .attribution
            .iter()
            .map(|(name, ns)| {
                Json::Object(vec![
                    ("row".to_string(), Json::String(name.clone())),
                    ("ms".to_string(), Json::Number(*ns as f64 / 1e6)),
                ])
            })
            .collect(),
    );
    let other = Json::Object(vec![
        (
            "workload".to_string(),
            Json::String(workload.name().to_string()),
        ),
        ("spans_not_stored".to_string(), Json::Number(dropped as f64)),
        (
            "attributed_wall_ms".to_string(),
            Json::Number(layers.attributed_wall_ns as f64 / 1e6),
        ),
        ("attribution".to_string(), rows),
    ]);
    let _ = write!(s, "\n],\"otherData\":{}}}\n", other.to_json());
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, s)
}

/// Builds the workload's set-up `setup_repeats` times, pushing each
/// build's seconds to `times` and keeping the last. The first build is
/// timed from process start; each earlier build is dropped before the next
/// starts, so only one is ever resident.
fn timed_setups<S>(
    workload: Workload,
    process_start: Instant,
    times: &mut Vec<f64>,
    setup: impl Fn() -> S,
) -> S {
    let mut kept = None;
    for i in 0..workload.setup_repeats() {
        drop(kept.take());
        let t = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    kept.expect("at least one setup")
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        probe::enable();
    }

    let mut setup_s = Vec::new();
    let outcome = match args.workload {
        Workload::HttpStream => {
            let s = timed_setups(args.workload, process_start, &mut setup_s, http::setup);
            http::run(s, args.seed, args.seconds, args.trace)
        }
        w => {
            let kind = if w == Workload::ChatDecode {
                library::Kind::ChatDecode
            } else {
                library::Kind::RagPrefill
            };
            let s = timed_setups(w, process_start, &mut setup_s, || library::setup(kind));
            library::run(kind, &s, args.seed, args.seconds, args.trace)
        }
    };

    eprintln!("setup builds (s): {setup_s:.3?}");
    let correct = outcome.checks_passed && outcome.failed == 0;
    let metrics = match &outcome.layers {
        None => {
            let mut m = Metrics::default();
            m.put("setup_s", report::median(&setup_s), "s");
            library::put_latency(&mut m, &outcome.latency);
            let ok = outcome.attempted - outcome.failed.min(outcome.attempted);
            m.put(
                "success_pct",
                100.0 * ok as f64 / outcome.attempted.max(1) as f64,
                "pct",
            );
            m.put("dense_agreement_pct", outcome.agreement_pct, "pct");
            m.put("peak_rss_mb", report::peak_rss_mb(), "MB");
            m
        }
        Some(layers) => {
            eprintln!(
                "attribution of {:.1} ms traced wall clock:",
                layers.attributed_wall_ns as f64 / 1e6
            );
            for (row, ns) in &layers.attribution {
                eprintln!(
                    "  {row:<24} {:>12.3} ms {:>6.2}%",
                    *ns as f64 / 1e6,
                    100.0 * *ns as f64 / layers.attributed_wall_ns.max(1) as f64
                );
            }
            let path = args.spans.clone().unwrap_or_else(|| {
                format!(
                    "e2ebench/out/spans-{}-seed{}.json",
                    args.workload.name(),
                    args.seed
                )
            });
            match write_spans(&path, args.workload, layers) {
                Ok(()) => eprintln!("spans written to {path}"),
                Err(e) => eprintln!("warning: could not write spans to {path}: {e}"),
            }
            Metrics(layers.metrics.0.clone())
        }
    };
    for (name, value, unit) in &metrics.0 {
        eprintln!("{name:<40} {value:>14.4} {unit}");
    }
    let line = report::result_json(correct, outcome.attempted, outcome.failed, &metrics);
    if let Some(path) = &args.out {
        let tagged = Json::Object(vec![
            (
                "workload".to_string(),
                Json::String(args.workload.name().to_string()),
            ),
            ("seed".to_string(), Json::Number(args.seed as f64)),
            ("trace".to_string(), Json::Bool(args.trace)),
            ("result".to_string(), line.clone()),
        ]);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", tagged.to_json()));
        if let Err(e) = appended {
            eprintln!("error: could not append the result to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", line.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "output check FAILED: {} of {} requests",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
