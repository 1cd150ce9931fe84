//! `http_stream`: `crates/serve` in this process on a loopback port, a
//! closed loop of 4 keep-alive clients streaming 32-token generations of
//! 8-token prompts from the first 4 layers of `ModelConfig::sim_7b()`.
//!
//! A token of that model costs milliseconds, so a loopback wake-up that
//! the host delays by a fraction of a millisecond moves no figure much;
//! the serve layer's own cost is isolated by the traced run's `serve.*`
//! rows. With 4 clients each request spans ~0.5 s, so a host stall of a
//! few tens of milliseconds is a small share of it: with 2 clients the
//! TPOT p90 of ten seeds spread by 0.25 of its median.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sparseinfer::json::Json;
use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::{Model, ModelConfig};
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SparsityPredictor};
use sparseinfer::sparse::engine::{Engine, EngineBuilder};
use sparseinfer::sparse::error::EngineError;
use sparseinfer::sparse::request::GenerateRequest;
use sparseinfer::sparse::scheduler::{Scheduler, SchedulerConfig};
use sparseinfer::tensor::Prng;
use sparseinfer_serve::{Client, Server, ServerConfig, StatsSnapshot};

use crate::library::{agreement, MODEL_SEED};
use crate::probe::{self, EngineProbe, Parent, TracedEngine, TracedPredictor};
use crate::report::{self, Latency, Timing};
use crate::{LayerMetrics, Outcome};

const CLIENTS: usize = 4;
/// Distinct prompts per client, cycled in order.
const PROMPTS_PER_CLIENT: usize = 4;
const PROMPT_TOKENS: usize = 8;
const MAX_NEW: usize = 32;
const BLOCK_TOKENS: usize = 16;

/// The served model: `sim_7b` cut to its first 4 layers.
fn model_config() -> ModelConfig {
    ModelConfig {
        name: "ProSparse-7B-sim-4layer".into(),
        n_layers: 4,
        ..ModelConfig::sim_7b()
    }
}

pub struct Setup {
    model: Model,
    predictor: Arc<dyn SparsityPredictor>,
    server: Server,
}

/// The `sparseinfer-serve` binary's defaults: 4 slots, 1 slot thread, 4
/// connection threads, a 64-deep queue, 16-token KV blocks, an
/// 8192-block budget, prefix cache on, f32 weights and KV.
fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: scheduler_config(4),
        slot_threads: 1,
        connection_threads: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    }
}

fn scheduler_config(max_slots: usize) -> SchedulerConfig {
    SchedulerConfig::builder()
        .max_slots(max_slots)
        .block_tokens(BLOCK_TOKENS)
        .kv_block_budget(8192)
        .prefix_cache(true)
        .build()
        .expect("server scheduler configuration is valid")
}

pub fn setup() -> Setup {
    let model = WeightGenerator::new(&model_config(), MODEL_SEED).build();
    let predictor: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
        &model,
        AlphaSchedule::uniform(1.0),
    ));
    let server = Server::bind(server_config()).expect("bind a loopback port");
    Setup {
        model,
        predictor,
        server,
    }
}

fn engine<'m>(
    model: &'m Model,
    predictor: &Arc<dyn SparsityPredictor>,
) -> Result<Box<dyn Engine + 'm>, EngineError> {
    EngineBuilder::new(model)
        .predictor_shared(Arc::clone(predictor))
        .build()
}

/// Client `c`'s prompts, from `--seed`.
fn prompts(seed: u64, vocab: usize) -> Vec<Vec<Vec<u32>>> {
    let mut rng = Prng::seed(seed);
    (0..CLIENTS)
        .map(|c| {
            let mut r = rng.fork(c as u64 + 1);
            (0..PROMPTS_PER_CLIENT)
                .map(|_| {
                    (0..PROMPT_TOKENS)
                        .map(|_| 1 + r.below(vocab - 1) as u32)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Per-client state the traced engine wrappers write into.
#[derive(Default)]
struct ClientSlot {
    /// Id of the client's open `http_request` span.
    span: AtomicU64,
    /// When the engine produced the current request's first-token logits.
    first_logits: Mutex<Option<Instant>>,
}

/// What one client saw. Requests are checked against the library tokens
/// as they stream, so the log holds no tokens and its size does not follow
/// throughput into `peak_rss_mb`.
#[derive(Default)]
struct ClientLog {
    timings: Vec<Timing>,
    attempted: usize,
    failed: usize,
    /// Streams that finished but differ from the library tokens.
    mismatches: usize,
    tokens: usize,
    rejected: usize,
    errors: usize,
    /// Traced runs only.
    headers_ms: Vec<f64>,
    /// Traced runs only.
    after_engine_ms: Vec<f64>,
    wall_ns: u64,
}

/// One client's requests: JSON bodies and the library tokens each stream
/// must equal.
struct Script {
    bodies: Vec<String>,
    reference: Vec<Vec<u32>>,
}

fn client_loop(
    c: usize,
    addr: std::net::SocketAddr,
    script: &Script,
    start: Instant,
    seconds: f64,
    slot: &ClientSlot,
) -> ClientLog {
    probe::set_track(100 + c as u64);
    let mut log = ClientLog::default();
    let mut conn: Option<Client> = None;
    let mut k = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let pi = k % script.bodies.len();
        k += 1;
        log.attempted += 1;
        let client = match conn.take() {
            Some(client) => client,
            None => match Client::connect(addr) {
                Ok(client) => client,
                Err(_) => {
                    log.errors += 1;
                    log.failed += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let span = probe::open("http_request", k as u64, Parent::Stack);
        if let Some(s) = &span {
            slot.span.store(s.id(), Ordering::SeqCst);
        }
        *slot.first_logits.lock().expect("client slot poisoned") = None;
        let mut timing = Timing {
            submitted: Some(Instant::now()),
            ..Timing::default()
        };
        let expected = &script.reference[pi];
        let (mut same, mut finished_ok) = (true, false);
        match client.post_streaming("/v1/generate", &script.bodies[pi]) {
            Err(e) => {
                // The client reports a non-streaming answer only through
                // its error text; a 503 is backpressure, anything else a
                // transport or protocol error.
                if e.to_string().contains("got 503") {
                    log.rejected += 1;
                } else {
                    log.errors += 1;
                }
            }
            Ok(mut stream) => {
                let head = Instant::now();
                if span.is_some() {
                    if let Some(t0) = timing.submitted {
                        log.headers_ms.push((head - t0).as_secs_f64() * 1e3);
                    }
                }
                loop {
                    match stream.next_event() {
                        Ok(Some(ev)) => {
                            if let Some(f) = ev.get("finish").and_then(Json::as_str) {
                                finished_ok = matches!(f, "max_tokens" | "stop");
                            } else if let Some(t) = ev.get("token").and_then(Json::as_u64) {
                                let now = Instant::now();
                                if timing.tokens == 0 && span.is_some() {
                                    let engine_at =
                                        *slot.first_logits.lock().expect("client slot poisoned");
                                    if let Some(at) = engine_at {
                                        log.after_engine_ms.push(
                                            now.saturating_duration_since(at).as_secs_f64() * 1e3,
                                        );
                                    }
                                }
                                same &= expected.get(timing.tokens) == Some(&(t as u32));
                                timing.token(now);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            log.errors += 1;
                            break;
                        }
                    }
                }
                conn = stream.into_client().ok();
            }
        }
        if let Some(span) = span {
            span.close();
        }
        same &= timing.tokens == expected.len();
        if finished_ok && !same {
            log.mismatches += 1;
        }
        if !(finished_ok && same) {
            log.failed += 1;
        }
        log.tokens += timing.tokens;
        log.timings.push(timing);
    }
    log.wall_ns = start.elapsed().as_nanos() as u64;
    log
}

/// Each prompt's tokens from the library: alone through a single-slot
/// scheduler with the server's configuration and the same engine.
fn library_tokens(
    model: &Model,
    predictor: &Arc<dyn SparsityPredictor>,
    prompts: &[Vec<u32>],
) -> Vec<Vec<u32>> {
    let mut sched = Scheduler::new(scheduler_config(1));
    for p in prompts {
        sched
            .submit(
                engine(model, predictor).expect("sign-bit engine"),
                &GenerateRequest::new(p).max_new(MAX_NEW),
            )
            .expect("reference prompt fits");
    }
    sched.run().into_iter().map(|o| o.tokens).collect()
}

pub fn run(s: Setup, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let Setup {
        model,
        predictor,
        server,
    } = s;
    let vocab = model.config().vocab_size;
    let prompts = prompts(seed, vocab);
    let slots: Vec<ClientSlot> = (0..CLIENTS).map(|_| ClientSlot::default()).collect();
    let owner: HashMap<Vec<u32>, usize> = prompts
        .iter()
        .enumerate()
        .flat_map(|(c, ps)| ps.iter().map(move |p| (p.clone(), c)))
        .collect();
    let traced_predictor = traced.then(|| Arc::new(TracedPredictor::new(Arc::clone(&predictor))));
    let engine_probe = Arc::new(EngineProbe::default());
    let served: Arc<dyn SparsityPredictor> = match &traced_predictor {
        Some(p) => Arc::clone(p) as Arc<dyn SparsityPredictor>,
        None => Arc::clone(&predictor),
    };
    let slots = Arc::new(slots);
    let factory = |req: &GenerateRequest| -> Result<Box<dyn Engine + '_>, EngineError> {
        let e = engine(&model, &served)?;
        if !traced {
            return Ok(e);
        }
        let mut wrapped = TracedEngine::new(e, Arc::clone(&engine_probe), u64::MAX);
        if let Some(&c) = owner.get(&req.prompt) {
            let span = slots[c].span.load(Ordering::SeqCst);
            let slots = Arc::clone(&slots);
            wrapped = wrapped
                .with_parent(span, "http_request")
                .on_first_logits(Arc::new(move |at| {
                    *slots[c].first_logits.lock().expect("client slot poisoned") = Some(at);
                }));
        }
        Ok(Box::new(wrapped))
    };

    // The HTTP identity contract's reference, computed before the window
    // (neither timed nor part of `setup_s`).
    let scripts: Vec<Script> = prompts
        .iter()
        .map(|ps| Script {
            bodies: ps
                .iter()
                .map(|p| {
                    Json::Object(vec![
                        (
                            "prompt".to_string(),
                            Json::Array(p.iter().map(|&t| Json::Number(t as f64)).collect()),
                        ),
                        ("max_new".to_string(), Json::Number(MAX_NEW as f64)),
                    ])
                    .to_json()
                })
                .collect(),
            reference: library_tokens(&model, &predictor, ps),
        })
        .collect();

    let handle = server.handle();
    let addr = handle.addr();
    let window_start_ns = probe::now_ns();
    let start = Instant::now();
    let (logs, final_stats) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&factory));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (script, slot) = (&scripts[c], &slots[c]);
                scope.spawn(move || client_loop(c, addr, script, start, seconds, slot))
            })
            .collect();
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        handle.shutdown();
        (logs, serving.join().expect("server thread panicked"))
    });
    let wall_s = logs.iter().map(|l| l.wall_ns).max().unwrap_or(0) as f64 / 1e9;
    let window_ns = probe::now_ns() - window_start_ns;

    let attempted: usize = logs.iter().map(|l| l.attempted).sum();
    let failed: usize = logs.iter().map(|l| l.failed).sum();
    let mismatches: usize = logs.iter().map(|l| l.mismatches).sum();
    let tokens: usize = logs.iter().map(|l| l.tokens).sum();
    if mismatches > 0 {
        eprintln!("output check: {mismatches} HTTP streams differ from the library tokens");
    }
    let latency = Latency::from_timings(logs.iter().flat_map(|l| &l.timings), tokens, wall_s);
    let agreement_pct = dense_agreement_pct(&model, &predictor);

    let layers = traced_predictor
        .map(|p| layer_metrics(&p, &engine_probe, &logs, &final_stats, window_ns, tokens));
    Outcome {
        attempted,
        failed,
        checks_passed: mismatches == 0,
        latency,
        agreement_pct,
        layers,
    }
}

/// Greedy sign-bit tokens against dense-f32 greedy tokens on this
/// workload's fixed agreement set: the prompts of seed 0.
fn dense_agreement_pct(model: &Model, predictor: &Arc<dyn SparsityPredictor>) -> f64 {
    let fixed = prompts(0, model.config().vocab_size);
    let run = |dense: bool| -> Vec<Vec<u32>> {
        let mut sched = Scheduler::new(scheduler_config(1));
        for p in fixed.iter().flatten() {
            let e = if dense {
                EngineBuilder::new(model).build().expect("dense engine")
            } else {
                engine(model, predictor).expect("sign-bit engine")
            };
            sched
                .submit(e, &GenerateRequest::new(p).max_new(MAX_NEW))
                .expect("agreement prompt fits");
        }
        sched.run().into_iter().map(|o| o.tokens).collect()
    };
    agreement(&run(false), &run(true))
}

fn layer_metrics(
    predictor: &TracedPredictor,
    engine: &EngineProbe,
    logs: &[ClientLog],
    stats: &StatsSnapshot,
    window_ns: u64,
    tokens: usize,
) -> LayerMetrics {
    let mut m = LayerMetrics::engine_layers(predictor, engine);
    let s = &stats.scheduler;
    // Prefill, tick timing and per-request tick stamps live inside the
    // server's owner thread and are not observable from outside: 0.
    m.put("prefill.tokens", 0.0, "count");
    m.put("prefill.ms_per_token", 0.0, "ms");
    m.put("scheduler.ticks", s.ticks as f64, "count");
    m.put("scheduler.tick_ms_p50", 0.0, "ms");
    m.put("scheduler.tick_ms_p90", 0.0, "ms");
    m.put("scheduler.overhead_ms_per_tick", 0.0, "ms");
    m.put("scheduler.active_slots_mean", 0.0, "count");
    m.put("scheduler.queue_wait_ticks_p50", 0.0, "ticks");
    m.put("scheduler.queue_wait_ticks_p90", 0.0, "ticks");
    let requests: usize = logs.iter().map(|l| l.timings.len()).sum();
    let prompt_tokens = requests * PROMPT_TOKENS;
    m.put(
        "scheduler.prefix_hit_pct",
        100.0 * s.prefix.skipped_tokens as f64 / prompt_tokens.max(1) as f64,
        "pct",
    );
    m.put(
        "scheduler.preemptions",
        s.preemption.preemptions as f64,
        "count",
    );
    m.put(
        "scheduler.swapped_out",
        s.preemption.swapped_out as f64,
        "count",
    );
    m.put(
        "scheduler.recomputed",
        s.preemption.recomputed as f64,
        "count",
    );
    // One block holds `BLOCK_TOKENS` keys and values of one layer.
    let hidden = model_config().hidden_dim;
    let block_bytes = (BLOCK_TOKENS * hidden * 2 * s.kv_bytes_per_elem.max(1)) as u64;
    m.put(
        "kv.peak_blocks",
        (stats.kv_peak_in_use_bytes / block_bytes) as f64,
        "count",
    );
    m.put(
        "kv.peak_mb",
        stats.kv_peak_in_use_bytes as f64 / (1 << 20) as f64,
        "MB",
    );
    m.put("kv.reserved_unused_pct", 0.0, "pct");
    m.put(
        "kv.swapped_mb",
        s.preemption.swapped_bytes as f64 / (1 << 20) as f64,
        "MB",
    );
    let headers: Vec<f64> = logs.iter().flat_map(|l| l.headers_ms.clone()).collect();
    let after: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.after_engine_ms.clone())
        .collect();
    m.put("serve.headers_ms_p50", report::median(&headers), "ms");
    m.put(
        "serve.first_event_after_engine_ms_p50",
        report::percentile(&after, 50.0),
        "ms",
    );
    m.put(
        "serve.first_event_after_engine_ms_p90",
        report::percentile(&after, 90.0),
        "ms",
    );
    m.put(
        "serve.rejected",
        logs.iter().map(|l| l.rejected).sum::<usize>() as f64,
        "count",
    );
    m.put(
        "serve.errors",
        logs.iter().map(|l| l.errors).sum::<usize>() as f64,
        "count",
    );
    let tracks_ns = logs.iter().map(|l| l.wall_ns).sum();
    m.attribution(window_ns, tracks_ns, tokens, &["http_request"]);
    m
}
