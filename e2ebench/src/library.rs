//! The two library workloads at `sim_7b` scale, driven through the
//! `Scheduler` in scheduler ticks.
//!
//! Arrivals are stamped in ticks, so which requests share a tick, get
//! admitted, hit the prefix cache or get preempted depends only on the
//! seed. Wall time enters only through how long each tick takes. The run
//! stops issuing requests once `--seconds` have passed and then drains
//! whatever is in flight.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::kv::KvDtype;
use sparseinfer::model::{Model, ModelConfig};
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SparsityPredictor};
use sparseinfer::sparse::engine::{Engine, EngineBuilder, QuantizedWeights};
use sparseinfer::sparse::request::{FinishReason, GenerateRequest, Priority};
use sparseinfer::sparse::scheduler::{BatchOutput, Scheduler, SchedulerConfig};
use sparseinfer::tensor::Prng;
use sparseinfer_trace::{PrefixMix, TraceSpec};

use crate::probe::{self, EngineProbe, Parent, TracedEngine, TracedPredictor};
use crate::report::{self, Latency, Metrics, Timing};
use crate::{LayerMetrics, Outcome};

/// Weight seed of the benchmarked model; fixed so every workload seed
/// runs against the same weights.
pub const MODEL_SEED: u64 = 42;
/// Seed of the fixed dense-agreement prompts (independent of `--seed`).
const AGREEMENT_SEED: u64 = 0x5EED_A11C;
const AGREEMENT_PROMPTS: usize = 3;
const AGREEMENT_PROMPT_TOKENS: usize = 8;
const AGREEMENT_NEW_TOKENS: usize = 16;
const BLOCK_TOKENS: usize = 16;
/// Token ids are drawn from `1..VOCAB` (the `sim_7b` vocabulary).
const VOCAB: u32 = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop of 4 tick-time clients, short unshared prompts, f32.
    ChatDecode,
    /// Bursty open loop over shared 64-token prefixes, int8 + f16 KV,
    /// priority mix under a tight KV budget.
    RagPrefill,
}

/// Everything built before the first request can be submitted.
pub struct Setup {
    model: Model,
    predictor: Arc<dyn SparsityPredictor>,
    quantized: Option<Arc<QuantizedWeights>>,
}

pub fn setup(kind: Kind) -> Setup {
    let model = WeightGenerator::new(&ModelConfig::sim_7b(), MODEL_SEED).build();
    let predictor: Arc<dyn SparsityPredictor> = Arc::new(SignBitPredictor::from_model(
        &model,
        AlphaSchedule::uniform(1.0),
    ));
    let quantized =
        (kind == Kind::RagPrefill).then(|| Arc::new(QuantizedWeights::quantize(&model)));
    Setup {
        model,
        predictor,
        quantized,
    }
}

fn scheduler_config(kind: Kind, max_slots: usize) -> SchedulerConfig {
    let builder = SchedulerConfig::builder()
        .max_slots(max_slots)
        .block_tokens(BLOCK_TOKENS);
    match kind {
        Kind::ChatDecode => builder.kv_dtype(KvDtype::F32),
        Kind::RagPrefill => builder
            .kv_dtype(KvDtype::F16)
            .kv_block_budget(RAG_KV_BLOCKS),
    }
    .build()
    .expect("benchmark scheduler configuration is valid")
}

/// The 4 cached prefixes (4 blocks × 32 layers each) plus 4 slots' gross
/// worst case (96 tokens → 6 blocks × 32 layers): admission never has to
/// evict a cached prefix, whose cold re-prefill costs 64 dense tokens.
/// Preemption comes from High arrivals finding all 4 slots busy.
const RAG_KV_BLOCKS: usize = 4 * 4 * 32 + 4 * 6 * 32;

/// The workload's engine: sign-bit at α = 1.0 over the shared predictor
/// (plus the shared int8 weights for `rag_prefill`), single-threaded.
fn engine<'m>(s: &'m Setup, predictor: Arc<dyn SparsityPredictor>) -> Box<dyn Engine + 'm> {
    let mut b = EngineBuilder::new(&s.model).predictor_shared(predictor);
    if let Some(q) = &s.quantized {
        b = b.quantized_shared(Arc::clone(q));
    }
    b.build().expect("sign-bit engine matches its model")
}

/// One request of the generated traffic.
#[derive(Debug, Clone)]
struct Job {
    prompt: Vec<u32>,
    max_new: usize,
    priority: Priority,
    prefix: Option<usize>,
}

impl Job {
    fn request(&self) -> GenerateRequest {
        GenerateRequest::new(&self.prompt)
            .max_new(self.max_new)
            .priority(self.priority)
    }
}

/// Draws from an inclusive range so that every value appears once per
/// `hi − lo + 1` draws, in a seeded order: across seeds the mix of
/// lengths is the same and only its order changes.
struct Stratified {
    lo: usize,
    hi: usize,
    rng: Prng,
    block: Vec<usize>,
}

impl Stratified {
    fn new(lo: usize, hi: usize, rng: Prng) -> Self {
        Self {
            lo,
            hi,
            rng,
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = (self.lo..=self.hi).collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled above")
    }
}

/// `chat_decode` traffic: the k-th submitted request (in tick order) gets
/// the k-th draw — prompts of 4–12 fresh tokens, 16–32 new tokens.
struct ChatTraffic {
    prompt_len: Stratified,
    max_new: Stratified,
    body: Prng,
}

impl ChatTraffic {
    fn new(seed: u64) -> Self {
        let mut root = Prng::seed(seed);
        Self {
            prompt_len: Stratified::new(4, 12, root.fork(1)),
            max_new: Stratified::new(16, 32, root.fork(2)),
            body: root.fork(3),
        }
    }

    fn next(&mut self) -> Job {
        let len = self.prompt_len.next();
        let prompt = (0..len)
            .map(|_| 1 + self.body.below(VOCAB as usize - 1) as u32)
            .collect();
        Job {
            prompt,
            max_new: self.max_new.next(),
            priority: Priority::Normal,
            prefix: None,
        }
    }
}

/// Concurrent logical clients of `chat_decode`.
const CHAT_CLIENTS: usize = 4;

/// The `rag_prefill` shared-prefix population: 4 prefixes of 64 tokens,
/// whose bodies depend only on the prefix id.
fn rag_prefixes() -> TraceSpec {
    TraceSpec {
        prefixes: PrefixMix {
            prefixes: 4,
            prefix_tokens: 64,
            shared_fraction: 0.8,
        },
        vocab: VOCAB,
        ..TraceSpec::bursty(0)
    }
}

/// Ticks between burst starts. A burst's prefixed requests take ~88 ticks
/// (64 cached prefix positions, 8–16 body tokens, 8–16 new tokens) and the
/// preempted one up to ~130, so each burst finds the slots empty and every
/// burst runs the same way. Ticks with no active slot cost next to no wall
/// time, so the gap sets the schedule, not the load. A fixed period rather
/// than `TraceSpec::bursty`'s exponential gaps: with ~30 requests per run,
/// random gaps made `ttft_p90_ms` spread by 0.46 of its median across seeds.
const RAG_BURST_GAP_TICKS: u64 = 136;
/// Ticks from a burst to its High request: past the burst's cached prefix
/// positions, while all 4 slots prefill their bodies.
const RAG_HIGH_DELAY_TICKS: u64 = 66;
/// Requests per burst: one per shared prefix plus the High one.
const RAG_BURST: usize = 5;

/// `rag_prefill` traffic, in arrival order: an open loop in tick time.
/// Every burst has the same make-up and the seed only shuffles it and
/// draws lengths. 4 requests arrive on one tick, one on each of the 4
/// shared prefixes, 3 Normal and 1 Batch; they fill the 4 slots. A High
/// request without a prefix follows `RAG_HIGH_DELAY_TICKS` later, finds
/// every slot busy and preempts (swaps out) the Batch one, so every burst
/// preempts exactly once and 80% of prompts are shared. Every prompt then
/// has 8–16 fresh tokens, and every request 8–16 new tokens (so each
/// TPOT averages 7–15 ticks): each burst hands out the lengths 8, 10, 12,
/// 14 and 16 once each, in a seeded order. Bodies stay within one 16-token
/// block, so only the shared prefixes are published to the prefix cache.
struct RagTraffic {
    prefixes: TraceSpec,
    body_len: Stratified,
    max_new: Stratified,
    order: Prng,
    body: Prng,
    bursts: u64,
    /// The rest of the current burst, latest arrival first.
    burst: Vec<(u64, Job)>,
}

impl RagTraffic {
    fn new(seed: u64) -> Self {
        let mut root = Prng::seed(seed);
        Self {
            prefixes: rag_prefixes(),
            body_len: Stratified::new(0, RAG_BURST - 1, root.fork(4)),
            max_new: Stratified::new(0, RAG_BURST - 1, root.fork(5)),
            order: root.fork(6),
            body: root.fork(7),
            bursts: 0,
            burst: Vec::new(),
        }
    }

    fn job(&mut self, prefix: Option<usize>, priority: Priority) -> Job {
        let mut prompt = prefix.map_or_else(Vec::new, |p| self.prefixes.prefix_tokens(p));
        let len = 8 + 2 * self.body_len.next();
        prompt.extend((0..len).map(|_| 1 + self.body.below(VOCAB as usize - 1) as u32));
        Job {
            prompt,
            max_new: 8 + 2 * self.max_new.next(),
            priority,
            prefix,
        }
    }

    /// The next request and the window tick it arrives on.
    fn next(&mut self) -> (u64, Job) {
        if self.burst.is_empty() {
            let at = self.bursts * RAG_BURST_GAP_TICKS;
            self.bursts += 1;
            let mut prefixes = [0, 1, 2, 3];
            let mut classes = [
                Priority::Normal,
                Priority::Normal,
                Priority::Normal,
                Priority::Batch,
            ];
            self.order.shuffle(&mut prefixes);
            self.order.shuffle(&mut classes);
            let mut burst: Vec<(u64, Job)> = prefixes
                .into_iter()
                .zip(classes)
                .map(|(p, c)| (at, self.job(Some(p), c)))
                .collect();
            burst.push((at + RAG_HIGH_DELAY_TICKS, self.job(None, Priority::High)));
            burst.reverse();
            self.burst = burst;
        }
        self.burst.pop().expect("refilled above")
    }
}

/// Prefills every shared prefix once, so the timed window starts from the
/// steady state of a server whose system prompts are already cached. The
/// prefix token bodies do not depend on the seed.
fn warm_prefixes<'m>(sched: &mut Scheduler<'m>, s: &'m Setup) {
    let spec = rag_prefixes();
    for p in 0..spec.prefixes.prefixes {
        let mut prompt = spec.prefix_tokens(p);
        prompt.push(1);
        sched
            .submit(
                engine(s, Arc::clone(&s.predictor)),
                &GenerateRequest::new(&prompt).max_new(1),
            )
            .expect("a warm-up request fits the budget");
    }
    while sched.tick(|_| {}) > 0 {}
    let _ = sched.take_finished();
}

/// What one tick looked like, for the traced run.
#[derive(Debug, Clone, Copy, Default)]
struct TickSample {
    ns: u64,
    engine_ns: u64,
    active: usize,
    kv_blocks: usize,
    kv_bytes: u64,
    reserved: usize,
    swapped_bytes: u64,
}

/// Layer probes of the traced run.
struct Probes {
    predictor: Arc<TracedPredictor>,
    engine: Arc<EngineProbe>,
}

/// The timed window's state.
struct Window<'m> {
    sched: Scheduler<'m>,
    /// Scheduler id of the first timed request and tick of the window
    /// start (warm-up requests come before both).
    id_base: usize,
    tick0: u64,
    jobs: Vec<Job>,
    timings: Vec<Timing>,
    outputs: Vec<Option<BatchOutput>>,
    submit_ns: Vec<u64>,
    rejected: usize,
    tokens: usize,
}

impl<'m> Window<'m> {
    fn submit(&mut self, engine: Box<dyn Engine + 'm>, job: Job) {
        match self.sched.submit(engine, &job.request()) {
            Ok(handle) => {
                debug_assert_eq!(handle.id(), self.id_base + self.jobs.len());
                self.jobs.push(job);
                self.timings.push(Timing {
                    submitted: Some(Instant::now()),
                    ..Timing::default()
                });
                self.outputs.push(None);
                self.submit_ns.push(probe::now_ns());
            }
            Err(_) => self.rejected += 1,
        }
    }

    /// One scheduler tick; returns the requests that finished in it.
    fn tick(&mut self, probes: Option<(&Probes, &mut Vec<TickSample>)>) -> Vec<usize> {
        let span = probe::open("tick", u64::MAX, Parent::Stack);
        let started = Instant::now();
        let engine_before = probes.as_ref().map_or(0, |(p, _)| p.engine_ns());
        let (timings, tokens, base) = (&mut self.timings, &mut self.tokens, self.id_base);
        self.sched.tick(|ev| {
            timings[ev.request - base].token(Instant::now());
            *tokens += 1;
        });
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(span) = span {
            span.close();
        }
        let mut finished = self.sched.take_finished();
        for o in &mut finished {
            o.id -= self.id_base;
        }
        let ids: Vec<usize> = finished.iter().map(|o| o.id).collect();
        if let Some((p, ticks)) = probes {
            let stats = self.sched.stats();
            ticks.push(TickSample {
                ns,
                engine_ns: p.engine_ns() - engine_before,
                active: stats.active_slots + finished.len(),
                kv_blocks: stats.kv_blocks_in_use,
                kv_bytes: stats.kv_in_use_bytes,
                reserved: stats.reserved_blocks + stats.prefix.retained_blocks,
                swapped_bytes: stats.preemption.swapped_bytes,
            });
            let end_ns = probe::now_ns();
            for o in &finished {
                probe::record(
                    "request",
                    o.id as u64,
                    self.submit_ns[o.id],
                    end_ns,
                    1 + o.id as u64 % 16,
                );
            }
        }
        for o in finished {
            let id = o.id;
            self.outputs[id] = Some(o);
        }
        ids
    }

    fn idle(&self) -> bool {
        self.sched.stats().retired == self.id_base + self.jobs.len()
    }
}

impl Probes {
    fn engine_ns(&self) -> u64 {
        self.engine.ns.load(Ordering::Relaxed)
    }
}

pub fn run(kind: Kind, s: &Setup, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let probes = traced.then(|| Probes {
        predictor: Arc::new(TracedPredictor::new(Arc::clone(&s.predictor))),
        engine: Arc::new(EngineProbe::default()),
    });
    let mut ticks: Vec<TickSample> = Vec::new();
    let predictor: Arc<dyn SparsityPredictor> = match &probes {
        Some(p) => Arc::clone(&p.predictor) as Arc<dyn SparsityPredictor>,
        None => Arc::clone(&s.predictor),
    };
    let make_engine = |request: u64| -> Box<dyn Engine + '_> {
        let e = engine(s, Arc::clone(&predictor));
        match &probes {
            Some(p) => Box::new(TracedEngine::new(e, Arc::clone(&p.engine), request)),
            None => e,
        }
    };

    let mut sched = Scheduler::new(scheduler_config(kind, 4));
    if kind == Kind::RagPrefill {
        warm_prefixes(&mut sched, s);
    }
    let mut w = Window {
        id_base: sched.submitted(),
        tick0: sched.ticks(),
        sched,
        jobs: Vec::new(),
        timings: Vec::new(),
        outputs: Vec::new(),
        submit_ns: Vec::new(),
        rejected: 0,
        tokens: 0,
    };
    let started = Instant::now();
    let deadline = |now: Instant| now.duration_since(started).as_secs_f64() >= seconds;
    let window_start_ns = probe::now_ns();
    match kind {
        Kind::ChatDecode => {
            let mut traffic = ChatTraffic::new(seed);
            // Clients ready to submit on the next tick.
            let mut ready = CHAT_CLIENTS;
            loop {
                if !deadline(Instant::now()) {
                    for _ in 0..ready {
                        let id = w.jobs.len() as u64;
                        w.submit(make_engine(id), traffic.next());
                    }
                    ready = 0;
                } else if w.idle() {
                    break;
                }
                ready += w.tick(probes.as_ref().map(|p| (p, &mut ticks))).len();
            }
        }
        Kind::RagPrefill => {
            let mut traffic = RagTraffic::new(seed);
            let mut next = traffic.next();
            loop {
                if !deadline(Instant::now()) {
                    let now = w.sched.ticks() - w.tick0;
                    while next.0 <= now {
                        let id = w.jobs.len() as u64;
                        w.submit(make_engine(id), next.1);
                        next = traffic.next();
                    }
                } else if w.idle() {
                    break;
                }
                w.tick(probes.as_ref().map(|p| (p, &mut ticks)));
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let window_ns = probe::now_ns() - window_start_ns;

    let outputs: Vec<BatchOutput> = std::mem::take(&mut w.outputs)
        .into_iter()
        .map(|o| o.expect("drained window retires every request"))
        .collect();
    let latency = Latency::from_timings(&w.timings, w.tokens, wall_s);
    let mut failed = w.rejected;
    let mut ok = vec![true; outputs.len()];
    for (i, o) in outputs.iter().enumerate() {
        let finished_ok = matches!(o.finish, FinishReason::MaxTokens | FinishReason::Stop(_));
        if !finished_ok || w.timings[i].tokens != o.tokens.len() {
            ok[i] = false;
        }
    }
    // Output check: a fixed subset re-run alone must match token for token.
    let subset = check_subset(kind, &w.jobs, &outputs);
    let solo = solo_tokens(
        kind,
        s,
        &subset
            .iter()
            .map(|&i| w.jobs[i].clone())
            .collect::<Vec<_>>(),
    );
    let mut mismatches = 0;
    for (&i, tokens) in subset.iter().zip(&solo) {
        if *tokens != outputs[i].tokens {
            eprintln!("output check: request {i} differs from its solo re-run");
            ok[i] = false;
            mismatches += 1;
        }
    }
    failed += ok.iter().filter(|&&k| !k).count();
    let attempted = outputs.len() + w.rejected;
    let agreement = dense_agreement_pct(kind, s);

    let layers = probes.map(|p| layer_metrics(&p, &ticks, &w, &outputs, window_ns));
    Outcome {
        attempted,
        failed,
        checks_passed: mismatches == 0,
        latency,
        agreement_pct: agreement,
        layers,
    }
}

/// Requests re-run alone for the output check: the first two for
/// `chat_decode`; for `rag_prefill`, the first preempted request (else the
/// first with a shared prefix), the next request on the same prefix, and
/// the first unshared request.
fn check_subset(kind: Kind, jobs: &[Job], outputs: &[BatchOutput]) -> Vec<usize> {
    match kind {
        Kind::ChatDecode => (0..outputs.len().min(2)).collect(),
        Kind::RagPrefill => {
            let first = outputs
                .iter()
                .position(|o| o.preemptions > 0)
                .or_else(|| jobs.iter().position(|j| j.prefix.is_some()));
            let mut subset: Vec<usize> = first.into_iter().collect();
            if let Some(f) = first {
                let prefix = jobs[f].prefix;
                subset.extend(
                    (0..jobs.len())
                        .find(|&i| i != f && prefix.is_some() && jobs[i].prefix == prefix),
                );
            }
            subset.extend(jobs.iter().position(|j| j.prefix.is_none()));
            subset
        }
    }
}

/// Runs `jobs` one after another through a single-slot scheduler of the
/// workload's configuration and returns each one's tokens.
fn solo_tokens(kind: Kind, s: &Setup, jobs: &[Job]) -> Vec<Vec<u32>> {
    let mut sched = Scheduler::new(scheduler_config(kind, 1));
    for job in jobs {
        sched
            .submit(engine(s, Arc::clone(&s.predictor)), &job.request())
            .expect("a request that ran batched fits a solo scheduler");
    }
    sched.run().into_iter().map(|o| o.tokens).collect()
}

/// The fixed agreement prompts — the same on every seed and workload.
fn agreement_jobs() -> Vec<Job> {
    let mut rng = Prng::seed(AGREEMENT_SEED);
    (0..AGREEMENT_PROMPTS)
        .map(|_| Job {
            prompt: (0..AGREEMENT_PROMPT_TOKENS)
                .map(|_| 1 + rng.below(VOCAB as usize - 1) as u32)
                .collect(),
            max_new: AGREEMENT_NEW_TOKENS,
            priority: Priority::Normal,
            prefix: None,
        })
        .collect()
}

/// Share of greedy tokens of the workload's engine that equal dense-f32
/// greedy output, position by position, on the fixed agreement prompts.
fn dense_agreement_pct(kind: Kind, s: &Setup) -> f64 {
    let jobs = agreement_jobs();
    let sparse = solo_tokens(kind, s, &jobs);
    let mut dense_sched = Scheduler::new(scheduler_config(Kind::ChatDecode, 1));
    for job in &jobs {
        dense_sched
            .submit(
                EngineBuilder::new(&s.model).build().expect("dense engine"),
                &job.request(),
            )
            .expect("agreement prompt fits");
    }
    let dense: Vec<Vec<u32>> = dense_sched.run().into_iter().map(|o| o.tokens).collect();
    agreement(&sparse, &dense)
}

/// Position-wise token agreement of `a` against reference `b`, in percent.
pub fn agreement(a: &[Vec<u32>], b: &[Vec<u32>]) -> f64 {
    let total: usize = b.iter().map(Vec::len).sum();
    let same: usize = a
        .iter()
        .zip(b)
        .map(|(x, y)| x.iter().zip(y).filter(|(p, q)| p == q).count())
        .sum();
    100.0 * same as f64 / total.max(1) as f64
}

fn layer_metrics(
    p: &Probes,
    ticks: &[TickSample],
    w: &Window<'_>,
    outputs: &[BatchOutput],
    window_ns: u64,
) -> LayerMetrics {
    let mut m = LayerMetrics::engine_layers(&p.predictor, &p.engine);
    let (jobs, tick0, stats) = (&w.jobs, w.tick0, w.sched.stats());

    // Prefill ticks, from admission stamps and prefix-skipped positions:
    // prompt position `i` of a request admitted on tick `a` runs on tick
    // `a + i`; positions below the skipped count are cache no-ops, and the
    // last position goes through the engine. Tick samples start at the
    // window's first tick, `tick0`.
    let n = ticks.len();
    let mut prefills = vec![0usize; n];
    let mut prefill_tokens = 0usize;
    for (o, job) in outputs.iter().zip(jobs) {
        let Some(admitted) = o.admitted_tick else {
            continue;
        };
        for pos in o.prefill_skipped_tokens..job.prompt.len().saturating_sub(1) {
            let t = (admitted + pos as u64 - tick0) as usize;
            if t < n {
                prefills[t] += 1;
            }
            prefill_tokens += 1;
        }
    }
    let self_ns = |t: &TickSample| t.ns.saturating_sub(t.engine_ns) as f64;
    let (mut prefill_ns, mut overhead) = (0.0, Vec::new());
    for (t, &k) in ticks.iter().zip(&prefills) {
        if k > 0 {
            prefill_ns += self_ns(t);
        } else if t.active > 0 {
            overhead.push(self_ns(t) / 1e6);
        }
    }
    m.put("prefill.tokens", prefill_tokens as f64, "count");
    m.put(
        "prefill.ms_per_token",
        prefill_ns / 1e6 / prefill_tokens.max(1) as f64,
        "ms",
    );

    let tick_ms: Vec<f64> = ticks.iter().map(|t| t.ns as f64 / 1e6).collect();
    let queue_wait: Vec<f64> = outputs
        .iter()
        .filter_map(|o| Some(o.admitted_tick? as f64 - o.submitted_tick as f64))
        .collect();
    let prompt_tokens: usize = jobs.iter().map(|j| j.prompt.len()).sum();
    let skipped: usize = outputs.iter().map(|o| o.prefill_skipped_tokens).sum();
    let active: Vec<f64> = ticks.iter().map(|t| t.active as f64).collect();
    m.put("scheduler.ticks", n as f64, "count");
    m.put(
        "scheduler.tick_ms_p50",
        report::percentile(&tick_ms, 50.0),
        "ms",
    );
    m.put(
        "scheduler.tick_ms_p90",
        report::percentile(&tick_ms, 90.0),
        "ms",
    );
    m.put(
        "scheduler.overhead_ms_per_tick",
        report::mean(&overhead),
        "ms",
    );
    m.put(
        "scheduler.active_slots_mean",
        report::mean(&active),
        "count",
    );
    m.put(
        "scheduler.queue_wait_ticks_p50",
        report::percentile(&queue_wait, 50.0),
        "ticks",
    );
    m.put(
        "scheduler.queue_wait_ticks_p90",
        report::percentile(&queue_wait, 90.0),
        "ticks",
    );
    m.put(
        "scheduler.prefix_hit_pct",
        100.0 * skipped as f64 / prompt_tokens.max(1) as f64,
        "pct",
    );
    let pre = &stats.preemption;
    m.put("scheduler.preemptions", pre.preemptions as f64, "count");
    m.put("scheduler.swapped_out", pre.swapped_out as f64, "count");
    m.put("scheduler.recomputed", pre.recomputed as f64, "count");

    let peak_blocks = ticks.iter().map(|t| t.kv_blocks).max().unwrap_or(0);
    let peak_bytes = ticks.iter().map(|t| t.kv_bytes).max().unwrap_or(0);
    let unused: Vec<f64> = ticks
        .iter()
        .filter(|t| t.reserved > 0)
        .map(|t| 100.0 * t.reserved.saturating_sub(t.kv_blocks) as f64 / t.reserved as f64)
        .collect();
    let swapped_peak = ticks.iter().map(|t| t.swapped_bytes).max().unwrap_or(0);
    m.put("kv.peak_blocks", peak_blocks as f64, "count");
    m.put("kv.peak_mb", peak_bytes as f64 / (1 << 20) as f64, "MB");
    m.put("kv.reserved_unused_pct", report::mean(&unused), "pct");
    m.put(
        "kv.swapped_mb",
        swapped_peak as f64 / (1 << 20) as f64,
        "MB",
    );

    m.serve_bypassed();
    m.attribution(window_ns, window_ns, w.tokens, &["tick"]);
    m
}

pub fn put_latency(m: &mut Metrics, l: &Latency) {
    m.put("ttft_p50_ms", l.ttft_p50_ms, "ms");
    m.put("ttft_p90_ms", l.ttft_p90_ms, "ms");
    m.put("tpot_p50_ms", l.tpot_p50_ms, "ms");
    m.put("tpot_p90_ms", l.tpot_p90_ms, "ms");
    m.put("tokens_per_s", l.tokens_per_s, "1/s");
}
