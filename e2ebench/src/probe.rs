//! Tracing from outside the program: an in-memory span recorder plus
//! wrappers that time the public calls into the engine and predictor
//! layers. Nothing here changes what the wrapped layers compute; every
//! trait method is forwarded to the wrapped object.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sparseinfer::model::model::DecodeSession;
use sparseinfer::model::{Model, Sampler};
use sparseinfer::predictor::traits::PredictionCost;
use sparseinfer::predictor::{PredictorScratch, SkipMask, SparsityPredictor};
use sparseinfer::sparse::engine::{
    Engine, MemoryEstimate, SparsityStats, SpeculativeStats, StepBlock, WeightFormat,
};
use sparseinfer::sparse::OpCounter;
use sparseinfer::tensor::Vector;

/// Spans kept for the Chrome trace dump; later spans still count in the
/// self-time table but are not stored.
const MAX_STORED_SPANS: usize = 100_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// `u64::MAX` when the span belongs to no request.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Display track (one per recording thread, or per client).
    pub track: u64,
}

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
    /// Time covered by child spans.
    pub child_ns: u64,
}

#[derive(Default)]
struct Book {
    spans: Vec<Span>,
    dropped: u64,
    totals: Vec<(&'static str, Total)>,
}

impl Book {
    fn total(&mut self, name: &'static str) -> &mut Total {
        let i = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.totals.push((name, Total::default()));
                self.totals.len() - 1
            }
        };
        &mut self.totals[i].1
    }
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    book: Mutex<Book>,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    /// Open spans of this thread: `(id, name)`, innermost last.
    static STACK: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
    static TRACK: RefCell<u64> = const { RefCell::new(0) };
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    let _ = RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        book: Mutex::new(Book::default()),
    });
}

/// Nanoseconds since recording was enabled.
pub fn now_ns() -> u64 {
    RECORDER
        .get()
        .map_or(0, |r| r.epoch.elapsed().as_nanos() as u64)
}

/// Names the display track of spans this thread opens.
pub fn set_track(track: u64) {
    TRACK.with(|t| *t.borrow_mut() = track);
}

/// Where an opened span hangs in the tree.
#[derive(Debug, Clone, Copy)]
pub enum Parent {
    /// The innermost span open on this thread (a root span if none).
    Stack,
    /// An explicit span on another thread, by id and name.
    Explicit(u64, &'static str),
}

/// An open span; [`close`](Self::close) records it.
#[must_use]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    parent_name: Option<&'static str>,
    request: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn close(self) {
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last().is_some_and(|&(id, _)| id == self.id) {
                s.pop();
            }
        });
        let Some(r) = RECORDER.get() else { return };
        let track = TRACK.with(|t| *t.borrow());
        let ns = end_ns.saturating_sub(self.start_ns);
        let mut book = r
            .book
            .lock()
            .expect("span book poisoned by a panicking thread");
        let own = book.total(self.name);
        own.count += 1;
        own.ns += ns;
        if let Some(parent) = self.parent_name {
            book.total(parent).child_ns += ns;
        }
        if book.spans.len() < MAX_STORED_SPANS {
            book.spans.push(Span {
                name: self.name,
                id: self.id,
                parent: self.parent,
                request: self.request,
                start_ns: self.start_ns,
                end_ns,
                track,
            });
        } else {
            book.dropped += 1;
        }
    }
}

/// Opens a span, or returns `None` when recording is off. A span opened
/// with [`Parent::Stack`] becomes the parent of later `Stack` spans on
/// this thread until it closes.
pub fn open(name: &'static str, request: u64, parent: Parent) -> Option<Open> {
    let r = RECORDER.get()?;
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, parent_name) = match parent {
        Parent::Explicit(id, name) => (id, Some(name)),
        Parent::Stack => STACK.with(|s| {
            let mut s = s.borrow_mut();
            let top = s.last().copied();
            s.push((id, name));
            top.map_or((0, None), |(id, name)| (id, Some(name)))
        }),
    };
    Some(Open {
        name,
        id,
        parent,
        parent_name,
        request,
        start_ns: now_ns(),
    })
}

/// Records an already-finished root span (e.g. a request's lifetime,
/// stamped by the driving loop).
pub fn record(name: &'static str, request: u64, start_ns: u64, end_ns: u64, track: u64) {
    let Some(r) = RECORDER.get() else { return };
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let mut book = r
        .book
        .lock()
        .expect("span book poisoned by a panicking thread");
    let own = book.total(name);
    own.count += 1;
    own.ns += end_ns.saturating_sub(start_ns);
    if book.spans.len() < MAX_STORED_SPANS {
        book.spans.push(Span {
            name,
            id,
            parent: 0,
            request,
            start_ns,
            end_ns,
            track,
        });
    } else {
        book.dropped += 1;
    }
}

/// Per-name totals recorded so far.
pub fn totals() -> Vec<(&'static str, Total)> {
    RECORDER.get().map_or_else(Vec::new, |r| {
        r.book.lock().expect("span book poisoned").totals.clone()
    })
}

pub fn total(name: &str) -> Total {
    totals()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or_else(Total::default, |(_, t)| t)
}

/// Drains the stored spans and the count of spans not stored.
pub fn take_spans() -> (Vec<Span>, u64) {
    RECORDER.get().map_or_else(
        || (Vec::new(), 0),
        |r| {
            let mut book = r.book.lock().expect("span book poisoned");
            (std::mem::take(&mut book.spans), book.dropped)
        },
    )
}

/// Predictor-layer counters filled by [`TracedPredictor`].
#[derive(Debug, Default)]
pub struct PredictorProbe {
    pub calls: AtomicU64,
    pub rows: AtomicU64,
    pub skipped_rows: AtomicU64,
}

/// Times every `predict_into` call of the wrapped predictor.
#[derive(Debug)]
pub struct TracedPredictor {
    inner: Arc<dyn SparsityPredictor>,
    pub probe: PredictorProbe,
}

impl TracedPredictor {
    pub fn new(inner: Arc<dyn SparsityPredictor>) -> Self {
        Self {
            inner,
            probe: PredictorProbe::default(),
        }
    }
}

impl SparsityPredictor for TracedPredictor {
    fn predict_into(
        &self,
        layer: usize,
        x: &Vector,
        scratch: &mut PredictorScratch,
        mask: &mut SkipMask,
    ) {
        let span = open("predictor", u64::MAX, Parent::Stack);
        self.inner.predict_into(layer, x, scratch, mask);
        if let Some(span) = span {
            span.close();
        }
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        self.probe
            .rows
            .fetch_add(mask.len() as u64, Ordering::Relaxed);
        self.probe
            .skipped_rows
            .fetch_add(mask.skip_count() as u64, Ordering::Relaxed);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn n_layers(&self) -> usize {
        self.inner.n_layers()
    }

    fn prediction_cost(&self, layer: usize) -> PredictionCost {
        self.inner.prediction_cost(layer)
    }

    fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes()
    }
}

/// Engine-layer counters, summed over every wrapped engine.
#[derive(Debug, Default)]
pub struct EngineProbe {
    /// Positions scored by engine calls.
    pub positions: AtomicU64,
    pub calls: AtomicU64,
    /// Wall time inside engine calls.
    pub ns: AtomicU64,
    /// `Engine::ops().macs` of retired engines.
    pub macs: AtomicU64,
    /// `macs × bytes per weight` of retired engines.
    pub weight_bytes: AtomicU64,
    /// Decode tokens behind `Engine::stats()` of retired engines.
    pub stat_tokens: AtomicU64,
    /// Σ tokens × mean effective skip fraction, scaled by 1e6.
    pub effective_skip_micro: AtomicU64,
}

/// Hook told when a wrapped engine finishes the call that produced its
/// request's first-token logits (the serve layer's engine timestamp).
pub type FirstLogitsHook = Arc<dyn Fn(Instant) + Send + Sync>;

/// Times every scoring call of the wrapped engine as an `engine` span and
/// forwards every [`Engine`] method unchanged.
pub struct TracedEngine<'m> {
    inner: Box<dyn Engine + 'm>,
    probe: Arc<EngineProbe>,
    request: u64,
    /// Explicit parent span (cross-thread), else the thread's open span.
    parent: Option<(u64, &'static str)>,
    first_logits: Option<FirstLogitsHook>,
}

impl std::fmt::Debug for TracedEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedEngine")
            .field("inner", &self.inner)
            .field("request", &self.request)
            .finish()
    }
}

impl<'m> TracedEngine<'m> {
    pub fn new(inner: Box<dyn Engine + 'm>, probe: Arc<EngineProbe>, request: u64) -> Self {
        Self {
            inner,
            probe,
            request,
            parent: None,
            first_logits: None,
        }
    }

    pub fn with_parent(mut self, id: u64, name: &'static str) -> Self {
        self.parent = Some((id, name));
        self
    }

    pub fn on_first_logits(mut self, hook: FirstLogitsHook) -> Self {
        self.first_logits = Some(hook);
        self
    }

    fn timed<R>(&mut self, positions: usize, f: impl FnOnce(&mut dyn Engine) -> R) -> R {
        let parent = self
            .parent
            .map_or(Parent::Stack, |(id, name)| Parent::Explicit(id, name));
        let span = open("engine", self.request, parent);
        // An explicit-parent span is not on this thread's stack; push it so
        // predictor spans inside nest under it.
        let pushed = matches!(parent, Parent::Explicit(..)) && span.is_some();
        if let (true, Some(s)) = (pushed, span.as_ref()) {
            STACK.with(|st| st.borrow_mut().push((s.id(), "engine")));
        }
        let started = Instant::now();
        let out = f(self.inner.as_mut());
        self.probe
            .ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Some(span) = span {
            span.close();
        }
        self.probe
            .positions
            .fetch_add(positions as u64, Ordering::Relaxed);
        self.probe.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = self.first_logits.take() {
            hook(Instant::now());
        }
        out
    }
}

impl Drop for TracedEngine<'_> {
    fn drop(&mut self) {
        let macs = self.inner.ops().macs;
        let bytes_per_weight = match self.inner.weight_format() {
            WeightFormat::F32 => 4,
            WeightFormat::Int8 => 1,
        };
        self.probe.macs.fetch_add(macs, Ordering::Relaxed);
        self.probe
            .weight_bytes
            .fetch_add(macs * bytes_per_weight, Ordering::Relaxed);
        if let Some(stats) = self.inner.stats() {
            let layers = stats.mean_effective();
            if !layers.is_empty() && stats.tokens() > 0 {
                let mean = layers.iter().sum::<f64>() / layers.len() as f64;
                self.probe
                    .stat_tokens
                    .fetch_add(stats.tokens(), Ordering::Relaxed);
                self.probe.effective_skip_micro.fetch_add(
                    (mean * stats.tokens() as f64 * 1e6) as u64,
                    Ordering::Relaxed,
                );
            }
        }
    }
}

impl Engine for TracedEngine<'_> {
    fn model(&self) -> &Model {
        self.inner.model()
    }

    fn score_block_into(
        &mut self,
        tokens: &[u32],
        session: &mut DecodeSession,
        logits: &mut [Vector],
    ) {
        self.timed(tokens.len(), |e| {
            e.score_block_into(tokens, session, logits)
        });
    }

    fn step_into(&mut self, token: u32, session: &mut DecodeSession, logits: &mut Vector) {
        self.timed(1, |e| e.step_into(token, session, logits));
    }

    fn step(&mut self, token: u32, session: &mut DecodeSession) -> Vector {
        self.timed(1, |e| e.step(token, session))
    }

    fn step_block_into(
        &mut self,
        token: u32,
        session: &mut DecodeSession,
        limit: usize,
        out: &mut StepBlock,
    ) {
        self.timed(1, |e| e.step_block_into(token, session, limit, out));
    }

    fn note_accepted(&mut self, accepted: usize) {
        self.inner.note_accepted(accepted);
    }

    fn speculative_stats(&self) -> Option<SpeculativeStats> {
        self.inner.speculative_stats()
    }

    fn ops(&self) -> &OpCounter {
        self.inner.ops()
    }

    fn reset_ops(&mut self) {
        self.inner.reset_ops();
    }

    fn stats(&self) -> Option<&SparsityStats> {
        self.inner.stats()
    }

    fn default_sampler(&self) -> Sampler {
        self.inner.default_sampler()
    }

    fn memory_estimate(&self) -> MemoryEstimate {
        self.inner.memory_estimate()
    }

    fn shared_state_id(&self) -> Option<usize> {
        self.inner.shared_state_id()
    }

    fn weight_format(&self) -> WeightFormat {
        self.inner.weight_format()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
