//! Micro-batching inference engine with admission control.
//!
//! Connections each hold one prediction at a time; tree traversal is
//! cheapest when rows are pushed through the model together. The batcher
//! bridges the two: [`Batcher::submit_with`] enqueues a row into a
//! bounded queue together with the [`ShardSink`] its answer goes to;
//! dedicated batch workers drain up to [`BatchConfig::max_batch`] rows at
//! a time — waiting at most [`BatchConfig::flush`] after the first row
//! arrives so singles are not delayed indefinitely — run one
//! `FittedModel::predict` over the whole batch, and fan results back out.
//!
//! **Admission control:** when the queue already holds
//! [`BatchConfig::queue_cap`] rows, `submit_with` fails *immediately* with
//! [`SubmitError::Overloaded`]. The front end turns that into an explicit
//! 503 so an overloaded service sheds work in bounded time instead of
//! stacking latency until clients time out.
//!
//! **Determinism:** each row is predicted by `FittedModel::predict` on
//! the model version current when its batch starts; batching composes
//! rows, never their arithmetic, so results are bitwise identical to
//! offline single-row prediction.

use crate::eventloop::ShardSink;
use crate::metrics::ServerMetrics;
use crate::registry::{LoadedModel, ModelRegistry};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Largest batch one worker executes at once.
    pub max_batch: usize,
    /// How long a partially-filled batch may wait for company.
    pub flush: Duration,
    /// Queue capacity; submissions beyond this are shed.
    pub queue_cap: usize,
    /// Batch-executing threads.
    pub workers: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            flush: Duration::from_micros(100),
            queue_cap: 1024,
            workers: 2,
        }
    }
}

/// One completed prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted transfer rate (bytes/s), bitwise equal to offline
    /// `FittedModel::predict` on the same row.
    pub rate: f64,
    /// Version of the model that produced it.
    pub version: Arc<str>,
    /// Size of the batch this row rode in (observability).
    pub batch_size: usize,
    /// Per-feature attribution, present only for `/explain` submissions.
    pub explain: Option<Explanation>,
}

/// Saabas-style path attribution for one served prediction:
/// `rate == bias + Σ contributions` **bitwise** (the reconciliation in
/// `wdt_ml::exact_reconcile` guarantees the fold lands on the served
/// rate exactly).
#[derive(Clone)]
pub struct Explanation {
    /// Attribution intercept (base score plus per-tree root values).
    pub bias: f64,
    /// Signed contribution per kept feature, in the model's kept-column
    /// order (`FittedModel::feature_names` gives the matching names).
    pub contributions: Vec<f64>,
    /// The exact model version that produced the attribution — carried
    /// so rendering reads feature names from the same artifact even if
    /// a hot-swap lands between inference and emit.
    pub model: Arc<LoadedModel>,
}

impl std::fmt::Debug for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explanation")
            .field("bias", &self.bias)
            .field("contributions", &self.contributions)
            .field("version", &self.model.version)
            .finish()
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity — caller should report 503 and back off.
    Overloaded,
    /// The batcher is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "inference queue full"),
            SubmitError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Job {
    row: Vec<f64>,
    enqueued: Instant,
    /// The shard's completion address; delivery hands the row vector back
    /// too, so the shard can recycle it through its row pool.
    reply: ShardSink,
    /// `Some(buffer)` marks an `/explain` submission: the batch worker
    /// fills the buffer with per-feature contributions. The vector is
    /// caller-supplied so the event loop can recycle it through a pool.
    explain: Option<Vec<f64>>,
}

struct Shared {
    queue: Mutex<QueueState>,
    arrived: Condvar,
    registry: Arc<ModelRegistry>,
    metrics: Arc<ServerMetrics>,
    cfg: BatchConfig,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Serve everything currently queued without further patience: set
    /// by [`Batcher::kick`] when a submitter knows its burst is complete,
    /// cleared once a worker has drained the queue.
    flush_now: bool,
}

/// The micro-batching engine; see the module docs.
pub struct Batcher {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Batcher {
    /// Start `cfg.workers` batch threads over `registry`.
    pub fn start(
        registry: Arc<ModelRegistry>,
        metrics: Arc<ServerMetrics>,
        cfg: BatchConfig,
    ) -> Arc<Batcher> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
                flush_now: false,
            }),
            arrived: Condvar::new(),
            registry,
            metrics,
            cfg: cfg.clone(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("wdt-batch-{i}"))
                    .spawn(move || batch_loop(&shared))
                    .expect("spawn batch worker")
            })
            .collect();
        Arc::new(Batcher { shared, workers: Mutex::new(workers) })
    }

    /// Enqueue one row (serving-schema layout). Non-blocking: either the
    /// row is admitted and `reply` is delivered exactly one [`Prediction`],
    /// even across shutdown (the drain in [`Batcher::shutdown`] finishes
    /// the queue before workers exit), or the queue is full / shutting
    /// down. `explain: Some(buffer)` requests per-feature attributions.
    pub fn submit_with(
        &self,
        row: Vec<f64>,
        explain: Option<Vec<f64>>,
        reply: ShardSink,
    ) -> Result<(), SubmitError> {
        let notify = {
            let mut q = self.shared.queue.lock().expect("batch queue poisoned");
            if q.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if q.jobs.len() >= self.shared.cfg.queue_cap {
                return Err(SubmitError::Overloaded);
            }
            q.jobs.push_back(Job { row, enqueued: Instant::now(), reply, explain });
            self.shared.metrics.queue_depth.set(q.jobs.len() as f64);
            // Wake a worker when the queue goes non-empty, and wake
            // another when a full batch exists. Intermediate pushes stay
            // silent: a worker in its patience window would only be
            // woken to immediately wait again, and on a busy machine
            // those wakeups are pure context-switch overhead.
            q.jobs.len() == 1 || q.jobs.len() == self.shared.cfg.max_batch
        };
        if notify {
            self.shared.arrived.notify_one();
        }
        Ok(())
    }

    /// Flush hint: serve everything queued right now without waiting out
    /// the patience window. Called by a submitter that knows its burst is
    /// complete — the event-loop poller issues one `kick` at the end of
    /// each readiness pass, because no more rows can arrive until some
    /// response it has not yet written unblocks a client. No-op on an
    /// empty queue.
    pub fn kick(&self) {
        {
            let mut q = self.shared.queue.lock().expect("batch queue poisoned");
            if q.jobs.is_empty() {
                return;
            }
            q.flush_now = true;
        }
        self.shared.arrived.notify_all();
    }

    /// Current queue depth (observability).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("batch queue poisoned").jobs.len()
    }

    /// Stop accepting work, drain everything already queued, and join the
    /// workers. Every admitted submission still gets its reply.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().expect("batch queue poisoned");
            q.shutdown = true;
        }
        self.shared.arrived.notify_all();
        let mut workers = self.workers.lock().expect("worker list poisoned");
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Worker body: collect a batch (first job immediately, then up to
/// `flush` of patience for more), predict, fan out, repeat.
///
/// All per-batch storage — the drained job list, the row/reply splits,
/// the rate output, and the model's prepared-row scratch — lives in
/// worker-local vectors that are cleared, never dropped, so a warmed-up
/// worker executes whole batches without touching the allocator
/// (`predict_into` reuses the scratch the same way).
fn batch_loop(shared: &Shared) {
    let cfg = &shared.cfg;
    let mut batch: Vec<Job> = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut replies: Vec<(Instant, ShardSink, Option<Vec<f64>>)> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    let mut scratch = wdt_model::PredictScratch::default();
    let mut explain_scratch = wdt_model::PredictScratch::default();
    loop {
        batch.clear();
        {
            let mut q = shared.queue.lock().expect("batch queue poisoned");
            // Wait for work (or shutdown with an empty queue → exit).
            loop {
                if !q.jobs.is_empty() {
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = shared.arrived.wait(q).expect("batch queue poisoned");
            }
            // Patience phase: a partial batch lingers until the flush
            // deadline in case more rows arrive. Skipped when the batch
            // is already full, a `kick` marked the burst complete, or
            // the service is draining.
            let deadline = Instant::now() + cfg.flush;
            while q.jobs.len() < cfg.max_batch && !q.shutdown && !q.flush_now {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) =
                    shared.arrived.wait_timeout(q, deadline - now).expect("batch queue poisoned");
                q = guard;
                if timeout.timed_out() {
                    break;
                }
                // Another worker may have taken everything while we
                // waited; go back to the outer wait.
                if q.jobs.is_empty() {
                    break;
                }
            }
            let take = q.jobs.len().min(cfg.max_batch);
            if take == q.jobs.len() {
                // The kick's burst is fully claimed; later arrivals get
                // a fresh patience window.
                q.flush_now = false;
            }
            batch.extend(q.jobs.drain(..take));
            shared.metrics.queue_depth.set(q.jobs.len() as f64);
        }
        if batch.is_empty() {
            continue;
        }

        let loaded = shared.registry.current();
        let n = batch.len();
        rows.clear();
        replies.clear();
        for job in batch.drain(..) {
            rows.push(job.row);
            replies.push((job.enqueued, job.reply, job.explain));
        }
        // `predict_into` is bitwise-identical to `predict` (it runs the
        // same serial block kernel) but reuses `rates` and `scratch`.
        loaded.model.predict_into(&rows, &mut rates, &mut scratch);
        shared.metrics.batch_size.record(n as u64);
        for ((enqueued, reply, explain_buf), (&rate, row)) in
            replies.drain(..).zip(rates.iter().zip(rows.drain(..)))
        {
            shared.metrics.predict_latency_us.record(enqueued.elapsed().as_micros() as u64);
            // Explain submissions rerun the row through the attribution
            // kernel; its prediction fold is bitwise-identical to the
            // batch result, and serving the fold's own target makes
            // `bias + Σ contributions == rate` hold by construction.
            let (rate, explain) = match explain_buf {
                Some(mut contribs) => {
                    let (bias, pred) =
                        loaded.model.explain_row_into(&row, &mut contribs, &mut explain_scratch);
                    debug_assert_eq!(pred.to_bits(), rate.to_bits());
                    let e = Explanation { bias, contributions: contribs, model: loaded.clone() };
                    (pred, Some(e))
                }
                None => (rate, None),
            };
            // The version Arc is pre-built at model load time: cloning
            // is a refcount bump, not a per-batch string allocation.
            reply.deliver(
                Prediction { rate, version: loaded.version_shared.clone(), batch_size: n, explain },
                row,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eventloop::TestShard;
    use crate::registry::{ModelRegistry, ServeSchema};
    use wdt_features::Dataset;
    use wdt_model::{FitConfig, FittedModel, ModelKind};

    fn test_registry(name: &str) -> (Arc<ModelRegistry>, FittedModel) {
        let dir = std::env::temp_dir().join("wdt-batcher-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let schema = ServeSchema::prediction();
        let w = schema.width();
        let x: Vec<Vec<f64>> =
            (0..200).map(|i| (0..w).map(|j| ((i * (j + 2)) % 19) as f64).collect()).collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] + r[1] * r[1] + r[5]).collect();
        let model = FittedModel::fit(
            &Dataset::new(schema.names().to_vec(), x, y),
            ModelKind::Gbdt,
            &FitConfig::default(),
        )
        .expect("fit");
        std::fs::write(dir.join("v1.json"), model.to_json()).unwrap();
        let offline = FittedModel::from_json(&model.to_json()).unwrap();
        (Arc::new(ModelRegistry::open(dir, schema).unwrap()), offline)
    }

    #[test]
    fn batched_predictions_match_offline_bitwise() {
        let (registry, offline) = test_registry("bitwise");
        let metrics = Arc::new(ServerMetrics::new());
        let batcher = Batcher::start(registry.clone(), metrics.clone(), BatchConfig::default());
        let w = registry.schema().width();
        let mut shard = TestShard::new();

        let rows: Vec<Vec<f64>> =
            (0..64).map(|i| (0..w).map(|j| ((i + j * 7) % 23) as f64 / 3.0).collect()).collect();
        for (seq, row) in rows.iter().enumerate() {
            batcher.submit_with(row.clone(), None, shard.sink(seq as u64)).expect("admit");
        }
        for (row, p) in rows.iter().zip(shard.wait_for(rows.len())) {
            let expect = offline.predict_row(row);
            assert_eq!(p.rate.to_bits(), expect.to_bits(), "row {row:?}");
            assert_eq!(&*p.version, "v1");
            assert!(p.batch_size >= 1);
        }
        assert!(metrics.batch_size.count() >= 1);
        batcher.shutdown();
    }

    #[test]
    fn explained_predictions_reconstruct_the_served_rate_bitwise() {
        let (registry, offline) = test_registry("explain");
        let metrics = Arc::new(ServerMetrics::new());
        let batcher = Batcher::start(registry.clone(), metrics, BatchConfig::default());
        let w = registry.schema().width();
        let mut shard = TestShard::new();
        for i in 0..8usize {
            let row: Vec<f64> = (0..w).map(|j| ((i + j * 5) % 13) as f64 / 2.0).collect();
            batcher.submit_with(row.clone(), Some(Vec::new()), shard.sink(0)).expect("admit");
            let p = shard.wait_for(1).pop().expect("reply");
            let e = p.explain.as_ref().expect("explanation present");
            let fold = e.contributions.iter().fold(e.bias, |a, &c| a + c);
            assert_eq!(fold.to_bits(), p.rate.to_bits(), "row {i}: fold must hit the rate");
            assert_eq!(
                p.rate.to_bits(),
                offline.predict_row(&row).to_bits(),
                "explained rate must equal offline prediction"
            );
            assert_eq!(e.contributions.len(), e.model.model.feature_names().len());
        }
        batcher.shutdown();
    }

    #[test]
    fn overload_sheds_instead_of_blocking() {
        let (registry, _) = test_registry("shed");
        let metrics = Arc::new(ServerMetrics::new());
        // Tiny queue, huge flush, one worker: after the first submission
        // occupies the worker's patience window, the queue fills.
        let cfg = BatchConfig {
            max_batch: 4,
            flush: Duration::from_millis(300),
            queue_cap: 2,
            workers: 1,
        };
        let batcher = Batcher::start(registry.clone(), metrics, cfg);
        let w = registry.schema().width();
        let mut shard = TestShard::new();

        let mut admitted = 0usize;
        let mut shed = 0usize;
        for seq in 0..32 {
            match batcher.submit_with(vec![1.0; w], None, shard.sink(seq)) {
                Ok(()) => admitted += 1,
                Err(SubmitError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed > 0, "expected overload shedding");
        // Every admitted request still completes.
        assert_eq!(shard.wait_for(admitted).len(), admitted);
        batcher.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let (registry, _) = test_registry("drain");
        let metrics = Arc::new(ServerMetrics::new());
        let cfg = BatchConfig { flush: Duration::from_millis(50), ..Default::default() };
        let batcher = Batcher::start(registry.clone(), metrics, cfg);
        let w = registry.schema().width();
        let mut shard = TestShard::new();
        for seq in 0..16 {
            batcher.submit_with(vec![2.0; w], None, shard.sink(seq)).expect("admit");
        }
        batcher.shutdown();
        assert_eq!(shard.wait_for(16).len(), 16, "drained replies");
        // Post-shutdown submissions are refused.
        assert_eq!(
            batcher.submit_with(vec![0.0; w], None, shard.sink(16)).err(),
            Some(SubmitError::ShuttingDown)
        );
    }
}
