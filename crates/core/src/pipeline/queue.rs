//! The **non-blocking front door** over a [`ShardedService`]: submit a
//! job, get a [`JobId`] back immediately, collect the result later.
//!
//! The service's submitters block the calling thread
//! (`SpannerJob::run` / `OracleJob::build` return only when the artifact
//! is ready) and place no limit on how many jobs execute at once. This
//! module is the one admission point for serving traffic — a batch of
//! jobs is "submit N, wait N":
//!
//! * [`JobQueue::submit`] enqueues a [`JobSpec`] and returns without
//!   blocking; [`JobQueue::poll`] / [`JobQueue::wait`] /
//!   [`JobQueue::wait_timeout`] observe the job's [`JobStatus`];
//! * two **priority lanes** ([`Priority::Interactive`] /
//!   [`Priority::Batch`]): interactive jobs are dispatched first, with
//!   a bounded escape valve (every fourth dispatch serves the batch
//!   lane while both hold work) so neither lane can starve the other;
//! * **per-client fairness** inside each lane: jobs are queued per
//!   [`ClientId`] and dispatched round-robin across clients, so one
//!   client's burst of 1000 jobs cannot delay another client's single
//!   job by more than one rotation;
//! * a fixed pool of **worker threads** serves each job on the shard
//!   owning its graph, through the same build-or-hit path as the
//!   blocking builders — worker count bounds execution concurrency;
//! * **cancel/deadline before execution**: every job carries its own
//!   [`CancelToken`] and gets its [`BuildGuard`] at submission, so its
//!   deadline covers queue wait and execution. A job whose token fires
//!   or whose deadline expires while still queued resolves
//!   ([`PipelineError::Cancelled`] / [`PipelineError::DeadlineExceeded`])
//!   *without executing* — the guard is checked at dispatch — and one
//!   that runs out mid-build aborts at the guard's checkpoints;
//! * every wait is **condvar-driven** (submission wakes a worker,
//!   resolution wakes the waiters) — no polling loops anywhere on this
//!   path.
//!
//! Every submitted job resolves **exactly once**: the per-job state
//! machine (`Queued → Running → Completed | Failed`) advances under one
//! lock.
//!
//! The queue **hands results off** instead of keeping them. A completed
//! output is held strongly until the first [`JobQueue::wait`] or
//! [`JobQueue::wait_timeout`] returns it, and from then on only as a
//! [`Weak`] reference. Later `poll`s and `wait`s upgrade it, so they
//! return the same `Arc` for as long as anyone holds it — the waiter, or
//! the service store. Once nobody does, its memory is freed: `poll`
//! reports [`JobStatus::Released`] and `wait` fails with
//! [`PipelineError::ResultReleased`]. A job that is never waited keeps
//! its result until the queue is dropped. The [`JobSpec`] (and with it
//! the [`GraphHandle`](super::GraphHandle)) moves to the worker at
//! dispatch; the entry keeps only the job's [`CancelToken`] and its
//! resolution order, so [`JobQueue::cancel`] and
//! [`JobQueue::resolution_order`] always answer.
//!
//! Answers are identical to the blocking path: workers serve through
//! the same [`ShardedService`] path, so artifacts land in (and are
//! served from) the same budgeted stores, bit-identical at equal seeds.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::{MutexGuard, TrackedCondvar, TrackedMutex};

use super::distance::{BuildGuard, DistanceOracle};
use super::service::{JobOutput, JobSpec};
use super::shard::ShardedService;
use super::{CancelToken, PipelineError, RunReport};

// ---------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------

/// Identifies the submitting client for fair admission: each client
/// gets its own FIFO inside a lane, and dispatch rotates across
/// clients. Callers that don't care can leave the default (all jobs
/// then share one FIFO, which is plain submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClientId(pub u64);

/// The two dispatch lanes. Interactive wins ties; the batch lane is
/// guaranteed progress: while both lanes hold work, every fourth
/// dispatch serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic — dispatched ahead of batch work.
    #[default]
    Interactive,
    /// Throughput traffic (warm-up, sweeps) — yields to interactive
    /// jobs but is never starved.
    Batch,
}

impl Priority {
    fn lane(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }
}

/// Handle to a submitted job, unique for the queue's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

impl JobOutput {
    fn downgrade(&self) -> WeakOutput {
        match self {
            JobOutput::Spanner(report) => WeakOutput::Spanner(Arc::downgrade(report)),
            JobOutput::Oracle(oracle) => WeakOutput::Oracle(Arc::downgrade(oracle)),
        }
    }
}

/// A [`JobOutput`] the queue has handed off: reachable while a caller
/// (or the store) still holds it.
#[derive(Debug)]
enum WeakOutput {
    Spanner(Weak<RunReport>),
    Oracle(Weak<DistanceOracle>),
}

impl WeakOutput {
    fn upgrade(&self) -> Option<JobOutput> {
        match self {
            WeakOutput::Spanner(report) => report.upgrade().map(JobOutput::Spanner),
            WeakOutput::Oracle(oracle) => oracle.upgrade().map(JobOutput::Oracle),
        }
    }
}

/// A job's lifecycle state. Exactly one terminal transition happens per
/// job ([`JobStatus::Completed`] or [`JobStatus::Failed`]); a completed
/// job reads [`JobStatus::Released`] once its handed-off output is gone.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in its lane.
    Queued,
    /// Picked up by a worker (executing, or in its pre-execution
    /// cancel/deadline check).
    Running,
    /// Resolved with an artifact.
    Completed(JobOutput),
    /// Resolved with an error — including jobs cancelled or
    /// deadline-expired while still queued, which never executed.
    Failed(PipelineError),
    /// Resolved with an artifact that a `wait` took and everyone has
    /// since dropped (see the [module docs](self)).
    Released,
}

impl JobStatus {
    /// Whether the job has resolved (it stays resolved; only
    /// `Completed` may later read `Released`).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

// ---------------------------------------------------------------------
// Configuration and stats
// ---------------------------------------------------------------------

/// Anti-starvation valve: while both lanes hold work, every
/// `BATCH_ESCAPE_EVERY`-th dispatch serves the batch lane instead of
/// the interactive one.
const BATCH_ESCAPE_EVERY: u64 = 4;

/// A point-in-time snapshot of a queue's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Jobs submitted over the queue's lifetime.
    pub submitted: u64,
    /// Jobs resolved with an artifact.
    pub completed: u64,
    /// Jobs resolved with an error (includes the skipped counters).
    pub failed: u64,
    /// Jobs that actually reached a shard (hit or miss).
    pub executed: u64,
    /// Jobs whose token fired while still queued — resolved
    /// [`PipelineError::Cancelled`] without executing.
    pub skipped_cancelled: u64,
    /// Jobs whose deadline expired while still queued — resolved
    /// [`PipelineError::DeadlineExceeded`] without executing.
    pub skipped_deadline: u64,
    /// Jobs refused at submission because the queue was draining —
    /// resolved [`PipelineError::Cancelled`] without ever entering a
    /// lane.
    pub refused: u64,
    /// Jobs currently waiting in a lane.
    pub queued_now: usize,
    /// High-water mark of `queued_now`.
    pub peak_queued: usize,
}

impl QueueStats {
    /// One-line summary for logs and experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "submitted={} completed={} failed={} executed={} skipped(cancel={}, deadline={}) \
             refused={} queued={} (peak {})",
            self.submitted,
            self.completed,
            self.failed,
            self.executed,
            self.skipped_cancelled,
            self.skipped_deadline,
            self.refused,
            self.queued_now,
            self.peak_queued,
        )
    }
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

/// Where a job is, as the queue stores it.
#[derive(Debug)]
enum Stage {
    Queued,
    Running,
    /// Completed, output not yet taken by a `wait`.
    Completed(JobOutput),
    /// Completed, output handed to a `wait`.
    HandedOff(WeakOutput),
    Failed(PipelineError),
}

#[derive(Debug)]
struct JobEntry {
    /// The job and the guard armed at submission, until a worker takes
    /// them at dispatch.
    job: Option<(JobSpec, BuildGuard)>,
    /// The spec's token, kept for [`JobQueue::cancel`].
    cancel: CancelToken,
    stage: Stage,
    /// 1-based global order in which this job resolved (terminal
    /// transitions only) — lets tests assert scheduling properties.
    resolved_seq: Option<u64>,
}

impl JobEntry {
    /// The public view of the job's stage.
    fn status(&self) -> JobStatus {
        match &self.stage {
            Stage::Queued => JobStatus::Queued,
            Stage::Running => JobStatus::Running,
            Stage::Completed(output) => JobStatus::Completed(output.clone()),
            Stage::HandedOff(output) => output
                .upgrade()
                .map_or(JobStatus::Released, JobStatus::Completed),
            Stage::Failed(error) => JobStatus::Failed(error.clone()),
        }
    }

    /// What a `wait` returns once the job has resolved (`None` while it
    /// is pending). The first call takes the queue's strong reference
    /// and leaves a [`Weak`] behind; later calls upgrade that.
    fn hand_off(&mut self, id: JobId) -> Option<Result<JobOutput, PipelineError>> {
        match &self.stage {
            Stage::Queued | Stage::Running => None,
            Stage::Completed(output) => {
                let output = output.clone();
                self.stage = Stage::HandedOff(output.downgrade());
                Some(Ok(output))
            }
            Stage::HandedOff(output) => {
                Some(output.upgrade().ok_or(PipelineError::ResultReleased(id)))
            }
            Stage::Failed(error) => Some(Err(error.clone())),
        }
    }

    fn is_terminal(&self) -> bool {
        !matches!(self.stage, Stage::Queued | Stage::Running)
    }
}

/// One priority lane: per-client FIFOs plus the round-robin rotation.
/// Invariant: `rotation` holds exactly the clients with a non-empty
/// FIFO, each once, in dispatch order.
#[derive(Debug, Default)]
struct Lane {
    per_client: HashMap<ClientId, VecDeque<JobId>>,
    rotation: VecDeque<ClientId>,
    len: usize,
}

impl Lane {
    fn push(&mut self, client: ClientId, id: JobId) {
        let fifo = self.per_client.entry(client).or_default();
        if fifo.is_empty() {
            self.rotation.push_back(client);
        }
        fifo.push_back(id);
        self.len += 1;
    }

    fn pop_round_robin(&mut self) -> Option<JobId> {
        // Structurally panic-free: a worker holds the queue lock here,
        // so an invariant breach must degrade (skip the stale rotation
        // entry) rather than poison the whole queue. Debug builds still
        // assert the invariant.
        while let Some(client) = self.rotation.pop_front() {
            let Some(fifo) = self.per_client.get_mut(&client) else {
                debug_assert!(false, "rotation client {client:?} has no FIFO");
                continue;
            };
            let Some(id) = fifo.pop_front() else {
                debug_assert!(false, "rotation client {client:?} has no work");
                self.per_client.remove(&client);
                continue;
            };
            if fifo.is_empty() {
                self.per_client.remove(&client);
            } else {
                self.rotation.push_back(client);
            }
            self.len -= 1;
            return Some(id);
        }
        None
    }
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: HashMap<JobId, JobEntry>,
    lanes: [Lane; 2],
    dispatches: u64,
    resolutions: u64,
    shutdown: bool,
    /// Set by [`JobQueue::drain`]: no new admissions, but queued work
    /// still runs to resolution (unlike `shutdown`, which abandons it).
    draining: bool,
    submitted: u64,
    completed: u64,
    failed: u64,
    executed: u64,
    skipped_cancelled: u64,
    skipped_deadline: u64,
    refused: u64,
    queued_now: usize,
    /// Jobs dispatched to a worker but not yet resolved.
    running_now: usize,
    peak_queued: usize,
}

impl QueueState {
    /// Picks the next job to dispatch, honouring lane priority (with
    /// the batch escape valve) and per-client round-robin.
    fn take_next(&mut self) -> Option<JobId> {
        // analyze:allow(panic-path): literal indexes into the fixed `[Lane; 2]`
        let interactive = self.lanes[0].len > 0;
        // analyze:allow(panic-path): literal indexes into the fixed `[Lane; 2]`
        let batch = self.lanes[1].len > 0;
        let lane = match (interactive, batch) {
            (false, false) => return None,
            (true, false) => 0,
            (false, true) => 1,
            (true, true) => {
                if (self.dispatches + 1).is_multiple_of(BATCH_ESCAPE_EVERY) {
                    1
                } else {
                    0
                }
            }
        };
        self.dispatches += 1;
        // analyze:allow(panic-path): `lane` is 0 or 1 into `[Lane; 2]`
        let id = self.lanes[lane].pop_round_robin()?;
        self.queued_now -= 1;
        Some(id)
    }
}

#[derive(Debug)]
struct QueueInner {
    service: Arc<ShardedService>,
    state: TrackedMutex<QueueState>,
    /// Workers park here; submission (and shutdown) notifies.
    work_ready: TrackedCondvar,
    /// `wait`ers park here; every terminal resolution notifies.
    job_done: TrackedCondvar,
    next_id: AtomicU64,
}

// ---------------------------------------------------------------------
// The queue
// ---------------------------------------------------------------------

/// The async job-queue front end. See the [module docs](self).
///
/// Dropping the queue stops the workers after their in-flight jobs:
/// still-queued jobs resolve [`PipelineError::Cancelled`] without
/// executing, and blocked [`JobQueue::wait`] calls return
/// [`PipelineError::Cancelled`]. The documented contract is still to
/// quiesce first when every result matters — call [`JobQueue::drain`]
/// (or `wait` each job) before dropping; `lock-audit` debug builds
/// assert it.
#[derive(Debug)]
pub struct JobQueue {
    inner: Arc<QueueInner>,
    workers: Vec<JoinHandle<()>>,
}

impl JobQueue {
    /// Starts `workers` worker threads over `service` — the execution
    /// concurrency bound for queued traffic.
    pub fn start(service: Arc<ShardedService>, workers: usize) -> JobQueue {
        assert!(workers >= 1, "a job queue needs at least one worker");
        let inner = Arc::new(QueueInner {
            service,
            state: TrackedMutex::new("queue.state", QueueState::default()),
            work_ready: TrackedCondvar::new("queue.work_ready"),
            job_done: TrackedCondvar::new("queue.job_done"),
            next_id: AtomicU64::new(0),
        });
        let workers = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                // The queue *is* a sanctioned nursery: long-lived named
                // workers joined on drop, not fork-join work that belongs
                // on the pool.
                // analyze:allow(stray-spawn)
                std::thread::Builder::new()
                    .name(format!("spanner-queue-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    // analyze:allow(panic-path): construction-time spawn — a queue that cannot start its workers is fatal by design
                    .expect("spawn queue worker")
            })
            .collect();
        JobQueue { inner, workers }
    }

    /// [`JobQueue::start`] with two workers.
    pub fn with_defaults(service: Arc<ShardedService>) -> JobQueue {
        JobQueue::start(service, 2)
    }

    /// Enqueues a job and returns immediately. The returned id is valid
    /// for [`JobQueue::poll`] / [`wait`](JobQueue::wait) for the
    /// queue's whole lifetime. The job's deadline runs from this call.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        let id = JobId(self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let guard = spec.guard();
        let cancel = spec.cancel.clone();
        {
            let mut state = self.lock();
            state.submitted += 1;
            if state.draining || state.shutdown {
                // Refused at the door: the id is still valid for
                // poll/wait, but the job resolves Cancelled immediately
                // and never enters a lane.
                state.refused += 1;
                state.failed += 1;
                state.resolutions += 1;
                let entry = JobEntry {
                    job: None,
                    cancel,
                    stage: Stage::Failed(PipelineError::Cancelled),
                    resolved_seq: Some(state.resolutions),
                };
                state.jobs.insert(id, entry);
                drop(state);
                self.inner.job_done.notify_all();
                return id;
            }
            state.queued_now += 1;
            state.peak_queued = state.peak_queued.max(state.queued_now);
            // analyze:allow(panic-path): `Priority::lane()` returns 0 or 1 into `[Lane; 2]`
            state.lanes[spec.priority.lane()].push(spec.client, id);
            let entry = JobEntry {
                job: Some((spec, guard)),
                cancel,
                stage: Stage::Queued,
                resolved_seq: None,
            };
            state.jobs.insert(id, entry);
        }
        self.inner.work_ready.notify_one();
        id
    }

    /// Graceful shutdown of admission: marks the queue draining (every
    /// later [`JobQueue::submit`] is refused with
    /// [`PipelineError::Cancelled`]), then blocks until every job
    /// admitted before the call has resolved — executed, cancelled or
    /// deadline-expired, exactly as it would have been anyway. After
    /// `drain` returns, dropping the queue abandons nothing.
    pub fn drain(&self) {
        {
            let mut state = self.lock();
            state.draining = true;
        }
        let mut state = self.lock();
        while state.queued_now > 0 || state.running_now > 0 {
            state = self.inner.job_done.wait(state);
        }
    }

    /// The job's current status (`None` for an id this queue never
    /// issued). Non-blocking; it never takes the output, so it does not
    /// count as the hand-off `wait` makes.
    pub fn poll(&self, id: JobId) -> Option<JobStatus> {
        self.lock().jobs.get(&id).map(JobEntry::status)
    }

    /// Blocks until the job resolves; condvar-driven, no polling. The
    /// first `wait` (or [`JobQueue::wait_timeout`]) on a completed job
    /// takes its output off the queue (see the [module docs](self)).
    pub fn wait(&self, id: JobId) -> Result<JobOutput, PipelineError> {
        let mut state = self.lock();
        loop {
            let shutdown = state.shutdown;
            let entry = state.jobs.get_mut(&id).ok_or_else(|| unknown_job(id))?;
            if let Some(result) = entry.hand_off(id) {
                return result;
            }
            if shutdown {
                return Err(PipelineError::Cancelled);
            }
            state = self.inner.job_done.wait(state);
        }
    }

    /// [`JobQueue::wait`] bounded by `timeout`: `None` if the job is
    /// still pending when it elapses.
    pub fn wait_timeout(
        &self,
        id: JobId,
        timeout: Duration,
    ) -> Option<Result<JobOutput, PipelineError>> {
        // analyze:allow(determinism-taint): real-time timeout is this API's contract
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let shutdown = state.shutdown;
            let Some(entry) = state.jobs.get_mut(&id) else {
                return Some(Err(unknown_job(id)));
            };
            if let Some(result) = entry.hand_off(id) {
                return Some(result);
            }
            if shutdown {
                return Some(Err(PipelineError::Cancelled));
            }
            // analyze:allow(determinism-taint): real-time timeout is this API's contract
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            state = self.inner.job_done.wait_timeout(state, remaining).0;
        }
    }

    /// Fires the job's [`CancelToken`]. A still-queued job resolves
    /// [`PipelineError::Cancelled`] at dispatch without executing; a
    /// running job aborts at its next guard checkpoint. Returns whether
    /// the job existed and had not already resolved.
    pub fn cancel(&self, id: JobId) -> bool {
        let token = {
            let state = self.lock();
            state
                .jobs
                .get(&id)
                .filter(|entry| !entry.is_terminal())
                .map(|entry| entry.cancel.clone())
        };
        match token {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// A point-in-time snapshot of the queue's counters.
    pub fn stats(&self) -> QueueStats {
        let state = self.lock();
        QueueStats {
            submitted: state.submitted,
            completed: state.completed,
            failed: state.failed,
            executed: state.executed,
            skipped_cancelled: state.skipped_cancelled,
            skipped_deadline: state.skipped_deadline,
            refused: state.refused,
            queued_now: state.queued_now,
            peak_queued: state.peak_queued,
        }
    }

    /// The 1-based global order in which the job resolved (`None` while
    /// pending or for unknown ids) — scheduling-order introspection for
    /// tests and dashboards.
    pub fn resolution_order(&self, id: JobId) -> Option<u64> {
        self.lock()
            .jobs
            .get(&id)
            .and_then(|entry| entry.resolved_seq)
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.inner.state.lock()
    }

    /// Shutdown half of [`Drop`]: stop and join the workers, then
    /// resolve whatever never ran as [`PipelineError::Cancelled`] so no
    /// job is left in a non-terminal state. Returns how many jobs were
    /// abandoned that way. Split out of `drop` so tests can observe the
    /// post-shutdown state; idempotent.
    fn shutdown_and_reap(&mut self) -> usize {
        {
            let mut state = self.lock();
            state.shutdown = true;
        }
        self.inner.work_ready.notify_all();
        self.inner.job_done.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are joined: nothing is Running any more, so every
        // non-terminal entry is a still-queued job the shutdown
        // abandoned. The documented contract is to quiesce (drain, or
        // wait each job) before dropping — enforce it loudly in
        // lock-audit debug builds, resolve quietly otherwise.
        let mut state = self.lock();
        let mut abandoned: Vec<JobId> = state
            .jobs
            // analyze:allow(determinism-taint): collected into a Vec and sorted below — map order cannot leak
            .iter()
            .filter(|(_, entry)| !entry.is_terminal())
            .map(|(id, _)| *id)
            .collect();
        // Sort so `resolved_seq` assignment below is deterministic
        // rather than following HashMap visit order.
        abandoned.sort_unstable();
        if cfg!(feature = "lock-audit") && !std::thread::panicking() {
            debug_assert!(
                abandoned.is_empty(),
                "JobQueue dropped with {} unresolved job(s) — quiesce with drain() or wait() \
                 before dropping",
                abandoned.len()
            );
        }
        for id in &abandoned {
            state.resolutions += 1;
            let seq = state.resolutions;
            state.failed += 1;
            state.skipped_cancelled += 1;
            // analyze:allow(panic-path): id collected from `jobs` a few lines up under this same lock
            let entry = state.jobs.get_mut(id).expect("abandoned job exists");
            entry.stage = Stage::Failed(PipelineError::Cancelled);
            entry.resolved_seq = Some(seq);
        }
        state.queued_now = 0;
        state.running_now = 0;
        drop(state);
        self.inner.job_done.notify_all();
        abandoned.len()
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown_and_reap();
    }
}

fn unknown_job(id: JobId) -> PipelineError {
    PipelineError::InvalidRequest(format!("{id} was never submitted to this queue"))
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(inner: &QueueInner) {
    loop {
        // Dequeue (or exit on shutdown). Shutdown wins over backlog:
        // the queue is being dropped, so still-queued jobs are
        // abandoned rather than raced against the join.
        let (id, job) = {
            let mut state = inner.state.lock();
            let id = loop {
                if state.shutdown {
                    return;
                }
                if let Some(id) = state.take_next() {
                    break id;
                }
                state = inner.work_ready.wait(state);
            };
            state.running_now += 1;
            // analyze:allow(panic-path): entries outlive dispatch — inserted at submit, removed only after resolution
            let entry = state.jobs.get_mut(&id).expect("dispatched job exists");
            entry.stage = Stage::Running;
            (id, entry.job.take())
        };
        let Some((spec, guard)) = job else {
            // Unreachable: a queued entry holds its job, and only this
            // dispatch takes it. Degrade rather than panic under the lock.
            debug_assert!(false, "{id} was dispatched without its spec");
            resolve(
                inner,
                id,
                Err(PipelineError::Cancelled),
                Disposition::SkippedCancel,
            );
            continue;
        };

        // Pre-execution check: a token fired or a deadline blown while
        // the job sat in its lane resolves it here — it never executes
        // and never touches the shard's counters.
        let (result, disposition) = match guard.check() {
            Ok(()) => (inner.service.execute(&spec, &guard), Disposition::Executed),
            Err(e @ PipelineError::Cancelled) => (Err(e), Disposition::SkippedCancel),
            Err(e) => (Err(e), Disposition::SkippedDeadline),
        };
        resolve(inner, id, result, disposition);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Disposition {
    Executed,
    SkippedCancel,
    SkippedDeadline,
}

/// The single terminal transition of a job: status, resolution order
/// and counters advance together under the state lock, then every
/// waiter is woken.
fn resolve(
    inner: &QueueInner,
    id: JobId,
    result: Result<JobOutput, PipelineError>,
    disposition: Disposition,
) {
    {
        let mut state = inner.state.lock();
        state.running_now -= 1;
        state.resolutions += 1;
        let seq = state.resolutions;
        match disposition {
            Disposition::Executed => state.executed += 1,
            Disposition::SkippedCancel => state.skipped_cancelled += 1,
            Disposition::SkippedDeadline => state.skipped_deadline += 1,
        }
        match &result {
            Ok(_) => state.completed += 1,
            Err(_) => state.failed += 1,
        }
        // analyze:allow(panic-path): entries outlive dispatch — inserted at submit, removed only after resolution
        let entry = state.jobs.get_mut(&id).expect("resolved job exists");
        debug_assert!(
            matches!(entry.stage, Stage::Running),
            "exactly-once: only Running jobs resolve"
        );
        entry.stage = match result {
            Ok(output) => Stage::Completed(output),
            Err(error) => Stage::Failed(error),
        };
        entry.resolved_seq = Some(seq);
    }
    inner.job_done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Algorithm;
    use crate::TradeoffParams;
    use spanner_graph::generators::{self, WeightModel};

    fn sharded() -> Arc<ShardedService> {
        Arc::new(ShardedService::new(2))
    }

    fn graph(seed: u64) -> spanner_graph::Graph {
        generators::connected_erdos_renyi(60, 0.1, WeightModel::Uniform(1, 8), seed)
    }

    fn alg() -> Algorithm {
        Algorithm::General(TradeoffParams::new(4, 2))
    }

    #[test]
    fn submit_poll_wait_roundtrip() {
        let service = sharded();
        let handle = service.register(graph(1));
        let queue = JobQueue::with_defaults(Arc::clone(&service));
        let id = queue.submit(JobSpec::spanner(&handle, alg()).seed(7));
        let output = queue.wait(id).expect("job completes");
        let report = output.spanner().expect("spanner job yields a report");
        // Identical to the blocking path (same store, same artifact).
        let direct = service.spanner(&handle, alg()).seed(7).run().unwrap();
        assert!(Arc::ptr_eq(report, &direct));
        assert!(queue.poll(id).unwrap().is_terminal());
        assert_eq!(queue.resolution_order(id), Some(1));
        let stats = queue.stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.executed),
            (1, 1, 1)
        );
    }

    #[test]
    fn unknown_ids_are_typed_errors_not_panics() {
        let queue = JobQueue::with_defaults(sharded());
        let bogus = JobId(999);
        assert!(queue.poll(bogus).is_none());
        assert!(matches!(
            queue.wait(bogus),
            Err(PipelineError::InvalidRequest(_))
        ));
        assert!(!queue.cancel(bogus));
    }

    #[test]
    fn wait_timeout_reports_pending_then_resolves() {
        let service = sharded();
        let handle = service.register(graph(2));
        let queue = JobQueue::start(Arc::clone(&service), 1);
        // Occupy the single worker so the probe job stays queued.
        let blocker = queue.submit(JobSpec::oracle(&handle, alg()).seed(1));
        let probe = queue.submit(JobSpec::spanner(&handle, alg()).seed(2));
        // Either still pending (None) or already done — both are legal
        // depending on scheduling; what must never happen is an error.
        if let Some(result) = queue.wait_timeout(probe, Duration::from_millis(1)) {
            assert!(result.is_ok());
        }
        assert!(queue.wait(blocker).is_ok());
        assert!(queue
            .wait_timeout(probe, Duration::from_secs(60))
            .expect("resolves well within a minute")
            .is_ok());
    }

    #[test]
    fn lane_round_robin_interleaves_clients() {
        let mut lane = Lane::default();
        let (a, b) = (ClientId(1), ClientId(2));
        lane.push(a, JobId(1));
        lane.push(a, JobId(2));
        lane.push(a, JobId(3));
        lane.push(b, JobId(4));
        let order: Vec<JobId> = std::iter::from_fn(|| lane.pop_round_robin()).collect();
        assert_eq!(order, vec![JobId(1), JobId(4), JobId(2), JobId(3)]);
        assert_eq!(lane.len, 0);
    }

    #[test]
    fn take_next_prefers_interactive_with_batch_escape() {
        let mut state = QueueState::default();
        let client = ClientId::default();
        for i in 0..4u64 {
            state.lanes[0].push(client, JobId(100 + i));
            state.lanes[1].push(client, JobId(200 + i));
            state.queued_now += 2;
        }
        let order: Vec<u64> = std::iter::from_fn(|| state.take_next())
            .map(|JobId(raw)| raw)
            .collect();
        // Dispatch 4 (every 4th) serves the batch lane while both lanes
        // hold work; once interactive drains, batch runs.
        assert_eq!(order, vec![100, 101, 102, 200, 103, 201, 202, 203]);
    }

    /// Dropping a queue with a backlog must not leave waiters hanging:
    /// the reaper resolves every still-queued job as `Cancelled`. A
    /// hand-built queue with *no* worker threads makes the backlog
    /// deterministic (the public constructor rightly refuses
    /// zero-worker queues). This is the contract-*violating* path, so
    /// it is compiled out under `lock-audit`, where the drop-time
    /// `debug_assert` (rightly) fires instead.
    #[test]
    #[cfg(not(feature = "lock-audit"))]
    fn shutdown_reaps_abandoned_jobs_as_cancelled() {
        let service = sharded();
        let handle = service.register(graph(1));
        let mut queue = JobQueue {
            inner: Arc::new(QueueInner {
                service: Arc::clone(&service),
                state: TrackedMutex::new("queue.state", QueueState::default()),
                work_ready: TrackedCondvar::new("queue.work_ready"),
                job_done: TrackedCondvar::new("queue.job_done"),
                next_id: AtomicU64::new(0),
            }),
            workers: Vec::new(),
        };
        let ids: Vec<JobId> = (0..3)
            .map(|i| queue.submit(JobSpec::spanner(&handle, alg()).seed(i)))
            .collect();
        for id in &ids {
            assert!(matches!(queue.poll(*id), Some(JobStatus::Queued)));
        }

        let reaped = queue.shutdown_and_reap();

        assert_eq!(reaped, 3, "every queued job was reaped");
        for id in &ids {
            assert!(
                matches!(
                    queue.poll(*id),
                    Some(JobStatus::Failed(PipelineError::Cancelled))
                ),
                "abandoned jobs resolve Cancelled, not silently vanish"
            );
            assert!(matches!(queue.wait(*id), Err(PipelineError::Cancelled)));
        }
        // Pins the reap-order fix: abandoned jobs resolve in JobId
        // order (the reap sorts them), not in HashMap visit order.
        let seqs: Vec<u64> = ids
            .iter()
            .map(|id| {
                queue
                    .resolution_order(*id)
                    .expect("reaped jobs are resolved")
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3], "reap resolves in sorted JobId order");
        let stats = queue.stats();
        assert_eq!(stats.skipped_cancelled, 3);
        assert_eq!(stats.queued_now, 0);
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        // Idempotent: a second reap (and the eventual drop) finds nothing.
        assert_eq!(queue.shutdown_and_reap(), 0);
    }
}
