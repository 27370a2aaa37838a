//! Background LSM compaction: jobs, executors, and amplification accounting.
//!
//! Merging disk components used to run *foreground*, inside
//! [`crate::lsm::LsmTree::flush`], stalling the write path for the whole
//! merge. This module moves the merge onto an external executor while
//! keeping the crate dependency one-way: storage defines a narrow
//! [`BackgroundExecutor`] trait and the runtime layer (hyracks' worker
//! pool) implements it. With no executor installed every merge still runs
//! inline, so single-threaded tests and benches stay deterministic.
//!
//! A merge is a [`MergeJob`]: a resumable k-way merge that advances one
//! *morsel* of entries ([`MERGE_MORSEL_ENTRIES`]) per [`BackgroundJob::step`]
//! call, so cancellation latency and scheduling quanta are bounded exactly
//! like query morsels. The owning tree tracks the job through a small state
//! machine ([`CompactionState`]: idle → merging → retiring → idle); reads
//! and flushes proceed against the pre-merge component list until the merged
//! component atomically swaps in.
//!
//! Retirement ordering invariant (the data-loss fix this module pins): the
//! merged component is inserted into the live list *before* the inputs'
//! files are deleted, and a failed retirement delete is non-fatal cleanup —
//! counted in `storage.lsm` metrics, never able to un-publish merged
//! entries. Old component files are unlinked only when the last reader
//! drops its snapshot reference, so in-flight scans never observe a
//! vanishing file.
//!
//! The [`LsmMetricsHub`] aggregates the classic LSM cost triad across every
//! tree of a node and surfaces it through the shared `obs` registry as
//! `storage.lsm.{write_amp,read_amp,space_amp,merge_inflight,merge_stall_ns}`.

use crate::error::Result;
use crate::lsm::{DiskComponent, LsmShared, MergeRun};
use asterix_obs::Gauge;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Entries merged per scheduling step: the compaction morsel. Mirrors the
/// scheduler's tuple morsel so a merge task shares the pool fairly with
/// query tasks and honors cancellation within one morsel.
pub const MERGE_MORSEL_ENTRIES: usize = 1024;

// ---------------------------------------------------------------------------
// The narrow storage → runtime trait pair
// ---------------------------------------------------------------------------

/// Outcome of one bounded job step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStep {
    /// More work remains; schedule another step.
    Again,
    /// The job is finished (completed, aborted, or cancelled).
    Done,
}

/// A resumable background task: the storage side of the compaction
/// off-loading contract. Implementations must make every `step` bounded
/// (one morsel of work) and must tolerate `cancel` at any point between
/// steps.
pub trait BackgroundJob: Send + Sync {
    /// Run one bounded quantum of work.
    fn step(&self) -> JobStep;
    /// Request cooperative cancellation; the next `step` observes it,
    /// aborts cleanly, and returns [`JobStep::Done`].
    fn cancel(&self);
}

/// Something that can run [`BackgroundJob`]s off the submitting thread.
/// The runtime layer implements this over its worker pool; storage never
/// learns what a worker is, keeping the crate dependency one-way.
pub trait BackgroundExecutor: Send + Sync {
    /// Accept `job` and drive its `step` to [`JobStep::Done`] eventually.
    fn offload(&self, job: Arc<dyn BackgroundJob>);
}

/// Cloneable, `Debug`-able handle around a [`BackgroundExecutor`] so plain
/// config structs can carry one.
#[derive(Clone)]
pub struct CompactionExec(Arc<dyn BackgroundExecutor>);

impl CompactionExec {
    /// Wraps an executor implementation.
    pub fn new(exec: Arc<dyn BackgroundExecutor>) -> Self {
        CompactionExec(exec)
    }

    /// Hands a job to the wrapped executor.
    pub fn offload(&self, job: Arc<dyn BackgroundJob>) {
        self.0.offload(job);
    }
}

impl std::fmt::Debug for CompactionExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CompactionExec(..)")
    }
}

/// A minimal executor that services each job on its own detached thread.
/// Storage-level tests (and anything without a worker pool) get true
/// background merges from it; production wiring uses the pool-backed
/// executor in the runtime crate instead.
#[derive(Debug, Default)]
pub struct ThreadExecutor;

impl BackgroundExecutor for ThreadExecutor {
    fn offload(&self, job: Arc<dyn BackgroundJob>) {
        std::thread::spawn(move || while job.step() == JobStep::Again {});
    }
}

impl ThreadExecutor {
    /// Convenience: a ready-to-install handle.
    pub fn handle() -> CompactionExec {
        CompactionExec::new(Arc::new(ThreadExecutor))
    }
}

// ---------------------------------------------------------------------------
// Per-tree compaction state machine
// ---------------------------------------------------------------------------

/// Where a tree's (single) compaction slot currently is. Exactly one merge
/// is in flight per tree; flushes and reads never wait on it.
pub(crate) enum CompactionState {
    /// No merge in flight.
    Idle,
    /// A merge over the components with these ids is running.
    Merging {
        ids: Vec<u64>,
        cancel: Arc<AtomicBool>,
    },
    /// The merged component is published; input files are being retired.
    Retiring,
}

impl CompactionState {
    /// Short state name for diagnostics and tests.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            CompactionState::Idle => "idle",
            CompactionState::Merging { .. } => "merging",
            CompactionState::Retiring => "retiring",
        }
    }

    /// Ids of the components covered by the in-flight merge, if any.
    pub(crate) fn merging_ids(&self) -> Option<&[u64]> {
        match self {
            CompactionState::Merging { ids, .. } => Some(ids),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The merge job
// ---------------------------------------------------------------------------

/// A scheduled merge of a snapshot of components. The snapshot stays valid
/// for the job's whole lifetime because flushes only ever *prepend* newer
/// components and the state machine admits one merge at a time.
pub(crate) struct MergeJob {
    shared: Arc<LsmShared>,
    /// Input components, newest first. Taken (emptied) on completion so the
    /// swapped-out components can retire as soon as readers let go.
    comps: Mutex<Vec<Arc<DiskComponent>>>,
    includes_oldest: bool,
    cancel: Arc<AtomicBool>,
    /// Background jobs cascade: on completion they re-run the policy and
    /// schedule the next merge. Foreground callers loop themselves.
    cascade: bool,
    run: Mutex<Option<MergeRun>>,
}

impl MergeJob {
    pub(crate) fn new(
        shared: Arc<LsmShared>,
        comps: Vec<Arc<DiskComponent>>,
        includes_oldest: bool,
        cancel: Arc<AtomicBool>,
        cascade: bool,
    ) -> Self {
        MergeJob {
            shared,
            comps: Mutex::new(comps),
            includes_oldest,
            cancel,
            cascade,
            run: Mutex::new(None),
        }
    }

    /// One morsel of merging; errors are surfaced to foreground callers
    /// (background steps record them and finish quietly).
    pub(crate) fn advance(&self) -> Result<JobStep> {
        match self.try_advance() {
            Ok(step) => Ok(step),
            Err(e) => {
                self.shared.merge_aborted();
                Err(e)
            }
        }
    }

    fn try_advance(&self) -> Result<JobStep> {
        if self.cancel.load(Ordering::Acquire) {
            self.run.lock().take();
            self.shared.merge_aborted();
            return Ok(JobStep::Done);
        }
        let mut run = self.run.lock(); // xlint: lock(lsm_merge_run)
        if run.is_none() {
            let comps = self.comps.lock().clone(); // xlint: lock(lsm_merge_inputs)
            *run = Some(self.shared.merge_open(&comps)?);
        }
        let Some(active) = run.as_mut() else { return Ok(JobStep::Done) };
        let exhausted =
            self.shared.merge_step(active, MERGE_MORSEL_ENTRIES, self.includes_oldest)?;
        if !exhausted {
            return Ok(JobStep::Again);
        }
        let Some(finished) = run.take() else { return Ok(JobStep::Done) };
        drop(run);
        let (new_comp, written) = self.shared.merge_finish(finished)?;
        let comps = std::mem::take(&mut *self.comps.lock()); // xlint: lock(lsm_merge_inputs)
        self.shared.complete_merge(comps, new_comp, written, self.cascade);
        Ok(JobStep::Done)
    }
}

impl BackgroundJob for MergeJob {
    fn step(&self) -> JobStep {
        // Background execution swallows the error after recording it in the
        // tree's failure counters: a failed merge leaves the pre-merge
        // component list untouched and the tree fully serviceable.
        self.advance().unwrap_or(JobStep::Done)
    }

    fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Node-wide LSM amplification accounting
// ---------------------------------------------------------------------------

/// Aggregated LSM cost metrics for every tree sharing one [`crate::IoStats`].
///
/// Ratios are exported through the `obs` registry at snapshot time in
/// **milli-units** (amplification × 1000, so `1.0` reads as `1000`): the
/// registry's observed counters are integral, and three decimal places is
/// plenty for dashboarding the read/write/space trade-off.
#[derive(Debug, Default)]
pub struct LsmMetricsHub {
    entries_written: AtomicU64,
    entries_ingested: AtomicU64,
    reads: AtomicU64,
    read_probes: AtomicU64,
    disk_bytes_total: AtomicU64,
    disk_bytes_live: AtomicU64,
    merge_stall_ns: AtomicU64,
    retire_failures: AtomicU64,
    merge_inflight: AtomicI64,
    gauge: OnceLock<Gauge>,
}

impl LsmMetricsHub {
    /// Binds the `storage.lsm.merge_inflight` gauge handle (once, at
    /// registry wiring time). Earlier in-flight deltas are replayed into it.
    pub(crate) fn bind_gauge(&self, gauge: Gauge) {
        gauge.set(self.merge_inflight.load(Ordering::Acquire));
        let _ = self.gauge.set(gauge);
    }

    pub(crate) fn count_ingested(&self, n: u64) {
        self.entries_ingested.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count_written(&self, n: u64) {
        self.entries_written.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn count_read(&self, probes: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if probes > 0 {
            self.read_probes.fetch_add(probes, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_stall_ns(&self, ns: u64) {
        self.merge_stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn count_retire_failure(&self) {
        self.retire_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies a tree's change in (total bytes, live bytes) contribution.
    /// Deltas may be negative (components retired); sums stay non-negative
    /// because every tree reports consistent before/after pairs.
    pub(crate) fn adjust_space(&self, d_total: i64, d_live: i64) {
        self.disk_bytes_total.fetch_add(d_total as u64, Ordering::Relaxed);
        self.disk_bytes_live.fetch_add(d_live as u64, Ordering::Relaxed);
    }

    pub(crate) fn merge_started(&self) {
        self.merge_inflight.fetch_add(1, Ordering::AcqRel);
        if let Some(g) = self.gauge.get() {
            g.add(1);
        }
    }

    pub(crate) fn merge_finished(&self) {
        self.merge_inflight.fetch_add(-1, Ordering::AcqRel);
        if let Some(g) = self.gauge.get() {
            g.add(-1);
        }
    }

    fn ratio_milli(num: u64, den: u64) -> u64 {
        num.saturating_mul(1000).checked_div(den).unwrap_or(0)
    }

    /// Write amplification ×1000: disk entries written per ingested entry.
    pub fn write_amp_milli(&self) -> u64 {
        Self::ratio_milli(
            self.entries_written.load(Ordering::Relaxed),
            self.entries_ingested.load(Ordering::Relaxed),
        )
    }

    /// Read amplification ×1000: disk components probed per point lookup.
    pub fn read_amp_milli(&self) -> u64 {
        Self::ratio_milli(
            self.read_probes.load(Ordering::Relaxed),
            self.reads.load(Ordering::Relaxed),
        )
    }

    /// Space amplification ×1000: total component bytes over an estimate of
    /// the live data size (each tree's largest component).
    pub fn space_amp_milli(&self) -> u64 {
        Self::ratio_milli(
            self.disk_bytes_total.load(Ordering::Relaxed),
            self.disk_bytes_live.load(Ordering::Relaxed),
        )
    }

    /// Cumulative write-path stall attributable to merging, in nanoseconds.
    pub fn merge_stall_ns(&self) -> u64 {
        self.merge_stall_ns.load(Ordering::Relaxed)
    }

    /// Retirement deletes that failed (non-fatal cleanup, see module docs).
    pub fn retire_failures(&self) -> u64 {
        self.retire_failures.load(Ordering::Relaxed)
    }

    /// Merges currently in flight across all trees of this node.
    pub fn merge_inflight(&self) -> i64 {
        self.merge_inflight.load(Ordering::Acquire)
    }

    /// Registers the amplification metrics in `registry` as observed
    /// (snapshot-time) readers plus the in-flight gauge. Called from
    /// [`crate::IoStats::with_registry`]; holds only weak references, so it
    /// never extends the hub's lifetime.
    pub(crate) fn register(self: &Arc<Self>, registry: &asterix_obs::MetricsRegistry) {
        let observe = |name: &str, read: fn(&LsmMetricsHub) -> u64| {
            let weak = Arc::downgrade(self);
            registry.observed_counter(name, move || weak.upgrade().map_or(0, |h| read(&h)));
        };
        observe("storage.lsm.write_amp", LsmMetricsHub::write_amp_milli);
        observe("storage.lsm.read_amp", LsmMetricsHub::read_amp_milli);
        observe("storage.lsm.space_amp", LsmMetricsHub::space_amp_milli);
        observe("storage.lsm.merge_stall_ns", LsmMetricsHub::merge_stall_ns);
        observe("storage.lsm.retire_failures", LsmMetricsHub::retire_failures);
        self.bind_gauge(registry.gauge("storage.lsm.merge_inflight")); // xlint: allow(metric, "gauge is driven through the hub's bound handle: bind_gauge replays accumulated deltas and merge_started/merge_finished apply live ones")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_milli_scaled_and_zero_safe() {
        let hub = LsmMetricsHub::default();
        assert_eq!(hub.write_amp_milli(), 0, "no ingest yet: ratio is 0, not a panic");
        hub.count_ingested(100);
        hub.count_written(150);
        assert_eq!(hub.write_amp_milli(), 1500);
        hub.count_read(3);
        hub.count_read(0);
        assert_eq!(hub.read_amp_milli(), 1500, "3 probes over 2 reads");
        hub.adjust_space(4000, 2000);
        assert_eq!(hub.space_amp_milli(), 2000);
        hub.adjust_space(-2000, 0);
        assert_eq!(hub.space_amp_milli(), 1000);
    }

    #[test]
    fn inflight_gauge_replays_earlier_deltas_on_bind() {
        let hub = Arc::new(LsmMetricsHub::default());
        hub.merge_started();
        hub.merge_started();
        hub.merge_finished();
        let registry = asterix_obs::MetricsRegistry::new();
        hub.bind_gauge(registry.gauge("storage.lsm.merge_inflight"));
        assert_eq!(registry.snapshot().gauge("storage.lsm.merge_inflight"), Some(1));
        hub.merge_finished();
        assert_eq!(registry.snapshot().gauge("storage.lsm.merge_inflight"), Some(0));
        assert_eq!(hub.merge_inflight(), 0);
    }

    #[test]
    fn registered_metrics_surface_in_snapshots() {
        let hub = Arc::new(LsmMetricsHub::default());
        let registry = asterix_obs::MetricsRegistry::new();
        hub.register(&registry);
        hub.count_ingested(10);
        hub.count_written(25);
        hub.add_stall_ns(42);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.lsm.write_amp"), Some(2500));
        assert_eq!(snap.counter("storage.lsm.merge_stall_ns"), Some(42));
        assert_eq!(snap.counter("storage.lsm.retire_failures"), Some(0));
        assert_eq!(snap.gauge("storage.lsm.merge_inflight"), Some(0));
    }
}
