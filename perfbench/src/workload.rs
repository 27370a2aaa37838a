//! The three workloads: set-up, warm-up, the timed window, and the
//! correctness checks that run against the ground truth.

use crate::oracle::{self, AuthorCounts, GroundTruth, MessageFacts};
use crate::trace::Tracer;
use asterix_adm::Value;
use asterix_core::datagen::DataGen;
use asterix_core::{CoreError, Feed, FeedConfig, Instance, InstanceConfig, Language, Session};
use asterix_obs::{JobProfile, MetricsSnapshot, OperatorProfile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Gleambook users loaded by every workload.
pub const USERS: i64 = 2_000;
/// Gleambook messages loaded by every workload.
pub const MESSAGES: i64 = 20_000;
/// Closed-loop clients of `lookup` (at most the host's 2 cpus).
pub const LOOKUP_CLIENTS: usize = 2;
/// Buffer-cache frames per node for `analytics` and `htap`: 48 × 8 KiB,
/// well under a third of the primary components the load leaves per node.
pub const SCAN_CACHE_PAGES: usize = 48;
/// Morsel workers for `analytics` and `htap`. With one session and the
/// default two workers on 2 cpus the same job ran in either ~150 or ~270 ms
/// depending on how the workers got scheduled, and under `htap` the feed's
/// inserts and merges made a third busy thread; the 80th percentile then
/// moved by a quarter between runs of the same code. One worker gives one
/// steady latency per query and leaves a cpu to the feed.
pub const SCAN_WORKERS: usize = 1;
/// LSM memory-component budget of `htap`, small enough that the timed
/// window covers several flush-and-merge cycles.
pub const HTAP_MEM_BUDGET: usize = 512 << 10;
/// Rows per second offered to the `htap` feed, open loop, about 60% of
/// what it sustains beside the analytics session on 2 cpus. A fixed rate
/// gives every run the same data-size trajectory; a producer pushing as
/// fast as backpressure allows made query latency follow how far ingest
/// had got, which doubled the run-to-run spread of both.
pub const HTAP_FEED_ROWS_PER_S: f64 = 2_000.0;
/// Untimed run-in before every window, so caches fill and lazy set-up
/// (worker pool, first plans) finishes outside it.
pub const WARMUP: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Analytics,
    Htap,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "analytics" => Some(Workload::Analytics),
            "htap" => Some(Workload::Htap),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Analytics => "analytics",
            Workload::Htap => "htap",
        }
    }

    pub fn config(self, data_dir: &Path) -> InstanceConfig {
        let mut cfg = InstanceConfig {
            data_dir: Some(data_dir.to_path_buf()),
            ..Default::default()
        };
        if self != Workload::Lookup {
            cfg.cache_pages_per_node = SCAN_CACHE_PAGES;
            cfg.worker_threads = SCAN_WORKERS;
        }
        if self == Workload::Htap {
            cfg.storage.mem_budget = HTAP_MEM_BUDGET;
        }
        cfg
    }
}

/// Every configuration value that differs from its default, by name.
pub fn config_deltas(cfg: &InstanceConfig) -> Vec<(String, String)> {
    let d = InstanceConfig::default();
    let mut out = Vec::new();
    let mut cmp = |name: &str, a: String, b: String| {
        if a != b {
            out.push((name.to_string(), a));
        }
    };
    cmp(
        "data_dir",
        format!("{:?}", cfg.data_dir.as_ref().map(|_| "<run dir>")),
        format!("{:?}", d.data_dir),
    );
    cmp("nodes", cfg.nodes.to_string(), d.nodes.to_string());
    cmp(
        "partitions",
        cfg.partitions.to_string(),
        d.partitions.to_string(),
    );
    cmp(
        "cache_pages_per_node",
        cfg.cache_pages_per_node.to_string(),
        d.cache_pages_per_node.to_string(),
    );
    cmp(
        "cache_shards",
        cfg.cache_shards.to_string(),
        d.cache_shards.to_string(),
    );
    cmp(
        "cache_readahead_pages",
        cfg.cache_readahead_pages.to_string(),
        d.cache_readahead_pages.to_string(),
    );
    cmp(
        "op_memory",
        cfg.op_memory.to_string(),
        d.op_memory.to_string(),
    );
    cmp(
        "sorted_index_fetch",
        cfg.sorted_index_fetch.to_string(),
        d.sorted_index_fetch.to_string(),
    );
    cmp(
        "local_aggregation",
        cfg.local_aggregation.to_string(),
        d.local_aggregation.to_string(),
    );
    cmp(
        "worker_threads",
        cfg.worker_threads.to_string(),
        d.worker_threads.to_string(),
    );
    cmp(
        "background_compaction",
        cfg.background_compaction.to_string(),
        d.background_compaction.to_string(),
    );
    cmp(
        "wal_group_commit",
        cfg.wal_group_commit.to_string(),
        d.wal_group_commit.to_string(),
    );
    cmp(
        "query_deadline",
        format!("{:?}", cfg.query_deadline),
        format!("{:?}", d.query_deadline),
    );
    cmp(
        "scheduler",
        format!("{:?}", cfg.scheduler),
        format!("{:?}", d.scheduler),
    );
    cmp(
        "retry",
        format!("{:?}", cfg.retry),
        format!("{:?}", d.retry),
    );
    let (s, ds) = (&cfg.storage, &d.storage);
    cmp(
        "storage.mem_budget",
        s.mem_budget.to_string(),
        ds.mem_budget.to_string(),
    );
    cmp(
        "storage.merge_policy",
        format!("{:?}", s.merge_policy),
        format!("{:?}", ds.merge_policy),
    );
    cmp(
        "storage.rtree_point_optimize",
        s.rtree_point_optimize.to_string(),
        ds.rtree_point_optimize.to_string(),
    );
    cmp(
        "storage.compress",
        s.compress.to_string(),
        ds.compress.to_string(),
    );
    cmp(
        "storage.auto_tune",
        s.auto_tune.to_string(),
        ds.auto_tune.to_string(),
    );
    cmp(
        "storage.compaction",
        s.compaction.is_some().to_string(),
        ds.compaction.is_some().to_string(),
    );
    out
}

/// The generated data set, made once per run from the seed.
pub struct Dataset {
    pub users: Vec<Value>,
    pub messages: Vec<Value>,
    pub truth: GroundTruth,
    /// ADM-text bytes of every generated record.
    pub adm_bytes: u64,
}

impl Dataset {
    pub fn generate(seed: u64) -> Dataset {
        let mut g = DataGen::new(seed);
        let users: Vec<Value> = (1..=USERS).map(|i| g.user(i)).collect();
        let messages: Vec<Value> = (1..=MESSAGES).map(|i| g.message(i, USERS)).collect();
        let adm_bytes = users
            .iter()
            .chain(&messages)
            .map(|v| v.to_string().len() as u64)
            .sum();
        let truth = GroundTruth::new(&messages);
        Dataset {
            users,
            messages,
            truth,
            adm_bytes,
        }
    }
}

/// Timings of one set-up: open + DDL + load + `flush_all`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub commit_ms: f64,
    pub load_rows_per_s: f64,
    pub flush_s: f64,
}

/// A loaded instance and the directory it lives in.
pub struct Loaded {
    pub db: Instance,
    pub dir: PathBuf,
    pub times: SetupTimes,
}

impl Loaded {
    /// Drops the instance and removes its files.
    pub fn discard(self) {
        let dir = self.dir.clone();
        drop(self.db);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn core_err(what: &str) -> impl Fn(CoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Opens a fresh instance in `dir` and loads the data set.
pub fn setup(w: Workload, data: &Dataset, dir: PathBuf, tracer: &Tracer) -> Result<Loaded, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let root = tracer.open();
    let req = 0;
    let t0 = Instant::now();
    let db = tracer
        .span(Some(root.0), req, "core.instance.open", || {
            Instance::open(w.config(&dir))
        })
        .map_err(core_err("open"))?;
    tracer
        .span(Some(root.0), req, "core.instance.ddl", || {
            db.execute_sqlpp(asterix_bench::experiments::gleambook_ddl())
        })
        .map_err(core_err("ddl"))?;
    let t_load = Instant::now();
    let mut txn = db.begin();
    tracer.span(
        Some(root.0),
        req,
        "core.txn.write",
        || -> Result<(), String> {
            for u in &data.users {
                txn.write("GleambookUsers", u, true)
                    .map_err(core_err("load user"))?;
            }
            for m in &data.messages {
                txn.write("GleambookMessages", m, true)
                    .map_err(core_err("load message"))?;
            }
            Ok(())
        },
    )?;
    let t_commit = Instant::now();
    tracer
        .span(Some(root.0), req, "core.txn.commit", || txn.commit())
        .map_err(core_err("commit"))?;
    let commit = t_commit.elapsed();
    let load = t_load.elapsed();
    let t_flush = Instant::now();
    tracer
        .span(Some(root.0), req, "core.instance.flush_all", || {
            db.flush_all()
        })
        .map_err(core_err("flush"))?;
    let flush = t_flush.elapsed();
    tracer.close(root, None, req, "setup");
    let rows = (data.users.len() + data.messages.len()) as f64;
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        commit_ms: commit.as_secs_f64() * 1e3,
        load_rows_per_s: rows / load.as_secs_f64(),
        flush_s: flush.as_secs_f64(),
    };
    Ok(Loaded { db, dir, times })
}

/// Bytes of the files under `dir`, and of those holding primary components.
pub fn dir_bytes(dir: &Path) -> (u64, u64) {
    let (mut all, mut primary) = (0, 0);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                all += meta.len();
                if e.file_name().to_string_lossy().contains("_pri_") {
                    primary += meta.len();
                }
            }
        }
    }
    (all, primary)
}

/// Query classes; each has its own latency samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Lookup,
    Search,
    Scan,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Search => "search",
            Class::Scan => "scan",
        }
    }
}

/// What one traced query left behind besides its spans.
#[derive(Clone, Debug, Default)]
pub struct QueryObs {
    pub request: u64,
    pub job_ns: u64,
    pub operators: u64,
    pub compute_ns: u64,
    pub queue_wait_ns: u64,
    /// Compute by operator family: scan, join, group, sort, stage.
    pub family_ns: [u64; 5],
    pub scan_tuples_out: u64,
    pub rows: u64,
}

fn family(op_name: &str) -> usize {
    match op_name {
        "source" => 0,
        "hashjoin" | "nljoin" => 1,
        "groupby" | "groupcollect" | "aggregate" | "distinct" => 2,
        "sort" | "topk" => 3,
        _ => 4,
    }
}

fn observe(profile: &JobProfile, request: u64, rows: u64) -> QueryObs {
    fn walk(op: &OperatorProfile, o: &mut QueryObs) {
        let t = op.totals();
        o.operators += 1;
        o.compute_ns += t.compute_ns;
        o.queue_wait_ns += t.queue_wait_ns;
        let f = family(&op.name);
        o.family_ns[f] += t.compute_ns;
        if f == 0 {
            o.scan_tuples_out += t.tuples_out;
        }
        for i in &op.inputs {
            walk(i, o);
        }
    }
    let mut o = QueryObs {
        request,
        job_ns: profile.elapsed_ns,
        rows,
        ..QueryObs::default()
    };
    walk(&profile.root, &mut o);
    o
}

/// One query to issue and how to check its answer.
enum Check {
    Lookup(i64),
    Ids(&'static str, Vec<i64>),
    TopK { skip: i64 },
}

struct Op {
    class: Class,
    text: String,
    check: Check,
}

/// Outcomes of a timed window.
#[derive(Default)]
pub struct Window {
    /// Latency samples per class in ms; `None` = failed or refused.
    pub samples: Vec<(Class, Option<f64>)>,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub obs: Vec<QueryObs>,
    pub delta: MetricsSnapshot,
    /// Feed rows made durable during the window (htap only).
    pub ingested_rows: u64,
    /// Rows the feed made durable in the whole run, and their ADM-text
    /// bytes (htap only).
    pub feed_rows: u64,
    pub ingested_adm_bytes: u64,
    /// The most any feed push ran behind its due time (htap only).
    pub feed_max_late_ms: f64,
}

impl Window {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.obs.extend(other.obs);
        self.feed_max_late_ms = self.feed_max_late_ms.max(other.feed_max_late_ms);
    }
}

/// Shared request numbering, so every span of one query shares an id.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// Issues one query through the session, times it from `submit` until its
/// rows arrive, and checks the rows with `check`. A refusal, an error or a
/// wrong answer is a failed operation and a missing latency sample.
fn issue(
    db: &Instance,
    session: &Session,
    op: &Op,
    tracer: &Tracer,
    out: &mut Window,
    check: impl FnOnce(&[Value]) -> Result<(), String>,
) {
    let req = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
    out.attempted += 1;
    let root = tracer.open();
    if tracer.enabled() {
        // parse and plan the same text the submit will, so the layers'
        // costs show separately (the submit repeats both internally)
        let _ = tracer.span(Some(root.0), req, "sqlpp.parse", || {
            asterix_sqlpp::parse_sqlpp(&op.text)
        });
        let _ = tracer.span(Some(root.0), req, "algebricks.explain", || {
            db.explain(&op.text, Language::Sqlpp)
        });
    }
    let t0 = Instant::now();
    let submitted = tracer.span(Some(root.0), req, "core.scheduler.submit", || {
        session.submit(&op.text)
    });
    let handle = match submitted {
        Ok(h) => h,
        Err(e) => {
            tracer.close(root, None, req, "request");
            out.samples.push((op.class, None));
            out.fail(format!("{} submit: {e}", op.class.name()));
            return;
        }
    };
    let result = tracer.span(Some(root.0), req, "core.scheduler.wait", || handle.wait());
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let profile = if tracer.enabled() {
        tracer.span(Some(root.0), req, "core.scheduler.profile", || {
            handle.profile()
        })
    } else {
        None
    };
    tracer.close(root, None, req, "request");
    match result
        .map_err(|e| format!("{} wait: {e}", op.class.name()))
        .and_then(|rows| check(&rows).map(|()| rows))
    {
        Ok(rows) => {
            out.samples.push((op.class, Some(latency_ms)));
            if let Some(p) = profile {
                out.obs.push(observe(&p, req, rows.len() as u64));
            }
        }
        Err(msg) => {
            out.samples.push((op.class, None));
            out.fail(msg);
        }
    }
}

fn client_rng(seed: u64, client: u64) -> DataGen {
    DataGen::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Template of `analytics` and `htap`: Figure 3(c)'s join, group and
/// top-k, under a predicate no index serves.
fn scan_op(skip: i64) -> Op {
    Op {
        class: Class::Scan,
        text: format!(
            "SELECT u.id AS id, COUNT(*) AS c FROM GleambookUsers u JOIN GleambookMessages m \
             ON u.id = m.authorId WHERE m.messageId % {} != {skip} GROUP BY u.id \
             ORDER BY c DESC LIMIT {}",
            oracle::MOD,
            oracle::TOP_K
        ),
        check: Check::TopK { skip },
    }
}

/// `lookup`'s mix: about three primary-key lookups per secondary-index
/// search; searches alternate between the B-tree on `authorId` and an
/// R-tree window on `senderLocation`.
///
/// Keyword `contains` searches are left out: the planner answers
/// `contains(m.message, w)` from the keyword index whenever `w` is one
/// whole token, which misses messages where `w` only occurs inside a longer
/// token (`like` inside `dislike`), so on this vocabulary that path returns
/// wrong answers and every run would fail its check.
fn lookup_op(g: &mut DataGen, truth: &GroundTruth) -> Op {
    if g.chance(0.75) {
        let key = g.int(1, MESSAGES + 1);
        return Op {
            class: Class::Lookup,
            text: format!("SELECT VALUE m FROM GleambookMessages m WHERE m.messageId = {key}"),
            check: Check::Lookup(key),
        };
    }
    if g.chance(0.5) {
        let a = g.int(1, USERS + 1);
        Op {
            class: Class::Search,
            text: format!(
                "SELECT VALUE m.messageId FROM GleambookMessages m WHERE m.authorId = {a}"
            ),
            check: Check::Ids("btree", truth.author_ids(a)),
        }
    } else {
        // two-decimal corners, so the text and the oracle see one value
        let corner = |v: f64| -> (String, f64) {
            let s = format!("{v:.2}");
            let parsed = s.parse().expect("formatted float parses");
            (s, parsed)
        };
        let (sx, x1) = corner(g.float(-124.0, -67.0));
        let (sy, y1) = corner(g.float(24.0, 48.0));
        let (sx2, x2) = corner(x1 + 1.0);
        let (sy2, y2) = corner(y1 + 1.0);
        Op {
            class: Class::Search,
            text: format!(
                "SELECT VALUE m.messageId FROM GleambookMessages m WHERE spatial_intersect(\
                 m.senderLocation, create_rectangle(create_point({sx}, {sy}), create_point({sx2}, {sy2})))"
            ),
            check: Check::Ids("rtree", truth.window_ids((x1, y1, x2, y2))),
        }
    }
}

fn check_static(truth: &GroundTruth, check: &Check, rows: &[Value]) -> Result<(), String> {
    match check {
        Check::Lookup(key) => truth.check_lookup(*key, rows),
        Check::Ids(what, want) => oracle::check_id_set(what, rows, want),
        Check::TopK { skip } => {
            let want = truth.counts.excluding(*skip);
            oracle::check_top_k(rows, &want, &want)
        }
    }
}

/// Runs closed-loop clients over a static data set until `until`.
fn closed_loop(
    db: &Instance,
    truth: &GroundTruth,
    w: Workload,
    seed: u64,
    until: Instant,
    tracer: &Tracer,
) -> Window {
    let clients = if w == Workload::Lookup {
        LOOKUP_CLIENTS
    } else {
        1
    };
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let session = db.session();
                    let mut g = client_rng(seed, c as u64);
                    let mut out = Window::default();
                    while Instant::now() < until {
                        let op = match w {
                            Workload::Lookup => lookup_op(&mut g, truth),
                            _ => scan_op(g.int(0, oracle::MOD)),
                        };
                        issue(db, &session, &op, tracer, &mut out, |rows| {
                            check_static(truth, &op.check, rows)
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Window::default();
    for p in parts {
        all.absorb(p);
    }
    all
}

/// Runs `lookup` or `analytics`: warm-up, then the timed window.
pub fn run_static(
    w: Workload,
    loaded: &Loaded,
    data: &Dataset,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Window {
    let quiet = Tracer::new(false);
    let mut warm = closed_loop(
        &loaded.db,
        &data.truth,
        w,
        seed ^ 0xA5A5,
        Instant::now() + WARMUP,
        &quiet,
    );
    let before = loaded.db.metrics_snapshot();
    let t0 = Instant::now();
    let mut win = closed_loop(
        &loaded.db,
        &data.truth,
        w,
        seed,
        t0 + Duration::from_secs_f64(seconds),
        tracer,
    );
    win.elapsed_s = t0.elapsed().as_secs_f64();
    win.delta = loaded.db.metrics_snapshot().delta(&before);
    // warm-up answers are checked too; they only stay out of the timings
    win.attempted += warm.attempted;
    win.failed += warm.failed;
    win.errors.append(&mut warm.errors);
    win
}

/// Seed of the feed's record stream.
fn feed_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x5EED_F00D)
}

/// Runs `htap`: a throttled feed is offered new messages at a fixed rate
/// while one closed-loop session runs the analytics template; afterwards
/// the feed is stopped and every durable seqno is checked to be present
/// exactly once.
pub fn run_htap(
    loaded: &Loaded,
    data: &Dataset,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Window {
    let db = &loaded.db;
    let truth = &data.truth;
    let feed = Feed::start(db.clone(), "GleambookMessages", FeedConfig::default());
    // rows handed to the feed so far, in seqno order (seqno i = index i-1)
    let pushed: Mutex<Vec<MessageFacts>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let window_start: Mutex<Option<(Instant, MetricsSnapshot, u64)>> = Mutex::new(None);
    let warm_until = Instant::now() + WARMUP;
    let until = warm_until + Duration::from_secs_f64(seconds);

    let (mut producer, mut reader) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let quiet = Tracer::new(false);
            let mut g = DataGen::new(feed_seed(seed));
            let mut out = Window::default();
            let mut i: i64 = 0;
            let start = Instant::now();
            while !stop.load(Ordering::Acquire) {
                i += 1;
                let rec = g.message(MESSAGES + i, USERS);
                pushed
                    .lock()
                    .expect("pushed list poisoned")
                    .push(MessageFacts::of(&rec));
                out.attempted += 1;
                // open loop: each row is due at a fixed time; a push delayed
                // by backpressure is timed from when it was due
                let due = start + Duration::from_secs_f64(i as f64 / HTAP_FEED_ROWS_PER_S);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let timed = due >= warm_until;
                let res = if timed { tracer } else { &quiet }.span(
                    None,
                    i as u64,
                    "core.feeds.push",
                    || feed.push(rec),
                );
                if timed {
                    let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                    out.feed_max_late_ms = out.feed_max_late_ms.max(late_ms);
                }
                match res {
                    Ok(seq) if seq == i as u64 => {}
                    Ok(seq) => out.fail(format!("push {i}: feed assigned seqno {seq}")),
                    Err(e) => out.fail(format!("push {i}: {e}")),
                }
            }
            out
        });
        let reader = scope.spawn(|| {
            let session = db.session();
            let mut g = client_rng(seed, 0);
            let mut lo_counts = truth.counts.clone();
            let mut lo_upto = 0usize;
            let mut out = Window::default();
            let mut warm = Window::default();
            let quiet = Tracer::new(false);
            loop {
                let now = Instant::now();
                if now >= until {
                    break;
                }
                let in_window = now >= warm_until;
                if in_window && window_start.lock().expect("window lock").is_none() {
                    let snap = db.metrics_snapshot();
                    *window_start.lock().expect("window lock") =
                        Some((Instant::now(), snap, feed.last_durable_seq()));
                }
                // lower bound: every row durable before the submit is visible
                let durable = feed.last_durable_seq() as usize;
                {
                    let p = pushed.lock().expect("pushed list poisoned");
                    for m in &p[lo_upto..durable.min(p.len())] {
                        lo_counts.add(m);
                    }
                    lo_upto = lo_upto.max(durable.min(p.len()));
                }
                let skip = g.int(0, oracle::MOD);
                let op = scan_op(skip);
                let sink = if in_window { &mut out } else { &mut warm };
                let t = if in_window { tracer } else { &quiet };
                issue(db, &session, &op, t, sink, |rows| {
                    // upper bound: every row handed to the feed so far
                    let mut hi_counts: AuthorCounts = lo_counts.clone();
                    let p = pushed.lock().expect("pushed list poisoned");
                    for m in &p[lo_upto..] {
                        hi_counts.add(m);
                    }
                    drop(p);
                    oracle::check_top_k(
                        rows,
                        &lo_counts.excluding(skip),
                        &hi_counts.excluding(skip),
                    )
                });
            }
            let end = (
                Instant::now(),
                db.metrics_snapshot(),
                feed.last_durable_seq(),
            );
            stop.store(true, Ordering::Release);
            out.attempted += warm.attempted;
            out.failed += warm.failed;
            out.errors.append(&mut warm.errors);
            (out, end)
        });
        (
            producer.join().expect("feed producer panicked"),
            reader.join().expect("analytics client panicked"),
        )
    });
    let (end_at, end_snap, end_durable) = reader.1;
    let mut win = std::mem::take(&mut reader.0);
    if let Some((start_at, start_snap, start_durable)) =
        window_start.into_inner().expect("window lock")
    {
        win.elapsed_s = end_at.duration_since(start_at).as_secs_f64();
        win.delta = end_snap.delta(&start_snap);
        win.ingested_rows = end_durable.saturating_sub(start_durable);
    }
    win.absorb(std::mem::take(&mut producer));

    // stop the feed, then check every durable seqno is present exactly once
    // with the generated record, and nothing beyond the pushed range exists
    let pushed = pushed.into_inner().expect("pushed list poisoned").len() as u64;
    if let Some(e) = feed.error() {
        win.fail(format!("feed fail-stopped: {e}"));
    }
    feed.stop();
    let durable = match db.feed_durable_seq(&Feed::cursor("GleambookMessages")) {
        Ok(d) => d,
        Err(e) => {
            win.fail(format!("durable seqno: {e}"));
            0
        }
    };
    if durable != pushed {
        win.fail(format!(
            "feed stopped with {durable} durable of {pushed} pushed rows"
        ));
    }
    win.feed_rows = durable;
    check_feed_rows(db, seed, durable, &mut win);
    win
}

fn check_feed_rows(db: &Instance, seed: u64, durable: u64, win: &mut Window) {
    win.attempted += 1;
    let rows = match db.query(&format!(
        "SELECT VALUE m FROM GleambookMessages m WHERE m.messageId > {MESSAGES}"
    )) {
        Ok(r) => r,
        Err(e) => return win.fail(format!("feed check query: {e}")),
    };
    let mut seen: std::collections::HashMap<i64, (u32, Value)> = Default::default();
    for r in rows {
        let id = r.field("messageId").as_i64().unwrap_or(-1);
        seen.entry(id).or_insert((0, Value::Null)).0 += 1;
        seen.get_mut(&id).expect("just inserted").1 = r;
    }
    let mut g = DataGen::new(feed_seed(seed));
    let mut bad = 0u64;
    for i in 1..=durable as i64 {
        let want = g.message(MESSAGES + i, USERS);
        win.ingested_adm_bytes += want.to_string().len() as u64;
        match seen.remove(&(MESSAGES + i)) {
            Some((1, got)) if got == want => {}
            Some((n, _)) => {
                bad += 1;
                if bad <= 3 {
                    win.errors
                        .push(format!("feed seqno {i}: present {n} time(s) or altered"));
                }
            }
            None => {
                bad += 1;
                if bad <= 3 {
                    win.errors
                        .push(format!("feed seqno {i}: durable but missing"));
                }
            }
        }
    }
    // after a clean stop every pushed row is durable, so any other row
    // under the feed's id range was never pushed
    let beyond = seen.len() as u64;
    if beyond > 0 {
        win.errors
            .push(format!("{beyond} row(s) beyond the pushed range"));
    }
    win.failed += bad + beyond;
}
