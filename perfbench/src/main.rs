//! `perfbench` — the end-to-end and per-layer benchmark of asterix-rs.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lookup --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (Gleambook schema, `DataGen` records under `--seed`):
//!
//! * `lookup` — 2 closed-loop sessions of primary-key lookups mixed ~3:1
//!   with B-tree and R-tree index searches over a data set that fits the
//!   default buffer cache;
//! * `analytics` — 1 closed-loop session of a users ⋈ messages, group-by,
//!   top-k template under a seeded predicate no index serves, with the
//!   buffer cache shrunk well below the primary components and one morsel
//!   worker;
//! * `htap` — a throttled feed offered new messages at a fixed rate into
//!   the indexed dataset while 1 session runs the `analytics` template on
//!   one morsel worker, with a small LSM memory budget so flushes and
//!   merges happen while timed.
//!
//! A run is [`SUB_RUNS`] sub-runs, each its own process (the benchmark
//! re-executes itself with `--sub-run`): set up (open + DDL + load +
//! flush), warm up outside the timed window, measure for `--seconds /
//! SUB_RUNS`, check every answer against the generated data. Separate
//! processes keep RSS and caches from carrying over, and spread one
//! process's luck with thread placement and memory layout over several.
//! `lookup` and `analytics`, whose `ingest_rows_per_s` is the load rate,
//! set up a second time after the window, so the load is timed at ten
//! moments of the run rather than five. The parent pools the sub-runs and
//! prints two lines to stdout: a reproducibility record, then the result
//! line `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced sub-runs, reports the per-layer metrics (medians over the traced
//! sub-runs) and the tracing overhead, and writes the spans to
//! `.bench_out/`. The exit code is nonzero if any operation failed or
//! returned a wrong answer.

mod oracle;
mod report;
mod stats;
mod trace;
mod workload;

use asterix_adm::Value;
use asterix_obs::Json;
use std::path::{Path, PathBuf};
use trace::Tracer;
use workload::{Class, Dataset, Loaded, SetupTimes, Window, Workload};

/// Sub-runs (processes) per run; each measures `--seconds / SUB_RUNS`.
pub const SUB_RUNS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a sub-run process: its index within the run.
    sub_run: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut sub_run) =
        (None, 1u64, 10.0f64, false, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            "--sub-run" => sub_run = Some(value.parse().map_err(|e| format!("--sub-run: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload lookup|analytics|htap is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        sub_run,
    })
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a sub-run hands back to the parent (one JSON line on stdout).
struct SubRun {
    samples: Vec<(Class, Option<f64>)>,
    elapsed_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The set-up before the window, then any set-up after it.
    setups: Vec<SetupTimes>,
    space_amp: f64,
    peak_rss_mb: f64,
    ingested_rows: u64,
    feed_max_late_ms: f64,
    merge_stall_ms: f64,
    primary_bytes: u64,
    /// Per-layer metrics (traced sub-runs only).
    layers: Vec<(String, f64)>,
}

impl SubRun {
    fn to_json(&self) -> Json {
        let f = Json::F64;
        let samples = self
            .samples
            .iter()
            .map(|(c, v)| Json::Arr(vec![Json::str(c.name()), v.map_or(Json::Null, Json::F64)]))
            .collect();
        let setups = self
            .setups
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    f(s.total_s),
                    f(s.commit_ms),
                    f(s.load_rows_per_s),
                    f(s.flush_s),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("samples".into(), Json::Arr(samples)),
            ("elapsed_s".into(), f(self.elapsed_s)),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            (
                "errors".into(),
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            ("setups".into(), Json::Arr(setups)),
            ("space_amp".into(), f(self.space_amp)),
            ("peak_rss_mb".into(), f(self.peak_rss_mb)),
            ("ingested_rows".into(), Json::U64(self.ingested_rows)),
            ("feed_max_late_ms".into(), f(self.feed_max_late_ms)),
            ("merge_stall_ms".into(), f(self.merge_stall_ms)),
            ("primary_bytes".into(), Json::U64(self.primary_bytes)),
            (
                "layers".into(),
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), f(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<SubRun, String> {
        let num = |k: &str| {
            v.field(k)
                .as_f64()
                .ok_or_else(|| format!("sub-run output lacks {k}"))
        };
        let list = |k: &str| match v.field(k) {
            Value::Array(a) => Ok(a.clone()),
            _ => Err(format!("sub-run output lacks {k}")),
        };
        let samples = list("samples")?
            .iter()
            .map(|s| {
                let Value::Array(pair) = s else {
                    return Err("malformed sample".to_string());
                };
                let class = match pair.first().and_then(Value::as_str) {
                    Some("lookup") => Class::Lookup,
                    Some("search") => Class::Search,
                    Some("scan") => Class::Scan,
                    other => return Err(format!("unknown class {other:?}")),
                };
                Ok((class, pair.get(1).and_then(Value::as_f64)))
            })
            .collect::<Result<_, _>>()?;
        let setups = list("setups")?
            .iter()
            .map(|s| {
                let Value::Array(t) = s else {
                    return Err("malformed setup times".to_string());
                };
                let t: Vec<f64> = t.iter().filter_map(Value::as_f64).collect();
                let [total_s, commit_ms, load_rows_per_s, flush_s] = t[..] else {
                    return Err("malformed setup times".into());
                };
                Ok(SetupTimes {
                    total_s,
                    commit_ms,
                    load_rows_per_s,
                    flush_s,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        if setups.is_empty() {
            return Err("sub-run output lacks setups".into());
        }
        let layers = match v.field("layers") {
            Value::Object(o) => o
                .iter()
                .filter_map(|(k, x)| Some((k.to_string(), x.as_f64()?)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(SubRun {
            samples,
            elapsed_s: num("elapsed_s")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors: list("errors")?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            setups,
            space_amp: num("space_amp")?,
            peak_rss_mb: num("peak_rss_mb")?,
            ingested_rows: num("ingested_rows")? as u64,
            feed_max_late_ms: num("feed_max_late_ms")?,
            merge_stall_ms: num("merge_stall_ms")?,
            primary_bytes: num("primary_bytes")? as u64,
            layers,
        })
    }
}

fn sub_run_dir(args: &Args) -> PathBuf {
    PathBuf::from(".bench_data").join(format!("{}-{}", args.workload.name(), std::process::id()))
}

/// One sub-run, in this process: set up, warm up, measure, check.
fn sub_run(args: &Args, index: u64) -> Result<SubRun, String> {
    let data = Dataset::generate(args.seed);
    let tracer = Tracer::new(args.trace);
    let loaded = workload::setup(args.workload, &data, sub_run_dir(args), &tracer)?;
    let primary_bytes = workload::dir_bytes(&loaded.dir).1;
    // every sub-run loads the same data; each draws its own queries
    let query_seed = args.seed.wrapping_mul(1_000_003).wrapping_add(index);
    let seconds = args.seconds / SUB_RUNS as f64;
    let mut win = match args.workload {
        Workload::Htap => workload::run_htap(&loaded, &data, query_seed, seconds, &tracer),
        w => workload::run_static(w, &loaded, &data, query_seed, seconds, &tracer),
    };
    if let Err(e) = loaded.db.flush_all() {
        win.failed += 1;
        win.errors.push(format!("final flush: {e}"));
    }
    let bytes = workload::dir_bytes(&loaded.dir).0;
    let space_amp = stats::ratio(
        bytes as f64,
        (data.adm_bytes + win.ingested_adm_bytes) as f64,
    );
    let mut setups = vec![loaded.times];
    Loaded::discard(loaded);
    let peak_rss_mb = peak_rss_mb();
    if args.workload != Workload::Htap {
        // here the load rate is `ingest_rows_per_s`: time it again
        let again = workload::setup(args.workload, &data, sub_run_dir(args), &Tracer::new(false))?;
        setups.push(again.times);
        Loaded::discard(again);
    }
    let mut layers = Vec::new();
    if args.trace {
        let spans = tracer.take();
        let out_dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let file = out_dir.join(format!(
            "spans-{}-seed{}-{index}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace::write_spans(&file, &spans).map_err(|e| format!("{}: {e}", file.display()))?;
        layers = report::per_layer(&win, &spans, &setups[0])
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
    }
    Ok(SubRun {
        elapsed_s: win.elapsed_s,
        attempted: win.attempted,
        failed: win.failed,
        setups,
        space_amp,
        peak_rss_mb,
        ingested_rows: win.ingested_rows,
        feed_max_late_ms: win.feed_max_late_ms,
        merge_stall_ms: report::counter(&win.delta, "storage.lsm.merge_stall_ns") / 1e6,
        primary_bytes,
        layers,
        samples: std::mem::take(&mut win.samples),
        errors: std::mem::take(&mut win.errors),
    })
}

/// Runs one sub-run as a child process and reads back its result.
fn spawn_sub_run(args: &Args, index: u64, traced: bool) -> Result<SubRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--sub-run", &index.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("sub-run {index}: {e}"))?;
    if !out.status.success() {
        return Err(format!("sub-run {index} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let value = asterix_adm::parse::parse_value(line)
        .map_err(|e| format!("sub-run {index} output: {e}"))?;
    SubRun::from_value(&value)
}

/// The sub-runs' windows pooled into one.
fn pool(runs: &[&SubRun]) -> Window {
    let mut w = Window::default();
    for r in runs {
        w.samples.extend(r.samples.iter().copied());
        w.elapsed_s += r.elapsed_s;
        w.ingested_rows += r.ingested_rows;
    }
    w
}

fn class_record(win: &Window) -> Json {
    let mut classes: Vec<Class> = win.samples.iter().map(|(c, _)| *c).collect();
    classes.sort();
    classes.dedup();
    let fields = classes.into_iter().map(|c| {
        let n = win.samples.iter().filter(|(k, _)| *k == c).count() as u64;
        let p = |q| Json::F64(report::latency(win, Some(c), q).unwrap_or(f64::INFINITY));
        let stats = vec![
            ("samples".into(), Json::U64(n)),
            ("p50_ms".into(), p(0.5)),
            ("p90_ms".into(), p(0.9)),
            ("p95_ms".into(), p(0.95)),
        ];
        (c.name().to_string(), Json::Obj(stats))
    });
    Json::Obj(fields.collect())
}

/// Runs every sub-run and renders the record and the result line.
fn run(args: &Args) -> Result<(Json, String, bool), String> {
    let mut runs = Vec::new();
    for i in 0..SUB_RUNS as u64 {
        // traced runs alternate untraced and traced sub-runs, so drift in
        // the host does not land on one side of the overhead
        let traced = args.trace && i % 2 == 1;
        runs.push((traced, spawn_sub_run(args, i, traced)?));
    }
    let plain: Vec<&SubRun> = runs.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&SubRun> = runs.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let all: Vec<&SubRun> = runs.iter().map(|(_, r)| r).collect();
    let cfg = args.workload.config(Path::new(".bench_data"));
    let win = pool(&plain);
    let each =
        |f: &dyn Fn(&SubRun) -> f64| Json::Arr(all.iter().map(|r| Json::F64(f(r))).collect());
    let each_setup = |f: &dyn Fn(&SetupTimes) -> f64| {
        Json::Arr(
            all.iter()
                .flat_map(|r| r.setups.iter().map(|s| Json::F64(f(s))))
                .collect(),
        )
    };
    let mut fields: Vec<(String, Json)> = vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::U64(args.seed)),
        ("seconds".into(), Json::F64(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("sub_runs".into(), Json::U64(all.len() as u64)),
        (
            "host_cpus".into(),
            Json::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("users".into(), Json::U64(workload::USERS as u64)),
        ("messages".into(), Json::U64(workload::MESSAGES as u64)),
        (
            "config_deltas".into(),
            Json::Obj(
                workload::config_deltas(&cfg)
                    .into_iter()
                    .map(|(k, v)| (k, Json::str(v)))
                    .collect(),
            ),
        ),
        (
            "cache_bytes".into(),
            Json::U64((cfg.cache_pages_per_node * cfg.nodes * 8192) as u64),
        ),
        (
            "primary_component_bytes".into(),
            Json::U64(all.first().map_or(0, |r| r.primary_bytes)),
        ),
        ("classes".into(), class_record(&win)),
        ("window_s".into(), Json::F64(win.elapsed_s)),
        ("setup_s_each".into(), each_setup(&|s| s.total_s)),
        (
            "load_rows_per_s_each".into(),
            each_setup(&|s| s.load_rows_per_s),
        ),
        ("peak_rss_mb_each".into(), each(&|r| r.peak_rss_mb)),
        ("merge_stall_ms_each".into(), each(&|r| r.merge_stall_ms)),
    ];
    if args.workload == Workload::Htap {
        fields.push((
            "feed_rows_per_s_offered".into(),
            Json::F64(workload::HTAP_FEED_ROWS_PER_S),
        ));
        fields.push((
            "feed_max_late_ms_each".into(),
            each(&|r| r.feed_max_late_ms),
        ));
    }
    let metrics = if args.trace {
        let traced_win = pool(&traced);
        fields.push(("traced_classes".into(), class_record(&traced_win)));
        let mut layers: Vec<(&'static str, f64)> = report::PER_LAYER
            .iter()
            .filter_map(|(name, _)| {
                let vals: Vec<f64> = traced
                    .iter()
                    .filter_map(|r| r.layers.iter().find(|(k, _)| k == name))
                    .map(|(_, v)| *v)
                    .collect();
                (!vals.is_empty()).then(|| (*name, stats::median(&vals)))
            })
            .collect();
        layers.extend(report::trace_overhead(&traced_win, &win));
        layers
    } else {
        let median_of = |f: &dyn Fn(&SubRun) -> f64| {
            stats::median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let setups: Vec<SetupTimes> = plain
            .iter()
            .flat_map(|r| r.setups.iter().copied())
            .collect();
        report::end_to_end(&report::EndToEnd {
            window: &win,
            setups: &setups,
            space_amp: median_of(&|r| r.space_amp),
            peak_rss_mb: median_of(&|r| r.peak_rss_mb),
            htap: args.workload == Workload::Htap,
        })
    };
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let errors: Vec<Json> = all
        .iter()
        .flat_map(|r| r.errors.iter().map(Json::str))
        .collect();
    fields.push(("attempted".into(), Json::U64(attempted)));
    fields.push(("failed".into(), Json::U64(failed)));
    fields.push((
        "failed_share".into(),
        Json::F64(stats::ratio(failed as f64, attempted as f64)),
    ));
    fields.push(("errors".into(), Json::Arr(errors)));
    let correct = failed == 0;
    let line = report::result_line(correct, attempted, failed, &metrics);
    Ok((
        Json::Obj(vec![("record".into(), Json::Obj(fields))]),
        line,
        correct,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(index) = args.sub_run {
        let outcome = sub_run(&args, index);
        let _ = std::fs::remove_dir_all(sub_run_dir(&args));
        match outcome {
            Ok(r) => println!("{}", r.to_json().render()),
            Err(e) => {
                eprintln!("perfbench: sub-run {index}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let outcome = run(&args);
    let _ = std::fs::remove_dir(".bench_data");
    match outcome {
        Ok((record, line, correct)) => {
            println!("{}", record.render());
            println!("{line}");
            if !correct {
                eprintln!(
                    "perfbench: some operations failed or returned wrong answers; see \"errors\""
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
