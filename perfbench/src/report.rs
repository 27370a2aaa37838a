//! The metric catalogue and the derivation of every reported number.
//!
//! End-to-end metrics (untraced run) apply to every workload:
//!
//! * `setup_s` — median over the run's set-ups of open + DDL + load +
//!   `flush_all` (one per sub-run on `htap`, two on `lookup` and
//!   `analytics`);
//! * `p50_ms`, `p80_ms` — nearest-rank percentiles over every query of the
//!   timed windows of all sub-runs, from the `submit` call until all rows
//!   have arrived; a failed or refused query counts as missing both. p80 is
//!   the highest percentile with at least ten samples beyond it on `htap`,
//!   the workload with the fewest queries (~55 a run); the record lists
//!   p90 and p95 per query class where there are more;
//! * `qps` — queries completed correctly per second of the window;
//! * `ingest_rows_per_s` — rows made durable per second by the workload's
//!   writer: on `htap` the feed's durable-seqno advance over the window,
//!   which is the offered rate while the system keeps up and less when it
//!   cannot; on `lookup` and `analytics`, which write nothing while timed,
//!   the set-up load transaction (median over set-ups);
//! * `space_amp` and `peak_rss_mb` — medians over the sub-runs;
//!   `space_amp` is the bytes under the data directory after the final
//!   flush (components and WAL) ÷ ADM-text bytes of the records present,
//!   `peak_rss_mb` the sub-run process's VmHWM.
//!
//! Per-layer metrics (traced run) come from the spans the benchmark records
//! around each public call and from counter deltas over the window. A
//! layer that does no work in a workload reports a zero count or share;
//! no time is reported for work that never happens.

use crate::stats::{median, nearest_rank, ratio};
use crate::trace::Span;
use crate::workload::{QueryObs, SetupTimes, Window};
use asterix_obs::MetricsSnapshot;
use std::collections::HashMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p80_ms", "ms"),
    ("qps", "1/s"),
    ("ingest_rows_per_s", "rows/s"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sqlpp.parse_us", "us"),
    ("algebricks.plan_us", "us"),
    ("algebricks.operators", "count"),
    ("core.scheduler.submit_us", "us"),
    ("core.scheduler.queue_ms", "ms"),
    ("core.scheduler.rejected", "count"),
    ("hyracks.job_ms", "ms"),
    ("hyracks.compute_ms", "ms"),
    ("hyracks.queue_wait_ms", "ms"),
    ("hyracks.scan.compute_ms", "ms"),
    ("hyracks.stage.compute_ms", "ms"),
    ("hyracks.join.compute_share", "ratio"),
    ("hyracks.group.compute_share", "ratio"),
    ("hyracks.sort.compute_share", "ratio"),
    ("hyracks.scan.tuples_per_result", "ratio"),
    ("hyracks.morsels_per_query", "count"),
    ("hyracks.tuples_exchanged_per_query", "count"),
    ("hyracks.spilled_bytes", "bytes"),
    ("hyracks.steal_ratio", "ratio"),
    ("hyracks.park_ms_per_query", "ms"),
    ("storage.cache.pages_per_query", "count"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.cache.misses_per_query", "count"),
    ("storage.cache.evictions", "count"),
    ("storage.io.reads_per_query", "count"),
    ("storage.io.bytes_read_per_query", "bytes"),
    ("core.feeds.throttle_share", "ratio"),
    ("storage.wal.commits_per_sync", "ratio"),
    ("storage.lsm.merge_stall_share", "ratio"),
    ("storage.io.write_amp", "ratio"),
    ("core.txn.commit_ms", "ms"),
    ("core.txn.load_rows_per_s", "rows/s"),
    ("storage.lsm.flush_s", "s"),
    ("bench.trace.p50_overhead_ms", "ms"),
    ("bench.trace.qps_overhead", "1/s"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// Sum of a counter over the cluster-wide registry and every node's.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    let nodes: u64 = (0..64)
        .filter_map(|i| snap.counter(&format!("node{i}.{name}")))
        .sum();
    (snap.counter(name).unwrap_or(0) + nodes) as f64
}

/// Latency percentile over the whole window, or over one class.
pub fn latency(win: &Window, class: Option<crate::workload::Class>, q: f64) -> Option<f64> {
    let s: Vec<Option<f64>> = win
        .samples
        .iter()
        .filter(|(c, _)| class.is_none_or(|k| k == *c))
        .map(|(_, v)| *v)
        .collect();
    nearest_rank(&s, q)
}

pub fn completed(win: &Window) -> usize {
    win.samples.iter().filter(|(_, v)| v.is_some()).count()
}

pub fn qps(win: &Window) -> f64 {
    ratio(completed(win) as f64, win.elapsed_s)
}

/// Inputs the end-to-end metrics are computed from.
pub struct EndToEnd<'a> {
    pub window: &'a Window,
    pub setups: &'a [SetupTimes],
    pub space_amp: f64,
    pub peak_rss_mb: f64,
    pub htap: bool,
}

pub fn end_to_end(e: &EndToEnd) -> Vec<(&'static str, f64)> {
    let setup_s: Vec<f64> = e.setups.iter().map(|s| s.total_s).collect();
    let load: Vec<f64> = e.setups.iter().map(|s| s.load_rows_per_s).collect();
    let ingest = if e.htap {
        ratio(e.window.ingested_rows as f64, e.window.elapsed_s)
    } else {
        median(&load)
    };
    vec![
        ("setup_s", median(&setup_s)),
        (
            "p50_ms",
            latency(e.window, None, 0.5).unwrap_or(f64::INFINITY),
        ),
        (
            "p80_ms",
            latency(e.window, None, 0.8).unwrap_or(f64::INFINITY),
        ),
        ("qps", qps(e.window)),
        ("ingest_rows_per_s", ingest),
        ("space_amp", e.space_amp),
        ("peak_rss_mb", e.peak_rss_mb),
    ]
}

/// Durations of one request's spans, by span name.
fn request_spans(spans: &[Span]) -> HashMap<u64, HashMap<&'static str, &Span>> {
    let mut by_req: HashMap<u64, HashMap<&'static str, &Span>> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.request != 0 && s.name != "core.feeds.push")
    {
        by_req.entry(s.request).or_default().insert(s.name, s);
    }
    by_req
}

/// Per-layer metrics of one traced sub-run, from its spans, its query
/// profiles, its counter deltas and its set-up; the tracing overhead is
/// added by [`trace_overhead`] once every sub-run is in.
pub fn per_layer(w: &Window, spans: &[Span], setup: &SetupTimes) -> Vec<(&'static str, f64)> {
    let by_req = request_spans(spans);
    let dur = |req: &u64, name: &str| {
        by_req
            .get(req)
            .and_then(|m| m.get(name))
            .map(|s| s.duration_ns() as f64)
    };
    let obs: HashMap<u64, &QueryObs> = w.obs.iter().map(|o| (o.request, o)).collect();
    let mut parse = Vec::new();
    let mut plan = Vec::new();
    let mut submit = Vec::new();
    let mut queue = Vec::new();
    for req in obs.keys() {
        let (Some(p), Some(e), Some(s)) = (
            dur(req, "sqlpp.parse"),
            dur(req, "algebricks.explain"),
            dur(req, "core.scheduler.submit"),
        ) else {
            continue;
        };
        parse.push(p / 1e3);
        plan.push((e - p).max(0.0) / 1e3);
        submit.push(s / 1e3);
        let spans = &by_req[req];
        if let (Some(sub), Some(wait)) = (
            spans.get("core.scheduler.submit"),
            spans.get("core.scheduler.wait"),
        ) {
            let latency = wait.end_ns.saturating_sub(sub.start_ns) as f64;
            queue.push((latency - obs[req].job_ns as f64).max(0.0) / 1e6);
        }
    }
    let per_query = |f: &dyn Fn(&QueryObs) -> f64| median(&w.obs.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&QueryObs) -> u64| w.obs.iter().map(f).sum::<u64>() as f64;
    let compute = sum(&|o| o.compute_ns);
    let queries = completed(w) as f64;
    let d = &w.delta;
    let c = |name: &str| counter(d, name);
    let hits = c("storage.io.cache_hits");
    let misses = c("storage.io.cache_misses");
    let window_ns = w.elapsed_s * 1e9;
    let syncs = c("storage.wal.group_commits");
    vec![
        ("sqlpp.parse_us", median(&parse)),
        ("algebricks.plan_us", median(&plan)),
        ("algebricks.operators", per_query(&|o| o.operators as f64)),
        ("core.scheduler.submit_us", median(&submit)),
        ("core.scheduler.queue_ms", median(&queue)),
        ("core.scheduler.rejected", c("core.serving.rejected")),
        ("hyracks.job_ms", per_query(&|o| o.job_ns as f64 / 1e6)),
        (
            "hyracks.compute_ms",
            per_query(&|o| o.compute_ns as f64 / 1e6),
        ),
        (
            "hyracks.queue_wait_ms",
            per_query(&|o| o.queue_wait_ns as f64 / 1e6),
        ),
        (
            "hyracks.scan.compute_ms",
            per_query(&|o| o.family_ns[0] as f64 / 1e6),
        ),
        (
            "hyracks.stage.compute_ms",
            per_query(&|o| o.family_ns[4] as f64 / 1e6),
        ),
        (
            "hyracks.join.compute_share",
            ratio(sum(&|o| o.family_ns[1]), compute),
        ),
        (
            "hyracks.group.compute_share",
            ratio(sum(&|o| o.family_ns[2]), compute),
        ),
        (
            "hyracks.sort.compute_share",
            ratio(sum(&|o| o.family_ns[3]), compute),
        ),
        (
            "hyracks.scan.tuples_per_result",
            ratio(sum(&|o| o.scan_tuples_out), sum(&|o| o.rows)),
        ),
        (
            "hyracks.morsels_per_query",
            ratio(c("hyracks.sched.morsels"), queries),
        ),
        (
            "hyracks.tuples_exchanged_per_query",
            ratio(c("hyracks.dataflow.tuples_exchanged"), queries),
        ),
        ("hyracks.spilled_bytes", c("hyracks.dataflow.spilled_bytes")),
        (
            "hyracks.steal_ratio",
            ratio(c("hyracks.sched.steals"), c("hyracks.sched.morsels")),
        ),
        (
            "hyracks.park_ms_per_query",
            ratio(c("hyracks.sched.park_ns") / 1e6, queries),
        ),
        (
            "storage.cache.pages_per_query",
            ratio(hits + misses, queries),
        ),
        ("storage.cache.hit_ratio", ratio(hits, hits + misses)),
        ("storage.cache.misses_per_query", ratio(misses, queries)),
        ("storage.cache.evictions", c("storage.io.evictions")),
        (
            "storage.io.reads_per_query",
            ratio(c("storage.io.physical_reads"), queries),
        ),
        (
            "storage.io.bytes_read_per_query",
            ratio(c("storage.io.bytes_read"), queries),
        ),
        (
            "core.feeds.throttle_share",
            ratio(c("core.feed.throttle_ns"), window_ns),
        ),
        (
            "storage.wal.commits_per_sync",
            ratio(syncs + c("storage.wal.group_commit_waiters"), syncs),
        ),
        (
            "storage.lsm.merge_stall_share",
            ratio(c("storage.lsm.merge_stall_ns"), window_ns),
        ),
        (
            "storage.io.write_amp",
            ratio(
                c("storage.io.bytes_written"),
                w.ingested_rows as f64 * ratio(w.ingested_adm_bytes as f64, w.feed_rows as f64),
            ),
        ),
        ("core.txn.commit_ms", setup.commit_ms),
        ("core.txn.load_rows_per_s", setup.load_rows_per_s),
        ("storage.lsm.flush_s", setup.flush_s),
    ]
}

/// Tracing overhead: the traced minus the untraced end-to-end numbers.
pub fn trace_overhead(traced: &Window, untraced: &Window) -> Vec<(&'static str, f64)> {
    let p50 = |w| latency(w, None, 0.5).unwrap_or(0.0);
    vec![
        ("bench.trace.p50_overhead_ms", p50(traced) - p50(untraced)),
        ("bench.trace.qps_overhead", qps(traced) - qps(untraced)),
    ]
}

/// Renders a number for JSON; a non-finite value (a percentile that landed
/// on a failed operation) has no JSON number and becomes `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    asterix_obs::json::Json::str(s).render()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(n),
                num(*v),
                jstr(unit_of(n))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        asterix_adm::parse::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn declared(v: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Array(items) = v.field(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|m| {
                (
                    m.field("name").as_str().unwrap().to_string(),
                    m.field("unit").as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn emitted(line: &str) -> Vec<(String, String)> {
        let v = asterix_adm::parse::parse_value(line).expect("result line parses");
        let Value::Object(o) = v.field("metrics") else {
            panic!("metrics is not an object")
        };
        o.iter()
            .map(|(n, m)| (n.to_string(), m.field("unit").as_str().unwrap().to_string()))
            .collect()
    }

    fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
        v.sort();
        v
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit_and_nothing_else() {
        let bench = benchmark_json();
        let e2e = end_to_end(&EndToEnd {
            window: &Window::default(),
            setups: &[SetupTimes::default()],
            space_amp: 1.0,
            peak_rss_mb: 1.0,
            htap: false,
        });
        let mut layers = per_layer(&Window::default(), &[], &SetupTimes::default());
        layers.extend(trace_overhead(&Window::default(), &Window::default()));
        assert_eq!(
            sorted(emitted(&result_line(true, 1, 0, &e2e))),
            sorted(declared(&bench, "end_to_end"))
        );
        assert_eq!(
            sorted(emitted(&result_line(true, 1, 0, &layers))),
            sorted(declared(&bench, "per_layer"))
        );
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "metric names are used once");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(false, 3, 1, &[("qps", 2.5), ("p80_ms", f64::INFINITY)]);
        let v = asterix_adm::parse::parse_value(&line).expect("parses");
        let Value::Object(o) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = o.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.field("attempted").as_i64(), Some(3));
        assert!(
            line.contains(r#""qps": {"value": 2.5, "unit": "1/s"}"#),
            "{line}"
        );
        assert!(line.contains(r#""p80_ms": {"value": null"#), "{line}");
    }
}
