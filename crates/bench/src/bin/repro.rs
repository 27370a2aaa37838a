#![forbid(unsafe_code)]
//! `repro` — regenerates every experiment table of EXPERIMENTS.md.
//!
//! ```text
//! repro              # run all 13 experiments at full size
//! repro --quick      # small sizes (seconds instead of minutes)
//! repro e2 e7        # selected experiments
//! repro --markdown   # emit Markdown tables (for EXPERIMENTS.md)
//! repro hotpath      # hot-path bench suite -> BENCH_hotpath.json
//! repro hotpath --out FILE   # write the JSON somewhere else
//! repro profile e01  # per-operator query profile (text tree to stdout)
//! repro profile e01 --out profile.json   # also write the JSON document
//! repro chaos        # replayable fault-injection suite (default seed 42)
//! repro chaos --seed 7   # same suite under a pinned seed
//! repro serving      # concurrent-serving SLO sweep -> BENCH_serving.json
//! repro serving --out FILE   # write the JSON somewhere else
//! repro feeds        # sustained-ingestion suite -> BENCH_feeds.json
//! repro feeds --check              # kill/crash/resume recovery battery
//! repro feeds --check --inject-loss   # tripwire: must exit nonzero
//! ```
//!
//! A subcommand counts only as the first argument; any other word that is
//! not an experiment id exits with status 2.

use asterix_bench::{chaos, experiments, feeds, hotpath, profile, serving};

/// What `repro` runs, chosen by its first argument alone: flags and
/// `--out` values later in argv never select a suite.
#[derive(Debug, PartialEq)]
enum Command {
    Chaos,
    Profile,
    Feeds,
    Serving,
    Hotpath,
    /// No subcommand: the experiment tables (all, or the ids given).
    Experiments,
}

fn command(args: &[String]) -> Command {
    match args.first().map(String::as_str) {
        Some("chaos") => Command::Chaos,
        Some("profile") => Command::Profile,
        Some("feeds") => Command::Feeds,
        Some("serving") => Command::Serving,
        Some("hotpath") => Command::Hotpath,
        _ => Command::Experiments,
    }
}

/// The value after `flag`, if both are present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Writes `json` to `path`, exiting with status 1 when it cannot.
fn write_json(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// Writes a suite's JSON to `--out FILE` (else `default`) and echoes it.
fn emit_suite(args: &[String], default: &str, what: &str, json: &str) {
    let out = flag_value(args, "--out").unwrap_or(default);
    write_json(out, json);
    print!("{json}");
    eprintln!("{what} written to {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let markdown = args.iter().any(|a| a == "--markdown" || a == "-m");
    match command(&args) {
        Command::Chaos => {
            let seed = flag_value(&args, "--seed").and_then(|s| s.parse().ok()).unwrap_or(42u64);
            let (report, ok) = chaos::run(seed);
            print!("{report}");
            if !ok {
                std::process::exit(1);
            }
        }
        Command::Profile => {
            let exp = args
                .iter()
                .skip(1)
                .find(|a| !a.starts_with('-'))
                .cloned()
                .unwrap_or_else(|| "e01".into());
            let Some(run) = profile::run(&exp, quick) else {
                eprintln!("unknown profile target {exp:?} (supported: e01)");
                std::process::exit(2);
            };
            println!("{}", run.text);
            if let Some(out) = flag_value(&args, "--out") {
                write_json(out, &run.json);
                eprintln!("profile JSON written to {out}");
            } else {
                println!("{}", run.json);
            }
        }
        Command::Feeds if args.iter().any(|a| a == "--check") => {
            let inject_loss = args.iter().any(|a| a == "--inject-loss");
            let (report, ok) = feeds::check(inject_loss);
            print!("{report}");
            if !ok {
                std::process::exit(1);
            }
        }
        Command::Feeds => {
            emit_suite(&args, "BENCH_feeds.json", "feed ingestion baseline", &feeds::run(quick))
        }
        Command::Serving => {
            emit_suite(&args, "BENCH_serving.json", "serving SLO baseline", &serving::run(quick))
        }
        Command::Hotpath => {
            emit_suite(&args, "BENCH_hotpath.json", "hot-path baseline", &hotpath::run(quick))
        }
        Command::Experiments => run_experiments(&args, quick, markdown),
    }
}

fn run_experiments(args: &[String], quick: bool, markdown: bool) {
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
    let reports = if ids.is_empty() {
        eprintln!("running all 13 experiments ({} sizes)...", if quick { "quick" } else { "full" });
        experiments::all(quick)
    } else {
        let mut out = Vec::new();
        for id in ids {
            match experiments::by_id(id, quick) {
                Some(r) => out.push(r),
                None => {
                    eprintln!(
                        "unknown experiment or subcommand {id:?} (expected e1..e13, or \
                         chaos|profile|feeds|serving|hotpath as the first argument)"
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    };
    for r in &reports {
        if markdown {
            println!("{}", r.render_markdown());
        } else {
            println!("{}", r.render());
        }
    }
    eprintln!("{} experiment(s) completed", reports.len());
}

#[cfg(test)]
mod tests {
    use super::{command, flag_value, Command};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn the_first_argument_alone_selects_the_suite() {
        let args = argv(&["hotpath", "--out", "feeds"]);
        assert_eq!(command(&args), Command::Hotpath);
        assert_eq!(flag_value(&args, "--out"), Some("feeds"));
        assert_eq!(command(&argv(&["serving", "--out", "hotpath"])), Command::Serving);
        assert_eq!(command(&argv(&["feeds", "--check"])), Command::Feeds);
        assert_eq!(command(&argv(&["chaos", "--seed", "7"])), Command::Chaos);
        assert_eq!(command(&argv(&["profile", "e01"])), Command::Profile);
        // A suite name after a flag is an experiment id (and so rejected
        // with status 2), not a subcommand.
        assert_eq!(command(&argv(&["--quick", "hotpath"])), Command::Experiments);
        assert_eq!(command(&argv(&["e2", "e7"])), Command::Experiments);
        assert_eq!(command(&argv(&[])), Command::Experiments);
    }
}
