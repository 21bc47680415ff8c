//! `hpfc-benchmark` — see `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- [options]
//!
//!   (no option)          the whole untraced suite, every metric by name
//!   --workload <name>    one workload (the driver's contract mode)
//!   --seed <n>           workload seed                   [default 1]
//!   --seconds <s>        measuring time per workload     [default 15]
//!   --trace <0|1>        1: the traced run (per-layer metrics + span file)
//!   --check              run the untraced suite twice, fail beyond the bounds
//!   --smoke              toy extents, one child, two warm ops
//!   --out <dir>          result/trace files              [default benchmark/out]
//!   --emit-manifest      print BENCHMARK.json generated from the metric tables
//!   --list               print workloads and metric definitions
//! ```

use std::path::PathBuf;
use std::time::Duration;

use hpfc_benchmark::harness::{self, Config};
use hpfc_benchmark::json::{obj, Json};
use hpfc_benchmark::{manifest, stamp, trace, workloads};

fn usage(problem: &str) -> ! {
    eprintln!(
        "hpfc-benchmark: {problem}\nsee the header of benchmark/src/main.rs or benchmark/README.md"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = Config {
        seed: 1,
        seconds: manifest::RUN_SECONDS as f64,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        corrupt_reference: false,
    };
    let (mut workload, mut child, mut trace_child) = (None, None, None);
    let (mut traced, mut check) = (false, false);
    let mut child_budget = f64::INFINITY;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} expects {what}")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")),
            "--seed" => {
                cfg.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                cfg.seconds = value("seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => traced = value("0 or 1") == "1",
            "--out" => cfg.out_dir = PathBuf::from(value("a directory")),
            "--check" => check = true,
            "--smoke" => cfg.smoke = true,
            "--emit-manifest" => {
                print!("{}", manifest::manifest().pretty());
                return;
            }
            "--list" => return list(),
            // Internal: the parent re-invokes itself with these.
            "--child" => child = Some(value("a workload name")),
            "--trace-child" => trace_child = Some(value("a workload name")),
            "--child-budget" => {
                child_budget = value("seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --child-budget"));
            }
            "--corrupt-reference" => cfg.corrupt_reference = true,
            other => usage(&format!("unknown option `{other}`")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
        usage("--seconds must be in (0, 3600]");
    }

    if let Some(name) = child {
        let budget = Duration::try_from_secs_f64(child_budget).unwrap_or(Duration::MAX);
        std::process::exit(harness::child_main(&name, &cfg, budget));
    }
    if let Some(name) = trace_child {
        std::process::exit(trace::child_main(&name, &cfg));
    }
    if check {
        std::process::exit(harness::check(&cfg));
    }

    let names: Vec<&str> = match &workload {
        Some(w) => vec![w.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut lines = Vec::new();
    for name in names {
        let line = if traced {
            trace::run_workload(name, &cfg).map(|t| {
                t.print();
                t.result_line()
            })
        } else {
            harness::run_workload(name, &cfg).map(|s| {
                s.print();
                s.result_line()
            })
        };
        match line {
            Ok(line) => lines.push((name.to_string(), line)),
            Err(e) => {
                eprintln!("hpfc-benchmark: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    // The last line of stdout is one JSON object: the driver's result
    // line for a single workload, the per-workload lines otherwise.
    match (workload, lines.as_slice()) {
        (Some(_), [(_, line)]) => println!("{line}"),
        _ => {
            let total = |k: &str| -> f64 {
                lines
                    .iter()
                    .filter_map(|(_, l)| l.get(k).and_then(Json::as_f64))
                    .sum()
            };
            let suite = obj([
                ("correct", (total("failed") == 0.0).into()),
                ("attempted", total("attempted").into()),
                ("failed", total("failed").into()),
                ("traced", traced.into()),
                ("seed", cfg.seed.into()),
                ("seconds", cfg.seconds.into()),
                ("machine", stamp::machine()),
                ("workloads", Json::Obj(lines)),
            ]);
            let file = if traced {
                "suite-traced.json"
            } else {
                "suite-untraced.json"
            };
            harness::write_file(&cfg.out_dir.join(file), &suite.pretty());
            println!("{suite}");
        }
    }
}

fn list() {
    println!("workloads:");
    for n in workloads::NAMES {
        println!("  {n:<16} {}", workloads::why(n));
    }
    println!("end-to-end metrics (untraced runs; lower is better):");
    for m in &manifest::END_TO_END {
        println!(
            "  {:<18} [{}; bound {:.0} %] {}",
            m.name,
            m.unit,
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (traced run):");
    for m in &manifest::PER_LAYER {
        println!(
            "  {:<40} [{}; {} is better] {}",
            m.name, m.unit, m.better, m.what
        );
    }
}
