//! The untraced harness. The parent runs one workload at a time; for
//! each it spawns itself as a child process again and again until the
//! run's time budget is spent. `PlanRegistry::global()` has no reset,
//! so a fresh process is the only honest cold start — and it is what an
//! `hpfcc` user pays. A child does: set-up → one cold op → warm ops
//! (registry warm, as in a long-lived multi-session service) → report.
//! Closed loop, one client, one thread; the parent only waits.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::{self, obj, Json};
use crate::manifest::{self, MetricDef, END_TO_END};
use crate::op::{run_op, Exact, OpOutcome};
use crate::stats::{median, quantile, samples_beyond};
use crate::{stamp, workloads};

/// Warm ops a child runs at most.
pub const WARM_OPS_MAX: usize = 13;
/// Warm ops a child runs at least, whatever its time budget says.
pub const WARM_OPS_MIN: usize = 4;
/// A run's budget is sized so about this many children fit: each child
/// may spend `seconds / CHILDREN_TARGET`, which keeps ≥ 8 cold samples
/// per run even on the heavy workloads.
pub const CHILDREN_TARGET: f64 = 8.0;
/// Hard ceiling on children per run.
pub const CHILDREN_MAX: usize = 64;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time per workload, in seconds.
    pub seconds: f64,
    /// Toy extents, one child, two warm ops (self-tests).
    pub smoke: bool,
    /// Directory for result and trace files.
    pub out_dir: PathBuf,
    /// Test hook: corrupt the reference so verification must fail.
    pub corrupt_reference: bool,
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Generate a workload, applying the `--corrupt-reference` test hook.
pub fn generate(name: &str, cfg: &Config) -> Option<workloads::Workload> {
    let mut w = workloads::generate(name, cfg.seed, cfg.smoke)?;
    if cfg.corrupt_reference {
        // Flip one expected element: a harness that still reports
        // success would be passing vacuously.
        if let Some(v) = w.units[0].arrays.values_mut().next() {
            v[0] += 1.0;
        }
    }
    Some(w)
}

fn op_json(o: &OpOutcome) -> Json {
    obj([
        ("compile_ms", o.compile_ms.into()),
        ("total_ms", o.total_ms.into()),
        ("exact", o.exact.to_json()),
        ("failures", o.failures.clone().into()),
    ])
}

/// The child: set-up, one cold op, warm ops until `budget` is spent,
/// then one JSON record on stdout.
pub fn child_main(name: &str, cfg: &Config, budget: Duration) -> i32 {
    let start = Instant::now();
    let Some(w) = generate(name, cfg) else {
        eprintln!("unknown workload `{name}`");
        return 2;
    };
    let ready_unix_ns = unix_ns();
    let mut ops = vec![run_op(&w)];
    let warm_max = if cfg.smoke { 2 } else { WARM_OPS_MAX };
    let warm_min = if cfg.smoke { 2 } else { WARM_OPS_MIN };
    // `ops` holds the cold op too, hence the strict comparisons.
    while ops.len() <= warm_max {
        let next_ends =
            start.elapsed() + Duration::from_secs_f64(ops[ops.len() - 1].total_ms / 1e3);
        if ops.len() > warm_min && next_ends > budget {
            break;
        }
        ops.push(run_op(&w));
    }
    let record = obj([
        ("ready_unix_ns", (ready_unix_ns as f64).into()),
        ("ops", Json::Arr(ops.iter().map(op_json).collect())),
        (
            "peak_mem_bytes",
            ops.iter()
                .map(|o| o.peak_mem_bytes)
                .max()
                .unwrap_or(0)
                .into(),
        ),
        ("rss_kb", stamp::peak_rss_kb().unwrap_or(0).into()),
    ]);
    println!("{record}");
    0
}

/// The arguments that hand `cfg` on to a child started in `mode`
/// (`--child` or `--trace-child`).
pub fn child_args(mode: &str, name: &str, cfg: &Config) -> Vec<String> {
    let mut args = vec![
        mode.to_string(),
        name.to_string(),
        "--seed".into(),
        cfg.seed.to_string(),
        "--out".into(),
        cfg.out_dir.display().to_string(),
    ];
    if cfg.smoke {
        args.push("--smoke".into());
    }
    if cfg.corrupt_reference {
        args.push("--corrupt-reference".into());
    }
    args
}

/// Spawn this executable as a child with every `HPFC_*` variable
/// removed; returns its parsed stdout record and the spawn timestamp.
pub fn spawn_child(args: &[String]) -> Result<(Json, u128), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let scrubbed = stamp::hpfc_env_names();
    for name in &scrubbed {
        cmd.env_remove(name);
    }
    cmd.env(stamp::SCRUBBED_ENV, scrubbed.join(","));
    let spawn_unix_ns = unix_ns();
    let out = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    json::parse(last).map(|j| (j, spawn_unix_ns))
}

/// The aggregated result of one workload's run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric values, in [`END_TO_END`] order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Ops attempted (cold + warm, every child; a crashed child counts
    /// as one).
    pub attempted: u64,
    /// Ops that failed: compile error, `ExecError`, outputs ≠ reference,
    /// violated pin, non-repeating exact output, crashed child.
    pub failed: u64,
    /// Children that ran (R).
    pub children: usize,
    /// Warm samples collected.
    pub warm_samples: usize,
    /// Warm samples beyond the pooled p90.
    pub beyond_p90: usize,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// The full record written to the result file.
    pub record: Json,
}

impl Summary {
    /// `failed / attempted`.
    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }

    /// The driver's result line.
    pub fn result_line(&self) -> Json {
        obj([
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                manifest::metrics_json(self.metrics.iter().copied()),
            ),
        ])
    }

    /// The human-readable table: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "== {} — R = {} children, {} warm samples ({} beyond their pooled p90{})",
            self.workload,
            self.children,
            self.warm_samples,
            self.beyond_p90,
            if self.beyond_p90 < 10 {
                "; fewer than ten, read the tail with care"
            } else {
                ""
            },
        );
        for (m, value) in &self.metrics {
            println!("  {:<18} {value:>16.4} {}", m.name, m.unit);
        }
        println!(
            "  {:<18} {:>16.4} ratio   ({} of {} ops failed)",
            "failed_ops_share",
            self.failed_ops_share(),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}

/// Everything the children of one run reported.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    compile_cold_ms: Vec<f64>,
    e2e_cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    /// Each child's p90 over its own warm samples.
    child_p90_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Per child, the exact outputs of each of its ops.
    exact: Vec<Vec<Exact>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    peak_mem_bytes: u64,
}

impl Samples {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Fold one child's record in.
    fn absorb(&mut self, rec: &Json, spawn_unix_ns: u128) {
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        self.setup_s
            .push((num(rec, "ready_unix_ns") - spawn_unix_ns as f64) / 1e9);
        self.rss_mb.push(num(rec, "rss_kb") / 1024.0);
        self.peak_mem_bytes = self.peak_mem_bytes.max(num(rec, "peak_mem_bytes") as u64);
        let (mut own_warm, mut exacts) = (Vec::new(), Vec::new());
        for (i, o) in rec
            .get("ops")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            self.attempted += 1;
            let why = o.get("failures").and_then(Json::as_arr).unwrap_or(&[]);
            if !why.is_empty() {
                self.failed += 1;
                self.failures
                    .extend(why.iter().filter_map(Json::as_str).map(String::from));
            }
            if i == 0 {
                self.compile_cold_ms.push(num(o, "compile_ms"));
                self.e2e_cold_ms.push(num(o, "total_ms"));
            } else {
                own_warm.push(num(o, "total_ms"));
            }
            exacts.extend(o.get("exact").and_then(Exact::from_json));
        }
        if !own_warm.is_empty() {
            self.child_p90_ms.push(quantile(&own_warm, 0.9));
        }
        self.warm_ms.extend(own_warm);
        self.exact.push(exacts);
    }

    /// The determinism pins. Every child runs the same op sequence
    /// from the same seed, so op i must report the same exact outputs
    /// in every child; on an unguarded workload every op of a child
    /// must agree too (the guarded one may legitimately change
    /// artifacts between ops: the registry quarantines a pair that
    /// keeps needing repair). Returns the cold op's outputs.
    fn pin_exact_outputs(&mut self, guarded: bool, seed: u64) -> Option<Exact> {
        let first = self.exact.iter().find(|c| !c.is_empty())?.clone();
        for c in 0..self.exact.len() {
            let exacts = &self.exact[c];
            let across = exacts.iter().zip(&first).any(|(a, b)| a != b);
            let within = !guarded && exacts.iter().any(|e| Some(e) != exacts.first());
            if across || within {
                self.fail(format!(
                    "child {c}: exact outputs do not repeat for seed {seed}"
                ));
            }
        }
        first.into_iter().next()
    }

    fn metric(&self, name: &str, cold: &Exact) -> f64 {
        match name {
            "setup_s" => median(&self.setup_s),
            "compile_cold_ms" => median(&self.compile_cold_ms),
            "e2e_cold_ms" => median(&self.e2e_cold_ms),
            "warm_p50_ms" => median(&self.warm_ms),
            "warm_p90_ms" => median(&self.child_p90_ms),
            "peak_rss_mb" => median(&self.rss_mb),
            "artifact_bytes" => cold.artifact_bytes as f64,
            "net_bytes" => cold.net_bytes as f64,
            "net_messages" => cold.net_messages as f64,
            "modeled_comm_us" => cold.modeled_comm_us,
            "remaps_moved" => cold.remaps_moved as f64,
            other => {
                unreachable!("END_TO_END names a metric the harness does not compute: {other}")
            }
        }
    }
}

/// Run one workload untraced: spawn children until `cfg.seconds` is
/// spent, aggregate their samples, write the result file.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Summary, String> {
    if !workloads::NAMES.contains(&name) {
        return Err(format!(
            "unknown workload `{name}` (one of {:?})",
            workloads::NAMES
        ));
    }
    let started = Instant::now();
    let mut args = child_args("--child", name, cfg);
    args.extend([
        "--child-budget".into(),
        (cfg.seconds / CHILDREN_TARGET).to_string(),
    ]);

    let mut s = Samples::default();
    let mut children = 0usize;
    let mut slowest_child = 0.0f64;
    loop {
        let child_started = Instant::now();
        match spawn_child(&args) {
            Ok((rec, spawn_unix_ns)) => s.absorb(&rec, spawn_unix_ns),
            Err(e) => {
                s.attempted += 1;
                s.fail(format!("child {children}: {e}"));
            }
        }
        children += 1;
        slowest_child = slowest_child.max(child_started.elapsed().as_secs_f64());
        let fits = started.elapsed().as_secs_f64() + slowest_child <= cfg.seconds;
        if cfg.smoke || children >= CHILDREN_MAX || (children >= 2 && !fits) {
            break;
        }
    }
    let cold = s
        .pin_exact_outputs(workloads::is_guarded(name), cfg.seed)
        .ok_or_else(|| {
            format!(
                "no child of `{name}` produced a sample: {}",
                s.failures.join("; ")
            )
        })?;
    s.failures.truncate(8);

    let metrics: Vec<(&'static MetricDef, f64)> = END_TO_END
        .iter()
        .map(|m| (m, s.metric(m.name, &cold)))
        .collect();
    let beyond_p90 = samples_beyond(&s.warm_ms, 0.9);
    let record = obj([
        ("workload", name.into()),
        ("why", workloads::why(name).into()),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        ("smoke", cfg.smoke.into()),
        ("machine", stamp::machine()),
        ("children_R", children.into()),
        ("warm_ops_per_child_W_max", WARM_OPS_MAX.into()),
        (
            "sample_counts",
            obj([
                ("setup_s", s.setup_s.len().into()),
                ("cold", s.e2e_cold_ms.len().into()),
                ("warm", s.warm_ms.len().into()),
                ("warm_beyond_pooled_p90", beyond_p90.into()),
            ]),
        ),
        ("attempted", s.attempted.into()),
        ("failed", s.failed.into()),
        ("failures", s.failures.clone().into()),
        ("metrics", manifest::metrics_json(metrics.iter().copied())),
        ("warm_pooled_p90_ms", quantile(&s.warm_ms, 0.9).into()),
        (
            "fault_counters_cold_op",
            cold.fault_counters.to_vec().into(),
        ),
        ("simulated_peak_mem_bytes", s.peak_mem_bytes.into()),
        (
            "samples",
            obj([
                ("setup_s", s.setup_s.clone().into()),
                ("compile_cold_ms", s.compile_cold_ms.clone().into()),
                ("e2e_cold_ms", s.e2e_cold_ms.clone().into()),
                ("warm_ms", s.warm_ms.clone().into()),
                ("child_p90_ms", s.child_p90_ms.clone().into()),
                ("peak_rss_mb", s.rss_mb.clone().into()),
            ]),
        ),
    ]);
    let summary = Summary {
        workload: name.to_string(),
        metrics,
        attempted: s.attempted,
        failed: s.failed,
        children,
        warm_samples: s.warm_ms.len(),
        beyond_p90,
        failures: s.failures,
        record,
    };
    write_file(
        &cfg.out_dir.join(format!("result-{name}.json")),
        &summary.record.pretty(),
    );
    Ok(summary)
}

/// Write `text` to `path`, creating the directory; a result file that
/// cannot be written is reported, never fatal.
pub fn write_file(path: &Path, text: &str) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(text.as_bytes())
    };
    if let Err(e) = write() {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Is `second` worse than `first` by more than the metric's bound? A
/// timing under 5 ms also has to differ by the absolute floor.
fn beyond_bound(name: &str, first: f64, second: f64) -> Option<String> {
    let m = manifest::end_to_end(name)?;
    let (worse, rel) = match m.better {
        "higher" => (first - second, (first - second) / first.abs()),
        _ => (second - first, (second - first) / first.abs()),
    };
    let small_timing = match m.unit {
        "ms" => first < 5.0 && worse < manifest::ABSOLUTE_FLOOR_MS,
        "s" => first < 5e-3 && worse < manifest::ABSOLUTE_FLOOR_MS / 1e3,
        _ => false,
    };
    (rel > m.bound && !small_timing).then(|| {
        format!(
            "{name}: {first} -> {second} {} ({:+.1} %, bound {:.0} %)",
            m.unit,
            rel * 100.0,
            m.bound * 100.0
        )
    })
}

/// `--check`: run the whole untraced suite twice and fail if any
/// (metric, workload) pair disagrees beyond its bound in either
/// direction, if any op failed, or if a deterministic metric differs
/// at all between the two sets.
pub fn check(cfg: &Config) -> i32 {
    let mut bad = 0;
    for name in workloads::NAMES {
        let sets: Vec<Summary> = match (run_workload(name, cfg), run_workload(name, cfg)) {
            (Ok(a), Ok(b)) => vec![a, b],
            (a, b) => {
                println!("{name}: CHECK FAILED: {:?}", a.err().or(b.err()));
                bad += 1;
                continue;
            }
        };
        println!("== {name}");
        for m in &END_TO_END {
            let (a, b) = (
                sets[0].metric(m.name).unwrap_or(f64::NAN),
                sets[1].metric(m.name).unwrap_or(f64::NAN),
            );
            let verdict = if manifest::is_exact(m.name) && a != b {
                Some(format!(
                    "{}: {a} vs {b} (deterministic metric must repeat exactly)",
                    m.name
                ))
            } else {
                beyond_bound(m.name, a, b).or_else(|| beyond_bound(m.name, b, a))
            };
            println!(
                "  {:<18} {a:>16.4} {b:>16.4} {:<8} bound {:>4.0} %  {}",
                m.name,
                m.unit,
                m.bound * 100.0,
                if verdict.is_some() { "DISAGREE" } else { "ok" }
            );
            if let Some(v) = verdict {
                println!("  CHECK FAILED: {v}");
                bad += 1;
            }
        }
        for s in &sets {
            if s.failed > 0 {
                println!(
                    "  CHECK FAILED: {} of {} ops failed: {:?}",
                    s.failed, s.attempted, s.failures
                );
                bad += 1;
            }
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "check: ok"
        } else {
            "check: FAILED"
        }
    );
    i32::from(bad != 0)
}
