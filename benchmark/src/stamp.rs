//! The machine + configuration stamp every result file carries —
//! ROADMAP's "recorded with the machine it ran on".

use std::process::Command;

use crate::json::{obj, Json};

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Size of cache `level` of cpu0 as sysfs prints it (`"2048K"`).
fn cache_size(level: u32) -> Option<String> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let is_level = read_trimmed(&format!("{dir}/level"))? == level.to_string();
        let holds_data = read_trimmed(&format!("{dir}/type")).is_none_or(|t| t != "Instruction");
        (is_level && holds_data).then(|| read_trimmed(&format!("{dir}/size")))?
    })
}

/// How the parent tells a child which variables it removed, so the
/// child's own result files can record them.
pub const SCRUBBED_ENV: &str = "BENCHMARK_SCRUBBED_ENV";

/// `HPFC_*` variables present in this process's environment. The
/// parent removes every one of them from each child, so library
/// defaults are what is measured; the names are recorded.
pub fn hpfc_env_names() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HPFC_"))
        .collect();
    names.sort();
    names
}

/// The names scrubbed on the way to this process: its own `HPFC_*`
/// variables in the parent, the parent's list in a child.
fn scrubbed_env() -> Vec<String> {
    match std::env::var(SCRUBBED_ENV) {
        Ok(list) => list
            .split(',')
            .filter(|n| !n.is_empty())
            .map(String::from)
            .collect(),
        Err(_) => hpfc_env_names(),
    }
}

/// The machine half of the stamp (probed once per process: it runs
/// `rustc` and `git`).
pub fn machine() -> Json {
    static STAMP: std::sync::OnceLock<Json> = std::sync::OnceLock::new();
    STAMP.get_or_init(probe_machine).clone()
}

fn probe_machine() -> Json {
    let or_unknown = |v: Option<String>| Json::from(v.unwrap_or_else(|| "unknown".into()));
    let cpu = read_trimmed("/proc/cpuinfo").and_then(|info| {
        info.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
        ("cpu_model", or_unknown(cpu)),
        ("l2_per_core", or_unknown(cache_size(2))),
        ("l3", or_unknown(cache_size(3))),
        ("rustc", or_unknown(command_line("rustc", &["-V"]))),
        // The driver's checkout is not a git repository; say so
        // instead of guessing.
        (
            "git_commit",
            or_unknown(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("scrubbed_env", scrubbed_env().into()),
    ])
}

/// Peak resident set size of this process so far (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Option<u64> {
    read_trimmed("/proc/self/status")?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}
