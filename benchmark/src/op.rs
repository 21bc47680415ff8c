//! One *op*: source text → compiled programs → executed → final
//! arrays/scalars checked, through the public facade
//! (`hpfc::compile` → `Compiled::programs` → `hpfc::execute`).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use hpfc::runtime::{FaultKind, FaultPlan, ValidationLevel};
use hpfc::{CompileOptions, ExecConfig, ExecResult, Executor, Machine, NetStats, StaticProgram};

use crate::json::{obj, Json};
use crate::workloads::{Guard, Unit, Workload};

/// The deterministic outputs of one op: they must repeat exactly for a
/// given seed (the harness counts any difference as a failed op).
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// Σ `CopyProgram::artifact_bytes()` over the distinct planned copies.
    pub artifact_bytes: u64,
    /// `NetStats.bytes`: modeled wire traffic, the paper's own metric.
    pub net_bytes: u64,
    /// `NetStats.messages`.
    pub net_messages: u64,
    /// `NetStats.time_us`: the cost model's makespan.
    pub modeled_comm_us: f64,
    /// `NetStats.remaps_performed`.
    pub remaps_moved: u64,
    /// `[faults_injected, rounds_retried, programs_recompiled,
    /// fallbacks_to_tables, parallel_degradations, txn_rollbacks,
    /// group_rollbacks, quarantined_pairs, lock_poison_recoveries]`.
    pub fault_counters: [u64; 9],
}

impl Exact {
    /// From the merged stats of an op.
    pub fn new(artifact_bytes: u64, s: &NetStats) -> Exact {
        Exact {
            artifact_bytes,
            net_bytes: s.bytes,
            net_messages: s.messages,
            modeled_comm_us: s.time_us,
            remaps_moved: s.remaps_performed,
            fault_counters: [
                s.faults_injected,
                s.rounds_retried,
                s.programs_recompiled,
                s.fallbacks_to_tables,
                s.parallel_degradations,
                s.txn_rollbacks,
                s.group_rollbacks,
                s.quarantined_pairs,
                s.lock_poison_recoveries,
            ],
        }
    }

    /// Wire form (child → parent).
    pub fn to_json(&self) -> Json {
        obj([
            ("artifact_bytes", self.artifact_bytes.into()),
            ("net_bytes", self.net_bytes.into()),
            ("net_messages", self.net_messages.into()),
            ("modeled_comm_us", self.modeled_comm_us.into()),
            ("remaps_moved", self.remaps_moved.into()),
            ("fault_counters", self.fault_counters.to_vec().into()),
        ])
    }

    /// Inverse of [`Exact::to_json`].
    pub fn from_json(j: &Json) -> Option<Exact> {
        let n = |k: &str| j.get(k).and_then(Json::as_f64);
        let mut fault_counters = [0u64; 9];
        for (slot, v) in fault_counters
            .iter_mut()
            .zip(j.get("fault_counters")?.f64s())
        {
            *slot = v as u64;
        }
        Some(Exact {
            artifact_bytes: n("artifact_bytes")? as u64,
            net_bytes: n("net_bytes")? as u64,
            net_messages: n("net_messages")? as u64,
            modeled_comm_us: n("modeled_comm_us")?,
            remaps_moved: n("remaps_moved")? as u64,
            fault_counters,
        })
    }
}

/// What one op did.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Σ `hpfc::compile` wall time over the op's sources.
    pub compile_ms: f64,
    /// Whole op: compile + `programs()` + execute + verification.
    pub total_ms: f64,
    /// `NetStats` merged over the op's units.
    pub stats: NetStats,
    /// The exactly repeating outputs.
    pub exact: Exact,
    /// Largest per-processor memory high-water mark over the units.
    pub peak_mem_bytes: u64,
    /// Why the op failed; empty when it passed.
    pub failures: Vec<String>,
}

/// The machine a guarded workload runs on: per-round checksums and a
/// seeded plan of recoverable wire/cache faults; transactional capture
/// stays at its library default (on).
pub fn guarded_machine(nprocs: u64, g: Guard) -> Machine {
    Machine::new(nprocs)
        .with_validation(ValidationLevel::Checksums)
        .with_faults(FaultPlan::new(
            g.seed,
            g.rate,
            &[
                FaultKind::CorruptRound,
                FaultKind::TruncateRound,
                FaultKind::DropRound,
                FaultKind::PoisonProgram,
            ],
        ))
}

/// Execute compiled programs the way the workload prescribes: the
/// plain facade call, or an [`Executor`] on the guarded machine.
pub fn execute_unit(
    programs: &Programs,
    unit: &Unit,
    guard: Option<Guard>,
) -> Result<ExecResult, hpfc::ExecError> {
    let mut config = ExecConfig::default();
    for (k, v) in &unit.scalar_args {
        config = config.with_scalar(k, *v);
    }
    match guard {
        None => hpfc::execute(programs, &unit.routine, config),
        Some(g) => {
            let nprocs = programs.values().map(|p| p.nprocs).max().unwrap_or(1);
            Executor {
                programs,
                machine: guarded_machine(nprocs, g),
                config,
            }
            .run(&unit.routine)
        }
    }
}

/// Σ `artifact_bytes()` over the *distinct* planned copies of
/// `programs` (distinct by `Arc` identity: the registry shares one
/// artifact per mapping pair). `seen` carries identity across the
/// units of one op.
pub fn artifact_bytes(programs: &Programs, seen: &mut BTreeSet<usize>) -> u64 {
    let mut total = 0u64;
    for p in programs.values() {
        p.for_each_planned_copy(|_, _, copy| {
            if seen.insert(std::sync::Arc::as_ptr(&copy.planned) as usize) {
                total += copy
                    .planned
                    .program
                    .as_ref()
                    .map_or(0, |c| c.artifact_bytes() as u64);
            }
        });
    }
    total
}

/// Compare a run against the unit's independent reference; every
/// final array and every scalar the reference names must match
/// exactly (bit for bit: the reference performs the same `f64`
/// operations in the same order).
pub fn verify(unit: &Unit, result: &ExecResult, failures: &mut Vec<String>) {
    for (name, want) in &unit.arrays {
        match result.arrays.get(name) {
            None => failures.push(format!(
                "{}: array `{name}` missing from the result",
                unit.label
            )),
            Some(got) if got.len() != want.len() => failures.push(format!(
                "{}: array `{name}` has {} elements, reference has {}",
                unit.label,
                got.len(),
                want.len()
            )),
            Some(got) => {
                if let Some(i) = (0..want.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                    failures.push(format!(
                        "{}: `{name}`[{i}] = {} but the reference says {}",
                        unit.label, got[i], want[i]
                    ));
                }
            }
        }
    }
    for (name, want) in &unit.scalars {
        match result.scalars.get(name) {
            Some(got) if got.to_bits() == want.to_bits() => {}
            got => failures.push(format!(
                "{}: scalar `{name}` = {got:?} but the reference says {want}",
                unit.label
            )),
        }
    }
}

/// The counter pins of the issue: a lowered program never plans at run
/// time; the guarded workload injects faults and never rolls back;
/// everywhere else every fault counter is zero.
pub fn check_pins(w: &Workload, stats: &NetStats, exact: &Exact, failures: &mut Vec<String>) {
    if stats.plans_computed != 0 {
        failures.push(format!(
            "pin: plans_computed = {} (must be 0)",
            stats.plans_computed
        ));
    }
    if w.guard.is_some() {
        if stats.faults_injected == 0 {
            failures.push("pin: the guarded workload injected no fault".into());
        }
        if stats.txn_rollbacks != 0 || stats.group_rollbacks != 0 {
            failures.push(format!(
                "pin: {} solo / {} group rollbacks (every fault must heal)",
                stats.txn_rollbacks, stats.group_rollbacks
            ));
        }
    } else if exact.fault_counters.iter().any(|&c| c != 0) {
        failures.push(format!(
            "pin: fault counters {:?} on an unguarded workload (must all be 0)",
            exact.fault_counters
        ));
    }
}

/// Where an op reports its layer boundaries. The untraced harness
/// passes [`Untraced`], which compiles to nothing; the traced run passes
/// its span recorder — so both run the *same* op code.
pub trait Observer: Sized {
    /// Run `f` as one span called `name`.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T;
}

/// The observer of untraced runs: no spans, no cost.
pub struct Untraced;

impl Observer for Untraced {
    fn span<T>(&mut self, _name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }
}

/// The programs of one compiled source module, by routine.
pub type Programs = BTreeMap<String, StaticProgram>;

/// Run one op through the facade (`hpfc::compile`) and check it.
pub fn run_op(w: &Workload) -> OpOutcome {
    let facade = |unit: &Unit, _: &mut Untraced| {
        hpfc::compile(&unit.source, &CompileOptions::default())
            .map_err(|diags| format!("{:?}", diags.first()))
    };
    run_op_observed(w, &mut Untraced, facade, None)
}

/// One op with its boundaries reported to `obs`: for every unit
/// `compile` → `programs()` → execute → verify, then the counter pins.
/// `keep`, when given, receives every unit's lowered programs.
pub fn run_op_observed<O: Observer>(
    w: &Workload,
    obs: &mut O,
    mut compile: impl FnMut(&Unit, &mut O) -> Result<hpfc::Compiled, String>,
    mut keep: Option<&mut Vec<Programs>>,
) -> OpOutcome {
    let start = Instant::now();
    let mut compile_ms = 0.0;
    let mut stats = NetStats::default();
    let mut peak_mem_bytes = 0u64;
    let mut artifact = 0u64;
    let mut seen = BTreeSet::new();
    let mut failures = Vec::new();
    obs.span("op", |obs| {
        for unit in &w.units {
            let t = Instant::now();
            let compiled = obs.span("core.compile", |obs| compile(unit, obs));
            compile_ms += t.elapsed().as_secs_f64() * 1e3;
            let programs = match compiled {
                Ok(c) => obs.span("core.programs", |_| c.programs()),
                Err(e) => {
                    failures.push(format!("{}: compile error: {e}", unit.label));
                    continue;
                }
            };
            artifact += artifact_bytes(&programs, &mut seen);
            match obs.span("interp.execute", |_| execute_unit(&programs, unit, w.guard)) {
                Ok(result) => {
                    obs.span("verify", |_| verify(unit, &result, &mut failures));
                    stats.merge(&result.stats);
                    peak_mem_bytes = peak_mem_bytes.max(result.peak_mem_bytes);
                }
                Err(e) => failures.push(format!("{}: ExecError: {e}", unit.label)),
            }
            if let Some(keep) = keep.as_deref_mut() {
                keep.push(programs);
            }
        }
    });
    let exact = Exact::new(artifact, &stats);
    check_pins(w, &stats, &exact, &mut failures);
    OpOutcome {
        compile_ms,
        total_ms: start.elapsed().as_secs_f64() * 1e3,
        stats,
        exact,
        peak_mem_bytes,
        failures,
    }
}
