//! The traced run: per-layer numbers, the kernel-class roofline and the
//! tracing overhead — never mixed into the end-to-end numbers.
//!
//! There is no tracing inside the library (that is a later issue), so
//! every span is recorded here, around public calls: the op is performed
//! *stepwise* with the calls `hpfc::compile` makes, then a `redrive`
//! span re-drives each layer's public functions on the mapping pairs
//! the lowered programs carry. Spans stay in memory and are written out
//! when the run ends.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use hpfc::codegen::{lower_with, render, LowerOptions, SStmt};
use hpfc::mapping::{self, NormalizedMapping};
use hpfc::runtime::{
    plan_redistribution, try_remap_group, ArrayRt, CommSchedule, CopyProgram, ExecMode,
    GroupMember, Kernel, PlanRegistry, PlannedGroup, PlannedRemap, SymbolicPlan, ValidationLevel,
    VersionData,
};
use hpfc::{CompileOptions, Machine};

use crate::harness::{self, Config};
use crate::json::{obj, Json};
use crate::manifest::{self, PER_LAYER};
use crate::op::{self, Observer, OpOutcome, Programs};
use crate::stats::median;
use crate::workloads::{Unit, Workload};

/// Calls slower than this are timed 3 times instead of 9, so the traced
/// run of `cyclic_bounce` (a 0.4 s planner leg) stays inside the cap.
const SLOW_CALL_US: f64 = 50_000.0;
/// Calls per timed batch of a nanosecond-scale operation.
const BATCH: u32 = 1000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the tracer's span list.
    pub id: u32,
    /// The span that caused it.
    pub parent: Option<u32>,
    /// The op it belongs to (0 = none: re-drive).
    pub op: u32,
    /// Layer-qualified name.
    pub name: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Counts recorded at this boundary.
    pub counts: Vec<(String, f64)>,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Observer for Tracer {
    /// Record `f` as a child span of the innermost open span.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.stack.last() {
            self.spans[id as usize]
                .counts
                .push((key.to_string(), value));
        }
    }

    /// Duration of the most recently *closed* span called `name`, µs.
    fn last_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(f64::NAN, Span::us)
    }

    /// Σ duration of the spans called `name` within op `op`, µs.
    fn op_total_us(&self, op: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::us)
            .sum()
    }

    /// Median over `ops` of the per-op Σ duration of `name`.
    fn op_median_us(&self, ops: &[u32], name: &str) -> f64 {
        median(
            &ops.iter()
                .map(|&o| self.op_total_us(o, name))
                .collect::<Vec<_>>(),
        )
    }

    /// Time `f` `reps` times (3 if the first call is slow), one span
    /// per call; returns the median duration in µs and the last result.
    fn timed<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> (f64, T) {
        let mut out = self.span(name, |_| f());
        let first = self.last_us(name);
        let reps = if first > SLOW_CALL_US { 3 } else { 9 };
        let mut samples = vec![first];
        for _ in 1..reps {
            out = self.span(name, |_| f());
            samples.push(self.last_us(name));
        }
        (median(&samples), out)
    }

    /// Time a nanosecond-scale `f` in batches of [`BATCH`] calls, one
    /// span per batch; returns the median ns per call.
    fn timed_ns<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> f64 {
        let mut samples = Vec::new();
        for _ in 0..9 {
            self.span(name, |t| {
                for _ in 0..BATCH {
                    black_box(f());
                }
                t.count("calls", f64::from(BATCH));
            });
            samples.push(self.last_us(name) * 1e3 / f64::from(BATCH));
        }
        median(&samples)
    }

    /// Self time by span name: duration minus the part its child spans
    /// cover, summed over all spans of that name, µs.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.us();
            }
        }
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            *by_name.entry(s.name.clone()).or_insert(0.0) += s.us() - child_us[s.id as usize];
        }
        by_name
    }

    fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", u64::from(s.id).into()),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| u64::from(p).into()),
                        ),
                        ("op", u64::from(s.op).into()),
                        ("name", s.name.as_str().into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        (
                            "counts",
                            Json::Obj(
                                s.counts
                                    .iter()
                                    .map(|(k, v)| (k.clone(), (*v).into()))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Front-end and lowering counts of one stepwise op (summed over its
/// units and routines).
#[derive(Debug, Clone, Default)]
struct StaticCounts {
    cfg_nodes: usize,
    vertices: usize,
    slots_total: usize,
    slots_removed: usize,
    slots_trivial: usize,
    emitted_remaps: usize,
    remap_groups: usize,
    restore_arms: usize,
}

/// The op, stepwise: the same op code as the untraced run
/// ([`op::run_op_observed`]), with the calls `hpfc::compile` makes
/// recorded one span each as children of the op span. Returns the
/// outcome, the lowered programs of every unit, and the static counts.
fn stepwise_op(w: &Workload, tr: &mut Tracer) -> (OpOutcome, Vec<Programs>, StaticCounts) {
    tr.op += 1;
    let mut programs = Vec::new();
    let mut counts = StaticCounts::default();
    let outcome = op::run_op_observed(
        w,
        tr,
        |unit, tr| compile_stepwise(unit, tr, &mut counts),
        Some(&mut programs),
    );
    (outcome, programs, counts)
}

/// `hpfc::compile` with default options, call by call: the same calls
/// in the same order building the same [`hpfc::Compiled`], so the only
/// difference to the facade is the span recording.
fn compile_stepwise(
    unit: &Unit,
    tr: &mut Tracer,
    counts: &mut StaticCounts,
) -> Result<hpfc::Compiled, String> {
    let first = |d: Vec<hpfc::Diagnostic>| format!("{:?}", d.first());
    let options = CompileOptions::default();
    let ast = tr
        .span("lang.parse", |_| hpfc::lang::parse_program(&unit.source))
        .map_err(first)?;
    let module = tr
        .span("lang.sema", |_| hpfc::lang::analyze(&ast))
        .map_err(first)?;
    let mut units = BTreeMap::new();
    let mut order = Vec::new();
    for routine in &module.routines {
        let cfg = tr
            .span("cfg.build", |_| hpfc::cfg::build_cfg(routine))
            .map_err(first)?;
        counts.cfg_nodes += cfg.len();
        let mut rg = tr
            .span("rgraph.build", |_| {
                hpfc::rgraph::build_from_cfg(routine, cfg)
            })
            .map_err(first)?;
        let opt_stats = tr.span("rgraph.optimize", |_| {
            hpfc::rgraph::optimize(&mut rg, options.opt)
        });
        let (program, codegen_stats) = tr.span("codegen.lower", |_| {
            lower_with(
                routine,
                &rg,
                &LowerOptions {
                    group_remaps: options.group_remaps,
                },
            )
        });
        counts.vertices += rg.vertices.len();
        counts.slots_total += opt_stats.total;
        counts.slots_removed += opt_stats.removed;
        counts.slots_trivial += opt_stats.trivial;
        counts.emitted_remaps += codegen_stats.emitted_remaps;
        counts.remap_groups += codegen_stats.remap_groups;
        counts.restore_arms += codegen_stats.restore_arms;
        order.push(routine.name.clone());
        units.insert(
            routine.name.clone(),
            hpfc::CompiledUnit {
                unit: routine.clone(),
                rg,
                opt_stats,
                program,
                codegen_stats,
                moved_remaps: 0,
            },
        );
    }
    Ok(hpfc::Compiled {
        units,
        order,
        warnings: module.warnings,
    })
}

/// One distinct `(source, destination)` mapping pair of the op.
struct Pair {
    planned: Arc<PlannedRemap>,
    elem: u64,
}

impl Pair {
    fn src(&self) -> &NormalizedMapping {
        &self
            .planned
            .plan
            .mappings
            .as_ref()
            .expect("lowered plans carry their pair")
            .0
    }
    fn dst(&self) -> &NormalizedMapping {
        &self
            .planned
            .plan
            .mappings
            .as_ref()
            .expect("lowered plans carry their pair")
            .1
    }
    fn nprocs(&self) -> u64 {
        self.src()
            .grid_shape
            .volume()
            .max(self.dst().grid_shape.volume())
    }
}

/// The distinct pairs the lowered programs carry, in first-use order.
fn distinct_pairs(all: &[Programs]) -> Vec<Pair> {
    let mut seen = BTreeSet::new();
    let mut pairs = Vec::new();
    for p in all.iter().flat_map(|m| m.values()) {
        let elems: BTreeMap<_, _> = p.arrays.iter().map(|a| (a.id, a.elem_size)).collect();
        p.for_each_planned_copy(|array, _, copy| {
            let Some(m) = copy.planned.plan.mappings.as_ref() else {
                return;
            };
            if seen.insert(Arc::as_ptr(m) as usize) {
                pairs.push(Pair {
                    planned: Arc::clone(&copy.planned),
                    elem: elems[&array],
                });
            }
        });
    }
    pairs
}

/// Metric values by name; what is not inserted is *absent* (its layer
/// is not exercised by this workload).
#[derive(Default)]
struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Σ payload bytes replayed (and copied by the roofline).
    payload_bytes: f64,
    /// Σ plain `copy_from_slice` time over the same payloads, µs.
    memcpy_us: f64,
}

impl Metrics {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, v);
    }
    fn add(&mut self, name: &'static str, v: f64) {
        let sum = self.values.get(name).copied().unwrap_or(0.0) + v;
        self.set(name, sum);
    }
    /// `NaN` while unset, so `max`/`min` folds start from the first
    /// value.
    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Put a descriptor back into "status = `src`, only `src` live" so
/// the same remap can be timed again without a return leg.
fn rewind(rt: &mut ArrayRt, src: u32) {
    rt.status = Some(src);
    for (v, live) in rt.live.iter_mut().enumerate() {
        *live = v as u32 == src;
    }
}

/// Re-drive one pair through plan → schedule → program → replay →
/// accounting → status, adding its costs to `m`. Returns failures.
///
/// The artifact is compiled afresh here rather than taken from the
/// lowered program: in a long-lived guarded process the registry may
/// have quarantined the pair and handed lowering a program-stripped
/// artifact, which would silently turn every number below into the
/// table engine's.
fn redrive_pair(pair: &Pair, guarded: bool, tr: &mut Tracer, m: &mut Metrics) -> Vec<String> {
    let fresh = redrive_pipeline(pair, tr, m);
    let (replay_us, mut failures) = redrive_data_movement(pair, &fresh, tr, m);
    if fresh.program.is_some() {
        failures.extend(redrive_status(
            pair,
            Arc::new(fresh),
            replay_us,
            guarded,
            tr,
            m,
        ));
    }
    failures
}

/// plan → schedule → compiled program, one timed call each.
fn redrive_pipeline(pair: &Pair, tr: &mut Tracer, m: &mut Metrics) -> PlannedRemap {
    let (plan_us, plan) = tr.timed("runtime.redist.plan", || {
        plan_redistribution(pair.src(), pair.dst(), pair.elem)
    });
    m.add("runtime.redist.plan_us", plan_us);
    m.set(
        "runtime.redist.plan_max_us",
        m.get("runtime.redist.plan_max_us").max(plan_us),
    );
    m.set(
        "runtime.redist.plan_min_us",
        m.get("runtime.redist.plan_min_us").min(plan_us),
    );
    m.add("runtime.redist.transfers", plan.transfers.len() as f64);

    let (sched_us, schedule) =
        tr.timed("runtime.schedule.build", || CommSchedule::from_plan(&plan));
    m.add("runtime.schedule.build_us", sched_us);
    m.add("runtime.schedule.rounds", schedule.n_rounds() as f64);
    m.add(
        "runtime.schedule.wire_messages",
        schedule.n_wire_messages() as f64,
    );

    let (compile_us, program) = tr.timed("runtime.exec.compile", || {
        CopyProgram::try_compile(&plan, &schedule)
    });
    m.add("runtime.exec.compile_us", compile_us);
    if let Some(program) = &program {
        m.add(
            "runtime.exec.artifact_bytes",
            program.artifact_bytes() as f64,
        );
        m.add("runtime.exec.runs", program.n_runs() as f64);
        let class = |k: Kernel| match k {
            Kernel::Memcpy => "runtime.exec.elems_memcpy",
            Kernel::Strided => "runtime.exec.elems_strided",
            Kernel::Gather => "runtime.exec.elems_gather",
            Kernel::Triples => "runtime.exec.elems_triples",
            Kernel::Mixed => "runtime.exec.elems_mixed",
        };
        for k in [
            Kernel::Memcpy,
            Kernel::Strided,
            Kernel::Gather,
            Kernel::Triples,
            Kernel::Mixed,
        ] {
            m.add(class(k), 0.0);
        }
        for unit in program.local.iter().chain(program.rounds.iter().flatten()) {
            m.add(class(unit.kernel), unit.elements as f64);
        }
    }
    PlannedRemap {
        plan,
        schedule,
        program,
    }
}

/// Storage and the copy engines on real blocks: allocation, the table
/// engine, compiled replay (serial and two workers, checked against the
/// fill), dense extraction, and the memcpy roofline over the same
/// payload. Returns the serial replay time.
fn redrive_data_movement(
    pair: &Pair,
    planned: &PlannedRemap,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> (f64, Vec<String>) {
    let mut failures = Vec::new();
    let (alloc_us, (mut from, mut to)) = tr.timed("runtime.store.alloc", || {
        (
            VersionData::new(pair.src().clone(), pair.elem),
            VersionData::new(pair.dst().clone(), pair.elem),
        )
    });
    m.add("runtime.store.alloc_us", alloc_us);
    // Element `i` (row-major) holds `1 + i`, so a misplaced element
    // shows in the dense extraction below.
    let ext = &pair.src().array_extents;
    let strides: Vec<u64> = (0..ext.rank())
        .map(|d| (d + 1..ext.rank()).map(|e| ext.extent(e)).product())
        .collect();
    from.fill(|p| 1.0 + p.iter().zip(&strides).map(|(i, s)| i * s).sum::<u64>() as f64);

    let (tables_us, _) = tr.timed("runtime.store.tables", || {
        to.copy_values_from_plan(&from, &planned.plan)
    });
    m.add("runtime.store.tables_us", tables_us);
    let Some(program) = &planned.program else {
        // Rank-0 / overflow declines: the table engine is the replay.
        return (tables_us, failures);
    };

    to.fill(|_| 0.0);
    let (replay_us, _) = tr.timed("runtime.exec.replay", || {
        to.copy_values_from_program(&from, program, ExecMode::Serial)
    });
    m.add("runtime.exec.replay_us", replay_us);
    let (dense_us, dense) = tr.timed("runtime.store.to_dense", || to.to_dense());
    m.add("runtime.store.to_dense_us", dense_us);
    if dense.iter().enumerate().any(|(i, v)| *v != 1.0 + i as f64) {
        failures.push("redrive: the replayed copy program misplaced an element".into());
    }
    let (t2_us, _) = tr.timed("runtime.exec.replay_t2", || {
        to.copy_values_from_program(&from, program, ExecMode::Parallel(2))
    });
    m.add("runtime.exec.replay_t2_us", t2_us);

    // The roofline: a plain copy of the same payload bytes.
    let payload = program.n_elements() as usize;
    let (a, mut b) = (vec![1.0f64; payload], vec![0.0f64; payload]);
    let (memcpy_us, _) = tr.timed("roofline.memcpy", || {
        b.copy_from_slice(black_box(&a));
        black_box(b[payload / 2])
    });
    m.memcpy_us += memcpy_us;
    m.payload_bytes += (payload * 8) as f64;
    m.set(
        "roofline.payload_bytes",
        m.get("roofline.payload_bytes").max((payload * 8) as f64),
    );
    (replay_us, failures)
}

/// Accounting and the call the interpreter makes: a guarded remap on a
/// seeded descriptor — plain, and on a guarded workload also under the
/// two validation levels.
fn redrive_status(
    pair: &Pair,
    planned: Arc<PlannedRemap>,
    replay_us: f64,
    guarded: bool,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut machine = Machine::new(pair.nprocs());
    let (account_us, _) = tr.timed("runtime.machine.account", || {
        machine.account_schedule(&planned.schedule)
    });
    m.add("runtime.machine.account_us", account_us);

    // Both copies are kept alive, so the timed remap never allocates.
    let keep: BTreeSet<u32> = [0, 1].into();
    let skip = BTreeSet::new();
    let mut remap_under = |tr: &mut Tracer, name: &str, mut machine: Machine| -> f64 {
        let mut rt = ArrayRt::new("r", vec![pair.src().clone(), pair.dst().clone()], pair.elem);
        rt.seed_plan(0, 1, Arc::clone(&planned));
        rt.current(&mut machine, 0);
        let (us, result) = tr.timed(name, || {
            rewind(&mut rt, 0);
            rt.try_remap_guarded(&mut machine, 1, &keep, false, &skip)
        });
        if let Err(e) = result {
            failures.push(format!("redrive: {name}: {e}"));
        }
        us
    };
    let remap_us = remap_under(tr, "runtime.status.remap", Machine::new(pair.nprocs()));
    m.add("runtime.status.remap_us", remap_us);
    m.add(
        "runtime.status.overhead_us",
        remap_us - replay_us - account_us,
    );
    if guarded {
        for (name, metric, level) in [
            (
                "runtime.fault.counts_remap",
                "runtime.fault.counts_remap_us",
                ValidationLevel::Counts,
            ),
            (
                "runtime.fault.checksums_remap",
                "runtime.fault.checksums_remap_us",
                ValidationLevel::Checksums,
            ),
        ] {
            let us = remap_under(tr, name, Machine::new(pair.nprocs()).with_validation(level));
            m.add(metric, us);
        }
    }
    failures
}

/// The layers that are cheap per call: status noop, registry hit,
/// interning, symbolic normalization — measured on the first pair.
fn redrive_small(pair: &Pair, tr: &mut Tracer, m: &mut Metrics) {
    let (src, dst, elem) = (pair.src().clone(), pair.dst().clone(), pair.elem);
    let mut machine = Machine::new(pair.nprocs());
    let mut rt = ArrayRt::new("r", vec![src.clone(), dst.clone()], elem);
    rt.current(&mut machine, 0);
    let (keep, skip): (BTreeSet<u32>, BTreeSet<u32>) = ([0, 1].into(), BTreeSet::new());
    let noop = tr.timed_ns("runtime.status.noop", || {
        rt.try_remap_guarded(&mut machine, 0, &keep, false, &skip)
    });
    m.set("runtime.status.noop_ns", noop);

    let reg = PlanRegistry::new(8, 4096);
    reg.get_or_compile(&src, &dst, elem);
    let hit = tr.timed_ns("runtime.registry.hit", || {
        reg.get_or_compile(&src, &dst, elem).1.hit
    });
    m.set("runtime.registry.hit_ns", hit);
    m.set(
        "mapping.intern_hit_ns",
        tr.timed_ns("mapping.intern_hit", || mapping::intern::pair(&src, &dst)),
    );
    m.set(
        "mapping.normalize_symbolic_ns",
        tr.timed_ns("mapping.normalize_symbolic", || {
            mapping::normalize_symbolic(&src).is_some()
        }),
    );
}

/// Resolve a pair the way lowering does: probe, then the symbolic
/// table, then the concrete shards.
fn resolve(reg: &PlanRegistry, pair: &Pair) -> Arc<PlannedRemap> {
    let (src, dst, elem) = (pair.src(), pair.dst(), pair.elem);
    reg.probe(src, dst, elem)
        .0
        .or_else(|| reg.get_or_instantiate(src, dst, elem).map(|(p, _)| p))
        .unwrap_or_else(|| reg.get_or_compile(src, dst, elem).0)
}

/// The registry's miss path and the symbolic layer.
fn redrive_registry(pairs: &[Pair], tr: &mut Tracer, m: &mut Metrics) {
    let (miss_us, _) = tr.timed("runtime.registry.miss", || {
        let reg = PlanRegistry::new(8, 4096);
        pairs
            .iter()
            .map(|p| resolve(&reg, p).plan.transfers.len())
            .sum::<usize>()
    });
    m.set("runtime.registry.miss_us", miss_us);

    if let [a, b, ..] = pairs {
        // Two threads, two *different* pairs, one fresh registry: if
        // compiles serialize on a lock this reads like the serial sum.
        let (both_us, _) = tr.timed("runtime.registry.concurrent_miss", || {
            let reg = PlanRegistry::new(8, 4096);
            let gate = Barrier::new(2);
            std::thread::scope(|s| {
                for p in [a, b] {
                    let (reg, gate) = (&reg, &gate);
                    s.spawn(move || {
                        gate.wait();
                        black_box(resolve(reg, p));
                    });
                }
            });
        });
        m.set("runtime.registry.concurrent_miss_us", both_us);
        let (serial_us, _) = tr.timed("runtime.registry.serial_pair_miss", || {
            let reg = PlanRegistry::new(8, 4096);
            black_box((resolve(&reg, a), resolve(&reg, b)));
        });
        m.set("runtime.registry.serial_pair_miss_us", serial_us);
    }

    let mut declines = 0;
    let mut symbolic = None;
    for p in pairs {
        let formats =
            mapping::normalize_symbolic(p.src()).zip(mapping::normalize_symbolic(p.dst()));
        match formats {
            Some(((sf, ps), (df, pd))) if p.src().array_extents.rank() == 1 => {
                symbolic.get_or_insert((sf, df, ps, pd, p.src().array_extents.extent(0), p.elem));
            }
            _ => declines += 1,
        }
    }
    m.set("runtime.symbolic.declines", f64::from(declines));
    if let Some((sf, df, ps, pd, extent, elem)) = symbolic {
        let (new_us, _) = tr.timed("runtime.symbolic.instantiate_new", || {
            SymbolicPlan::new(mapping::format_pair(sf, df), elem)
                .instantiate_planned(ps, pd, extent)
                .is_some()
        });
        m.set("runtime.symbolic.instantiate_new_us", new_us);
        let sym = SymbolicPlan::new(mapping::format_pair(sf, df), elem);
        sym.instantiate_planned(ps, pd, extent);
        m.set(
            "runtime.symbolic.instantiate_cached_ns",
            tr.timed_ns("runtime.symbolic.instantiate_cached", || {
                sym.instantiate_planned(ps, pd, extent).is_some()
            }),
        );
    }
}

/// The first remap group of the op, re-driven: group compile and the
/// coalesced remap on seeded descriptors.
fn redrive_group(all: &[Programs], tr: &mut Tracer, m: &mut Metrics) -> Vec<String> {
    let mut failures = Vec::new();
    let Some((program, group)) = all.iter().flat_map(|p| p.values()).find_map(|p| {
        let mut found = None;
        p.for_each_stmt(|s| {
            if let (SStmt::RemapGroup(g), None) = (s, &found) {
                found = Some(g.clone());
            }
        });
        found.map(|g| (p, g))
    }) else {
        return failures;
    };
    let plans: Vec<Arc<PlannedRemap>> = group
        .members
        .iter()
        .map(|op| Arc::clone(&op.copies[0].planned))
        .collect();
    let (compile_us, planned) = tr.timed("runtime.group.compile", || {
        PlannedGroup::compile(plans.clone())
    });
    m.set("runtime.group.compile_us", compile_us);

    let mut machine = Machine::new(program.nprocs);
    let mut rts: Vec<ArrayRt> = group
        .members
        .iter()
        .map(|op| {
            let decl = program.array(op.array);
            let mut rt = ArrayRt::new(decl.name.clone(), decl.versions.clone(), decl.elem_size);
            rt.seed_plan(
                op.copies[0].src,
                op.target,
                Arc::clone(&op.copies[0].planned),
            );
            rt.current(&mut machine, op.copies[0].src);
            rt
        })
        .collect();
    // The op's own may-live sets, as the interpreter passes them: a
    // source copy they do not keep is freed by the remap and allocated
    // again on the rewind — one allocation per member per remap, the
    // churn the real loop pays.
    let (remap_us, result) = tr.timed("runtime.group.remap", || {
        for (rt, op) in rts.iter_mut().zip(&group.members) {
            rt.ensure_allocated(&mut machine, op.copies[0].src);
            rewind(rt, op.copies[0].src);
        }
        let mut members: Vec<GroupMember<'_>> = rts
            .iter_mut()
            .zip(&group.members)
            .map(|(rt, op)| GroupMember {
                rt,
                src: op.copies[0].src,
                target: op.target,
                may_live: &op.may_live,
                skip_if_current: &op.skip_if_current,
            })
            .collect();
        try_remap_group(&mut machine, &mut members, &planned)
    });
    match result {
        Ok(moved) => tr.count("members_moved_coalesced", moved as f64),
        Err(e) => failures.push(format!("redrive: group remap: {e}")),
    }
    m.set("runtime.group.remap_us", remap_us);
    failures
}

/// Front end, rendering and frame seeding, re-driven on the op's
/// sources and programs.
fn redrive_static(w: &Workload, all: &[Programs], tr: &mut Tracer, m: &mut Metrics) {
    let (lex_us, tokens) = tr.timed("lang.lex", || {
        w.units
            .iter()
            .map(|u| hpfc::lang::lexer::lex(&u.source).map_or(0, |t| t.len()))
            .sum::<usize>()
    });
    let src_bytes: usize = w.units.iter().map(|u| u.source.len()).sum();
    m.set("lang.lex_us", lex_us);
    m.set("lang.tokens", tokens as f64);
    m.set("lang.src_bytes", src_bytes as f64);
    m.set("lang.tokens_per_s", tokens as f64 / (lex_us / 1e6));

    let asts: Vec<_> = w
        .units
        .iter()
        .filter_map(|u| hpfc::lang::parse_program(&u.source).ok())
        .collect();
    let (motion_us, moved) = tr.timed("cfg.motion", || {
        asts.iter()
            .flat_map(|a| &a.routines)
            .map(|r| hpfc::cfg::transform::hoist_trailing_loop_remaps(r).1)
            .sum::<usize>()
    });
    tr.count("directives_moved", moved as f64);
    m.set("cfg.motion_us", motion_us);

    let (render_us, rendered) = tr.timed("codegen.render", || {
        all.iter()
            .flat_map(|p| p.values())
            .map(|p| render::program_text(p).len())
            .sum::<usize>()
    });
    m.set("codegen.render_us", render_us);
    m.set("codegen.rendered_bytes", rendered as f64);

    // What the interpreter does on frame entry: fresh descriptors
    // seeded from every planned copy, through the shared registry.
    let (seed_us, _) = tr.timed("runtime.status.seed", || {
        for p in all.iter().flat_map(|m| m.values()) {
            let mut machine = Machine::new(p.nprocs);
            let mut rts: Vec<ArrayRt> = p
                .arrays
                .iter()
                .map(|a| ArrayRt::new(a.name.clone(), a.versions.clone(), a.elem_size))
                .collect();
            p.for_each_planned_copy(|array, target, copy| {
                rts[array.0 as usize].seed_plan_shared(
                    &mut machine,
                    copy.src,
                    target,
                    Arc::clone(&copy.planned),
                );
            });
            black_box(&rts);
        }
    });
    m.set("runtime.status.seed_us", seed_us);
}

/// The directive-free twins of the op's units, compiled.
fn compile_twins(w: &Workload, failures: &mut Vec<String>) -> Vec<Programs> {
    w.units
        .iter()
        .filter_map(
            |u| match hpfc::compile(&u.twin_source(), &CompileOptions::default()) {
                Ok(c) => Some(c.programs()),
                Err(e) => {
                    failures.push(format!(
                        "twin of {}: compile error: {:?}",
                        u.label,
                        e.first()
                    ));
                    None
                }
            },
        )
        .collect()
}

/// Execute the twins as one `interp.twin` span of the current op. Same
/// statements, so the same final values — checked, so the twin cannot
/// silently measure something else.
fn run_twins(w: &Workload, twins: &[Programs], tr: &mut Tracer, failures: &mut Vec<String>) {
    tr.span("interp.twin", |_| {
        for (programs, unit) in twins.iter().zip(&w.units) {
            match op::execute_unit(programs, unit, None) {
                Ok(r) => op::verify(unit, &r, failures),
                Err(e) => failures.push(format!("twin of {}: {e}", unit.label)),
            }
        }
    });
}

/// Interpreter-level re-drives: the whole-array assignment
/// micro-program and two concurrent sessions.
fn redrive_interp(w: &Workload, all: &[Programs], tr: &mut Tracer, m: &mut Metrics) -> Vec<String> {
    let mut failures = Vec::new();
    // `a = a + 1.0` over the volume of the op's first array (capped so
    // the traced run stays short).
    let n = w.units[0]
        .arrays
        .values()
        .next()
        .map_or(4096, Vec::len)
        .min(1 << 20);
    let micro = format!(
        "subroutine micro\n  real :: a({n})\n!hpf$ processors p(4)\n!hpf$ distribute a(block) onto p\n  \
         a = a + 1.0\nend subroutine\n"
    );
    match hpfc::compile(&micro, &CompileOptions::default()) {
        Ok(c) => {
            let programs = c.programs();
            let (us, _) = tr.timed("interp.assign", || {
                hpfc::execute(&programs, "micro", hpfc::ExecConfig::default())
                    .map(|r| r.arrays.len())
            });
            tr.count("elements", n as f64);
            // The frame also allocates, zero-reads and extracts the
            // array; this is the interpreter's whole-array statement
            // cost as a program pays it.
            m.set("interp.assign_ns_per_elem", us * 1e3 / n as f64);
        }
        Err(e) => failures.push(format!("redrive: micro-program: {:?}", e.first())),
    }

    let run_all = || {
        for (programs, unit) in all.iter().zip(&w.units) {
            black_box(
                op::execute_unit(programs, unit, w.guard)
                    .map(|r| r.stats.bytes)
                    .ok(),
            );
        }
    };
    let (one_us, _) = tr.timed("interp.sessions1", run_all);
    let (two_us, _) = tr.timed("interp.sessions2", || {
        std::thread::scope(|s| {
            s.spawn(run_all);
            s.spawn(run_all);
        });
    });
    m.set("interp.sessions2_speedup", 2.0 * one_us / two_us);
    failures
}

/// `(hits, misses)` of the process-wide registry so far.
fn registry_books() -> (f64, f64) {
    PlanRegistry::global().map_or((0.0, 0.0), |r| (r.hits() as f64, r.misses() as f64))
}

/// Warm-op layer timings: `(metric, span)` — the metric is the median
/// over the warm stepwise ops of the per-op Σ duration of the span.
const WARM_SPAN_METRICS: [(&str, &str); 9] = [
    ("lang.parse_us", "lang.parse"),
    ("lang.sema_us", "lang.sema"),
    ("cfg.build_us", "cfg.build"),
    ("rgraph.build_us", "rgraph.build"),
    ("rgraph.optimize_us", "rgraph.optimize"),
    ("codegen.lower_warm_us", "codegen.lower"),
    ("core.programs_us", "core.programs"),
    ("interp.execute_us", "interp.execute"),
    ("interp.twin_us", "interp.twin"),
];

/// The ops of the traced child: one cold stepwise op, then warm ops
/// alternating the untraced facade with the traced stepwise op (and
/// the directive-free twin right behind it, so both see the same
/// allocator and cache state). Returns the last warm op's programs.
fn measure_ops(
    w: &Workload,
    reps_for: impl Fn(&OpOutcome) -> usize,
    tr: &mut Tracer,
    m: &mut Metrics,
    tally: &mut impl FnMut(&OpOutcome),
    failures: &mut Vec<String>,
) -> Vec<Programs> {
    // Cold: the first op of the process.
    let books = registry_books();
    let (cold, _, _) = stepwise_op(w, tr);
    tally(&cold);
    let (hits, misses) = (registry_books().0 - books.0, registry_books().1 - books.1);
    m.set(
        "codegen.lower_cold_us",
        tr.op_total_us(tr.op, "codegen.lower"),
    );
    m.set("runtime.registry.misses", misses);
    m.set(
        "runtime.registry.hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    let instantiated = PlanRegistry::global().map_or(0, |r| r.sym_instances());
    m.set("runtime.symbolic.instantiations", instantiated as f64);

    // Warm.
    let twins = compile_twins(w, failures);
    let (mut facade_ms, mut traced_ms, mut facade_compile_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut warm_ops = Vec::new();
    let mut last = None;
    for _ in 0..reps_for(&cold) {
        let books = registry_books();
        let facade = op::run_op(w);
        m.set("runtime.registry.hits", registry_books().0 - books.0);
        tally(&facade);
        facade_ms.push(facade.total_ms);
        facade_compile_ms.push(facade.compile_ms);
        let (traced, programs, counts) = stepwise_op(w, tr);
        tally(&traced);
        traced_ms.push(traced.total_ms);
        warm_ops.push(tr.op);
        run_twins(w, &twins, tr, failures);
        last = Some((traced, programs, counts));
    }
    let (warm, programs, counts) = last.expect("at least one warm op");
    tr.count("warm_ops", warm_ops.len() as f64);

    for (metric, span) in WARM_SPAN_METRICS {
        m.set(metric, tr.op_median_us(&warm_ops, span));
    }
    m.set(
        "interp.remap_share",
        1.0 - m.get("interp.twin_us") / m.get("interp.execute_us"),
    );
    m.set("core.compile_warm_us", median(&facade_compile_ms) * 1e3);
    m.set(
        "trace_overhead_pct",
        (median(&traced_ms) / median(&facade_ms) - 1.0) * 100.0,
    );

    let s = &warm.stats;
    let reg = PlanRegistry::global();
    for (metric, value) in [
        ("cfg.nodes", counts.cfg_nodes as u64),
        ("rgraph.vertices", counts.vertices as u64),
        ("rgraph.slots_total", counts.slots_total as u64),
        ("rgraph.slots_removed", counts.slots_removed as u64),
        ("rgraph.slots_trivial", counts.slots_trivial as u64),
        ("codegen.emitted_remaps", counts.emitted_remaps as u64),
        ("codegen.remap_groups", counts.remap_groups as u64),
        ("codegen.restore_arms", counts.restore_arms as u64),
        ("runtime.group.coalesced", s.remap_groups_coalesced),
        ("interp.remaps_skipped_noop", s.remaps_skipped_noop),
        ("interp.remaps_reused_live", s.remaps_reused_live),
        ("interp.plans_computed", s.plans_computed),
        ("interp.plan_cache_hits", s.plan_cache_hits),
        ("interp.bytes_moved", s.bytes_moved),
        ("interp.runs_copied", s.runs_copied),
        ("interp.peak_mem_bytes", warm.peak_mem_bytes),
        ("runtime.fault.faults_injected", s.faults_injected),
        ("runtime.fault.rounds_retried", s.rounds_retried),
        ("runtime.fault.programs_recompiled", s.programs_recompiled),
        ("runtime.fault.fallbacks_to_tables", s.fallbacks_to_tables),
        ("runtime.fault.txn_rollbacks", s.txn_rollbacks),
        (
            "runtime.registry.evictions",
            reg.map_or(0, |r| r.evictions()),
        ),
        (
            "runtime.registry.entries",
            reg.map_or(0, |r| r.len() as u64),
        ),
        (
            "runtime.registry.sym_entries",
            reg.map_or(0, |r| r.sym_len() as u64),
        ),
        (
            "runtime.registry.sym_instances",
            reg.map_or(0, |r| r.sym_instances() as u64),
        ),
        (
            "mapping.live_pairs",
            mapping::intern::global().live_pairs() as u64,
        ),
        (
            "mapping.live_format_pairs",
            mapping::symbolic::global().live_pairs() as u64,
        ),
    ] {
        m.set(metric, value as f64);
    }
    programs
}

/// Re-drive every layer on the pairs the programs carry, then fill in
/// the metrics derived from the sums. Returns failures.
fn redrive(w: &Workload, programs: &[Programs], tr: &mut Tracer, m: &mut Metrics) -> Vec<String> {
    tr.op = 0;
    let pairs = distinct_pairs(programs);
    m.set("codegen.planned_copies", pairs.len() as f64);
    let failures = tr.span("redrive", |tr| {
        let mut f = Vec::new();
        redrive_static(w, programs, tr, m);
        for pair in &pairs {
            f.extend(redrive_pair(pair, w.guard.is_some(), tr, m));
        }
        if let Some(first) = pairs.first() {
            redrive_small(first, tr, m);
        }
        redrive_registry(&pairs, tr, m);
        f.extend(redrive_group(programs, tr, m));
        f.extend(redrive_interp(w, programs, tr, m));
        f
    });
    // `parse_program` lexes; the lexer is re-driven on its own above.
    m.set(
        "lang.parse_us",
        m.get("lang.parse_us") - m.get("lang.lex_us"),
    );
    if m.payload_bytes > 0.0 {
        let replay_gbps = m.payload_bytes / m.get("runtime.exec.replay_us") / 1e3;
        let memcpy_gbps = m.payload_bytes / m.memcpy_us / 1e3;
        m.set("runtime.exec.replay_gbps", replay_gbps);
        m.set("roofline.memcpy_gbps", memcpy_gbps);
        m.set("runtime.exec.roofline_frac", replay_gbps / memcpy_gbps);
    }
    failures
}

/// The traced child: cold stepwise op, alternating warm facade /
/// stepwise ops, then the re-drive. Writes the span file and prints
/// one JSON record.
pub fn child_main(name: &str, cfg: &Config) -> i32 {
    let Some(w) = harness::generate(name, cfg) else {
        eprintln!("unknown workload `{name}`");
        return 2;
    };
    let mut tr = Tracer::default();
    let mut m = Metrics::default();
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op_failures = Vec::new();
    let mut tally = |o: &OpOutcome| {
        attempted += 1;
        failed += u64::from(!o.failures.is_empty());
        op_failures.extend(o.failures.iter().cloned());
    };
    // Fewer repetitions of a slow op keep the run inside the time cap.
    let reps_for = |cold: &OpOutcome| {
        if cfg.smoke || cold.total_ms > 100.0 {
            5
        } else {
            9
        }
    };
    let programs = measure_ops(&w, reps_for, &mut tr, &mut m, &mut tally, &mut failures);
    let redrive_failures = redrive(&w, &programs, &mut tr, &mut m);
    // All re-drive checks together count as one more op.
    attempted += 1;
    failed += u64::from(!(redrive_failures.is_empty() && failures.is_empty()));
    failures.extend(op_failures);
    failures.extend(redrive_failures);
    failures.truncate(8);
    m.set("trace.spans", tr.spans.len() as f64);

    let lowered = m.get("runtime.redist.plan_us")
        + m.get("runtime.schedule.build_us")
        + m.get("runtime.exec.compile_us");
    let derived = obj([
        ("codegen.lower_cold_self_us", (m.get("codegen.lower_cold_us") - lowered).into()),
        ("interp.statements_frame_exit_us", m.get("interp.twin_us").into()),
        ("interp.remapping_us", (m.get("interp.execute_us") - m.get("interp.twin_us")).into()),
        ("note", "derived: lower self time = cold lower (one call) - re-driven plan/schedule/compile (medians), so noise can push it below zero; interpreter split = execute - directive-free twin, run back to back".into()),
    ]);
    let absent: Vec<&str> = PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| !m.values.contains_key(n))
        .collect();
    let metrics = manifest::metrics_json(
        PER_LAYER
            .iter()
            .filter_map(|d| m.values.get(d.name).map(|v| (d, *v))),
    );
    let file = cfg.out_dir.join(format!("trace-{name}.json"));
    let trace = obj([
        ("workload", name.into()),
        ("seed", cfg.seed.into()),
        ("smoke", cfg.smoke.into()),
        ("machine", crate::stamp::machine()),
        ("metrics", metrics.clone()),
        ("absent_layers_not_exercised", absent.clone().into()),
        ("derived", derived),
        (
            "self_time_us",
            Json::Obj(
                tr.self_times()
                    .into_iter()
                    .map(|(k, v)| (k, v.into()))
                    .collect(),
            ),
        ),
        ("failures", failures.clone().into()),
        ("spans", tr.spans_json()),
    ]);
    harness::write_file(&file, &trace.to_string());
    let record = obj([
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("failures", failures.into()),
        ("metrics", metrics),
        ("absent", absent.into()),
        ("span_file", file.display().to_string().into()),
    ]);
    println!("{record}");
    0
}

/// The parent half of a traced run: one child, relayed.
pub struct TraceSummary {
    /// Workload name.
    pub workload: String,
    /// The child's record.
    pub record: Json,
}

impl TraceSummary {
    /// The driver's result line: *every* per-layer metric is keyed; a
    /// layer this workload does not exercise reads 0 here and is
    /// listed as absent in the trace file and the printed table.
    pub fn result_line(&self) -> Json {
        let measured = self.record.get("metrics");
        let metrics = manifest::metrics_json(PER_LAYER.iter().map(|d| {
            let value = measured
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite());
            (d, value.unwrap_or(0.0))
        }));
        let n = |k: &str| self.record.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        obj([
            ("correct", (n("failed") == 0.0).into()),
            ("attempted", n("attempted").max(1.0).into()),
            ("failed", n("failed").into()),
            ("metrics", metrics),
        ])
    }

    /// The human-readable table; absent layers are named, not zeroed.
    pub fn print(&self) {
        println!(
            "== {} — traced run (per-layer; end-to-end numbers come only from untraced runs)",
            self.workload
        );
        for d in &PER_LAYER {
            match self
                .record
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
            {
                Some(Json::Num(v)) => println!("  {:<40} {v:>18.4} {}", d.name, d.unit),
                _ => println!(
                    "  {:<40} {:>18} (layer not exercised by this workload)",
                    d.name, "absent"
                ),
            }
        }
        for f in self
            .record
            .get("failures")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            println!("  FAILED: {}", f.as_str().unwrap_or("?"));
        }
        if let Some(f) = self.record.get("span_file").and_then(Json::as_str) {
            println!("  spans: {f}");
        }
    }
}

/// Run one workload traced.
pub fn run_workload(name: &str, cfg: &Config) -> Result<TraceSummary, String> {
    let args = harness::child_args("--trace-child", name, cfg);
    let (record, _) = harness::spawn_child(&args)?;
    Ok(TraceSummary {
        workload: name.to_string(),
        record,
    })
}
