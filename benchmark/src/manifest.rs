//! The benchmark's contract in one place: metric names, units,
//! directions and regression bounds. `BENCHMARK.json` is generated
//! from these tables (`--emit-manifest`) and a self-test pins the
//! committed file to them, so the file the driver reads and the
//! metrics the harness prints cannot drift apart.

use crate::json::{obj, Json};
use crate::workloads;

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// The command the driver runs from the root of a checkout (it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// A timing whose baseline is this small is compared with an absolute
/// floor by `--check` instead of its relative bound alone: 10 % of a
/// millisecond is scheduler noise, not a regression.
pub const ABSOLUTE_FLOOR_MS: f64 = 0.5;

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as keyed in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
    /// One-line definition (README and `--list`).
    pub what: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound,
        what,
    }
}

/// The end-to-end metrics, reported for every workload by untraced
/// runs only. `failed_ops_share` is printed beside them but lives in
/// the result line's `failed` / `attempted` (a metric that is 0 on
/// every healthy run cannot carry a relative bound).
pub const END_TO_END: [MetricDef; 11] = [
    e2e("setup_s", "s", 0.25, "parent spawn -> child ready for its first op: process start, source generation, reference computation (median over children)"),
    e2e("compile_cold_ms", "ms", 0.25, "hpfc::compile of the op's sources in a fresh process: cold registry, so plan -> schedule -> program compile included (median over children)"),
    e2e("e2e_cold_ms", "ms", 0.25, "first whole op in a fresh process, source -> verified values (median over children)"),
    e2e("warm_p50_ms", "ms", 0.25, "whole op with a warm registry (median of all warm samples)"),
    e2e("warm_p90_ms", "ms", 0.25, "each child's p90 over its own warm samples, median over children (a burst that hits one child cannot own the tail); the pooled sample count is printed"),
    e2e("peak_rss_mb", "MB", 0.2, "child VmHWM at exit (median over children)"),
    e2e("artifact_bytes", "B", 0.02, "sum of CopyProgram::artifact_bytes() over the distinct planned copies of the cold op's programs (exact)"),
    e2e("net_bytes", "B", 0.02, "NetStats.bytes of one op: modeled wire traffic, the paper's own metric (exact)"),
    e2e("net_messages", "count", 0.02, "NetStats.messages of one op (exact)"),
    e2e("modeled_comm_us", "model_us", 0.02, "NetStats.time_us of one op: CostModel makespan in modeled, not measured, microseconds (exact)"),
    e2e("remaps_moved", "count", 0.02, "NetStats.remaps_performed of one op: what the optimizer and status checks did not eliminate (exact)"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        what,
    }
}

/// The per-layer metrics of the traced run. Layer names are the
/// crate/module names.
pub const PER_LAYER: [MetricDef; 97] = [
    layer("lang.lex_us", "us", "lower", "lexer::lex over the op's sources"),
    layer("lang.parse_us", "us", "lower", "parse_program minus the lexing it contains (derived)"),
    layer("lang.sema_us", "us", "lower", "sema::analyze"),
    layer("lang.tokens", "count", "lower", "tokens lexed"),
    layer("lang.src_bytes", "B", "lower", "source bytes"),
    layer("lang.tokens_per_s", "1/s", "higher", "lexer throughput"),
    layer("cfg.build_us", "us", "lower", "build_cfg"),
    layer("cfg.nodes", "count", "lower", "CFG nodes"),
    layer("cfg.motion_us", "us", "lower", "transform::hoist_trailing_loop_remaps (off in the default pipeline; re-driven)"),
    layer("rgraph.build_us", "us", "lower", "rgraph::build_from_cfg"),
    layer("rgraph.optimize_us", "us", "lower", "rgraph::optimize (App. C/D)"),
    layer("rgraph.vertices", "count", "lower", "remapping-graph vertices"),
    layer("rgraph.slots_total", "count", "lower", "(vertex, array) remapping slots before optimization"),
    layer("rgraph.slots_removed", "count", "higher", "slots removed as useless (App. C)"),
    layer("rgraph.slots_trivial", "count", "higher", "slots left to the runtime status check"),
    layer("codegen.lower_cold_us", "us", "lower", "lower_with in a fresh process (plans, schedules and copy programs compile inside it)"),
    layer("codegen.lower_warm_us", "us", "lower", "lower_with on a warm registry"),
    layer("codegen.render_us", "us", "lower", "render::program_text"),
    layer("codegen.rendered_bytes", "B", "lower", "size of the rendered SPMD text"),
    layer("codegen.emitted_remaps", "count", "lower", "remap statements emitted"),
    layer("codegen.remap_groups", "count", "higher", "directive-level remap groups emitted"),
    layer("codegen.planned_copies", "count", "lower", "distinct compile-time planned copies"),
    layer("codegen.restore_arms", "count", "lower", "compiled restore arms (Fig. 18)"),
    layer("mapping.normalize_symbolic_ns", "ns", "lower", "normalize_symbolic per mapping"),
    layer("mapping.intern_hit_ns", "ns", "lower", "intern::pair on a live pair"),
    layer("mapping.live_pairs", "count", "lower", "live hash-consed mapping pairs after the op"),
    layer("mapping.live_format_pairs", "count", "lower", "live hash-consed symbolic format pairs after the op"),
    layer("runtime.redist.plan_us", "us", "lower", "plan_redistribution, summed over the op's distinct pairs"),
    layer("runtime.redist.plan_max_us", "us", "lower", "slowest pair's plan time (exposes the direction asymmetry)"),
    layer("runtime.redist.plan_min_us", "us", "lower", "fastest pair's plan time"),
    layer("runtime.redist.transfers", "count", "lower", "remote transfers planned"),
    layer("runtime.schedule.build_us", "us", "lower", "CommSchedule::from_plan, summed over pairs"),
    layer("runtime.schedule.rounds", "count", "lower", "caterpillar rounds"),
    layer("runtime.schedule.wire_messages", "count", "lower", "wire messages scheduled"),
    layer("runtime.exec.compile_us", "us", "lower", "CopyProgram::try_compile, summed over pairs"),
    layer("runtime.exec.artifact_bytes", "B", "lower", "compiled artifact bytes, summed over pairs"),
    layer("runtime.exec.runs", "count", "lower", "copy runs encoded"),
    layer("runtime.exec.elems_memcpy", "count", "higher", "elements replayed by Kernel::Memcpy units"),
    layer("runtime.exec.elems_strided", "count", "lower", "elements replayed by Kernel::Strided units"),
    layer("runtime.exec.elems_gather", "count", "lower", "elements replayed by Kernel::Gather units"),
    layer("runtime.exec.elems_triples", "count", "lower", "elements replayed by Kernel::Triples units"),
    layer("runtime.exec.elems_mixed", "count", "lower", "elements replayed by Kernel::Mixed units"),
    layer("runtime.exec.replay_us", "us", "lower", "copy_values_from_program, serial, summed over pairs"),
    layer("runtime.exec.replay_gbps", "GB/s", "higher", "payload bytes / serial replay time"),
    layer("runtime.exec.replay_t2_us", "us", "lower", "the same replay under ExecMode::Parallel(2)"),
    layer("runtime.exec.roofline_frac", "ratio", "higher", "replay_gbps / roofline.memcpy_gbps"),
    layer("roofline.memcpy_gbps", "GB/s", "higher", "plain copy_from_slice of the same payload bytes, same process, same run"),
    layer("roofline.payload_bytes", "B", "lower", "largest single-pair payload the roofline copied (compare with the stamped cache sizes)"),
    layer("runtime.store.alloc_us", "us", "lower", "VersionData::new for both versions, summed over pairs"),
    layer("runtime.store.to_dense_us", "us", "lower", "VersionData::to_dense, summed over pairs"),
    layer("runtime.store.tables_us", "us", "lower", "copy_values_from_plan: the table engine, ladder rung 3"),
    layer("runtime.machine.account_us", "us", "lower", "Machine::account_schedule, summed over pairs"),
    layer("runtime.status.remap_us", "us", "lower", "ArrayRt::try_remap_guarded on a seeded descriptor, summed over pairs"),
    layer("runtime.status.overhead_us", "us", "lower", "remap - replay - account: the status layer's self time (derived)"),
    layer("runtime.status.noop_ns", "ns", "lower", "a remap the status check skips"),
    layer("runtime.status.seed_us", "us", "lower", "seeding fresh descriptors from the programs' planned copies (frame entry)"),
    layer("runtime.group.compile_us", "us", "lower", "PlannedGroup::compile of the first remap group"),
    layer("runtime.group.remap_us", "us", "lower", "try_remap_group of that group on seeded descriptors"),
    layer("runtime.group.coalesced", "count", "higher", "groups the op moved coalesced"),
    layer("runtime.registry.hit_ns", "ns", "lower", "get_or_compile on a registered pair"),
    layer("runtime.registry.miss_us", "us", "lower", "resolving every distinct pair through a fresh PlanRegistry::new(8, 4096) the way lowering does"),
    layer("runtime.registry.concurrent_miss_us", "us", "lower", "two threads cold-compiling two different pairs in one fresh registry (lock serialization shows as ~ the serial sum)"),
    layer("runtime.registry.serial_pair_miss_us", "us", "lower", "the same two pairs cold-compiled by one thread: the reference for concurrent_miss_us"),
    layer("runtime.registry.hits", "count", "higher", "global registry hits during one warm op"),
    layer("runtime.registry.misses", "count", "lower", "global registry misses during the cold op"),
    layer("runtime.registry.evictions", "count", "lower", "global registry evictions so far"),
    layer("runtime.registry.hit_ratio", "ratio", "higher", "hits / (hits + misses) of the cold op"),
    layer("runtime.registry.entries", "count", "lower", "concrete entries after the op"),
    layer("runtime.registry.sym_entries", "count", "lower", "symbolic format-pair entries after the op"),
    layer("runtime.registry.sym_instances", "count", "lower", "symbolic instantiation points after the op"),
    layer("runtime.symbolic.instantiate_new_us", "us", "lower", "SymbolicPlan::instantiate_planned at a new point"),
    layer("runtime.symbolic.instantiate_cached_ns", "ns", "lower", "the same at a cached point"),
    layer("runtime.symbolic.instantiations", "count", "lower", "instantiation points the cold op materialized"),
    layer("runtime.symbolic.declines", "count", "lower", "distinct pairs the symbolic normalizer declines"),
    layer("runtime.fault.counts_remap_us", "us", "lower", "the seeded remap under ValidationLevel::Counts"),
    layer("runtime.fault.checksums_remap_us", "us", "lower", "the seeded remap under ValidationLevel::Checksums"),
    layer("runtime.fault.faults_injected", "count", "lower", "faults injected in one op"),
    layer("runtime.fault.rounds_retried", "count", "lower", "rounds retried in one op"),
    layer("runtime.fault.programs_recompiled", "count", "lower", "programs recompiled in one op"),
    layer("runtime.fault.fallbacks_to_tables", "count", "lower", "table-engine fallbacks in one op"),
    layer("runtime.fault.txn_rollbacks", "count", "lower", "transactions rolled back in one op"),
    layer("interp.execute_us", "us", "lower", "execute of the op's programs"),
    layer("interp.twin_us", "us", "lower", "the same programs with the remapping directives stripped: statements + frame + exit only"),
    layer("interp.remap_share", "ratio", "lower", "1 - twin / execute"),
    layer("interp.assign_ns_per_elem", "ns", "lower", "`a = a + 1.0` micro-program, per element"),
    layer("interp.sessions2_speedup", "ratio", "higher", "throughput of 2 concurrent sessions over 1 (2 = perfect on 2 cores)"),
    layer("interp.remaps_skipped_noop", "count", "higher", "remaps the status check skipped"),
    layer("interp.remaps_reused_live", "count", "higher", "remaps served by a live copy (App. D)"),
    layer("interp.plans_computed", "count", "lower", "run-time plans (pinned to 0)"),
    layer("interp.plan_cache_hits", "count", "higher", "per-array plan-cache hits"),
    layer("interp.bytes_moved", "B", "lower", "payload bytes the copy engine wrote"),
    layer("interp.runs_copied", "count", "lower", "copy runs replayed"),
    layer("interp.peak_mem_bytes", "B", "lower", "largest simulated per-processor memory peak"),
    layer("core.compile_warm_us", "us", "lower", "hpfc::compile on a warm registry"),
    layer("core.programs_us", "us", "lower", "Compiled::programs() clone"),
    layer("trace_overhead_pct", "%", "lower", "stepwise traced op vs untraced facade op, same process"),
    layer("trace.spans", "count", "lower", "spans recorded by the traced run"),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name".to_string(), Json::from(m.name)),
            ("unit".to_string(), m.unit.into()),
            ("better".to_string(), m.better.into()),
        ];
        if bounded {
            fields.push(("bound".to_string(), m.bound.into()));
        }
        Json::Obj(fields)
    };
    obj([
        ("command", COMMAND.to_vec().into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                workloads::NAMES
                    .iter()
                    .map(|n| obj([("name", (*n).into()), ("why", workloads::why(n).into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

/// Whether an end-to-end metric is a deterministic output of the
/// program (it must repeat exactly for a given seed) rather than a
/// measurement.
pub fn is_exact(name: &str) -> bool {
    matches!(
        name,
        "artifact_bytes" | "net_bytes" | "net_messages" | "modeled_comm_us" | "remaps_moved"
    )
}

/// `{name: {"value": v, "unit": u}, …}` — how metrics appear in the
/// result line and in every result file.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a MetricDef, f64)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(m, value)| {
                (
                    m.name.to_string(),
                    obj([("value", value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    )
}

/// Whether `s` is a name the contract accepts: starts with a letter or
/// digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn is_contract_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(is_contract_name(m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for n in workloads::NAMES {
            assert!(is_contract_name(n) && seen.insert(n));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().pretty().len() < 64 * 1024);
        assert!(COMMAND.len() <= 32);
    }
}
