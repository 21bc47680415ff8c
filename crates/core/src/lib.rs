//! `hpfc` — the facade crate: the full compilation pipeline of
//! *Compiling Dynamic Mappings with Array Copies* (Coelho, PPoPP'97),
//! from HPF source to an executable statically-mapped program, plus a
//! simulated distributed machine to run it on.
//!
//! # Quickstart
//!
//! ```
//! use hpfc::{compile, execute, CompileOptions, ExecConfig};
//!
//! let compiled = compile(hpfc::figures::FIG10_ADI, &CompileOptions::default()).unwrap();
//! let unit = &compiled.units["remap"];
//! assert!(unit.opt_stats.removed > 0); // useless remappings eliminated
//!
//! let result = execute(
//!     &compiled.programs(),
//!     "remap",
//!     ExecConfig::default().with_scalar("m", 1.0).with_scalar("t", 2.0),
//! )
//! .unwrap(); // execution failures are typed `ExecError`s, not panics
//! assert!(result.stats.bytes > 0); // remapping traffic was simulated
//! ```
//!
//! # Pipeline
//!
//! 1. [`hpfc_lang`] parses and analyzes the HPF subset (restrictions 2
//!    and 3 of the paper enforced here);
//! 2. optional loop-invariant remapping motion
//!    ([`hpfc_cfg::transform`], paper Fig. 16 → 17);
//! 3. [`hpfc_rgraph`] builds the remapping graph (restriction 1
//!    enforced here) and runs the App. C/D optimizations;
//! 4. [`hpfc_codegen`] emits the static program with Fig. 19/20 copy
//!    code;
//! 5. [`hpfc_interp`] executes it on the [`hpfc_runtime`] simulator
//!    with exact communication accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

pub use hpfc_cfg as cfg;
pub use hpfc_codegen as codegen;
pub use hpfc_interp as interp;
pub use hpfc_lang as lang;
pub use hpfc_mapping as mapping;
pub use hpfc_rgraph as rgraph;
pub use hpfc_runtime as runtime;

pub use hpfc_codegen::{CodegenStats, StaticProgram};
pub use hpfc_interp::{execute, ExecConfig, ExecResult, Executor};
pub use hpfc_lang::figures;
pub use hpfc_lang::{Diagnostic, Severity};
pub use hpfc_rgraph::{OptConfig, OptStats};
pub use hpfc_runtime::{CostModel, ExecError, Machine, NetStats, PlanRegistry};

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// The remapping-graph optimizations (App. C/D). Defaults to all on;
    /// [`OptConfig::none`] is the naive baseline.
    pub opt: OptConfig,
    /// Loop-invariant remapping motion (Fig. 16 → 17). Off by default —
    /// it is a separate ablation in the paper.
    pub loop_motion: bool,
    /// Directive-level remap grouping (Fig. 3 template impact): the
    /// remaps one directive issues for several arrays are aggregated
    /// into a merged caterpillar schedule with coalesced same-pair
    /// wire messages. On by default (in naive mode too — it is a
    /// scheduling property, not a dataflow optimization); turn off via
    /// [`CompileOptions::ungrouped`] for the one-schedule-per-array
    /// baseline.
    pub group_remaps: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { opt: OptConfig::default(), loop_motion: false, group_remaps: true }
    }
}

impl CompileOptions {
    /// Everything off: the translation is still array copies, but no
    /// dataflow optimization is applied.
    pub fn naive() -> Self {
        CompileOptions { opt: OptConfig::none(), ..CompileOptions::default() }
    }

    /// Everything on, including loop motion.
    pub fn max() -> Self {
        CompileOptions { loop_motion: true, ..CompileOptions::default() }
    }

    /// The same options with directive-level remap grouping disabled —
    /// every array of a directive gets its own solo schedule (the
    /// pre-coalescing behavior, kept as a measurable baseline).
    pub fn ungrouped(mut self) -> Self {
        self.group_remaps = false;
        self
    }
}

/// One compiled routine with all intermediate artifacts exposed.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    /// The analyzed routine.
    pub unit: hpfc_lang::sema::RoutineUnit,
    /// Its (optimized) remapping graph.
    pub rg: hpfc_rgraph::Rg,
    /// What the optimizer did.
    pub opt_stats: OptStats,
    /// The lowered static program.
    pub program: StaticProgram,
    /// What lowering emitted.
    pub codegen_stats: CodegenStats,
    /// Remapping directives moved out of loops by the motion pass.
    pub moved_remaps: usize,
}

/// A compiled module.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Routines by name, in source order.
    pub units: BTreeMap<String, CompiledUnit>,
    /// Source order of routine names (the first is the main unit).
    pub order: Vec<String>,
    /// Front-end warnings.
    pub warnings: Vec<Diagnostic>,
}

impl Compiled {
    /// The main (first) compiled routine.
    pub fn main(&self) -> &CompiledUnit {
        &self.units[&self.order[0]]
    }

    /// The static programs, keyed by routine name, for the executor.
    pub fn programs(&self) -> BTreeMap<String, StaticProgram> {
        self.units.iter().map(|(k, v)| (k.clone(), v.program.clone())).collect()
    }
}

/// Compile an HPF source module end to end.
pub fn compile(src: &str, options: &CompileOptions) -> Result<Compiled, Vec<Diagnostic>> {
    let mut ast = hpfc_lang::parse_program(src)?;

    // Loop-invariant remapping motion is a source-to-source transform.
    let mut moved_per_routine: Vec<usize> = Vec::new();
    if options.loop_motion {
        for r in &mut ast.routines {
            let (new_r, moved) = hpfc_cfg::transform::hoist_trailing_loop_remaps(r);
            *r = new_r;
            moved_per_routine.push(moved);
        }
    } else {
        moved_per_routine = vec![0; ast.routines.len()];
    }

    let module = hpfc_lang::analyze(&ast)?;
    let mut units = BTreeMap::new();
    let mut order = Vec::new();
    let mut errs = Vec::new();
    for (i, unit) in module.routines.iter().enumerate() {
        match hpfc_rgraph::build(unit) {
            Ok(mut rg) => {
                let opt_stats = hpfc_rgraph::optimize(&mut rg, options.opt);
                let (program, codegen_stats) = hpfc_codegen::lower_with(
                    unit,
                    &rg,
                    &hpfc_codegen::LowerOptions { group_remaps: options.group_remaps },
                );
                order.push(unit.name.clone());
                units.insert(
                    unit.name.clone(),
                    CompiledUnit {
                        unit: unit.clone(),
                        rg,
                        opt_stats,
                        program,
                        codegen_stats,
                        moved_remaps: moved_per_routine[i],
                    },
                );
            }
            Err(mut e) => errs.append(&mut e),
        }
    }
    if !errs.is_empty() {
        return Err(errs);
    }
    Ok(Compiled { units, order, warnings: module.warnings })
}

/// Compile and run in one call; returns the compiled artifacts and the
/// execution result of the main routine. A compiled program executing
/// cleanly is this facade's contract, so an [`runtime::ExecError`]
/// (which [`execute`] returns as a value) panics here; call
/// [`execute`] directly to handle execution errors as data.
pub fn compile_and_run(
    src: &str,
    options: &CompileOptions,
    exec: ExecConfig,
) -> Result<(Compiled, ExecResult), Vec<Diagnostic>> {
    let compiled = compile(src, options)?;
    let programs = compiled.programs();
    let main = compiled.order[0].clone();
    let result = execute(&programs, &main, exec)
        .unwrap_or_else(|e| panic!("execution of `{main}` failed: {e}"));
    Ok((compiled, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_compile_with_and_without_opts() {
        for (name, src) in figures::all() {
            for opts in [CompileOptions::default(), CompileOptions::naive(), CompileOptions::max()]
            {
                compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            }
        }
    }

    #[test]
    fn naive_vs_optimized_remap_counts() {
        let naive = compile(figures::FIG10_ADI, &CompileOptions::naive()).unwrap();
        let opt = compile(figures::FIG10_ADI, &CompileOptions::default()).unwrap();
        let n = naive.main().program.count_remaps();
        let o = opt.main().program.count_remaps();
        assert!(o < n, "optimization must drop static remap slots: {o} !< {n}");
        // `removed` also counts slots at synthetic vertices (entry
        // instantiation) that never emit code in either mode.
        assert!(opt.main().opt_stats.removed >= n - o);
    }

    #[test]
    fn fig10_runs_end_to_end() {
        let (compiled, result) = compile_and_run(
            figures::FIG10_ADI,
            &CompileOptions::default(),
            ExecConfig::default().with_scalar("m", 1.0).with_scalar("t", 2.0),
        )
        .unwrap();
        assert!(result.stats.remaps_performed > 0);
        assert!(result.stats.bytes > 0);
        assert_eq!(compiled.main().program.nprocs, 4);
    }
}
