//! Pins the remapping graph itself, not just its consequences: one
//! hash over everything `build` produces — vertices, labels, edges,
//! reference versions, the version table, or the diagnostics of a
//! rejected program — for every figure, the two rejection figures, a
//! benchmark-shaped routine and 256 generated programs; and a second
//! hash over the labels and `OptStats` that `optimize` leaves on every
//! accepted one of those programs, under both `OptConfig`s.
//!
//! `RECORDED` was recorded from the builder that preceded
//! `hpfc_cfg::dataflow::Facts` (four hand-written fact types);
//! `RECORDED_OPTIMIZED` from the optimizer that preceded App. C/D's
//! `Dataflow` problems (two hand-written `while changed` sweeps over
//! `G_R`). A change that is meant to keep the graph must keep both; a
//! change that is meant to alter it re-records them and says so.

mod common;

use common::{synth, Lcg};
use hpfc_lang::{figures, frontend};
use hpfc_rgraph::build::build;
use hpfc_rgraph::optimize::{optimize, OptConfig};

const RECORDED: u64 = 0x717d_b057_ff33_41fe;
const RECORDED_OPTIMIZED: u64 = 0x2318_e48e_d3f2_d9fe;

/// FNV-1a, 64 bit (`DefaultHasher` is not stable across releases).
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `{:?}` of the graph, or of the diagnostics when `src` is rejected.
fn graph_text(src: &str) -> String {
    let module = frontend(src).unwrap_or_else(|e| panic!("front end rejects: {e:?}\n{src}"));
    match build(module.main()) {
        Ok(rg) => format!(
            "{:?}",
            (
                &rg.vertices,
                &rg.labels,
                &rg.edges,
                &rg.redges,
                &rg.ref_versions,
                &rg.versions
            )
        ),
        Err(diagnostics) => format!("{diagnostics:?}"),
    }
}

/// `tests/proptest_pipeline.rs`'s grammar — three arrays on one dynamic
/// template, nested ifs and loops, four formats — plus a partial write
/// between two arrays and `KILL`.
fn random_body(rng: &mut Lcg, depth: u32, out: &mut String) {
    const FORMATS: [&str; 4] = ["block", "cyclic", "cyclic(2)", "block(8)"];
    let pad = "  ".repeat(3 - depth as usize);
    for _ in 0..1 + rng.below(4) {
        let (k, j) = (rng.below(3), rng.below(3));
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => out.push_str(&format!("{pad}a{k} = a{k} + 1.0\n")),
            1 => out.push_str(&format!("{pad}a{k} = 2.0\n")),
            2 => out.push_str(&format!("{pad}x = a{k}(3)\n")),
            3 => {
                let format = FORMATS[rng.below(4) as usize];
                out.push_str(&format!("!hpf$ redistribute t({format})\n"));
            }
            4 => out.push_str(&format!("{pad}a{k}(2) = a{j}(5)\n")),
            5 => out.push_str(&format!("!hpf$ kill a{k}\n")),
            6 => {
                out.push_str(&format!("{pad}if (x > 0.0) then\n"));
                random_body(rng, depth - 1, out);
                if rng.below(2) == 0 {
                    out.push_str(&format!("{pad}else\n"));
                    random_body(rng, depth - 1, out);
                }
                out.push_str(&format!("{pad}endif\n"));
            }
            _ => {
                out.push_str(&format!("{pad}do i = 1, {}\n", 1 + rng.below(3)));
                random_body(rng, depth - 1, out);
                out.push_str(&format!("{pad}enddo\n"));
            }
        }
    }
}

fn random_program(rng: &mut Lcg) -> String {
    let mut s = String::from(
        "subroutine fuzz\n  real :: a0(16), a1(16), a2(16)\n!hpf$ processors p(4)\n\
         !hpf$ template t(16)\n!hpf$ dynamic t\n!hpf$ align with t :: a0, a1, a2\n\
         !hpf$ distribute t(block) onto p\n  x = 1.0\n  a0 = 0.0\n  a1 = 0.0\n  a2 = 0.0\n",
    );
    random_body(rng, 2, &mut s);
    random_body(rng, 2, &mut s);
    s.push_str("end subroutine\n");
    s
}

fn pinned_programs() -> Vec<String> {
    let mut rng = Lcg(0x1997_0618);
    let mut programs: Vec<String> = figures::all().into_iter().map(|(_, s)| s.into()).collect();
    programs.push(figures::FIG5_AMBIGUOUS.into());
    programs.push(figures::FIG21_MULTI_LEAVING.into());
    programs.push(synth(128, 16, &mut rng));
    programs.extend((0..256).map(|_| random_program(&mut rng)));
    programs
}

#[test]
fn the_remapping_graph_of_every_pinned_program_is_unchanged() {
    let programs = pinned_programs();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let (mut accepted, mut rejected) = (0, 0);
    for src in &programs {
        let text = graph_text(src);
        if text.starts_with('(') {
            accepted += 1;
        } else {
            rejected += 1;
        }
        fnv1a(&mut hash, text.as_bytes());
        fnv1a(&mut hash, &[0xff]);
    }
    // The generator must exercise both outcomes, or the pin is hollow.
    assert!(
        accepted >= 100 && rejected >= 20,
        "{accepted} accepted, {rejected} rejected"
    );
    assert_eq!(
        hash, RECORDED,
        "the remapping graph changed: {hash:#018x} ({accepted} accepted, {rejected} rejected)"
    );
}

#[test]
fn the_optimized_graph_of_every_pinned_program_is_unchanged() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut optimized = 0;
    for src in pinned_programs() {
        let module = frontend(&src).unwrap();
        let Ok(rg) = build(module.main()) else {
            continue;
        };
        for config in [OptConfig::default(), OptConfig::none()] {
            let mut rg = rg.clone();
            let stats = optimize(&mut rg, config);
            fnv1a(&mut hash, format!("{:?}", (&rg.labels, &stats)).as_bytes());
            fnv1a(&mut hash, &[0xff]);
            optimized += 1;
        }
    }
    assert!(optimized >= 200, "{optimized} optimized graphs");
    assert_eq!(
        hash, RECORDED_OPTIMIZED,
        "the optimized graph changed: {hash:#018x} ({optimized} optimized graphs)"
    );
}
