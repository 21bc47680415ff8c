//! Replay of every run width against the two oracles it must agree
//! with: the table engine, which shares no code with compiled programs,
//! and per-point `get`.
//!
//! `block <-> cyclic(k)` for `k` in {1, 2, 3, 4, 8} compiles to stride
//! families of `k`-word runs — each width the run kernel gives a loop
//! of its own, and 3 which it does not. Every extent is off a multiple
//! of `k·P`, so blocks start and end inside a cyclic chunk: the
//! programs carry clipped head and tail runs, lone runs (families of
//! one) among them. The largest extent puts a block beyond the serial
//! walk's 32768-element tile, so the windowed replay runs too — and a
//! lone run at the end of such a block replays in a window after the
//! first, the one that holds it.

use hpfc_mapping::{testing::mapping_1d as mk, DimFormat};
use hpfc_runtime::{plan_redistribution, CommSchedule, CopyProgram, ExecMode, VersionData};

/// Elements of the strided side one pass of the serial walk sweeps.
const SERIAL_TILE: u32 = 32768;

/// The value every source element starts with.
fn value(p: &[u64]) -> f64 {
    (p[0] * 7 + 1) as f64
}

#[test]
fn every_run_width_replays_like_the_table_engine_and_per_point_get() {
    let (mut lone_programs, mut late_lone_programs) = (0, 0);
    for k in [1u64, 2, 3, 4, 8] {
        let shapes = [(5 * 4 * k * 4 + 2 * k + 1, 4u64), (37 * 3 * k + k / 2 + 2, 3), (70_001, 2)];
        for (n, p) in shapes {
            assert_ne!(n % (k * p), 0, "extent {n} must cut a cyclic({k}) chunk on {p} ranks");
            let block = mk(n, p, DimFormat::Block(None));
            let cyclic = mk(n, p, DimFormat::Cyclic(Some(k)));
            for (from, to, dir) in [(&block, &cyclic, "->"), (&cyclic, &block, "<-")] {
                let what = format!("n={n} P={p} block {dir} cyclic({k})");
                let plan = plan_redistribution(from, to, 8);
                let prog = CopyProgram::try_compile(&plan, &CommSchedule::from_plan(&plan))
                    .unwrap_or_else(|| panic!("{what}: compiles"));
                // The lone runs, by position on the side the walk tiles.
                let lone: Vec<u32> = (prog.fams.iter().filter(|f| f.count == 1))
                    .map(|f| if prog.receiver_major { f.dst_base } else { f.src_base })
                    .collect();
                lone_programs += usize::from(!lone.is_empty());
                late_lone_programs += usize::from(lone.iter().any(|&at| at >= SERIAL_TILE));
                assert!(
                    prog.fams.iter().any(|f| f.len as u64 == k),
                    "{what}: a family of {k}-word runs is replayed"
                );
                let mut src = VersionData::new(from.clone(), 8);
                src.fill(value);
                let mut replayed = VersionData::new(to.clone(), 8);
                replayed.copy_values_from_program(&src, &prog, ExecMode::Serial);
                let mut tables = VersionData::new(to.clone(), 8);
                tables.copy_values_from(&src);
                assert!(replayed == tables, "{what}: replay differs from the table engine");
                for i in 0..n {
                    assert_eq!(replayed.get(&[i]), value(&[i]), "{what}: element {i}");
                }
            }
        }
    }
    assert!(lone_programs > 0, "some program replays lone runs");
    assert!(late_lone_programs > 0, "some lone run replays in a window after the first");
}
