//! `hpfc-experiments` — regenerate every experiment table of the
//! reproduction (figure index in `ARCHITECTURE.md`; measured
//! end-to-end results in `benchmark/README.md`).
//!
//! Usage: `cargo run -p hpfc-bench --release --bin hpfc-experiments`
//! (optionally pass a single experiment id such as `e04` or `adi`).

use hpfc::{compile, compile_and_run, figures, CompileOptions, ExecConfig};
use hpfc_bench::{print_rows, print_static_table, run_figure, run_figures_parallel, std_exec, Row};

fn main() {
    let filter = std::env::args().nth(1);
    let want = |id: &str| filter.as_deref().map(|f| f == id || f == "all").unwrap_or(true);

    if want("static") {
        print_static_table();
    }

    if want("figures") || filter.is_none() {
        let rows: Vec<Row> = vec![
            run_figure(
                figures::FIG1_DIRECT,
                "e01 fig1 direct",
                "2 movements -> 1 direct remapping",
                std_exec(),
            ),
            run_figure(
                figures::FIG2_USELESS,
                "e02 fig2 useless",
                "both C remappings eliminated",
                std_exec(),
            ),
            run_figure(
                figures::FIG3_ALIGNED,
                "e03 fig3 aligned",
                "5 aligned arrays -> only A,D move",
                std_exec(),
            ),
            run_figure(
                figures::FIG4_ARGS,
                "e04 fig4 args",
                "6 argument movements -> 3",
                std_exec(),
            ),
            run_figure(
                figures::FIG6_OK,
                "e06 fig6 status",
                "ambiguous state resolved by status",
                std_exec(),
            ),
            run_figure(
                figures::FIG8_CALL,
                "e08 fig8 call",
                "implicit remapping made explicit",
                std_exec(),
            ),
            run_figure(
                figures::FIG10_ADI,
                "e10/e11 fig10 remap",
                "the paper's running example",
                std_exec(),
            ),
            run_figure(
                figures::FIG13_LIVE,
                "e12 fig13 live copy",
                "read-only path reuses A_0",
                std_exec(),
            ),
            run_figure(
                figures::FIG16_LOOP,
                "e14 fig16 loop",
                "2t movements -> 2 (motion+status)",
                std_exec(),
            ),
            run_figure(
                figures::KILL_EXAMPLE,
                "kill sec4.3",
                "B moves no data under KILL",
                std_exec(),
            ),
        ];
        print_rows("figure experiments: remapping traffic naive vs optimized", &rows);
    }

    if want("e05") {
        println!("\n== e05/e16: flow-level rejections ==");
        for (name, src) in
            [("fig5 (E020)", figures::FIG5_AMBIGUOUS), ("fig21 (E021)", figures::FIG21_MULTI_LEAVING)]
        {
            match compile(src, &CompileOptions::default()) {
                Err(e) => println!("{name}: rejected as expected: {}", e[0]),
                Ok(_) => println!("{name}: ERROR - compiled but must be rejected"),
            }
        }
    }

    if want("adi") {
        let cells: Vec<_> = [(32u64, 4u64, 4.0), (64, 4, 4.0), (64, 8, 4.0), (128, 8, 8.0)]
            .into_iter()
            .map(|(n, p, t)| {
                (
                    figures::scaled("adi", n, p).unwrap(),
                    format!("e20 adi n={n} P={p} t={t}"),
                    "per-iteration sweep remapping".to_string(),
                    ExecConfig::default().with_scalar("t", t),
                )
            })
            .collect();
        print_rows("E20: ADI end-to-end", &run_figures_parallel(cells));
    }

    if want("fft") {
        let cells: Vec<_> = [(32u64, 4u64), (64, 4), (128, 8), (256, 8)]
            .into_iter()
            .map(|(n, p)| {
                (
                    figures::scaled("fft", n, p).unwrap(),
                    format!("e21 fft n={n} P={p}"),
                    "back-transpose reuses live copy".to_string(),
                    ExecConfig::default(),
                )
            })
            .collect();
        print_rows("E21: 2-D FFT transpose", &run_figures_parallel(cells));
    }

    if want("lu") {
        let rows = vec![run_figure(
            figures::LU_KERNEL,
            "e22 lu block<->cyclic",
            "phase-change remappings",
            ExecConfig::default(),
        )];
        print_rows("E22: LU phase changes", &rows);
    }

    if want("fig4-sweep") {
        let cells: Vec<_> = [(64u64, 4u64), (256, 8), (1024, 16)]
            .into_iter()
            .map(|(n, p)| {
                (
                    figures::scaled("fig4", n, p).unwrap(),
                    format!("e04 fig4 n={n} P={p}"),
                    "interprocedural remapping removal".to_string(),
                    ExecConfig::default(),
                )
            })
            .collect();
        print_rows("E04 sweep: argument remappings across sizes", &run_figures_parallel(cells));
    }

    if want("e24") {
        println!("\n== e24: memory-pressure eviction (fig13 read-only path) ==");
        let src = "subroutine fig13x(s)\n  real :: a(1024)\n!hpf$ processors p(8)\n!hpf$ dynamic a\n!hpf$ distribute a(block) onto p\n  a = 1.0\n  if (s > 0.0) then\n!hpf$ redistribute a(cyclic)\n    a = 2.0\n  else\n!hpf$ redistribute a(cyclic)\n    x = a(3)\n  endif\n!hpf$ redistribute a(block)\n  x = a(5)\nend subroutine\n";
        let exec = ExecConfig::default().with_scalar("s", -1.0);
        let (_, normal) = compile_and_run(src, &CompileOptions::default(), exec.clone()).unwrap();
        let mut pressed = exec;
        pressed.evict_live_copies = true;
        let (_, evicted) = compile_and_run(src, &CompileOptions::default(), pressed).unwrap();
        println!(
            "normal:  {:>8} bytes, reuse {}, peak mem {:>7} B",
            normal.stats.bytes, normal.stats.remaps_reused_live, normal.peak_mem_bytes
        );
        println!(
            "evicted: {:>8} bytes, reuse {}, peak mem {:>7} B",
            evicted.stats.bytes, evicted.stats.remaps_reused_live, evicted.peak_mem_bytes
        );
    }

    if want("e14") {
        println!("\n== e14: loop-invariant motion (fig16), movements per run ==");
        println!("{:>4} | {:>11} | {:>14} | {:>12}", "t", "naive moves", "motioned moves", "noop-skips");
        for t in [1.0, 4.0, 16.0] {
            let exec = ExecConfig::default().with_scalar("t", t);
            let (_, naive) =
                compile_and_run(figures::FIG16_LOOP, &CompileOptions::naive(), exec.clone())
                    .unwrap();
            let (_, moved) =
                compile_and_run(figures::FIG16_LOOP, &CompileOptions::max(), exec).unwrap();
            println!(
                "{:>4} | {:>11} | {:>14} | {:>12}",
                t, naive.stats.remaps_performed, moved.stats.remaps_performed,
                moved.stats.remaps_skipped_noop
            );
        }
    }

    println!("\ndone.");
}
