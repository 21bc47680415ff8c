//! `hpfcc` — command-line driver for the hpfc-rs compiler.
//!
//! ```text
//! hpfcc [options] <file.f | figure-name>
//!
//!   --naive          disable the App. C/D optimizations
//!   --loop-motion    enable Fig. 16→17 loop-invariant remapping motion
//!   --graph          print the remapping graph (Fig. 11-style labels)
//!   --dot            print the remapping graph in graphviz format
//!   --emit           print the generated static program (Fig. 19/20)
//!   --run            execute on the simulated machine and print stats
//!   --scalar k=v     pass a scalar dummy argument (repeatable)
//! ```
//!
//! `figure-name` may be any of the built-in paper programs
//! (`fig1`, `fig2`, …, `fig10`, `adi`, `fft`, `lu`, …). An unknown
//! option or a second input is an error (exit status 2), never
//! silently ignored.

use hpfc::{compile, execute, CompileOptions, ExecConfig};

/// Print `problem` and the usage line, and exit with status 2.
fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("hpfcc: {problem}");
    }
    eprintln!("usage: hpfcc [--naive] [--loop-motion] [--graph] [--dot] [--emit] [--run] [--scalar k=v] <file.f | figure>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage("");
    }

    let mut options = CompileOptions::default();
    let mut show_graph = false;
    let mut show_dot = false;
    let mut emit = false;
    let mut run = false;
    let mut exec = ExecConfig::default();
    let mut input: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--naive" => options.opt = hpfc::OptConfig::none(),
            "--loop-motion" => options.loop_motion = true,
            "--graph" => show_graph = true,
            "--dot" => show_dot = true,
            "--emit" => emit = true,
            "--run" => run = true,
            "--scalar" => {
                let kv = it.next().unwrap_or_default();
                match kv.split_once('=') {
                    Some((k, v)) => {
                        let val: f64 = v.parse().unwrap_or_else(|_| {
                            eprintln!("bad scalar value in `{kv}`");
                            std::process::exit(2);
                        });
                        exec = exec.with_scalar(k, val);
                    }
                    None => usage("--scalar expects k=v"),
                }
            }
            other if other.starts_with('-') => usage(&format!("unknown option `{other}`")),
            other => {
                if let Some(first) = &input {
                    usage(&format!("more than one input: `{first}` and `{other}`"));
                }
                input = Some(other.to_string());
            }
        }
    }

    let Some(input) = input else { usage("no input given") };

    // Builtin figure or file on disk.
    let src = match hpfc::figures::all().into_iter().find(|(n, _)| *n == input) {
        Some((_, s)) => s.to_string(),
        None => std::fs::read_to_string(&input).unwrap_or_else(|e| {
            eprintln!("cannot read `{input}`: {e}");
            std::process::exit(2);
        }),
    };

    let compiled = match compile(&src, &options) {
        Ok(c) => c,
        Err(errs) => {
            for e in errs {
                eprintln!("{e}");
            }
            std::process::exit(1);
        }
    };
    for w in &compiled.warnings {
        eprintln!("{w}");
    }

    for name in &compiled.order {
        let u = &compiled.units[name];
        println!(
            "routine `{}`: {} remapping slot(s), {} removed, {} trivial, {} emitted",
            name,
            u.opt_stats.total,
            u.opt_stats.removed,
            u.opt_stats.trivial,
            u.codegen_stats.emitted_remaps
        );
        if show_graph {
            println!("{}", hpfc::rgraph::dot::to_text(&u.rg, &u.unit));
        }
        if show_dot {
            println!("{}", hpfc::rgraph::dot::to_dot(&u.rg, &u.unit));
        }
        if emit {
            println!("{}", hpfc::codegen::render::program_text(&u.program));
        }
    }

    if run {
        let main = compiled.order[0].clone();
        let r = match execute(&compiled.programs(), &main, exec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("execution of `{main}` failed: {e}");
                std::process::exit(1);
            }
        };
        println!("--- simulated execution ---");
        println!("messages:        {}", r.stats.messages);
        println!("bytes:           {}", r.stats.bytes);
        println!("time (model):    {:.1} us", r.stats.time_us);
        println!("remaps moved:    {}", r.stats.remaps_performed);
        println!("remaps skipped:  {}", r.stats.remaps_skipped_noop);
        println!("live reuses:     {}", r.stats.remaps_reused_live);
        println!("dead-value skips:{}", r.stats.remaps_dead_values);
        println!("peak memory:     {} B/proc", r.peak_mem_bytes);
    }
}
