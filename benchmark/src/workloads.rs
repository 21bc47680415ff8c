//! The six workloads: each generator emits HPF source text (following
//! the shapes in `hpfc_lang::figures`) **and** the expected final
//! arrays/scalars from a plain-Rust dense evaluator of the same kernel —
//! nested loops over a `Vec<f64>`, directives ignored, never the
//! compiler under test.
//!
//! The seed perturbs inputs (fill constants, written indices, probe
//! positions, statement/variant order, extent jitter) without changing
//! the amount of work by more than ~1 %.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 6] = [
    "kernels",
    "cyclic_bounce",
    "template_fleet",
    "synth_compile",
    "reprovision",
    "guarded_bounce",
];

/// Why each workload exists — one line each (goes into `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "kernels" => "ADI 1024^2 + 2-D FFT transpose 512^2 + LU block<->cyclic 512^2 at P=4: the real kernels; interpreter statements dominate, contiguous Memcpy/Strided replay, live-copy reuse",
        "cyclic_bounce" => "1-D block<->cyclic(1), n=2Mi (16 MiB = 8x the 2 MiB L2), P=16, 3 bounces: O(extent) planning/program compile cold, Gather/Strided replay warm",
        "template_fleet" => "Fig. 3: five arrays on one template, n=4096, P=16, block<->cyclic(4), 256 bounces: 2560 small grouped remaps, so registry/status/accounting/group bookkeeping dominate",
        "synth_compile" => "one routine of 2048 statements, 128 redistributes, 16 aligned arrays at extent 64: front end, CFG, remapping graph and lowering do the work; run is negligible",
        "reprovision" => "22 program variants per op across P in 4..64, two extents, cyclic(4)<->cyclic / block(b), plus 2-D ADI: registry write path, symbolic instantiation, mid-extent compile cost",
        "guarded_bounce" => "block<->cyclic(4), n=256Ki, P=16, 16 bounces under Checksums validation and a fixed 10% fault plan: guarded ladder, txn capture and retry rungs",
        _ => "",
    }
}

/// Whether `name` runs on the validating, fault-injected machine.
pub fn is_guarded(name: &str) -> bool {
    name == "guarded_bounce"
}

/// SplitMix64: a tiny deterministic generator, so inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams are
    /// independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A fill constant that is exact in binary (multiples of 0.25).
    fn constant(&mut self) -> f64 {
        1.0 + self.below(16) as f64 * 0.25
    }
}

/// One source module of an op with its expected results.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Short label (`adi`, `fft`, `cyc4-cyclic/P16/n65536`, …).
    pub label: String,
    /// The HPF source text handed to `hpfc::compile`.
    pub source: String,
    /// The entry routine.
    pub routine: String,
    /// Scalar dummy arguments of the entry routine.
    pub scalar_args: Vec<(String, f64)>,
    /// Expected final dense contents of every array (row-major).
    pub arrays: BTreeMap<String, Vec<f64>>,
    /// Expected final values of every scalar the routine assigns.
    pub scalars: BTreeMap<String, f64>,
}

impl Unit {
    /// The same program with the executable remapping directives
    /// stripped: statements + frame + exit only, under the initial
    /// mapping. The difference to the real run is what remapping costs.
    pub fn twin_source(&self) -> String {
        self.source
            .lines()
            .filter(|l| {
                let l = l.trim_start();
                !(l.starts_with("!hpf$ redistribute") || l.starts_with("!hpf$ realign"))
            })
            .flat_map(|l| [l, "\n"])
            .collect()
    }
}

/// The fault plan of `guarded_bounce` is the same for every workload
/// seed. Its decisions are a pure hash of `(plan seed, remap epoch,
/// round, attempt)`, independent of the data, and the plan seed alone
/// moves the op by ±15 %: plan seeds 1..=24 inject 47–77 faults and 1–8
/// recompiles, 49–73 ms per warm op. This one injects 48 faults healed
/// by 47 retries and 1 recompile — the issue's probe.
pub const FAULT_PLAN_SEED: u64 = 7;

/// The fault configuration of a guarded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    /// Fault-plan seed.
    pub seed: u64,
    /// Injection rate in percent per decision point.
    pub rate: u32,
}

/// A generated workload: what one op compiles, runs and checks.
#[derive(Debug, Clone)]
pub struct Workload {
    /// One of [`NAMES`].
    pub name: &'static str,
    /// The source modules one op compiles and runs back to back.
    pub units: Vec<Unit>,
    /// `Some` when the op runs on a validating, fault-injected machine.
    pub guard: Option<Guard>,
}

/// Generate workload `name` from `seed`. `smoke` selects toy extents
/// (n ≤ 4096) for the self-tests; the shapes are identical.
pub fn generate(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let name = *NAMES.iter().find(|n| **n == name)?;
    let mut rng = Rng::new(
        seed,
        NAMES.iter().position(|n| *n == name).unwrap_or(0) as u64,
    );
    let pick = |full: u64, toy: u64| if smoke { toy } else { full };
    let (units, guard) = match name {
        "kernels" => (
            vec![
                adi(pick(1024, 32), 4, pick(4, 2), &mut rng),
                fft(pick(512, 16), 4, &mut rng),
                lu(pick(512, 16), 4, &mut rng),
            ],
            None,
        ),
        "cyclic_bounce" => (
            vec![bounce_1d(
                "cyclic_bounce",
                pick(2_097_152, 4096),
                16,
                "block",
                "cyclic",
                3,
                &mut rng,
            )],
            None,
        ),
        "template_fleet" => (
            vec![fleet(pick(4096, 256), 16, pick(256, 4), &mut rng)],
            None,
        ),
        "synth_compile" => (vec![synth(pick(128, 8), pick(16, 4), 64, &mut rng)], None),
        "reprovision" => (reprovision(smoke, &mut rng), None),
        "guarded_bounce" => (
            vec![bounce_1d(
                "guarded_bounce",
                pick(262_144, 4096),
                16,
                "block",
                "cyclic(4)",
                pick(16, 4),
                &mut rng,
            )],
            Some(Guard {
                seed: FAULT_PLAN_SEED,
                rate: 10,
            }),
        ),
        _ => return None,
    };
    Some(Workload { name, units, guard })
}

/// Row-major index of the 1-based point `(i, j)` of an `n × n` array.
fn at(n: u64, i: u64, j: u64) -> usize {
    ((i - 1) * n + (j - 1)) as usize
}

fn scalars<const N: usize>(pairs: [(&str, f64); N]) -> BTreeMap<String, f64> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// ADI (`figures::ADI_KERNEL` shape): row sweeps under `(block, *)`,
/// column sweeps under `(*, block)`, a remap between the two each
/// iteration. A seeded fill plus a diagonal of distinct marks makes a
/// misplaced element visible in the final values.
fn adi(n: u64, p: u64, t: u64, rng: &mut Rng) -> Unit {
    let c0 = rng.constant();
    let (pi, pj) = (1 + rng.below(n), 1 + rng.below(n));
    let source = format!(
        "subroutine adi(t)\n  integer :: t\n  real :: u({n},{n})\n!hpf$ processors p({p})\n\
         !hpf$ dynamic u\n!hpf$ distribute u(block, *) onto p\n  u = {c0:?}\n  do d = 1, {n}\n    \
         u(d, d) = u(d, d) + d\n  enddo\n  do k = 1, t\n    do j = 2, {n}\n      \
         u(1, j) = u(1, j) + u(1, j - 1)\n    enddo\n!hpf$ redistribute u(*, block) onto p\n    \
         do i = 2, {n}\n      u(i, 1) = u(i, 1) + u(i - 1, 1)\n    enddo\n\
         !hpf$ redistribute u(block, *) onto p\n  enddo\n  x = u({pi}, {pj})\nend subroutine\n"
    );
    let mut u = vec![c0; (n * n) as usize];
    for d in 1..=n {
        u[at(n, d, d)] += d as f64;
    }
    for _ in 0..t {
        for j in 2..=n {
            u[at(n, 1, j)] = u[at(n, 1, j)] + u[at(n, 1, j - 1)];
        }
        for i in 2..=n {
            u[at(n, i, 1)] = u[at(n, i, 1)] + u[at(n, i - 1, 1)];
        }
    }
    let x = u[at(n, pi, pj)];
    Unit {
        label: format!("adi/P{p}/n{n}"),
        source,
        routine: "adi".into(),
        scalar_args: vec![("t".into(), t as f64)],
        arrays: BTreeMap::from([("u".to_string(), u)]),
        scalars: scalars([
            ("d", n as f64),
            ("k", t as f64),
            ("j", n as f64),
            ("i", n as f64),
            ("x", x),
        ]),
    }
}

/// 2-D FFT transpose (`figures::FFT_KERNEL` shape): fill, transpose by
/// redistribution, read, transpose back. The back-transpose only
/// reads, so the original copy is still live (App. D reuse).
fn fft(n: u64, p: u64, rng: &mut Rng) -> Unit {
    let c0 = rng.constant();
    let (pi, pj, qi, qj) = (
        1 + rng.below(n),
        1 + rng.below(n),
        1 + rng.below(n),
        1 + rng.below(n),
    );
    let source = format!(
        "subroutine fft2d\n  real :: f({n},{n})\n!hpf$ processors p({p})\n!hpf$ dynamic f\n\
         !hpf$ distribute f(block, *) onto p\n  f = {c0:?}\n  do d = 1, {n}\n    \
         f(d, mod(d * 7, {n}) + 1) = d\n  enddo\n!hpf$ redistribute f(*, block) onto p\n  \
         x = f({pi}, {pj})\n!hpf$ redistribute f(block, *) onto p\n  y = f({qi}, {qj})\n\
         end subroutine\n"
    );
    let mut f = vec![c0; (n * n) as usize];
    for d in 1..=n {
        f[at(n, d, (d * 7) % n + 1)] = d as f64;
    }
    let (x, y) = (f[at(n, pi, pj)], f[at(n, qi, qj)]);
    Unit {
        label: format!("fft/P{p}/n{n}"),
        source,
        routine: "fft2d".into(),
        scalar_args: Vec::new(),
        arrays: BTreeMap::from([("f".to_string(), f)]),
        scalars: scalars([("d", n as f64), ("x", x), ("y", y)]),
    }
}

/// LU (`figures::LU_KERNEL` shape): factorization under `(cyclic, *)`
/// for load balance, solves under `(block, *)`.
fn lu(n: u64, p: u64, rng: &mut Rng) -> Unit {
    let c0 = rng.constant();
    let (pi, pj) = (1 + rng.below(n), 1 + rng.below(n));
    let source = format!(
        "subroutine lu\n  real :: m({n},{n})\n!hpf$ processors p({p})\n!hpf$ dynamic m\n\
         !hpf$ distribute m(block, *) onto p\n  m = {c0:?}\n  do d = 1, {n}\n    \
         m(d, mod(d * 5, {n}) + 1) = d\n  enddo\n!hpf$ redistribute m(cyclic, *) onto p\n  \
         do k = 1, {last}\n    m(k, k) = m(k, k) + k\n  enddo\n\
         !hpf$ redistribute m(block, *) onto p\n  x = m({pi}, {pj})\nend subroutine\n",
        last = n - 1
    );
    let mut m = vec![c0; (n * n) as usize];
    for d in 1..=n {
        m[at(n, d, (d * 5) % n + 1)] = d as f64;
    }
    for k in 1..n {
        m[at(n, k, k)] += k as f64;
    }
    let x = m[at(n, pi, pj)];
    Unit {
        label: format!("lu/P{p}/n{n}"),
        source,
        routine: "lu".into(),
        scalar_args: Vec::new(),
        arrays: BTreeMap::from([("m".to_string(), m)]),
        scalars: scalars([("d", n as f64), ("k", (n - 1) as f64), ("x", x)]),
    }
}

/// A 1-D bounce (`figures::FIG16_LOOP` shape): `t` iterations of
/// `home → away → home` with a single-element write after every
/// directive, so data moves every time and statements cost next to
/// nothing. A strided loop of distinct marks (prime step, so every
/// processor and cycle position is hit) makes misplacement visible.
fn bounce_1d(label: &str, n: u64, p: u64, home: &str, away: &str, t: u64, rng: &mut Rng) -> Unit {
    let c0 = rng.constant();
    // ~2048 marks at full size, never fewer than a few dozen.
    let step = [1021u64, 509, 251, 127, 61, 31]
        .into_iter()
        .find(|s| n / s >= 64)
        .unwrap_or(7);
    let off = 1 + rng.below(step);
    let (s1, s2) = (rng.below(n - t), rng.below(n - t));
    let w = 1 + rng.below(n);
    let source = format!(
        "subroutine bounce\n  real :: a({n})\n!hpf$ processors p({p})\n!hpf$ dynamic a\n\
         !hpf$ distribute a({home}) onto p\n  do i = {off}, {n}, {step}\n    a(i) = i + {c0:?}\n  \
         enddo\n  do k = 1, {t}\n!hpf$ redistribute a({away}) onto p\n    \
         a(k + {s1}) = a(k + {s1}) + 1.0\n!hpf$ redistribute a({home}) onto p\n    \
         a(k + {s2}) = a(k + {s2}) + 2.0\n  enddo\n  x = a({w})\nend subroutine\n"
    );
    let mut a = vec![0.0; n as usize];
    let mut i = off;
    let mut last_i = off;
    while i <= n {
        a[(i - 1) as usize] = i as f64 + c0;
        last_i = i;
        i += step;
    }
    for k in 1..=t {
        a[(k + s1 - 1) as usize] += 1.0;
        a[(k + s2 - 1) as usize] += 2.0;
    }
    let x = a[(w - 1) as usize];
    Unit {
        label: format!("{label}/P{p}/n{n}"),
        source,
        routine: "bounce".into(),
        scalar_args: Vec::new(),
        arrays: BTreeMap::from([("a".to_string(), a)]),
        scalars: scalars([("i", last_i as f64), ("k", t as f64), ("x", x)]),
    }
}

/// Fig. 3 (`figures::FIG3_ALIGNED` shape): five arrays aligned to one
/// template; every redistribution of the template remaps all five as
/// one coalesced group. Each array is written after every directive so
/// all five move every time.
fn fleet(n: u64, p: u64, t: u64, rng: &mut Rng) -> Unit {
    const ARRAYS: [&str; 5] = ["a", "b", "c", "d", "e"];
    let fills: Vec<f64> = ARRAYS.iter().map(|_| rng.constant()).collect();
    let step = 61;
    let off = 1 + rng.below(step);
    let (s1, s2) = (rng.below(n - t), rng.below(n - t));
    let decl: Vec<String> = ARRAYS.iter().map(|a| format!("{a}({n})")).collect();
    let mut s = format!(
        "subroutine fleet\n  real :: {}\n!hpf$ processors p({p})\n!hpf$ template t({n})\n\
         !hpf$ dynamic t\n!hpf$ align with t :: {}\n!hpf$ distribute t(block) onto p\n",
        decl.join(", "),
        ARRAYS.join(", ")
    );
    for (a, c) in ARRAYS.iter().zip(&fills) {
        let _ = writeln!(s, "  {a} = {c:?}");
    }
    let _ = writeln!(s, "  do i = {off}, {n}, {step}");
    for (m, a) in ARRAYS.iter().enumerate() {
        let _ = writeln!(s, "    {a}(i) = i + {m}.5");
    }
    let _ = writeln!(
        s,
        "  enddo\n  do k = 1, {t}\n!hpf$ redistribute t(cyclic(4)) onto p"
    );
    for a in ARRAYS {
        let _ = writeln!(s, "    {a}(k + {s1}) = {a}(k + {s1}) + 1.0");
    }
    let _ = writeln!(s, "!hpf$ redistribute t(block) onto p");
    for a in ARRAYS {
        let _ = writeln!(s, "    {a}(k + {s2}) = {a}(k + {s2}) + 2.0");
    }
    let _ = writeln!(s, "  enddo\n  x = a(1) + e(2)\nend subroutine");

    let mut arrays: Vec<Vec<f64>> = fills.iter().map(|c| vec![*c; n as usize]).collect();
    let mut last_i = off;
    for (m, v) in arrays.iter_mut().enumerate() {
        let mut i = off;
        while i <= n {
            v[(i - 1) as usize] = i as f64 + (m as f64 + 0.5);
            last_i = i;
            i += step;
        }
        for k in 1..=t {
            v[(k + s1 - 1) as usize] += 1.0;
            v[(k + s2 - 1) as usize] += 2.0;
        }
    }
    let x = arrays[0][0] + arrays[4][1];
    Unit {
        label: format!("fleet/P{p}/n{n}"),
        source: s,
        routine: "fleet".into(),
        scalar_args: Vec::new(),
        arrays: ARRAYS.iter().map(|a| a.to_string()).zip(arrays).collect(),
        scalars: scalars([("i", last_i as f64), ("k", t as f64), ("x", x)]),
    }
}

/// The compile-bound routine (`hpfc_bench::synth_program` shape):
/// `n_remaps` redistributions of one template alternating
/// cyclic/block, `n_arrays` aligned arrays, and one statement per
/// array between consecutive directives — in seeded order with seeded
/// subscripts, so every remapping slot survives the optimizer except
/// the last directive's (only `a0` is read after it).
fn synth(n_remaps: u64, n_arrays: u64, extent: u64, rng: &mut Rng) -> Unit {
    let names: Vec<String> = (0..n_arrays).map(|i| format!("a{i}")).collect();
    let decl: Vec<String> = names.iter().map(|a| format!("{a}({extent})")).collect();
    let mut s = format!(
        "subroutine synth\n  real :: {}\n!hpf$ processors p(4)\n!hpf$ template t({extent})\n\
         !hpf$ dynamic t\n!hpf$ align with t :: {}\n!hpf$ distribute t(block) onto p\n",
        decl.join(", "),
        names.join(", ")
    );
    let mut arrays = vec![vec![0.0; extent as usize]; n_arrays as usize];
    let mut order: Vec<usize> = (0..n_arrays as usize).collect();
    for r in 0..n_remaps {
        rng.shuffle(&mut order);
        for &a in &order {
            let (i, j) = (1 + rng.below(extent), 1 + rng.below(extent));
            let c = rng.constant();
            let _ = writeln!(s, "  {n}({i}) = {n}({j}) + {c:?}", n = names[a]);
            arrays[a][(i - 1) as usize] = arrays[a][(j - 1) as usize] + c;
        }
        let fmt = if r % 2 == 0 { "cyclic" } else { "block" };
        let _ = writeln!(s, "!hpf$ redistribute t({fmt}) onto p");
    }
    let w = 1 + rng.below(extent);
    let _ = writeln!(s, "  x = a0({w})\nend subroutine");
    let x = arrays[0][(w - 1) as usize];
    Unit {
        label: format!("synth/{n_remaps}x{n_arrays}"),
        source: s,
        routine: "synth".into(),
        scalar_args: Vec::new(),
        arrays: names.into_iter().zip(arrays).collect(),
        scalars: scalars([("x", x)]),
    }
}

/// The registry's write path: a seed-shuffled stream of program
/// variants. `cyclic(4) ↔ cyclic` shares one symbolic format pair per
/// extent, so a new `P` is an instantiation point; `cyclic(4) ↔
/// block(n/P)` is a new format pair per variant; the 2-D ADI variants
/// decline the symbolic layer and land in the concrete shards. The two
/// extents are jittered by multiples of `P_max · lcm(block sizes)` so
/// every seed sees fresh instantiation points.
fn reprovision(smoke: bool, rng: &mut Rng) -> Vec<Unit> {
    let procs: &[u64] = if smoke { &[4, 8] } else { &[4, 8, 16, 32, 64] };
    let quantum = procs[procs.len() - 1] * 4;
    let bases: [u64; 2] = if smoke {
        [1024, 4096]
    } else {
        [65_536, 262_144]
    };
    // Zero-sum jitter: what one size class gains the other loses, so
    // the op's total payload does not depend on the seed.
    let jitter = quantum * rng.below(4);
    let extents = [bases[0] + jitter, bases[1] - jitter];
    let mut units = Vec::new();
    for &p in procs {
        for n in extents {
            for away in ["cyclic".to_string(), format!("block({})", n / p)] {
                let label = format!("cyc4-{}", away.split('(').next().unwrap_or("x"));
                units.push(bounce_1d(&label, n, p, "cyclic(4)", &away, 2, rng));
            }
        }
    }
    for p in if smoke { vec![4] } else { vec![8, 16] } {
        units.push(adi(if smoke { 16 } else { 256 }, p, 2, rng));
    }
    rng.shuffle(&mut units);
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for name in NAMES {
            let a = generate(name, 7, true).unwrap();
            let b = generate(name, 7, true).unwrap();
            let c = generate(name, 8, true).unwrap();
            let src = |w: &Workload| w.units.iter().map(|u| u.source.clone()).collect::<Vec<_>>();
            assert_eq!(
                src(&a),
                src(&b),
                "{name}: same seed must give the same sources"
            );
            assert_ne!(src(&a), src(&c), "{name}: the seed must perturb the inputs");
            assert_eq!(a.guard, b.guard);
            assert!(!why(name).is_empty() && why(name).len() <= 200);
        }
        assert!(generate("nope", 1, true).is_none());
    }

    #[test]
    fn twin_strips_only_executable_remaps() {
        let w = generate("template_fleet", 1, true).unwrap();
        let twin = w.units[0].twin_source();
        assert!(!twin.contains("redistribute"));
        assert!(twin.contains("!hpf$ distribute t(block) onto p"));
        assert_eq!(
            twin.lines().count() + w.units[0].source.matches("redistribute").count(),
            w.units[0].source.lines().count()
        );
    }

    #[test]
    fn full_size_shapes_match_the_issue() {
        let w = generate("reprovision", 3, false).unwrap();
        assert_eq!(w.units.len(), 22);
        let s = generate("synth_compile", 3, false).unwrap();
        assert_eq!(s.units[0].source.matches("redistribute").count(), 128);
        assert_eq!(
            s.units[0]
                .source
                .lines()
                .filter(|l| l.contains(" = a"))
                .count(),
            2048 + 1
        );
    }
}
