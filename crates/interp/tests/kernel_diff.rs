//! The statement engine against the tree walker and the per-point
//! evaluator it replaced (`common`): same program, both engines, the
//! same bits in every array and scalar — whole-array, element and
//! scalar assignments, `IF` conditions and `DO` bounds alike.

mod common;

use common::run_both;
use proptest::prelude::*;

/// SplitMix64 — the program is a pure function of the case's seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// What an expression may mention.
struct Scope<'a> {
    arrays: &'a [&'a str],
    shape: &'a [u64],
    /// Scalars in scope: the dummy `k`, the never-assigned `z`, and the
    /// loop index inside a `DO`.
    scalars: &'a [&'a str],
}

const BIN_OPS: [&str; 13] =
    ["+", "-", "*", "/", "**", "<", ">", "<=", ">=", "==", "/=", ".and.", ".or."];
const UNARY: [&str; 6] = ["sqrt", "abs", "sin", "cos", "exp", "real"];

/// A subscript that is in range whatever `e` evaluates to.
fn clamped(e: &str, extent: u64) -> String {
    format!("max(1, min({extent}, abs({e})))")
}

/// A random expression; `elementwise` allows whole-array references.
fn expr(rng: &mut Rng, scope: &Scope<'_>, depth: usize, elementwise: bool) -> String {
    let leaf = depth == 0 || rng.below(4) == 0;
    if leaf {
        return match rng.below(if elementwise { 6 } else { 3 }) {
            0 => rng.pick(&["0.0", "1.0", "2", "0.25", "1.5", "3.0", "7"]).to_string(),
            1 => rng.pick(scope.scalars).to_string(),
            // An element at constant or scalar subscripts: one value
            // for the whole statement.
            2 => {
                let subs: Vec<String> = scope
                    .shape
                    .iter()
                    .map(|&n| match rng.below(2) {
                        0 => (1 + rng.below(n as usize)).to_string(),
                        _ => clamped(rng.pick(scope.scalars), n),
                    })
                    .collect();
                format!("{}({})", rng.pick(scope.arrays), subs.join(", "))
            }
            // A vector subscript: one value per point.
            3 if rng.below(3) == 0 => {
                let subs: Vec<String> =
                    scope.shape.iter().map(|&n| clamped(rng.pick(scope.arrays), n)).collect();
                format!("{}({})", rng.pick(scope.arrays), subs.join(", "))
            }
            _ => rng.pick(scope.arrays).to_string(),
        };
    }
    let sub = |rng: &mut Rng| expr(rng, scope, depth - 1, elementwise);
    match rng.below(10) {
        0 => format!("(-{})", sub(rng)),
        1 => format!("(.not. {})", sub(rng)),
        2 => format!("{}({})", rng.pick(&UNARY), sub(rng)),
        3 => format!("mod({}, {})", sub(rng), sub(rng)),
        4 => {
            let args: Vec<String> = (0..1 + rng.below(3)).map(|_| sub(rng)).collect();
            format!("{}({})", rng.pick(&["min", "max"]), args.join(", "))
        }
        _ => format!("({} {} {})", sub(rng), rng.pick(&BIN_OPS), sub(rng)),
    }
}

/// A random routine: 1–3 conformable arrays of rank 1–2 under block /
/// cyclic / cyclic(k) / collapsed / replicated mappings (aligned to the
/// first array or mapped on their own), some initialised element by
/// element and some never touched, then whole-array statements — bare,
/// inside `DO` loops whose bounds and step are expressions in `k`,
/// between `REDISTRIBUTE`s — element assignments at clamped subscripts,
/// `IF`s over scalars and elements, and scalar assignments.
fn program(seed: u64) -> String {
    let rng = &mut Rng(seed);
    let all = ["a", "b", "c"];
    let arrays = &all[..1 + rng.below(3)];
    let rank = 1 + rng.below(2);
    let shape: Vec<u64> = match rank {
        // 1030 and 2100 cross a tile boundary inside a block.
        1 => vec![[1, 5, 16, 37, 1030, 2100][rng.below(6)]],
        _ => [[4, 4], [6, 9], [3, 40], [33, 36]][rng.below(4)].to_vec(),
    };
    let p = [1, 2, 3, 4, 7][rng.below(5)];
    let format = |rng: &mut Rng| -> String {
        let one = |rng: &mut Rng| rng.pick(&["block", "cyclic", "cyclic(2)", "cyclic(3)"]);
        match rank {
            1 => one(rng).to_string(),
            _ if rng.below(2) == 0 => format!("{}, *", one(rng)),
            _ => format!("*, {}", one(rng)),
        }
    };
    let dims = shape.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    let mut s = String::from("subroutine s(k)\n  integer :: k\n");
    for a in arrays {
        s += &format!("  real :: {a}({dims})\n");
    }
    s += &format!("!hpf$ processors p({p})\n!hpf$ dynamic {}\n", arrays.join(", "));
    // Which arrays may be redistributed on their own (the others follow
    // `a`, or stay replicated).
    let mut free = Vec::new();
    for (i, a) in arrays.iter().enumerate() {
        match if i == 0 { 1 + rng.below(3) } else { rng.below(4) } {
            0 => s += &format!("!hpf$ align with a :: {a}\n"),
            // No directive: replicated on every processor.
            3 => {}
            _ => {
                s += &format!("!hpf$ distribute {a}({}) onto p\n", format(rng));
                free.push(*a);
            }
        }
    }
    // Distinct values, element by element; one array in four is left
    // untouched (the first statement that reads it instantiates zeros).
    for (i, a) in arrays.iter().enumerate() {
        if rng.below(4) == 0 {
            continue;
        }
        s += &match rank {
            1 => format!("  do i = 1, {}\n    {a}(i) = i * 0.5 + {i}\n  enddo\n", shape[0]),
            _ => format!(
                "  do i = 1, {}\n    do j = 1, {}\n      {a}(i, j) = i * 0.5 - j + {i}\n    \
                 enddo\n  enddo\n",
                shape[0], shape[1]
            ),
        };
    }
    let assign = |rng: &mut Rng, scalars: &[&str], pad: &str| {
        let scope = Scope { arrays, shape: &shape, scalars };
        format!("{pad}{} = {}\n", rng.pick(arrays), expr(rng, &scope, 3, true))
    };
    // One element, at subscripts computed from scalars and elements,
    // assigned a value read from other elements.
    let element = |rng: &mut Rng, scalars: &[&str], pad: &str| {
        let scope = Scope { arrays, shape: &shape, scalars };
        let subs: Vec<String> =
            shape.iter().map(|&n| clamped(&expr(rng, &scope, 1, false), n)).collect();
        let rhs = expr(rng, &scope, 2, false);
        format!("{pad}{}({}) = {rhs}\n", rng.pick(arrays), subs.join(", "))
    };
    let statement = |rng: &mut Rng, scalars: &[&str], pad: &str| match rng.below(3) {
        0 => element(rng, scalars, pad),
        _ => assign(rng, scalars, pad),
    };
    for _ in 0..2 + rng.below(5) {
        match rng.below(8) {
            0 if !free.is_empty() => {
                s += &format!("!hpf$ redistribute {}({}) onto p\n", rng.pick(&free), format(rng));
            }
            1 => {
                let scope = Scope { arrays, shape: &shape, scalars: &["k", "z", "x"] };
                s += &format!("  x = {}\n", expr(rng, &scope, 2, false));
            }
            // With k = 3 the bounds run 1..=4 down to 0 and the step is
            // 1, 2 or -1: some loops never run.
            2 => {
                let lo = rng.pick(&["1", "k - 2", "k", "2 * k - 5"]);
                let hi = rng.pick(&["k", "k + 1", "2", "k - 3"]);
                let step = rng.pick(&["", ", 1", ", k - 1", ", 2 - k"]);
                s += &format!("  do m = {lo}, {hi}{step}\n");
                for _ in 0..1 + rng.below(2) {
                    s += &statement(rng, &["k", "z", "m"], "    ");
                }
                s += "  enddo\n";
            }
            3 => {
                let scope = Scope { arrays, shape: &shape, scalars: &["k", "z", "x"] };
                s += &format!("  if ({}) then\n", expr(rng, &scope, 2, false));
                s += &statement(rng, &["k", "z", "x"], "    ");
                if rng.below(2) == 0 {
                    s += "  else\n";
                    s += &statement(rng, &["k", "z", "x"], "    ");
                }
                s += "  endif\n";
            }
            4 => s += &element(rng, &["k", "z", "x"], "  "),
            _ => s += &assign(rng, &["k", "z", "x"], "  "),
        }
    }
    s + "end subroutine\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_whole_array_statements_match_the_per_point_evaluator(seed in 0u64..u64::MAX) {
        run_both(&program(seed), &[("k", 3.0)]);
    }
}

/// `x = src` in a routine with no arrays, under both engines: the
/// engine's `x`.
fn scalar_value(src: &str, scalars: &[(&str, f64)]) -> f64 {
    let (_, values) = run_both(&format!("subroutine s(t)\n  x = {src}\nend subroutine\n"), scalars);
    values["x"]
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(scalar_value("1 + 2 * 3", &[]), 7.0);
    assert_eq!(scalar_value("2 ** 3 ** 1", &[]), 8.0);
    assert_eq!(scalar_value("-(4 - 6) / 2", &[]), 1.0);
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(scalar_value("1 < 2 .and. 3 > 2", &[]), 1.0);
    assert_eq!(scalar_value(".not. (1 == 1)", &[]), 0.0);
    assert_eq!(scalar_value("2 /= 2 .or. 1 >= 1", &[]), 1.0);
}

#[test]
fn scalar_lookup_with_default_zero() {
    assert_eq!(scalar_value("t * 2", &[("t", 21.0)]), 42.0);
    assert_eq!(scalar_value("unknown + 1", &[]), 1.0);
}

#[test]
fn intrinsics() {
    assert_eq!(scalar_value("sqrt(16.0)", &[]), 4.0);
    assert_eq!(scalar_value("abs(-3.5)", &[]), 3.5);
    assert_eq!(scalar_value("mod(7, 3)", &[]), 1.0);
    assert_eq!(scalar_value("max(1, 5, 3)", &[]), 5.0);
    assert_eq!(scalar_value("min(4, 2)", &[]), 2.0);
}

fn block_1d(n: u64, p: u64, body: &str) -> String {
    format!(
        "subroutine s(k)\n  integer :: k\n  real :: a({n}), b({n})\n!hpf$ processors p({p})\n\
         !hpf$ dynamic a, b\n!hpf$ distribute a(block) onto p\n!hpf$ distribute b(cyclic) onto p\n\
         {body}end subroutine\n"
    )
}

const INIT: &str = "  do i = 1, 16\n    a(i) = i\n    b(i) = 17 - i\n  enddo\n";

#[test]
fn a_uniform_leaf_is_read_before_any_write() {
    // a = a + a(k): the old a(8) everywhere, the eighth element and
    // those after it included.
    let (arrays, _) = run_both(&block_1d(16, 4, &format!("{INIT}  a = a + a(k)\n")), &[("k", 8.0)]);
    assert_eq!(arrays["a"], (1..=16).map(|i| i as f64 + 8.0).collect::<Vec<_>>());
}

#[test]
fn a_vector_subscript_is_walked_per_point() {
    // b = 16, 15, …, 1, so b(b) = 1, 2, …, 16.
    let (arrays, _) = run_both(&block_1d(16, 4, &format!("{INIT}  a = b(b)\n")), &[]);
    assert_eq!(arrays["a"], (1..=16).map(f64::from).collect::<Vec<_>>());
}

#[test]
fn a_per_point_leaf_reading_the_assigned_array_sees_old_values() {
    // a = a(b) reverses a; written in place, the second half would read
    // what the first half just wrote.
    let (arrays, _) = run_both(&block_1d(16, 4, &format!("{INIT}  a = a(b)\n")), &[]);
    assert_eq!(arrays["a"], (1..=16).rev().map(f64::from).collect::<Vec<_>>());
}

#[test]
fn an_operand_never_assigned_reads_as_zeros() {
    // `b` has no copy until this statement instantiates it.
    let (arrays, _) = run_both(&block_1d(16, 4, "  a = b + 1.5\n"), &[]);
    assert_eq!(arrays["a"], vec![1.5; 16]);
    assert_eq!(arrays["b"], vec![0.0; 16]);
}

#[test]
fn an_extent_that_is_not_a_multiple_of_the_tile() {
    // 1250 elements per block: one full tile and 226 more, aligned
    // (a with itself) and per point (b is cyclic).
    let body = "  do i = 1, 2500\n    a(i) = i\n    b(i) = 2 * i\n  enddo\n  a = a * 2.0 + b\n";
    let (arrays, _) = run_both(&block_1d(2500, 2, body), &[]);
    assert_eq!(arrays["a"], (1..=2500).map(|i| 4.0 * i as f64).collect::<Vec<_>>());
}

#[test]
fn more_processors_than_elements_leave_empty_blocks() {
    let body = "  do i = 1, 3\n    b(i) = i\n  enddo\n  a = b + a\n  a = a + 1.0\n";
    let (arrays, _) = run_both(&block_1d(3, 7, body), &[]);
    assert_eq!(arrays["a"], [2.0, 3.0, 4.0]);
}

#[test]
fn a_kernel_in_a_loop_runs_after_its_operand_was_redistributed() {
    // The same statement executes under b(cyclic) → misaligned, per
    // point; the loop's directives then make b block like a → aligned
    // slices; and back.
    let body = format!(
        "{INIT}  a = a + b\n  do m = 1, 3\n!hpf$ redistribute b(block) onto p\n    a = a + b * m\n\
         !hpf$ redistribute b(cyclic(2)) onto p\n    b = b + a\n  enddo\n"
    );
    let (arrays, _) = run_both(&block_1d(16, 4, &body), &[]);
    // Dense reference, directives ignored.
    let mut a: Vec<f64> = (1..=16).map(f64::from).collect();
    let mut b: Vec<f64> = (1..=16).rev().map(f64::from).collect();
    for i in 0..16 {
        a[i] += b[i];
    }
    for m in 1..=3 {
        for i in 0..16 {
            a[i] += b[i] * m as f64;
            b[i] += a[i];
        }
    }
    assert_eq!((&arrays["a"], &arrays["b"]), (&a, &b));
}
