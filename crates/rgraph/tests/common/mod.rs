//! Shared by `graph_fingerprint.rs` and `build_alloc.rs`: a fixed
//! generator and the benchmark's compile-bound routine shape.

/// Knuth's MMIX LCG; the high bits are the output.
pub struct Lcg(pub u64);

impl Lcg {
    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// The `synth_compile` shape of `benchmark/src/workloads.rs`:
/// `n_remaps` redistributions of one template alternating cyclic/block,
/// `n_arrays` aligned arrays of extent 64, and between consecutive
/// directives one partial write per array, in shuffled order.
pub fn synth(n_remaps: u64, n_arrays: u64, rng: &mut Lcg) -> String {
    let names: Vec<String> = (0..n_arrays).map(|i| format!("a{i}")).collect();
    let decl: Vec<String> = names.iter().map(|a| format!("{a}(64)")).collect();
    let mut s = format!(
        "subroutine synth\n  real :: {}\n!hpf$ processors p(4)\n!hpf$ template t(64)\n\
         !hpf$ dynamic t\n!hpf$ align with t :: {}\n!hpf$ distribute t(block) onto p\n",
        decl.join(", "),
        names.join(", ")
    );
    let mut order: Vec<usize> = (0..n_arrays as usize).collect();
    for r in 0..n_remaps {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &a in &order {
            let (i, j) = (1 + rng.below(64), 1 + rng.below(64));
            s.push_str(&format!("  {n}({i}) = {n}({j}) + 0.5\n", n = names[a]));
        }
        let fmt = if r % 2 == 0 { "cyclic" } else { "block" };
        s.push_str(&format!("!hpf$ redistribute t({fmt}) onto p\n"));
    }
    s.push_str(&format!(
        "  x = a0({})\nend subroutine\n",
        1 + rng.below(64)
    ));
    s
}
