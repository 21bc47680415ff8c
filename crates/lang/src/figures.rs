//! The paper's figure programs, transcribed into the front-end subset.
//!
//! Each constant reproduces one example of Coelho's PPoPP'97 paper (the
//! degraded archive scan loses some distribution parameters; where a
//! parameter is unreadable we chose values that preserve the property
//! the figure demonstrates — see `ARCHITECTURE.md`, "Where the paper's
//! figures live"). Extents are kept small (16, grids of 4) so the simulator
//! runs fast in tests; the experiment harness re-generates the same
//! programs at larger sizes via [`scaled`].

/// Fig. 1 — a realignment immediately followed by a redistribution:
/// `A` is remapped twice although a single direct remapping would do.
pub const FIG1_DIRECT: &str = "\
subroutine fig1
  real :: a(16,16), b(16,16)
!hpf$ processors p(4)
!hpf$ dynamic a, b
!hpf$ align with b :: a
!hpf$ distribute b(block, *) onto p
  a = 1.0
!hpf$ realign a(i, j) with b(j, i)
!hpf$ redistribute b(cyclic, *) onto p
  a = a + 1.0
end subroutine
";

/// Fig. 2 — both `C` remappings are useless: the realignment is undone
/// by the following redistribution (transpose ∘ transposed-distribution
/// = identity), and `C` is not referenced in between.
pub const FIG2_USELESS: &str = "\
subroutine fig2
  real :: b(16,16), c(16,16)
!hpf$ processors p(4)
!hpf$ dynamic b, c
!hpf$ align with b :: c
!hpf$ distribute b(block, *) onto p
  c = 1.0
!hpf$ realign c(i, j) with b(j, i)
!hpf$ redistribute b(*, block) onto p
  c = c + 1.0
end subroutine
";

/// Fig. 3 — redistributing template `T` remaps all five aligned arrays
/// although only `A` and `D` are used afterwards.
pub const FIG3_ALIGNED: &str = "\
subroutine fig3
  real :: a(16,16), b(16,16), c(16,16), d(16,16), e(16,16)
!hpf$ processors p(4)
!hpf$ template t(16,16)
!hpf$ dynamic t
!hpf$ align with t :: a, b, c, d, e
!hpf$ distribute t(block, *) onto p
  a = 1.0
  b = 2.0
  c = a + b
  d = c * 2.0
  e = d - a
!hpf$ redistribute t(cyclic, *) onto p
  a = a + 1.0
  d = d + a
end subroutine
";

/// Fig. 4 — useless argument remappings: consecutive calls to `foo`
/// remap `Y` back and forth; between `foo` and `bla` a direct
/// cyclic→cyclic(2) remapping is possible.
pub const FIG4_ARGS: &str = "\
subroutine fig4
  real :: y(16)
!hpf$ processors p(4)
!hpf$ dynamic y
!hpf$ distribute y(block) onto p
  interface
    subroutine foo(x)
      real :: x(16)
      intent(inout) :: x
!hpf$ distribute x(cyclic) onto p
    end subroutine
    subroutine bla(x)
      real :: x(16)
      intent(in) :: x
!hpf$ distribute x(cyclic(2)) onto p
    end subroutine
  end interface
  y = 1.0
  call foo(y)
  call foo(y)
  call bla(y)
  y = y + 1.0
end subroutine
";

/// Fig. 5 — forbidden: `A` is referenced while its mapping depends on
/// whether the `REALIGN` executed (restriction 1 → compile-time error).
pub const FIG5_AMBIGUOUS: &str = "\
subroutine fig5
  real :: a(16,16)
!hpf$ processors p(4)
!hpf$ processors q(2,2)
!hpf$ template t1(16,16)
!hpf$ template t2(16,16)
!hpf$ dynamic a, t2
!hpf$ align with t1 :: a
!hpf$ distribute t1(block, *) onto p
!hpf$ distribute t2(cyclic, *) onto p
  a = 1.0
  if (a(1,1) > 0.0) then
!hpf$ realign with t2 :: a
    a = 2.0
  endif
!hpf$ redistribute t2(block, block) onto q
  a = a + 1.0
end subroutine
";

/// Fig. 6 — accepted: the mapping *state* is ambiguous after the `IF`,
/// but `A` is not referenced until the final redistribution resolves it.
/// The runtime status descriptor picks the right copy source (Fig. 20).
pub const FIG6_OK: &str = "\
subroutine fig6
  real :: a(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ distribute a(block) onto p
  a = 1.0
  x = a(1)
  if (x > 0.0) then
!hpf$ redistribute a(cyclic)
    x = a(2)
  endif
!hpf$ redistribute a(cyclic(2))
  x = a(3)
end subroutine
";

/// Fig. 8 — a single call whose dummy prescribes a different mapping:
/// the implicit remapping is translated into explicit copies in the
/// caller.
pub const FIG8_CALL: &str = "\
subroutine fig8
  real :: b(16)
!hpf$ processors p(4)
!hpf$ dynamic b
!hpf$ distribute b(cyclic) onto p
  interface
    subroutine callee(a)
      real :: a(16)
      intent(in) :: a
!hpf$ distribute a(block) onto p
    end subroutine
  end interface
  b = 1.0
  call callee(b)
  b = b + 1.0
end subroutine
";

/// Fig. 10 — the paper's running example (`remap`), an ADI-like routine
/// with four remapping statements: one in each `IF` branch, two in the
/// sequential loop. With the added call/entry/exit vertices its
/// remapping graph has seven vertices (Fig. 11); after optimization `A`
/// is used with versions {0,1,2,3}, `B` only with {0,1}, `C` only with
/// {2,3} (Fig. 12).
pub const FIG10_ADI: &str = "\
subroutine remap(a, m, t)
  integer :: m, t
  real :: a(16,16), b(16,16), c(16,16)
  intent(inout) :: a
!hpf$ processors p(4)
!hpf$ processors q(2,2)
!hpf$ dynamic a
!hpf$ align with a :: b, c
!hpf$ distribute a(block, *) onto p
  b = a + 1.0
  if (b(1,1) > 0.0) then
!hpf$ redistribute a(cyclic, *) onto p
    a = a + b
  else
!hpf$ redistribute a(block, block) onto q
    x = a(3,3)
  endif
  do i = m, t
!hpf$ redistribute a(block, block) onto q
    c = a + 2.0
!hpf$ redistribute a(*, block) onto p
    a = a + c
  enddo
end subroutine
";

/// Fig. 13 — flow-dependent live copy: both branches remap `A` to the
/// same cyclic mapping, but only the THEN branch writes it; on the ELSE
/// path the original block copy `A_0` is still live when the final
/// redistribution wants it back, so no communication is needed there.
pub const FIG13_LIVE: &str = "\
subroutine fig13
  real :: a(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ distribute a(block) onto p
  x = a(1)
  if (x > 0.0) then
!hpf$ redistribute a(cyclic)
    a = 2.0
  else
!hpf$ redistribute a(cyclic)
    x = a(3)
  endif
!hpf$ redistribute a(block)
  x = a(5)
end subroutine
";

/// Fig. 15 — a call reached with an ambiguous mapping: legal, because
/// the inserted explicit remapping resolves the ambiguity before the
/// call; the reaching status is saved and restored afterwards (Fig. 18).
pub const FIG15_CALL_STATUS: &str = "\
subroutine fig15
  real :: a(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ distribute a(cyclic) onto p
  interface
    subroutine foo(x)
      real :: x(16)
      intent(inout) :: x
!hpf$ distribute x(block) onto p
    end subroutine
  end interface
  a = 1.0
  if (a(1) > 0.0) then
!hpf$ redistribute a(cyclic(2))
    a = 2.0
  endif
  call foo(a)
end subroutine
";

/// Fig. 16 — loop-invariant remappings: each iteration remaps
/// block→cyclic→block; the block-restore can be moved after the loop
/// (Fig. 17), after which the in-loop remapping is a runtime no-op from
/// the second iteration on.
pub const FIG16_LOOP: &str = "\
subroutine fig16(t)
  integer :: t
  real :: a(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ distribute a(block) onto p
  a = 1.0
  do i = 1, t
!hpf$ redistribute a(cyclic)
    a = a + 1.0
!hpf$ redistribute a(block)
  enddo
  x = a(1)
end subroutine
";

/// Fig. 21 — several leaving mappings at one vertex: after the
/// conditional realignment, the redistribution leaves `A` in one of two
/// different placements. The paper assumes this away (App. A); we
/// reject it with a dedicated diagnostic.
pub const FIG21_MULTI_LEAVING: &str = "\
subroutine fig21
  real :: a(16,16)
!hpf$ processors p(4)
!hpf$ processors q(2,2)
!hpf$ template t(16,16)
!hpf$ dynamic a, t
!hpf$ align a(i, j) with t(i, j)
!hpf$ distribute t(block, *) onto p
  a = 1.0
  if (a(1,1) > 0.0) then
!hpf$ realign a(i, j) with t(j, i)
  endif
!hpf$ redistribute t(block, block) onto q
  a = 2.0
end subroutine
";

/// Sec. 4.3 — the `KILL` directive: `B`'s values are asserted dead, so
/// the redistribution that remaps it moves no data for `B` — even
/// though `B` is referenced afterwards in a way too complex for the
/// conservative use analysis (element-wise redefinition reads as `W`,
/// not `D`).
pub const KILL_EXAMPLE: &str = "\
subroutine killex
  real :: a(16), b(16)
!hpf$ processors p(4)
!hpf$ dynamic a
!hpf$ align with a :: b
!hpf$ distribute a(block) onto p
  a = 1.0
  b = 2.0
  x = a(1) + b(1)
!hpf$ kill b
!hpf$ redistribute a(cyclic)
  a = a + 1.0
  do i = 1, 16
    b(i) = 3.0
  enddo
  x = b(2)
end subroutine
";

/// An ADI-style kernel for the end-to-end experiments (E20): row sweeps
/// under a row-block mapping, column sweeps under a column-block
/// mapping, remapping between the two each iteration.
pub const ADI_KERNEL: &str = "\
subroutine adi(t)
  integer :: t
  real :: u(16,16)
!hpf$ processors p(4)
!hpf$ dynamic u
!hpf$ distribute u(block, *) onto p
  u = 1.0
  do k = 1, t
    do j = 2, 16
      u(1, j) = u(1, j) + u(1, j - 1)
    enddo
!hpf$ redistribute u(*, block) onto p
    do i = 2, 16
      u(i, 1) = u(i, 1) + u(i - 1, 1)
    enddo
!hpf$ redistribute u(block, *) onto p
  enddo
  x = u(8, 8)
end subroutine
";

/// A 2-D-FFT-style kernel (E21): butterflies along rows, transpose by
/// redistribution, butterflies along the other axis, transpose back.
/// The back-transpose only reads, so the original copy is still live.
pub const FFT_KERNEL: &str = "\
subroutine fft2d
  real :: f(16,16)
!hpf$ processors p(4)
!hpf$ dynamic f
!hpf$ distribute f(block, *) onto p
  f = 1.0
!hpf$ redistribute f(*, block) onto p
  x = f(1, 1)
!hpf$ redistribute f(block, *) onto p
  x = f(2, 2)
end subroutine
";

/// An LU-style kernel (E22): the factorization prefers CYCLIC for load
/// balance, the triangular solves prefer BLOCK.
pub const LU_KERNEL: &str = "\
subroutine lu
  real :: m(16,16)
!hpf$ processors p(4)
!hpf$ dynamic m
!hpf$ distribute m(block, *) onto p
  m = 4.0
!hpf$ redistribute m(cyclic, *) onto p
  do k = 1, 15
    m(k, k) = m(k, k) + 1.0
  enddo
!hpf$ redistribute m(block, *) onto p
  x = m(1, 1)
end subroutine
";

/// All named figures, for data-driven tests.
pub fn all() -> Vec<(&'static str, &'static str)> {
    vec![
        ("fig1", FIG1_DIRECT),
        ("fig2", FIG2_USELESS),
        ("fig3", FIG3_ALIGNED),
        ("fig4", FIG4_ARGS),
        ("fig6", FIG6_OK),
        ("fig8", FIG8_CALL),
        ("fig10", FIG10_ADI),
        ("fig13", FIG13_LIVE),
        ("fig15", FIG15_CALL_STATUS),
        ("fig16", FIG16_LOOP),
        ("kill", KILL_EXAMPLE),
        ("adi", ADI_KERNEL),
        ("fft", FFT_KERNEL),
        ("lu", LU_KERNEL),
    ]
}

/// Regenerate a figure-style program at size `n` on `p` processors —
/// used by the scaling experiments. Only 1-D kernels support scaling.
pub fn scaled(which: &str, n: u64, p: u64) -> Option<String> {
    match which {
        "fig4" => Some(format!(
            "subroutine fig4\n  real :: y({n})\n!hpf$ processors p({p})\n!hpf$ dynamic y\n\
             !hpf$ distribute y(block) onto p\n  interface\n    subroutine foo(x)\n      \
             real :: x({n})\n      intent(inout) :: x\n!hpf$ distribute x(cyclic) onto p\n    \
             end subroutine\n    subroutine bla(x)\n      real :: x({n})\n      \
             intent(in) :: x\n!hpf$ distribute x(cyclic(2)) onto p\n    end subroutine\n  \
             end interface\n  y = 1.0\n  call foo(y)\n  call foo(y)\n  call bla(y)\n  \
             y = y + 1.0\nend subroutine\n"
        )),
        "fig16" => Some(format!(
            "subroutine fig16(t)\n  integer :: t\n  real :: a({n})\n!hpf$ processors p({p})\n\
             !hpf$ dynamic a\n!hpf$ distribute a(block) onto p\n  a = 1.0\n  do i = 1, t\n\
             !hpf$ redistribute a(cyclic)\n    a = a + 1.0\n!hpf$ redistribute a(block)\n  \
             enddo\n  x = a(1)\nend subroutine\n"
        )),
        "fft" => Some(format!(
            "subroutine fft2d\n  real :: f({n},{n})\n!hpf$ processors p({p})\n!hpf$ dynamic f\n\
             !hpf$ distribute f(block, *) onto p\n  f = 1.0\n\
             !hpf$ redistribute f(*, block) onto p\n  x = f(1, 1)\n\
             !hpf$ redistribute f(block, *) onto p\n  x = f(2, 2)\nend subroutine\n"
        )),
        "adi" => Some(format!(
            "subroutine adi(t)\n  integer :: t\n  real :: u({n},{n})\n!hpf$ processors p({p})\n\
             !hpf$ dynamic u\n!hpf$ distribute u(block, *) onto p\n  u = 1.0\n  do k = 1, t\n    \
             do j = 2, {n}\n      u(1, j) = u(1, j) + u(1, j - 1)\n    enddo\n\
             !hpf$ redistribute u(*, block) onto p\n    do i = 2, {n}\n      \
             u(i, 1) = u(i, 1) + u(i - 1, 1)\n    enddo\n!hpf$ redistribute u(block, *) onto p\n  \
             enddo\n  x = u(2, 2)\nend subroutine\n"
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn all_figures_parse() {
        for (name, src) in all() {
            parse_program(src).unwrap_or_else(|e| panic!("figure {name} failed to parse: {e:?}"));
        }
        parse_program(FIG5_AMBIGUOUS).expect("fig5 parses (it fails later, in rgraph)");
        parse_program(FIG21_MULTI_LEAVING).expect("fig21 parses (it fails later, in rgraph)");
    }

    #[test]
    fn scaled_programs_parse() {
        for which in ["fig4", "fig16", "fft", "adi"] {
            let src = scaled(which, 64, 8).unwrap();
            parse_program(&src).unwrap_or_else(|e| panic!("scaled {which}: {e:?}"));
        }
        assert!(scaled("nope", 8, 2).is_none());
    }
}
