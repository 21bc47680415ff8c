//! The `hpfcc` command line: a mistyped option, a malformed `--scalar`
//! or a second input is rejected with the usage line and exit status 2
//! instead of being silently ignored, a well-formed invocation still
//! compiles and prints, and a program that fails at run time exits 1
//! with the error instead of panicking.

use std::process::{Command, Output};

fn hpfcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpfcc"))
        .args(args)
        .output()
        .expect("hpfcc runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = hpfcc(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: hpfcc"),
        "{args:?} prints the usage line: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "{args:?} compiles nothing: {stdout}");
}

#[test]
fn an_unknown_option_exits_2() {
    assert_usage_error(&["--emitt", "fig2"]);
    assert_usage_error(&["fig2", "--emitt"]);
}

#[test]
fn scalar_without_k_eq_v_exits_2() {
    assert_usage_error(&["--scalar", "t", "fig10"]);
    assert_usage_error(&["fig10", "--scalar"]);
}

#[test]
fn a_second_input_exits_2() {
    assert_usage_error(&["fig2", "fig10"]);
}

#[test]
fn emit_prints_the_program() {
    let out = hpfcc(&["--emit", "fig2"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("routine `fig2`"), "{stdout}");
    assert!(
        stdout.contains("! static program for `fig2`"),
        "--emit printed the program: {stdout}"
    );
}

#[test]
fn an_out_of_bounds_subscript_exits_1() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("oob_subscript.f");
    std::fs::write(
        &path,
        "subroutine s\nreal :: a(8)\n!hpf$ processors p(4)\n\
         !hpf$ distribute a(block) onto p\na = 1.0\na(20) = 1.0\nend\n",
    )
    .expect("writes the program");
    let out = hpfcc(&["--run", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a typed error, not a panic: {stderr}");
    assert!(stderr.contains("`a` (rank 1): subscript 1 is 20"), "{stderr}");
}

#[test]
fn a_bad_intrinsic_call_exits_1_with_the_diagnostic() {
    for (name, stmt, code) in [
        ("arity_sqrt", "x = sqrt(1.0, 2.0)", "E022"),
        ("arity_mod", "x = mod(5)", "E022"),
        ("unknown_call", "x = foo(3)", "E010"),
    ] {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.f"));
        std::fs::write(&path, format!("subroutine s\n{stmt}\nend\n")).expect("writes the program");
        let out = hpfcc(&["--run", path.to_str().expect("utf-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stmt}: a diagnostic, not a panic: {stderr}");
        assert!(stderr.contains(code), "{stmt}: {stderr}");
    }
}

#[test]
fn an_oversized_processor_grid_exits_1_with_the_diagnostic() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("huge_grid.f");
    std::fs::write(
        &path,
        "subroutine s\nreal :: a(8)\n!hpf$ processors p(99999999999)\n\
         !hpf$ distribute a(block) onto p\na = 1.0\nend\n",
    )
    .expect("writes the program");
    // Under a 1 GiB address-space limit: were the grid accepted, the
    // machine's per-rank state would abort the allocator, not exhaust
    // the host.
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 1048576 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_hpfcc"))
        .args(["--run", path.to_str().expect("utf-8 path")])
        .output()
        .expect("hpfcc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a diagnostic, not an abort: {stderr}");
    assert!(stderr.contains("E012") && stderr.contains("at most 1024"), "{stderr}");
    // One mistake, one diagnostic: the directive naming the rejected
    // grid adds no "unknown processors grid" line.
    assert_eq!(stderr.lines().count(), 1, "exactly one diagnostic line: {stderr}");
}
