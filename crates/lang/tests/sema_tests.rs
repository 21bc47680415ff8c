//! Semantic-analysis tests: symbol resolution, MappingEnv construction,
//! and the paper's language restrictions as diagnostics.

use hpfc_lang::diag::codes;
use hpfc_lang::figures;
use hpfc_lang::sema::Symbol;
use hpfc_lang::{frontend, Intent};
use hpfc_mapping::{DimFormat, DimSource};

#[test]
fn all_figures_analyze() {
    for (name, src) in figures::all() {
        frontend(src).unwrap_or_else(|e| panic!("figure {name} failed sema: {e:?}"));
    }
    // Figs 5 and 21 are *flow*-level errors: sema accepts them, the
    // remapping-graph construction rejects them.
    frontend(figures::FIG5_AMBIGUOUS).expect("fig5 passes sema");
    frontend(figures::FIG21_MULTI_LEAVING).expect("fig21 passes sema");
}

#[test]
fn fig10_symbols_and_mappings() {
    let m = frontend(figures::FIG10_ADI).unwrap();
    let r = m.main();
    assert_eq!(r.name, "remap");
    assert_eq!(r.ast.params, vec!["a", "m", "t"]);
    // a, b, c arrays; m, t scalars; p, q grids.
    assert!(matches!(r.symbols["a"], Symbol::Array(_)));
    assert!(matches!(r.symbols["b"], Symbol::Array(_)));
    assert!(matches!(r.symbols["m"], Symbol::Scalar(_)));
    assert!(matches!(r.symbols["p"], Symbol::Grid(_)));
    assert_eq!(r.param_intents["a"], Intent::InOut);

    // Initial mapping of A is (BLOCK, *) on p: first grid axis driven by
    // array axis 0, one distributed axis.
    let a = r.array("a").unwrap();
    let nm = r.env.normalize(a, &r.initial[&a]).unwrap();
    assert_eq!(nm.grid_shape.0, vec![4]);
    assert!(matches!(nm.axes[0].source, DimSource::ArrayAxis { dim: 0, .. }));
    // B and C share A's mapping (aligned with A).
    let b = r.array("b").unwrap();
    let nb = r.env.normalize(b, &r.initial[&b]).unwrap();
    assert_eq!(nm, nb);
}

#[test]
fn fig4_interface_signature() {
    let m = frontend(figures::FIG4_ARGS).unwrap();
    let r = m.main();
    let foo = &r.callees["foo"];
    assert_eq!(foo.dummies.len(), 1);
    assert_eq!(foo.dummies[0].intent, Intent::InOut);
    let fm = foo.dummies[0].mapping.as_ref().unwrap();
    assert!(matches!(fm.dist.formats[0], DimFormat::Cyclic(None)));
    let bla = &r.callees["bla"];
    assert_eq!(bla.dummies[0].intent, Intent::In);
    assert!(matches!(bla.dummies[0].mapping.as_ref().unwrap().dist.formats[0],
        DimFormat::Cyclic(Some(2))));
    // The dummy mappings are registered in the *caller* env: normalizing
    // them for the actual array works.
    let y = r.array("y").unwrap();
    let nm = r.env.normalize(y, fm).unwrap();
    assert_eq!(nm.grid_shape.volume(), 4);
}

#[test]
fn inherit_is_rejected() {
    let src = "subroutine s(x)\nreal :: x(8)\n!hpf$ inherit x\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::TRANSCRIPTIVE), "{errs:?}");
}

#[test]
fn inherit_in_interface_is_rejected() {
    let src = "subroutine s\nreal :: b(8)\ninterface\nsubroutine f(x)\nreal :: x(8)\n\
               !hpf$ inherit x\nend subroutine\nend interface\ncall f(b)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::TRANSCRIPTIVE), "{errs:?}");
}

#[test]
fn call_without_interface_is_rejected() {
    let src = "subroutine s\nreal :: b(8)\ncall mystery(b)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::NO_INTERFACE), "{errs:?}");
}

#[test]
fn remap_of_non_dynamic_is_rejected() {
    let src = "subroutine s\nreal :: a(8)\n!hpf$ processors p(2)\n\
               !hpf$ distribute a(block) onto p\n!hpf$ redistribute a(cyclic)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::NOT_DYNAMIC), "{errs:?}");
}

#[test]
fn realign_of_non_dynamic_is_rejected() {
    let src = "subroutine s\nreal :: a(8,8)\n!hpf$ processors p(2)\n!hpf$ template t(8,8)\n\
               !hpf$ align with t :: a\n!hpf$ distribute t(block,*) onto p\n\
               !hpf$ realign a(i,j) with t(j,i)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::NOT_DYNAMIC), "{errs:?}");
}

#[test]
fn arity_mismatch_is_rejected() {
    let src = "subroutine s\nreal :: b(8)\ninterface\nsubroutine f(x, y)\nreal :: x(8)\n\
               end subroutine\nend interface\ncall f(b)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::BAD_CALL), "{errs:?}");
}

#[test]
fn shape_mismatch_argument_is_rejected() {
    let src = "subroutine s\nreal :: b(9)\n!hpf$ processors p(2)\ninterface\n\
               subroutine f(x)\nreal :: x(8)\nintent(in) :: x\n!hpf$ distribute x(block) onto p\n\
               end subroutine\nend interface\ncall f(b)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::BAD_CALL), "{errs:?}");
}

#[test]
fn duplicate_declaration_is_rejected() {
    let src = "subroutine s\nreal :: a(8)\nreal :: a(9)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::DUPLICATE), "{errs:?}");
}

#[test]
fn unknown_redistribute_target_is_rejected() {
    let src = "subroutine s\n!hpf$ processors p(2)\nreal :: a(8)\n\
               !hpf$ dynamic a\n!hpf$ distribute a(block) onto p\n!hpf$ redistribute zz(cyclic)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::UNRESOLVED), "{errs:?}");
}

#[test]
fn block_smaller_than_extent_over_procs_is_rejected() {
    // BLOCK(2) * 2 procs < extent 8 → mapping error at sema time.
    let src = "subroutine s\n!hpf$ processors p(2)\nreal :: a(8)\n\
               !hpf$ distribute a(block(2)) onto p\nx = a(1)\nend";
    let errs = frontend(src).unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::MAPPING), "{errs:?}");
    // Reported at the DISTRIBUTE that set the block, not the header.
    assert_eq!(errs[0].span.line, 4, "{errs:?}");
}

#[test]
fn processor_grids_beyond_1024_ranks_are_rejected() {
    for grid in ["p(1025)", "p(5, 205)", "p(99999999999)", "p(4294967296, 4294967296)"] {
        let src = format!("subroutine s\n!hpf$ processors {grid}\nreal :: a(8)\nend");
        let errs = frontend(&src).unwrap_err();
        assert!(
            errs.iter().any(|e| e.code == codes::BAD_DIRECTIVE && e.message.contains("ranks")),
            "{grid}: {errs:?}"
        );
    }
    let accepted = [("p(1024)", "a(2048)", "block"), ("p(32, 32)", "a(64, 64)", "block, block")];
    for (grid, array, dist) in accepted {
        let src = format!(
            "subroutine s\n!hpf$ processors {grid}\nreal :: {array}\n\
             !hpf$ distribute a({dist}) onto p\nend"
        );
        assert!(frontend(&src).is_ok(), "{grid} is accepted");
    }
}

/// A rejected declaration is one mistake: references to the name it
/// failed to declare add no cascade error.
#[test]
fn a_rejected_declaration_reports_one_error() {
    let cases = [
        (
            "grid",
            "subroutine s\nreal :: a(8)\n!hpf$ processors p(99999999999)\n\
             !hpf$ distribute a(block) onto p\n!hpf$ dynamic a\n\
             !hpf$ redistribute a(cyclic) onto p\na = 1.0\nend",
            "ranks",
        ),
        (
            "template",
            "subroutine s(n)\ninteger :: n\nreal :: a(8)\n!hpf$ template t(n)\n\
             !hpf$ align a(i) with t(i)\n!hpf$ distribute t(block)\n!hpf$ dynamic t\n\
             !hpf$ redistribute t(cyclic)\na = 1.0\nend",
            "TEMPLATE extents",
        ),
        (
            "array",
            "subroutine s(n)\ninteger :: n\nreal :: a(n), b(8)\n!hpf$ distribute a(block)\n\
             !hpf$ align b(i) with a(i)\n!hpf$ dynamic a\n!hpf$ realign b(i) with a(i)\n\
             a = 1.0\na(2) = 2.0\nx = a(1) + b(1)\n!hpf$ kill a\nend",
            "array extents",
        ),
    ];
    for (what, src, message) in cases {
        let errs = frontend(src).unwrap_err();
        assert_eq!(errs.len(), 1, "{what}: {errs:?}");
        assert_eq!(errs[0].code, codes::BAD_DIRECTIVE, "{what}: {errs:?}");
        assert!(errs[0].message.contains(message), "{what}: {errs:?}");
    }
}

#[test]
fn unmapped_array_defaults_to_replicated() {
    let src = "subroutine s\n!hpf$ processors p(4)\nreal :: a(8)\nx = a(1)\nend";
    let m = frontend(src).unwrap();
    let r = m.main();
    let a = r.array("a").unwrap();
    let nm = r.env.normalize(a, &r.initial[&a]).unwrap();
    assert_eq!(nm.owners(&[0]).len(), 4, "replicated over all 4 procs");
}

#[test]
fn affine_alignment_offsets_convert_from_one_based() {
    // ALIGN A(i) WITH T(i+1): 1-based source; element a(1) sits on t(2),
    // i.e. 0-based cell 1.
    let src = "subroutine s\n!hpf$ processors p(2)\n!hpf$ template t(9)\nreal :: a(8)\n\
               !hpf$ align a(i) with t(i+1)\n!hpf$ distribute t(block) onto p\nx = a(1)\nend";
    let m = frontend(src).unwrap();
    let r = m.main();
    let a = r.array("a").unwrap();
    let init = &r.initial[&a];
    match init.align.targets[0] {
        hpfc_mapping::AlignTarget::Axis { array_dim: 0, stride: 1, offset } => {
            assert_eq!(offset, 1)
        }
        other => panic!("bad target {other:?}"),
    }
    // Ownership: t has 9 cells, BLOCK(5) over 2 procs; a(0-based 0..8)
    // occupies cells 1..9, so 0-based elements 0..4 → cells 1..5.
    let nm = r.env.normalize(a, init).unwrap();
    assert_eq!(nm.owners(&[3]), vec![0]); // cell 4 in block 0
    assert_eq!(nm.owners(&[4]), vec![1]); // cell 5 in block 1
}

#[test]
fn dynamic_never_remapped_warns() {
    let src = "subroutine s\n!hpf$ processors p(2)\nreal :: a(8)\n!hpf$ dynamic a\n\
               !hpf$ distribute a(block) onto p\nx = a(1)\nend";
    let m = frontend(src).unwrap();
    assert!(m.warnings.iter().any(|w| w.code == codes::AMBIGUOUS_STATE), "{:?}", m.warnings);
}

#[test]
fn loop_variable_is_implicitly_declared() {
    let src = "subroutine s\nreal :: a(8)\ndo i = 1, 8\na(i) = 0.0\nenddo\nend";
    let m = frontend(src).unwrap();
    assert!(matches!(m.main().symbols["i"], Symbol::Scalar(hpfc_lang::TypeSpec::Integer)));
}

#[test]
fn subscript_count_must_match_the_rank() {
    // A write and a read with two subscripts on a 1-D array, and a read
    // with one on a 2-D array: each is one diagnostic naming the array.
    let src = "subroutine s\nreal :: a(8)\nreal :: b(4,4)\na(1,2) = 3.0\nx = a(2,2)\n\
               y = b(1) + a(3)\nend";
    let errs = frontend(src).unwrap_err();
    let bad: Vec<_> = errs.iter().filter(|e| e.code == codes::BAD_DIRECTIVE).collect();
    assert_eq!(bad.len(), 3, "{errs:?}");
    assert!(bad[0].message.contains("`a` has rank 1") && bad[0].message.contains("2 subscript"));
    assert!(bad[2].message.contains("`b` has rank 2") && bad[2].message.contains("1 subscript"));
    // Whole-array references and full subscripts stay legal.
    frontend("subroutine s\nreal :: a(8)\nreal :: b(4,4)\na = 1.0\nb(2,3) = a(4)\nend")
        .expect("rank-matched references pass sema");
}

#[test]
fn an_intrinsic_called_with_the_wrong_arity_is_rejected() {
    for (call, n) in [("sqrt(1.0, 2.0)", 2), ("mod(5)", 1), ("abs(1, 2, 3)", 3)] {
        let errs = frontend(&format!("subroutine s\nx = {call}\nend")).unwrap_err();
        assert_eq!(errs.len(), 1, "{call}: {errs:?}");
        assert_eq!(errs[0].code, codes::BAD_CALL, "{call}: {errs:?}");
        assert!(errs[0].message.contains(&format!("cannot take {n} argument")), "{errs:?}");
    }
    // Every arity the table allows passes.
    frontend("subroutine s\nx = sqrt(4.0) + mod(5, 3) + min(1) + max(1, 2, 3)\nend")
        .expect("well-formed intrinsic calls pass sema");
}

#[test]
fn a_subscripted_name_that_is_neither_array_nor_intrinsic_is_rejected() {
    for stmt in ["x = foo(3)", "k = 1\ny = k(2)", "foo(3) = 1.0", "y = 1 + g(p(1))"] {
        let errs = frontend(&format!("subroutine s\n{stmt}\nend")).unwrap_err();
        assert!(errs.iter().all(|e| e.code == codes::UNRESOLVED), "{stmt}: {errs:?}");
        assert!(!errs.is_empty(), "{stmt}");
    }
    // An array named like an intrinsic is an array.
    frontend("subroutine s\nreal :: max(4)\nx = max(2)\nend").expect("arrays come first");
}

#[test]
fn an_array_of_more_than_seven_dimensions_is_rejected() {
    let errs = frontend("subroutine s\nreal :: a(2,2,2,2,2,2,2,2)\nend").unwrap_err();
    assert!(errs.iter().any(|e| e.code == codes::BAD_DIRECTIVE && e.message.contains("rank 8")));
    frontend("subroutine s\nreal :: a(2,2,2,2,2,2,2)\na = 1.0\nend").expect("rank 7 is allowed");
}

/// An alignment that leaves its template is reported at the ALIGN, not
/// at the routine header.
#[test]
fn an_alignment_beyond_its_template_is_reported_at_the_align() {
    let src = "subroutine s\nreal :: a(8)\n!hpf$ processors p(2)\n!hpf$ template t(4)\n\
               !hpf$ align a(i) with t(i)\n!hpf$ distribute t(block) onto p\na = 1.0\nend";
    let errs = frontend(src).unwrap_err();
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].code, codes::MAPPING, "{errs:?}");
    assert_eq!(errs[0].span.line, 5, "{errs:?}");
}

/// A zero extent — of a grid, an array or a template — or a zero
/// BLOCK/CYCLIC size is one mistake, reported once, at its own line.
#[test]
fn zero_grid_extents_and_block_sizes_are_rejected_at_their_line() {
    let cases = [
        (
            "grid",
            "subroutine s\nreal :: a(8)\n!hpf$ processors p(0)\n\
             !hpf$ distribute a(block) onto p\na = 1.0\nend",
            3,
            "zero",
        ),
        (
            "grid axis",
            "subroutine s\nreal :: a(8, 8)\n!hpf$ processors p(2, 0)\n\
             !hpf$ distribute a(block, block) onto p\na = 1.0\nend",
            3,
            "zero",
        ),
        (
            "array",
            "subroutine s\nreal :: a(0)\n!hpf$ processors p(4)\n\
             !hpf$ distribute a(block) onto p\na = 1.0\nend",
            2,
            "zero",
        ),
        (
            "template",
            "subroutine s\nreal :: a(8)\n!hpf$ processors p(4)\n!hpf$ template t(0)\n\
             !hpf$ align a(i) with t(i)\n!hpf$ distribute t(block) onto p\na = 1.0\nend",
            4,
            "zero",
        ),
        (
            "block",
            "subroutine s\nreal :: a(8)\n!hpf$ processors p(2)\n\
             !hpf$ distribute a(block(0)) onto p\na = 1.0\nend",
            4,
            "BLOCK size must be positive",
        ),
        (
            "redistribute",
            "subroutine s\nreal :: a(8)\n!hpf$ processors p(2)\n!hpf$ dynamic a\n\
             !hpf$ distribute a(block) onto p\na = 1.0\n\
             !hpf$ redistribute a(cyclic(0)) onto p\nx = a(1)\nend",
            7,
            "CYCLIC size must be positive",
        ),
    ];
    for (what, src, line, message) in cases {
        let errs = frontend(src).unwrap_err();
        assert_eq!(errs.len(), 1, "{what}: {errs:?}");
        assert_eq!(errs[0].code, codes::BAD_DIRECTIVE, "{what}: {errs:?}");
        assert_eq!(errs[0].span.line, line, "{what}: {errs:?}");
        assert!(errs[0].message.contains(message), "{what}: {errs:?}");
    }
}
