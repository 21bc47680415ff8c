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
