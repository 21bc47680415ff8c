//! Semantic analysis: name resolution, directive checking, and
//! construction of the [`hpfc_mapping::MappingEnv`].
//!
//! This is where the paper's *language restrictions* (Sec. 2.1) become
//! diagnostics:
//! * restriction 2 — every `CALL` must see an explicit interface
//!   describing the dummies' mappings and intents ([`codes::NO_INTERFACE`]);
//! * restriction 3 — `INHERIT` (transcriptive mappings) is rejected
//!   ([`codes::TRANSCRIPTIVE`]);
//! * remapping a non-`DYNAMIC` object is rejected
//!   ([`codes::NOT_DYNAMIC`]).
//!
//! Restriction 1 (no reference with an ambiguous mapping) is
//! flow-sensitive and therefore checked later, during remapping-graph
//! construction (crate `hpfc-rgraph`).

use std::collections::{BTreeMap, BTreeSet};

use hpfc_mapping::{
    AlignTarget, Alignment, ArrayId, DimFormat, Distribution, Extents, GridId, Mapping,
    MappingEnv, TemplateId,
};

use crate::ast::*;
use crate::diag::{codes, Diagnostic};
use crate::span::Span;

/// A fully analyzed compilation unit.
#[derive(Debug, Clone)]
pub struct Module {
    /// Analyzed routines, in source order. The first is the unit the
    /// compiler pipeline operates on.
    pub routines: Vec<RoutineUnit>,
    /// Non-fatal diagnostics.
    pub warnings: Vec<Diagnostic>,
}

impl Module {
    /// The main routine (first in the file).
    pub fn main(&self) -> &RoutineUnit {
        &self.routines[0]
    }

    /// Look a routine up by name.
    pub fn routine(&self, name: &str) -> Option<&RoutineUnit> {
        self.routines.iter().find(|r| r.name == name)
    }
}

/// What a name refers to inside a routine.
#[derive(Debug, Clone, PartialEq)]
pub enum Symbol {
    /// A distributed (or replicated) array.
    Array(ArrayId),
    /// A scalar variable (replicated on every processor).
    Scalar(TypeSpec),
    /// A processor grid.
    Grid(GridId),
    /// A template.
    Template(TemplateId),
}

/// One analyzed routine.
#[derive(Debug, Clone)]
pub struct RoutineUnit {
    /// Routine name (lower-cased).
    pub name: String,
    /// The original AST.
    pub ast: Routine,
    /// Mapping registry (grids, templates, arrays + implicit templates;
    /// also the callee-interface templates, registered here so callee
    /// argument mappings can be interned as caller versions).
    pub env: MappingEnv,
    /// Name → symbol.
    pub symbols: BTreeMap<String, Symbol>,
    /// Initial (entry) mapping of every array. Unmapped arrays get the
    /// all-collapsed (replicated) mapping over the default grid.
    pub initial: BTreeMap<ArrayId, Mapping>,
    /// Initial distribution of every template that has one.
    pub template_dist: BTreeMap<TemplateId, Distribution>,
    /// Names declared `!HPF$ DYNAMIC` (arrays and templates).
    pub dynamic: BTreeSet<String>,
    /// Intent of each dummy argument (default `INOUT`).
    pub param_intents: BTreeMap<String, Intent>,
    /// Callee signatures from explicit interfaces, by name.
    pub callees: BTreeMap<String, CalleeSig>,
    /// The grid used for replicated defaults.
    pub default_grid: GridId,
}

/// An explicit-interface description of a callee (paper Fig. 8: the
/// caller needs dummy mappings and intents to translate the implicit
/// argument remapping into explicit local ones).
#[derive(Debug, Clone)]
pub struct CalleeSig {
    /// Callee name.
    pub name: String,
    /// Dummy arguments in positional order.
    pub dummies: Vec<DummyInfo>,
}

/// One dummy argument of a callee.
#[derive(Debug, Clone)]
pub struct DummyInfo {
    /// Dummy name inside the interface.
    pub name: String,
    /// Shape (`None` for scalars).
    pub extents: Option<Extents>,
    /// Declared intent (default `INOUT`, the conservative choice —
    /// paper Fig. 22).
    pub intent: Intent,
    /// The mapping the callee prescribes for this dummy, expressed
    /// against templates/grids registered in the *caller's* env.
    pub mapping: Option<Mapping>,
}

impl RoutineUnit {
    /// Array id of a name, if it is an array.
    pub fn array(&self, name: &str) -> Option<ArrayId> {
        match self.symbols.get(name) {
            Some(Symbol::Array(a)) => Some(*a),
            _ => None,
        }
    }

    /// Whether `name` may be remapped (declared `DYNAMIC`).
    pub fn is_dynamic(&self, name: &str) -> bool {
        self.dynamic.contains(name)
    }

    /// All array ids in declaration order.
    pub fn array_ids(&self) -> Vec<ArrayId> {
        self.env.arrays().iter().map(|a| a.id).collect()
    }
}

/// Run semantic analysis over a parsed program.
pub fn analyze(program: &Program) -> Result<Module, Vec<Diagnostic>> {
    let mut errs = Vec::new();
    let mut warnings = Vec::new();
    let mut routines = Vec::new();
    for r in &program.routines {
        match analyze_routine(r, &mut warnings) {
            Ok(u) => routines.push(u),
            Err(mut e) => errs.append(&mut e),
        }
    }
    if errs.is_empty() {
        Ok(Module { routines, warnings })
    } else {
        Err(errs)
    }
}

struct Analyzer {
    env: MappingEnv,
    symbols: BTreeMap<String, Symbol>,
    template_dist: BTreeMap<TemplateId, Distribution>,
    /// Static alignment of each array (defaults to identity on its
    /// implicit template).
    align: BTreeMap<ArrayId, Alignment>,
    dynamic: BTreeSet<String>,
    errs: Vec<Diagnostic>,
    default_grid: Option<GridId>,
}

fn analyze_routine(
    ast: &Routine,
    warnings: &mut Vec<Diagnostic>,
) -> Result<RoutineUnit, Vec<Diagnostic>> {
    let mut a = Analyzer {
        env: MappingEnv::new(),
        symbols: BTreeMap::new(),
        template_dist: BTreeMap::new(),
        align: BTreeMap::new(),
        dynamic: BTreeSet::new(),
        errs: Vec::new(),
    default_grid: None,
    };

    // Pass 1: grids and templates (so later directives can resolve them).
    for d in &ast.directives {
        match d {
            Directive::Processors { name, dims, span } => a.declare_grid(name, dims, *span),
            Directive::Template { name, dims, span } => {
                a.declare_template(name, dims, *span);
            }
            _ => {}
        }
    }
    // A default grid always exists (single processor) so unmapped
    // arrays normalize to a well-formed replicated mapping.
    let default_grid = match a.env.grids().first() {
        Some(g) => g.id,
        None => a.env.add_grid("__p_default", &[1]),
    };
    a.default_grid = Some(default_grid);

    // Pass 2: array declarations.
    for d in &ast.decls {
        if let Decl::Type { ty, entities, span } = d {
            for e in entities {
                a.declare_entity(*ty, e, *span);
            }
        }
    }
    // Dummy parameters without a type declaration default to scalars
    // (implicit typing: i..n integer, otherwise real).
    for p in &ast.params {
        if !a.symbols.contains_key(p) {
            a.symbols.insert(p.clone(), Symbol::Scalar(implicit_type(p)));
        }
    }

    // Pass 3: static mapping directives.
    for d in &ast.directives {
        match d {
            Directive::Dynamic { names, span } => {
                for n in names {
                    if !a.symbols.contains_key(n) {
                        a.err(codes::UNRESOLVED, *span, format!("unknown name `{n}` in DYNAMIC"));
                    }
                    a.dynamic.insert(n.clone());
                }
            }
            Directive::Align { spec, span } => a.apply_align(spec, *span),
            Directive::Distribute { target, formats, onto, span } => {
                a.apply_distribute(target, formats, onto.as_deref(), *span)
            }
            Directive::Inherit { span, .. } => {
                a.err(
                    codes::TRANSCRIPTIVE,
                    *span,
                    "INHERIT (transcriptive mapping) is forbidden: the compilation scheme \
                     requires statically known argument mappings (paper restriction 3)",
                );
            }
            Directive::Realign { span, .. } | Directive::Redistribute { span, .. } => {
                // The parser routes executable directives into the body;
                // seeing one here is a parser invariant violation.
                a.err(codes::BAD_DIRECTIVE, *span, "remapping directive in specification part");
            }
            _ => {}
        }
    }

    // Pass 4: interfaces.
    let mut callees = BTreeMap::new();
    for itf in &ast.interfaces {
        let sig = a.analyze_interface(itf);
        callees.insert(sig.name.clone(), sig);
    }

    // Pass 5: walk the body — resolve references, check executable
    // directives, auto-declare loop scalars.
    let dynamic_snapshot = a.dynamic.clone();
    a.walk_body(&ast.body, &callees);
    a.dynamic = dynamic_snapshot; // walk only reads it

    // Intents of own dummies.
    let mut param_intents = BTreeMap::new();
    for d in &ast.decls {
        if let Decl::Intent { intent, names, span } = d {
            for n in names {
                if !ast.params.contains(n) {
                    a.err(codes::BAD_DIRECTIVE, *span, format!("INTENT on non-dummy `{n}`"));
                }
                param_intents.insert(n.clone(), *intent);
            }
        }
    }

    // Warn (once) about arrays that are declared DYNAMIC but never
    // remapped — harmless, but worth surfacing.
    for n in &a.dynamic {
        if let Some(Symbol::Array(_)) = a.symbols.get(n) {
            let remapped = body_remaps_name(&ast.body, n, &a);
            if !remapped {
                warnings.push(Diagnostic::warning(
                    codes::AMBIGUOUS_STATE,
                    ast.span,
                    format!("`{n}` is DYNAMIC but never remapped"),
                ));
            }
        }
    }

    if !a.errs.is_empty() {
        return Err(a.errs);
    }

    // Final initial mappings.
    let mut initial = BTreeMap::new();
    for info in a.env.arrays().to_vec() {
        let align = a
            .align
            .get(&info.id)
            .cloned()
            .unwrap_or_else(|| Alignment::identity(a.env.implicit_template(info.id), info.extents.rank()));
        let t = align.template;
        let dist = a.template_dist.get(&t).cloned().unwrap_or_else(|| {
            // Undistributed template: replicated (all-collapsed) over
            // the default grid.
            Distribution::new(
                default_grid,
                vec![DimFormat::Collapsed; a.env.template(t).shape.rank()],
            )
        });
        let m = Mapping { align, dist };
        // Validate now so later phases can unwrap.
        if let Err(e) = a.env.normalize(info.id, &m) {
            a.errs.push(Diagnostic::error(
                codes::MAPPING,
                ast.span,
                format!("initial mapping of `{}` is invalid: {e}", info.name),
            ));
        }
        initial.insert(info.id, m);
    }
    if !a.errs.is_empty() {
        return Err(a.errs);
    }

    let mut env = a.env;
    for (t, d) in &a.template_dist {
        env.set_initial_distribution(*t, d.clone());
    }
    for (id, m) in &initial {
        env.set_initial(*id, m.clone());
    }
    for n in &a.dynamic {
        if let Some(Symbol::Array(id)) = a.symbols.get(n) {
            env.set_dynamic(*id, true);
        }
    }

    Ok(RoutineUnit {
        name: ast.name.clone(),
        ast: ast.clone(),
        env,
        symbols: a.symbols,
        initial,
        template_dist: a.template_dist,
        dynamic: a.dynamic,
        param_intents,
        callees,
        default_grid,
    })
}

/// Fortran implicit typing: names starting with i..n are INTEGER.
fn implicit_type(name: &str) -> TypeSpec {
    match name.chars().next() {
        Some(c) if ('i'..='n').contains(&c) => TypeSpec::Integer,
        _ => TypeSpec::Real,
    }
}

fn body_remaps_name(body: &[Stmt], name: &str, a: &Analyzer) -> bool {
    body.iter().any(|s| match s {
        Stmt::Directive(Directive::Realign { spec, .. }) => match spec {
            AlignSpec::Explicit { array, .. } => array == name,
            AlignSpec::With { arrays, .. } => arrays.iter().any(|x| x == name),
        },
        Stmt::Directive(Directive::Redistribute { target, .. }) => {
            // A redistribution remaps the target and everything aligned
            // with it; the cheap check here only looks at the target.
            target == name || a.aligned_to_target(target, name)
        }
        Stmt::If { then_body, else_body, .. } => {
            body_remaps_name(then_body, name, a) || body_remaps_name(else_body, name, a)
        }
        Stmt::Do { body, .. } => body_remaps_name(body, name, a),
        _ => false,
    })
}

impl Analyzer {
    fn err(&mut self, code: &'static str, span: Span, msg: impl Into<String>) {
        self.errs.push(Diagnostic::error(code, span, msg));
    }

    fn declare_grid(&mut self, name: &str, dims: &[Expr], span: Span) {
        if self.symbols.contains_key(name) {
            self.err(codes::DUPLICATE, span, format!("`{name}` already declared"));
            return;
        }
        let Some(shape) = const_dims(dims) else {
            self.err(codes::BAD_DIRECTIVE, span, "PROCESSORS extents must be constants");
            return;
        };
        let id = self.env.add_grid(name, &shape);
        self.symbols.insert(name.to_string(), Symbol::Grid(id));
    }

    fn declare_template(&mut self, name: &str, dims: &[Expr], span: Span) -> Option<TemplateId> {
        if self.symbols.contains_key(name) {
            self.err(codes::DUPLICATE, span, format!("`{name}` already declared"));
            return None;
        }
        let Some(shape) = const_dims(dims) else {
            self.err(codes::BAD_DIRECTIVE, span, "TEMPLATE extents must be constants");
            return None;
        };
        let id = self.env.add_template(name, &shape);
        self.symbols.insert(name.to_string(), Symbol::Template(id));
        Some(id)
    }

    fn declare_entity(&mut self, ty: TypeSpec, e: &EntityDecl, span: Span) {
        if self.symbols.contains_key(&e.name) {
            self.err(codes::DUPLICATE, span, format!("`{}` already declared", e.name));
            return;
        }
        if e.dims.is_empty() {
            self.symbols.insert(e.name.clone(), Symbol::Scalar(ty));
            return;
        }
        let Some(shape) = const_dims(&e.dims) else {
            self.err(codes::BAD_DIRECTIVE, span, "array extents must be constants");
            return;
        };
        let elem = 8; // REAL and INTEGER both simulate as 8-byte cells.
        let id = self.env.add_array(&e.name, &shape, elem);
        self.symbols.insert(e.name.clone(), Symbol::Array(id));
    }

    /// The template a mapping directive's target denotes: a declared
    /// template, or the implicit template of an array.
    fn target_template(&mut self, name: &str, span: Span) -> Option<TemplateId> {
        match self.symbols.get(name) {
            Some(Symbol::Template(t)) => Some(*t),
            Some(Symbol::Array(a)) => Some(self.env.implicit_template(*a)),
            _ => {
                self.err(codes::UNRESOLVED, span, format!("unknown alignment target `{name}`"));
                None
            }
        }
    }

    /// Whether array `name` is (statically) aligned to the template that
    /// `target` denotes.
    fn aligned_to_target(&self, target: &str, name: &str) -> bool {
        let t = match self.symbols.get(target) {
            Some(Symbol::Template(t)) => *t,
            Some(Symbol::Array(a)) => self.env.implicit_template(*a),
            _ => return false,
        };
        match self.symbols.get(name) {
            Some(Symbol::Array(a)) => self
                .align
                .get(a)
                .map(|al| al.template == t)
                .unwrap_or(self.env.implicit_template(*a) == t),
            _ => false,
        }
    }

    fn apply_align(&mut self, spec: &AlignSpec, span: Span) {
        if let Some(list) = self.build_alignments(spec, span) {
            for (a, al) in list {
                self.align.insert(a, al);
            }
        }
    }

    /// Resolve an ALIGN/REALIGN spec to per-array [`Alignment`]s.
    /// Shared with remapping-graph construction via
    /// [`resolve_align_spec`].
    fn build_alignments(
        &mut self,
        spec: &AlignSpec,
        span: Span,
    ) -> Option<Vec<(ArrayId, Alignment)>> {
        match resolve_align_spec(&self.env, &self.symbols, spec) {
            Ok(v) => Some(v),
            Err(msg) => {
                self.err(codes::BAD_DIRECTIVE, span, msg);
                None
            }
        }
    }

    fn apply_distribute(
        &mut self,
        target: &str,
        formats: &[DistFormatAst],
        onto: Option<&str>,
        span: Span,
    ) {
        let Some(t) = self.target_template(target, span) else { return };
        match resolve_distribution(&self.env, &self.symbols, self.default_grid, t, formats, onto) {
            Ok(d) => {
                self.template_dist.insert(t, d);
            }
            Err(msg) => self.err(codes::BAD_DIRECTIVE, span, msg),
        }
    }

    fn analyze_interface(&mut self, itf: &InterfaceRoutine) -> CalleeSig {
        // Dummy declarations.
        let mut dummy_extents: BTreeMap<String, Option<Extents>> = BTreeMap::new();
        let mut dummy_intent: BTreeMap<String, Intent> = BTreeMap::new();
        for d in &itf.decls {
            match d {
                Decl::Type { entities, .. } => {
                    for e in entities {
                        let ext = if e.dims.is_empty() {
                            None
                        } else {
                            const_dims(&e.dims).map(|s| Extents::new(&s))
                        };
                        dummy_extents.insert(e.name.clone(), ext);
                    }
                }
                Decl::Intent { intent, names, .. } => {
                    for n in names {
                        dummy_intent.insert(n.clone(), *intent);
                    }
                }
            }
        }

        // Mapping directives of the interface: register a template per
        // distributed dummy in the *caller's* env (prefixed to avoid
        // clashes) and record its prescribed mapping.
        let mut dummy_dist: BTreeMap<String, (Vec<DistFormatAst>, Option<String>)> = BTreeMap::new();
        for d in &itf.directives {
            match d {
                Directive::Distribute { target, formats, onto, .. } => {
                    dummy_dist.insert(target.clone(), (formats.clone(), onto.clone()));
                }
                Directive::Inherit { span, .. } => {
                    self.err(
                        codes::TRANSCRIPTIVE,
                        *span,
                        format!(
                            "INHERIT in interface of `{}` is forbidden (paper restriction 3)",
                            itf.name
                        ),
                    );
                }
                other => {
                    // ALIGN between dummies etc. — out of subset scope.
                    self.err(
                        codes::BAD_DIRECTIVE,
                        other.span(),
                        format!(
                            "only DISTRIBUTE directives are supported in interfaces \
                             (routine `{}`)",
                            itf.name
                        ),
                    );
                }
            }
        }

        let mut dummies = Vec::new();
        for p in &itf.params {
            let extents = dummy_extents.get(p).cloned().unwrap_or(None);
            let intent = dummy_intent.get(p).copied().unwrap_or(Intent::InOut);
            let mapping = match (&extents, dummy_dist.get(p)) {
                (Some(ext), Some((formats, onto))) => {
                    // Register the dummy's template in the caller env.
                    let tname = format!("__t_{}_{}", itf.name, p);
                    let shape: Vec<u64> = ext.0.clone();
                    let t = self.env.add_template(&tname, &shape);
                    match resolve_distribution(
                        &self.env,
                        &self.symbols,
                        self.default_grid,
                        t,
                        formats,
                        onto.as_deref(),
                    ) {
                        Ok(d) => {
                            self.template_dist.insert(t, d.clone());
                            Some(Mapping { align: Alignment::identity(t, ext.rank()), dist: d })
                        }
                        Err(msg) => {
                            self.err(codes::BAD_DIRECTIVE, itf.span, msg);
                            None
                        }
                    }
                }
                _ => None,
            };
            dummies.push(DummyInfo { name: p.clone(), extents, intent, mapping });
        }
        CalleeSig { name: itf.name.clone(), dummies }
    }

    fn walk_body(&mut self, body: &[Stmt], callees: &BTreeMap<String, CalleeSig>) {
        for s in body {
            match s {
                Stmt::Assign { lhs, rhs, span } => {
                    let subs = (!lhs.subs.is_empty()).then_some(lhs.subs.len());
                    self.check_ref(&lhs.name, subs, *span);
                    for e in &lhs.subs {
                        self.check_expr(e);
                    }
                    self.check_expr(rhs);
                }
                Stmt::If { cond, then_body, else_body, .. } => {
                    self.check_expr(cond);
                    self.walk_body(then_body, callees);
                    self.walk_body(else_body, callees);
                }
                Stmt::Do { var, lo, hi, step, body, .. } => {
                    if !self.symbols.contains_key(var) {
                        self.symbols.insert(var.clone(), Symbol::Scalar(implicit_type(var)));
                    }
                    self.check_expr(lo);
                    self.check_expr(hi);
                    if let Some(e) = step {
                        self.check_expr(e);
                    }
                    self.walk_body(body, callees);
                }
                Stmt::Call { name, args, span } => {
                    match callees.get(name) {
                        None => self.err(
                            codes::NO_INTERFACE,
                            *span,
                            format!(
                                "call to `{name}` without an explicit interface \
                                 (paper restriction 2: interfaces are mandatory)"
                            ),
                        ),
                        Some(sig) => {
                            if sig.dummies.len() != args.len() {
                                self.err(
                                    codes::BAD_CALL,
                                    *span,
                                    format!(
                                        "`{name}` expects {} argument(s), got {}",
                                        sig.dummies.len(),
                                        args.len()
                                    ),
                                );
                            }
                            for (dummy, actual) in sig.dummies.iter().zip(args) {
                                self.check_arg(name, dummy, actual, *span);
                            }
                        }
                    }
                    for e in args {
                        self.check_expr(e);
                    }
                }
                Stmt::Directive(d) => self.check_exec_directive(d),
                Stmt::Return { .. } => {}
            }
        }
    }

    fn check_arg(&mut self, callee: &str, dummy: &DummyInfo, actual: &Expr, span: Span) {
        if let Some(ext) = &dummy.extents {
            // Distributed dummy: the actual must be a whole-array
            // reference of identical shape (the paper's scheme copies
            // whole arrays at call sites).
            match actual {
                Expr::Var(n, _) => match self.symbols.get(n) {
                    Some(Symbol::Array(a)) => {
                        let have = self.env.array(*a).extents.clone();
                        if &have != ext {
                            self.err(
                                codes::BAD_CALL,
                                span,
                                format!(
                                    "argument `{n}` of `{callee}` has shape {have} \
                                     but dummy `{}` expects {ext}",
                                    dummy.name
                                ),
                            );
                        }
                    }
                    _ => self.err(
                        codes::BAD_CALL,
                        span,
                        format!(
                            "dummy `{}` of `{callee}` is an array; \
                             actual `{n}` is not",
                            dummy.name
                        ),
                    ),
                },
                _ => self.err(
                    codes::BAD_CALL,
                    span,
                    format!(
                        "dummy `{}` of `{callee}` is a mapped array: \
                         the actual must be a whole array name",
                        dummy.name
                    ),
                ),
            }
        }
    }

    fn check_exec_directive(&mut self, d: &Directive) {
        match d {
            Directive::Realign { spec, span } => {
                let arrays: Vec<String> = match spec {
                    AlignSpec::Explicit { array, .. } => vec![array.clone()],
                    AlignSpec::With { arrays, .. } => arrays.clone(),
                };
                for n in &arrays {
                    if !matches!(self.symbols.get(n), Some(Symbol::Array(_))) {
                        self.err(codes::UNRESOLVED, *span, format!("unknown array `{n}`"));
                    } else if !self.dynamic.contains(n) {
                        self.err(
                            codes::NOT_DYNAMIC,
                            *span,
                            format!("`{n}` is REALIGNed but not declared DYNAMIC"),
                        );
                    }
                }
                // Validate the spec shape itself.
                if let Err(msg) = resolve_align_spec(&self.env, &self.symbols, spec) {
                    self.err(codes::BAD_DIRECTIVE, *span, msg);
                }
            }
            Directive::Redistribute { target, formats, onto, span } => {
                let known = matches!(
                    self.symbols.get(target),
                    Some(Symbol::Template(_)) | Some(Symbol::Array(_))
                );
                if !known {
                    self.err(codes::UNRESOLVED, *span, format!("unknown object `{target}`"));
                    return;
                }
                if !self.dynamic.contains(target) {
                    self.err(
                        codes::NOT_DYNAMIC,
                        *span,
                        format!("`{target}` is REDISTRIBUTEd but not declared DYNAMIC"),
                    );
                }
                if let Some(t) = self.target_template(target, *span) {
                    if let Err(msg) = resolve_distribution(
                        &self.env,
                        &self.symbols,
                        self.default_grid,
                        t,
                        formats,
                        onto.as_deref(),
                    ) {
                        self.err(codes::BAD_DIRECTIVE, *span, msg);
                    }
                }
            }
            Directive::Kill { names, span } => {
                for n in names {
                    if !matches!(self.symbols.get(n), Some(Symbol::Array(_))) {
                        self.err(codes::UNRESOLVED, *span, format!("unknown array `{n}` in KILL"));
                    }
                }
            }
            _ => {}
        }
    }

    /// A reference to `name` with `subs` subscripts (`None`: a bare
    /// name). An element reference must name every dimension of its
    /// array: a count that differs from the rank is an error.
    fn check_ref(&mut self, name: &str, subs: Option<usize>, span: Span) {
        match self.symbols.get(name) {
            // Implicitly declare scalars on first use (Fortran style);
            // arrays must be declared.
            None => {
                self.symbols.insert(name.to_string(), Symbol::Scalar(implicit_type(name)));
            }
            Some(Symbol::Array(a)) => {
                let rank = self.env.array(*a).extents.rank();
                if let Some(n) = subs.filter(|&n| n != rank) {
                    self.err(
                        codes::BAD_DIRECTIVE,
                        span,
                        format!("`{name}` has rank {rank} but is referenced with {n} subscript(s)"),
                    );
                }
            }
            Some(_) => {}
        }
    }

    fn check_expr(&mut self, e: &Expr) {
        let mut refs = Vec::new();
        e.visit_refs(&mut |name, subs, span| refs.push((name.to_string(), subs, span)));
        for (name, subs, span) in refs {
            if is_intrinsic(&name) && subs.is_some() {
                continue;
            }
            self.check_ref(&name, subs, span);
        }
    }
}

/// Names treated as intrinsic functions in expressions.
pub fn is_intrinsic(name: &str) -> bool {
    matches!(name, "sqrt" | "abs" | "mod" | "min" | "max" | "sin" | "cos" | "exp" | "real")
}

fn const_dims(dims: &[Expr]) -> Option<Vec<u64>> {
    dims.iter().map(|e| e.const_u64()).collect()
}

/// Resolve an ALIGN/REALIGN spec into per-array alignments (pure,
/// reused by the remapping-graph construction for REALIGN statements).
pub fn resolve_align_spec(
    env: &MappingEnv,
    symbols: &BTreeMap<String, Symbol>,
    spec: &AlignSpec,
) -> Result<Vec<(ArrayId, Alignment)>, String> {
    let target_template = |name: &str| -> Result<TemplateId, String> {
        match symbols.get(name) {
            Some(Symbol::Template(t)) => Ok(*t),
            Some(Symbol::Array(a)) => Ok(env.implicit_template(*a)),
            _ => Err(format!("unknown alignment target `{name}`")),
        }
    };
    match spec {
        AlignSpec::With { target, arrays } => {
            let t = target_template(target)?;
            let trank = env.template(t).shape.rank();
            let mut out = Vec::new();
            for n in arrays {
                let Some(Symbol::Array(a)) = symbols.get(n) else {
                    return Err(format!("unknown array `{n}` in ALIGN"));
                };
                let arank = env.array(*a).extents.rank();
                if arank != trank {
                    return Err(format!(
                        "ALIGN WITH: array `{n}` has rank {arank} but target has rank {trank}"
                    ));
                }
                out.push((*a, Alignment::identity(t, trank)));
            }
            Ok(out)
        }
        AlignSpec::Explicit { array, dummies, target, subscripts } => {
            let Some(Symbol::Array(a)) = symbols.get(array) else {
                return Err(format!("unknown array `{array}` in ALIGN"));
            };
            let t = target_template(target)?;
            let trank = env.template(t).shape.rank();
            if subscripts.is_empty() {
                // `ALIGN A WITH T` without subscripts: identity.
                if env.array(*a).extents.rank() != trank {
                    return Err("ALIGN without subscripts requires equal ranks".into());
                }
                return Ok(vec![(*a, Alignment::identity(t, trank))]);
            }
            if subscripts.len() != trank {
                return Err(format!(
                    "ALIGN target has {} subscripts but template rank is {trank}",
                    subscripts.len()
                ));
            }
            if dummies.len() != env.array(*a).extents.rank() {
                return Err(format!(
                    "ALIGN dummies {:?} do not match rank of `{array}`",
                    dummies
                ));
            }
            let mut targets = Vec::new();
            for sub in subscripts {
                match sub {
                    AlignSub::Star => targets.push(AlignTarget::Replicate),
                    AlignSub::Affine(e) => targets.push(affine_target(e, dummies)?),
                }
            }
            let al = Alignment { template: t, targets };
            al.validate(env.array(*a).extents.rank())?;
            Ok(vec![(*a, al)])
        }
    }
}

/// Interpret an alignment subscript expression as `stride*dummy +
/// offset` (or a constant).
fn affine_target(e: &Expr, dummies: &[String]) -> Result<AlignTarget, String> {
    fn go(e: &Expr, dummies: &[String]) -> Result<(Option<usize>, i64, i64), String> {
        // Returns (dummy axis, stride, offset).
        match e {
            Expr::Int(v, _) => Ok((None, 0, *v)),
            Expr::Var(n, _) => match dummies.iter().position(|d| d == n) {
                Some(k) => Ok((Some(k), 1, 0)),
                None => Err(format!("`{n}` is not an align dummy")),
            },
            Expr::Un { op: UnOp::Neg, e, .. } => {
                let (d, s, o) = go(e, dummies)?;
                Ok((d, -s, -o))
            }
            Expr::Bin { op, l, r, .. } => {
                let (ld, ls, lo) = go(l, dummies)?;
                let (rd, rs, ro) = go(r, dummies)?;
                match op {
                    BinOp::Add => match (ld, rd) {
                        (Some(d), None) => Ok((Some(d), ls, lo + ro)),
                        (None, Some(d)) => Ok((Some(d), rs, lo + ro)),
                        (None, None) => Ok((None, 0, lo + ro)),
                        _ => Err("alignment subscript uses two dummies".into()),
                    },
                    BinOp::Sub => match (ld, rd) {
                        (Some(d), None) => Ok((Some(d), ls, lo - ro)),
                        (None, Some(d)) => Ok((Some(d), -rs, lo - ro)),
                        (None, None) => Ok((None, 0, lo - ro)),
                        _ => Err("alignment subscript uses two dummies".into()),
                    },
                    BinOp::Mul => match (ld, rd) {
                        (Some(d), None) => Ok((Some(d), ls * ro, lo * ro)),
                        (None, Some(d)) => Ok((Some(d), lo * rs, lo * ro)),
                        (None, None) => Ok((None, 0, lo * ro)),
                        _ => Err("alignment subscript is not affine".into()),
                    },
                    _ => Err("alignment subscript is not affine".into()),
                }
            }
            _ => Err("alignment subscript is not affine".into()),
        }
    }
    let (dummy, stride, offset) = go(e, dummies)?;
    match dummy {
        // Fortran subscripts are 1-based: `T(j+1)` with 1-based j and
        // 1-based template cells is stride 1, offset 0 in 0-based terms:
        // t0 = (j0+1) + 1 - 1 - 1 + ... — handled uniformly below.
        Some(k) => Ok(AlignTarget::Axis {
            array_dim: k,
            stride,
            // 0-based conversion: t-1 = s*(a-1)+ (s + offset - 1)
            offset: stride + offset - 1,
        }),
        None => Ok(AlignTarget::Constant(offset - 1)),
    }
}

/// Resolve a DISTRIBUTE/REDISTRIBUTE body against a template (pure,
/// reused by the remapping-graph construction).
pub fn resolve_distribution(
    env: &MappingEnv,
    symbols: &BTreeMap<String, Symbol>,
    default_grid: Option<GridId>,
    t: TemplateId,
    formats: &[DistFormatAst],
    onto: Option<&str>,
) -> Result<Distribution, String> {
    let trank = env.template(t).shape.rank();
    if formats.len() != trank {
        return Err(format!(
            "distribution has {} format(s) but template `{}` has rank {trank}",
            formats.len(),
            env.template(t).name,
        ));
    }
    let grid = match onto {
        Some(g) => match symbols.get(g) {
            Some(Symbol::Grid(id)) => *id,
            _ => return Err(format!("unknown processors grid `{g}`")),
        },
        None => default_grid.ok_or("no PROCESSORS grid declared")?,
    };
    let mut out = Vec::new();
    for f in formats {
        out.push(match f {
            DistFormatAst::Star => DimFormat::Collapsed,
            DistFormatAst::Block(None) => DimFormat::Block(None),
            DistFormatAst::Cyclic(None) => DimFormat::Cyclic(None),
            DistFormatAst::Block(Some(e)) => DimFormat::Block(Some(
                e.const_u64().ok_or("BLOCK size must be a constant")?,
            )),
            DistFormatAst::Cyclic(Some(e)) => DimFormat::Cyclic(Some(
                e.const_u64().ok_or("CYCLIC size must be a constant")?,
            )),
        });
    }
    let d = Distribution::new(grid, out);
    if d.distributed_rank() > env.grid(grid).shape.rank() {
        return Err(format!(
            "distribution onto `{}` uses {} axes but the grid has rank {}",
            env.grid(grid).name,
            d.distributed_rank(),
            env.grid(grid).shape.rank()
        ));
    }
    Ok(d)
}
