//! Abstract syntax for the HPF subset.
//!
//! The grammar is deliberately small: exactly what the paper's figures
//! use. Mapping *directives* appear both in the specification part
//! (static: `PROCESSORS`, `TEMPLATE`, `ALIGN`, `DISTRIBUTE`, `DYNAMIC`)
//! and as executable statements (`REALIGN`, `REDISTRIBUTE`, `KILL`);
//! both are [`Directive`]s, distinguished by where the parser puts them.

use crate::span::Span;

/// A compilation unit: one or more subroutines. The first is the unit
/// being compiled; the rest are additional routines (callees compiled
/// separately in a real compiler).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Subroutines in source order.
    pub routines: Vec<Routine>,
}

/// One `SUBROUTINE … END` unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Routine {
    /// Lower-cased routine name.
    pub name: String,
    /// Dummy argument names in positional order.
    pub params: Vec<String>,
    /// Type and intent declarations.
    pub decls: Vec<Decl>,
    /// Specification-part (static) mapping directives.
    pub directives: Vec<Directive>,
    /// Explicit interfaces visible inside this routine.
    pub interfaces: Vec<InterfaceRoutine>,
    /// Executable statements.
    pub body: Vec<Stmt>,
    /// Whole-routine span.
    pub span: Span,
}

/// One routine description inside an `INTERFACE` block: the paper's
/// restriction 2 requires these to know callee argument mappings and
/// intents at every call site.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceRoutine {
    /// Lower-cased routine name.
    pub name: String,
    /// Dummy argument names in positional order.
    pub params: Vec<String>,
    /// Type and intent declarations for the dummies.
    pub decls: Vec<Decl>,
    /// Mapping directives for the dummies.
    pub directives: Vec<Directive>,
    /// Span of the interface body.
    pub span: Span,
}

/// Scalar element types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeSpec {
    /// `REAL` (stored as f64 in the simulator; 8 bytes).
    Real,
    /// `INTEGER`.
    Integer,
    /// `LOGICAL`.
    Logical,
}

/// Fortran `INTENT` attribute — drives the paper's Fig. 22/25 use
/// tables at call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// `INTENT(IN)` — values imported, not modified.
    In,
    /// `INTENT(OUT)` — fully redefined, nothing imported.
    Out,
    /// `INTENT(INOUT)` — imported and possibly modified.
    InOut,
}

/// A declaration statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `REAL :: A(16,16), B(16,16)` — entity declarations with optional
    /// constant dimensions.
    Type {
        /// Element type.
        ty: TypeSpec,
        /// The declared entities.
        entities: Vec<EntityDecl>,
        /// Statement span.
        span: Span,
    },
    /// `INTENT(IN) :: X, Y`.
    Intent {
        /// The attribute.
        intent: Intent,
        /// Dummy names it applies to.
        names: Vec<String>,
        /// Statement span.
        span: Span,
    },
}

/// A single declared entity: `A(16,16)` or scalar `m`.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityDecl {
    /// Lower-cased name.
    pub name: String,
    /// Constant dimension extents (empty for scalars).
    pub dims: Vec<Expr>,
}

/// A distribution format as written (`BLOCK`, `CYCLIC(3)`, `*`).
#[derive(Debug, Clone, PartialEq)]
pub enum DistFormatAst {
    /// `BLOCK` / `BLOCK(b)`.
    Block(Option<Expr>),
    /// `CYCLIC` / `CYCLIC(b)`.
    Cyclic(Option<Expr>),
    /// `*` — collapsed.
    Star,
}

/// One alignment subscript on the template side.
#[derive(Debug, Clone, PartialEq)]
pub enum AlignSub {
    /// An affine expression over the align dummies (`j+1`, `2*i`).
    Affine(Expr),
    /// `*` — replicate along this template axis.
    Star,
}

/// The body of an `ALIGN`/`REALIGN` directive.
#[derive(Debug, Clone, PartialEq)]
pub enum AlignSpec {
    /// `ALIGN A(i,j) WITH T(j+1, 2*i)`.
    Explicit {
        /// Array being aligned.
        array: String,
        /// Dummy index names, one per array dimension.
        dummies: Vec<String>,
        /// Alignment target (template or array).
        target: String,
        /// Template-side subscripts.
        subscripts: Vec<AlignSub>,
    },
    /// `ALIGN WITH T :: A, B, C` — identity alignment of each listed
    /// array (paper Figs. 2, 3, 10).
    With {
        /// Alignment target (template or array).
        target: String,
        /// Arrays identity-aligned to it.
        arrays: Vec<String>,
    },
}

/// An HPF directive (static or executable).
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// `!HPF$ PROCESSORS P(4,2)`.
    Processors {
        /// Grid name.
        name: String,
        /// Constant extents.
        dims: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// `!HPF$ TEMPLATE T(100,100)`.
    Template {
        /// Template name.
        name: String,
        /// Constant extents.
        dims: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// `!HPF$ DYNAMIC A, B`.
    Dynamic {
        /// Objects declared remappable.
        names: Vec<String>,
        /// Span.
        span: Span,
    },
    /// Static `!HPF$ ALIGN …`.
    Align {
        /// Alignment body.
        spec: AlignSpec,
        /// Span.
        span: Span,
    },
    /// Executable `!HPF$ REALIGN …`.
    Realign {
        /// Alignment body.
        spec: AlignSpec,
        /// Span.
        span: Span,
    },
    /// Static `!HPF$ DISTRIBUTE T(BLOCK,*) [ONTO P]`.
    Distribute {
        /// Template or array being distributed.
        target: String,
        /// Per-dimension formats.
        formats: Vec<DistFormatAst>,
        /// Optional grid name.
        onto: Option<String>,
        /// Span.
        span: Span,
    },
    /// Executable `!HPF$ REDISTRIBUTE T(CYCLIC) [ONTO P]`.
    Redistribute {
        /// Template or array being redistributed.
        target: String,
        /// Per-dimension formats.
        formats: Vec<DistFormatAst>,
        /// Optional grid name.
        onto: Option<String>,
        /// Span.
        span: Span,
    },
    /// `!HPF$ KILL A` — the paper's Sec. 4.3 extension: the user asserts
    /// the array's values are dead here.
    Kill {
        /// Arrays whose values die.
        names: Vec<String>,
        /// Span.
        span: Span,
    },
    /// `!HPF$ INHERIT X` — parsed, then *rejected* by sema (paper
    /// restriction 3: no transcriptive mappings).
    Inherit {
        /// Dummies with inherited mappings.
        names: Vec<String>,
        /// Span.
        span: Span,
    },
}

impl Directive {
    /// Whether this directive is executable (a remapping statement)
    /// rather than a specification.
    pub fn is_executable(&self) -> bool {
        matches!(
            self,
            Directive::Realign { .. } | Directive::Redistribute { .. } | Directive::Kill { .. }
        )
    }

    /// The directive's span.
    pub fn span(&self) -> Span {
        match self {
            Directive::Processors { span, .. }
            | Directive::Template { span, .. }
            | Directive::Dynamic { span, .. }
            | Directive::Align { span, .. }
            | Directive::Realign { span, .. }
            | Directive::Distribute { span, .. }
            | Directive::Redistribute { span, .. }
            | Directive::Kill { span, .. }
            | Directive::Inherit { span, .. } => *span,
        }
    }
}

/// An executable statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs`.
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Right-hand side.
        rhs: Expr,
        /// Span.
        span: Span,
    },
    /// `IF (cond) THEN … [ELSE …] ENDIF`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (empty when absent).
        else_body: Vec<Stmt>,
        /// Span of the `IF` line.
        span: Span,
    },
    /// `DO v = lo, hi [, step] … ENDDO`.
    Do {
        /// Loop variable.
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
        /// Optional step (default 1).
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Span of the `DO` line.
        span: Span,
    },
    /// `CALL name(args)`.
    Call {
        /// Callee name (lower-cased).
        name: String,
        /// Actual arguments.
        args: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// An executable remapping directive.
    Directive(Directive),
    /// `RETURN`.
    Return {
        /// Span.
        span: Span,
    },
}

impl Stmt {
    /// The statement's span.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Do { span, .. }
            | Stmt::Call { span, .. }
            | Stmt::Return { span } => *span,
            Stmt::Directive(d) => d.span(),
        }
    }
}

/// An assignment target: scalar, whole array, or element.
#[derive(Debug, Clone, PartialEq)]
pub struct LValue {
    /// Lower-cased name.
    pub name: String,
    /// Subscripts; empty means scalar or whole-array assignment.
    pub subs: Vec<Expr>,
    /// Span.
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `/=`
    Ne,
    /// `.AND.`
    And,
    /// `.OR.`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Unary `-`.
    Neg,
    /// `.NOT.`.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Real literal.
    Real(f64, Span),
    /// Scalar variable or whole-array reference.
    Var(String, Span),
    /// `name(subs)` — array element or intrinsic call (sema decides).
    Ref {
        /// Lower-cased name.
        name: String,
        /// Subscripts / call arguments.
        subs: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        e: Box<Expr>,
        /// Span.
        span: Span,
    },
}

impl Expr {
    /// The expression's span.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) | Expr::Real(_, s) | Expr::Var(_, s) => *s,
            Expr::Ref { span, .. } | Expr::Bin { span, .. } | Expr::Un { span, .. } => *span,
        }
    }

    /// Evaluate as a compile-time non-negative integer constant
    /// (used for declaration extents, block sizes).
    pub fn const_u64(&self) -> Option<u64> {
        match self {
            Expr::Int(v, _) if *v >= 0 => Some(*v as u64),
            Expr::Bin { op, l, r, .. } => {
                let (a, b) = (l.const_u64()?, r.const_u64()?);
                match op {
                    BinOp::Add => Some(a + b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => Some(a * b),
                    BinOp::Div if b != 0 => Some(a / b),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// All `name`s referenced anywhere in the expression, with whether
    /// each occurrence is subscripted.
    pub fn collect_refs(&self, out: &mut Vec<(String, bool, Span)>) {
        self.visit_refs(&mut |name, subs, span| out.push((name.to_string(), subs.is_some(), span)));
    }

    /// Visit every name referenced anywhere in the expression
    /// (pre-order, a `name(subs)` before its subscripts), with whether
    /// the occurrence is subscripted. Allocates nothing — what a caller
    /// that only looks names up wants instead of
    /// [`Expr::collect_refs`].
    pub fn for_each_ref(&self, mut f: impl FnMut(&str, bool)) {
        self.visit_refs(&mut |name, subs, _| f(name, subs.is_some()));
    }

    /// Visit every name referenced anywhere in the expression
    /// (pre-order), with its subscript count — `None` for a bare name.
    pub(crate) fn visit_refs(&self, f: &mut dyn FnMut(&str, Option<usize>, Span)) {
        match self {
            Expr::Int(..) | Expr::Real(..) => {}
            Expr::Var(n, s) => f(n, None, *s),
            Expr::Ref { name, subs, span } => {
                f(name, Some(subs.len()), *span);
                for e in subs {
                    e.visit_refs(f);
                }
            }
            Expr::Bin { l, r, .. } => {
                l.visit_refs(f);
                r.visit_refs(f);
            }
            Expr::Un { e, .. } => e.visit_refs(f),
        }
    }
}
