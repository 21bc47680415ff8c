//! Compiler diagnostics.

use crate::span::Span;

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Compilation cannot proceed.
    Error,
    /// Suspicious but accepted (e.g. an ambiguous mapping *state* that
    /// is legal because the array is not referenced — paper Fig. 6).
    Warning,
}

/// One diagnostic message attached to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// Where in the source.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
    /// Stable machine-checkable code (`E###`/`W###`), used by tests.
    pub code: &'static str,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Error, span, message: message.into(), code }
    }

    /// A new warning diagnostic.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Warning, span, message: message.into(), code }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}] {}: {}", self.code, self.span, self.message)
    }
}

/// Diagnostic codes used across the front-end and the remapping-graph
/// construction. Centralized so tests can assert on them.
pub mod codes {
    /// Lexical error.
    pub const LEX: &str = "E001";
    /// Parse error.
    pub const PARSE: &str = "E002";
    /// Unknown name.
    pub const UNRESOLVED: &str = "E010";
    /// Duplicate declaration.
    pub const DUPLICATE: &str = "E011";
    /// Shape error in a directive or an array reference (rank
    /// mismatch, bad subscript, …).
    pub const BAD_DIRECTIVE: &str = "E012";
    /// `INHERIT`/transcriptive mapping — forbidden by the scheme
    /// (paper restriction 3).
    pub const TRANSCRIPTIVE: &str = "E013";
    /// Call to a routine without an explicit interface
    /// (paper restriction 2).
    pub const NO_INTERFACE: &str = "E014";
    /// Remapping of a non-`DYNAMIC` object.
    pub const NOT_DYNAMIC: &str = "E015";
    /// Mapping algebra error (bad block size, alignment overflow, …).
    pub const MAPPING: &str = "E016";
    /// Reference with an ambiguous mapping (paper restriction 1,
    /// Fig. 5).
    pub const AMBIGUOUS_REF: &str = "E020";
    /// A remapping statement with several possible leaving mappings
    /// (paper App. A, Fig. 21 — rejected under the paper's simplifying
    /// assumption).
    pub const MULTI_LEAVING: &str = "E021";
    /// Wrong number/shape of call arguments.
    pub const BAD_CALL: &str = "E022";
    /// Ambiguous mapping *state* accepted because unreferenced
    /// (paper Fig. 6) — informational warning.
    pub const AMBIGUOUS_STATE: &str = "W030";
}
