//! Diagnostic types: stable codes, severities, spans, and the human
//! report rendering. The JSON encoding lives beside the server's codec
//! (`rnl_server::web::report_to_json`).

use std::fmt;

use rnl_tunnel::msg::{PortId, RouterId};

/// How bad a finding is. `Error` findings block deployment (unless
/// forced); `Warning` and `Info` are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    /// The lowercase label used in both renderings.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding. The `code` is stable across releases (`RNL0xxx`); the
/// optional device/port pair is the span the finding points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: &'static str,
    pub severity: Severity,
    pub device: Option<RouterId>,
    pub port: Option<PortId>,
    pub message: String,
}

impl Diagnostic {
    /// A design-wide finding (no device span).
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            device: None,
            port: None,
            message: message.into(),
        }
    }

    /// Attach a device span.
    pub fn on(mut self, device: RouterId) -> Diagnostic {
        self.device = Some(device);
        self
    }

    /// Attach a device:port span.
    pub fn at(mut self, device: RouterId, port: PortId) -> Diagnostic {
        self.device = Some(device);
        self.port = Some(port);
        self
    }

    /// The span as text: `r3:p1`, `r3`, or `design`.
    pub fn span(&self) -> String {
        match (self.device, self.port) {
            (Some(d), Some(p)) => format!("{d}:{p}"),
            (Some(d), None) => format!("{d}"),
            _ => "design".to_string(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.code,
            self.span(),
            self.message
        )
    }
}

/// Everything `analyze` found for one design.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// The analyzed design's name.
    pub design: String,
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Findings at one severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any Error-severity finding exists (the deploy gate).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// `"2 errors, 1 warning, 0 info"`.
    pub fn summary(&self) -> String {
        let e = self.count(Severity::Error);
        let w = self.count(Severity::Warning);
        let i = self.count(Severity::Info);
        format!(
            "{e} error{}, {w} warning{}, {i} info",
            if e == 1 { "" } else { "s" },
            if w == 1 { "" } else { "s" }
        )
    }

    /// Human rendering, one finding per line, most severe first.
    pub fn render(&self) -> String {
        let mut out = format!("rnl-lint: {} — {}\n", self.design, self.summary());
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(b.code)));
        for d in sorted {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_at_every_granularity() {
        let d = Diagnostic::new("RNL0000", Severity::Info, "m");
        assert_eq!(d.span(), "design");
        assert_eq!(d.clone().on(RouterId(3)).span(), "r3");
        assert_eq!(d.at(RouterId(3), PortId(1)).span(), "r3:p1");
    }

    #[test]
    fn report_counts_and_gate() {
        let mut r = Report {
            design: "d".into(),
            diagnostics: vec![Diagnostic::new("RNL0001", Severity::Info, "i")],
        };
        assert!(!r.has_errors());
        r.diagnostics
            .push(Diagnostic::new("RNL0302", Severity::Error, "dup"));
        assert!(r.has_errors());
        assert_eq!(r.summary(), "1 error, 0 warnings, 1 info");
    }

    #[test]
    fn render_orders_errors_first() {
        let r = Report {
            design: "d".into(),
            diagnostics: vec![
                Diagnostic::new("RNL0001", Severity::Info, "note"),
                Diagnostic::new("RNL0302", Severity::Error, "dup ip"),
            ],
        };
        let text = r.render();
        let err_pos = text.find("error[RNL0302]").expect("error line");
        let info_pos = text.find("info[RNL0001]").expect("info line");
        assert!(err_pos < info_pos, "{text}");
    }
}
