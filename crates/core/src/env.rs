//! Every `FLASHR_*` environment variable `flashr-core` reads, one
//! function each. README.md has the table of all of them, workspace-wide.

use std::path::PathBuf;

fn var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// A path-valued variable; unset and empty both mean "not given".
fn path(name: &str) -> Option<PathBuf> {
    std::env::var_os(name).filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// `FLASHR_TRACE`: the default [`TraceLevel`](crate::trace::TraceLevel)
/// of a context, `off|summary|pass|op|timeline`.
pub fn trace() -> Option<String> {
    var("FLASHR_TRACE")
}

/// `FLASHR_TRACE_EVENTS`: events kept per lane at `FLASHR_TRACE=timeline`.
pub fn trace_events() -> Option<usize> {
    var("FLASHR_TRACE_EVENTS")?.trim().parse().ok()
}

/// `FLASHR_TRACE_OUT`: where the Chrome trace is written; setting it
/// raises the default trace level to `timeline`.
pub fn trace_out() -> Option<PathBuf> {
    path("FLASHR_TRACE_OUT")
}

/// `FLASHR_FLIGHT_OUT`: where a flight-recorder dump is written.
pub fn flight_out() -> Option<PathBuf> {
    path("FLASHR_FLIGHT_OUT")
}

/// `FLASHR_METRICS_ADDR`: bind address of the `/metrics` listener.
pub fn metrics_addr() -> Option<String> {
    var("FLASHR_METRICS_ADDR").map(|a| a.trim().to_string()).filter(|a| !a.is_empty())
}

/// `FLASHR_DENY_LINTS`: lint codes promoted to errors (comma/space
/// separated, e.g. `W001,W004`; `all` denies every code). Read per call
/// so tests and long-lived sessions see updates.
pub fn deny_lints() -> Vec<String> {
    var("FLASHR_DENY_LINTS")
        .unwrap_or_default()
        .split([',', ' '])
        .map(|s| s.trim().to_ascii_uppercase())
        .filter(|s| !s.is_empty())
        .collect()
}
