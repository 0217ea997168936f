//! Request-target routing: one pure function from a target string to
//! a typed [`Route`], so the status-code matrix (404 vs 422) is
//! testable without a socket.

use std::net::Ipv4Addr;

/// The eight routes the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /api/summary` — dataset-wide totals.
    Summary,
    /// `GET /api/as/{asn}` — one AS's deployment summary.
    As(u32),
    /// `GET /api/addr/{ip}` — one address's evidence chains.
    Addr(Ipv4Addr),
    /// `GET /api/runs` — every committed ledger run.
    Runs,
    /// `GET /api/runs/{serial}` — one committed run's header + totals.
    Run(u64),
    /// `GET /api/diff/{a}/{b}` — announce/withdraw delta between runs.
    Diff(u64, u64),
    /// `GET /metrics` — Prometheus text exposition.
    Metrics,
    /// `GET /status` — daemon liveness and dataset facts.
    Status,
}

/// Why a target did not map to a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// `404 Not Found`: no such route shape.
    NotFound,
    /// `422 Unprocessable Content`: the route exists but a path
    /// parameter does not parse.
    Unprocessable(&'static str),
}

/// Maps a request target onto a [`Route`].
///
/// The query string (from the first `?`) and fragment (from the first
/// `#`) are stripped and ignored — no endpoint takes query
/// parameters. Dot segments (`.` / `..`) are rejected outright with
/// 422 wherever they appear, so `{ip}` traversal attempts never reach
/// parameter parsing; percent-escapes are not decoded and therefore
/// fail the strict parameter parses the same way.
pub fn route(target: &str) -> Result<Route, RouteError> {
    let path = target.split(['?', '#']).next().unwrap_or("");
    let Some(rest) = path.strip_prefix('/') else {
        return Err(RouteError::NotFound);
    };
    let segments: Vec<&str> = rest.split('/').collect();
    if segments.iter().any(|s| *s == "." || *s == "..") {
        return Err(RouteError::Unprocessable("dot segments are rejected"));
    }
    match segments.as_slice() {
        ["status"] => Ok(Route::Status),
        ["metrics"] => Ok(Route::Metrics),
        ["api", "summary"] => Ok(Route::Summary),
        ["api", "as", asn] => {
            if !asn.is_empty() && asn.bytes().all(|b| b.is_ascii_digit()) {
                asn.parse::<u32>()
                    .map(Route::As)
                    .map_err(|_| RouteError::Unprocessable("AS number exceeds 32 bits"))
            } else {
                Err(RouteError::Unprocessable("the {asn} segment must be decimal digits"))
            }
        }
        ["api", "addr", ip] => ip
            .parse::<Ipv4Addr>()
            .map(Route::Addr)
            .map_err(|_| RouteError::Unprocessable("the {ip} segment must be an IPv4 dotted quad")),
        ["api", "runs"] => Ok(Route::Runs),
        ["api", "runs", serial] => serial_of(serial).map(Route::Run),
        ["api", "diff", a, b] => Ok(Route::Diff(serial_of(a)?, serial_of(b)?)),
        _ => Err(RouteError::NotFound),
    }
}

/// Parses one `{serial}` path segment: strict decimal digits, u64.
fn serial_of(segment: &str) -> Result<u64, RouteError> {
    if segment.is_empty() || !segment.bytes().all(|b| b.is_ascii_digit()) {
        return Err(RouteError::Unprocessable("a run serial must be decimal digits"));
    }
    segment.parse::<u64>().map_err(|_| RouteError::Unprocessable("run serial exceeds 64 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_eight_routes_resolve() {
        assert_eq!(route("/status"), Ok(Route::Status));
        assert_eq!(route("/metrics"), Ok(Route::Metrics));
        assert_eq!(route("/api/summary"), Ok(Route::Summary));
        assert_eq!(route("/api/as/293"), Ok(Route::As(293)));
        assert_eq!(route("/api/addr/10.0.0.1"), Ok(Route::Addr(Ipv4Addr::new(10, 0, 0, 1))));
        assert_eq!(route("/api/runs"), Ok(Route::Runs));
        assert_eq!(route("/api/runs/12"), Ok(Route::Run(12)));
        assert_eq!(route("/api/diff/1/2"), Ok(Route::Diff(1, 2)));
    }

    #[test]
    fn ledger_route_parameters_are_strict() {
        assert!(matches!(route("/api/runs/one"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/api/runs/-1"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(
            route("/api/runs/99999999999999999999"),
            Err(RouteError::Unprocessable(_))
        ));
        assert!(matches!(route("/api/diff/1/x"), Err(RouteError::Unprocessable(_))));
        assert_eq!(route("/api/diff/1"), Err(RouteError::NotFound), "diff needs two serials");
        assert_eq!(route("/api/diff/1/2/3"), Err(RouteError::NotFound));
    }

    #[test]
    fn query_strings_and_fragments_are_stripped() {
        assert_eq!(route("/status?verbose=1"), Ok(Route::Status));
        assert_eq!(route("/api/as/293?pretty"), Ok(Route::As(293)));
        assert_eq!(route("/metrics#anchor"), Ok(Route::Metrics));
    }

    #[test]
    fn unknown_shapes_are_not_found() {
        assert_eq!(route("/"), Err(RouteError::NotFound));
        assert_eq!(route("/nope"), Err(RouteError::NotFound));
        assert_eq!(route("/api"), Err(RouteError::NotFound));
        assert_eq!(route("/api/as"), Err(RouteError::NotFound));
        assert_eq!(route("/api/as/1/extra"), Err(RouteError::NotFound));
        assert_eq!(route("/status/"), Err(RouteError::NotFound), "no trailing slashes");
    }

    #[test]
    fn bad_parameters_are_unprocessable() {
        assert!(matches!(route("/api/as/AS293"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/api/as/-1"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/api/as/99999999999"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/api/addr/not-an-ip"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/api/addr/10.0.0.999"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/api/addr/10.0.0.1%00"), Err(RouteError::Unprocessable(_))));
    }

    #[test]
    fn dot_segments_never_reach_parameter_parsing() {
        assert!(matches!(route("/api/addr/.."), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/api/addr/../secrets"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/api/../status"), Err(RouteError::Unprocessable(_))));
        assert!(matches!(route("/./status"), Err(RouteError::Unprocessable(_))));
    }
}
