//! Keeps `docs/API.md` and the server's route table in lockstep: every
//! documented endpoint must exist in `ROUTES`, and every route must be
//! documented. Either drift fails this test.

use quma_serve::ROUTES;

/// Extracts `### \`METHOD /path\` …` headings from the API reference.
fn documented_routes(doc: &str) -> Vec<(String, String)> {
    let mut routes = Vec::new();
    for line in doc.lines() {
        let Some(rest) = line.strip_prefix("### `") else {
            continue;
        };
        let Some(end) = rest.find('`') else { continue };
        let spec = &rest[..end];
        let Some((method, pattern)) = spec.split_once(' ') else {
            continue;
        };
        routes.push((method.to_string(), pattern.to_string()));
    }
    routes
}

fn api_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/API.md");
    std::fs::read_to_string(path).expect("docs/API.md must exist")
}

#[test]
fn every_route_is_documented() {
    let documented = documented_routes(&api_md());
    assert!(
        !documented.is_empty(),
        "no '### `METHOD /path`' headings found in docs/API.md"
    );
    for route in ROUTES {
        assert!(
            documented
                .iter()
                .any(|(m, p)| m == route.method && p == route.pattern),
            "route {} {} ({}) is not documented in docs/API.md",
            route.method,
            route.pattern,
            route.name
        );
    }
}

#[test]
fn every_documented_endpoint_exists() {
    for (method, pattern) in documented_routes(&api_md()) {
        assert!(
            ROUTES
                .iter()
                .any(|r| r.method == method && r.pattern == pattern),
            "docs/API.md documents {method} {pattern}, which is not in ROUTES"
        );
    }
}

#[test]
fn docs_name_every_problem_code_the_server_emits() {
    let doc = api_md();
    for code in [
        "bad_request",
        "not_found",
        "method_not_allowed",
        "state_conflict",
        "payload_too_large",
        "request_timeout",
        "validation_error",
        "queue_full",
        "quota_exhausted",
        "internal",
        "job_failed",
        "shutting_down",
    ] {
        assert!(
            doc.contains(&format!("`{code}`")),
            "problem code '{code}' is not documented in docs/API.md"
        );
    }
}
