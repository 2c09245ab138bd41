//! `GET /metrics` in Prometheus text form must be *parseable* — every
//! line passes the exposition-format grammar — and carry the metric
//! families a dashboard would scrape. CI runs this test as its
//! metrics-scrape step. The metric table in `docs/ARCHITECTURE.md` is
//! held equal to the families a fully equipped server registers.

use std::collections::BTreeSet;
use std::time::Duration;

use quma_core::prelude::*;
use quma_obs::promtext;
use quma_pool::prelude::{DevicePool, JournalConfig, PoolConfig};
use quma_serve::prelude::*;

fn device() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0x3C4A,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

#[test]
fn prometheus_exposition_parses_and_has_required_families() {
    let pool = DevicePool::new(PoolConfig::new(device()).with_workers(1)).unwrap();
    let server = Server::start(pool, ServerConfig::new()).unwrap();
    let mut client = MiniClient::connect(server.local_addr(), "scraper");

    // Run one job first so counters and histograms carry real samples.
    let submit = client
        .post_json(
            "/jobs",
            &Json::obj([
                ("kind", Json::str("shots")),
                ("source", Json::str("Wait 100\nhalt\n")),
                ("shots", Json::Int(2)),
            ]),
        )
        .unwrap();
    assert_eq!(submit.status, 201, "{}", submit.text());
    let id = submit
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_u64)
        .unwrap();
    client.wait_for(id, Duration::from_millis(5)).unwrap();

    let response = client.get("/metrics?format=prometheus").unwrap();
    assert_eq!(response.status, 200);
    assert!(response
        .header("content-type")
        .unwrap()
        .starts_with("text/plain; version=0.0.4"));
    let text = response.text();

    // Every line must parse under the exposition-format grammar.
    let families = promtext::parse(&text)
        .unwrap_or_else(|e| panic!("exposition failed to parse: {e}\n---\n{text}"));

    let family = |name: &str| {
        families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("family '{name}' missing from:\n{text}"))
    };
    for (name, kind) in [
        ("quma_pool_jobs_submitted_total", "counter"),
        ("quma_pool_jobs_completed_total", "counter"),
        ("quma_pool_executed_shots_total", "counter"),
        ("quma_pool_cache_hits_total", "counter"),
        ("quma_pool_workers", "gauge"),
        ("quma_pool_max_queue_depth", "gauge"),
        ("quma_pool_queue_wait_seconds", "histogram"),
        ("quma_pool_run_seconds", "histogram"),
        ("quma_serve_requests_total", "counter"),
        ("quma_serve_responses_total", "counter"),
        ("quma_serve_jobs_tracked", "gauge"),
        ("quma_serve_request_seconds", "histogram"),
    ] {
        assert_eq!(family(name).kind, kind, "family '{name}'");
    }

    // Histogram families render the full fixed bucket ladder:
    // 18 bounds + +Inf + _sum + _count per series.
    assert_eq!(family("quma_pool_run_seconds").samples, 21);
    // One request_seconds series per route plus the unmatched lane.
    assert_eq!(
        family("quma_serve_request_seconds").samples,
        (ROUTES.len() + 1) * 21
    );

    // The scrape itself is consistent: the completed job is visible.
    assert!(text.contains("quma_pool_jobs_completed_total 1"), "{text}");
    server.shutdown();
}

/// Expands every `{a,b}` group in a documented metric name into one name
/// per alternative; a `{label=…}` group is a label suffix and is dropped.
fn expand(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else {
        return vec![name.to_string()];
    };
    let close = open + name[open..].find('}').expect("unclosed '{'");
    let (head, group, tail) = (&name[..open], &name[open + 1..close], &name[close + 1..]);
    if group.contains('=') {
        return expand(&format!("{head}{tail}"));
    }
    group
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// The metric family names the table under "The metric surface" in
/// `docs/ARCHITECTURE.md` documents, one per backticked name in each
/// row's first cell.
fn documented_families() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/ARCHITECTURE.md");
    let doc = std::fs::read_to_string(path).expect("docs/ARCHITECTURE.md must exist");
    let section = doc
        .split("### The metric surface")
        .nth(1)
        .expect("a 'The metric surface' section");
    let section = section.split("\n#").next().unwrap_or(section);
    let mut names = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cell = row.split('|').nth(1).unwrap_or("");
        for name in cell.split('`').skip(1).step_by(2) {
            names.extend(expand(name));
        }
    }
    names
}

#[test]
fn architecture_metric_table_matches_the_registered_families() {
    let dir = std::env::temp_dir().join(format!("quma-serve-metric-table-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pool = DevicePool::new(
        PoolConfig::new(device())
            .with_workers(1)
            .with_journal(JournalConfig::new(&dir))
            .with_trace(256),
    )
    .unwrap();
    let server = Server::start(pool, ServerConfig::new()).unwrap();
    let mut client = MiniClient::connect(server.local_addr(), "tables");
    let text = client.get("/metrics?format=prometheus").unwrap().text();
    let registered: BTreeSet<String> = promtext::parse(&text)
        .unwrap_or_else(|e| panic!("exposition failed to parse: {e}\n---\n{text}"))
        .into_iter()
        .map(|f| f.name)
        .collect();
    let documented = documented_families();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "registered but not in the ARCHITECTURE table: {undocumented:?}; \
         in the table but not registered: {unregistered:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
