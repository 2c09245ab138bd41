//! End-to-end lifecycle tests over a real loopback socket: every status
//! code the API documents, pagination edges, quota behavior, streamed
//! chunks, typed cancellation, and — the contract the crate exists for —
//! bit-identity of served results against direct `Session` runs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use quma_core::prelude::*;
use quma_experiments::prelude::*;
use quma_pool::prelude::{DevicePool, PoolConfig};
use quma_serve::prelude::*;

const SEGMENT: &str = "\
    Wait 40000\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

fn device() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0x5EE7,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

fn pool(workers: usize) -> DevicePool {
    DevicePool::new(PoolConfig::new(device()).with_workers(workers)).unwrap()
}

fn serve(workers: usize, config: ServerConfig) -> Server {
    Server::start(pool(workers), config).unwrap()
}

fn shots_doc(shots: i64) -> Json {
    Json::obj([
        ("kind", Json::str("shots")),
        ("source", Json::str(SEGMENT)),
        ("shots", Json::Int(shots)),
    ])
}

fn submit_ok(client: &mut MiniClient, doc: &Json) -> u64 {
    let response = client.post_json("/jobs", doc).unwrap();
    assert_eq!(response.status, 201, "{}", response.text());
    let body = response.json().unwrap();
    assert!(body.get("phase").and_then(Json::as_str).is_some());
    let id = body.get("id").and_then(Json::as_u64).unwrap();
    let location = response.header("location").unwrap().to_string();
    assert_eq!(location, format!("/jobs/{id}"));
    id
}

fn problem_code(response: &quma_serve::MiniResponse) -> String {
    response
        .json()
        .unwrap()
        .get("code")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn served_shots_are_bit_identical_to_a_direct_session() {
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "identity");
    let id = submit_ok(&mut client, &shots_doc(5));
    let status = client.wait_for(id, Duration::from_millis(5)).unwrap();
    assert_eq!(status.get("phase").and_then(Json::as_str), Some("finished"));

    let result = client.get(&format!("/jobs/{id}/result")).unwrap();
    assert_eq!(result.status, 200, "{}", result.text());
    let doc = result.json().unwrap();
    assert_eq!(doc.get("type").and_then(Json::as_str), Some("batch"));
    let served = doc.get("shots").and_then(Json::as_arr).unwrap();

    let mut direct = Session::new(device()).unwrap();
    let loaded = direct.load_assembly(SEGMENT).unwrap();
    let want = direct.run_shots(&loaded, 5).unwrap();
    assert_eq!(served.len(), want.shots.len());
    for (shot, want) in served.iter().zip(want.shots.iter()) {
        let registers: Vec<i64> = shot
            .get("registers")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.as_i64().unwrap())
            .collect();
        let want_regs: Vec<i64> = want.registers.iter().map(|&r| i64::from(r)).collect();
        assert_eq!(registers, want_regs);

        let md = shot.get("md_results").and_then(Json::as_arr).unwrap();
        assert_eq!(md.len(), want.md_results.len());
        for (rec, want_rec) in md.iter().zip(want.md_results.iter()) {
            assert_eq!(rec.get("td").and_then(Json::as_u64), Some(want_rec.td));
            assert_eq!(
                rec.get("qubit").and_then(Json::as_u64),
                Some(want_rec.qubit as u64)
            );
            assert_eq!(
                rec.get("bit").and_then(Json::as_u64),
                Some(u64::from(want_rec.bit))
            );
            // The integration value is a float: bit-identical through
            // the shortest-round-trip encoding or the contract is void.
            let s = rec.get("s").and_then(Json::as_f64).unwrap();
            assert_eq!(s.to_bits(), want_rec.s.to_bits());
            match want_rec.rd {
                Some(reg) => assert_eq!(
                    rec.get("rd").and_then(Json::as_u64),
                    Some(u64::from(reg.index()))
                ),
                None => assert!(matches!(rec.get("rd"), Some(Json::Null))),
            }
        }

        let averages = shot
            .get("collector_averages")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(averages.len(), want.collector_averages.len());
        for (qubit, want_qubit) in averages.iter().zip(want.collector_averages.iter()) {
            let got: Vec<u64> = qubit
                .as_arr()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap().to_bits())
                .collect();
            let wanted: Vec<u64> = want_qubit.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, wanted);
        }
    }
    server.shutdown();
}

#[test]
fn served_qec_experiment_matches_direct_harness() {
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "qec");
    let doc = Json::obj([
        ("kind", Json::str("experiment")),
        ("experiment", Json::str("qec")),
        (
            "config",
            Json::obj([
                ("distance", Json::Int(3)),
                ("rounds", Json::Int(2)),
                ("shots", Json::Int(8)),
                ("profile", Json::str("ideal")),
                ("chip_seed", Json::Int(0x0EC)),
                ("injection_seed", Json::Int(0x1517)),
            ]),
        ),
    ]);
    let id = submit_ok(&mut client, &doc);
    client.wait_for(id, Duration::from_millis(10)).unwrap();
    let result = client.get(&format!("/jobs/{id}/result")).unwrap();
    assert_eq!(result.status, 200, "{}", result.text());
    let served = result.json().unwrap();

    let cfg = QecConfig {
        distance: 3,
        rounds: 2,
        shots: 8,
        profile: ChipProfile::Ideal,
        chip_seed: 0x0EC,
        injection_seed: 0x1517,
        threads: 1,
        ..QecConfig::default()
    };
    let want = run_experiment(&QecInjected::default(), &cfg).unwrap();
    assert_eq!(
        served.get("logical_errors").and_then(Json::as_u64),
        Some(want.logical_errors)
    );
    assert_eq!(
        served
            .get("logical_error_rate")
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
        want.logical_error_rate.to_bits()
    );
    let bits: Vec<u64> = served
        .get("majority_bits")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|b| b.as_u64().unwrap())
        .collect();
    let want_bits: Vec<u64> = want.majority_bits.iter().map(|&b| u64::from(b)).collect();
    assert_eq!(bits, want_bits);
    server.shutdown();
}

#[test]
fn a_served_qec_compile_hit_shows_in_the_job_metrics() {
    // Two identical `qec` submissions share one compile: the second
    // job's metrics report the cache hit, and the pool counts one miss
    // and one hit, exactly as before jobs carried the flag.
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "qec-cache");
    let doc = Json::obj([
        ("kind", Json::str("experiment")),
        ("experiment", Json::str("qec")),
        (
            "config",
            Json::obj([
                ("distance", Json::Int(3)),
                ("rounds", Json::Int(1)),
                ("shots", Json::Int(2)),
                ("profile", Json::str("ideal")),
            ]),
        ),
    ]);
    let hits: Vec<Option<bool>> = (0..2)
        .map(|_| {
            let id = submit_ok(&mut client, &doc);
            let status = client.wait_for(id, Duration::from_millis(5)).unwrap();
            assert_eq!(status.get("phase").and_then(Json::as_str), Some("finished"));
            status
                .get("metrics")
                .and_then(|m| m.get("cache_hit"))
                .and_then(Json::as_bool)
        })
        .collect();
    assert_eq!(hits, vec![Some(false), Some(true)]);
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let pool = metrics.get("pool").expect("pool section");
    let count = |name: &str| pool.get(name).and_then(Json::as_u64);
    assert_eq!(
        (count("cache_misses"), count("cache_hits")),
        (Some(1), Some(1))
    );
    server.shutdown();
}

#[test]
fn qec_configs_the_compile_rejects_get_422_and_serving_goes_on() {
    // The QEC program compiles at submit, so a config its compile would
    // refuse is a field error, never a dropped connection; the next
    // valid job then compiles through the same cache and completes.
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "qec-fields");
    let qec = |field: &str, value: i64| {
        Json::obj([
            ("kind", Json::str("experiment")),
            ("experiment", Json::str("qec")),
            (
                "config",
                Json::obj([
                    ("distance", Json::Int(3)),
                    ("shots", Json::Int(2)),
                    ("profile", Json::str("ideal")),
                    (field, Json::Int(value)),
                ]),
            ),
        ])
    };
    for (field, value) in [
        ("rounds", 0),
        ("rounds", 101),
        ("init_cycles", 3_000_000_000),
    ] {
        let response = client.post_json("/jobs", &qec(field, value)).unwrap();
        assert_eq!(
            response.status,
            422,
            "{field} = {value}: {}",
            response.text()
        );
        assert_eq!(problem_code(&response), "validation_error");
        assert!(response.text().contains(field), "{}", response.text());
    }
    let id = submit_ok(&mut client, &qec("rounds", 1));
    let status = client.wait_for(id, Duration::from_millis(5)).unwrap();
    assert_eq!(status.get("phase").and_then(Json::as_str), Some("finished"));
    server.shutdown();
}

#[test]
fn unknown_ids_and_routes_are_404_problems() {
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "missing");
    let status = client.get("/jobs/424242").unwrap();
    assert_eq!(status.status, 404);
    assert_eq!(problem_code(&status), "not_found");
    assert_eq!(
        status.header("content-type"),
        Some("application/problem+json")
    );
    let nowhere = client.get("/definitely/not/a/route").unwrap();
    assert_eq!(nowhere.status, 404);
    assert_eq!(problem_code(&nowhere), "not_found");
    server.shutdown();
}

/// A job that holds its pool worker until released: `prepare` blocks on
/// the channel, then the experiment runs no points.
struct HoldWorker(mpsc::Receiver<()>);

impl Experiment for HoldWorker {
    type Config = ();
    type Output = ();

    fn name(&self) -> &'static str {
        "hold_worker"
    }

    fn device_config(&self, _: &()) -> DeviceConfig {
        device()
    }

    fn prepare(&self, _: &(), _: &mut Session) -> Result<(), ExperimentError> {
        self.0
            .recv()
            .map_err(|_| ExperimentError::Config("gate sender dropped".into()))
    }

    fn axes(&self, _: &()) -> Result<SweepAxes, ExperimentError> {
        Ok(SweepAxes::new(Vec::new(), ExecutionMode::ProgramSweep))
    }

    fn analyze(&self, _: &(), _: &SweepAxes, _: &[RunReport]) -> Result<(), ExperimentError> {
        Ok(())
    }
}

#[test]
fn lifecycle_conflicts_are_409_and_cancel_is_typed() {
    // One worker, held by a gate job until the victim is cancelled, so
    // the blocker and the victim are both still queued when the DELETEs
    // arrive, however the threads are scheduled.
    let pool = pool(1);
    let (release, held) = mpsc::channel();
    let gate = pool.submit_experiment(HoldWorker(held), ()).unwrap();
    let server = Server::start(pool, ServerConfig::new()).unwrap();
    let mut client = MiniClient::connect(server.local_addr(), "conflict");
    let blocker = submit_ok(&mut client, &shots_doc(16));
    let victim = submit_ok(&mut client, &shots_doc(1));

    // A queued job has no result yet: 409 state_conflict.
    let early = client.get(&format!("/jobs/{victim}/result")).unwrap();
    assert_eq!(early.status, 409, "{}", early.text());
    assert_eq!(problem_code(&early), "state_conflict");

    // Cancel the queued victim: 200 for the request that cancels it; a
    // repeat DELETE hits a terminal state and conflicts with 409
    // (cancellation is durable on journaled pools, so "already
    // cancelled" is a state, not a repeatable action).
    let cancelled = client.delete(&format!("/jobs/{victim}")).unwrap();
    assert_eq!(cancelled.status, 200, "{}", cancelled.text());
    assert_eq!(
        cancelled
            .json()
            .unwrap()
            .get("cancelled")
            .and_then(Json::as_bool),
        Some(true)
    );
    let again = client.delete(&format!("/jobs/{victim}")).unwrap();
    assert_eq!(again.status, 409, "{}", again.text());
    assert_eq!(problem_code(&again), "state_conflict");
    release.send(()).unwrap();
    gate.wait().unwrap();

    // A cancelled job never produces a result.
    client.wait_for(victim, Duration::from_millis(5)).unwrap();
    let gone = client.get(&format!("/jobs/{victim}/result")).unwrap();
    assert_eq!(gone.status, 409);
    assert_eq!(problem_code(&gone), "state_conflict");

    // The blocker finishes; cancelling a finished job is a 409.
    client.wait_for(blocker, Duration::from_millis(5)).unwrap();
    let too_late = client.delete(&format!("/jobs/{blocker}")).unwrap();
    assert_eq!(too_late.status, 409, "{}", too_late.text());
    assert_eq!(problem_code(&too_late), "state_conflict");
    server.shutdown();
}

#[test]
fn queue_full_maps_to_429_with_retry_after() {
    let pool = DevicePool::new(
        PoolConfig::new(device())
            .with_workers(1)
            .with_queue_depth(1),
    )
    .unwrap();
    let server = Server::start(pool, ServerConfig::new().without_quota()).unwrap();
    let mut client = MiniClient::connect(server.local_addr(), "flood");
    // The first job occupies the worker, the next fills the depth-1
    // queue; keep submitting until the bound bites.
    let mut saw_queue_full = false;
    for _ in 0..16 {
        let response = client.post_json("/jobs", &shots_doc(32)).unwrap();
        if response.status == 429 {
            assert_eq!(problem_code(&response), "queue_full");
            let retry = response.header("retry-after").unwrap();
            assert!(retry.parse::<u64>().unwrap() >= 1);
            saw_queue_full = true;
            break;
        }
        assert_eq!(response.status, 201, "{}", response.text());
    }
    assert!(saw_queue_full, "queue bound never produced a 429");
    server.shutdown();
}

#[test]
fn quota_exhaustion_rejects_then_refills() {
    let quota = Quota::new().with_burst(2).with_per_second(20.0);
    let server = serve(1, ServerConfig::new().with_quota(quota));
    let mut client = MiniClient::connect(server.local_addr(), "greedy");
    submit_ok(&mut client, &shots_doc(1));
    submit_ok(&mut client, &shots_doc(1));
    let rejected = client.post_json("/jobs", &shots_doc(1)).unwrap();
    assert_eq!(rejected.status, 429, "{}", rejected.text());
    assert_eq!(problem_code(&rejected), "quota_exhausted");
    assert!(rejected.header("retry-after").is_some());
    // Another client is untouched by this one's spend.
    let mut other = MiniClient::connect(server.local_addr(), "frugal");
    submit_ok(&mut other, &shots_doc(1));
    // At 20 tokens/s the bucket refills within 150 ms.
    std::thread::sleep(Duration::from_millis(150));
    submit_ok(&mut client, &shots_doc(1));
    server.shutdown();
}

#[test]
fn pagination_has_stable_edges() {
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "pages");
    for _ in 0..3 {
        submit_ok(&mut client, &shots_doc(1));
    }
    let all = client.get("/jobs").unwrap().json().unwrap();
    assert_eq!(all.get("total").and_then(Json::as_u64), Some(3));
    assert_eq!(all.get("jobs").and_then(Json::as_arr).unwrap().len(), 3);

    // limit=0 is a valid, empty page — not an error.
    let empty = client.get("/jobs?limit=0").unwrap().json().unwrap();
    assert_eq!(empty.get("jobs").and_then(Json::as_arr).unwrap().len(), 0);
    assert_eq!(empty.get("total").and_then(Json::as_u64), Some(3));

    // An offset past the end is an empty page, same shape.
    let past = client.get("/jobs?offset=50").unwrap().json().unwrap();
    assert_eq!(past.get("jobs").and_then(Json::as_arr).unwrap().len(), 0);

    let middle = client
        .get("/jobs?limit=2&offset=2")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(middle.get("jobs").and_then(Json::as_arr).unwrap().len(), 1);

    // Non-numeric bounds are a validation problem, not a 500.
    let bad = client.get("/jobs?limit=lots").unwrap();
    assert_eq!(bad.status, 422);
    assert_eq!(problem_code(&bad), "validation_error");
    server.shutdown();
}

#[test]
fn chunks_stream_in_order_and_complete() {
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "stream");
    let doc = Json::obj([
        ("kind", Json::str("shots")),
        ("source", Json::str(SEGMENT)),
        ("shots", Json::Int(6)),
        ("chunk_shots", Json::Int(2)),
    ]);
    let id = submit_ok(&mut client, &doc);
    client.wait_for(id, Duration::from_millis(5)).unwrap();
    let all = client
        .get(&format!("/jobs/{id}/chunks"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(all.get("complete").and_then(Json::as_bool), Some(true));
    assert_eq!(all.get("total").and_then(Json::as_u64), Some(3));
    let chunks = all.get("chunks").and_then(Json::as_arr).unwrap();
    assert_eq!(chunks.len(), 3);
    let firsts: Vec<u64> = chunks
        .iter()
        .map(|c| c.get("first_shot").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(firsts, vec![0, 2, 4]);

    // `from` resumes mid-stream; past the end it is an empty page.
    let tail = client
        .get(&format!("/jobs/{id}/chunks?from=2"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(tail.get("chunks").and_then(Json::as_arr).unwrap().len(), 1);
    let beyond = client
        .get(&format!("/jobs/{id}/chunks?from=9"))
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        beyond.get("chunks").and_then(Json::as_arr).unwrap().len(),
        0
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_problems() {
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "fuzz");

    // Wrong method on a known path: 405 with an Allow header.
    let put = client.request("PUT", "/jobs/1", None).unwrap();
    assert_eq!(put.status, 405);
    assert!(put.header("allow").unwrap().contains("GET"));

    // Non-numeric id: 400.
    let bad_id = client.get("/jobs/not-a-number").unwrap();
    assert_eq!(bad_id.status, 400);
    assert_eq!(problem_code(&bad_id), "bad_request");

    // Unparseable JSON body: 400.
    let garbage = client
        .request("POST", "/jobs", Some(b"{not json".to_vec()))
        .unwrap();
    assert_eq!(garbage.status, 400);

    // Valid JSON, invalid content: 422 naming the field.
    let invalid = client
        .post_json("/jobs", &Json::obj([("kind", Json::str("teleport"))]))
        .unwrap();
    assert_eq!(invalid.status, 422);
    assert_eq!(problem_code(&invalid), "validation_error");

    // Unassemblable source: 422, not a pool crash.
    let bad_source = client
        .post_json(
            "/jobs",
            &Json::obj([
                ("kind", Json::str("shots")),
                ("source", Json::str("Frobnicate q0\n")),
                ("shots", Json::Int(1)),
            ]),
        )
        .unwrap();
    assert_eq!(bad_source.status, 422, "{}", bad_source.text());
    server.shutdown();
}

#[test]
fn metrics_and_version_headers_are_served() {
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "meters");
    let id = submit_ok(&mut client, &shots_doc(1));
    client.wait_for(id, Duration::from_millis(5)).unwrap();
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("x-quma-api-version"),
        Some(API_VERSION.to_string().as_str())
    );
    assert_eq!(
        metrics.header("content-type"),
        Some("application/json"),
        "the default /metrics view is JSON"
    );
    let doc = metrics.json().unwrap();
    let pool = doc.get("pool").expect("pool section");
    assert_eq!(pool.get("workers").and_then(Json::as_u64), Some(1));
    assert_eq!(pool.get("completed").and_then(Json::as_u64), Some(1));
    let serve_section = doc.get("serve").expect("serve section");
    assert!(
        serve_section
            .get("requests")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    assert_eq!(
        serve_section.get("jobs_tracked").and_then(Json::as_u64),
        Some(1)
    );
    // Restart detection: uptime plus a snapshot sequence that ticks on
    // every scrape.
    assert!(doc.get("uptime_ms").and_then(Json::as_u64).is_some());
    let first = doc.get("snapshot_seq").and_then(Json::as_u64).unwrap();
    let second = client.get("/metrics").unwrap().json().unwrap();
    assert_eq!(
        second.get("snapshot_seq").and_then(Json::as_u64),
        Some(first + 1),
        "snapshot_seq is monotonic per scrape"
    );
    // Latency summaries come from real histograms now.
    let latency = doc.get("latency").expect("latency section");
    let run = latency.get("run").expect("run histogram");
    assert_eq!(run.get("count").and_then(Json::as_u64), Some(1));
    assert!(run.get("p99_ns").and_then(Json::as_u64).unwrap() > 0);

    // The same endpoint serves Prometheus text when asked.
    let prom = client.get_accept("/metrics", "text/plain").unwrap();
    assert_eq!(prom.status, 200);
    assert!(prom
        .header("content-type")
        .unwrap()
        .starts_with("text/plain; version=0.0.4"));
    let text = prom.text();
    for needle in [
        "# TYPE quma_pool_jobs_submitted_total counter",
        "quma_pool_workers 1",
        "# TYPE quma_serve_request_seconds histogram",
        "quma_serve_responses_total{class=\"2xx\"}",
    ] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }
    // The ?format= override wins over Accept.
    let forced = client
        .get_accept("/metrics?format=prometheus", "application/json")
        .unwrap();
    assert!(forced
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    server.shutdown();
}

/// The 422 problem documents for sources the pool cannot assemble,
/// pinned byte for byte: a shot batch's `source`, sweep point `i`'s
/// source, and a template sweep's `source`.
#[test]
fn unassemblable_sources_get_pinned_422_documents() {
    let server = serve(1, ServerConfig::new());
    let mut client = MiniClient::connect(server.local_addr(), "pins");
    let seeds = || Json::obj([("chip", Json::Int(1)), ("jitter", Json::Int(2))]);
    let bad = "Frobnicate q0\n";
    let shots = Json::obj([
        ("kind", Json::str("shots")),
        ("source", Json::str(bad)),
        ("shots", Json::Int(1)),
    ]);
    let sweep = Json::obj([
        ("kind", Json::str("sweep")),
        (
            "points",
            Json::Arr(
                [SEGMENT, SEGMENT, bad]
                    .into_iter()
                    .map(|source| Json::obj([("source", Json::str(source)), ("seeds", seeds())]))
                    .collect(),
            ),
        ),
    ]);
    let template = Json::obj([
        ("kind", Json::str("template_sweep")),
        ("source", Json::str(bad)),
        (
            "slots",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("tau")),
                ("instruction", Json::Int(0)),
                ("field", Json::str("wait_interval")),
            ])]),
        ),
        (
            "points",
            Json::Arr(vec![Json::obj([
                ("patches", Json::obj([("tau", Json::Int(8))])),
                ("seeds", seeds()),
            ])]),
        ),
    ]);
    let problem = |detail: &str, context: &str| {
        format!(
            "{{\"type\":\"about:blank\",\"title\":\"invalid request content\",\
             \"status\":422,\"code\":\"validation_error\",\"detail\":\"{detail}: \
             assembly failed: line 1: unknown mnemonic 'Frobnicate'\",\"context\":{context}}}"
        )
    };
    for (doc, want) in [
        (shots, problem("assembly rejected", r#"{"path":"source"}"#)),
        (
            sweep,
            problem("assembly rejected", r#"{"path":"source","point":2}"#),
        ),
        (
            template,
            problem("template rejected", r#"{"path":"source"}"#),
        ),
    ] {
        let response = client.post_json("/jobs", &doc).unwrap();
        assert_eq!(response.status, 422);
        assert_eq!(
            response.header("content-type"),
            Some("application/problem+json")
        );
        assert_eq!(response.text(), want);
    }
    server.shutdown();
}

/// Asserts a response is exactly the problem document `want`, with the
/// status it names and the problem content type.
fn assert_problem(response: &MiniResponse, want: &str) {
    assert_eq!(
        response.header("content-type"),
        Some("application/problem+json")
    );
    assert_eq!(response.text(), want);
    let status = want.split("\"status\":").nth(1).unwrap()[..3].to_string();
    assert_eq!(response.status.to_string(), status);
}

/// A problem document's bytes; `rest` is everything after `detail`.
fn problem(status: u16, title: &str, code: &str, detail: &str, rest: &str) -> String {
    format!(
        "{{\"type\":\"about:blank\",\"title\":\"{title}\",\"status\":{status},\
         \"code\":\"{code}\",\"detail\":\"{detail}\"{rest}}}"
    )
}

/// A 409 `state_conflict` document's bytes.
fn conflict(detail: &str, phase: &str) -> String {
    let context = format!(",\"context\":{{\"phase\":\"{phase}\"}}");
    problem(
        409,
        "conflicting job state",
        "state_conflict",
        detail,
        &context,
    )
}

/// The lifecycle and query problem documents, pinned byte for byte:
/// unknown and malformed ids, every 409 a job's lifecycle can produce,
/// quota exhaustion, and bad pagination or chunk-cursor parameters.
#[test]
fn lifecycle_problem_documents_are_pinned() {
    let quota = Quota::new().with_burst(3).with_per_second(1.0);
    let server = serve(1, ServerConfig::new().with_quota(quota));
    let mut client = MiniClient::connect(server.local_addr(), "pinned");
    let invalid = |detail: &str| {
        problem(
            422,
            "invalid request content",
            "validation_error",
            detail,
            "",
        )
    };

    assert_problem(
        &client.get("/jobs/424242").unwrap(),
        &problem(
            404,
            "resource not found",
            "not_found",
            "no job with id 424242",
            ",\"context\":{\"id\":424242}",
        ),
    );
    assert_problem(
        &client.get("/jobs/not-a-number").unwrap(),
        &problem(
            400,
            "malformed request",
            "bad_request",
            "job ids are integers, got 'not-a-number'",
            "",
        ),
    );
    assert_problem(
        &client.get("/jobs?limit=lots").unwrap(),
        &invalid("'limit' must be a non-negative integer, got 'lots'"),
    );
    assert_problem(
        &client.get("/jobs/1/chunks?from=-1").unwrap(),
        &invalid("'from' must be a non-negative integer, got '-1'"),
    );

    // One worker: the blocker occupies it, the victim stays queued.
    let blocker = submit_ok(&mut client, &shots_doc(16));
    let victim = submit_ok(&mut client, &shots_doc(1));
    assert_problem(
        &client.get(&format!("/jobs/{victim}/result")).unwrap(),
        &conflict(
            &format!(
                "job {victim} has not finished; poll GET /jobs/{victim} until its phase is \
                 \\\"finished\\\""
            ),
            "queued",
        ),
    );
    let cancelled = client.delete(&format!("/jobs/{victim}")).unwrap();
    assert_eq!(cancelled.status, 200, "{}", cancelled.text());
    assert_problem(
        &client.delete(&format!("/jobs/{victim}")).unwrap(),
        &conflict(
            &format!("job {victim} is already cancelled; nothing left to cancel"),
            "cancelled",
        ),
    );
    // The worker resolves the queued victim before it runs the marker
    // behind it, so once the marker is done the result route names the
    // cancellation.
    let marker = submit_ok(&mut client, &shots_doc(1));
    client.wait_for(marker, Duration::from_millis(5)).unwrap();
    assert_problem(
        &client.get(&format!("/jobs/{victim}/result")).unwrap(),
        &conflict(
            &format!("job {victim} was cancelled while queued; it has no result"),
            "cancelled",
        ),
    );
    assert_problem(
        &client.delete(&format!("/jobs/{blocker}")).unwrap(),
        &conflict(
            &format!("job {blocker} already finished; nothing to cancel"),
            "finished",
        ),
    );

    // A fresh client spends its burst of 3 back to back; at 1 token/s
    // the fourth submission is refused with a 1 s retry hint.
    let mut greedy = MiniClient::connect(server.local_addr(), "greedy");
    for _ in 0..3 {
        submit_ok(&mut greedy, &shots_doc(1));
    }
    assert_problem(
        &greedy.post_json("/jobs", &shots_doc(1)).unwrap(),
        &problem(
            429,
            "client quota exhausted",
            "quota_exhausted",
            "client 'greedy' has spent its submission quota",
            ",\"context\":{\"client\":\"greedy\"},\"retry_after_seconds\":1",
        ),
    );
    server.shutdown();
}

/// Opens a raw connection and writes a `POST /jobs` head declaring
/// `body`'s full length, followed by only its first `sent` bytes.
fn raw_post(server: &Server, body: &[u8], sent: usize) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(&body[..sent]).unwrap();
    stream
}

#[test]
fn a_body_arriving_after_its_head_is_still_served() {
    let server = serve(1, ServerConfig::new());
    let body = shots_doc(1).encode().into_bytes();
    let mut stream = raw_post(&server, &body, 0);
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(&body).unwrap();
    let mut status = String::new();
    BufReader::new(&mut stream).read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 201"), "{status}");
    server.shutdown();
}

#[test]
fn a_stalled_or_trickled_body_gets_408_and_the_connection_closes() {
    let server = serve(1, ServerConfig::new());
    let body = shots_doc(1).encode().into_bytes();
    let mut stalled = raw_post(&server, &body, body.len() / 2);
    // A second client keeps bytes flowing faster than the socket's poll
    // timeout, so only the request deadline itself can cut it off.
    let started = Instant::now();
    let mut trickled = raw_post(&server, &[b' '; 100_000], 0);
    let mut writer = trickled.try_clone().unwrap();
    let trickle = std::thread::spawn(move || {
        // Bounded, so a server that never cuts it off fails the timing
        // assertion below instead of hanging the test.
        for _ in 0..500 {
            if writer.write_all(b" ").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    // Reading to the end proves the server closed the connection.
    let mut response = String::new();
    stalled.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert!(
        response.contains("\"code\":\"request_timeout\""),
        "{response}"
    );
    // The trickled connection still has bytes in flight when the server
    // closes it, so read only the status line.
    let mut status = String::new();
    BufReader::new(&mut trickled)
        .read_line(&mut status)
        .unwrap();
    assert!(status.starts_with("HTTP/1.1 408"), "{status}");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "the trickle was cut off only after {:?}",
        started.elapsed()
    );
    trickled.shutdown(std::net::Shutdown::Both).ok();
    trickle.join().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_returns_while_a_client_is_stalled_mid_body() {
    let server = serve(1, ServerConfig::new());
    let body = shots_doc(1).encode().into_bytes();
    let mut stream = raw_post(&server, &body, body.len() / 2);
    // Let the handler start reading the body before shutting down.
    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown waited {:?} on a stalled client",
        started.elapsed()
    );
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
}
