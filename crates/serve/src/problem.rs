//! RFC-7807-style problem documents: every error the API returns is a
//! machine-readable JSON envelope with a stable `code`, not a bare
//! status line.
//!
//! The shape mirrors the lifecycle-route idiom the roadmap points at
//! (`make_problem` envelopes with `error_code` + `context`), translated
//! to Rust: one constructor per error family, each fixing the status
//! code and `code` string, so handlers cannot mismatch them. The job
//! service's typed failures become problems in one table, the
//! `From<ServiceError>` impl at the end of this module.

use crate::http::{reason_phrase, Response};
use crate::json::Json;
use crate::service::ServiceError;
use crate::wire::FieldError;
use quma_pool::prelude::SubmitError;

/// Seconds a client should wait after a `queue_full` rejection.
const QUEUE_RETRY_AFTER_SECS: u64 = 1;

/// An RFC-7807-style problem document.
///
/// Encodes as
/// `{"type":"about:blank","title":…,"status":…,"code":…,"detail":…,"context":{…}}`
/// and converts to a response with the `application/problem+json`
/// content type (plus a `Retry-After` header when the problem carries a
/// retry hint).
///
/// ```
/// use quma_serve::problem::ProblemJson;
///
/// let problem = ProblemJson::not_found("no job 7")
///     .with_context("id", quma_serve::json::Json::Int(7));
/// assert_eq!(problem.status, 404);
/// assert_eq!(problem.code, "not_found");
/// let response = problem.into_response();
/// assert_eq!(response.status, 404);
/// let body = String::from_utf8(response.body).unwrap();
/// assert!(body.contains("\"code\":\"not_found\""));
/// assert!(body.contains("\"id\":7"));
/// ```
#[derive(Debug, Clone)]
pub struct ProblemJson {
    /// The HTTP status this problem maps to.
    pub status: u16,
    /// Stable machine-readable code (`not_found`, `state_conflict`,
    /// `queue_full`, `quota_exhausted`, `validation_error`, …).
    pub code: String,
    /// Human-readable one-line summary of the error family.
    pub title: String,
    /// Human-readable description of this occurrence.
    pub detail: String,
    /// Extra structured context (job ids, limits, states).
    pub context: Vec<(String, Json)>,
    /// Seconds after which retrying may succeed (adds a `Retry-After`
    /// header; used by 429 responses).
    pub retry_after: Option<u64>,
}

impl ProblemJson {
    /// A problem with an explicit status/code/title triple.
    pub fn new(
        status: u16,
        code: impl Into<String>,
        title: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        Self {
            status,
            code: code.into(),
            title: title.into(),
            detail: detail.into(),
            context: Vec::new(),
            retry_after: None,
        }
    }

    /// 404 `not_found`: the requested resource does not exist.
    pub fn not_found(detail: impl Into<String>) -> Self {
        Self::new(404, "not_found", "resource not found", detail)
    }

    /// 409 `state_conflict`: the resource exists but its lifecycle state
    /// does not allow the request (result of a running job, cancel of a
    /// finished one).
    pub fn state_conflict(detail: impl Into<String>) -> Self {
        Self::new(409, "state_conflict", "conflicting job state", detail)
    }

    /// 422 `validation_error`: the request parsed but its content is
    /// invalid (bad schema, bad pagination bounds, unassemblable
    /// source).
    pub fn validation(detail: impl Into<String>) -> Self {
        Self::new(422, "validation_error", "invalid request content", detail)
    }

    /// 400 `bad_request`: the request itself is malformed (unparseable
    /// JSON, non-numeric id segment).
    pub fn bad_request(detail: impl Into<String>) -> Self {
        Self::new(400, "bad_request", "malformed request", detail)
    }

    /// 405 `method_not_allowed`: the path exists, the method does not.
    pub fn method_not_allowed(allowed: &str) -> Self {
        Self::new(
            405,
            "method_not_allowed",
            "method not allowed",
            format!("allowed methods: {allowed}"),
        )
        .with_header_hint(allowed)
    }

    /// 429 `queue_full`: the pool's bounded priority queue rejected the
    /// job — the serving-layer face of `SubmitError::QueueFull`.
    pub fn queue_full(detail: impl Into<String>, retry_after: u64) -> Self {
        let mut p = Self::new(429, "queue_full", "job queue is full", detail);
        p.retry_after = Some(retry_after);
        p
    }

    /// 429 `quota_exhausted`: the client's token bucket is empty.
    pub fn quota_exhausted(detail: impl Into<String>, retry_after: u64) -> Self {
        let mut p = Self::new(429, "quota_exhausted", "client quota exhausted", detail);
        p.retry_after = Some(retry_after);
        p
    }

    /// 408 `request_timeout`: the request's head and body did not
    /// arrive within the server's per-request deadline.
    pub fn request_timeout(detail: impl Into<String>) -> Self {
        Self::new(408, "request_timeout", "request timeout", detail)
    }

    /// 413 `payload_too_large`: the declared body exceeds the limit.
    pub fn payload_too_large(detail: impl Into<String>) -> Self {
        Self::new(413, "payload_too_large", "request body too large", detail)
    }

    /// 503 `shutting_down`: the pool is draining and accepts no new jobs.
    pub fn shutting_down() -> Self {
        Self::new(
            503,
            "shutting_down",
            "server is shutting down",
            "the pool no longer accepts submissions",
        )
    }

    /// 500 `internal`: a server-side invariant broke.
    pub fn internal(detail: impl Into<String>) -> Self {
        Self::new(500, "internal", "internal server error", detail)
    }

    /// Attaches a structured context entry (builder style).
    pub fn with_context(mut self, key: impl Into<String>, value: Json) -> Self {
        self.context.push((key.into(), value));
        self
    }

    fn with_header_hint(mut self, allowed: &str) -> Self {
        self.context
            .push(("allow".into(), Json::str(allowed.to_string())));
        self
    }

    /// The problem as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("type".to_string(), Json::str("about:blank")),
            ("title".to_string(), Json::str(self.title.clone())),
            ("status".to_string(), Json::Int(i64::from(self.status))),
            ("code".to_string(), Json::str(self.code.clone())),
            ("detail".to_string(), Json::str(self.detail.clone())),
        ];
        if !self.context.is_empty() {
            pairs.push(("context".to_string(), Json::Obj(self.context.clone())));
        }
        if let Some(secs) = self.retry_after {
            pairs.push(("retry_after_seconds".to_string(), Json::uint(secs)));
        }
        Json::Obj(pairs)
    }

    /// Renders the problem as an HTTP response
    /// (`application/problem+json`, plus `Retry-After` when hinted and
    /// `Allow` on 405s).
    pub fn into_response(self) -> Response {
        let mut response = Response::new(self.status)
            .with_header("content-type", "application/problem+json")
            .with_body(self.to_json().encode().into_bytes());
        if let Some(secs) = self.retry_after {
            response = response.with_header("retry-after", secs.to_string());
        }
        if self.status == 405 {
            if let Some(allow) = self.context.iter().find(|(k, _)| k == "allow") {
                if let Some(v) = allow.1.as_str() {
                    response = response.with_header("allow", v.to_string());
                }
            }
        }
        debug_assert!(!reason_phrase(self.status).is_empty());
        response
    }
}

/// The one error→problem table: every lifecycle and submit failure the
/// job service reports becomes its problem document here.
impl From<ServiceError> for ProblemJson {
    fn from(error: ServiceError) -> Self {
        let conflict = |detail: String, phase: &str| {
            ProblemJson::state_conflict(detail).with_context("phase", Json::str(phase))
        };
        match error {
            ServiceError::UnknownJob(id) => ProblemJson::not_found(format!("no job with id {id}"))
                .with_context("id", Json::uint(id)),
            ServiceError::NotFinished { id, phase } => conflict(
                format!(
                    "job {id} has not finished; poll GET /jobs/{id} until its phase is \
                     \"finished\""
                ),
                phase,
            ),
            ServiceError::NoResult(id) => conflict(
                format!("job {id} was cancelled while queued; it has no result"),
                "cancelled",
            ),
            ServiceError::AlreadyCancelled(id) => conflict(
                format!("job {id} is already cancelled; nothing left to cancel"),
                "cancelled",
            ),
            ServiceError::AlreadyRunning(id) => conflict(
                format!("job {id} is already running; only queued jobs can be cancelled"),
                "running",
            ),
            ServiceError::AlreadyFinished { id, phase } => conflict(
                format!("job {id} already finished; nothing to cancel"),
                phase,
            ),
            ServiceError::JobFailed { id, detail } => {
                ProblemJson::new(500, "job_failed", "job execution failed", detail)
                    .with_context("id", Json::uint(id))
            }
            ServiceError::QuotaExhausted {
                client,
                retry_after,
            } => ProblemJson::quota_exhausted(
                format!("client '{client}' has spent its submission quota"),
                retry_after,
            )
            .with_context("client", Json::str(client)),
            ServiceError::NotUtf8 => ProblemJson::bad_request("request body is not UTF-8"),
            ServiceError::NotJson(e) => {
                ProblemJson::bad_request(format!("body is not valid JSON: {e}"))
            }
            ServiceError::Invalid(FieldError { detail, context }) => ProblemJson {
                context,
                ..ProblemJson::validation(detail)
            },
            ServiceError::Rejected(SubmitError::QueueFull { priority, depth }) => {
                ProblemJson::queue_full(
                    format!("the {priority:?}-priority queue is at its bound of {depth}"),
                    QUEUE_RETRY_AFTER_SECS,
                )
                .with_context("depth", Json::uint(depth as u64))
            }
            ServiceError::Rejected(SubmitError::InvalidJob(e)) => {
                ProblemJson::validation(format!("job rejected at submit: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_code_are_paired_by_construction() {
        assert_eq!(ProblemJson::not_found("x").status, 404);
        assert_eq!(ProblemJson::state_conflict("x").status, 409);
        assert_eq!(ProblemJson::validation("x").status, 422);
        assert_eq!(ProblemJson::request_timeout("x").status, 408);
        assert_eq!(ProblemJson::queue_full("x", 1).status, 429);
        assert_eq!(ProblemJson::quota_exhausted("x", 1).status, 429);
    }

    #[test]
    fn retry_after_lands_in_header_and_body() {
        let response = ProblemJson::queue_full("full", 3).into_response();
        assert!(response
            .headers
            .iter()
            .any(|(k, v)| k == "retry-after" && v == "3"));
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("\"retry_after_seconds\":3"));
    }

    #[test]
    fn method_not_allowed_carries_allow_header() {
        let response = ProblemJson::method_not_allowed("GET, DELETE").into_response();
        assert_eq!(response.status, 405);
        assert!(response
            .headers
            .iter()
            .any(|(k, v)| k == "allow" && v == "GET, DELETE"));
    }
}
