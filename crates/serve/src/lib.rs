//! `quma_serve`: a networked job-serving front end over
//! [`quma_pool`].
//!
//! The pool turned the single-session simulator into a multi-client
//! device; this crate turns the pool into a *service*. A dependency-free
//! HTTP/1.1 server (thread-per-connection, hand-rolled framing and JSON)
//! exposes the pool's job lifecycle:
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | `POST` | `/jobs` | submit shots / sweeps / template sweeps / experiments |
//! | `GET` | `/jobs` | paginated listing (`limit`, `offset`) |
//! | `GET` | `/jobs/{id}` | lifecycle status |
//! | `DELETE` | `/jobs/{id}` | typed cancel of queued jobs |
//! | `GET` | `/jobs/{id}/result` | the finished result document |
//! | `GET` | `/jobs/{id}/chunks` | streamed shot chunks (`from`) |
//! | `GET` | `/metrics` | pool/journal/serve metrics (JSON or Prometheus text) |
//! | `GET` | `/trace` | trace ring export as Chrome trace-event JSON |
//!
//! Each route parses its request, calls one job service (which owns the
//! pool, the quota ledger and the job records), and renders the result.
//! The service fails with a typed error, and one `From` impl maps every
//! such error to an RFC-7807-style problem document
//! ([`problem::ProblemJson`]): stable `code` strings, 409 for lifecycle
//! conflicts, 404 for unknown ids, and 429 with `Retry-After` both for
//! the pool's queue backpressure and for per-client token-bucket quotas
//! ([`quota::Quota`]).
//!
//! Determinism survives the wire: numbers are encoded in Rust's
//! shortest-round-trip decimal form, so a served job's shot records
//! parse back **bit-identical** to a direct
//! [`Session`](quma_core::engine::Session) run with the same seed plan —
//! the integration tests pin this.
//!
//! ```no_run
//! use quma_pool::prelude::{DevicePool, PoolConfig};
//! use quma_serve::prelude::*;
//!
//! let pool = DevicePool::new(PoolConfig::default()).unwrap();
//! let server = Server::start(pool, ServerConfig::new()).unwrap();
//! println!("serving on {}", server.base_url());
//! let mut client = MiniClient::connect(server.local_addr(), "demo");
//! let submit = client
//!     .post_json(
//!         "/jobs",
//!         &Json::obj([
//!             ("kind", Json::str("shots")),
//!             ("source", Json::str("Wait 4\nhalt\n")),
//!             ("shots", Json::Int(4)),
//!         ]),
//!     )
//!     .unwrap();
//! assert_eq!(submit.status, 201);
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod problem;
pub mod quota;
pub mod router;
pub mod server;
mod service;
mod wire;

pub use client::{MiniClient, MiniResponse};
pub use json::Json;
pub use problem::ProblemJson;
pub use quota::{Quota, QuotaLedger};
pub use router::{route, Route, RouteMatch, ROUTES};
pub use server::{Server, ServerConfig, API_VERSION};

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::client::{MiniClient, MiniResponse};
    pub use crate::json::Json;
    pub use crate::problem::ProblemJson;
    pub use crate::quota::{Quota, QuotaLedger};
    pub use crate::router::{route, Route, RouteMatch, ROUTES};
    pub use crate::server::{Server, ServerConfig, API_VERSION};
}
