//! # ddc-server
//!
//! The serving subsystem of the DDC workspace: a dependency-free
//! HTTP/1.1 server over [`ddc_engine::Engine`] that turns the library
//! into a long-running search service — the ROADMAP's step from
//! reproduction toward production.
//!
//! ```text
//!        TcpListener ──▶ reactor thread (epoll / poll fallback)
//!                         │ nonblocking accept + readiness loop
//!                         │ per-conn state machines frame requests
//!                         │ incrementally; idle sweep enforces
//!                         │ read timeouts and the connection cap
//!              ┌──────────┴──────────┐
//!              │ POST /search        │ everything else
//!              │ POST /search_batch  │
//!              ▼                     ▼
//!     one search handler      WorkerPool job
//!      → BatchCollector        (parse body → route → respond)
//!      (coalesces concurrent
//!       requests into one
//!       batched engine call)
//!              └──────────┬──────────┘
//!                         ▼ completion queue wakes the reactor,
//!                           which flushes responses nonblockingly
//!            ServingHandle (epoch-stamped Arc<Engine> slot)
//!              swap() installs a rebuilt/reopened engine
//!              atomically, mid-traffic
//! ```
//!
//! Connections are multiplexed on one reactor thread, so idle
//! keep-alive clients cost a registered fd each instead of a blocked
//! worker. Every search takes one request path: `/search` and
//! `/search_batch` bodies parse into the same request (`/search` is a
//! batch of one, an absent `filter` is `None`), and concurrent requests
//! that arrive within the coalescing window and agree on `k`,
//! `ef`/`nprobe` and predicate share one batched engine call with
//! bit-identical results to solo execution; the window adapts toward
//! zero when traffic is solo (see `docs/ARCHITECTURE.md`).
//!
//! Endpoints (all JSON):
//!
//! | endpoint | method | purpose |
//! |----------|--------|---------|
//! | `/healthz` | GET | liveness + current epoch and specs |
//! | `/stats` | GET | [`ddc_engine::EngineStats`] snapshot + the work ledger since boot (`queries`, `counters`; `batches` = collector engine calls) + connection, coalescing, and mutation counters |
//! | `/metrics` | GET | Prometheus text exposition: request/status ledger, latency + stage histograms, DCO work series, engine/storage gauges |
//! | `/search` | POST | `{"query": [...], "k": 10}` → ids + distances; optional `ef` / `nprobe`, a `"metric"` assertion, a `"filter"` predicate over payload tags, and `"explain": true` for a `trace` block |
//! | `/search_batch` | POST | `{"queries": [[...], ...], "k": 10}` → `results: [...]`; the same optional fields as `/search` (the filter applies to every query, the trace is one block per request), coalesced with `/search` |
//! | `/upsert` | POST | `{"id": 7, "vector": [...]}` — insert or replace a row (mutable boots) |
//! | `/delete` | POST | `{"id": 7}` — tombstone a row (mutable boots) |
//! | `/admin/compact` | POST | `{}` or `{"mode": "full"}` — compact pending mutations now; the reply's `mode` is `append`, `repair`, `fold` or `none` (mutable boots) |
//! | `/admin/swap` | POST | `{"index": "...", "dco": "..."}` or `{"snapshot": "file"}` (immutable boots) |
//!
//! A server over heap-resident rows ([`Server::bind_mutable`], the
//! `ddc-serve` default there) serves a [`ddc_engine::MutableEngine`]:
//! mutations are visible to searches immediately and a background
//! compactor works them into replacement engines landed through the
//! epoch-stamped swap — on such boots `/admin/swap` is disabled (the
//! compactor owns swaps), while immutable boots answer the mutation
//! endpoints with `400`.
//!
//! Every response carries the engine `epoch` that served it, so a client
//! can attribute results across hot swaps. There are **no external
//! dependencies**: HTTP framing ([`http`]) and JSON ([`json`]) are
//! hand-rolled the way `compat/` vendors rand/proptest.
//!
//! ## Example: serve, query, shut down
//!
//! ```
//! use ddc_engine::{Engine, EngineConfig};
//! use ddc_server::{Server, ServerConfig};
//! use ddc_vecs::SynthSpec;
//! use std::io::{Read, Write};
//!
//! let w = SynthSpec::tiny_test(8, 150, 11).generate();
//! let engine = Engine::build(
//!     &w.base,
//!     None,
//!     EngineConfig::from_strs("flat", "exact").unwrap(),
//! )
//! .unwrap();
//!
//! let cfg = ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     workers: 2,
//!     ..Default::default()
//! };
//! let server = Server::bind(&cfg, engine, w.base.clone(), None).unwrap();
//! let guard = server.spawn().unwrap();
//!
//! let mut conn = std::net::TcpStream::connect(guard.addr()).unwrap();
//! conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
//!     .unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
//! assert!(reply.contains("\"status\":\"ok\""));
//!
//! guard.shutdown();
//! ```

#[cfg(test)]
mod codec_tests;
mod conn;
pub mod error;
pub mod http;
pub mod json;
mod metrics;
mod reactor;
mod routes;
pub mod server;

pub use error::ServerError;
pub use http::{Request, Response};
pub use json::Json;
pub use server::{Server, ServerConfig, ServerGuard};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServerError>;
