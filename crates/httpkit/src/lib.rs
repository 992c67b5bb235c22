//! # cm-httpkit — a minimal HTTP/1.1 transport
//!
//! The wire layer that lets the generated cloud monitor run as a real
//! network proxy (the paper drives its monitor with cURL): HTTP/1.1
//! message framing over `std::net` TCP with persistent (keep-alive)
//! connections on both sides of the proxy.
//!
//! * [`wire`] — request/response parsing and serialisation
//!   (`Content-Length` framing, JSON bodies, size limits, reusable
//!   serialisation buffers, incremental parsing for pipelined input);
//! * [`HttpServer`] — a keep-alive server with two engines behind one
//!   API ([`ServerConfig::transport`]): the default **readiness-driven
//!   reactor** ([`reactor`] — per-core epoll/poll event-loop shards,
//!   request pipelining, vectored writes, [`timer`]-wheel deadlines) and
//!   the blocking **bounded worker pool** (the non-Unix engine and the
//!   reactor's parity reference);
//! * [`PooledClient`] — a per-address pool of keep-alive client
//!   connections with health-checked checkout, reconnect-once on stale
//!   connections, and a batched probe path;
//! * [`resilience`] — deadline budgets, capped seeded-jitter backoff,
//!   and per-backend circuit breakers threaded through the client;
//! * [`send`] — the one-shot (`Connection: close`) client;
//! * [`RemoteService`] — the pooled backend adapter the monitor proxies
//!   through;
//! * [`AdminRoutes`] — the `/-/metrics`, `/-/events` and `/-/health`
//!   observability endpoints served in front of an application handler.
//!
//! ## Example
//!
//! ```
//! use cm_httpkit::{send, HttpServer};
//! use cm_model::HttpMethod;
//! use cm_rest::{Json, RestRequest, RestResponse};
//! use std::sync::Arc;
//!
//! let server = HttpServer::bind(
//!     "127.0.0.1:0",
//!     Arc::new(|_req| RestResponse::ok(Json::Str("hello".into()))),
//! )?;
//! let resp = send(server.local_addr(), &RestRequest::new(HttpMethod::Get, "/"))?;
//! assert_eq!(resp.body, Some(Json::Str("hello".into())));
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admin;
pub mod client;
#[cfg(unix)]
pub mod reactor;
pub mod resilience;
pub mod server;
pub mod timer;
pub mod wire;

pub use admin::{AdminRoutes, ADMIN_PREFIX, DEFAULT_EVENT_TAIL};
pub use client::{ClientConfig, PooledClient, RemoteService};
pub use resilience::{
    Admission, BackoffSchedule, BreakerState, CircuitBreaker, DeadlineBudget, TransportError,
    TransportStats,
};
pub use server::{
    send, try_request_park, Handler, HttpServer, OverloadConfig, ReactorBackend, ServerConfig,
    ShedCause, ShedDecision, ShedObserver, Transport,
};
pub use timer::TimerWheel;
pub use wire::{
    read_request, read_request_buf, read_response, read_response_buf, serialize_request,
    serialize_response, serialize_response_parts, try_parse_request, wants_close, write_request,
    write_response, ConnectionMode, WireError,
};
