//! Transport-level battery for the persistent-connection HTTP stack:
//! keep-alive reuse, connection caps, timeouts, malformed-framing
//! rejection, and pooled-client failover across a backend restart.
//!
//! Everything here runs over live loopback TCP — these are the tests
//! that pin down the *connection lifecycle* semantics the unit tests in
//! `src/` can't see from inside one process half.
//!
//! Every scenario runs against **both** engines ([`Transport::Reactor`]
//! and [`Transport::WorkerPool`]) via the `transport_battery!` macro at
//! the bottom: the reactor must be observably indistinguishable from
//! the blocking baseline across the whole lifecycle, and a `poll(2)`
//! smoke group keeps the non-epoll fallback honest on Linux too.

use cm_httpkit::{
    send, HttpServer, PooledClient, ReactorBackend, RemoteService, ServerConfig, Transport,
};
use cm_model::HttpMethod;
use cm_rest::{Json, RestRequest, RestResponse, SharedRestService, StatusCode};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Handler = dyn Fn(RestRequest) -> RestResponse + Send + Sync;

/// Echo the path back so tests can tie responses to requests.
fn echo_handler() -> Arc<Handler> {
    Arc::new(|req: RestRequest| {
        RestResponse::ok(Json::object(vec![("path", Json::Str(req.path.clone()))]))
    })
}

fn path_of(resp: &RestResponse) -> String {
    resp.body
        .as_ref()
        .and_then(|b| b.get("path"))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Default config pinned to one transport.
fn cfg(transport: Transport) -> ServerConfig {
    ServerConfig {
        transport,
        ..ServerConfig::default()
    }
}

/// Bind a server on `addr`, retrying briefly — used to rebind the same
/// port after a shutdown while old sockets may linger in TIME_WAIT.
fn bind_retrying(addr: SocketAddr, config: ServerConfig) -> HttpServer {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match HttpServer::bind_with(addr, echo_handler(), config.clone()) {
            Ok(server) => return server,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    }
}

/// One pooled client, many requests: the whole burst must ride on a
/// single accepted connection, reused for every request after the first.
fn keep_alive_reuses_one_connection(config: ServerConfig) {
    let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    let addr = server.local_addr();
    let client = PooledClient::default();
    for i in 0..20 {
        let resp = client
            .request(addr, &RestRequest::new(HttpMethod::Get, format!("/r/{i}")))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(path_of(&resp), format!("/r/{i}"));
    }
    assert_eq!(server.connections_accepted(), 1, "one TCP connect total");
    assert_eq!(client.connections_opened(), 1);
    assert_eq!(client.connections_reused(), 19);
    server.shutdown();
}

/// A connection idle past `idle_timeout` is closed by the server; the
/// pooled client notices the stale socket at checkout and transparently
/// opens a fresh one.
fn idle_timeout_closes_and_client_recovers(config: ServerConfig) {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..config
    };
    let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    let addr = server.local_addr();
    let client = PooledClient::default();

    let resp = client
        .request(addr, &RestRequest::new(HttpMethod::Get, "/warm"))
        .unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(client.idle_count(addr), 1, "connection parked for reuse");

    // Sit out the idle window; the server must close its end.
    std::thread::sleep(Duration::from_millis(500));

    let resp = client
        .request(addr, &RestRequest::new(HttpMethod::Get, "/after-idle"))
        .unwrap();
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(path_of(&resp), "/after-idle");
    assert_eq!(
        server.connections_accepted(),
        2,
        "idle-closed connection was replaced, not resurrected"
    );
    server.shutdown();
}

/// The server closes a connection after `max_requests_per_conn`
/// requests; a 5-request burst against a cap of 2 costs exactly 3
/// connections and loses no response.
fn max_requests_per_conn_caps_reuse(config: ServerConfig) {
    let config = ServerConfig {
        max_requests_per_conn: 2,
        ..config
    };
    let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    let addr = server.local_addr();
    let client = PooledClient::default();
    for i in 0..5 {
        let resp = client
            .request(addr, &RestRequest::new(HttpMethod::Get, format!("/n/{i}")))
            .unwrap();
        assert_eq!(path_of(&resp), format!("/n/{i}"));
    }
    assert_eq!(
        server.connections_accepted(),
        3,
        "ceil(5 / 2) connections for 5 requests at cap 2"
    );
    server.shutdown();
}

/// A request declaring an absurd `Content-Length` is answered with 400
/// and the connection is closed — the body is never buffered.
fn oversized_content_length_is_rejected_with_400(config: ServerConfig) {
    let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"POST /v3/1/volumes HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap(); // server closes after answering
    assert!(
        raw.starts_with("HTTP/1.1 400"),
        "expected a 400 reject, got: {raw:?}"
    );
    assert!(raw.to_ascii_lowercase().contains("connection: close"));
    server.shutdown();
}

/// A client that starts a request and then stalls mid-parse is cut off
/// by the slow-client read timeout rather than pinning a worker (or a
/// reactor shard's attention) forever.
fn slow_client_is_disconnected_by_read_timeout(config: ServerConfig) {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_secs(30),
        ..config
    };
    let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Half a request line, then silence.
    stream.write_all(b"GET /stalled HT").unwrap();
    let start = Instant::now();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // must return once the server gives up
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "server should cut the stalled connection promptly"
    );
    let raw = String::from_utf8_lossy(&raw);
    assert!(
        raw.is_empty() || raw.starts_with("HTTP/1.1 400"),
        "stalled parse either closes silently or answers 400, got: {raw:?}"
    );
    server.shutdown();
}

/// Kill the backend and bring a new one up on the same port: the pooled
/// client's parked connection is dead, and the next request must
/// transparently reconnect instead of failing.
fn pooled_client_reconnects_after_backend_restart(config: ServerConfig) {
    let first = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config.clone()).unwrap();
    let addr = first.local_addr();
    let client = PooledClient::default();
    let resp = client
        .request(addr, &RestRequest::new(HttpMethod::Get, "/before"))
        .unwrap();
    assert_eq!(path_of(&resp), "/before");
    first.shutdown();

    let second = bind_retrying(addr, config);
    let resp = client
        .request(addr, &RestRequest::new(HttpMethod::Get, "/after"))
        .unwrap();
    assert_eq!(path_of(&resp), "/after");
    assert_eq!(
        client.connections_opened(),
        2,
        "exactly one reconnect for the restart"
    );
    second.shutdown();
}

/// The failure contract from DESIGN §4f: a *stale* pooled connection
/// surfaces as a silent retry-once inside `RemoteService::call`, never
/// as a 502 to the monitor. Only a backend that is actually down maps
/// to BAD_GATEWAY.
fn stale_pooled_connection_is_retried_not_bad_gateway(config: ServerConfig) {
    let first = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config.clone()).unwrap();
    let addr = first.local_addr();
    let service = RemoteService::new(addr);
    assert_eq!(
        service
            .call(&RestRequest::new(HttpMethod::Get, "/seed"))
            .status,
        StatusCode::OK
    );
    first.shutdown();

    // Backend restarted: the parked connection is stale but the service
    // must come back with the real answer, not BAD_GATEWAY.
    let second = bind_retrying(addr, config);
    let resp = service.call(&RestRequest::new(HttpMethod::Get, "/again"));
    assert_eq!(
        resp.status,
        StatusCode::OK,
        "stale conn must retry: {resp:?}"
    );
    assert_eq!(path_of(&resp), "/again");
    second.shutdown();

    // Backend gone for real: now — and only now — 502.
    let resp = service.call(&RestRequest::new(HttpMethod::Get, "/down"));
    assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
}

/// `call_batch` issues all requests of a probe cycle back-to-back over
/// one pooled connection.
fn call_batch_rides_one_connection(config: ServerConfig) {
    let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    let service = RemoteService::new(server.local_addr());
    let requests: Vec<RestRequest> = (0..6)
        .map(|i| RestRequest::new(HttpMethod::Get, format!("/probe/{i}")))
        .collect();
    let responses = service.call_batch(&requests);
    assert_eq!(responses.len(), 6);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(path_of(resp), format!("/probe/{i}"));
    }
    assert_eq!(server.connections_accepted(), 1, "whole batch on one conn");
    server.shutdown();
}

/// A budget of one request per connection turns keep-alive off: every
/// response carries `Connection: close` and each request costs one
/// accepted connection even through a pooled client.
fn keep_alive_off_closes_every_connection(config: ServerConfig) {
    let config = ServerConfig {
        max_requests_per_conn: 1,
        ..config
    };
    let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    let addr = server.local_addr();
    let client = PooledClient::default();
    for i in 0..4 {
        let resp = client
            .request(addr, &RestRequest::new(HttpMethod::Get, format!("/c/{i}")))
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }
    assert_eq!(server.connections_accepted(), 4);
    assert_eq!(client.idle_count(addr), 0, "closed conns are never parked");
    server.shutdown();
}

/// The one-shot `send` client and the pooled client interoperate against
/// the same server without stealing each other's responses.
fn one_shot_and_pooled_clients_coexist(config: ServerConfig) {
    let server = HttpServer::bind_with("127.0.0.1:0", echo_handler(), config).unwrap();
    let addr = server.local_addr();
    let client = PooledClient::default();
    for i in 0..3 {
        let pooled = client
            .request(addr, &RestRequest::new(HttpMethod::Get, format!("/p/{i}")))
            .unwrap();
        assert_eq!(path_of(&pooled), format!("/p/{i}"));
        let oneshot = send(addr, &RestRequest::new(HttpMethod::Get, format!("/o/{i}"))).unwrap();
        assert_eq!(path_of(&oneshot), format!("/o/{i}"));
    }
    // 1 pooled connection + 3 one-shot connections.
    assert_eq!(server.connections_accepted(), 4);
    server.shutdown();
}

/// Instantiate every scenario once per transport (and once on the
/// forced-`poll(2)` reactor, keeping the fallback path green on Linux).
macro_rules! transport_battery {
    ($($name:ident),* $(,)?) => {
        mod reactor {
            use super::*;
            $(
                #[test]
                fn $name() {
                    super::$name(cfg(Transport::Reactor));
                }
            )*
        }
        mod worker_pool {
            use super::*;
            $(
                #[test]
                fn $name() {
                    super::$name(cfg(Transport::WorkerPool));
                }
            )*
        }
        mod reactor_poll_backend {
            use super::*;
            $(
                #[test]
                fn $name() {
                    super::$name(ServerConfig {
                        reactor_backend: ReactorBackend::Poll,
                        ..cfg(Transport::Reactor)
                    });
                }
            )*
        }
    };
}

transport_battery!(
    keep_alive_reuses_one_connection,
    idle_timeout_closes_and_client_recovers,
    max_requests_per_conn_caps_reuse,
    oversized_content_length_is_rejected_with_400,
    slow_client_is_disconnected_by_read_timeout,
    pooled_client_reconnects_after_backend_restart,
    stale_pooled_connection_is_retried_not_bad_gateway,
    call_batch_rides_one_connection,
    keep_alive_off_closes_every_connection,
    one_shot_and_pooled_clients_coexist,
);
