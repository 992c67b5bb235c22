//! The real two-hop topology in one process: cloudsim behind an
//! `HttpServer`, a `CloudMonitor` over `RemoteService` with a durable
//! audit log, served by a reactor `HttpServer`.

use crate::trace::{self, PhaseSink, TracedAudit, TracedUpstream};
use crate::workload::{Fixtures, Workload};
use cm_audit::{AuditLog, AuditLogOptions, AuditRecorder};
use cm_cloudsim::PrivateCloud;
use cm_core::{cinder_monitor, Mode, DEFAULT_EVENT_CAPACITY};
use cm_httpkit::{Handler, HttpServer, RemoteService, ServerConfig};
use cm_obs::{MetricsRegistry, RingBufferSink, TeeSink};
use cm_rest::SharedRestService;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running topology.
#[derive(Debug)]
pub struct Topology {
    cloud_server: HttpServer,
    monitor_server: HttpServer,
    /// Where clients connect.
    pub addr: SocketAddr,
    /// The monitor's metrics registry (also fed by the audit log).
    pub metrics: Arc<MetricsRegistry>,
    /// The durable audit log.
    pub audit: Arc<AuditLog>,
    /// Tokens and ids the generators use.
    pub fixtures: Arc<Fixtures>,
    /// Set-up time: building the cloud, generating and compiling the
    /// contracts, opening the audit log, binding both servers and
    /// authenticating the monitor. Fixture issuing is excluded.
    pub setup: Duration,
    audit_dir: PathBuf,
}

/// Server settings for the monitor: the defaults, except that one
/// connection may carry a whole run (the generator never reconnects).
fn monitor_config() -> ServerConfig {
    ServerConfig {
        max_requests_per_conn: 1 << 30,
        ..ServerConfig::default()
    }
}

impl Topology {
    /// Stand the topology up with a fresh audit log in `audit_dir`.
    /// `traced` installs the span recorders (recording starts only with
    /// [`trace::set_tracing`]).
    ///
    /// # Errors
    ///
    /// Bind, audit-log, model or authentication failures.
    pub fn stand_up(
        workload: Workload,
        audit_dir: PathBuf,
        traced: bool,
    ) -> Result<Topology, String> {
        let clock = Instant::now();
        let cloud = match workload.projects() {
            None => PrivateCloud::my_project(),
            Some(n) => PrivateCloud::multi_project(n),
        };
        let mut setup = clock.elapsed();
        let fixtures = Arc::new(Fixtures::issue(workload, &cloud)?);

        let clock = Instant::now();
        let cloud = Arc::new(cloud);
        let cloud_handler: Arc<Handler> = Arc::new(move |req| cloud.call(&req));
        let cloud_handler = if traced {
            trace::cloud_handler(cloud_handler)
        } else {
            cloud_handler
        };
        let cloud_server =
            HttpServer::bind_with("127.0.0.1:0", cloud_handler, ServerConfig::default())
                .map_err(|e| format!("bind cloud server: {e}"))?;
        let remote = RemoteService::new(cloud_server.local_addr());
        let built = if traced {
            monitor(workload, TracedUpstream(remote), &audit_dir, true)
        } else {
            monitor(workload, remote, &audit_dir, false)
        };
        let (handler, metrics, audit) = match built {
            Ok(built) => built,
            Err(e) => {
                cloud_server.shutdown();
                return Err(e);
            }
        };
        let monitor_server = match HttpServer::bind_with("127.0.0.1:0", handler, monitor_config()) {
            Ok(server) => server,
            Err(e) => {
                cloud_server.shutdown();
                return Err(format!("bind monitor server: {e}"));
            }
        };
        setup += clock.elapsed();
        Ok(Topology {
            addr: monitor_server.local_addr(),
            cloud_server,
            monitor_server,
            metrics,
            audit,
            fixtures,
            setup,
            audit_dir,
        })
    }

    /// Stop both servers, close the audit log and delete its directory.
    pub fn tear_down(self) {
        self.monitor_server.shutdown();
        self.cloud_server.shutdown();
        // The server dropped the monitor and its recorder, so this is
        // normally the last handle and dropping it closes the log.
        let _ = self.audit.flush();
        drop(self.audit);
        let _ = std::fs::remove_dir_all(&self.audit_dir);
    }
}

type Built = (Arc<Handler>, Arc<MetricsRegistry>, Arc<AuditLog>);

/// Generate, configure and authenticate the monitor over `upstream`.
fn monitor<S: SharedRestService + 'static>(
    workload: Workload,
    upstream: S,
    audit_dir: &Path,
    traced: bool,
) -> Result<Built, String> {
    let mut monitor = cinder_monitor(upstream)
        .map_err(|e| e.to_string())?
        .mode(Mode::Enforce)
        .snapshot_policy(workload.binding());
    let metrics = monitor.metrics();
    std::fs::create_dir_all(audit_dir).map_err(|e| format!("audit dir: {e}"))?;
    let (log, _) = AuditLog::open(
        audit_dir,
        AuditLogOptions::default(),
        Some(monitor.metrics()),
    )
    .map_err(|e| format!("open audit log: {e}"))?;
    let audit = Arc::new(log);
    let recorder: Arc<dyn AuditRecorder> = if traced {
        Arc::new(TracedAudit(Arc::clone(&audit)))
    } else {
        Arc::clone(&audit) as Arc<dyn AuditRecorder>
    };
    monitor = monitor.audit_recorder(recorder);
    if traced {
        monitor = monitor.event_sink(Arc::new(TeeSink::new(
            RingBufferSink::new(DEFAULT_EVENT_CAPACITY),
            PhaseSink,
        )));
    }
    monitor
        .authenticate("alice", "alice-pw")
        .map_err(|e| e.to_string())?;
    if let Some(n) = workload.projects() {
        for pid in 1..=n as u64 {
            monitor
                .authenticate_scoped("alice", "alice-pw", pid)
                .map_err(|e| e.to_string())?;
        }
    }
    let monitor = Arc::new(monitor);
    let handler: Arc<Handler> = Arc::new(move |req| monitor.call(&req));
    let handler = if traced {
        trace::monitor_handler(handler)
    } else {
        handler
    };
    Ok((handler, metrics, audit))
}
