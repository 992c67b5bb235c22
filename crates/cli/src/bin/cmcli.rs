//! `cmcli` — the cloud-monitor toolbox; see `cmcli --help`.

use cm_cli::{
    cmd_audit, cmd_codegen, cmd_contracts, cmd_export_cinder, cmd_metrics, cmd_models,
    cmd_mutate_campaign, cmd_rbac_lint, cmd_slice, cmd_table1, cmd_validate, parse_criterion,
    usage, CliError,
};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((output, ok)) => {
            print!("{output}");
            if !output.ends_with('\n') {
                println!();
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                // A gate failed (kill-matrix regression, lint finding):
                // the report above says why — no usage dump.
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

/// The flags `cmcli serve` accepts besides `--extended`; each takes a
/// value.
const SERVE_VALUE_FLAGS: &[&str] = &[
    "--port",
    "--degraded-policy",
    "--snapshot-policy",
    "--anti-entropy-every",
    "--identity-ttl-secs",
    "--identity-cache-cap",
    "--request-deadline-ms",
    "--breaker-threshold",
    "--overload",
    "--overload-deadline-ms",
    "--overload-queue-limit",
    "--audit-dir",
    "--audit-max-age-secs",
];

/// Reject any `serve` argument that is neither a known flag nor the
/// value right after one: a retired or misspelt flag must fail, not
/// silently run the defaults.
fn check_serve_args(rest: &[&str]) -> Result<(), CliError> {
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if SERVE_VALUE_FLAGS.contains(arg) {
            args.next();
        } else if *arg != "--extended" {
            return Err(CliError(format!("unknown serve argument `{arg}`")));
        }
    }
    Ok(())
}

/// Flag value lookup for `--flag VALUE` style arguments.
fn flag_value<'a>(rest: &[&'a str], flag: &str) -> Result<Option<&'a str>, CliError> {
    match rest.iter().position(|a| *a == flag) {
        None => Ok(None),
        Some(pos) => rest
            .get(pos + 1)
            .copied()
            .filter(|v| !v.starts_with("--"))
            .map(Some)
            .ok_or(CliError(format!("{flag} needs a value"))),
    }
}

fn run(args: &[String]) -> Result<(String, bool), CliError> {
    let rest: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
    match args.first().map(String::as_str) {
        // The gated commands: their reports decide the exit code.
        Some("mutate") => {
            if rest.first() != Some(&"campaign") {
                return Err(CliError("mutate needs the `campaign` subcommand".into()));
            }
            let out = flag_value(&rest, "--out")?.map(Path::new);
            let baseline = flag_value(&rest, "--baseline")?.map(Path::new);
            cmd_mutate_campaign(out, baseline)
        }
        Some("rbac") => {
            if rest.first() != Some(&"lint") {
                return Err(CliError("rbac needs the `lint` subcommand".into()));
            }
            cmd_rbac_lint(rest.get(1).map(Path::new))
        }
        Some("audit") if rest.first() == Some(&"replay") => {
            let dir = rest
                .get(1)
                .filter(|v| !v.starts_with("--"))
                .ok_or(CliError("audit replay needs <log-dir>".into()))?;
            cm_cli::cmd_audit_replay(Path::new(dir), rest.contains(&"--extended"))
        }
        Some("audit") if rest.first() == Some(&"verify") => {
            let dir = rest
                .get(1)
                .ok_or(CliError("audit verify needs <log-dir>".into()))?;
            cm_cli::cmd_audit_verify(Path::new(dir))
        }
        _ => run_inner(args).map(|text| (text, true)),
    }
}

fn run_inner(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("--help" | "-h" | "help") => Ok(usage().to_string()),
        Some("export-cinder") => {
            let first = it
                .next()
                .ok_or(CliError("export-cinder needs <out.xmi>".into()))?;
            if first == "--extended" {
                let out = it
                    .next()
                    .ok_or(CliError("export-cinder needs <out.xmi>".into()))?;
                cm_cli::cmd_export_cinder_extended(Path::new(out))
            } else {
                cmd_export_cinder(Path::new(first))
            }
        }
        Some("validate") => {
            let xmi = it.next().ok_or(CliError("validate needs <xmi>".into()))?;
            cmd_validate(Path::new(xmi))
        }
        Some("models") => {
            let xmi = it.next().ok_or(CliError("models needs <xmi>".into()))?;
            let dot = it.next() == Some("--dot");
            cmd_models(Path::new(xmi), dot)
        }
        Some("contracts") => {
            let xmi = it.next().ok_or(CliError("contracts needs <xmi>".into()))?;
            let rest: Vec<&str> = it.collect();
            cmd_contracts(
                Path::new(xmi),
                rest.contains(&"--simplify"),
                rest.contains(&"--weave-table1"),
                rest.contains(&"--stats"),
            )
        }
        Some("slice") => {
            let xmi = it.next().ok_or(CliError("slice needs <xmi>".into()))?;
            let kind = it
                .next()
                .ok_or(CliError("slice needs a criterion flag".into()))?;
            let values = it.next().ok_or(CliError("criterion needs values".into()))?;
            let out = it.next().ok_or(CliError("slice needs <out.xmi>".into()))?;
            let criterion = parse_criterion(kind, values)?;
            cmd_slice(Path::new(xmi), &criterion, Path::new(out))
        }
        Some("table1") => Ok(cmd_table1()),
        Some("codegen") => {
            let name = it
                .next()
                .ok_or(CliError("codegen needs <project>".into()))?;
            let xmi = it.next().ok_or(CliError("codegen needs <xmi>".into()))?;
            let dir = it
                .next()
                .ok_or(CliError("codegen needs <out-dir>".into()))?;
            let mut cloud_url = "http://127.0.0.1:8776".to_string();
            let rest: Vec<&str> = it.collect();
            if let Some(pos) = rest.iter().position(|a| *a == "--cloud-url") {
                cloud_url = rest
                    .get(pos + 1)
                    .ok_or(CliError("--cloud-url needs a value".into()))?
                    .to_string();
            }
            cmd_codegen(name, Path::new(xmi), Path::new(dir), &cloud_url)
        }
        Some("audit") => Ok(cmd_audit()),
        Some("serve") => {
            let rest: Vec<&str> = it.collect();
            check_serve_args(&rest)?;
            let mut port = 8000u16;
            if let Some(pos) = rest.iter().position(|a| *a == "--port") {
                port = rest
                    .get(pos + 1)
                    .and_then(|p| p.parse().ok())
                    .ok_or(CliError("--port needs a number".into()))?;
            }
            let mut policy = cm_core::DegradedPolicy::FailClosed;
            if let Some(pos) = rest.iter().position(|a| *a == "--degraded-policy") {
                policy = cm_cli::parse_degraded_policy(
                    rest.get(pos + 1)
                        .ok_or(CliError("--degraded-policy needs a value".into()))?,
                )?;
            }
            let mut snapshot_policy = cm_core::SnapshotPolicy::Full;
            if let Some(pos) = rest.iter().position(|a| *a == "--snapshot-policy") {
                snapshot_policy = cm_cli::parse_snapshot_policy(
                    rest.get(pos + 1)
                        .ok_or(CliError("--snapshot-policy needs a value".into()))?,
                )?;
            }
            let mut anti_entropy_every = 0u64;
            if let Some(pos) = rest.iter().position(|a| *a == "--anti-entropy-every") {
                anti_entropy_every = rest
                    .get(pos + 1)
                    .and_then(|n| n.parse().ok())
                    .ok_or(CliError("--anti-entropy-every needs a number".into()))?;
            }
            let mut identity_ttl = None;
            if let Some(pos) = rest.iter().position(|a| *a == "--identity-ttl-secs") {
                let secs: u64 = rest
                    .get(pos + 1)
                    .and_then(|n| n.parse().ok())
                    .ok_or(CliError("--identity-ttl-secs needs a number".into()))?;
                identity_ttl = Some(std::time::Duration::from_secs(secs));
            }
            let mut identity_cap = None;
            if let Some(pos) = rest.iter().position(|a| *a == "--identity-cache-cap") {
                identity_cap = Some(
                    rest.get(pos + 1)
                        .and_then(|n| n.parse().ok())
                        .filter(|n| *n > 0)
                        .ok_or(CliError(
                            "--identity-cache-cap needs a positive number".into(),
                        ))?,
                );
            }
            let mut client_config = cm_httpkit::ClientConfig::default();
            if let Some(pos) = rest.iter().position(|a| *a == "--request-deadline-ms") {
                let ms: u64 = rest
                    .get(pos + 1)
                    .and_then(|n| n.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or(CliError(
                        "--request-deadline-ms needs a positive number".into(),
                    ))?;
                client_config.request_deadline = std::time::Duration::from_millis(ms);
            }
            if let Some(pos) = rest.iter().position(|a| *a == "--breaker-threshold") {
                client_config.breaker_threshold = rest
                    .get(pos + 1)
                    .and_then(|n| n.parse().ok())
                    .ok_or(CliError("--breaker-threshold needs a number".into()))?;
            }
            let mut overload = cm_httpkit::OverloadConfig::default();
            if let Some(pos) = rest.iter().position(|a| *a == "--overload") {
                overload.enabled = match rest.get(pos + 1) {
                    Some(&"on") => true,
                    Some(&"off") => false,
                    _ => return Err(CliError("--overload needs on|off".into())),
                };
            }
            if let Some(pos) = rest.iter().position(|a| *a == "--overload-deadline-ms") {
                let ms: u64 = rest
                    .get(pos + 1)
                    .and_then(|n| n.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or(CliError(
                        "--overload-deadline-ms needs a positive number".into(),
                    ))?;
                overload.deadline = std::time::Duration::from_millis(ms);
            }
            if let Some(pos) = rest.iter().position(|a| *a == "--overload-queue-limit") {
                overload.queue_limit = rest
                    .get(pos + 1)
                    .and_then(|n| n.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or(CliError(
                        "--overload-queue-limit needs a positive number".into(),
                    ))?;
            }
            let mut audit_max_age = None;
            if let Some(pos) = rest.iter().position(|a| *a == "--audit-max-age-secs") {
                let secs: u64 = rest
                    .get(pos + 1)
                    .and_then(|n| n.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or(CliError(
                        "--audit-max-age-secs needs a positive number".into(),
                    ))?;
                audit_max_age = Some(std::time::Duration::from_secs(secs));
            }
            let audit_dir = flag_value(&rest, "--audit-dir")?.map(Path::new);
            serve(
                port,
                rest.contains(&"--extended"),
                policy,
                snapshot_policy,
                anti_entropy_every,
                identity_ttl,
                identity_cap,
                client_config,
                audit_dir,
                overload,
                audit_max_age,
            )
        }
        Some("metrics") => {
            let addr = it.next().ok_or(CliError("metrics needs <addr>".into()))?;
            let rest: Vec<&str> = it.collect();
            let mut events_tail = None;
            if let Some(pos) = rest.iter().position(|a| *a == "--events") {
                events_tail = Some(
                    rest.get(pos + 1)
                        .and_then(|n| n.parse().ok())
                        .ok_or(CliError("--events needs a number".into()))?,
                );
            }
            cmd_metrics(addr, events_tail, rest.contains(&"--health"))
        }
        Some(other) => Err(CliError(format!("unknown command `{other}`"))),
    }
}

/// Run the simulated private cloud with a generated monitor proxy in
/// front, both over HTTP, until the process is killed.
#[allow(clippy::too_many_arguments)]
fn serve(
    port: u16,
    extended: bool,
    policy: cm_core::DegradedPolicy,
    snapshot_policy: cm_core::SnapshotPolicy,
    anti_entropy_every: u64,
    identity_ttl: Option<std::time::Duration>,
    identity_cap: Option<usize>,
    client_config: cm_httpkit::ClientConfig,
    audit_dir: Option<&Path>,
    overload: cm_httpkit::OverloadConfig,
    audit_max_age: Option<std::time::Duration>,
) -> Result<String, CliError> {
    use cm_cloudsim::PrivateCloud;
    use cm_core::CloudMonitor;
    use cm_httpkit::{
        AdminRoutes, HttpServer, PooledClient, RemoteService, ServerConfig, ShedObserver,
    };
    use cm_model::cinder;
    use cm_obs::OverloadStats;
    use cm_rest::SharedRestService;
    use std::sync::Arc;

    // Overload accounting is shared: the monitor-facing server's
    // reactor shards write the stats, and the admin routes surface
    // them at /-/health and /-/metrics.
    let overload_enabled = overload.enabled;
    let overload_stats = Arc::new(OverloadStats::new());
    let overload = cm_httpkit::OverloadConfig {
        stats: Some(Arc::clone(&overload_stats)),
        ..overload
    };
    let overload_deadline = overload.deadline;
    let overload_queue_limit = overload.queue_limit;
    let mut monitor_config = ServerConfig {
        overload,
        ..ServerConfig::default()
    };

    // No outer Mutex: the cloud and the monitor both serve concurrent
    // requests through `&self`, synchronizing internally per shard.
    let cloud = Arc::new(PrivateCloud::my_project());
    let cloud_handle = Arc::clone(&cloud);
    let cloud_server = HttpServer::bind_with(
        "127.0.0.1:0",
        Arc::new(move |req| cloud_handle.call(&req)),
        ServerConfig::default(),
    )
    .map_err(|e| CliError(e.to_string()))?;

    let client = Arc::new(PooledClient::new(client_config));
    let remote = RemoteService::with_client(cloud_server.local_addr(), Arc::clone(&client));
    let monitor = if extended {
        CloudMonitor::generate_multi(
            &cinder::extended_resource_model(),
            &[
                &cinder::extended_behavioral_model(),
                &cinder::snapshot_behavioral_model(),
            ],
            None,
            remote,
        )
        .map_err(|e| CliError(e.message))?
    } else {
        CloudMonitor::generate(
            &cinder::resource_model(),
            &cinder::behavioral_model(),
            None,
            remote,
        )
        .map_err(|e| CliError(e.message))?
    };
    let mut monitor = monitor
        .degraded_policy(policy)
        .snapshot_policy(snapshot_policy)
        .anti_entropy_every(anti_entropy_every);
    if let Some(ttl) = identity_ttl {
        monitor = monitor.identity_cache_ttl(ttl);
    }
    if let Some(cap) = identity_cap {
        monitor = monitor.identity_cache_capacity(cap);
    }
    // The durable audit log shares the monitor's metrics registry so
    // group-commit latency and drop counts land in /-/metrics.
    let audit_log = match audit_dir {
        Some(dir) => {
            let (log, report) = cm_audit::AuditLog::open(
                dir,
                cm_audit::AuditLogOptions {
                    max_age: audit_max_age,
                    ..cm_audit::AuditLogOptions::default()
                },
                Some(monitor.metrics()),
            )
            .map_err(|e| CliError(format!("open audit log {}: {e}", dir.display())))?;
            println!(
                "audit log       : {} ({} records recovered, next offset {}{})",
                dir.display(),
                report.records,
                report.next_offset,
                if report.truncated_bytes > 0 {
                    format!(", truncated {} torn bytes", report.truncated_bytes)
                } else {
                    String::new()
                }
            );
            Some(Arc::new(log))
        }
        None => None,
    };
    if let Some(log) = &audit_log {
        monitor = monitor.audit_recorder(Arc::clone(log) as Arc<dyn cm_audit::AuditRecorder>);
    }
    monitor
        .authenticate("alice", "alice-pw")
        .map_err(|e| CliError(e.message))?;
    let mut admin = AdminRoutes::new(monitor.metrics(), monitor.events())
        .with_transport(Arc::clone(&client))
        .with_overload(Arc::clone(&overload_stats));
    if let Some(log) = &audit_log {
        admin = admin.with_stream(Arc::clone(log) as Arc<dyn cm_obs::TailStream>);
    }
    let monitor = Arc::new(monitor);
    // Every shed request lands in the audit trail as a Degraded verdict
    // with overload provenance — refused unjudged, never silently gone.
    let shed_monitor = Arc::clone(&monitor);
    monitor_config.shed_observer = Some(ShedObserver::new(move |request, decision| {
        shed_monitor.record_shed(request, decision);
    }));
    let monitor_handle = Arc::clone(&monitor);
    let monitor_server = HttpServer::bind_with(
        ("127.0.0.1", port),
        admin.wrap(Arc::new(move |req| monitor_handle.call(&req))),
        monitor_config,
    )
    .map_err(|e| CliError(e.to_string()))?;

    println!("private cloud   : http://{}", cloud_server.local_addr());
    println!("cloud monitor   : http://{}", monitor_server.local_addr());
    println!(
        "transport       : {}, keep-alive on",
        match monitor_server.transport() {
            cm_httpkit::Transport::Reactor => "reactor",
            cm_httpkit::Transport::WorkerPool => "worker pool",
        }
    );
    println!(
        "resilience      : {policy:?}, deadline {:?}, breaker threshold {}",
        client.config().request_deadline,
        client.config().breaker_threshold
    );
    if overload_enabled {
        println!(
            "overload        : admission on, queue-wait budget {:?}, read queue limit {} \
             (sheds are marked 503 X-CM-Overload, audited as Degraded)",
            overload_deadline, overload_queue_limit
        );
    } else {
        println!("overload        : off (--overload on to enable deadline-aware admission)");
    }
    println!(
        "snapshots       : {snapshot_policy:?}{}",
        if snapshot_policy == cm_core::SnapshotPolicy::Replica {
            if anti_entropy_every > 0 {
                format!(", anti-entropy every {anti_entropy_every} replica serves")
            } else {
                ", anti-entropy on demand".to_string()
            }
        } else {
            String::new()
        }
    );
    println!("observability   : GET /-/metrics, /-/events?tail=N, /-/health (or `cmcli metrics`)");
    if audit_log.is_some() {
        println!(
            "audit stream    : GET /-/events/stream?from=N&max=M&wait_ms=T (resume from `next`)"
        );
    }
    println!("fixture users   : alice/alice-pw (admin), bob (member), carol (user)");
    println!(
        "authenticate    : POST /identity/auth/tokens {{\"auth\":{{\"user\":…,\"password\":…}}}}"
    );
    println!("volumes API     : /v3/1/volumes[/{{id}}] with X-Auth-Token");
    println!("press Ctrl+C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
