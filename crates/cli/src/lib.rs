//! # cm-cli — command-line tools for model-driven cloud monitors
//!
//! Two binaries:
//!
//! * **`uml2django`** — the paper's exact CLI:
//!   `uml2django ProjectName DiagramsFileinXML` generates the Django
//!   monitor skeleton from an XMI file.
//! * **`cmcli`** — the full toolbox: validate models, render diagrams,
//!   print generated contracts, slice models, run the security audit, and
//!   serve a live monitored cloud over HTTP.
//!
//! Every command is implemented as a library function returning its
//! output as a `String`, so the whole surface is unit-testable without
//! process spawning.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use cm_codegen::{uml2django, Uml2DjangoOptions};
use cm_contracts::{
    generate_with, render_listing, CompiledContractSet, GenerateOptions, TraceabilityMatrix,
};
use cm_model::{
    behavioral_model_dot, behavioral_model_text, resource_model_dot, resource_model_text,
    slice_behavioral_model, validate_behavioral_model, validate_resource_model, SliceCriterion,
};
use cm_rest::RouteTable;
use cm_xmi::{export, import};
use std::fmt::Write as _;
use std::path::Path;

/// A CLI-level error: exit message for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

fn fail(message: impl Into<String>) -> CliError {
    CliError(message.into())
}

/// `cmcli export-cinder <out.xmi>` — write the paper's canned Figure 3
/// models as an XMI file (the starting point for every other command).
///
/// # Errors
///
/// I/O errors writing the file.
pub fn cmd_export_cinder(out_path: &Path) -> Result<String, CliError> {
    let xmi = export(
        Some(&cm_model::cinder::resource_model()),
        &[&cm_model::cinder::behavioral_model()],
    );
    std::fs::write(out_path, &xmi)?;
    Ok(format!(
        "wrote {} bytes to {}",
        xmi.len(),
        out_path.display()
    ))
}

/// `cmcli export-cinder --extended <out.xmi>` — the extended models:
/// volumes *and* snapshots, two state machines in one XMI file.
///
/// # Errors
///
/// I/O errors writing the file.
pub fn cmd_export_cinder_extended(out_path: &Path) -> Result<String, CliError> {
    let xmi = export(
        Some(&cm_model::cinder::extended_resource_model()),
        &[
            &cm_model::cinder::behavioral_model(),
            &cm_model::cinder::snapshot_behavioral_model(),
        ],
    );
    std::fs::write(out_path, &xmi)?;
    Ok(format!(
        "wrote {} bytes to {}",
        xmi.len(),
        out_path.display()
    ))
}

/// `cmcli validate <xmi>` — well-formedness report for both model kinds.
///
/// # Errors
///
/// I/O or XMI parse failures; validation *findings* are part of the
/// report, not an error.
pub fn cmd_validate(xmi_path: &Path) -> Result<String, CliError> {
    let text = std::fs::read_to_string(xmi_path)?;
    let doc = import(&text).map_err(|e| fail(e.to_string()))?;
    let mut out = String::new();
    match &doc.resources {
        Some(r) => {
            let report = validate_resource_model(r);
            let _ = writeln!(out, "resource model `{}`: {report}", r.name);
        }
        None => {
            let _ = writeln!(out, "no resource model in file");
        }
    }
    for b in &doc.behaviors {
        let report = validate_behavioral_model(b, doc.resources.as_ref());
        let _ = writeln!(out, "behavioral model `{}`: {report}", b.name);
        if let Some(resources) = &doc.resources {
            let findings = cm_model::typecheck_behavioral_model(b, resources);
            if findings.is_empty() {
                let _ = writeln!(out, "  OCL types: clean");
            }
            for f in findings {
                let _ = writeln!(out, "  {f}");
            }
        }
    }
    if doc.behaviors.is_empty() {
        let _ = writeln!(out, "no behavioral models in file");
    }
    Ok(out)
}

/// `cmcli models <xmi> [--dot]` — render the models as text or DOT.
///
/// # Errors
///
/// I/O or XMI parse failures.
pub fn cmd_models(xmi_path: &Path, dot: bool) -> Result<String, CliError> {
    let text = std::fs::read_to_string(xmi_path)?;
    let doc = import(&text).map_err(|e| fail(e.to_string()))?;
    let mut out = String::new();
    if let Some(r) = &doc.resources {
        out.push_str(&if dot {
            resource_model_dot(r)
        } else {
            resource_model_text(r)
        });
        out.push('\n');
    }
    for b in &doc.behaviors {
        out.push_str(&if dot {
            behavioral_model_dot(b)
        } else {
            behavioral_model_text(b)
        });
        out.push('\n');
    }
    Ok(out)
}

/// `cmcli contracts <xmi> [--simplify] [--weave-table1] [--stats]` —
/// print the generated contracts for every trigger, Listing 1 style.
/// With `stats`, also compile each set and report the per-contract
/// program sizes, memo-slot counts, and snapshot scopes.
///
/// # Errors
///
/// I/O, XMI parse, or contract-generation failures.
pub fn cmd_contracts(
    xmi_path: &Path,
    simplify: bool,
    weave_table1: bool,
    stats: bool,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(xmi_path)?;
    let doc = import(&text).map_err(|e| fail(e.to_string()))?;
    if doc.behaviors.is_empty() {
        return Err(fail("no behavioral model in file"));
    }
    let table = cm_rbac::cinder_table_extended();
    let options = GenerateOptions {
        security: weave_table1.then_some(&table),
        simplify,
    };
    let routes = doc.resources.as_ref().map(|r| RouteTable::derive(r, "/v3"));
    let mut out = String::new();
    for behavior in &doc.behaviors {
        let set = generate_with(behavior, &options).map_err(|e| fail(e.message))?;
        for contract in &set.contracts {
            let uri = routes
                .as_ref()
                .and_then(|rt| {
                    rt.route_for_trigger(contract.trigger.method, &contract.trigger.resource)
                })
                .map_or_else(
                    || format!(".../{}", contract.trigger.resource),
                    |r| r.template.to_string(),
                );
            out.push_str(&render_listing(contract, &uri));
            out.push('\n');
        }
        let matrix = TraceabilityMatrix::from_contracts(&set);
        let _ = writeln!(out, "Traceability ({}):", behavior.name);
        out.push_str(&matrix.render());
        out.push('\n');
        if stats {
            let compiled = CompiledContractSet::compile(&set);
            let _ = writeln!(out, "Compiled stats ({}):", behavior.name);
            for cc in compiled.contracts() {
                let pre = cc.pre_program();
                let post = cc.post_program();
                let _ = writeln!(
                    out,
                    "  {}: pre {} nodes / {} memo slots, post {} nodes / {} memo slots",
                    cc.trigger,
                    pre.node_count(),
                    pre.memo_slot_count(),
                    post.node_count(),
                    post.memo_slot_count()
                );
                let _ = writeln!(
                    out,
                    "    pre snapshot scope : {}",
                    scope_line(cc.pre_scope())
                );
                let _ = writeln!(
                    out,
                    "    post snapshot scope: {}",
                    scope_line(cc.post_scope())
                );
            }
            let _ = writeln!(out, "  symbols interned: {}", compiled.symbols().len());
            out.push('\n');
        }
    }
    Ok(out)
}

/// Render an attribute scope as `root.attr, root.attr` plus an
/// exactness marker for the wildcard fallback.
fn scope_line(scope: &cm_ocl::AttrScope) -> String {
    let pairs = scope
        .pairs()
        .iter()
        .map(|(root, attr)| format!("{root}.{attr}"))
        .collect::<Vec<_>>()
        .join(", ");
    let body = if pairs.is_empty() { "(empty)" } else { &pairs };
    if scope.is_exact() {
        body.to_string()
    } else {
        format!("{body} [inexact]")
    }
}

/// `cmcli slice <xmi> (--secreq IDS | --method METHODS) <out.xmi>` —
/// slice the behavioural model and write the sliced XMI.
///
/// # Errors
///
/// I/O, XMI parse, or criterion parse failures.
pub fn cmd_slice(
    xmi_path: &Path,
    criterion: &SliceCriterion,
    out_path: &Path,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(xmi_path)?;
    let doc = import(&text).map_err(|e| fail(e.to_string()))?;
    let behavior = doc
        .behaviors
        .first()
        .ok_or_else(|| fail("no behavioral model in file"))?;
    let sliced = slice_behavioral_model(behavior, criterion);
    let xmi = export(doc.resources.as_ref(), &[&sliced]);
    std::fs::write(out_path, &xmi)?;
    Ok(format!(
        "sliced `{}`: kept {} of {} transitions, {} of {} states -> {}",
        behavior.name,
        sliced.transitions.len(),
        behavior.transitions.len(),
        sliced.states.len(),
        behavior.states.len(),
        out_path.display()
    ))
}

/// `cmcli table1` — print the security-requirements table and its policy.
#[must_use]
pub fn cmd_table1() -> String {
    let table = cm_rbac::cinder_table1();
    format!("{}\n{}", table.render(), table.to_policy().render())
}

/// `cmcli codegen <project> <xmi> <out-dir> [--cloud-url URL]` — the
/// `uml2django` pipeline with an explicit output directory.
///
/// # Errors
///
/// I/O, XMI parse, or generation failures.
pub fn cmd_codegen(
    project: &str,
    xmi_path: &Path,
    out_dir: &Path,
    cloud_url: &str,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(xmi_path)?;
    let generated = uml2django(
        project,
        &text,
        &Uml2DjangoOptions {
            cloud_base_url: cloud_url.to_string(),
            security: None,
        },
    )
    .map_err(|e| fail(e.message))?;
    generated.write_to(out_dir)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "generated {} files ({} bytes) under {}",
        generated.files.len(),
        generated.total_bytes(),
        out_dir.display()
    );
    for (path, content) in &generated.files {
        let _ = writeln!(out, "  {:<24} {:>6} bytes", path, content.len());
    }
    Ok(out)
}

/// `cmcli audit` — run the oracle suite and both mutation campaigns
/// against the built-in simulated cloud.
#[must_use]
pub fn cmd_audit() -> String {
    use cm_mutation::{
        paper_mutants, run_campaign, run_extended_campaign, snapshot_catalog, standard_catalog,
    };
    let mut out = String::new();
    let baseline = cm_core::TestOracle.run(cm_cloudsim::PrivateCloud::my_project);
    let _ = writeln!(
        out,
        "baseline: {} scenarios, {} violations ({})",
        baseline.len(),
        baseline.violations().len(),
        if baseline.killed() { "FAULTY" } else { "clean" }
    );
    let paper = run_campaign(&paper_mutants());
    let _ = writeln!(
        out,
        "paper mutants: {}/{} killed",
        paper.killed(),
        paper.total()
    );
    let extended = run_campaign(&standard_catalog());
    out.push_str(&extended.render());
    let snapshots = run_extended_campaign(&snapshot_catalog());
    let _ = writeln!(
        out,
        "snapshot-resource campaign: {}/{} killed",
        snapshots.killed(),
        snapshots.total()
    );
    out
}

/// `cmcli audit replay <log-dir> [--extended]` — re-evaluate a durable
/// audit trace against the current contract set and diff the verdicts.
/// A contract set identical to the recording monitor's reproduces every
/// verdict (including Degraded and requirement attribution); an updated
/// set surfaces *diffs*, never errors. The returned flag is `false`
/// when any record diffs, so CI can gate on unexplained drift.
///
/// # Errors
///
/// I/O failures reading the log, or contract-generation failures.
pub fn cmd_audit_replay(dir: &Path, extended: bool) -> Result<(String, bool), CliError> {
    use cm_core::{ReplayEngine, ReplayOutcome};
    use cm_model::cinder;
    let records = cm_audit::read_records(dir)
        .map_err(|e| fail(format!("read audit log {}: {e}", dir.display())))?;
    let mut engine = if extended {
        ReplayEngine::from_behaviors(
            &[
                &cinder::extended_behavioral_model(),
                &cinder::snapshot_behavioral_model(),
            ],
            None,
        )
    } else {
        ReplayEngine::from_behaviors(&[&cinder::behavioral_model()], None)
    }
    .map_err(|e| fail(e.message))?;
    let report = engine.replay(&records);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {} records against the current contract set: {} matched, {} diffs",
        report.entries.len(),
        report.matched(),
        report.diff_count()
    );
    for entry in report.diffs() {
        let replayed = match &entry.replayed {
            ReplayOutcome::Verdict { verdict, .. } => verdict.label(),
            ReplayOutcome::Indeterminate(reason) => format!("indeterminate ({reason})"),
        };
        let _ = writeln!(
            out,
            "  seq {:>6} {} {}: recorded {}, replayed {}",
            entry.seq, entry.method, entry.path, entry.recorded, replayed
        );
    }
    if report.is_clean() {
        let _ = writeln!(out, "verdict sequence reproduced exactly");
    }
    Ok((out, report.is_clean()))
}

/// `cmcli audit verify <log-dir>` — integrity-check a durable audit
/// log by running the same recovery a monitor restart would: scan every
/// segment frame by frame, truncate any torn tail, quarantine corrupt
/// segments, and compare the result against the checkpoint. The
/// returned flag is `false` when committed records are missing or
/// segments were quarantined.
///
/// # Errors
///
/// I/O failures reading the log directory.
pub fn cmd_audit_verify(dir: &Path) -> Result<(String, bool), CliError> {
    let (records, recovered) = cm_audit::recover(dir)
        .map_err(|e| fail(format!("scan audit log {}: {e}", dir.display())))?;
    let report = &recovered.report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} segments, {} records, next offset {}",
        dir.display(),
        report.segments,
        report.records,
        report.next_offset
    );
    if report.truncated_bytes > 0 {
        let _ = writeln!(
            out,
            "  truncated {} bytes of torn tail (uncommitted group)",
            report.truncated_bytes
        );
    }
    if report.quarantined_segments > 0 {
        let _ = writeln!(
            out,
            "  quarantined {} corrupt segment(s)",
            report.quarantined_segments
        );
    }
    match report.checkpoint {
        Some(committed) => {
            let _ = writeln!(
                out,
                "  checkpoint: {committed} committed, {} lost",
                report.lost_committed
            );
        }
        None => {
            let _ = writeln!(out, "  checkpoint: none");
        }
    }
    let violations: u64 = records.iter().filter(|r| r.verdict.is_violation()).count() as u64;
    let _ = writeln!(out, "  violations on record: {violations}");
    let ok = report.lost_committed == 0 && report.quarantined_segments == 0;
    let _ = writeln!(
        out,
        "durability contract {}",
        if ok { "held" } else { "VIOLATED" }
    );
    Ok((out, ok))
}

/// `cmcli mutate campaign [--out FILE] [--baseline FILE]` — run the
/// full kill-matrix campaign: every mutant in the standard and snapshot
/// catalogs against the extended oracle suite, reported as a
/// requirement × mutant matrix. With `--out` the machine-readable
/// matrix is written as JSON; with `--baseline` the run is diffed
/// against a committed baseline and the returned flag is `false` when
/// any baseline-detected mutant is no longer killed (the CI gate).
///
/// # Errors
///
/// I/O failures, or a baseline file that is not a kill-matrix JSON
/// document.
pub fn cmd_mutate_campaign(
    out: Option<&Path>,
    baseline: Option<&Path>,
) -> Result<(String, bool), CliError> {
    use cm_mutation::{full_catalog, run_kill_matrix, KillMatrix};
    let matrix = run_kill_matrix(&full_catalog());
    let mut report = matrix.render();
    let mut ok = true;
    if let Some(path) = out {
        std::fs::write(path, matrix.to_json().to_pretty_string())?;
        let _ = writeln!(report, "wrote kill matrix to {}", path.display());
    }
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| fail(format!("baseline {}: {e}", path.display())))?;
        let json = cm_rest::parse_json(&text)
            .map_err(|e| fail(format!("baseline {}: {e}", path.display())))?;
        let base = KillMatrix::from_json(&json)
            .map_err(|e| fail(format!("baseline {}: {e}", path.display())))?;
        let diff = matrix.diff(&base);
        report.push('\n');
        report.push_str(&diff.render());
        ok = !diff.is_regression();
    }
    Ok((report, ok))
}

/// `cmcli rbac lint [policy.json]` — static policy analysis:
/// contradictory rules, shadowed (unreachable) disjuncts, vacuous
/// grants, and roles that can reach no operation. Without a file the
/// built-in extended Table I policy is linted (it must be clean). The
/// returned flag is `false` when any diagnostic fires.
///
/// # Errors
///
/// I/O failures, or a policy file that is not a JSON object of rule
/// strings in the `policy.json` rule language.
pub fn cmd_rbac_lint(policy_path: Option<&Path>) -> Result<(String, bool), CliError> {
    use cm_rest::Json;
    let policy = match policy_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            let json =
                cm_rest::parse_json(&text).map_err(|e| fail(format!("{}: {e}", path.display())))?;
            let Json::Object(members) = &json else {
                return Err(fail(format!(
                    "{}: policy file must be a JSON object of rule strings",
                    path.display()
                )));
            };
            let entries = members
                .iter()
                .map(|(action, rule)| {
                    rule.as_str().map(|r| (action.as_str(), r)).ok_or_else(|| {
                        fail(format!(
                            "{}: rule for `{action}` must be a string",
                            path.display()
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            cm_rbac::PolicyFile::from_entries(entries)
                .map_err(|e| fail(format!("{}: {e}", path.display())))?
        }
        None => cm_rbac::cinder_table_extended().to_policy(),
    };
    // The roles of the paper's `myProject` fixture; roles the policy
    // mentions beyond these are added to the universe by the analyzer.
    let analysis = cm_rbac::analyze_policy(&policy, &["admin", "member", "user"]);
    Ok((analysis.render(), analysis.is_clean()))
}

/// `cmcli metrics <addr> [--events N] [--health]` — fetch and
/// pretty-print the observability endpoints of a running monitor proxy
/// (`cmcli serve`): `GET /-/metrics` by default (which includes the
/// transport's retry/shed/breaker-transition counters when the monitor
/// runs over a pooled client), `GET /-/events?tail=N` with `--events`,
/// and `GET /-/health` — per-backend circuit-breaker state — with
/// `--health`.
///
/// # Errors
///
/// Connection failures, non-success responses, or a body-less reply.
pub fn cmd_metrics(
    addr: &str,
    events_tail: Option<usize>,
    health: bool,
) -> Result<String, CliError> {
    use cm_model::HttpMethod;
    use cm_rest::RestRequest;
    let path = if health {
        "/-/health".to_string()
    } else {
        match events_tail {
            Some(n) => format!("/-/events?tail={n}"),
            None => "/-/metrics".to_string(),
        }
    };
    let addr = addr.trim_start_matches("http://").trim_end_matches('/');
    let response = cm_httpkit::send(addr, &RestRequest::new(HttpMethod::Get, path))
        .map_err(|e| fail(format!("could not reach {addr}: {e}")))?;
    if !response.status.is_success() {
        return Err(fail(format!("monitor answered {}", response.status)));
    }
    response
        .body
        .map(|body| body.to_pretty_string())
        .ok_or_else(|| fail("monitor sent an empty body"))
}

/// Parse a `--degraded-policy` value: `fail-closed`, `fail-open`
/// (uncapped), or `fail-open:N` (at most `N` unchecked forwards before
/// failing closed).
///
/// # Errors
///
/// Unknown policy names or an unparsable cap.
pub fn parse_degraded_policy(value: &str) -> Result<cm_core::DegradedPolicy, CliError> {
    use cm_core::DegradedPolicy;
    match value {
        "fail-closed" => Ok(DegradedPolicy::FailClosed),
        "fail-open" => Ok(DegradedPolicy::FailOpen {
            max_unchecked: u64::MAX,
        }),
        other => match other.strip_prefix("fail-open:") {
            Some(cap) => cap
                .parse()
                .map(|max_unchecked| DegradedPolicy::FailOpen { max_unchecked })
                .map_err(|_| fail(format!("fail-open cap must be a number, got `{cap}`"))),
            None => Err(fail(format!(
                "unknown degraded policy `{other}` (expected fail-closed | fail-open[:N])"
            ))),
        },
    }
}

/// Parse a `--snapshot-policy` value: `full` or `replica`.
///
/// # Errors
///
/// Unknown policy names.
pub fn parse_snapshot_policy(value: &str) -> Result<cm_core::SnapshotPolicy, CliError> {
    use cm_core::SnapshotPolicy;
    match value {
        "full" => Ok(SnapshotPolicy::Full),
        "replica" => Ok(SnapshotPolicy::Replica),
        other => Err(fail(format!(
            "unknown snapshot policy `{other}` (expected full | replica)"
        ))),
    }
}

/// Parse a slice criterion from CLI-ish arguments.
///
/// # Errors
///
/// Unknown method names.
pub fn parse_criterion(kind: &str, values: &str) -> Result<SliceCriterion, CliError> {
    let parts: Vec<String> = values.split(',').map(str::trim).map(String::from).collect();
    match kind {
        "--secreq" => Ok(SliceCriterion::Requirements(parts)),
        "--resource" => Ok(SliceCriterion::Resources(parts)),
        "--method" => {
            let methods = parts
                .iter()
                .map(|p| p.parse().map_err(|e| fail(format!("{e}"))))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SliceCriterion::Methods(methods))
        }
        other => Err(fail(format!("unknown slice criterion `{other}`"))),
    }
}

/// Usage text for `cmcli`.
#[must_use]
pub fn usage() -> &'static str {
    "cmcli — model-driven cloud monitor toolbox\n\
     \n\
     USAGE:\n\
       cmcli export-cinder [--extended] <out.xmi>  write the Figure 3 models\n\
       cmcli validate <xmi>                   well-formedness report\n\
       cmcli models <xmi> [--dot]             render models as text or Graphviz\n\
       cmcli contracts <xmi> [--simplify] [--weave-table1] [--stats]\n\
                                              print generated contracts (Listing 1);\n\
                                              --stats adds compiled program sizes,\n\
                                              memo slots, and snapshot scopes\n\
       cmcli slice <xmi> --secreq 1.4 <out>   slice by requirement ids\n\
       cmcli slice <xmi> --method DELETE <out> slice by trigger methods\n\
       cmcli table1                           print Table I + policy.json\n\
       cmcli codegen <name> <xmi> <dir> [--cloud-url URL]\n\
                                              generate the Django monitor\n\
       cmcli audit                            oracle + mutation campaigns\n\
       cmcli audit replay <log-dir> [--extended]\n\
                                              re-evaluate a durable audit trace\n\
                                              against the current contract set\n\
                                              and diff the verdicts; exits 1 on\n\
                                              any diff\n\
       cmcli audit verify <log-dir>           recovery-scan a durable audit log:\n\
                                              truncate torn tails, quarantine\n\
                                              corruption, check the checkpoint;\n\
                                              exits 1 when committed records\n\
                                              are missing\n\
       cmcli mutate campaign [--out FILE] [--baseline FILE]\n\
                                              full kill-matrix campaign; --out\n\
                                              writes KILL_MATRIX.json, --baseline\n\
                                              diffs against a committed matrix\n\
                                              and exits 1 on any regression\n\
       cmcli rbac lint [policy.json]          static policy analysis: contra-\n\
                                              dictions, shadowed rules, roles\n\
                                              with no reachable operation; exits\n\
                                              1 when a diagnostic fires (default:\n\
                                              the built-in Table I policy)\n\
       cmcli serve [--port P] [--extended]    run a live monitored cloud\n\
             [--audit-dir DIR]                durable crash-safe audit log; also\n\
                                              enables GET /-/events/stream\n\
             [--audit-max-age-secs S]         additionally expire audit segments\n\
                                              older than S seconds at rotation\n\
                                              (default: count-based retention\n\
                                              only)\n\
             [--overload on|off]              deadline-aware admission control:\n\
                                              shed requests whose queue wait\n\
                                              exhausts their budget (marked 503\n\
                                              X-CM-Overload, audited Degraded);\n\
                                              admin/health lanes never shed\n\
                                              (default off)\n\
             [--overload-deadline-ms MS]      per-request queue-wait budget\n\
                                              (default 500)\n\
             [--overload-queue-limit N]       read-lane run-queue bound per\n\
                                              shard; mutations tolerate 2N\n\
                                              (default 1024)\n\
             [--degraded-policy fail-closed|fail-open[:N]]\n\
                                              what Enforce does when the cloud\n\
                                              cannot be snapshotted (default\n\
                                              fail-closed; fail-open:N allows\n\
                                              at most N unchecked forwards)\n\
             [--snapshot-policy full|replica] how the OCL environment is\n\
                                              bound: full = probe the cloud\n\
                                              before and after each request\n\
                                              (default); replica = model-\n\
                                              derived shadow state, zero\n\
                                              probes steady-state\n\
             [--anti-entropy-every N]         under replica: scheduled probe\n\
                                              reconciliation every N replica-\n\
                                              served requests, surfacing out-\n\
                                              of-band cloud edits as drift\n\
                                              (0 = on-demand only, default)\n\
             [--identity-ttl-secs S] [--identity-cache-cap N]\n\
                                              token-introspection cache tuning\n\
                                              (defaults 60s, 4096 entries);\n\
                                              hit/miss counters in /-/metrics\n\
             [--request-deadline-ms MS] [--breaker-threshold N]\n\
                                              total per-request budget across\n\
                                              retries, and consecutive fresh-\n\
                                              connection failures before the\n\
                                              circuit breaker opens (0 = off)\n\
       cmcli metrics <addr> [--events N] [--health]\n\
                                              query /-/metrics (incl. transport\n\
                                              retry/shed/breaker counters),\n\
                                              /-/events, or /-/health breaker\n\
                                              state of a running monitor\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cmcli-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn export_then_validate_then_models() {
        let path = tmp("a.xmi");
        let msg = cmd_export_cinder(&path).unwrap();
        assert!(msg.contains("wrote"));
        let report = cmd_validate(&path).unwrap();
        assert!(report.contains("resource model `Cinder`: model is well-formed"));
        assert!(report.contains("behavioral model `CinderProject`"));
        assert!(
            report.contains("paper-compat") || report.contains("OCL types"),
            "{report}"
        );
        let text = cmd_models(&path, false).unwrap();
        assert!(text.contains("collection Volumes"));
        let dot = cmd_models(&path, true).unwrap();
        assert!(dot.contains("digraph"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn contracts_command_prints_listings() {
        let path = tmp("b.xmi");
        cmd_export_cinder(&path).unwrap();
        let out = cmd_contracts(&path, false, false, false).unwrap();
        assert!(out.contains("PreCondition(DELETE(/v3/{project_id}/volumes/{volume_id})):"));
        assert!(out.contains("Traceability (CinderProject):"));
        let simplified = cmd_contracts(&path, true, true, false).unwrap();
        assert!(simplified.contains("PostCondition"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn contracts_stats_reports_compiled_programs() {
        let path = tmp("b-stats.xmi");
        cmd_export_cinder(&path).unwrap();
        let out = cmd_contracts(&path, false, false, true).unwrap();
        assert!(out.contains("Compiled stats (CinderProject):"), "{out}");
        assert!(out.contains("DELETE(volume): pre "), "{out}");
        assert!(out.contains("memo slots"), "{out}");
        assert!(out.contains("pre snapshot scope : "), "{out}");
        assert!(out.contains("volume.status"), "{out}");
        assert!(out.contains("symbols interned: "), "{out}");
        // Without the flag, no stats section.
        let plain = cmd_contracts(&path, false, false, false).unwrap();
        assert!(!plain.contains("Compiled stats"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn slice_command_roundtrips() {
        let input = tmp("c.xmi");
        let output = tmp("c-sliced.xmi");
        cmd_export_cinder(&input).unwrap();
        let msg = cmd_slice(
            &input,
            &parse_criterion("--secreq", "1.4").unwrap(),
            &output,
        )
        .unwrap();
        assert!(msg.contains("kept 3 of 11 transitions"), "{msg}");
        // The sliced file validates and regenerates contracts.
        let report = cmd_validate(&output).unwrap();
        assert!(report.contains("well-formed"), "{report}");
        let contracts = cmd_contracts(&output, false, false, false).unwrap();
        assert!(contracts.contains("DELETE"));
        assert!(!contracts.contains("PreCondition(POST"));
        std::fs::remove_file(&input).unwrap();
        std::fs::remove_file(&output).unwrap();
    }

    #[test]
    fn criterion_parsing() {
        assert!(matches!(
            parse_criterion("--method", "GET,DELETE").unwrap(),
            SliceCriterion::Methods(m) if m.len() == 2
        ));
        assert!(parse_criterion("--method", "BREW").is_err());
        assert!(parse_criterion("--bogus", "x").is_err());
        assert!(matches!(
            parse_criterion("--resource", "volume").unwrap(),
            SliceCriterion::Resources(r) if r == vec!["volume".to_string()]
        ));
    }

    #[test]
    fn table1_command() {
        let out = cmd_table1();
        assert!(out.contains("proj_administrator"));
        assert!(out.contains("volume:delete"));
    }

    #[test]
    fn codegen_command_writes_tree() {
        let input = tmp("d.xmi");
        let dir = tmp("d-out");
        cmd_export_cinder(&input).unwrap();
        let msg = cmd_codegen("CMonitor", &input, &dir, "http://cloud:8776").unwrap();
        assert!(msg.contains("generated 5 files"));
        assert!(dir.join("cmonitor/views.py").exists());
        std::fs::remove_file(&input).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn audit_command_reports_kills() {
        let out = cmd_audit();
        assert!(out.contains("baseline"), "{out}");
        assert!(out.contains("clean"));
        assert!(out.contains("paper mutants: 3/3 killed"));
        assert!(out.contains("Overall: 24/25"));
    }

    #[test]
    fn mutate_campaign_writes_matrix_and_gates_on_baseline() {
        let out = tmp("matrix.json");
        let (report, ok) = cmd_mutate_campaign(Some(&out), None).unwrap();
        assert!(ok, "{report}");
        assert!(report.contains("Overall: "), "{report}");
        assert!(out.exists());

        // The matrix it just wrote is, by construction, a clean baseline.
        let (report, ok) = cmd_mutate_campaign(None, Some(&out)).unwrap();
        assert!(ok, "{report}");
        assert!(
            report.contains("kill matrix matches the baseline"),
            "{report}"
        );

        // Doctor the baseline: claim a mutant we actually miss was
        // detected, so the rerun must flag a regression.
        let text = std::fs::read_to_string(&out).unwrap();
        let doctored = text.replacen("\"missed\"", "\"detected\"", 1);
        assert_ne!(text, doctored, "expected at least one missed mutant");
        std::fs::write(&out, &doctored).unwrap();
        let (report, ok) = cmd_mutate_campaign(None, Some(&out)).unwrap();
        assert!(!ok, "{report}");
        assert!(report.contains("REGRESSION"), "{report}");

        // A garbage baseline is an error, not a pass.
        std::fs::write(&out, "[]").unwrap();
        assert!(cmd_mutate_campaign(None, Some(&out)).is_err());
        std::fs::remove_file(&out).unwrap();
    }

    #[test]
    fn rbac_lint_passes_builtin_policy_and_flags_seeded_contradiction() {
        let (report, ok) = cmd_rbac_lint(None).unwrap();
        assert!(ok, "{report}");
        assert!(report.contains("clean"), "{report}");

        let path = tmp("bad-policy.json");
        std::fs::write(
            &path,
            r#"{"volume:get": "role:admin or role:member or role:user",
                "volume:delete": "role:admin and not role:admin"}"#,
        )
        .unwrap();
        let (report, ok) = cmd_rbac_lint(Some(&path)).unwrap();
        assert!(!ok, "{report}");
        assert!(report.contains("contradiction"), "{report}");
        assert!(report.contains("volume:delete"), "{report}");

        std::fs::write(&path, r#"{"volume:get": 7}"#).unwrap();
        assert!(cmd_rbac_lint(Some(&path)).is_err());
        std::fs::write(&path, "not json").unwrap();
        assert!(cmd_rbac_lint(Some(&path)).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn validate_rejects_garbage() {
        let path = tmp("e.xmi");
        std::fs::write(&path, "not xml at all").unwrap();
        assert!(cmd_validate(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn metrics_command_queries_a_live_admin_endpoint() {
        use cm_httpkit::{AdminRoutes, HttpServer};
        use cm_obs::{EventSink, MetricsRegistry, MonitorEvent, RingBufferSink};
        use cm_rest::{parse_json, Json, RestRequest, RestResponse};
        use std::sync::Arc;

        let metrics = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(RingBufferSink::new(8));
        for _ in 0..2 {
            let event = MonitorEvent {
                method: "GET".into(),
                path: "/v3/1/volumes".into(),
                verdict: "pass".into(),
                status: 200,
                ..MonitorEvent::default()
            };
            metrics.observe(&event);
            sink.emit(event);
        }
        let admin = AdminRoutes::new(metrics, sink);
        let server = HttpServer::bind(
            "127.0.0.1:0",
            admin.wrap(Arc::new(|_req: RestRequest| RestResponse::ok(Json::Null))),
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        let metrics_out = cmd_metrics(&addr, None, false).unwrap();
        let parsed = parse_json(&metrics_out).unwrap();
        assert_eq!(parsed.get("requests").unwrap().as_int(), Some(2));

        let events_out = cmd_metrics(&format!("http://{addr}"), Some(1), false).unwrap();
        let parsed = parse_json(&events_out).unwrap();
        assert_eq!(parsed.get("events").unwrap().as_array().unwrap().len(), 1);

        let health_out = cmd_metrics(&addr, None, true).unwrap();
        let parsed = parse_json(&health_out).unwrap();
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("ok"));

        server.shutdown();
        assert!(cmd_metrics(&addr, None, false).is_err());
    }

    #[test]
    fn degraded_policy_parsing() {
        use cm_core::DegradedPolicy;
        assert_eq!(
            parse_degraded_policy("fail-closed").unwrap(),
            DegradedPolicy::FailClosed
        );
        assert_eq!(
            parse_degraded_policy("fail-open").unwrap(),
            DegradedPolicy::FailOpen {
                max_unchecked: u64::MAX
            }
        );
        assert_eq!(
            parse_degraded_policy("fail-open:7").unwrap(),
            DegradedPolicy::FailOpen { max_unchecked: 7 }
        );
        assert!(parse_degraded_policy("fail-open:many").is_err());
        assert!(parse_degraded_policy("shrug").is_err());
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for cmd in [
            "export-cinder",
            "validate",
            "models",
            "contracts",
            "slice",
            "table1",
            "codegen",
            "audit",
            "mutate campaign",
            "--baseline",
            "rbac lint",
            "serve",
            "metrics",
            "--degraded-policy",
            "--request-deadline-ms",
            "--breaker-threshold",
            "--health",
        ] {
            assert!(u.contains(cmd), "usage missing {cmd}");
        }
    }
}

#[cfg(test)]
mod extended_cli_tests {
    use super::*;

    #[test]
    fn extended_export_carries_both_machines() {
        let path = std::env::temp_dir().join(format!("cmcli-ext-{}.xmi", std::process::id()));
        cmd_export_cinder_extended(&path).unwrap();
        let report = cmd_validate(&path).unwrap();
        assert!(report.contains("behavioral model `CinderProject`"));
        assert!(report.contains("behavioral model `CinderSnapshots`"));
        let contracts = cmd_contracts(&path, true, false, false).unwrap();
        assert!(
            contracts
                .contains("PreCondition(POST(/v3/{project_id}/volumes/{volume_id}/snapshots)):"),
            "{contracts}"
        );
        assert!(contracts.contains(
            "PreCondition(DELETE(/v3/{project_id}/volumes/{volume_id}/snapshots/{snapshot_id})):"
        ));
        assert!(contracts.contains("Traceability (CinderSnapshots):"));
        std::fs::remove_file(&path).unwrap();
    }
}
