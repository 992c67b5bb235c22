//! The Figure-2 decision, shared by the live monitor and audit replay.
//!
//! [`Judge`] turns observed facts into a verdict in two steps: the *pre*
//! step evaluates the pre-condition over the pre-state and attributes the
//! security requirements of the enabled clauses; the *response* step
//! checks the expected success status and the post-condition, tells a
//! gateway 502/503/504 that masked an executed call from transport
//! weather, classifies wrong denials and wrong acceptances, and applies
//! the denied-probe override. It is pure — no I/O, no clock. The caller
//! supplies the facts: `CloudMonitor::process` from the live cloud,
//! `ReplayEngine::replay_record` from a recorded trace. Because both run
//! this code, a replayed trace re-derives the live verdicts by
//! construction.

use crate::monitor::{expected_success_status, Mode, Verdict};
use cm_contracts::{CompiledContract, CompiledContractSet, ContractSet, MethodContract};
use cm_ocl::{EnvView, EvalError, EvalScratch, MapNavigator};
use cm_rest::StatusCode;

/// A verdict, the security requirements it is traced to, and why.
#[derive(Debug)]
pub(crate) struct Decision {
    pub(crate) verdict: Verdict,
    pub(crate) requirements: Vec<String>,
    pub(crate) diagnostics: String,
}

impl Decision {
    pub(crate) fn new(
        verdict: Verdict,
        requirements: Vec<String>,
        diagnostics: impl Into<String>,
    ) -> Self {
        Decision {
            verdict,
            requirements,
            diagnostics: diagnostics.into(),
        }
    }
}

/// The post-state as the caller can supply it. Only two branches of the
/// response step read it, so the judge asks for it lazily.
#[derive(Debug)]
pub(crate) enum PostState {
    /// Observed completely.
    Observed(MapNavigator),
    /// Transport faults left the post snapshot partial; the faults.
    Unobservable(String),
    /// Replay only: the trace holds no post-state.
    Unrecorded,
}

/// The pre step's result when the request may proceed to the cloud.
#[derive(Debug)]
pub(crate) struct Pre {
    /// The pre-condition held.
    pub(crate) ok: bool,
    /// Requirements of the enabled clauses.
    requirements: Vec<String>,
}

/// A method outside the model-derived interface that was forwarded: the
/// cloud should have refused it.
pub(crate) fn method_not_allowed(status: StatusCode) -> Verdict {
    if status.is_success() {
        Verdict::WrongAcceptance
    } else {
        Verdict::Pass
    }
}

/// The mode a request's pre step runs in. A request the cloud already
/// answered can no longer be blocked, so it is judged as Observe judges
/// it, whatever the monitor's mode: an Enforce request reaches its pre
/// step after the forward only when it is judged again on a refreshed
/// identity.
pub(crate) fn pre_mode(mode: Mode, forwarded: bool) -> Mode {
    if forwarded {
        Mode::Observe
    } else {
        mode
    }
}

/// The decision procedure for one contract.
#[derive(Debug)]
pub(crate) struct Judge<'a> {
    contract: &'a MethodContract,
    compiled: &'a CompiledContract,
    set: &'a CompiledContractSet,
}

impl<'a> Judge<'a> {
    /// The judge for contract `idx` (`compiled` is the lowered form of
    /// `contracts`, as [`CompiledContractSet::compile`] builds it).
    pub(crate) fn new(
        contracts: &'a ContractSet,
        compiled: &'a CompiledContractSet,
        idx: usize,
    ) -> Self {
        Judge {
            contract: &contracts.contracts[idx],
            compiled: &compiled.contracts()[idx],
            set: compiled,
        }
    }

    /// Degraded: the transport kept the contract from being checked. The
    /// contract's requirement ids are the ones that went untested.
    pub(crate) fn degraded(&self, diagnostics: impl Into<String>) -> Decision {
        Decision::new(
            Verdict::Degraded,
            self.contract.security_requirements.clone(),
            diagnostics,
        )
    }

    /// The pre step. `Err` is a final decision: `ContractError` when the
    /// pre-condition cannot be evaluated, `PreBlocked` when it fails in
    /// Enforce mode.
    pub(crate) fn pre(
        &self,
        mode: Mode,
        pre_view: &EnvView<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<Pre, Decision> {
        let syms = self.set.symbols();
        self.compiled.begin_pre(scratch);
        let ok = self
            .compiled
            .evaluate_pre(syms, pre_view, scratch)
            .map_err(|e| {
                Decision::new(
                    Verdict::ContractError,
                    Vec::new(),
                    format!("pre-condition evaluation failed: {e}"),
                )
            })?;
        if mode == Mode::Enforce && !ok {
            return Err(Decision::new(
                Verdict::PreBlocked,
                self.contract.security_requirements.clone(),
                "blocked before reaching the cloud",
            ));
        }
        // The clause roots are shared subtrees of the combined pre
        // (hash-consing), so with the memo table still warm from
        // `evaluate_pre` this is nearly free.
        let requirements = self
            .compiled
            .enabled_clause_indices(syms, pre_view, scratch)
            .map(|idxs| {
                let mut out: Vec<String> = Vec::new();
                for i in idxs {
                    for r in &self.contract.clauses[i].security_requirements {
                        if !out.contains(r) {
                            out.push(r.clone());
                        }
                    }
                }
                out
            })
            .unwrap_or_default();
        Ok(Pre { ok, requirements })
    }

    /// Evaluate the post-condition over `post_view` and the pre-state.
    fn post_holds(
        &self,
        post_view: &EnvView<'_>,
        pre_view: &EnvView<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        self.compiled.begin_post(scratch);
        self.compiled
            .evaluate_post(self.set.symbols(), post_view, pre_view, scratch)
    }

    /// The response step for a request the cloud answered with `status`.
    /// `probe_denials` are the monitor's own probes the cloud refused
    /// while binding the pre-state; `post` supplies the post-state and
    /// is called at most once. `None` only when the success branch needs
    /// a post-state that `post` reports [`PostState::Unrecorded`].
    pub(crate) fn response(
        &self,
        pre: Pre,
        status: StatusCode,
        probe_denials: &[String],
        pre_view: &EnvView<'_>,
        scratch: &mut EvalScratch,
        post: impl FnOnce() -> PostState,
    ) -> Option<Decision> {
        let trigger = &self.contract.trigger;
        let expected = expected_success_status(trigger.method);
        let (verdict, diagnostics) = if pre.ok && status.is_success() {
            if status != expected {
                (
                    Verdict::WrongStatus {
                        expected: expected.0,
                        actual: status.0,
                    },
                    format!("expected {expected}, got {status}"),
                )
            } else {
                match post() {
                    PostState::Observed(nav) => {
                        let syms = self.set.symbols();
                        let post_view = EnvView::from_navigator(&nav, syms);
                        match self.post_holds(&post_view, pre_view, scratch) {
                            Ok(true) => {
                                // The paper's stateful view: report which
                                // model state the system is in after the
                                // call.
                                let states = self
                                    .compiled
                                    .matching_state_indices_post(
                                        syms, &post_view, pre_view, scratch,
                                    )
                                    .map(|idxs| {
                                        idxs.iter()
                                            .map(|&i| self.set.state_names()[i].clone())
                                            .collect::<Vec<_>>()
                                    })
                                    .unwrap_or_default();
                                let diagnostics = if states.is_empty() {
                                    String::new()
                                } else {
                                    format!("state: {}", states.join(", "))
                                };
                                (Verdict::Pass, diagnostics)
                            }
                            Ok(false) => (
                                Verdict::PostViolation,
                                format!("post-condition of {trigger} violated"),
                            ),
                            Err(e) => (
                                Verdict::ContractError,
                                format!("post-condition evaluation failed: {e}"),
                            ),
                        }
                    }
                    // The call already executed; only its *verification*
                    // is lost. Report the post-condition as untestable
                    // rather than judging a half-observed post-state.
                    PostState::Unobservable(faults) => {
                        return Some(self.degraded(format!("post-snapshot faults: {faults}")))
                    }
                    PostState::Unrecorded => return None,
                }
            }
        } else if pre.ok && status.is_gateway_error() {
            // An authorized request came back with a bare 502/503/504
            // from the wire. Two indistinguishable-by-status stories: an
            // intermediary answered for a sick backend (transport
            // weather), or the cloud itself masked an executed call
            // behind a 5xx to dodge its post-condition check. The
            // post-state disambiguates: a post-condition that HOLDS means
            // the call ran — a status-lying cloud, a violation. Anything
            // else is indistinguishable from weather and degrades (never
            // a false violation); an evaluation error cannot convict the
            // cloud either.
            let executed = match post() {
                PostState::Observed(nav) => {
                    let post_view = EnvView::from_navigator(&nav, self.set.symbols());
                    Some(
                        self.post_holds(&post_view, pre_view, scratch)
                            .unwrap_or(false),
                    )
                }
                PostState::Unobservable(_) | PostState::Unrecorded => None,
            };
            match executed {
                Some(true) => (
                    Verdict::WrongStatus {
                        expected: expected.0,
                        actual: status.0,
                    },
                    format!(
                        "cloud answered {status} yet the post-condition holds: \
                         an executed call behind a masking gateway status"
                    ),
                ),
                Some(false) => {
                    return Some(self.degraded(format!(
                        "forward answered gateway status {status}; post-state consistent with no execution"
                    )))
                }
                None => {
                    return Some(self.degraded(format!(
                        "forward answered {status} and the post-state is unobservable"
                    )))
                }
            }
        } else if pre.ok {
            (
                Verdict::WrongDenial,
                format!("authorized request denied with {status}"),
            )
        } else if status.is_success() {
            (
                Verdict::WrongAcceptance,
                format!("unauthorized/disallowed request succeeded with {status}"),
            )
        } else {
            (Verdict::Pass, "correctly denied".to_string())
        };

        // A denied monitor probe means the cloud refused admin-authority
        // reads — report it even when the request itself looked correctly
        // handled (otherwise a read-denying mutant hides from the oracle).
        let (verdict, diagnostics) = if verdict == Verdict::Pass && !probe_denials.is_empty() {
            (
                Verdict::WrongDenial,
                format!("monitor probes denied: {}", probe_denials.join("; ")),
            )
        } else {
            (verdict, diagnostics)
        };

        // A violation with no enabled pre clause (e.g. WrongAcceptance:
        // the request should have been denied outright) would otherwise
        // carry no requirement ids at all. Attribute the trigger
        // contract's requirements so the verdict stays traceable to
        // Table I — the kill matrix keys its cells on exactly this.
        let requirements = if verdict.is_violation() && pre.requirements.is_empty() {
            self.contract.security_requirements.clone()
        } else {
            pre.requirements
        };
        Some(Decision::new(verdict, requirements, diagnostics))
    }
}
