//! Method contracts: the artifacts the generator produces and the monitor
//! checks at run time.
//!
//! A [`MethodContract`] combines every transition a trigger can fire
//! (Section V of the paper): the pre-condition is the disjunction of
//! `invariant(source) and guard` over those transitions; the
//! post-condition is the conjunction of implications
//! `pre_i implies (invariant(target) and effect)`, where each antecedent
//! is evaluated against the *pre-state snapshot* (`pre(...)`) — exactly the
//! stored `pre_*` local variables of Listing 2.

use cm_model::Trigger;
use cm_ocl::{EvalContext, EvalError, Expr, Navigator};
use std::fmt;

/// The per-transition piece of a contract, kept for diagnostics and
/// traceability.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractClause {
    /// Id of the originating transition.
    pub transition_id: String,
    /// Source state name.
    pub source: String,
    /// Target state name.
    pub target: String,
    /// `invariant(source) and guard` (current-state expression).
    pub pre: Expr,
    /// `invariant(target) and effect` (post-state expression, may use
    /// `pre(...)`).
    pub post: Expr,
    /// Security requirements this clause traces to.
    pub security_requirements: Vec<String>,
}

/// A generated contract for one trigger (method × resource).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodContract {
    /// The trigger this contract governs.
    pub trigger: Trigger,
    /// Combined pre-condition: `⋁ clauses.pre`.
    pub pre: Expr,
    /// Combined post-condition:
    /// `⋀ (pre(clauses.pre) implies clauses.post)`.
    pub post: Expr,
    /// The per-transition clauses the combined forms were built from.
    pub clauses: Vec<ContractClause>,
    /// Union of the clauses' security requirements, in first-use order.
    pub security_requirements: Vec<String>,
}

impl MethodContract {
    /// Evaluate the pre-condition against the current state.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] (unknown variables, non-boolean outcome …);
    /// the monitor reports such errors as contract violations with
    /// diagnostics rather than panicking.
    pub fn evaluate_pre(&self, current: &dyn Navigator) -> Result<bool, EvalError> {
        EvalContext::new(current).eval_bool(&self.pre)
    }

    /// Evaluate the post-condition against the post state plus the
    /// pre-state snapshot taken before the call.
    ///
    /// # Errors
    ///
    /// As [`MethodContract::evaluate_pre`].
    pub fn evaluate_post(
        &self,
        current: &dyn Navigator,
        pre_state: &dyn Navigator,
    ) -> Result<bool, EvalError> {
        EvalContext::with_pre_state(current, pre_state).eval_bool(&self.post)
    }

    /// The clauses whose individual pre-condition holds in `state` — i.e.
    /// which transitions the method invocation would take. Used for
    /// diagnostics ("the DELETE was enabled by transition t_del_2") and
    /// requirement-coverage reporting.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn enabled_clauses(
        &self,
        state: &dyn Navigator,
    ) -> Result<Vec<&ContractClause>, EvalError> {
        let mut out = Vec::new();
        for clause in &self.clauses {
            if EvalContext::new(state).eval_bool(&clause.pre)? {
                out.push(clause);
            }
        }
        Ok(out)
    }

    /// Security requirements exercised when the method fires from `state`
    /// (the requirements of the enabled clauses).
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn exercised_requirements(&self, state: &dyn Navigator) -> Result<Vec<String>, EvalError> {
        let mut out: Vec<String> = Vec::new();
        for clause in self.enabled_clauses(state)? {
            for r in &clause.security_requirements {
                if !out.contains(r) {
                    out.push(r.clone());
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Display for MethodContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "contract for {} ({} clause{})",
            self.trigger,
            self.clauses.len(),
            if self.clauses.len() == 1 { "" } else { "s" }
        )
    }
}

/// All contracts generated from one behavioural model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContractSet {
    /// The contracts, one per distinct trigger, in model order.
    pub contracts: Vec<MethodContract>,
    /// The source model's states `(name, invariant)`, in model order —
    /// kept so the monitor can report *which* state the system is in
    /// (the paper's stateful-wrapper view over stateless REST).
    pub states: Vec<(String, Expr)>,
}

impl ContractSet {
    /// The contract governing `trigger`, if the model mentions it.
    #[must_use]
    pub fn contract_for(&self, trigger: &Trigger) -> Option<&MethodContract> {
        self.contracts.iter().find(|c| &c.trigger == trigger)
    }

    /// Total number of clauses across all contracts.
    #[must_use]
    pub fn clause_count(&self) -> usize {
        self.contracts.iter().map(|c| c.clauses.len()).sum()
    }

    /// Names of the states whose invariant holds in `state` — usually one
    /// (the machine's current state), possibly none mid-anomaly or several
    /// when invariants overlap.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn states_matching(&self, state: &dyn Navigator) -> Result<Vec<String>, EvalError> {
        let mut out = Vec::new();
        for (name, invariant) in &self.states {
            if EvalContext::new(state).eval_bool(invariant)? {
                out.push(name.clone());
            }
        }
        Ok(out)
    }

    /// All security-requirement ids covered by some contract.
    #[must_use]
    pub fn covered_requirements(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in &self.contracts {
            for r in &c.security_requirements {
                if !out.contains(r) {
                    out.push(r.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod eval_tests {
    use super::*;
    use crate::generate::generate;
    use cm_model::{cinder, HttpMethod, Trigger};
    use cm_ocl::{MapNavigator, ObjRef, Value};

    fn delete_contract() -> MethodContract {
        generate(&cinder::behavioral_model())
            .unwrap()
            .contract_for(&Trigger::new(HttpMethod::Delete, "volume"))
            .unwrap()
            .clone()
    }

    /// Environment: project with `n` volumes (quota 10), the addressed
    /// volume available, requester role `role`.
    fn env(n: i64, role: &str, status: &str) -> MapNavigator {
        let project = ObjRef::new("project", 1);
        let quota = ObjRef::new("quota_sets", 1);
        let user = ObjRef::new("user", 1);
        let mut nav = MapNavigator::new();
        let volumes: Vec<Value> = (0..n)
            .map(|i| {
                let v = ObjRef::new("volume", i as u64 + 1);
                nav.set_attribute(v.clone(), "id", Value::set(vec![Value::Int(i + 1)]));
                nav.set_attribute(v.clone(), "status", status);
                Value::Obj(v)
            })
            .collect();
        nav.set_variable("project", project.clone());
        nav.set_variable("quota_sets", quota.clone());
        nav.set_variable("user", user.clone());
        nav.set_variable("volume", ObjRef::new("volume", 1));
        nav.set_attribute(project.clone(), "id", Value::set(vec![Value::Int(1)]));
        nav.set_attribute(project, "volumes", Value::set(volumes));
        nav.set_attribute(quota, "volume", 10i64);
        nav.set_attribute(user, "groups", role);
        nav
    }

    #[test]
    fn evaluate_pre_respects_role_and_status() {
        let c = delete_contract();
        assert!(c.evaluate_pre(&env(2, "admin", "available")).unwrap());
        assert!(!c.evaluate_pre(&env(2, "member", "available")).unwrap());
        assert!(!c.evaluate_pre(&env(2, "admin", "in-use")).unwrap());
        assert!(!c.evaluate_pre(&env(0, "admin", "available")).unwrap());
    }

    #[test]
    fn enabled_clauses_select_the_firing_transition() {
        let c = delete_contract();
        // Two volumes: the `size > 1` self-loop clause (t_del_2) fires.
        let enabled = c.enabled_clauses(&env(2, "admin", "available")).unwrap();
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].transition_id, "t_del_2");
        // One volume: the last-volume clause (t_del_1).
        let enabled1 = c.enabled_clauses(&env(1, "admin", "available")).unwrap();
        assert_eq!(enabled1.len(), 1);
        assert_eq!(enabled1[0].transition_id, "t_del_1");
        // Unauthorized: nothing enabled.
        assert!(c
            .enabled_clauses(&env(2, "user", "available"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn evaluate_post_accepts_decrease_and_rejects_stasis() {
        let c = delete_contract();
        let pre = env(2, "admin", "available");
        let decreased = env(1, "admin", "available");
        assert!(c.evaluate_post(&decreased, &pre).unwrap());
        // State unchanged after a supposedly successful delete: violated.
        let unchanged = env(2, "admin", "available");
        assert!(!c.evaluate_post(&unchanged, &pre).unwrap());
    }

    #[test]
    fn post_is_vacuous_when_pre_never_held() {
        let c = delete_contract();
        // Pre-state where no clause fired (unauthorized): every
        // implication's antecedent is false, so the post holds whatever
        // the current state looks like.
        let pre = env(2, "user", "available");
        let anything = env(2, "user", "available");
        assert!(c.evaluate_post(&anything, &pre).unwrap());
    }

    #[test]
    fn exercised_requirements_follow_enabled_clauses() {
        let c = delete_contract();
        assert_eq!(
            c.exercised_requirements(&env(2, "admin", "available"))
                .unwrap(),
            vec!["1.4"]
        );
        assert!(c
            .exercised_requirements(&env(2, "user", "available"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn display_shows_clause_count() {
        let c = delete_contract();
        assert_eq!(c.to_string(), "contract for DELETE(volume) (3 clauses)");
    }
}
