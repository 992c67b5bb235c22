//! Compiled contracts: the interned, allocation-free evaluation pipeline.
//!
//! [`CompiledContractSet::compile`] lowers every generated
//! [`MethodContract`] through [`cm_ocl::ProgramBuilder`] into two
//! [`Program`]s per contract — one for the pre-condition side, one for the
//! post-condition side — sharing a single [`SymbolTable`] across the set.
//!
//! Hash-consing does the heavy lifting for the paper's contract shape:
//!
//! * the combined pre-condition `⋁ (invariant(source) ∧ guard)` and the
//!   per-clause pre-conditions are added to the *same* program, so each
//!   clause root is literally a shared subtree of the combined root — a
//!   source-state invariant shared by several transitions becomes one
//!   memoized node, evaluated at most once per request even when the
//!   monitor checks the combined verdict *and* per-clause enablement;
//! * the state invariants are added as extra roots of both programs, so
//!   state diagnostics (`states_matching`) reuse the same memo table and
//!   their attribute reads are included in the read scopes.
//!
//! The per-program attribute analysis is resolved here into name-keyed
//! [`AttrScope`]s: `pre_scope` is everything the pre-state environment
//! must bind (current-state reads of the pre side **plus** the post
//! side's `pre()` reads, since the same environment later serves as the
//! post's pre-state), and `post_scope` is the post side's current-state
//! reads.
//! When the compile-time analysis is inexact (a `let` may alias objects),
//! the scope degrades to whole-root wildcards — never to silence.
//!
//! The tree-walking interpreter on [`MethodContract`] remains the
//! reference oracle; differential tests assert verdict and
//! requirement-attribution equality between the two pipelines.

use crate::contract::{ContractSet, MethodContract};
use cm_model::Trigger;
use cm_ocl::{
    AttrScope, EnvView, EvalError, EvalScratch, NodeId, Program, ProgramBuilder, SymbolTable,
};

/// One contract lowered to compiled form. Field layout mirrors
/// [`MethodContract`]: the combined pre/post roots plus per-clause and
/// per-state roots inside the same arenas.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledContract {
    /// The trigger this contract governs (same as the source contract).
    pub trigger: Trigger,
    pre: Program,
    pre_root: NodeId,
    clause_roots: Vec<NodeId>,
    pre_state_roots: Vec<NodeId>,
    post: Program,
    post_root: NodeId,
    post_state_roots: Vec<NodeId>,
    pre_scope: AttrScope,
    post_scope: AttrScope,
}

impl CompiledContract {
    /// Prepare `scratch` for pre-phase evaluation (combined pre,
    /// per-clause enablement and pre-state diagnostics share one memo
    /// table as long as the environment is unchanged).
    pub fn begin_pre(&self, scratch: &mut EvalScratch) {
        scratch.begin(&self.pre);
    }

    /// Prepare `scratch` for post-phase evaluation.
    pub fn begin_post(&self, scratch: &mut EvalScratch) {
        scratch.begin(&self.post);
    }

    /// Compiled equivalent of [`MethodContract::evaluate_pre`].
    ///
    /// # Errors
    ///
    /// Exactly the interpreter's [`EvalError`] conditions.
    pub fn evaluate_pre(
        &self,
        syms: &SymbolTable,
        env: &EnvView<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        self.pre.eval_bool(self.pre_root, syms, env, None, scratch)
    }

    /// Compiled equivalent of [`MethodContract::enabled_clauses`],
    /// returning clause *indices* into the source contract's `clauses`.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error, like the interpreter.
    pub fn enabled_clause_indices(
        &self,
        syms: &SymbolTable,
        env: &EnvView<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<Vec<usize>, EvalError> {
        let mut out = Vec::new();
        for (i, &root) in self.clause_roots.iter().enumerate() {
            if self.pre.eval_bool(root, syms, env, None, scratch)? {
                out.push(i);
            }
        }
        Ok(out)
    }

    /// Compiled equivalent of [`MethodContract::evaluate_post`].
    ///
    /// # Errors
    ///
    /// Exactly the interpreter's [`EvalError`] conditions.
    pub fn evaluate_post(
        &self,
        syms: &SymbolTable,
        env: &EnvView<'_>,
        pre_env: &EnvView<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        self.post
            .eval_bool(self.post_root, syms, env, Some(pre_env), scratch)
    }

    /// Indices of the states whose invariant holds in the pre-phase
    /// environment (diagnostics; shares the pre-phase memo table).
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn matching_state_indices_pre(
        &self,
        syms: &SymbolTable,
        env: &EnvView<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<Vec<usize>, EvalError> {
        let mut out = Vec::new();
        for (i, &root) in self.pre_state_roots.iter().enumerate() {
            if self.pre.eval_bool(root, syms, env, None, scratch)? {
                out.push(i);
            }
        }
        Ok(out)
    }

    /// Indices of the states whose invariant holds in the post-phase
    /// environment (diagnostics; shares the post-phase memo table).
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error.
    pub fn matching_state_indices_post(
        &self,
        syms: &SymbolTable,
        env: &EnvView<'_>,
        pre_env: &EnvView<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<Vec<usize>, EvalError> {
        let mut out = Vec::new();
        for (i, &root) in self.post_state_roots.iter().enumerate() {
            if self
                .post
                .eval_bool(root, syms, env, Some(pre_env), scratch)?
            {
                out.push(i);
            }
        }
        Ok(out)
    }

    /// Attributes the pre-state environment must bind: current-state
    /// reads of the pre-condition and state invariants, plus the post
    /// side's `pre()` reads (the same environment serves as the post's
    /// pre-state).
    #[must_use]
    pub fn pre_scope(&self) -> &AttrScope {
        &self.pre_scope
    }

    /// Attributes the post-state environment must bind.
    #[must_use]
    pub fn post_scope(&self) -> &AttrScope {
        &self.post_scope
    }

    /// The compiled pre-side program (for stats/audit output).
    #[must_use]
    pub fn pre_program(&self) -> &Program {
        &self.pre
    }

    /// The compiled post-side program (for stats/audit output).
    #[must_use]
    pub fn post_program(&self) -> &Program {
        &self.post
    }
}

/// All contracts of a [`ContractSet`] in compiled form, sharing one
/// symbol table. `contracts[i]` corresponds to `set.contracts[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledContractSet {
    symbols: SymbolTable,
    contracts: Vec<CompiledContract>,
    state_names: Vec<String>,
}

impl CompiledContractSet {
    /// Lower every contract (and the state invariants) of `set`.
    #[must_use]
    pub fn compile(set: &ContractSet) -> Self {
        let mut symbols = SymbolTable::new();
        let contracts = set
            .contracts
            .iter()
            .map(|mc| compile_contract(mc, set, &mut symbols))
            .collect();
        CompiledContractSet {
            symbols,
            contracts,
            state_names: set.states.iter().map(|(n, _)| n.clone()).collect(),
        }
    }

    /// The shared symbol table.
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The compiled contracts, parallel to the source set's `contracts`.
    #[must_use]
    pub fn contracts(&self) -> &[CompiledContract] {
        &self.contracts
    }

    /// Index of the contract governing `trigger`, if any.
    #[must_use]
    pub fn index_for(&self, trigger: &Trigger) -> Option<usize> {
        self.contracts.iter().position(|c| &c.trigger == trigger)
    }

    /// State names, parallel to the per-contract state-root indices.
    #[must_use]
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }
}

fn resolve_pairs<'a>(
    syms: &'a SymbolTable,
    refs: impl Iterator<Item = &'a (u32, u32, bool)>,
) -> Vec<(String, String)> {
    refs.map(|&(r, a, _)| (syms.name(r).to_string(), syms.name(a).to_string()))
        .collect()
}

/// The pre/post read scopes implied by a compiled pre/post program
/// pair: the pre scope is the pre side's current-state reads plus the
/// post side's `pre()` reads (one snapshot serves both), the post scope
/// is the post side's current-state reads. Falls back to whole-root
/// wildcards when the analysis could not prove the read set exact.
fn derive_scopes(syms: &SymbolTable, pre: &Program, post: &Program) -> (AttrScope, AttrScope) {
    let pre_exact = pre.exact_scope() && post.exact_scope();
    let pre_scope = if pre_exact {
        let mut pairs = resolve_pairs(syms, pre.attr_refs().iter());
        pairs.extend(resolve_pairs(
            syms,
            post.attr_refs().iter().filter(|&&(_, _, p)| p),
        ));
        AttrScope::new(pairs, true)
    } else {
        AttrScope::wildcard(&resolve_roots(syms, &[pre, post]))
    };
    let post_scope = if post.exact_scope() {
        AttrScope::new(
            resolve_pairs(syms, post.attr_refs().iter().filter(|&&(_, _, p)| !p)),
            true,
        )
    } else {
        AttrScope::wildcard(&resolve_roots(syms, &[post]))
    };
    (pre_scope, post_scope)
}

fn resolve_roots(syms: &SymbolTable, programs: &[&Program]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for p in programs {
        for &r in p.root_vars() {
            let name = syms.name(r).to_string();
            if !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}

fn compile_contract(
    mc: &MethodContract,
    set: &ContractSet,
    symbols: &mut SymbolTable,
) -> CompiledContract {
    let mut b = ProgramBuilder::new(symbols);
    let pre_root = b.add(&mc.pre);
    let clause_roots: Vec<NodeId> = mc.clauses.iter().map(|c| b.add(&c.pre)).collect();
    let pre_state_roots: Vec<NodeId> = set.states.iter().map(|(_, inv)| b.add(inv)).collect();
    let pre = b.finish();

    let mut b = ProgramBuilder::new(symbols);
    let post_root = b.add(&mc.post);
    let post_state_roots: Vec<NodeId> = set.states.iter().map(|(_, inv)| b.add(inv)).collect();
    let post = b.finish();

    let (pre_scope, post_scope) = derive_scopes(symbols, &pre, &post);

    CompiledContract {
        trigger: mc.trigger.clone(),
        pre,
        pre_root,
        clause_roots,
        pre_state_roots,
        post,
        post_root,
        post_state_roots,
        pre_scope,
        post_scope,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use cm_model::{cinder, HttpMethod};
    use cm_ocl::{MapNavigator, ObjRef, Value};

    fn compiled_cinder() -> (ContractSet, CompiledContractSet) {
        let set = generate(&cinder::behavioral_model()).unwrap();
        let compiled = CompiledContractSet::compile(&set);
        (set, compiled)
    }

    /// Environment: project with `n` volumes (quota 10), the addressed
    /// volume available, requester role `role` (mirrors contract.rs).
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
    fn compiled_pre_matches_interpreter_across_environments() {
        let (set, compiled) = compiled_cinder();
        let mut scratch = EvalScratch::new();
        for (mc, cc) in set.contracts.iter().zip(compiled.contracts()) {
            for nav in [
                env(2, "admin", "available"),
                env(2, "member", "available"),
                env(1, "admin", "in-use"),
                env(0, "admin", "available"),
                env(10, "admin", "error"),
            ] {
                let view = EnvView::from_navigator(&nav, compiled.symbols());
                cc.begin_pre(&mut scratch);
                let c = cc.evaluate_pre(compiled.symbols(), &view, &mut scratch);
                let i = mc.evaluate_pre(&nav);
                assert_eq!(c.is_ok(), i.is_ok(), "pre parity for {}", mc.trigger);
                if let (Ok(c), Ok(i)) = (&c, &i) {
                    assert_eq!(c, i, "pre verdict for {}", mc.trigger);
                }
            }
        }
    }

    #[test]
    fn compiled_enabled_clauses_match_interpreter() {
        let (set, compiled) = compiled_cinder();
        let idx = compiled
            .index_for(&Trigger::new(HttpMethod::Delete, "volume"))
            .unwrap();
        let mc = &set.contracts[idx];
        let cc = &compiled.contracts()[idx];
        let mut scratch = EvalScratch::new();
        for nav in [
            env(2, "admin", "available"),
            env(1, "admin", "available"),
            env(2, "user", "available"),
        ] {
            let view = EnvView::from_navigator(&nav, compiled.symbols());
            cc.begin_pre(&mut scratch);
            let got: Vec<&str> = cc
                .enabled_clause_indices(compiled.symbols(), &view, &mut scratch)
                .unwrap()
                .into_iter()
                .map(|i| mc.clauses[i].transition_id.as_str())
                .collect();
            let want: Vec<&str> = mc
                .enabled_clauses(&nav)
                .unwrap()
                .into_iter()
                .map(|c| c.transition_id.as_str())
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn compiled_post_matches_interpreter() {
        let (set, compiled) = compiled_cinder();
        let idx = compiled
            .index_for(&Trigger::new(HttpMethod::Delete, "volume"))
            .unwrap();
        let mc = &set.contracts[idx];
        let cc = &compiled.contracts()[idx];
        let mut scratch = EvalScratch::new();
        for (pre_nav, post_nav) in [
            (env(2, "admin", "available"), env(1, "admin", "available")),
            (env(2, "admin", "available"), env(2, "admin", "available")),
            (env(2, "user", "available"), env(2, "user", "available")),
        ] {
            let pre_view = EnvView::from_navigator(&pre_nav, compiled.symbols());
            let post_view = EnvView::from_navigator(&post_nav, compiled.symbols());
            cc.begin_post(&mut scratch);
            let c = cc
                .evaluate_post(compiled.symbols(), &post_view, &pre_view, &mut scratch)
                .unwrap();
            let i = mc.evaluate_post(&post_nav, &pre_nav).unwrap();
            assert_eq!(c, i);
        }
    }

    #[test]
    fn state_diagnostics_match_interpreter() {
        let (set, compiled) = compiled_cinder();
        let cc = &compiled.contracts()[0];
        let nav = env(2, "admin", "available");
        let view = EnvView::from_navigator(&nav, compiled.symbols());
        let mut scratch = EvalScratch::new();
        cc.begin_pre(&mut scratch);
        let got: Vec<&str> = cc
            .matching_state_indices_pre(compiled.symbols(), &view, &mut scratch)
            .unwrap()
            .into_iter()
            .map(|i| compiled.state_names()[i].as_str())
            .collect();
        let want = set.states_matching(&nav).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_volume_scopes_are_exact_and_attribute_level() {
        let (_, compiled) = compiled_cinder();
        let idx = compiled
            .index_for(&Trigger::new(HttpMethod::Delete, "volume"))
            .unwrap();
        let cc = &compiled.contracts()[idx];
        assert!(cc.pre_scope().is_exact());
        assert!(cc.pre_scope().contains("user", "groups"));
        assert!(cc.pre_scope().contains("project", "volumes"));
        // The post side reads pre(project.volumes...) — those reads must
        // be in the *pre* scope, since the pre-phase snapshot serves as
        // the post's pre-state.
        assert!(cc.post_scope().is_exact());
        assert!(cc.post_scope().contains("project", "volumes"));
    }

    #[test]
    fn shared_invariants_earn_memo_slots() {
        let (_, compiled) = compiled_cinder();
        let idx = compiled
            .index_for(&Trigger::new(HttpMethod::Delete, "volume"))
            .unwrap();
        let cc = &compiled.contracts()[idx];
        // DELETE(volume) has 3 clauses whose pre-conditions appear both
        // in the combined disjunction and as clause roots: shared
        // subtrees must be memoized.
        assert!(
            cc.pre_program().memo_slot_count() >= 3,
            "expected shared clause/invariant memo slots, got {}",
            cc.pre_program().memo_slot_count()
        );
    }
}
