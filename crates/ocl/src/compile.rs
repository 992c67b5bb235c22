//! Compilation of OCL expressions to a flattened, interned program.
//!
//! The tree-walking interpreter in [`crate::eval`] is the semantic
//! reference, but it pays for generality on every request: `String`-keyed
//! variable and attribute lookups, a fresh `HashMap` key allocation per
//! navigation, re-evaluation of shared invariant subtrees, and a dynamic
//! `pre()` mode flag threaded through the walk. This module lowers an
//! [`Expr`] once, at contract-generation time, into a [`Program`]:
//!
//! * **Interning** — every identifier, attribute name and operation name
//!   becomes a `u32` [`Sym`] in a shared [`SymbolTable`]; the evaluator's
//!   locals stack and the [`EnvView`] snapshot lookups are integer-keyed.
//! * **Flattened arena** — nodes live in one `Vec` with `u32` child
//!   indices, in topological order (children before parents), and are
//!   hash-consed: structurally identical subtrees share one node. The
//!   `pre()` / `@pre` context is resolved during lowering into a boolean
//!   on each `Var`/`Nav` node, so node identity is context-free.
//! * **Constant folding** — lowering runs [`crate::simplify::simplify`]
//!   first, then deduplicates the remaining literals into a constant pool.
//! * **Invariant memoization** — hash-consing makes the source-state
//!   invariant shared by the clauses of one pre-condition disjunction a
//!   single node; [`ProgramBuilder::finish`] assigns a memo slot to every
//!   multi-use node whose free variables cannot be captured by a binder,
//!   so each distinct invariant is evaluated at most once per request.
//! * **Attribute-reference analysis** — lowering records exactly which
//!   `(root variable, attribute)` pairs a program reads, split by
//!   pre-state vs. current-state, the input for [`AttrScope`]d snapshot
//!   probing.
//!
//! Evaluation reuses the interpreter's operator cores
//! (`binary_values`, `collection_op`, `method_call`, `iterate_values`),
//! so both pipelines share one definition of the OCL semantics — the
//! differential property tests in the workspace root rely on this.

use crate::ast::{BinOp, CollectionKind, Expr, IterOp, UnOp};
use crate::eval::{
    arrow_items, binary_values, collection_op, iterate_values, method_call, unary_value,
    CoercionMode, EvalError, MapNavigator,
};
use crate::simplify::simplify;
use crate::value::{ObjRef, Value};
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::Arc;

/// An interned identifier (variable, attribute, or operation name).
pub type Sym = u32;

/// Index of a node in a [`Program`] arena.
pub type NodeId = u32;

const MEMO_NONE: u32 = u32::MAX;

/// Bidirectional `String` ↔ [`Sym`] interner shared by every program
/// compiled from one contract set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, Sym>,
}

impl SymbolTable {
    /// Create an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = Sym::try_from(self.names.len()).expect("symbol table overflow");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), s);
        s
    }

    /// Look up an already-interned name without adding it.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.index.get(name).copied()
    }

    /// Resolve a symbol back to its name.
    #[must_use]
    pub fn name(&self, sym: Sym) -> &str {
        &self.names[sym as usize]
    }

    /// Number of interned names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A flattened expression node. Children are referenced by [`NodeId`];
/// argument lists are ranges into the program's side table. All fields are
/// `Copy` integers so nodes can be hash-consed cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// Index into the constant pool.
    Const(u32),
    Var {
        name: Sym,
        pre: bool,
    },
    Nav {
        src: NodeId,
        prop: Sym,
        pre: bool,
    },
    Binary {
        op: BinOp,
        lhs: NodeId,
        rhs: NodeId,
    },
    Unary {
        op: UnOp,
        operand: NodeId,
    },
    If {
        cond: NodeId,
        then_branch: NodeId,
        else_branch: NodeId,
    },
    Let {
        name: Sym,
        value: NodeId,
        body: NodeId,
    },
    CollOp {
        src: NodeId,
        op: Sym,
        args_start: u32,
        args_len: u32,
    },
    Iterate {
        src: NodeId,
        op: IterOp,
        var: Sym,
        body: NodeId,
    },
    Fold {
        src: NodeId,
        var: Sym,
        acc: Sym,
        init: NodeId,
        body: NodeId,
    },
    Call {
        src: NodeId,
        op: Sym,
        args_start: u32,
        args_len: u32,
    },
    CollLit {
        kind: CollectionKind,
        start: u32,
        len: u32,
    },
}

/// A compiled, immutable OCL program: a hash-consed node arena plus the
/// compile-time analyses (memo slots, attribute references) derived from
/// it. Build one with [`ProgramBuilder`]; evaluate roots with
/// [`Program::eval`] / [`Program::eval_bool`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    nodes: Vec<Node>,
    consts: Vec<Value>,
    args: Vec<NodeId>,
    /// Per-node memo slot, `MEMO_NONE` when the node is not memoized.
    memo_slot: Vec<u32>,
    memo_slots: u32,
    attr_refs: Vec<(Sym, Sym, bool)>,
    root_vars: Vec<Sym>,
    exact_scope: bool,
}

impl Program {
    /// Number of arena nodes (compiled-program size for audit output).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of per-request memo slots assigned at compile time.
    #[must_use]
    pub fn memo_slot_count(&self) -> usize {
        self.memo_slots as usize
    }

    /// The `(root variable, attribute, reads-pre-state)` triples this
    /// program navigates, deduplicated and sorted.
    #[must_use]
    pub fn attr_refs(&self) -> &[(Sym, Sym, bool)] {
        &self.attr_refs
    }

    /// Free root variables referenced by the program, sorted by symbol.
    #[must_use]
    pub fn root_vars(&self) -> &[Sym] {
        &self.root_vars
    }

    /// Whether [`Program::attr_refs`] is a *complete* account of state
    /// reads. `let` bindings can alias objects past the analysis, in which
    /// case a scope must fall back to whole-root wildcards.
    #[must_use]
    pub fn exact_scope(&self) -> bool {
        self.exact_scope
    }

    /// Evaluate the node `root` against interned environments.
    ///
    /// `scratch` must have been prepared with [`EvalScratch::begin`] for
    /// this program; keeping it across several roots of the *same* program
    /// evaluated against the *same* environments shares memoized invariant
    /// results between them.
    ///
    /// # Errors
    ///
    /// Exactly the interpreter's [`EvalError`] conditions: unknown
    /// variables or operations, type mismatches, `pre()` without a
    /// pre-state environment.
    pub fn eval(
        &self,
        root: NodeId,
        syms: &SymbolTable,
        current: &EnvView<'_>,
        pre: Option<&EnvView<'_>>,
        scratch: &mut EvalScratch,
    ) -> Result<Value, EvalError> {
        Machine {
            prog: self,
            syms,
            current,
            pre,
            mode: CoercionMode::Lenient,
        }
        .eval(root, scratch)
        .map(Ev::into_owned)
    }

    /// Evaluate `root` and require a defined boolean, mirroring
    /// `EvalContext::eval_bool`.
    ///
    /// # Errors
    ///
    /// As [`Program::eval`], plus an error when the result is not a
    /// defined boolean.
    pub fn eval_bool(
        &self,
        root: NodeId,
        syms: &SymbolTable,
        current: &EnvView<'_>,
        pre: Option<&EnvView<'_>>,
        scratch: &mut EvalScratch,
    ) -> Result<bool, EvalError> {
        match self.eval(root, syms, current, pre, scratch)? {
            Value::Bool(b) => Ok(b),
            other => Err(EvalError::new(format!(
                "expected Boolean contract outcome, got {} ({other})",
                other.type_name()
            ))),
        }
    }
}

/// Lowers [`Expr`]s into one shared [`Program`] arena. Call
/// [`ProgramBuilder::add`] once per root expression, then
/// [`ProgramBuilder::finish`].
#[derive(Debug)]
pub struct ProgramBuilder<'a> {
    syms: &'a mut SymbolTable,
    nodes: Vec<Node>,
    consts: Vec<Value>,
    args: Vec<NodeId>,
    dedup: HashMap<Node, NodeId>,
    binders: HashSet<Sym>,
    has_let: bool,
    roots: Vec<NodeId>,
}

impl<'a> ProgramBuilder<'a> {
    /// Start a builder interning into `syms`.
    #[must_use]
    pub fn new(syms: &'a mut SymbolTable) -> Self {
        ProgramBuilder {
            syms,
            nodes: Vec::new(),
            consts: Vec::new(),
            args: Vec::new(),
            dedup: HashMap::new(),
            binders: HashSet::new(),
            has_let: false,
            roots: Vec::new(),
        }
    }

    /// Simplify and lower `expr`, returning the root node of the lowered
    /// subtree. Structurally identical subtrees across multiple `add`
    /// calls share nodes (and therefore memo slots).
    pub fn add(&mut self, expr: &Expr) -> NodeId {
        let id = self.lower(&simplify(expr), false);
        self.roots.push(id);
        id
    }

    fn push(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = NodeId::try_from(self.nodes.len()).expect("program arena overflow");
        self.nodes.push(node);
        self.dedup.insert(node, id);
        id
    }

    fn konst(&mut self, v: Value) -> NodeId {
        let idx = match self.consts.iter().position(|c| *c == v) {
            Some(i) => i as u32,
            None => {
                self.consts.push(v);
                (self.consts.len() - 1) as u32
            }
        };
        self.push(Node::Const(idx))
    }

    fn lower_list(&mut self, exprs: &[Expr], pre: bool) -> (u32, u32) {
        let ids: Vec<NodeId> = exprs.iter().map(|e| self.lower(e, pre)).collect();
        let start = self.args.len() as u32;
        self.args.extend(ids);
        (start, exprs.len() as u32)
    }

    fn lower(&mut self, e: &Expr, pre: bool) -> NodeId {
        match e {
            Expr::Bool(b) => self.konst(Value::Bool(*b)),
            Expr::Int(v) => self.konst(Value::Int(*v)),
            Expr::Real(v) => self.konst(Value::Real(*v)),
            Expr::Str(s) => self.konst(Value::Str(s.clone())),
            Expr::Null => self.konst(Value::Undefined),
            Expr::Var(name) => {
                let name = self.syms.intern(name);
                self.push(Node::Var { name, pre })
            }
            Expr::Nav {
                source,
                property,
                at_pre,
            } => {
                let src = self.lower(source, pre);
                let prop = self.syms.intern(property);
                self.push(Node::Nav {
                    src,
                    prop,
                    pre: pre || *at_pre,
                })
            }
            // The pre-state context is resolved here, at compile time:
            // everything inside pre(...) lowers with the pre flag set.
            Expr::Pre(inner) => self.lower(inner, true),
            Expr::CollOp { source, op, args } => {
                let src = self.lower(source, pre);
                let (args_start, args_len) = self.lower_list(args, pre);
                let op = self.syms.intern(op);
                self.push(Node::CollOp {
                    src,
                    op,
                    args_start,
                    args_len,
                })
            }
            Expr::Iterate {
                source,
                op,
                var,
                body,
            } => {
                let src = self.lower(source, pre);
                let var = self.syms.intern(var);
                self.binders.insert(var);
                let body = self.lower(body, pre);
                self.push(Node::Iterate {
                    src,
                    op: *op,
                    var,
                    body,
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs = self.lower(lhs, pre);
                let rhs = self.lower(rhs, pre);
                self.push(Node::Binary { op: *op, lhs, rhs })
            }
            Expr::Unary { op, operand } => {
                let operand = self.lower(operand, pre);
                self.push(Node::Unary { op: *op, operand })
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.lower(cond, pre);
                let then_branch = self.lower(then_branch, pre);
                let else_branch = self.lower(else_branch, pre);
                self.push(Node::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Expr::Let { name, value, body } => {
                self.has_let = true;
                let value = self.lower(value, pre);
                let name = self.syms.intern(name);
                self.binders.insert(name);
                let body = self.lower(body, pre);
                self.push(Node::Let { name, value, body })
            }
            Expr::CollectionLiteral { kind, elements } => {
                let (start, len) = self.lower_list(elements, pre);
                self.push(Node::CollLit {
                    kind: *kind,
                    start,
                    len,
                })
            }
            Expr::Fold {
                source,
                var,
                acc,
                init,
                body,
            } => {
                let src = self.lower(source, pre);
                let var = self.syms.intern(var);
                let acc = self.syms.intern(acc);
                self.binders.insert(var);
                self.binders.insert(acc);
                let init = self.lower(init, pre);
                let body = self.lower(body, pre);
                self.push(Node::Fold {
                    src,
                    var,
                    acc,
                    init,
                    body,
                })
            }
            Expr::Call { source, op, args } => {
                let src = self.lower(source, pre);
                let (args_start, args_len) = self.lower_list(args, pre);
                let op = self.syms.intern(op);
                self.push(Node::Call {
                    src,
                    op,
                    args_start,
                    args_len,
                })
            }
        }
    }

    /// Each direct child edge of `node`, plus its argument-list entries.
    fn children(node: &Node, args: &[NodeId], mut visit: impl FnMut(NodeId)) {
        match *node {
            Node::Const(_) | Node::Var { .. } => {}
            Node::Nav { src, .. } => visit(src),
            Node::Binary { lhs, rhs, .. } => {
                visit(lhs);
                visit(rhs);
            }
            Node::Unary { operand, .. } => visit(operand),
            Node::If {
                cond,
                then_branch,
                else_branch,
            } => {
                visit(cond);
                visit(then_branch);
                visit(else_branch);
            }
            Node::Let { value, body, .. } => {
                visit(value);
                visit(body);
            }
            Node::CollOp {
                src,
                args_start,
                args_len,
                ..
            }
            | Node::Call {
                src,
                args_start,
                args_len,
                ..
            } => {
                visit(src);
                for &a in &args[args_start as usize..(args_start + args_len) as usize] {
                    visit(a);
                }
            }
            Node::Iterate { src, body, .. } => {
                visit(src);
                visit(body);
            }
            Node::Fold {
                src, init, body, ..
            } => {
                visit(src);
                visit(init);
                visit(body);
            }
            Node::CollLit { start, len, .. } => {
                for &a in &args[start as usize..(start + len) as usize] {
                    visit(a);
                }
            }
        }
    }

    /// Run the compile-time analyses and freeze the arena.
    #[must_use]
    pub fn finish(self) -> Program {
        let n = self.nodes.len();

        // Use counts: every child edge plus every root reference. The
        // arena is topological (children precede parents), so bottom-up
        // passes are simple index loops.
        let mut refs = vec![0u32; n];
        for node in &self.nodes {
            Self::children(node, &self.args, |c| refs[c as usize] += 1);
        }
        for &r in &self.roots {
            refs[r as usize] += 1;
        }

        // Free local-candidate variables per node: a node may be memoized
        // only if no free variable of its subtree is ever used as a binder
        // name anywhere in the program (otherwise its value could depend
        // on the locals stack at the use site). Binder-bound occurrences
        // are subtracted structurally.
        let mut free: Vec<Vec<Sym>> = Vec::with_capacity(n);
        for node in &self.nodes {
            let mut f: Vec<Sym> = Vec::new();
            match *node {
                Node::Var { name, .. } => f.push(name),
                Node::Let { name, value, body } => {
                    f.extend(&free[value as usize]);
                    f.extend(free[body as usize].iter().filter(|s| **s != name));
                }
                Node::Iterate { src, var, body, .. } => {
                    f.extend(&free[src as usize]);
                    f.extend(free[body as usize].iter().filter(|s| **s != var));
                }
                Node::Fold {
                    src,
                    var,
                    acc,
                    init,
                    body,
                } => {
                    f.extend(&free[src as usize]);
                    f.extend(&free[init as usize]);
                    f.extend(
                        free[body as usize]
                            .iter()
                            .filter(|s| **s != var && **s != acc),
                    );
                }
                _ => Self::children(node, &self.args, |c| f.extend(&free[c as usize])),
            }
            f.sort_unstable();
            f.dedup();
            free.push(f);
        }

        // Memo slots: multi-use, closed (no capturable free variable),
        // non-trivial nodes get one per-request slot each.
        let mut memo_slot = vec![MEMO_NONE; n];
        let mut memo_slots = 0u32;
        for i in 0..n {
            let trivial = matches!(self.nodes[i], Node::Const(_) | Node::Var { .. });
            let closed = free[i].iter().all(|s| !self.binders.contains(s));
            if refs[i] >= 2 && closed && !trivial {
                memo_slot[i] = memo_slots;
                memo_slots += 1;
            }
        }

        // Attribute references: navigation on a (non-binder) root
        // variable. Chained navigations past the first hop resolve to
        // objects delivered by the same probe request that bound the
        // first hop, so root-level pairs are exactly the probe-gating
        // granularity.
        let mut attr_refs: Vec<(Sym, Sym, bool)> = Vec::new();
        let mut root_vars: Vec<Sym> = Vec::new();
        for node in &self.nodes {
            match *node {
                Node::Var { name, .. }
                    if !self.binders.contains(&name) && !root_vars.contains(&name) =>
                {
                    root_vars.push(name);
                }
                Node::Nav { src, prop, pre } => {
                    if let Node::Var { name, .. } = self.nodes[src as usize] {
                        if !self.binders.contains(&name) {
                            let r = (name, prop, pre);
                            if !attr_refs.contains(&r) {
                                attr_refs.push(r);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        attr_refs.sort_unstable();
        root_vars.sort_unstable();

        Program {
            nodes: self.nodes,
            consts: self.consts,
            args: self.args,
            memo_slot,
            memo_slots,
            attr_refs,
            root_vars,
            exact_scope: !self.has_let,
        }
    }
}

/// A memoized result. Scalars are stored (and handed back) by value —
/// their clone is at worst one small allocation; collections are stored
/// behind an [`Arc`] so a hit is a refcount bump instead of a deep clone.
#[derive(Debug, Clone)]
enum MemoVal {
    Plain(Value),
    Shared(Arc<Value>),
}

/// Reusable per-evaluation state: the interned locals stack and the memo
/// slot table. Owned by each monitor shard so steady-state contract
/// evaluation re-uses the same allocations request after request.
#[derive(Debug, Default)]
pub struct EvalScratch {
    locals: Vec<(Sym, Value)>,
    memo: Vec<Option<MemoVal>>,
}

impl EvalScratch {
    /// Create an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for evaluating roots of `program` against one fixed pair of
    /// environments. Memoized results are only valid while the
    /// environments do not change; call `begin` again when they do.
    pub fn begin(&mut self, program: &Program) {
        self.locals.clear();
        self.memo.clear();
        self.memo.resize(program.memo_slots as usize, None);
    }
}

/// An integer-keyed, borrowed view of a [`MapNavigator`] snapshot.
/// Built once per request; lookups are linear scans over `(Sym, value)`
/// pairs, which beats string hashing at snapshot sizes (a handful of
/// variables, a few dozen attributes) and never allocates.
#[derive(Debug, Default)]
pub struct EnvView<'a> {
    vars: Vec<(Sym, &'a Value)>,
    attrs: Vec<(&'a ObjRef, Sym, &'a Value)>,
}

impl<'a> EnvView<'a> {
    /// Project `nav` through `syms`; bindings whose names were never
    /// interned cannot be referenced by any compiled program and are
    /// dropped.
    #[must_use]
    pub fn from_navigator(nav: &'a MapNavigator, syms: &SymbolTable) -> Self {
        let mut vars = Vec::new();
        for (name, v) in nav.variables() {
            if let Some(s) = syms.lookup(name) {
                vars.push((s, v));
            }
        }
        vars.sort_unstable_by_key(|(s, _)| *s);
        let mut attrs = Vec::new();
        for (obj, prop, v) in nav.attributes() {
            if let Some(p) = syms.lookup(prop) {
                attrs.push((obj, p, v));
            }
        }
        // Sorted by property symbol so lookups binary-search to the
        // equal-prop range and only compare object refs within it.
        attrs.sort_unstable_by_key(|(_, p, _)| *p);
        EnvView { vars, attrs }
    }

    fn variable(&self, s: Sym) -> Option<&'a Value> {
        self.vars
            .binary_search_by_key(&s, |(n, _)| *n)
            .ok()
            .map(|i| self.vars[i].1)
    }

    fn attribute(&self, obj: &ObjRef, prop: Sym) -> Option<&'a Value> {
        let start = self.attrs.partition_point(|(_, p, _)| *p < prop);
        self.attrs[start..]
            .iter()
            .take_while(|(_, p, _)| *p == prop)
            .find(|(o, _, _)| o.id == obj.id && o.class == obj.class)
            .map(|(_, _, v)| *v)
    }
}

/// Attribute-level read scope: the `(root, attribute)` pairs a contract
/// phase may read, resolved to names. Drift attribution consults this to
/// find the contracts a drifted attribute affects. The wildcard
/// attribute `"*"` marks a whole root as read (the fallback when the
/// compile-time analysis was inexact).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttrScope {
    pairs: Vec<(String, String)>,
    exact: bool,
}

impl AttrScope {
    /// Scope over explicit pairs; `exact` records whether the analysis
    /// proved the list complete.
    #[must_use]
    pub fn new(mut pairs: Vec<(String, String)>, exact: bool) -> Self {
        pairs.sort();
        pairs.dedup();
        AttrScope { pairs, exact }
    }

    /// Whole-root wildcard scope (used when the analysis is inexact).
    #[must_use]
    pub fn wildcard(roots: &[String]) -> Self {
        AttrScope::new(
            roots.iter().map(|r| (r.clone(), "*".to_string())).collect(),
            false,
        )
    }

    /// Does the scope require `root.attr`?
    #[must_use]
    pub fn contains(&self, root: &str, attr: &str) -> bool {
        self.pairs
            .iter()
            .any(|(r, a)| r == root && (a == attr || a == "*"))
    }

    /// The sorted `(root, attribute)` pairs.
    #[must_use]
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Whether the pair list was proven complete at compile time.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.exact
    }
}

/// A value flowing out of one [`Machine`] evaluation step: borrowed from
/// the environment or constant pool, owned by the computation, or shared
/// out of the memo table. `Shared` is what makes memoization pay off —
/// a hit hands out an [`Arc`] bump instead of a deep clone, which matters
/// because memoized subtrees are often collection-valued navigations
/// (`project.volumes`) whose deep clone costs more than re-reading a
/// scalar would.
enum Ev<'a> {
    Borrowed(&'a Value),
    Owned(Value),
    Shared(Arc<Value>),
}

impl Deref for Ev<'_> {
    type Target = Value;

    fn deref(&self) -> &Value {
        match self {
            Ev::Borrowed(v) => v,
            Ev::Owned(v) => v,
            Ev::Shared(v) => v,
        }
    }
}

impl Ev<'_> {
    fn into_owned(self) -> Value {
        match self {
            Ev::Borrowed(v) => v.clone(),
            Ev::Owned(v) => v,
            Ev::Shared(v) => Arc::try_unwrap(v).unwrap_or_else(|v| (*v).clone()),
        }
    }

    fn into_shared(self) -> Arc<Value> {
        match self {
            Ev::Borrowed(v) => Arc::new(v.clone()),
            Ev::Owned(v) => Arc::new(v),
            Ev::Shared(v) => v,
        }
    }
}

/// The compiled evaluator: mirrors `EvalContext::eval_in` node for node,
/// sharing the operator cores with the interpreter. Values borrowed from
/// the environment or constant pool flow through as [`Ev::Borrowed`], so
/// reads like `project.volumes->size()` copy nothing.
struct Machine<'a> {
    prog: &'a Program,
    syms: &'a SymbolTable,
    current: &'a EnvView<'a>,
    pre: Option<&'a EnvView<'a>>,
    mode: CoercionMode,
}

impl<'a> Machine<'a> {
    fn env(&self, pre: bool) -> Result<&'a EnvView<'a>, EvalError> {
        if pre {
            self.pre.ok_or_else(|| {
                EvalError::new("`@pre`/`pre()` used but no pre-state snapshot is available")
            })
        } else {
            Ok(self.current)
        }
    }

    fn eval(&self, id: NodeId, scratch: &mut EvalScratch) -> Result<Ev<'a>, EvalError> {
        let slot = self.prog.memo_slot[id as usize];
        if slot != MEMO_NONE {
            match &scratch.memo[slot as usize] {
                Some(MemoVal::Plain(v)) => return Ok(Ev::Owned(v.clone())),
                Some(MemoVal::Shared(v)) => return Ok(Ev::Shared(Arc::clone(v))),
                None => {}
            }
        }
        let out = self.eval_raw(id, scratch)?;
        if slot != MEMO_NONE {
            if matches!(&*out, Value::Coll(..)) {
                let shared = out.into_shared();
                scratch.memo[slot as usize] = Some(MemoVal::Shared(Arc::clone(&shared)));
                return Ok(Ev::Shared(shared));
            }
            scratch.memo[slot as usize] = Some(MemoVal::Plain((*out).clone()));
        }
        Ok(out)
    }

    fn eval_raw(&self, id: NodeId, scratch: &mut EvalScratch) -> Result<Ev<'a>, EvalError> {
        match self.prog.nodes[id as usize] {
            Node::Const(i) => Ok(Ev::Borrowed(&self.prog.consts[i as usize])),
            Node::Var { name, pre } => {
                if let Some((_, v)) = scratch.locals.iter().rev().find(|(n, _)| *n == name) {
                    return Ok(Ev::Owned(v.clone()));
                }
                self.env(pre)?
                    .variable(name)
                    .map(Ev::Borrowed)
                    .ok_or_else(|| {
                        EvalError::new(format!("unknown variable `{}`", self.syms.name(name)))
                    })
            }
            Node::Nav { src, prop, pre } => {
                // Navigation straight off a variable (the `v.status`
                // shape that dominates invariant bodies) reads the
                // binding in place instead of cloning it out of the
                // locals stack first.
                if let Node::Var { name, pre: vpre } = self.prog.nodes[src as usize] {
                    if let Some((_, v)) = scratch.locals.iter().rev().find(|(n, _)| *n == name) {
                        return self.navigate(v, prop, pre);
                    }
                    let v = self.env(vpre)?.variable(name).ok_or_else(|| {
                        EvalError::new(format!("unknown variable `{}`", self.syms.name(name)))
                    })?;
                    return self.navigate(v, prop, pre);
                }
                let src = self.eval(src, scratch)?;
                self.navigate(&src, prop, pre)
            }
            Node::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, scratch)?;
                match op {
                    BinOp::And if *l == Value::Bool(false) => {
                        return Ok(Ev::Owned(Value::Bool(false)))
                    }
                    BinOp::Or if *l == Value::Bool(true) => {
                        return Ok(Ev::Owned(Value::Bool(true)))
                    }
                    BinOp::Implies if *l == Value::Bool(false) => {
                        return Ok(Ev::Owned(Value::Bool(true)))
                    }
                    _ => {}
                }
                let r = self.eval(rhs, scratch)?;
                binary_values(self.mode, op, &l, &r).map(Ev::Owned)
            }
            Node::Unary { op, operand } => {
                let v = self.eval(operand, scratch)?;
                unary_value(op, &v).map(Ev::Owned)
            }
            Node::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond, scratch)?;
                match &*c {
                    Value::Bool(true) => self.eval(then_branch, scratch),
                    Value::Bool(false) => self.eval(else_branch, scratch),
                    Value::Undefined => Ok(Ev::Owned(Value::Undefined)),
                    other => Err(EvalError::new(format!(
                        "`if` condition must be Boolean, got {}",
                        other.type_name()
                    ))),
                }
            }
            Node::Let { name, value, body } => {
                let v = self.eval(value, scratch)?.into_owned();
                scratch.locals.push((name, v));
                let out = self.eval(body, scratch);
                scratch.locals.pop();
                out
            }
            Node::CollLit { kind, start, len } => {
                let mut items = Vec::with_capacity(len as usize);
                for i in start..start + len {
                    let aid = self.prog.args[i as usize];
                    items.push(self.eval(aid, scratch)?.into_owned());
                }
                Ok(Ev::Owned(match kind {
                    CollectionKind::Set | CollectionKind::OrderedSet => match Value::set(items) {
                        Value::Coll(_, deduped) => Value::Coll(kind, deduped),
                        _ => unreachable!("Value::set returns a collection"),
                    },
                    _ => Value::Coll(kind, items),
                }))
            }
            Node::CollOp {
                src,
                op,
                args_start,
                args_len,
            } => {
                let srcv = self.eval(src, scratch)?;
                self.with_args(args_start, args_len, scratch, |argv| {
                    collection_op(&srcv, self.syms.name(op), argv)
                })
                .map(Ev::Owned)
            }
            Node::Call {
                src,
                op,
                args_start,
                args_len,
            } => {
                let srcv = self.eval(src, scratch)?;
                self.with_args(args_start, args_len, scratch, |argv| {
                    method_call(&srcv, self.syms.name(op), argv)
                })
                .map(Ev::Owned)
            }
            Node::Iterate { src, op, var, body } => {
                let srcv = self.eval(src, scratch)?;
                let items = arrow_items(&srcv);
                iterate_values(op, &items, |item| {
                    scratch.locals.push((var, item.clone()));
                    let out = self.eval(body, scratch).map(Ev::into_owned);
                    scratch.locals.pop();
                    out
                })
                .map(Ev::Owned)
            }
            Node::Fold {
                src,
                var,
                acc,
                init,
                body,
            } => {
                let srcv = self.eval(src, scratch)?;
                let items = arrow_items(&srcv);
                let mut acc_val = self.eval(init, scratch)?.into_owned();
                for item in items.iter() {
                    scratch.locals.push((var, item.clone()));
                    scratch.locals.push((acc, acc_val));
                    let out = self.eval(body, scratch).map(Ev::into_owned);
                    scratch.locals.pop();
                    scratch.locals.pop();
                    acc_val = out?;
                }
                Ok(Ev::Owned(acc_val))
            }
        }
    }

    /// Evaluate an argument range into a stack buffer (typical arity is
    /// 0–2, so no heap allocation on the hot path) and hand the slice to
    /// `f`.
    fn with_args<T>(
        &self,
        start: u32,
        len: u32,
        scratch: &mut EvalScratch,
        f: impl FnOnce(&[Value]) -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        let n = len as usize;
        let ids = &self.prog.args[start as usize..start as usize + n];
        if n <= 4 {
            let mut buf: [Value; 4] = std::array::from_fn(|_| Value::Undefined);
            for (slot, &aid) in buf.iter_mut().zip(ids) {
                *slot = self.eval(aid, scratch)?.into_owned();
            }
            f(&buf[..n])
        } else {
            let mut argv = Vec::with_capacity(n);
            for &aid in ids {
                argv.push(self.eval(aid, scratch)?.into_owned());
            }
            f(&argv)
        }
    }

    fn navigate(&self, src: &Value, prop: Sym, pre: bool) -> Result<Ev<'a>, EvalError> {
        match src {
            Value::Undefined => Ok(Ev::Owned(Value::Undefined)),
            Value::Obj(obj) => Ok(self
                .env(pre)?
                .attribute(obj, prop)
                .map(Ev::Borrowed)
                .unwrap_or(Ev::Owned(Value::Undefined))),
            // Implicit collect, exactly as the interpreter: navigate each
            // element, flatten one level, drop undefineds, yield a Bag.
            Value::Coll(_, items) => {
                let mut out = Vec::new();
                for item in items {
                    match self.navigate(item, prop, pre)? {
                        Ev::Owned(Value::Coll(_, inner)) => out.extend(inner),
                        Ev::Owned(Value::Undefined) => {}
                        Ev::Owned(v) => out.push(v),
                        v => match &*v {
                            Value::Coll(_, inner) => out.extend(inner.iter().cloned()),
                            Value::Undefined => {}
                            single => out.push(single.clone()),
                        },
                    }
                }
                Ok(Ev::Owned(Value::bag(out)))
            }
            other => Err(EvalError::new(format!(
                "cannot navigate `.{}` on {}",
                self.syms.name(prop),
                other.type_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{EvalContext, Navigator};
    use crate::parser::parse;

    fn cinder_env() -> MapNavigator {
        let project = ObjRef::new("project", 4);
        let volume = ObjRef::new("volume", 7);
        let quota = ObjRef::new("quota_sets", 1);
        let user = ObjRef::new("user", 2);
        let mut nav = MapNavigator::new();
        nav.set_variable("project", project.clone())
            .set_variable("volume", volume.clone())
            .set_variable("quota_sets", quota.clone())
            .set_variable("user", user.clone());
        nav.set_attribute(project.clone(), "id", Value::set(vec![Value::Int(4)]))
            .set_attribute(
                project,
                "volumes",
                Value::set(vec![Value::Obj(volume.clone())]),
            )
            .set_attribute(volume.clone(), "status", "available")
            .set_attribute(volume, "size", 100i64)
            .set_attribute(quota, "volume", 10i64)
            .set_attribute(user, "groups", "admin");
        nav
    }

    /// Compile `src` standalone and evaluate against `nav` (and optional
    /// pre-state), returning both the compiled and interpreted outcomes.
    fn both(
        src: &str,
        nav: &MapNavigator,
        pre_nav: Option<&MapNavigator>,
    ) -> (Result<Value, EvalError>, Result<Value, EvalError>) {
        let e = parse(src).unwrap();
        let mut syms = SymbolTable::new();
        let mut b = ProgramBuilder::new(&mut syms);
        let root = b.add(&e);
        let prog = b.finish();
        let env = EnvView::from_navigator(nav, &syms);
        let pre_env = pre_nav.map(|p| EnvView::from_navigator(p, &syms));
        let mut scratch = EvalScratch::new();
        scratch.begin(&prog);
        let compiled = prog.eval(root, &syms, &env, pre_env.as_ref(), &mut scratch);
        let interp = match pre_nav {
            Some(p) => EvalContext::with_pre_state(nav, p).eval(&e),
            None => EvalContext::new(nav).eval(&e),
        };
        (compiled, interp)
    }

    fn assert_matches_interpreter(src: &str, nav: &MapNavigator) {
        let (compiled, interp) = both(src, nav, None);
        match (&compiled, &interp) {
            (Ok(c), Ok(i)) => assert_eq!(c, i, "case: {src}"),
            (Err(_), Err(_)) => {}
            _ => panic!("divergence on {src}: compiled={compiled:?} interp={interp:?}"),
        }
    }

    #[test]
    fn compiled_matches_interpreter_on_battery() {
        let nav = cinder_env();
        for src in [
            "project.id->size()=1 and project.volumes->size()>=1",
            "volume.status <> 'in-use' and user.groups = 'admin'",
            "project.volumes < quota_sets.volume",
            "project.volumes->exists(v | v.status = 'available')",
            "project.volumes->forAll(v | v.size > 0)",
            "project.volumes->select(v | v.status = 'available')->size()",
            "project.volumes->collect(v | v.size)->sum()",
            "project.volumes.size->sum()",
            "user.groups->includes('admin')",
            "Set(1,2)->union(Set(2,3))->size()",
            "Sequence(3,1,2)->sortedBy(x | x)->first()",
            "Sequence(1,2,3,4)->iterate(v; acc = 0 | acc + v)",
            "let n = Set(1,2,3)->size() in n * 10",
            "if 1 < 2 then 'yes' else 'no' endif",
            "'hello'.substring(2, 4)",
            "project.owner.name",
            "p.missing = null",
            "nosuch = 1",
            "Set(1)->frobnicate(2)",
            "'a'.frobnicate()",
            "1 / 0",
            "6 / 4",
            "(0 - 3).abs()",
            "not (volume.status = 'in-use')",
            "volume.status = 'x' xor user.groups = 'admin'",
        ] {
            assert_matches_interpreter(src, &nav);
        }
    }

    #[test]
    fn compiled_pre_state_matches_interpreter() {
        let current = cinder_env();
        let mut pre = cinder_env();
        let project = ObjRef::new("project", 4);
        pre.set_attribute(
            project,
            "volumes",
            Value::set(vec![
                Value::Obj(ObjRef::new("volume", 7)),
                Value::Obj(ObjRef::new("volume", 8)),
            ]),
        );
        for src in [
            "project.volumes->size() < pre(project.volumes->size())",
            "volume.status@pre = 'available' and volume.status = 'available'",
            "pre(project.volumes)->size() = 2",
        ] {
            let (compiled, interp) = both(src, &current, Some(&pre));
            assert_eq!(compiled.unwrap(), interp.unwrap(), "case: {src}");
        }
    }

    #[test]
    fn shared_invariant_gets_one_memo_slot() {
        // Two disjuncts of one pre-condition share the invariant subtree;
        // hash-consing plus memoization evaluates it once per request.
        let inv = "project.id->size()=1 and project.volumes->size()>=1";
        let c1 = parse(&format!("({inv}) and user.groups = 'admin'")).unwrap();
        let c2 = parse(&format!("({inv}) and user.groups = 'member'")).unwrap();
        let mut syms = SymbolTable::new();
        let mut b = ProgramBuilder::new(&mut syms);
        let r1 = b.add(&c1);
        let r2 = b.add(&c2);
        let prog = b.finish();
        assert!(
            prog.memo_slot_count() >= 1,
            "shared invariant should be memoized, got {} slots",
            prog.memo_slot_count()
        );
        // And both roots still evaluate correctly with a shared scratch.
        let nav = cinder_env();
        let env = EnvView::from_navigator(&nav, &syms);
        let mut scratch = EvalScratch::new();
        scratch.begin(&prog);
        assert!(prog.eval_bool(r1, &syms, &env, None, &mut scratch).unwrap());
        assert!(!prog.eval_bool(r2, &syms, &env, None, &mut scratch).unwrap());
    }

    #[test]
    fn iterate_bodies_are_not_memoized_but_closed_iterates_are() {
        // The body `v.status = 'available'` depends on the binder `v`;
        // the whole exists-iterate is closed over `project` and may be
        // memoized when shared.
        let e = parse(
            "project.volumes->exists(v | v.status = 'available') and \
             project.volumes->exists(v | v.status = 'available')",
        )
        .unwrap();
        let mut syms = SymbolTable::new();
        let mut b = ProgramBuilder::new(&mut syms);
        let root = b.add(&e);
        let prog = b.finish();
        // simplify() may collapse the duplicated conjunct; if it did not,
        // the shared iterate holds a memo slot. Either way evaluation
        // agrees with the interpreter.
        let nav = cinder_env();
        let env = EnvView::from_navigator(&nav, &syms);
        let mut scratch = EvalScratch::new();
        scratch.begin(&prog);
        assert_eq!(
            prog.eval(root, &syms, &env, None, &mut scratch).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn constant_folding_shrinks_the_program() {
        let e = parse("1 + 1 = 2 and true").unwrap();
        let mut syms = SymbolTable::new();
        let mut b = ProgramBuilder::new(&mut syms);
        b.add(&e);
        let prog = b.finish();
        assert_eq!(prog.node_count(), 1, "folds to a single constant node");
    }

    #[test]
    fn attr_refs_split_pre_from_current() {
        let e = parse("pre(volume.size) = volume.size and user.groups = 'admin'").unwrap();
        let mut syms = SymbolTable::new();
        let mut b = ProgramBuilder::new(&mut syms);
        b.add(&e);
        let prog = b.finish();
        let resolved: Vec<(String, String, bool)> = prog
            .attr_refs()
            .iter()
            .map(|&(r, a, p)| (syms.name(r).to_string(), syms.name(a).to_string(), p))
            .collect();
        assert!(resolved.contains(&("volume".into(), "size".into(), true)));
        assert!(resolved.contains(&("volume".into(), "size".into(), false)));
        assert!(resolved.contains(&("user".into(), "groups".into(), false)));
        assert!(prog.exact_scope());
    }

    #[test]
    fn let_marks_scope_inexact() {
        let e = parse("let p = project in p.volumes->size() > 0").unwrap();
        let mut syms = SymbolTable::new();
        let mut b = ProgramBuilder::new(&mut syms);
        b.add(&e);
        let prog = b.finish();
        assert!(!prog.exact_scope());
    }

    #[test]
    fn binder_attrs_attribute_to_collection_root() {
        // v.status is a read on elements of project.volumes; the probe
        // request that binds project.volumes also binds those element
        // attributes, so the only recorded pair is (project, volumes).
        let e = parse("project.volumes->exists(v | v.status = 'error')").unwrap();
        let mut syms = SymbolTable::new();
        let mut b = ProgramBuilder::new(&mut syms);
        b.add(&e);
        let prog = b.finish();
        let resolved: Vec<(String, String)> = prog
            .attr_refs()
            .iter()
            .map(|&(r, a, _)| (syms.name(r).to_string(), syms.name(a).to_string()))
            .collect();
        assert_eq!(resolved, vec![("project".into(), "volumes".into())]);
    }

    #[test]
    fn attr_scope_wildcard_and_contains() {
        let scope = AttrScope::new(
            vec![
                ("project".into(), "volumes".into()),
                ("user".into(), "groups".into()),
            ],
            true,
        );
        assert!(scope.contains("project", "volumes"));
        assert!(!scope.contains("project", "id"));
        assert!(scope.contains("user", "groups"));
        assert!(!scope.contains("quota_sets", "volume"));
        let wild = AttrScope::wildcard(&["volume".to_string()]);
        assert!(wild.contains("volume", "anything"));
        assert!(!wild.is_exact());
    }

    #[test]
    fn env_view_drops_unreferenced_bindings() {
        let nav = cinder_env();
        let mut syms = SymbolTable::new();
        syms.intern("project");
        syms.intern("volumes");
        let env = EnvView::from_navigator(&nav, &syms);
        assert_eq!(env.vars.len(), 1);
        assert_eq!(env.attrs.len(), 1);
    }

    #[test]
    fn unknown_variable_error_names_the_variable() {
        let nav = MapNavigator::new();
        let (compiled, interp) = both("nosuch = 1", &nav, None);
        assert_eq!(compiled.unwrap_err().message, interp.unwrap_err().message);
    }

    #[test]
    fn scratch_reuse_across_begin_is_clean() {
        let nav = cinder_env();
        let e = parse("project.volumes->size()").unwrap();
        let mut syms = SymbolTable::new();
        let mut b = ProgramBuilder::new(&mut syms);
        let root = b.add(&e);
        let prog = b.finish();
        let env = EnvView::from_navigator(&nav, &syms);
        let mut scratch = EvalScratch::new();
        for _ in 0..3 {
            scratch.begin(&prog);
            assert_eq!(
                prog.eval(root, &syms, &env, None, &mut scratch).unwrap(),
                Value::Int(1)
            );
        }
    }

    #[test]
    fn navigator_trait_is_untouched_oracle() {
        // The interpreter still answers through the dynamic Navigator —
        // the reference oracle for differential tests.
        let nav = cinder_env();
        assert_eq!(
            nav.variable("volume"),
            Some(Value::Obj(ObjRef::new("volume", 7)))
        );
    }
}
