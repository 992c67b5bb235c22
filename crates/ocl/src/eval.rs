//! Evaluation of OCL expressions against a navigable object environment.
//!
//! Evaluation is parameterised by a [`Navigator`], the interface through
//! which the evaluator reads the *addressable resources* of the monitored
//! cloud (root variables such as `project`, `user`, `volume` and their
//! attributes / association ends). Post-conditions additionally receive a
//! *pre-state* navigator: `pre(expr)` and `property@pre` evaluate against it,
//! mirroring the paper's snapshot of guard/invariant inputs taken before the
//! method executes.
//!
//! ## Undefined propagation
//!
//! Navigation over a missing object or attribute yields
//! [`Value::Undefined`]. Boolean connectives use Kleene semantics
//! (`false and ⊥ = false`, `true or ⊥ = true`, `false implies ⊥ = true`),
//! equality is a *defined* test (`⊥ = ⊥` is `true`), and `->size()` of an
//! undefined source is `0` — this is what makes the paper's
//! `project.id->size() = 1` idiom ("a GET on the resource returned 200")
//! work when the resource is absent.
//!
//! ## Paper-compat numeric coercion
//!
//! Listing 1 compares a collection against an integer
//! (`project.volumes < quota_sets.volume`). In lenient mode (the default)
//! order comparisons coerce a collection operand to its size; strict mode
//! reports an error instead.

use crate::ast::{BinOp, CollectionKind, Expr, IterOp, UnOp};
use crate::value::{ObjRef, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// Read access to the object environment during evaluation.
pub trait Navigator {
    /// Look up a root context variable (e.g. `project`, `user`, `result`).
    /// Returns `None` when the variable is not part of this environment.
    fn variable(&self, name: &str) -> Option<Value>;

    /// Look up `property` (attribute or association end) on `obj`.
    /// Returns `None` when the object has no such property; the evaluator
    /// maps this to [`Value::Undefined`].
    fn attribute(&self, obj: &ObjRef, property: &str) -> Option<Value>;
}

/// A [`Navigator`] backed by hash maps; used for snapshots and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapNavigator {
    variables: HashMap<String, Value>,
    attributes: HashMap<(ObjRef, String), Value>,
}

impl MapNavigator {
    /// Create an empty environment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a root variable.
    pub fn set_variable(&mut self, name: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.variables.insert(name.into(), value.into());
        self
    }

    /// Bind a property on an object.
    pub fn set_attribute(
        &mut self,
        obj: ObjRef,
        property: impl Into<String>,
        value: impl Into<Value>,
    ) -> &mut Self {
        self.attributes.insert((obj, property.into()), value.into());
        self
    }

    /// Unbind every property of `obj` (variables naming it stay bound).
    pub fn clear_object(&mut self, obj: &ObjRef) -> &mut Self {
        self.attributes.retain(|(bound, _), _| bound != obj);
        self
    }

    /// Number of variable bindings (used in tests and diagnostics).
    #[must_use]
    pub fn variable_count(&self) -> usize {
        self.variables.len()
    }

    /// Number of attribute bindings.
    #[must_use]
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Iterate over variable bindings.
    pub fn variables(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.variables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate over attribute bindings as `(object, property, value)`.
    pub fn attributes(&self) -> impl Iterator<Item = (&ObjRef, &str, &Value)> {
        self.attributes
            .iter()
            .map(|((obj, prop), v)| (obj, prop.as_str(), v))
    }
}

impl Navigator for MapNavigator {
    fn variable(&self, name: &str) -> Option<Value> {
        self.variables.get(name).cloned()
    }

    fn attribute(&self, obj: &ObjRef, property: &str) -> Option<Value> {
        self.attributes
            .get(&(obj.clone(), property.to_string()))
            .cloned()
    }
}

/// An error raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl EvalError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        EvalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Strictness of numeric handling; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoercionMode {
    /// Coerce collections to their size in order comparisons and
    /// arithmetic (paper-compatible; default).
    #[default]
    Lenient,
    /// Report an [`EvalError`] on collection/number mixing.
    Strict,
}

/// Evaluation context: the current-state navigator, an optional pre-state
/// navigator, and local variable bindings.
pub struct EvalContext<'a> {
    current: &'a dyn Navigator,
    pre: Option<&'a dyn Navigator>,
    mode: CoercionMode,
    locals: Vec<(String, Value)>,
}

impl fmt::Debug for EvalContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalContext")
            .field("has_pre_state", &self.pre.is_some())
            .field("mode", &self.mode)
            .field("locals", &self.locals)
            .finish()
    }
}

impl<'a> EvalContext<'a> {
    /// Context with only a current state (pre-condition evaluation).
    #[must_use]
    pub fn new(current: &'a dyn Navigator) -> Self {
        EvalContext {
            current,
            pre: None,
            mode: CoercionMode::Lenient,
            locals: Vec::new(),
        }
    }

    /// Context with a pre-state snapshot (post-condition evaluation).
    #[must_use]
    pub fn with_pre_state(current: &'a dyn Navigator, pre: &'a dyn Navigator) -> Self {
        EvalContext {
            current,
            pre: Some(pre),
            mode: CoercionMode::Lenient,
            locals: Vec::new(),
        }
    }

    /// Select strict or lenient numeric coercion.
    #[must_use]
    pub fn coercion_mode(mut self, mode: CoercionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Evaluate `expr` to a value.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on unknown variables, unknown operations,
    /// or type mismatches (subject to [`CoercionMode`]).
    pub fn eval(&mut self, expr: &Expr) -> Result<Value, EvalError> {
        self.eval_in(expr, false)
    }

    /// Evaluate `expr` and require a boolean outcome.
    ///
    /// `Undefined` is *not* accepted: contract checking treats an undefined
    /// contract as a violation with its own diagnostic, which this error
    /// carries.
    ///
    /// # Errors
    ///
    /// As [`EvalContext::eval`], plus an error when the result is not a
    /// defined boolean.
    pub fn eval_bool(&mut self, expr: &Expr) -> Result<bool, EvalError> {
        match self.eval(expr)? {
            Value::Bool(b) => Ok(b),
            other => Err(EvalError::new(format!(
                "expected Boolean contract outcome, got {} ({other})",
                other.type_name()
            ))),
        }
    }

    fn lookup_local(&self, name: &str) -> Option<Value> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    }

    fn navigator(&self, pre_state: bool) -> Result<&'a dyn Navigator, EvalError> {
        if pre_state {
            self.pre.ok_or_else(|| {
                EvalError::new("`@pre`/`pre()` used but no pre-state snapshot is available")
            })
        } else {
            Ok(self.current)
        }
    }

    fn eval_in(&mut self, expr: &Expr, pre_state: bool) -> Result<Value, EvalError> {
        match expr {
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Real(v) => Ok(Value::Real(*v)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Null => Ok(Value::Undefined),
            Expr::Var(name) => {
                if let Some(v) = self.lookup_local(name) {
                    return Ok(v);
                }
                self.navigator(pre_state)?
                    .variable(name)
                    .ok_or_else(|| EvalError::new(format!("unknown variable `{name}`")))
            }
            Expr::Nav {
                source,
                property,
                at_pre,
            } => {
                let src = self.eval_in(source, pre_state)?;
                let nav_pre = pre_state || *at_pre;
                self.navigate(&src, property, nav_pre)
            }
            Expr::Pre(inner) => {
                // Everything inside pre(...) reads the pre-state snapshot.
                if self.pre.is_none() {
                    return Err(EvalError::new(
                        "`pre()` used but no pre-state snapshot is available",
                    ));
                }
                self.eval_in(inner, true)
            }
            Expr::CollOp { source, op, args } => {
                let src = self.eval_in(source, pre_state)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval_in(a, pre_state)?);
                }
                collection_op(&src, op, &argv)
            }
            Expr::Iterate {
                source,
                op,
                var,
                body,
            } => {
                let src = self.eval_in(source, pre_state)?;
                let items = arrow_items(&src);
                self.iterate(*op, var, body, &items, pre_state)
            }
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, pre_state),
            Expr::Unary { op, operand } => {
                let v = self.eval_in(operand, pre_state)?;
                unary_value(*op, &v)
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => match self.eval_in(cond, pre_state)? {
                Value::Bool(true) => self.eval_in(then_branch, pre_state),
                Value::Bool(false) => self.eval_in(else_branch, pre_state),
                Value::Undefined => Ok(Value::Undefined),
                other => Err(EvalError::new(format!(
                    "`if` condition must be Boolean, got {}",
                    other.type_name()
                ))),
            },
            Expr::Let { name, value, body } => {
                let v = self.eval_in(value, pre_state)?;
                self.locals.push((name.clone(), v));
                let out = self.eval_in(body, pre_state);
                self.locals.pop();
                out
            }
            Expr::CollectionLiteral { kind, elements } => {
                let mut items = Vec::with_capacity(elements.len());
                for e in elements {
                    items.push(self.eval_in(e, pre_state)?);
                }
                Ok(match kind {
                    CollectionKind::Set | CollectionKind::OrderedSet => match Value::set(items) {
                        Value::Coll(_, deduped) => Value::Coll(*kind, deduped),
                        _ => unreachable!("Value::set returns a collection"),
                    },
                    _ => Value::Coll(*kind, items),
                })
            }
            Expr::Fold {
                source,
                var,
                acc,
                init,
                body,
            } => {
                let src = self.eval_in(source, pre_state)?;
                let items = arrow_items(&src);
                let mut acc_val = self.eval_in(init, pre_state)?;
                for item in items.iter() {
                    self.locals.push((var.clone(), item.clone()));
                    self.locals.push((acc.clone(), acc_val));
                    let out = self.eval_in(body, pre_state);
                    self.locals.pop();
                    self.locals.pop();
                    acc_val = out?;
                }
                Ok(acc_val)
            }
            Expr::Call { source, op, args } => {
                let src = self.eval_in(source, pre_state)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval_in(a, pre_state)?);
                }
                method_call(&src, op, &argv)
            }
        }
    }

    fn navigate(
        &mut self,
        src: &Value,
        property: &str,
        pre_state: bool,
    ) -> Result<Value, EvalError> {
        match src {
            Value::Undefined => Ok(Value::Undefined),
            Value::Obj(obj) => Ok(self
                .navigator(pre_state)?
                .attribute(obj, property)
                .unwrap_or(Value::Undefined)),
            // Implicit collect: navigating a collection maps the property
            // over the elements and flattens one level, yielding a Bag
            // (standard OCL shorthand semantics).
            Value::Coll(_, items) => {
                let mut out = Vec::new();
                for item in items {
                    match self.navigate(item, property, pre_state)? {
                        Value::Coll(_, inner) => out.extend(inner),
                        Value::Undefined => {}
                        v => out.push(v),
                    }
                }
                Ok(Value::bag(out))
            }
            other => Err(EvalError::new(format!(
                "cannot navigate `.{property}` on {}",
                other.type_name()
            ))),
        }
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        pre_state: bool,
    ) -> Result<Value, EvalError> {
        // Boolean connectives need short-circuit / Kleene handling; the
        // combination of two evaluated operands is shared with the compiled
        // evaluator via [`binary_values`].
        let l = self.eval_in(lhs, pre_state)?;
        match op {
            BinOp::And if l == Value::Bool(false) => return Ok(Value::Bool(false)),
            BinOp::Or if l == Value::Bool(true) => return Ok(Value::Bool(true)),
            BinOp::Implies if l == Value::Bool(false) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = self.eval_in(rhs, pre_state)?;
        binary_values(self.mode, op, &l, &r)
    }
}

/// Combine two fully evaluated operands under `op`.
///
/// Short-circuiting happens at the call sites (interpreter and compiled
/// evaluator alike) *before* the right operand is evaluated; this function
/// only sees operand values, so both evaluation pipelines share one
/// definition of the operator semantics.
pub(crate) fn binary_values(
    mode: CoercionMode,
    op: BinOp,
    l: &Value,
    r: &Value,
) -> Result<Value, EvalError> {
    match op {
        BinOp::And => kleene_and(l, r),
        BinOp::Or => kleene_or(l, r),
        BinOp::Implies => match (l, r) {
            (Value::Bool(false), _) => Ok(Value::Bool(true)),
            (Value::Bool(true), Value::Bool(b)) => Ok(Value::Bool(*b)),
            (Value::Undefined, Value::Bool(true)) => Ok(Value::Bool(true)),
            (Value::Undefined, _) => Ok(Value::Undefined),
            (Value::Bool(true), Value::Undefined) => Ok(Value::Undefined),
            (l, r) => Err(EvalError::new(format!(
                "`implies` applied to {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        },
        BinOp::Xor => match (l, r) {
            (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a != b)),
            (Value::Undefined, _) | (_, Value::Undefined) => Ok(Value::Undefined),
            (l, r) => Err(EvalError::new(format!(
                "`xor` applied to {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        },
        BinOp::Eq => Ok(Value::Bool(l.ocl_eq(r))),
        BinOp::Ne => Ok(Value::Bool(!l.ocl_eq(r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if l.is_undefined() || r.is_undefined() {
                return Ok(Value::Undefined);
            }
            let (l, r) = coerce_pair(mode, l, r)?;
            let ord = l.ocl_cmp(&r).ok_or_else(|| {
                EvalError::new(format!(
                    "cannot order {} and {}",
                    l.type_name(),
                    r.type_name()
                ))
            })?;
            Ok(Value::Bool(match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            }))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if l.is_undefined() || r.is_undefined() {
                return Ok(Value::Undefined);
            }
            if op == BinOp::Add {
                if let (Value::Str(a), Value::Str(b)) = (l, r) {
                    return Ok(Value::Str(format!("{a}{b}")));
                }
            }
            let (l, r) = coerce_pair(mode, l, r)?;
            arith(op, &l, &r)
        }
    }
}

/// Evaluate a unary operator over an evaluated operand.
pub(crate) fn unary_value(op: UnOp, v: &Value) -> Result<Value, EvalError> {
    match op {
        UnOp::Not => match v {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Undefined => Ok(Value::Undefined),
            other => Err(EvalError::new(format!(
                "`not` applied to {}",
                other.type_name()
            ))),
        },
        UnOp::Neg => match v {
            Value::Int(n) => Ok(Value::Int(-n)),
            Value::Real(r) => Ok(Value::Real(-r)),
            Value::Undefined => Ok(Value::Undefined),
            other => Err(EvalError::new(format!(
                "unary `-` applied to {}",
                other.type_name()
            ))),
        },
    }
}

/// Apply paper-compat coercion: a collection mixed with a number becomes
/// its size (lenient mode only). Borrowed operands stay borrowed unless a
/// coercion materializes a size.
fn coerce_pair<'a>(
    mode: CoercionMode,
    l: &'a Value,
    r: &'a Value,
) -> Result<(Cow<'a, Value>, Cow<'a, Value>), EvalError> {
    let coerce = |v: &'a Value, other_is_num: bool| -> Result<Cow<'a, Value>, EvalError> {
        match (v, other_is_num, mode) {
            (Value::Coll(_, items), true, CoercionMode::Lenient) => {
                Ok(Cow::Owned(Value::Int(items.len() as i64)))
            }
            (Value::Coll(_, _), true, CoercionMode::Strict) => Err(EvalError::new(
                "collection compared with a number (strict mode); use `->size()`",
            )),
            _ => Ok(Cow::Borrowed(v)),
        }
    };
    let l_num = l.as_real().is_some();
    let r_num = r.as_real().is_some();
    Ok((coerce(l, r_num)?, coerce(r, l_num)?))
}

/// Evaluate `src->op(args…)` over fully evaluated operands; shared between
/// the interpreter and the compiled evaluator.
pub(crate) fn collection_op(src: &Value, op: &str, args: &[Value]) -> Result<Value, EvalError> {
    // `->` implicitly converts a single value to a Set{v}; undefined
    // converts to the empty set (OCL 2.x semantics). Items stay borrowed
    // from the source collection; only ops that build a new collection
    // clone them.
    let items = arrow_items(src);
    let kind = match src {
        Value::Coll(k, _) => *k,
        _ => CollectionKind::Set,
    };
    let arity = |n: usize| -> Result<(), EvalError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EvalError::new(format!(
                "`->{op}` expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match op {
        "size" => {
            arity(0)?;
            Ok(Value::Int(items.len() as i64))
        }
        "isEmpty" => {
            arity(0)?;
            Ok(Value::Bool(items.is_empty()))
        }
        "notEmpty" => {
            arity(0)?;
            Ok(Value::Bool(!items.is_empty()))
        }
        "includes" => {
            arity(1)?;
            Ok(Value::Bool(items.iter().any(|v| v.ocl_eq(&args[0]))))
        }
        "excludes" => {
            arity(1)?;
            Ok(Value::Bool(!items.iter().any(|v| v.ocl_eq(&args[0]))))
        }
        "includesAll" => {
            arity(1)?;
            let needles = arrow_items(&args[0]);
            Ok(Value::Bool(
                needles.iter().all(|n| items.iter().any(|v| v.ocl_eq(n))),
            ))
        }
        "excludesAll" => {
            arity(1)?;
            let needles = arrow_items(&args[0]);
            Ok(Value::Bool(
                needles.iter().all(|n| !items.iter().any(|v| v.ocl_eq(n))),
            ))
        }
        "count" => {
            arity(1)?;
            Ok(Value::Int(
                items.iter().filter(|v| v.ocl_eq(&args[0])).count() as i64,
            ))
        }
        "sum" => {
            arity(0)?;
            let mut int_sum: i64 = 0;
            let mut real_sum: f64 = 0.0;
            let mut any_real = false;
            for v in items.iter() {
                match v {
                    Value::Int(n) => int_sum += n,
                    Value::Real(r) => {
                        any_real = true;
                        real_sum += r;
                    }
                    Value::Undefined => return Ok(Value::Undefined),
                    other => {
                        return Err(EvalError::new(format!(
                            "`->sum` over non-numeric {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(if any_real {
                Value::Real(real_sum + int_sum as f64)
            } else {
                Value::Int(int_sum)
            })
        }
        "min" | "max" => {
            arity(0)?;
            if items.is_empty() {
                return Ok(Value::Undefined);
            }
            let mut best = items[0].clone();
            for v in &items[1..] {
                let ord = v
                    .ocl_cmp(&best)
                    .ok_or_else(|| EvalError::new(format!("`->{op}` over unordered values")))?;
                let take = if op == "min" {
                    ord == Ordering::Less
                } else {
                    ord == Ordering::Greater
                };
                if take {
                    best = v.clone();
                }
            }
            Ok(best)
        }
        "first" => {
            arity(0)?;
            Ok(items.first().cloned().unwrap_or(Value::Undefined))
        }
        "last" => {
            arity(0)?;
            Ok(items.last().cloned().unwrap_or(Value::Undefined))
        }
        "at" => {
            arity(1)?;
            let idx = args[0]
                .as_int()
                .ok_or_else(|| EvalError::new("`->at` index must be an Integer"))?;
            // OCL indices are 1-based.
            if idx < 1 || idx as usize > items.len() {
                Ok(Value::Undefined)
            } else {
                Ok(items[idx as usize - 1].clone())
            }
        }
        "indexOf" => {
            arity(1)?;
            match items.iter().position(|v| v.ocl_eq(&args[0])) {
                Some(i) => Ok(Value::Int(i as i64 + 1)),
                None => Ok(Value::Undefined),
            }
        }
        "asSet" => {
            arity(0)?;
            Ok(Value::set(items.into_owned()))
        }
        "asSequence" => {
            arity(0)?;
            Ok(Value::sequence(items.into_owned()))
        }
        "asBag" => {
            arity(0)?;
            Ok(Value::bag(items.into_owned()))
        }
        "union" => {
            arity(1)?;
            let mut out = items.into_owned();
            out.extend(arrow_items(&args[0]).into_owned());
            Ok(match kind {
                CollectionKind::Set | CollectionKind::OrderedSet => Value::set(out),
                _ => Value::Coll(kind, out),
            })
        }
        "intersection" => {
            arity(1)?;
            let other = arrow_items(&args[0]);
            let out: Vec<Value> = items
                .iter()
                .filter(|v| other.iter().any(|o| o.ocl_eq(v)))
                .cloned()
                .collect();
            Ok(Value::set(out))
        }
        "including" => {
            arity(1)?;
            let mut out = items.into_owned();
            out.push(args[0].clone());
            Ok(match kind {
                CollectionKind::Set | CollectionKind::OrderedSet => Value::set(out),
                _ => Value::Coll(kind, out),
            })
        }
        "excluding" => {
            arity(1)?;
            let out: Vec<Value> = items
                .iter()
                .filter(|v| !v.ocl_eq(&args[0]))
                .cloned()
                .collect();
            Ok(Value::Coll(kind, out))
        }
        "append" => {
            arity(1)?;
            let mut out = items.into_owned();
            out.push(args[0].clone());
            Ok(Value::sequence(out))
        }
        "prepend" => {
            arity(1)?;
            let mut out = vec![args[0].clone()];
            out.extend(items.into_owned());
            Ok(Value::sequence(out))
        }
        "flatten" => {
            arity(0)?;
            let mut out = Vec::new();
            for v in items.iter() {
                match v {
                    Value::Coll(_, inner) => out.extend(inner.iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Ok(Value::Coll(kind, out))
        }
        other => Err(EvalError::new(format!(
            "unknown collection operation `->{other}`"
        ))),
    }
}

impl EvalContext<'_> {
    fn iterate(
        &mut self,
        op: IterOp,
        var: &str,
        body: &Expr,
        items: &[Value],
        pre_state: bool,
    ) -> Result<Value, EvalError> {
        iterate_values(op, items, |item| {
            self.locals.push((var.to_string(), item.clone()));
            let out = self.eval_in(body, pre_state);
            self.locals.pop();
            out
        })
    }
}

/// Run iterator operation `op` over `items`, evaluating each element's body
/// through `eval_body`; shared between the interpreter (which binds the
/// iteration variable on its locals stack) and the compiled evaluator
/// (which binds an interned symbol on the scratch stack).
pub(crate) fn iterate_values(
    op: IterOp,
    items: &[Value],
    mut eval_body: impl FnMut(&Value) -> Result<Value, EvalError>,
) -> Result<Value, EvalError> {
    match op {
        IterOp::Exists => {
            let mut saw_undef = false;
            for item in items {
                match eval_body(item)? {
                    Value::Bool(true) => return Ok(Value::Bool(true)),
                    Value::Bool(false) => {}
                    Value::Undefined => saw_undef = true,
                    other => {
                        return Err(EvalError::new(format!(
                            "`exists` body must be Boolean, got {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(if saw_undef {
                Value::Undefined
            } else {
                Value::Bool(false)
            })
        }
        IterOp::ForAll => {
            let mut saw_undef = false;
            for item in items {
                match eval_body(item)? {
                    Value::Bool(false) => return Ok(Value::Bool(false)),
                    Value::Bool(true) => {}
                    Value::Undefined => saw_undef = true,
                    other => {
                        return Err(EvalError::new(format!(
                            "`forAll` body must be Boolean, got {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(if saw_undef {
                Value::Undefined
            } else {
                Value::Bool(true)
            })
        }
        IterOp::Select | IterOp::Reject => {
            let keep_on = op == IterOp::Select;
            let mut out = Vec::new();
            for item in items {
                match eval_body(item)? {
                    Value::Bool(b) => {
                        if b == keep_on {
                            out.push(item.clone());
                        }
                    }
                    Value::Undefined => {}
                    other => {
                        return Err(EvalError::new(format!(
                            "`{}` body must be Boolean, got {}",
                            op.name(),
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(Value::Coll(CollectionKind::Set, out))
        }
        IterOp::Collect => {
            let mut out = Vec::new();
            for item in items {
                match eval_body(item)? {
                    Value::Coll(_, inner) => out.extend(inner),
                    v => out.push(v),
                }
            }
            Ok(Value::bag(out))
        }
        IterOp::One => {
            let mut n = 0usize;
            for item in items {
                if eval_body(item)? == Value::Bool(true) {
                    n += 1;
                    if n > 1 {
                        return Ok(Value::Bool(false));
                    }
                }
            }
            Ok(Value::Bool(n == 1))
        }
        IterOp::Any => {
            for item in items {
                if eval_body(item)? == Value::Bool(true) {
                    return Ok(item.clone());
                }
            }
            Ok(Value::Undefined)
        }
        IterOp::IsUnique => {
            let mut seen: Vec<Value> = Vec::new();
            for item in items {
                let v = eval_body(item)?;
                if seen.iter().any(|s| s.ocl_eq(&v)) {
                    return Ok(Value::Bool(false));
                }
                seen.push(v);
            }
            Ok(Value::Bool(true))
        }
        IterOp::SortedBy => {
            let mut keyed: Vec<(Value, Value)> = Vec::with_capacity(items.len());
            for item in items {
                let key = eval_body(item)?;
                keyed.push((key, item.clone()));
            }
            // Insertion sort keeps the comparison fallible and the
            // sort stable without unwinding through sort_by.
            let mut sorted: Vec<(Value, Value)> = Vec::with_capacity(keyed.len());
            for (key, item) in keyed {
                let mut at = sorted.len();
                for (i, (other, _)) in sorted.iter().enumerate() {
                    let ord = key
                        .ocl_cmp(other)
                        .ok_or_else(|| EvalError::new("`sortedBy` keys are not totally ordered"))?;
                    if ord == Ordering::Less {
                        at = i;
                        break;
                    }
                }
                sorted.insert(at, (key, item));
            }
            Ok(Value::sequence(
                sorted.into_iter().map(|(_, v)| v).collect(),
            ))
        }
    }
}

/// Evaluate `src.op(args…)` over fully evaluated operands; shared between
/// the interpreter and the compiled evaluator.
pub(crate) fn method_call(src: &Value, op: &str, args: &[Value]) -> Result<Value, EvalError> {
    let arity = |n: usize| -> Result<(), EvalError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EvalError::new(format!(
                "`.{op}` expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match op {
        "oclIsUndefined" => {
            arity(0)?;
            Ok(Value::Bool(src.is_undefined()))
        }
        "oclIsDefined" => {
            arity(0)?;
            Ok(Value::Bool(!src.is_undefined()))
        }
        "toString" => {
            arity(0)?;
            Ok(Value::Str(match src {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            }))
        }
        "abs" => {
            arity(0)?;
            match src {
                Value::Int(n) => Ok(Value::Int(n.abs())),
                Value::Real(r) => Ok(Value::Real(r.abs())),
                Value::Undefined => Ok(Value::Undefined),
                other => Err(EvalError::new(format!(".abs on {}", other.type_name()))),
            }
        }
        "floor" => {
            arity(0)?;
            match src {
                Value::Int(n) => Ok(Value::Int(*n)),
                Value::Real(r) => Ok(Value::Int(r.floor() as i64)),
                Value::Undefined => Ok(Value::Undefined),
                other => Err(EvalError::new(format!(".floor on {}", other.type_name()))),
            }
        }
        "round" => {
            arity(0)?;
            match src {
                Value::Int(n) => Ok(Value::Int(*n)),
                Value::Real(r) => Ok(Value::Int(r.round() as i64)),
                Value::Undefined => Ok(Value::Undefined),
                other => Err(EvalError::new(format!(".round on {}", other.type_name()))),
            }
        }
        "max" | "min" => {
            arity(1)?;
            if src.is_undefined() || args[0].is_undefined() {
                return Ok(Value::Undefined);
            }
            let ord = src.ocl_cmp(&args[0]).ok_or_else(|| {
                EvalError::new(format!(
                    ".{op} between {} and {}",
                    src.type_name(),
                    args[0].type_name()
                ))
            })?;
            let take_src = if op == "max" {
                ord != Ordering::Less
            } else {
                ord != Ordering::Greater
            };
            Ok(if take_src {
                src.clone()
            } else {
                args[0].clone()
            })
        }
        "div" | "mod" => {
            arity(1)?;
            match (src.as_int(), args[0].as_int()) {
                (Some(a), Some(b)) => {
                    if b == 0 {
                        Ok(Value::Undefined)
                    } else if op == "div" {
                        Ok(Value::Int(a.div_euclid(b)))
                    } else {
                        Ok(Value::Int(a.rem_euclid(b)))
                    }
                }
                _ => Err(EvalError::new(format!(".{op} requires Integers"))),
            }
        }
        "concat" => {
            arity(1)?;
            match (src.as_str(), args[0].as_str()) {
                (Some(a), Some(b)) => Ok(Value::Str(format!("{a}{b}"))),
                _ => Err(EvalError::new(".concat requires Strings")),
            }
        }
        "toUpper" | "toUpperCase" => {
            arity(0)?;
            match src.as_str() {
                Some(s) => Ok(Value::Str(s.to_uppercase())),
                None => Err(EvalError::new(".toUpper requires a String")),
            }
        }
        "toLower" | "toLowerCase" => {
            arity(0)?;
            match src.as_str() {
                Some(s) => Ok(Value::Str(s.to_lowercase())),
                None => Err(EvalError::new(".toLower requires a String")),
            }
        }
        "substring" => {
            arity(2)?;
            let s = src
                .as_str()
                .ok_or_else(|| EvalError::new(".substring requires a String"))?;
            let (i, j) = match (args[0].as_int(), args[1].as_int()) {
                (Some(i), Some(j)) => (i, j),
                _ => return Err(EvalError::new(".substring indices must be Integers")),
            };
            // OCL substring is 1-based and inclusive on both ends.
            let chars: Vec<char> = s.chars().collect();
            if i < 1 || j < i || j as usize > chars.len() {
                return Ok(Value::Undefined);
            }
            Ok(Value::Str(
                chars[(i as usize - 1)..(j as usize)].iter().collect(),
            ))
        }
        "startsWith" => {
            arity(1)?;
            match (src.as_str(), args[0].as_str()) {
                (Some(a), Some(b)) => Ok(Value::Bool(a.starts_with(b))),
                _ => Err(EvalError::new(".startsWith requires Strings")),
            }
        }
        "endsWith" => {
            arity(1)?;
            match (src.as_str(), args[0].as_str()) {
                (Some(a), Some(b)) => Ok(Value::Bool(a.ends_with(b))),
                _ => Err(EvalError::new(".endsWith requires Strings")),
            }
        }
        "size" => {
            // String size; collections use `->size()`.
            arity(0)?;
            match src.as_str() {
                Some(s) => Ok(Value::Int(s.chars().count() as i64)),
                None => Err(EvalError::new(".size requires a String (use ->size())")),
            }
        }
        "oclIsTypeOf" | "oclIsKindOf" => {
            arity(1)?;
            let wanted = args[0]
                .as_str()
                .ok_or_else(|| EvalError::new(format!(".{op} requires a type name string")))?;
            match src {
                Value::Obj(o) => Ok(Value::Bool(&*o.class == wanted)),
                other => Ok(Value::Bool(other.type_name() == wanted)),
            }
        }
        other => Err(EvalError::new(format!("unknown operation `.{other}()`"))),
    }
}

/// `->` semantics: a collection stays as is; `Undefined` becomes the empty
/// set; any single value becomes a one-element set. Collections are
/// *borrowed*, not cloned — the big win for `flatten`/`asSet`-style chains
/// and for every read-only op (`size`, `includes`, …).
pub(crate) fn arrow_items(v: &Value) -> Cow<'_, [Value]> {
    match v {
        Value::Coll(_, items) => Cow::Borrowed(items.as_slice()),
        Value::Undefined => Cow::Owned(Vec::new()),
        single => Cow::Owned(vec![single.clone()]),
    }
}

pub(crate) fn kleene_and(l: &Value, r: &Value) -> Result<Value, EvalError> {
    match (l, r) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Ok(Value::Bool(false)),
        (Value::Bool(true), Value::Bool(true)) => Ok(Value::Bool(true)),
        (Value::Undefined, Value::Bool(true) | Value::Undefined)
        | (Value::Bool(true), Value::Undefined) => Ok(Value::Undefined),
        (l, r) => Err(EvalError::new(format!(
            "`and` applied to {} and {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

pub(crate) fn kleene_or(l: &Value, r: &Value) -> Result<Value, EvalError> {
    match (l, r) {
        (Value::Bool(true), _) | (_, Value::Bool(true)) => Ok(Value::Bool(true)),
        (Value::Bool(false), Value::Bool(false)) => Ok(Value::Bool(false)),
        (Value::Undefined, Value::Bool(false) | Value::Undefined)
        | (Value::Bool(false), Value::Undefined) => Ok(Value::Undefined),
        (l, r) => Err(EvalError::new(format!(
            "`or` applied to {} and {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

pub(crate) fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinOp::Add => Value::Int(a + b),
            BinOp::Sub => Value::Int(a - b),
            BinOp::Mul => Value::Int(a * b),
            BinOp::Div => {
                if *b == 0 {
                    Value::Undefined
                } else {
                    // OCL `/` is real division.
                    Value::Real(*a as f64 / *b as f64)
                }
            }
            _ => unreachable!(),
        }),
        _ => {
            let (a, b) = match (l.as_real(), r.as_real()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(EvalError::new(format!(
                        "arithmetic on {} and {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            Ok(match op {
                BinOp::Add => Value::Real(a + b),
                BinOp::Sub => Value::Real(a - b),
                BinOp::Mul => Value::Real(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Value::Undefined
                    } else {
                        Value::Real(a / b)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cinder_env() -> MapNavigator {
        // Mirrors the paper's example: project 4 with one available volume,
        // quota of 10, user in group 'admin'.
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

    fn eval_str(src: &str, nav: &MapNavigator) -> Value {
        let e = parse(src).unwrap();
        EvalContext::new(nav).eval(&e).unwrap()
    }

    #[test]
    fn evaluates_paper_invariant_true() {
        let nav = cinder_env();
        assert_eq!(
            eval_str("project.id->size()=1 and project.volumes->size()>=1", &nav),
            Value::Bool(true)
        );
    }

    #[test]
    fn evaluates_paper_guard() {
        let nav = cinder_env();
        assert_eq!(
            eval_str("volume.status <> 'in-use' and user.groups = 'admin'", &nav),
            Value::Bool(true)
        );
    }

    #[test]
    fn paper_compat_collection_vs_quota_comparison() {
        let nav = cinder_env();
        // project.volumes (a 1-element set) < quota_sets.volume (10)
        assert_eq!(
            eval_str("project.volumes < quota_sets.volume", &nav),
            Value::Bool(true)
        );
    }

    #[test]
    fn strict_mode_rejects_collection_vs_number() {
        let nav = cinder_env();
        let e = parse("project.volumes < quota_sets.volume").unwrap();
        let err = EvalContext::new(&nav)
            .coercion_mode(CoercionMode::Strict)
            .eval(&e)
            .unwrap_err();
        assert!(err.message.contains("strict"));
    }

    #[test]
    fn missing_variable_is_an_error() {
        let nav = MapNavigator::new();
        let e = parse("nosuch = 1").unwrap();
        assert!(EvalContext::new(&nav).eval(&e).is_err());
    }

    #[test]
    fn missing_attribute_is_undefined_and_size_zero() {
        let mut nav = MapNavigator::new();
        nav.set_variable("project", ObjRef::new("project", 1));
        assert_eq!(eval_str("project.volumes->size()", &nav), Value::Int(0));
    }

    #[test]
    fn navigation_over_undefined_is_undefined() {
        let mut nav = MapNavigator::new();
        nav.set_variable("project", ObjRef::new("project", 1));
        assert_eq!(eval_str("project.owner.name", &nav), Value::Undefined);
    }

    #[test]
    fn kleene_false_and_undefined_is_false() {
        let mut nav = MapNavigator::new();
        nav.set_variable("project", ObjRef::new("project", 1));
        assert_eq!(
            eval_str("1 = 2 and project.owner.name = 'x'", &nav),
            Value::Bool(false)
        );
        // reversed order also works (undefined first)
        assert_eq!(
            eval_str("project.owner.missing = project.q and 1 = 2", &nav),
            Value::Bool(false)
        );
    }

    #[test]
    fn false_implies_anything_is_true() {
        let mut nav = MapNavigator::new();
        nav.set_variable("p", ObjRef::new("p", 1));
        assert_eq!(
            eval_str("1 = 2 implies p.missing.more = 3", &nav),
            Value::Bool(true)
        );
    }

    #[test]
    fn equality_with_undefined_is_defined_test() {
        let mut nav = MapNavigator::new();
        nav.set_variable("p", ObjRef::new("p", 1));
        assert_eq!(eval_str("p.missing = null", &nav), Value::Bool(true));
        assert_eq!(eval_str("p.missing <> null", &nav), Value::Bool(false));
    }

    #[test]
    fn pre_function_reads_snapshot() {
        let current = cinder_env();
        let mut pre = cinder_env();
        // In the pre-state the project had two volumes.
        let project = ObjRef::new("project", 4);
        pre.set_attribute(
            project,
            "volumes",
            Value::set(vec![
                Value::Obj(ObjRef::new("volume", 7)),
                Value::Obj(ObjRef::new("volume", 8)),
            ]),
        );
        let e = parse("project.volumes->size() < pre(project.volumes->size())").unwrap();
        let v = EvalContext::with_pre_state(&current, &pre)
            .eval(&e)
            .unwrap();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn at_pre_marker_reads_snapshot() {
        let current = cinder_env();
        let mut pre = cinder_env();
        let volume = ObjRef::new("volume", 7);
        pre.set_attribute(volume, "status", "in-use");
        let e = parse("volume.status@pre = 'in-use' and volume.status = 'available'").unwrap();
        let v = EvalContext::with_pre_state(&current, &pre)
            .eval(&e)
            .unwrap();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn pre_without_snapshot_is_an_error() {
        let nav = cinder_env();
        let e = parse("pre(project.id->size()) = 1").unwrap();
        let err = EvalContext::new(&nav).eval(&e).unwrap_err();
        assert!(err.message.contains("pre"));
    }

    #[test]
    fn exists_and_forall() {
        let nav = cinder_env();
        assert_eq!(
            eval_str("project.volumes->exists(v | v.status = 'available')", &nav),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("project.volumes->forAll(v | v.size > 0)", &nav),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("project.volumes->exists(v | v.status = 'in-use')", &nav),
            Value::Bool(false)
        );
    }

    #[test]
    fn select_then_size() {
        let nav = cinder_env();
        assert_eq!(
            eval_str(
                "project.volumes->select(v | v.status = 'available')->size()",
                &nav
            ),
            Value::Int(1)
        );
    }

    #[test]
    fn collect_navigates() {
        let nav = cinder_env();
        assert_eq!(
            eval_str("project.volumes->collect(v | v.size)->sum()", &nav),
            Value::Int(100)
        );
    }

    #[test]
    fn implicit_collect_shorthand() {
        let nav = cinder_env();
        // project.volumes.size navigates `size` over each volume.
        assert_eq!(
            eval_str("project.volumes.size->sum()", &nav),
            Value::Int(100)
        );
    }

    #[test]
    fn arrow_on_single_value_wraps_in_set() {
        let nav = cinder_env();
        assert_eq!(eval_str("user.groups->size()", &nav), Value::Int(1));
        assert_eq!(
            eval_str("user.groups->includes('admin')", &nav),
            Value::Bool(true)
        );
    }

    #[test]
    fn collection_ops() {
        let nav = MapNavigator::new();
        assert_eq!(eval_str("Set(1,2,3)->includes(2)", &nav), Value::Bool(true));
        assert_eq!(eval_str("Set(1,2,3)->excludes(9)", &nav), Value::Bool(true));
        assert_eq!(eval_str("Sequence(1,2,2)->count(2)", &nav), Value::Int(2));
        assert_eq!(eval_str("Sequence(3,1,2)->min()", &nav), Value::Int(1));
        assert_eq!(eval_str("Sequence(3,1,2)->max()", &nav), Value::Int(3));
        assert_eq!(eval_str("Sequence(3,1,2)->first()", &nav), Value::Int(3));
        assert_eq!(eval_str("Sequence(3,1,2)->last()", &nav), Value::Int(2));
        assert_eq!(eval_str("Sequence(3,1,2)->at(2)", &nav), Value::Int(1));
        assert_eq!(eval_str("Sequence(3,1,2)->indexOf(2)", &nav), Value::Int(3));
        assert_eq!(
            eval_str("Set(1,2)->union(Set(2,3))->size()", &nav),
            Value::Int(3)
        );
        assert_eq!(
            eval_str("Set(1,2)->intersection(Set(2,3))->size()", &nav),
            Value::Int(1)
        );
        assert_eq!(
            eval_str("Set(1,2)->including(3)->size()", &nav),
            Value::Int(3)
        );
        assert_eq!(
            eval_str("Set(1,2)->excluding(1)->size()", &nav),
            Value::Int(1)
        );
        assert_eq!(eval_str("Set()->isEmpty()", &nav), Value::Bool(true));
        assert_eq!(eval_str("Set(1)->notEmpty()", &nav), Value::Bool(true));
        assert_eq!(
            eval_str("Set(1,2,3)->includesAll(Set(1,3))", &nav),
            Value::Bool(true)
        );
    }

    #[test]
    fn iterate_one_any_isunique() {
        let nav = MapNavigator::new();
        assert_eq!(
            eval_str("Sequence(1,2,3)->one(x | x = 2)", &nav),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("Sequence(1,2,2)->one(x | x = 2)", &nav),
            Value::Bool(false)
        );
        assert_eq!(
            eval_str("Sequence(1,2,3)->any(x | x > 1)", &nav),
            Value::Int(2)
        );
        assert_eq!(
            eval_str("Sequence(1,2,3)->isUnique(x | x)", &nav),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("Sequence(1,2,2)->isUnique(x | x)", &nav),
            Value::Bool(false)
        );
    }

    #[test]
    fn string_operations() {
        let nav = MapNavigator::new();
        assert_eq!(
            eval_str("'ab'.concat('cd')", &nav),
            Value::Str("abcd".into())
        );
        assert_eq!(eval_str("'ab'.toUpper()", &nav), Value::Str("AB".into()));
        assert_eq!(eval_str("'AB'.toLower()", &nav), Value::Str("ab".into()));
        assert_eq!(
            eval_str("'hello'.substring(2, 4)", &nav),
            Value::Str("ell".into())
        );
        assert_eq!(eval_str("'hello'.size()", &nav), Value::Int(5));
        assert_eq!(
            eval_str("'hello'.startsWith('he')", &nav),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("'in-use' + '!'", &nav),
            Value::Str("in-use!".into())
        );
    }

    #[test]
    fn numeric_operations() {
        let nav = MapNavigator::new();
        assert_eq!(eval_str("(0 - 3).abs()", &nav), Value::Int(3));
        assert_eq!(eval_str("7.div(2)", &nav), Value::Int(3));
        assert_eq!(eval_str("7.mod(2)", &nav), Value::Int(1));
        assert_eq!(eval_str("3.max(5)", &nav), Value::Int(5));
        assert_eq!(eval_str("3.min(5)", &nav), Value::Int(3));
        assert_eq!(eval_str("1 / 0", &nav), Value::Undefined);
        assert_eq!(eval_str("6 / 4", &nav), Value::Real(1.5));
        assert_eq!(eval_str("2 + 3 * 4", &nav), Value::Int(14));
    }

    #[test]
    fn if_and_let() {
        let nav = MapNavigator::new();
        assert_eq!(
            eval_str("if 1 < 2 then 'yes' else 'no' endif", &nav),
            Value::Str("yes".into())
        );
        assert_eq!(
            eval_str("let n = Set(1,2,3)->size() in n * 10", &nav),
            Value::Int(30)
        );
    }

    #[test]
    fn let_shadowing_is_lexical() {
        let nav = MapNavigator::new();
        assert_eq!(
            eval_str("let x = 1 in (let x = 2 in x) + x", &nav),
            Value::Int(3)
        );
    }

    #[test]
    fn ocl_is_undefined_calls() {
        let mut nav = MapNavigator::new();
        nav.set_variable("p", ObjRef::new("p", 1));
        assert_eq!(
            eval_str("p.missing.oclIsUndefined()", &nav),
            Value::Bool(true)
        );
        assert_eq!(eval_str("p.oclIsDefined()", &nav), Value::Bool(true));
        assert_eq!(eval_str("p.oclIsTypeOf('p')", &nav), Value::Bool(true));
    }

    #[test]
    fn eval_bool_rejects_non_boolean() {
        let nav = MapNavigator::new();
        let e = parse("1 + 1").unwrap();
        assert!(EvalContext::new(&nav).eval_bool(&e).is_err());
    }

    #[test]
    fn full_listing1_precondition_evaluates() {
        let nav = cinder_env();
        // Adapted first disjunct of Listing 1 with user.groups.
        let src = "(project.id->size()=1 and project.volumes->size()>=1 and \
                    project.volumes < quota_sets.volume and volume.status <> 'in-use' and \
                    user.groups = 'admin')";
        assert_eq!(eval_str(src, &nav), Value::Bool(true));
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use crate::parser::parse;

    fn eval_err(src: &str) -> String {
        let nav = MapNavigator::new();
        let e = parse(src).unwrap();
        EvalContext::new(&nav).eval(&e).unwrap_err().message
    }

    #[test]
    fn arity_errors_name_the_operation() {
        assert!(eval_err("Set(1)->size(2)").contains("`->size` expects 0"));
        assert!(eval_err("Set(1)->includes()").contains("expects 1"));
        assert!(eval_err("'a'.concat()").contains("expects 1"));
        assert!(eval_err("3.max()").contains("expects 1"));
    }

    #[test]
    fn unknown_operations_are_reported() {
        assert!(eval_err("Set(1)->frobnicate(2)").contains("unknown collection operation"));
        assert!(eval_err("'a'.frobnicate()").contains("unknown operation"));
    }

    #[test]
    fn type_mismatches_are_reported() {
        assert!(eval_err("'a' and true").contains("`and` applied to"));
        assert!(eval_err("1 or false").contains("`or` applied to"));
        assert!(eval_err("not 3").contains("`not` applied to"));
        assert!(eval_err("true < false").contains("cannot order"));
        assert!(eval_err("'a' - 'b'").contains("arithmetic"));
        assert!(eval_err("Set('x')->sum()").contains("non-numeric"));
        assert!(eval_err("Sequence(true, false)->min()").contains("unordered"));
        assert!(eval_err("1.concat('a')").contains("requires Strings"));
        assert!(eval_err("'a'.substring('x', 2)").contains("Integers"));
        assert!(eval_err("if 3 then 1 else 2 endif").contains("must be Boolean"));
        assert!(eval_err("Set(1)->exists(v | v)").contains("must be Boolean"));
    }

    #[test]
    fn boundary_values_are_undefined_not_errors() {
        let nav = MapNavigator::new();
        let cases = [
            ("Sequence(1,2)->at(0)", Value::Undefined),
            ("Sequence(1,2)->at(3)", Value::Undefined),
            ("Sequence()->first()", Value::Undefined),
            ("Sequence()->min()", Value::Undefined),
            ("Sequence(1)->indexOf(9)", Value::Undefined),
            ("'abc'.substring(0, 2)", Value::Undefined),
            ("'abc'.substring(2, 9)", Value::Undefined),
            ("5.div(0)", Value::Undefined),
            ("5.mod(0)", Value::Undefined),
        ];
        for (src, expected) in cases {
            let e = parse(src).unwrap();
            assert_eq!(
                EvalContext::new(&nav).eval(&e).unwrap(),
                expected,
                "case: {src}"
            );
        }
    }

    #[test]
    fn nested_iterator_shadowing() {
        let nav = MapNavigator::new();
        let e = parse("Sequence(1,2)->forAll(x | Sequence(1,2)->exists(x | x = 2) and x >= 1)")
            .unwrap();
        assert_eq!(EvalContext::new(&nav).eval(&e).unwrap(), Value::Bool(true));
    }

    #[test]
    fn deep_navigation_chain_stays_undefined() {
        let mut nav = MapNavigator::new();
        nav.set_variable("a", ObjRef::new("a", 1));
        let e = parse("a.b.c.d.e.f->size() = 0").unwrap();
        assert_eq!(EvalContext::new(&nav).eval(&e).unwrap(), Value::Bool(true));
    }

    #[test]
    fn implicit_collect_flattens_nested_collections() {
        // Two projects each with a set of volumes: navigating `volumes`
        // over the set of projects flattens one level.
        let p1 = ObjRef::new("p", 1);
        let p2 = ObjRef::new("p", 2);
        let mut nav = MapNavigator::new();
        nav.set_variable(
            "ps",
            Value::set(vec![Value::Obj(p1.clone()), Value::Obj(p2.clone())]),
        );
        nav.set_attribute(p1, "vols", Value::set(vec![Value::Int(1), Value::Int(2)]));
        nav.set_attribute(p2, "vols", Value::set(vec![Value::Int(3)]));
        let e = parse("ps.vols->size() = 3").unwrap();
        assert_eq!(EvalContext::new(&nav).eval(&e).unwrap(), Value::Bool(true));
    }
}

#[cfg(test)]
mod fold_tests {
    use super::*;
    use crate::parser::parse;
    use crate::print::to_string;

    fn eval_str(src: &str) -> Value {
        let nav = MapNavigator::new();
        let e = parse(src).unwrap();
        EvalContext::new(&nav).eval(&e).unwrap()
    }

    #[test]
    fn iterate_sums() {
        assert_eq!(
            eval_str("Sequence(1,2,3,4)->iterate(v; acc = 0 | acc + v)"),
            Value::Int(10)
        );
    }

    #[test]
    fn iterate_concatenates_strings() {
        assert_eq!(
            eval_str("Sequence('a','b','c')->iterate(v; s = '' | s + v)"),
            Value::Str("abc".into())
        );
    }

    #[test]
    fn iterate_over_empty_returns_init() {
        assert_eq!(
            eval_str("Sequence()->iterate(v; acc = 42 | acc + 1)"),
            Value::Int(42)
        );
    }

    #[test]
    fn iterate_expresses_count() {
        assert_eq!(
            eval_str("Sequence(1,5,2,8)->iterate(v; n = 0 | if v > 3 then n + 1 else n endif)"),
            Value::Int(2)
        );
    }

    #[test]
    fn iterate_with_typed_variables() {
        assert_eq!(
            eval_str("Sequence(1,2)->iterate(v : Integer; acc : Integer = 0 | acc + v)"),
            Value::Int(3)
        );
    }

    #[test]
    fn iterate_roundtrips_through_printer() {
        let src = "xs->iterate(v; acc = 0 | acc + v.size) > 10";
        let e = parse(src).unwrap();
        let printed = to_string(&e);
        assert_eq!(parse(&printed).unwrap(), e, "{printed}");
        assert_eq!(printed, src);
    }

    #[test]
    fn iterate_free_variables_exclude_bound() {
        let e = parse("xs->iterate(v; acc = start | acc + v + other)").unwrap();
        assert_eq!(
            e.free_variables(),
            vec!["xs".to_string(), "start".to_string(), "other".to_string()]
        );
    }

    #[test]
    fn iterate_typechecks() {
        use crate::types::{check, PermissiveEnv};
        let e = parse("Sequence(1,2)->iterate(v; acc = 0 | acc + v)").unwrap();
        let report = check(&e, &PermissiveEnv);
        assert!(report.is_ok(), "{:?}", report.issues);
    }

    #[test]
    fn iterate_parse_errors() {
        assert!(parse("xs->iterate(v acc = 0 | acc)").is_err());
        assert!(parse("xs->iterate(v; acc | acc)").is_err());
        assert!(parse("xs->iterate(v; acc = 0 acc)").is_err());
    }

    #[test]
    fn iterate_simplifies_inside() {
        use crate::simplify::simplify;
        let e = parse("xs->iterate(v; acc = (1 + 1) | acc and true)").unwrap();
        let s = simplify(&e);
        assert_eq!(to_string(&s), "xs->iterate(v; acc = 2 | acc)");
    }
}

#[cfg(test)]
mod sorted_by_tests {
    use super::*;
    use crate::parser::parse;

    fn eval_str(src: &str) -> Value {
        let nav = MapNavigator::new();
        EvalContext::new(&nav).eval(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn sorts_by_key() {
        assert_eq!(
            eval_str("Sequence(3,1,2)->sortedBy(x | x)"),
            Value::sequence(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            eval_str("Sequence(1,2,3)->sortedBy(x | 0 - x)->first()"),
            Value::Int(3)
        );
    }

    #[test]
    fn sort_is_stable() {
        // Equal keys keep insertion order.
        assert_eq!(
            eval_str("Sequence('bb','a','cc','d')->sortedBy(s | s.size())->at(1)"),
            Value::Str("a".into())
        );
        assert_eq!(
            eval_str("Sequence('bb','a','cc','d')->sortedBy(s | s.size())->at(3)"),
            Value::Str("bb".into())
        );
        assert_eq!(
            eval_str("Sequence('bb','a','cc','d')->sortedBy(s | s.size())->at(4)"),
            Value::Str("cc".into())
        );
    }

    #[test]
    fn unordered_keys_error() {
        let nav = MapNavigator::new();
        let e = parse("Sequence(true, false)->sortedBy(x | x)").unwrap();
        assert!(EvalContext::new(&nav).eval(&e).is_err());
    }

    #[test]
    fn empty_sorts_to_empty() {
        assert_eq!(
            eval_str("Sequence()->sortedBy(x | x)->size()"),
            Value::Int(0)
        );
    }
}
