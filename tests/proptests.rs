//! Enabled with `cargo test --features proptest`; a hermetic default
//! build skips these.
#![cfg(feature = "proptest")]

//! Property-based tests over the core data structures and invariants:
//! OCL printer/parser round-trips, evaluator laws, JSON and policy-rule
//! round-trips, URI template duality, and XMI interchange losslessness.

use cm_ocl::{
    parse as parse_ocl, to_string as ocl_to_string, BinOp, CollectionKind, EvalContext, Expr,
    IterOp, MapNavigator, UnOp, Value,
};
use cm_rest::{parse_json, Json, UriTemplate};
use proptest::prelude::*;

// ---------- strategies -------------------------------------------------

/// Identifiers that are not keywords of the OCL subset.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("keyword", |s| {
        !matches!(
            s.as_str(),
            "and"
                | "or"
                | "xor"
                | "not"
                | "implies"
                | "true"
                | "false"
                | "null"
                | "if"
                | "then"
                | "else"
                | "endif"
                | "let"
                | "in"
                | "pre"
        )
    })
}

fn leaf_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<bool>().prop_map(Expr::Bool),
        (0i64..1000).prop_map(Expr::Int),
        (0u32..8000).prop_map(|i| Expr::Real(f64::from(i) / 8.0)),
        "[a-z ]{0,8}".prop_map(Expr::Str),
        Just(Expr::Null),
        ident().prop_map(Expr::Var),
    ]
}

fn binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Implies),
    ]
}

fn iter_op() -> impl Strategy<Value = IterOp> {
    prop_oneof![
        Just(IterOp::Exists),
        Just(IterOp::ForAll),
        Just(IterOp::Select),
        Just(IterOp::Reject),
        Just(IterOp::Collect),
        Just(IterOp::One),
        Just(IterOp::Any),
        Just(IterOp::IsUnique),
        Just(IterOp::SortedBy),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    leaf_expr().prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (binop(), inner.clone(), inner.clone()).prop_map(|(op, lhs, rhs)| Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }),
            (inner.clone(), prop_oneof![Just(UnOp::Not), Just(UnOp::Neg)]).prop_map(|(e, op)| {
                Expr::Unary {
                    op,
                    operand: Box::new(e),
                }
            }),
            (inner.clone(), ident(), any::<bool>()).prop_map(|(src, prop, at_pre)| {
                Expr::Nav {
                    source: Box::new(src),
                    property: prop,
                    at_pre,
                }
            }),
            (inner.clone()).prop_map(|src| Expr::CollOp {
                source: Box::new(src),
                op: "size".to_string(),
                args: Vec::new(),
            }),
            (inner.clone(), inner.clone()).prop_map(|(src, arg)| Expr::CollOp {
                source: Box::new(src),
                op: "includes".to_string(),
                args: vec![arg],
            }),
            (inner.clone(), iter_op(), ident(), inner.clone()).prop_map(|(src, op, var, body)| {
                Expr::Iterate {
                    source: Box::new(src),
                    op,
                    var,
                    body: Box::new(body),
                }
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If {
                cond: Box::new(c),
                then_branch: Box::new(t),
                else_branch: Box::new(e),
            }),
            (ident(), inner.clone(), inner.clone()).prop_map(|(name, value, body)| Expr::Let {
                name,
                value: Box::new(value),
                body: Box::new(body),
            }),
            inner.clone().prop_map(|e| Expr::Pre(Box::new(e))),
            (
                inner.clone(),
                ident(),
                ident(),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(src, var, acc, init, body)| Expr::Fold {
                    source: Box::new(src),
                    var,
                    acc,
                    init: Box::new(init),
                    body: Box::new(body),
                }),
            (
                prop_oneof![
                    Just(CollectionKind::Set),
                    Just(CollectionKind::Bag),
                    Just(CollectionKind::Sequence)
                ],
                prop::collection::vec(inner, 0..4)
            )
                .prop_map(|(kind, elements)| Expr::CollectionLiteral { kind, elements }),
        ]
    })
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        (-1_000_000i64..1_000_000).prop_map(|i| Json::Float(i as f64 / 64.0)),
        "[\\x20-\\x7e]{0,12}".prop_map(Json::Str),
        "\\PC{0,6}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            prop::collection::vec(("[a-zA-Z0-9_]{0,8}", inner), 0..6)
                .prop_map(|members| { Json::Object(members) }),
        ]
    })
}

// ---------- properties -------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The OCL printer's output re-parses to the identical AST.
    #[test]
    fn ocl_print_parse_roundtrip(expr in arb_expr()) {
        let printed = ocl_to_string(&expr);
        let reparsed = parse_ocl(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed for `{printed}`: {e}"));
        prop_assert_eq!(reparsed, expr, "printed: {}", printed);
    }

    /// Lexing never panics on arbitrary input.
    #[test]
    fn ocl_lexer_total(input in "\\PC{0,64}") {
        let _ = cm_ocl::lex(&input);
    }

    /// node_count is positive and stable across print/parse.
    #[test]
    fn ocl_node_count_stable(expr in arb_expr()) {
        prop_assert!(expr.node_count() >= 1);
        let reparsed = parse_ocl(&ocl_to_string(&expr)).unwrap();
        prop_assert_eq!(reparsed.node_count(), expr.node_count());
    }

    /// Kleene laws on the evaluator: commutativity of and/or over the
    /// three-valued domain, and De Morgan.
    #[test]
    fn ocl_kleene_laws(a in 0u8..3, b in 0u8..3) {
        fn lit(v: u8) -> Expr {
            match v {
                0 => Expr::Bool(false),
                1 => Expr::Bool(true),
                _ => Expr::Null,
            }
        }
        let nav = MapNavigator::new();
        let eval = |e: &Expr| EvalContext::new(&nav).eval(e).unwrap();

        let ab = lit(a).and(lit(b));
        let ba = lit(b).and(lit(a));
        prop_assert_eq!(eval(&ab), eval(&ba));

        let ab_or = lit(a).or(lit(b));
        let ba_or = lit(b).or(lit(a));
        prop_assert_eq!(eval(&ab_or), eval(&ba_or));

        // not (a and b) == (not a) or (not b)
        let lhs = lit(a).and(lit(b)).negate();
        let rhs = lit(a).negate().or(lit(b).negate());
        prop_assert_eq!(eval(&lhs), eval(&rhs));

        // a implies b == (not a) or b
        let imp = lit(a).implies(lit(b));
        let disj = lit(a).negate().or(lit(b));
        prop_assert_eq!(eval(&imp), eval(&disj));
    }

    /// any_of/all_of agree with element-wise evaluation.
    #[test]
    fn ocl_any_all_of(bits in prop::collection::vec(any::<bool>(), 0..8)) {
        let nav = MapNavigator::new();
        let exprs: Vec<Expr> = bits.iter().map(|b| Expr::Bool(*b)).collect();
        let any = EvalContext::new(&nav).eval(&Expr::any_of(exprs.clone())).unwrap();
        let all = EvalContext::new(&nav).eval(&Expr::all_of(exprs)).unwrap();
        prop_assert_eq!(any, Value::Bool(bits.iter().any(|b| *b)));
        prop_assert_eq!(all, Value::Bool(bits.iter().all(|b| *b)));
    }

    /// Set semantics: the constructor deduplicates, and ->includes agrees
    /// with membership.
    #[test]
    fn ocl_set_dedup(values in prop::collection::vec(0i64..20, 0..16), probe in 0i64..20) {
        let set = Value::set(values.iter().map(|v| Value::Int(*v)).collect());
        let items = set.as_collection().unwrap();
        // No duplicates.
        for (i, a) in items.iter().enumerate() {
            for b in &items[i + 1..] {
                prop_assert!(!a.ocl_eq(b));
            }
        }
        // Membership preserved.
        let expected = values.contains(&probe);
        prop_assert_eq!(
            items.iter().any(|v| v.ocl_eq(&Value::Int(probe))),
            expected
        );
    }

    /// JSON serialisation round-trips.
    #[test]
    fn json_roundtrip(value in arb_json()) {
        let text = value.to_compact_string();
        let reparsed = parse_json(&text)
            .unwrap_or_else(|e| panic!("re-parse failed for `{text}`: {e}"));
        prop_assert_eq!(reparsed, value);
    }

    /// The JSON parser never panics on arbitrary input.
    #[test]
    fn json_parser_total(input in "\\PC{0,64}") {
        let _ = parse_json(&input);
    }

    /// Policy rules display/parse round-trip.
    #[test]
    fn policy_rule_roundtrip(
        roles in prop::collection::vec("[a-z]{1,8}", 1..5),
        negate in any::<bool>(),
    ) {
        use cm_rbac::{parse_rule, Rule};
        let mut rule = Rule::any_role(roles);
        if negate {
            rule = Rule::Not(Box::new(rule));
        }
        let printed = rule.to_string();
        let reparsed = parse_rule(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed for `{printed}`: {e}"));
        prop_assert_eq!(reparsed, rule);
    }

    /// URI templates: render then match recovers the parameters.
    #[test]
    fn uri_render_match_duality(
        literals in prop::collection::vec("[a-z]{1,8}", 1..4),
        params in prop::collection::vec(("[a-z_]{1,8}", "[a-zA-Z0-9]{1,8}"), 0..3),
    ) {
        let mut template = UriTemplate::root();
        let mut expected = std::collections::HashMap::new();
        for (i, lit) in literals.iter().enumerate() {
            template = template.literal(lit.clone());
            if let Some((name, value)) = params.get(i) {
                // parameter names must be unique for exact recovery
                let unique = format!("{name}_{i}");
                template = template.param(unique.clone());
                expected.insert(unique, value.clone());
            }
        }
        let rendered = template.render(&expected).unwrap();
        let captured = template.match_path(&rendered).expect("own rendering matches");
        prop_assert_eq!(captured, expected);
    }

    /// XMI export/import is lossless for arbitrary well-formed resource
    /// models.
    #[test]
    fn xmi_resource_model_roundtrip(
        class_names in prop::collection::hash_set("[a-z][a-z0-9]{0,6}", 1..6),
        seed in any::<u64>(),
    ) {
        use cm_model::{Association, AttrType, Attribute, Multiplicity, ResourceDef, ResourceModel};
        let names: Vec<String> = class_names.into_iter().collect();
        let mut model = ResourceModel::new("prop");
        for (i, name) in names.iter().enumerate() {
            let ty = match i % 4 {
                0 => AttrType::Str,
                1 => AttrType::Int,
                2 => AttrType::Real,
                _ => AttrType::Bool,
            };
            model.define(ResourceDef::normal(name.clone(), vec![Attribute::new("a", ty)]));
        }
        // A few deterministic associations derived from the seed.
        for i in 0..names.len().saturating_sub(1) {
            let src = &names[i];
            let dst = &names[(i + 1 + (seed as usize % names.len())) % names.len()];
            model.associate(Association::new(
                format!("r{i}"),
                src.clone(),
                dst.clone(),
                if seed.wrapping_shr(i as u32) & 1 == 0 {
                    Multiplicity::ONE
                } else {
                    Multiplicity::ZERO_MANY
                },
            ));
        }
        let xml = cm_xmi::export(Some(&model), &[]);
        let doc = cm_xmi::import(&xml).expect("exported XMI imports");
        prop_assert_eq!(doc.resources, Some(model));
    }

    /// XML text content with arbitrary characters survives escaping.
    #[test]
    fn xml_escaping_roundtrip(text in "\\PC{0,32}", attr in "\\PC{0,32}") {
        use cm_xmi::Element;
        let e = Element::new("root").attr("a", attr.clone()).text(text.clone());
        let xml = e.to_xml();
        let parsed = cm_xmi::parse_document(&xml).expect("own output parses");
        prop_assert_eq!(parsed.attribute("a"), Some(attr.as_str()));
        // Leading/trailing whitespace is not significant in our tree model.
        prop_assert_eq!(parsed.text_content(), text.trim());
    }

    /// Multiplicity::admits is consistent with its bounds.
    #[test]
    fn multiplicity_admits_consistent(lower in 0u32..5, extra in 0u32..5, count in 0u32..12) {
        use cm_model::Multiplicity;
        let m = Multiplicity::new(lower, Some(lower + extra));
        prop_assert_eq!(m.admits(count), count >= lower && count <= lower + extra);
        let unbounded = Multiplicity::new(lower, None);
        prop_assert_eq!(unbounded.admits(count), count >= lower);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Simplification preserves semantics: whenever the original
    /// expression evaluates successfully, the simplified one evaluates to
    /// the same value. (The simplified form may *additionally* succeed
    /// where the original errors — constant folding can bypass an
    /// unknown variable behind a short-circuit — which is fine.)
    #[test]
    fn ocl_simplify_preserves_semantics(expr in arb_expr()) {
        let simplified = cm_ocl::simplify(&expr);
        let nav = MapNavigator::new();
        if let Ok(value) = EvalContext::new(&nav).eval(&expr) {
            let simplified_value = EvalContext::new(&nav)
                .eval(&simplified)
                .expect("simplified form must not introduce errors");
            prop_assert!(
                value.ocl_eq(&simplified_value) || (value.is_undefined() && simplified_value.is_undefined()),
                "original {:?} != simplified {:?} for {}",
                value, simplified_value, cm_ocl::to_string(&expr)
            );
        }
        // Simplification is idempotent.
        prop_assert_eq!(cm_ocl::simplify(&simplified), simplified);
    }

    /// The simplifier never grows the expression.
    #[test]
    fn ocl_simplify_never_grows(expr in arb_expr()) {
        prop_assert!(cm_ocl::simplify(&expr).node_count() <= expr.node_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Route resolution is total: arbitrary method/path never panics, and
    /// a `Matched` resolution's captured params re-render to a path that
    /// matches the same route.
    #[test]
    fn route_resolution_total(
        path in "/{0,1}[a-zA-Z0-9/._-]{0,40}",
        method_idx in 0usize..4,
    ) {
        use cm_model::cinder;
        use cm_rest::{Resolution, RouteTable};
        let table = RouteTable::derive(&cinder::extended_resource_model(), "/v3");
        let method = cm_model::HttpMethod::ALL[method_idx];
        match table.resolve(method, &path) {
            Resolution::Matched { route, params } => {
                let rendered = route.template.render(&params).expect("params complete");
                prop_assert!(route.template.match_path(&rendered).is_some());
            }
            Resolution::MethodNotAllowed { .. } | Resolution::NotFound => {}
        }
    }

    /// Slicing is sound: the slice's transitions are a subset of the
    /// original's, every slice state exists in the original, the slice is
    /// well-formed, and slicing is idempotent.
    #[test]
    fn slice_soundness(selector in prop::collection::vec(any::<bool>(), 4)) {
        use cm_model::{
            cinder, slice_behavioral_model, validate_behavioral_model, HttpMethod,
            SliceCriterion,
        };
        let methods: Vec<HttpMethod> = HttpMethod::ALL
            .iter()
            .zip(&selector)
            .filter(|(_, keep)| **keep)
            .map(|(m, _)| *m)
            .collect();
        let criterion = SliceCriterion::Methods(methods);
        let original = cinder::behavioral_model();
        let slice = slice_behavioral_model(&original, &criterion);

        for t in &slice.transitions {
            prop_assert!(original.transitions.contains(t));
        }
        for s in &slice.states {
            prop_assert!(original.states.contains(s));
        }
        prop_assert!(validate_behavioral_model(&slice, None).is_valid());
        let twice = slice_behavioral_model(&slice, &criterion);
        prop_assert_eq!(twice.transitions, slice.transitions);
    }

    /// The policy rule checker is monotone in the role set for
    /// negation-free rules: adding roles can only turn deny into allow.
    #[test]
    fn policy_monotonicity(
        rule_roles in prop::collection::vec("[a-c]", 1..4),
        held in prop::collection::vec("[a-c]", 0..3),
        extra in "[a-c]",
    ) {
        use cm_rbac::{Rule, TokenInfo};
        let rule = Rule::any_role(rule_roles);
        let token = |roles: Vec<String>| TokenInfo {
            token: "t".into(),
            user_id: 1,
            user_name: "u".into(),
            project_id: 1,
            roles,
            groups: vec![],
        };
        let before = rule.check(&token(held.clone()));
        let mut larger = held;
        larger.push(extra);
        let after = rule.check(&token(larger));
        prop_assert!(!before || after, "adding a role revoked access");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrency determinism: requests over *disjoint* projects yield
    /// the same multiset of (method, path, verdict, requirements) whether
    /// the projects are driven round-robin from one thread or from one
    /// thread each, and within a project the records the threaded
    /// monitor's recorder received match the serial submission order
    /// exactly.
    #[test]
    fn concurrent_disjoint_projects_match_serial(
        plans in prop::collection::vec(prop::collection::vec(0usize..3, 1..8), 3),
    ) {
        use cm_audit::{AuditRecorder, MemoryRecorder};
        use cm_cloudsim::PrivateCloud;
        use cm_core::{cinder_monitor, CloudMonitor, Mode};
        use cm_model::HttpMethod;
        use cm_rest::{Json, RestRequest};
        use std::sync::Arc;

        const PROJECTS: usize = 3;

        fn fixture() -> (CloudMonitor<PrivateCloud>, Arc<MemoryRecorder>, Vec<String>) {
            let cloud = PrivateCloud::multi_project(PROJECTS);
            let mut tokens = Vec::new();
            for pid in 1..=PROJECTS as u64 {
                // Strided ids: the seeded volume's id equals the project id.
                cloud.state_of(pid).create_volume(pid, "seed", 1, false).unwrap();
                tokens.push(cloud.issue_token_scoped("alice", "alice-pw", pid).unwrap().token);
            }
            let recorder = Arc::new(MemoryRecorder::new());
            let mut monitor = cinder_monitor(cloud)
                .unwrap()
                .mode(Mode::Enforce)
                .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
            for pid in 1..=PROJECTS as u64 {
                monitor.authenticate_scoped("alice", "alice-pw", pid).unwrap();
            }
            (monitor, recorder, tokens)
        }

        fn request(op: usize, pid: u64, token: &str) -> RestRequest {
            match op {
                0 => RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes"))
                    .auth_token(token)
                    .json(Json::object(vec![(
                        "volume",
                        Json::object(vec![
                            ("name", Json::Str("prop".into())),
                            ("size", Json::Int(1)),
                        ]),
                    )])),
                1 => RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/{pid}"))
                    .auth_token(token),
                _ => RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{pid}"))
                    .auth_token(token),
            }
        }

        type Obs = (String, String, String, Vec<String>);
        /// The records in the order the recorder received them.
        fn observations(recorder: &MemoryRecorder) -> Vec<Obs> {
            recorder
                .records()
                .iter()
                .map(|r| {
                    (
                        r.method.to_string(),
                        r.path.clone(),
                        r.verdict.to_string(),
                        r.requirements.clone(),
                    )
                })
                .collect()
        }

        // Serial reference: round-robin the projects in one thread.
        let (serial, serial_recorder, tokens) = fixture();
        let longest = plans.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (i, plan) in plans.iter().enumerate() {
                if let Some(op) = plan.get(step) {
                    let _ = serial.process(&request(*op, i as u64 + 1, &tokens[i]));
                }
            }
        }
        let serial_log = observations(&serial_recorder);

        // Concurrent run on an identical fixture: one thread per project.
        let (threaded, threaded_recorder, tokens) = fixture();
        let threaded = Arc::new(threaded);
        let workers: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let monitor = Arc::clone(&threaded);
                let token = tokens[i].clone();
                let plan = plan.clone();
                std::thread::spawn(move || {
                    for op in plan {
                        let _ = monitor.process(&request(op, i as u64 + 1, &token));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let threaded_log = observations(&threaded_recorder);

        // Same multiset of observations regardless of interleaving…
        let mut serial_sorted = serial_log.clone();
        let mut threaded_sorted = threaded_log.clone();
        serial_sorted.sort();
        threaded_sorted.sort();
        prop_assert_eq!(&serial_sorted, &threaded_sorted);

        // …and per project the threaded recorder received the records
        // in the serial submission order exactly.
        for pid in 1..=PROJECTS as u64 {
            let prefix = format!("/v3/{pid}/");
            let by_project = |log: &[Obs]| -> Vec<Obs> {
                log.iter().filter(|o| o.1.starts_with(&prefix)).cloned().collect()
            };
            prop_assert_eq!(by_project(&serial_log), by_project(&threaded_log));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential oracle for the compile pipeline, at the contract
    /// layer: an arbitrary request script against the extended Cinder
    /// scenario (volume + snapshot state machines) is applied to the
    /// cloud, with the pre- and post-state environments probed around
    /// each request. On those environments the tree-walking interpreter
    /// and the interned compiled programs of the request's contract must
    /// agree on the pre-condition, the exercised requirement ids, the
    /// post-condition, and the matching model states.
    #[test]
    fn compiled_pipeline_matches_interpreter(
        plan in prop::collection::vec((0usize..8, any::<bool>()), 1..12),
    ) {
        use cm_cloudsim::PrivateCloud;
        use cm_core::{cinder_monitor_extended, ProbeTarget, StateProber};
        use cm_model::{HttpMethod, Trigger};
        use cm_ocl::{EnvView, EvalScratch};
        use cm_rest::{Resolution, RestRequest, SharedRestService};

        fn request(op: usize, pid: u64, vid: u64, sid: u64, token: &str) -> RestRequest {
            let base = match op {
                0 => RestRequest::new(HttpMethod::Post, format!("/v3/{pid}/volumes")).json(
                    Json::object(vec![(
                        "volume",
                        Json::object(vec![("name", Json::Str("prop".into()))]),
                    )]),
                ),
                1 => RestRequest::new(HttpMethod::Get, format!("/v3/{pid}/volumes/{vid}")),
                2 => RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/{vid}")),
                3 => RestRequest::new(
                    HttpMethod::Post,
                    format!("/v3/{pid}/volumes/{vid}/snapshots"),
                )
                .json(Json::object(vec![(
                    "snapshot",
                    Json::object(vec![("name", Json::Str("prop".into()))]),
                )])),
                4 => RestRequest::new(
                    HttpMethod::Get,
                    format!("/v3/{pid}/volumes/{vid}/snapshots/{sid}"),
                ),
                5 => RestRequest::new(
                    HttpMethod::Delete,
                    format!("/v3/{pid}/volumes/{vid}/snapshots/{sid}"),
                ),
                6 => RestRequest::new(HttpMethod::Put, format!("/v3/{pid}/volumes/{vid}")).json(
                    Json::object(vec![(
                        "volume",
                        Json::object(vec![("name", Json::Str("renamed".into()))]),
                    )]),
                ),
                // A volume that never existed.
                _ => RestRequest::new(HttpMethod::Delete, format!("/v3/{pid}/volumes/999")),
            };
            base.auth_token(token)
        }

        let cloud = PrivateCloud::my_project();
        let pid = cloud.project_id();
        let vid = cloud
            .state_mut()
            .create_volume(pid, "seed", 1, false)
            .unwrap()
            .id;
        let sid = cloud.state_mut().create_snapshot(pid, vid, "s").unwrap().id;
        let admin = cloud.issue_token("alice", "alice-pw").unwrap().token;
        let carol = cloud.issue_token("carol", "carol-pw").unwrap().token;
        // Only the generated artefacts are used: routes, the interpreter
        // contract set, and its compiled counterpart.
        let generated = cinder_monitor_extended(PrivateCloud::my_project()).unwrap();
        let contracts = generated.contracts();
        let compiled = generated.compiled_contracts();
        let syms = compiled.symbols();
        let prober = StateProber::default();
        let mut scratch = EvalScratch::new();
        for (op, as_admin) in plan {
            let token = if as_admin { &admin } else { &carol };
            let req = request(op, pid, vid, sid, token);
            // The same route → trigger → probe target mapping the monitor
            // applies.
            let Resolution::Matched { route, params } =
                generated.routes().resolve(req.method, &req.path)
            else {
                panic!("unrouted request {req:?}");
            };
            let trigger = Trigger::new(req.method, route.trigger_resource(req.method));
            let idx = compiled.index_for(&trigger).expect("modelled trigger");
            let (mc, cc) = (&contracts.contracts[idx], &compiled.contracts()[idx]);
            let id = |name: &str| params.get(name).and_then(|v| v.parse::<u64>().ok());
            let target = ProbeTarget {
                project_id: pid,
                volume_id: id("volume_id"),
                snapshot_id: id("snapshot_id"),
                user_token: token.clone(),
                monitor_token: admin.clone(),
            };
            let pre = prober.snapshot(&cloud, &target);
            cloud.call(&req);
            let post = prober.snapshot(&cloud, &target);
            let pre_view = EnvView::from_navigator(&pre, syms);
            let post_view = EnvView::from_navigator(&post, syms);

            cc.begin_pre(&mut scratch);
            prop_assert_eq!(
                cc.evaluate_pre(syms, &pre_view, &mut scratch).ok(),
                mc.evaluate_pre(&pre).ok(),
                "pre diverged on {:?}", &req
            );
            let compiled_reqs = cc
                .enabled_clause_indices(syms, &pre_view, &mut scratch)
                .map(|idxs| {
                    let mut out: Vec<String> = Vec::new();
                    for i in idxs {
                        for r in &mc.clauses[i].security_requirements {
                            if !out.contains(r) {
                                out.push(r.clone());
                            }
                        }
                    }
                    out
                });
            prop_assert_eq!(
                compiled_reqs.ok(),
                mc.exercised_requirements(&pre).ok(),
                "requirements diverged on {:?}", &req
            );
            cc.begin_post(&mut scratch);
            prop_assert_eq!(
                cc.evaluate_post(syms, &post_view, &pre_view, &mut scratch).ok(),
                mc.evaluate_post(&post, &pre).ok(),
                "post diverged on {:?}", &req
            );
            let compiled_states = cc
                .matching_state_indices_post(syms, &post_view, &pre_view, &mut scratch)
                .map(|idxs| {
                    idxs.iter()
                        .map(|&i| compiled.state_names()[i].clone())
                        .collect::<Vec<_>>()
                });
            prop_assert_eq!(
                compiled_states.ok(),
                contracts.states_matching(&post).ok(),
                "states diverged on {:?}", &req
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential oracle for the shadow replica, over the mutant
    /// catalog: on arbitrary volume and snapshot scripts (the
    /// `replay_matches_live` alphabet: seven operations, three users, an
    /// id offset, here with the snapshot operations also addressing the
    /// offset volume, so they reach a volume the script created),
    /// against a cloud carrying any one catalog mutant (or
    /// none), in either mode, a monitor binding the OCL environment from
    /// the model-derived replica (probing only to seed, after a refused
    /// or faulted pass, and on anti-entropy passes) and one probing the
    /// full snapshot around every request must produce identical
    /// verdicts, exercised requirement ids, and statuses at every step —
    /// and the replica side, with no out-of-band edits, must never
    /// report drift. The anti-entropy period is part of the generated
    /// input so scheduled reconciliation passes interleave with the
    /// script.
    ///
    /// Lost updates stay out by design: the replica predicts the
    /// post-state from the cloud's success answer, so a DELETE that
    /// answers 204 but keeps the volume (M24) diverges. Only `Full`'s
    /// post-probes see it; for `Replica` anti-entropy reports it as a
    /// `Drift` record.
    #[test]
    fn replica_matches_full_snapshots(
        script in prop::collection::vec((0usize..7, 0usize..3, 0u64..2), 1..12),
        mutant in 0usize..1024,
        anti_entropy_every in 0u64..5,
        observe in any::<bool>(),
    ) {
        use cm_audit::{AuditRecorder, MemoryRecorder};
        use cm_cloudsim::{FaultPlan, PrivateCloud};
        use cm_core::{cinder_monitor_extended, CloudMonitor, Mode, SnapshotPolicy, Verdict};
        use cm_model::HttpMethod;
        use cm_mutation::OperatorClass;
        use cm_rest::RestRequest;
        use std::sync::Arc;

        struct Fixture {
            monitor: CloudMonitor<PrivateCloud>,
            pid: u64,
            vid: u64,
            sid: u64,
            tokens: Vec<String>,
        }

        fn fixture(
            plan: FaultPlan,
            mode: Mode,
            policy: SnapshotPolicy,
            anti_entropy_every: u64,
            recorder: Arc<MemoryRecorder>,
        ) -> Fixture {
            let cloud = PrivateCloud::my_project().with_faults(plan);
            let pid = cloud.project_id();
            let vid = cloud
                .state_mut()
                .create_volume(pid, "seed", 1, false)
                .unwrap()
                .id;
            let sid = cloud.state_mut().create_snapshot(pid, vid, "s").unwrap().id;
            let tokens = ["alice", "bob", "carol"]
                .iter()
                .map(|u| cloud.issue_token(u, &format!("{u}-pw")).unwrap().token)
                .collect();
            let mut monitor = cinder_monitor_extended(cloud)
                .unwrap()
                .mode(mode)
                .snapshot_policy(policy)
                .anti_entropy_every(anti_entropy_every)
                .audit_recorder(recorder as Arc<dyn AuditRecorder>);
            monitor.authenticate("alice", "alice-pw").unwrap();
            Fixture { monitor, pid, vid, sid, tokens }
        }

        let catalog: Vec<_> = cm_mutation::full_catalog()
            .into_iter()
            .filter(|m| m.class != OperatorClass::LostUpdate)
            .collect();
        let mutant = catalog.get(mutant % (catalog.len() + 1));
        let plan = mutant.map_or_else(FaultPlan::none, |m| m.plan.clone());
        let mode = if observe { Mode::Observe } else { Mode::Enforce };
        let recorder = Arc::new(MemoryRecorder::new());
        let replica = fixture(
            plan.clone(),
            mode,
            SnapshotPolicy::Replica,
            anti_entropy_every,
            Arc::clone(&recorder),
        );
        let full = fixture(plan, mode, SnapshotPolicy::Full, 0, Arc::new(MemoryRecorder::new()));
        let Fixture { pid, vid, sid, ref tokens, .. } = replica;
        // Two reads of the fixture volume end every script, so a replica
        // that re-seeds on its first read serves the second.
        for (op, user, offset) in script.into_iter().chain([(1, 0, 0); 2]) {
            let (v, s) = (vid + offset, sid + offset);
            let volume = format!("/v3/{pid}/volumes");
            let body = |kind: &str| {
                Json::object(vec![(kind, Json::object(vec![("name", Json::Str("prop".into()))]))])
            };
            let request = match op {
                0 => RestRequest::new(HttpMethod::Post, volume).json(body("volume")),
                1 => RestRequest::new(HttpMethod::Get, format!("{volume}/{v}")),
                2 => RestRequest::new(HttpMethod::Put, format!("{volume}/{v}")).json(body("volume")),
                3 => RestRequest::new(HttpMethod::Delete, format!("{volume}/{v}")),
                4 => RestRequest::new(HttpMethod::Post, format!("{volume}/{v}/snapshots"))
                    .json(body("snapshot")),
                5 => RestRequest::new(HttpMethod::Get, format!("{volume}/{v}/snapshots/{s}")),
                _ => RestRequest::new(HttpMethod::Delete, format!("{volume}/{v}/snapshots/{s}")),
            };
            let what = format!("{:?} {} as user {user}", request.method, request.path);
            let a = replica.monitor.process(&request.clone().auth_token(&tokens[user]));
            let b = full.monitor.process(&request.auth_token(&full.tokens[user]));
            prop_assert_eq!(a.verdict, b.verdict, "verdict diverged on {}", what);
            prop_assert_eq!(&a.requirements, &b.requirements, "requirements diverged on {}", what);
            prop_assert_eq!(a.response.status, b.response.status);
        }
        // On the clean cloud the replica must have served requests, or
        // the property would hold without exercising it. A period of 1
        // reconciles on every request, so nothing is served there.
        if mutant.is_none() && anti_entropy_every != 1 {
            prop_assert!(replica.monitor.metrics().replica.get("hit") > 0, "replica never served");
        }
        let drifted: Vec<_> = recorder
            .records()
            .into_iter()
            .filter(|r| r.verdict == Verdict::Drift)
            .collect();
        prop_assert!(drifted.is_empty(), "phantom drift: {:?}", drifted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replay ≡ live over the mutant catalog: a monitor over a cloud
    /// carrying any one mutant of the full catalog (or none), under
    /// either binding and either mode, records an arbitrary volume and
    /// snapshot script; replaying the recorded trace against the same
    /// models must re-derive every verdict and requirement id.
    #[test]
    fn replay_matches_live(
        script in prop::collection::vec((0usize..7, 0usize..3, 0u64..2), 1..12),
        mutant in 0usize..1024,
        replica in any::<bool>(),
        anti_entropy_every in 0u64..4,
        observe in any::<bool>(),
    ) {
        use cm_audit::{AuditRecorder, MemoryRecorder};
        use cm_cloudsim::{FaultPlan, PrivateCloud};
        use cm_core::{cinder_monitor_extended, Mode, ReplayEngine, SnapshotPolicy};
        use cm_model::{cinder, HttpMethod};
        use cm_rest::RestRequest;
        use std::sync::Arc;

        let catalog = cm_mutation::full_catalog();
        let plan = catalog
            .get(mutant % (catalog.len() + 1))
            .map_or_else(FaultPlan::none, |m| m.plan.clone());
        let cloud = PrivateCloud::my_project().with_faults(plan);
        let pid = cloud.project_id();
        let vid = cloud
            .state_mut()
            .create_volume(pid, "seed", 1, false)
            .unwrap()
            .id;
        let sid = cloud.state_mut().create_snapshot(pid, vid, "s").unwrap().id;
        // A mutant may refuse a fixture login; the request then goes out
        // without a token, which the monitor judges all the same.
        let tokens: Vec<String> = ["alice", "bob", "carol"]
            .iter()
            .map(|u| {
                cloud
                    .issue_token(u, &format!("{u}-pw"))
                    .map(|t| t.token)
                    .unwrap_or_default()
            })
            .collect();
        let recorder = Arc::new(MemoryRecorder::new());
        let mut monitor = cinder_monitor_extended(cloud)
            .unwrap()
            .mode(if observe { Mode::Observe } else { Mode::Enforce })
            .snapshot_policy(if replica {
                SnapshotPolicy::Replica
            } else {
                SnapshotPolicy::Full
            })
            .anti_entropy_every(anti_entropy_every)
            .audit_recorder(Arc::clone(&recorder) as Arc<dyn AuditRecorder>);
        let _ = monitor.authenticate("alice", "alice-pw");

        for (op, user, offset) in script {
            let (v, s) = (vid + offset, sid + offset);
            let volume = format!("/v3/{pid}/volumes");
            let body = |kind: &str| {
                Json::object(vec![(kind, Json::object(vec![("name", Json::Str("prop".into()))]))])
            };
            let request = match op {
                0 => RestRequest::new(HttpMethod::Post, volume).json(body("volume")),
                1 => RestRequest::new(HttpMethod::Get, format!("{volume}/{v}")),
                2 => RestRequest::new(HttpMethod::Put, format!("{volume}/{v}")).json(body("volume")),
                3 => RestRequest::new(HttpMethod::Delete, format!("{volume}/{v}")),
                4 => RestRequest::new(HttpMethod::Post, format!("{volume}/{vid}/snapshots"))
                    .json(body("snapshot")),
                5 => RestRequest::new(HttpMethod::Get, format!("{volume}/{vid}/snapshots/{s}")),
                _ => RestRequest::new(HttpMethod::Delete, format!("{volume}/{vid}/snapshots/{s}")),
            };
            monitor.process(&request.auth_token(&tokens[user]));
        }

        let mut engine = ReplayEngine::from_behaviors(
            &[
                &cinder::extended_behavioral_model(),
                &cinder::snapshot_behavioral_model(),
            ],
            None,
        )
        .unwrap();
        let report = engine.replay(&recorder.records());
        prop_assert!(report.is_clean(), "{}", report.to_json().to_pretty_string());
    }
}

/// Arbitrary policy rules over a tiny fixed vocabulary (roles a–c,
/// groups g–h, user ids 1–2) so runtime behaviour can be checked by
/// exhaustive token enumeration.
fn arb_policy_rule() -> impl Strategy<Value = cm_rbac::Rule> {
    use cm_rbac::Rule;
    let leaf = prop_oneof![
        Just(Rule::Always),
        Just(Rule::Never),
        "[a-c]".prop_map(Rule::Role),
        "[gh]".prop_map(Rule::Group),
        (1u64..3).prop_map(Rule::UserId),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|r| Rule::Not(Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Rule::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Rule::Or(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The static policy analyzer agrees with the runtime checker, both
    /// ways: an action is flagged contradictory exactly when no possible
    /// token is granted at runtime (unless the deny is the explicit `!`),
    /// and a role is flagged unreachable exactly when no action admits a
    /// token holding just that role. In particular a diagnostics-clean
    /// policy never produces a runtime RBAC denial the analysis should
    /// have predicted.
    #[test]
    fn rbac_static_analysis_agrees_with_runtime(
        rules in prop::collection::vec(arb_policy_rule(), 1..4),
    ) {
        use cm_rbac::{analyze_policy, DiagnosticKind, PolicyFile, Rule, TokenInfo};

        let actions: Vec<String> =
            (0..rules.len()).map(|i| format!("res{i}:op")).collect();
        let mut policy = PolicyFile::new();
        for (action, rule) in actions.iter().zip(&rules) {
            policy.set(action.clone(), rule.clone());
        }
        let universe = ["a", "b", "c"];
        let analysis = analyze_policy(&policy, &universe);

        // Exhaustive token pool over the rule vocabulary: every subset of
        // roles x every subset of groups x {mentioned ids, one fresh id}.
        let mut pool = Vec::new();
        for rmask in 0u32..8 {
            for gmask in 0u32..4 {
                for id in [1u64, 2, 99] {
                    pool.push(TokenInfo {
                        token: "t".into(),
                        user_id: id,
                        user_name: "u".into(),
                        project_id: 1,
                        roles: ["a", "b", "c"]
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| rmask >> i & 1 == 1)
                            .map(|(_, r)| (*r).to_string())
                            .collect(),
                        groups: ["g", "h"]
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| gmask >> i & 1 == 1)
                            .map(|(_, g)| (*g).to_string())
                            .collect(),
                    });
                }
            }
        }

        // Contradiction <=> runtime denies every possible token (and the
        // deny was not spelled `!`, which is intentional).
        for (action, rule) in actions.iter().zip(&rules) {
            let grants_someone = pool.iter().any(|t| rule.check(t));
            let flagged = analysis
                .of_kind(DiagnosticKind::Contradiction)
                .iter()
                .any(|d| d.action.as_deref() == Some(action.as_str()));
            prop_assert_eq!(
                flagged,
                !grants_someone && *rule != Rule::Never,
                "action {}: rule {}", action, rule
            );
        }

        // UnreachableRole <=> no action grants a token holding exactly
        // that role.
        for role in universe {
            let reachable = rules.iter().any(|rule| {
                pool.iter()
                    .filter(|t| t.roles == [role.to_string()])
                    .any(|t| rule.check(t))
            });
            let flagged = analysis
                .of_kind(DiagnosticKind::UnreachableRole)
                .iter()
                .any(|d| d.subject == role);
            prop_assert_eq!(flagged, !reachable, "role {}", role);
        }

        // And therefore: clean analysis => every role reaches something.
        if analysis.is_clean() {
            for role in universe {
                let reachable = rules.iter().any(|rule| {
                    pool.iter()
                        .filter(|t| t.roles == [role.to_string()])
                        .any(|t| rule.check(t))
                });
                prop_assert!(reachable, "clean policy strands role {}", role);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XMI round-trips arbitrary well-formed behavioural models (states
    /// with generated invariants, transitions with guards/effects/SecReq
    /// annotations).
    #[test]
    fn xmi_behavioral_model_roundtrip(
        n_states in 1usize..5,
        edges in prop::collection::vec((0usize..5, 0usize..5, 0usize..4, any::<bool>()), 0..8),
    ) {
        use cm_model::{BehavioralModel, HttpMethod, State, TransitionBuilder, Trigger};
        let mut model = BehavioralModel::new("prop", "project", "s0");
        for i in 0..n_states {
            model.state(State::new(
                format!("s{i}"),
                parse_ocl(&format!("project.volumes->size() >= {i}")).unwrap(),
            ));
        }
        for (k, (src, dst, m, with_guard)) in edges.iter().enumerate() {
            let src = format!("s{}", src % n_states);
            let dst = format!("s{}", dst % n_states);
            let method = cm_model::HttpMethod::ALL[m % 4];
            let mut b = TransitionBuilder::new(
                format!("t{k}"),
                src,
                Trigger::new(method, "volume"),
                dst,
            )
            .security_requirement(format!("{}.{}", k % 3 + 1, k % 4 + 1));
            if *with_guard {
                b = b
                    .guard(parse_ocl("user.groups = 'admin'").unwrap())
                    .effect(
                        parse_ocl(
                            "project.volumes->size() <= pre(project.volumes->size()) + 1",
                        )
                        .unwrap(),
                    );
            }
            model.transition(b.build());
            let _ = HttpMethod::ALL; // silence unused in some configurations
        }
        let xml = cm_xmi::export(None, &[&model]);
        let doc = cm_xmi::import(&xml).expect("exported XMI imports");
        prop_assert_eq!(doc.behaviors, vec![model]);
    }
}
