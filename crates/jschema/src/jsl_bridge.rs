//! The Theorem 1 and Theorem 3 translations: JSON Schema ⇄ JSL.
//!
//! [`schema_to_jsl`] produces a [`RecursiveJsl`] whose base formula holds at
//! a document's root iff the schema validates it; `definitions`/`$ref`
//! become formula definitions/variables (Theorem 3). [`jsl_to_schema`] is
//! the reverse construction from the appendix. Both directions are
//! differentially tested against the independent validator.

use jsl::ast::{Jsl, NodeTest};
use jsl::recursive::RecursiveJsl;
use jsondata::{JStr, Json, JsonPointer};
use relex::Regex;

use crate::ir::{Schema, SchemaError, SchemaType};

/// Theorem 1 / Theorem 3, schema → logic.
pub fn schema_to_jsl(schema: &Schema) -> Result<RecursiveJsl, SchemaError> {
    let mut defs = Vec::new();
    for (name, s) in &schema.definitions {
        defs.push((name.clone(), body_to_jsl(s)?));
    }
    let base = body_to_jsl(schema)?;
    Ok(RecursiveJsl { defs, base })
}

fn ref_var(reference: &str) -> Result<String, SchemaError> {
    let ptr: JsonPointer = reference.parse().map_err(|_| SchemaError {
        at: reference.to_owned(),
        message: "unsupported $ref".into(),
    })?;
    let tokens = ptr.tokens();
    if tokens.len() == 2 && tokens[0] == "definitions" {
        Ok(tokens[1].clone())
    } else {
        Err(SchemaError {
            at: reference.to_owned(),
            message: "only #/definitions/<name> references are in the fragment".into(),
        })
    }
}

fn body_to_jsl(s: &Schema) -> Result<Jsl, SchemaError> {
    let mut parts: Vec<Jsl> = Vec::new();

    if let Some(r) = &s.reference {
        parts.push(Jsl::Var(ref_var(r)?));
    }
    if let Some(t) = s.ty {
        parts.push(Jsl::Test(match t {
            SchemaType::String => NodeTest::Str,
            SchemaType::Number => NodeTest::Int,
            SchemaType::Object => NodeTest::Obj,
            SchemaType::Array => NodeTest::Arr,
        }));
    }
    // Type-specific keywords are vacuous on other kinds: `¬Kind ∨ constraint`.
    if let Some((_, re)) = &s.pattern {
        parts.push(Jsl::or(vec![
            Jsl::not(Jsl::Test(NodeTest::Str)),
            Jsl::Test(NodeTest::Pattern(re.clone())),
        ]));
    }
    if let Some(m) = s.minimum {
        parts.push(Jsl::or(vec![
            Jsl::not(Jsl::Test(NodeTest::Int)),
            Jsl::Test(NodeTest::Min(m)),
        ]));
    }
    if let Some(m) = s.maximum {
        parts.push(Jsl::or(vec![
            Jsl::not(Jsl::Test(NodeTest::Int)),
            Jsl::Test(NodeTest::Max(m)),
        ]));
    }
    if let Some(m) = s.multiple_of {
        parts.push(Jsl::or(vec![
            Jsl::not(Jsl::Test(NodeTest::Int)),
            Jsl::Test(NodeTest::MultOf(m)),
        ]));
    }
    if let Some(m) = s.min_properties {
        parts.push(Jsl::or(vec![
            Jsl::not(Jsl::Test(NodeTest::Obj)),
            Jsl::Test(NodeTest::MinCh(m)),
        ]));
    }
    if let Some(m) = s.max_properties {
        parts.push(Jsl::or(vec![
            Jsl::not(Jsl::Test(NodeTest::Obj)),
            Jsl::Test(NodeTest::MaxCh(m)),
        ]));
    }
    for k in &s.required {
        parts.push(Jsl::or(vec![
            Jsl::not(Jsl::Test(NodeTest::Obj)),
            Jsl::diamond_key(k, Jsl::True),
        ]));
    }
    for (k, sub) in &s.properties {
        parts.push(Jsl::box_key(k, body_to_jsl(sub)?));
    }
    for (_, re, sub) in &s.pattern_properties {
        parts.push(Jsl::BoxKey(re.clone(), Box::new(body_to_jsl(sub)?)));
    }
    if let Some(ap) = &s.additional_properties {
        // □_C ψ where C is the complement of all covered keys.
        let mut covered = Regex::Empty.to_dfa();
        for (k, _) in &s.properties {
            covered = covered.union(&Regex::literal(k).to_dfa());
        }
        for (_, re, _) in &s.pattern_properties {
            covered = covered.union(&re.to_dfa());
        }
        let c = covered.complement().to_regex();
        parts.push(Jsl::BoxKey(c, Box::new(body_to_jsl(ap)?)));
    }
    for (i, sub) in s.items.iter().enumerate() {
        parts.push(Jsl::BoxRange(
            i as u64,
            Some(i as u64),
            Box::new(body_to_jsl(sub)?),
        ));
    }
    match (&s.additional_items, s.items.is_empty()) {
        (Some(ai), _) => {
            parts.push(Jsl::BoxRange(
                s.items.len() as u64,
                None,
                Box::new(body_to_jsl(ai)?),
            ));
        }
        (None, false) => {
            // The paper's reading: items alone bounds the length.
            parts.push(Jsl::BoxRange(
                s.items.len() as u64,
                None,
                Box::new(Jsl::falsity()),
            ));
        }
        (None, true) => {}
    }
    if s.unique_items {
        parts.push(Jsl::or(vec![
            Jsl::not(Jsl::Test(NodeTest::Arr)),
            Jsl::Test(NodeTest::Unique),
        ]));
    }
    for sub in &s.all_of {
        parts.push(body_to_jsl(sub)?);
    }
    if !s.any_of.is_empty() {
        parts.push(Jsl::or(
            s.any_of.iter().map(body_to_jsl).collect::<Result<_, _>>()?,
        ));
    }
    if let Some(sub) = &s.not {
        parts.push(Jsl::not(body_to_jsl(sub)?));
    }
    if !s.enumeration.is_empty() {
        parts.push(Jsl::or(
            s.enumeration
                .iter()
                .map(|d| Jsl::Test(NodeTest::EqDoc(d.clone())))
                .collect(),
        ));
    }
    Ok(Jsl::and(parts))
}

/// Theorem 1, logic → schema (appendix construction). Only non-recursive
/// formulas: `Var` is rejected.
pub fn jsl_to_schema(phi: &Jsl) -> Result<Json, SchemaError> {
    Ok(match phi {
        Jsl::True => Json::empty_object(),
        Jsl::Var(v) => {
            return Err(SchemaError {
                at: format!("${v}"),
                message: "recursive formulas translate through schema_to_jsl's inverse only at the document level".into(),
            })
        }
        Jsl::Not(p) => obj(vec![("not", jsl_to_schema(p)?)]),
        Jsl::And(ps) => obj(vec![(
            "allOf",
            Json::Array(ps.iter().map(jsl_to_schema).collect::<Result<_, _>>()?),
        )]),
        Jsl::Or(ps) => obj(vec![(
            "anyOf",
            Json::Array(ps.iter().map(jsl_to_schema).collect::<Result<_, _>>()?),
        )]),
        Jsl::Test(t) => test_to_schema(t),
        // □_e ψ ⇒ patternProperties.
        Jsl::BoxKey(e, p) => obj(vec![(
            "patternProperties",
            obj_s(vec![(e.to_string().into(), jsl_to_schema(p)?)]),
        )]),
        // ◇_e ψ ⇒ ¬ □_e ¬ψ.
        Jsl::DiamondKey(e, p) => {
            let inner = Jsl::BoxKey(e.clone(), Box::new(Jsl::not((**p).clone())));
            // ◇ additionally requires the node to be an object with a
            // matching child — ¬□¬ gives exactly that (vacuity flips).
            obj(vec![("not", jsl_to_schema(&inner)?)])
        }
        // □_{i:j} ψ ⇒ items padding.
        Jsl::BoxRange(i, j, p) => {
            let sub = jsl_to_schema(p)?;
            match j {
                Some(j) => {
                    let mut items: Vec<Json> = Vec::new();
                    for _ in 0..*i {
                        items.push(Json::empty_object());
                    }
                    for _ in *i..=*j {
                        items.push(sub.clone());
                    }
                    obj(vec![
                        ("items", Json::Array(items)),
                        ("additionalItems", Json::empty_object()),
                    ])
                }
                None => {
                    let mut items: Vec<Json> = Vec::new();
                    for _ in 0..*i {
                        items.push(Json::empty_object());
                    }
                    obj(vec![
                        ("items", Json::Array(items)),
                        ("additionalItems", sub),
                    ])
                }
            }
        }
        Jsl::DiamondRange(i, j, p) => {
            let inner = Jsl::BoxRange(*i, *j, Box::new(Jsl::not((**p).clone())));
            obj(vec![("not", jsl_to_schema(&inner)?)])
        }
    })
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
        .expect("distinct keys by construction")
}

fn obj_s(pairs: Vec<(JStr, Json)>) -> Json {
    Json::object(pairs).expect("distinct keys by construction")
}

fn test_to_schema(t: &NodeTest) -> Json {
    match t {
        NodeTest::Obj => obj(vec![("type", Json::str("object"))]),
        NodeTest::Arr => obj(vec![("type", Json::str("array"))]),
        NodeTest::Str => obj(vec![("type", Json::str("string"))]),
        NodeTest::Int => obj(vec![("type", Json::str("number"))]),
        NodeTest::Pattern(e) => obj(vec![
            ("type", Json::str("string")),
            ("pattern", Json::str(e.to_string())),
        ]),
        NodeTest::Min(i) => obj(vec![
            ("type", Json::str("number")),
            ("minimum", Json::Num(*i)),
        ]),
        NodeTest::Max(i) => obj(vec![
            ("type", Json::str("number")),
            ("maximum", Json::Num(*i)),
        ]),
        NodeTest::MultOf(i) => obj(vec![
            ("type", Json::str("number")),
            ("multipleOf", Json::Num((*i).max(1))),
        ]),
        NodeTest::Unique => obj(vec![
            ("type", Json::str("array")),
            ("uniqueItems", Json::str("true")),
        ]),
        NodeTest::EqDoc(d) => obj(vec![("enum", Json::Array(vec![d.clone()]))]),
        // MinCh(i): object with ≥ i properties, or array longer than i-1.
        NodeTest::MinCh(i) => {
            if *i == 0 {
                return Json::empty_object();
            }
            let arr_at_least = obj(vec![
                ("type", Json::str("array")),
                (
                    "not",
                    obj(vec![(
                        "items",
                        Json::Array(vec![Json::empty_object(); (*i - 1) as usize]),
                    )]),
                ),
            ]);
            obj(vec![(
                "anyOf",
                Json::Array(vec![
                    obj(vec![
                        ("type", Json::str("object")),
                        ("minProperties", Json::Num(*i)),
                    ]),
                    arr_at_least,
                ]),
            )])
        }
        // MaxCh(i): every kind with ≤ i children (leaves always qualify).
        NodeTest::MaxCh(i) => obj(vec![(
            "anyOf",
            Json::Array(vec![
                obj(vec![
                    ("type", Json::str("object")),
                    ("maxProperties", Json::Num(*i)),
                ]),
                obj(vec![
                    ("type", Json::str("array")),
                    (
                        "items",
                        Json::Array(vec![Json::empty_object(); *i as usize]),
                    ),
                ]),
                obj(vec![("type", Json::str("string"))]),
                obj(vec![("type", Json::str("number"))]),
            ]),
        )]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_valid;
    use jsondata::{parse, JsonTree};

    fn docs() -> Vec<Json> {
        [
            "0",
            "7",
            "12",
            r#""0101""#,
            r#""juan@ciws.cl""#,
            r#""x""#,
            "{}",
            "[]",
            r#"{"name": "x", "aba": 4, "other": 1}"#,
            r#"{"name": 3}"#,
            r#"{"aca": 3}"#,
            r#"{"other": 2}"#,
            r#"["a", "b", 1, 2]"#,
            r#"["a", "a"]"#,
            r#"[1, 2, 3]"#,
            r#"{"a": {"b": [1, "x"]}}"#,
            r#"[[], {}, 0, ""]"#,
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect()
    }

    fn assert_theorem1(schema_src: &str) {
        let schema = Schema::parse_str(schema_src).unwrap();
        let delta = schema_to_jsl(&schema).unwrap();
        assert_eq!(delta.well_formed(), Ok(()));
        for doc in docs() {
            let via_validator = is_valid(&schema, &doc).unwrap();
            let via_jsl = delta.check_root(&JsonTree::build(&doc));
            assert_eq!(via_validator, via_jsl, "schema {schema_src}, doc {doc}");
        }
    }

    #[test]
    fn theorem1_on_paper_schemas() {
        assert_theorem1(r#"{"type": "string", "pattern": "(0|1)+"}"#);
        assert_theorem1(r#"{"type": "number", "maximum": 12, "multipleOf": 4}"#);
        assert_theorem1(
            r#"{
            "type": "object",
            "properties": {"name": {"type": "string"}},
            "patternProperties": {"a(b|c)a": {"type": "number", "multipleOf": 2}},
            "additionalProperties": {"type": "number", "minimum": 1, "maximum": 1}
        }"#,
        );
        assert_theorem1(
            r#"{
            "type": "array",
            "items": [{"type": "string"}, {"type": "string"}],
            "additionalItems": {"type": "number"},
            "uniqueItems": "true"
        }"#,
        );
        assert_theorem1(r#"{"not": {"type": "number", "multipleOf": 2}}"#);
        assert_theorem1(r#"{"enum": [1, "a", {"k": [2]}]}"#);
        assert_theorem1(
            r#"{"anyOf": [{"type": "string"}, {"type": "number", "minimum": 5}],
                "allOf": [{"not": {"enum": [7]}}]}"#,
        );
        assert_theorem1(r#"{"required": ["name", "aba"], "minProperties": 2}"#);
        assert_theorem1(r#"{"type": "array", "items": [{"type": "number"}]}"#);
    }

    #[test]
    fn theorem3_recursive_schema() {
        // The paper's email example: ¬email via definitions.
        let src = r##"{
            "definitions": {"email": {"type": "string", "pattern": "[A-z]*@ciws\\.cl"}},
            "not": {"$ref": "#/definitions/email"}
        }"##;
        let schema = Schema::parse_str(src).unwrap();
        let delta = schema_to_jsl(&schema).unwrap();
        assert_eq!(delta.defs.len(), 1);
        for doc in docs() {
            let via_validator = is_valid(&schema, &doc).unwrap();
            let via_jsl = delta.check_root(&JsonTree::build(&doc));
            assert_eq!(via_validator, via_jsl, "doc {doc}");
        }
    }

    #[test]
    fn theorem3_recursive_list_schema() {
        // A genuinely recursive schema: a cons-list of numbers.
        // list = {} (nil) | {"head": number, "tail": list}
        let src = r##"{
            "definitions": {
                "list": {
                    "type": "object",
                    "anyOf": [
                        {"maxProperties": 0},
                        {"required": ["head", "tail"],
                         "properties": {
                             "head": {"type": "number"},
                             "tail": {"$ref": "#/definitions/list"}},
                         "additionalProperties": {"not": {}}}
                    ]
                }
            },
            "$ref": "#/definitions/list"
        }"##;
        let schema = Schema::parse_str(src).unwrap();
        let delta = schema_to_jsl(&schema).unwrap();
        assert_eq!(delta.well_formed(), Ok(()));
        let good = [
            "{}",
            r#"{"head": 1, "tail": {}}"#,
            r#"{"head": 1, "tail": {"head": 2, "tail": {}}}"#,
        ];
        let bad = [
            r#"{"head": 1}"#,
            r#"{"head": "x", "tail": {}}"#,
            r#"{"head": 1, "tail": {"head": 2}}"#,
            "[]",
            "3",
        ];
        for d in good {
            let doc = parse(d).unwrap();
            assert!(is_valid(&schema, &doc).unwrap(), "validator accepts {d}");
            assert!(delta.check_root(&JsonTree::build(&doc)), "jsl accepts {d}");
        }
        for d in bad {
            let doc = parse(d).unwrap();
            assert!(!is_valid(&schema, &doc).unwrap(), "validator rejects {d}");
            assert!(!delta.check_root(&JsonTree::build(&doc)), "jsl rejects {d}");
        }
    }

    #[test]
    fn jsl_to_schema_inverse_direction() {
        use jsl::ast::Jsl as J;
        use jsl::ast::NodeTest as T;
        let phis = vec![
            J::Test(T::Str),
            J::Test(T::Pattern(Regex::parse("(0|1)+").unwrap())),
            J::Test(T::Min(5)),
            J::Test(T::Unique),
            J::Test(T::MinCh(2)),
            J::Test(T::MaxCh(1)),
            J::Test(T::EqDoc(parse(r#"{"k": 1}"#).unwrap())),
            J::and(vec![
                J::Test(T::Obj),
                J::diamond_key("name", J::Test(T::Str)),
            ]),
            J::or(vec![J::Test(T::Int), J::box_any_key(J::Test(T::Int))]),
            J::not(J::diamond_key("x", J::True)),
            J::BoxRange(1, Some(2), Box::new(J::Test(T::Int))),
            J::DiamondRange(0, None, Box::new(J::Test(T::Str))),
            J::BoxRange(2, None, Box::new(J::Test(T::Int))),
        ];
        for phi in phis {
            let schema_doc = jsl_to_schema(&phi).unwrap();
            let schema = Schema::parse(&schema_doc)
                .unwrap_or_else(|e| panic!("generated schema invalid for {phi}: {e}"));
            for doc in docs() {
                let via_jsl = jsl::eval::check_root(&JsonTree::build(&doc), &phi);
                let via_validator = is_valid(&schema, &doc).unwrap();
                assert_eq!(via_jsl, via_validator, "formula {phi}, doc {doc}");
            }
        }
    }
}
