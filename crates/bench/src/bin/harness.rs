//! The experiment harness: regenerates the per-proposition measurement
//! tables recorded in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run -p bench --release --bin harness          # all experiments
//! cargo run -p bench --release --bin harness -- e1 e7 # a subset
//! ```

use bench::jsonout::Val;
use bench::*;
use jsondata::JsonTree;

/// S4 reports allocation profiles, so the harness installs the counting
/// allocator — its counters are disabled outside `memtrack::measure`
/// windows (one relaxed bool load per allocation), so no experiment's
/// *timed* region is instrumented, including S4's own wall clocks.
#[global_allocator]
static ALLOC: bench::memtrack::CountingAlloc = bench::memtrack::CountingAlloc;

/// Every experiment the harness knows, in run order. The dispatch loop
/// walks this table, so a mode exists exactly when it can be named on
/// the command line — no way to add one without making it reachable.
const MODES: &[(&str, fn())] = &[
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("t1", t1),
    ("s1", s1),
    ("s3", s3),
    ("s4", s4),
    ("s5", s5),
    ("s6", s6),
    ("s7", s7),
    ("s8", s8),
    ("s9", s9),
    ("s10", s10),
    ("s11", s11),
];

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A misspelled mode used to no-op silently — in CI that reads as "the
    // gate ran and passed" when nothing ran at all. Unknown names are a
    // hard error before any experiment starts.
    let unknown: Vec<&str> = args
        .iter()
        .filter(|a| !MODES.iter().any(|(id, _)| id == a))
        .map(String::as_str)
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = MODES.iter().map(|&(id, _)| id).collect();
        eprintln!(
            "harness: unknown mode(s): {}\nvalid modes: {}",
            unknown.join(", "),
            valid.join(", ")
        );
        return std::process::ExitCode::FAILURE;
    }
    for (id, run) in MODES {
        if args.is_empty() || args.iter().any(|a| a == id) {
            run();
        }
    }
    std::process::ExitCode::SUCCESS
}

fn header(id: &str, claim: &str) {
    println!("\n=== {id}: {claim} ===");
}

/// E1 — Prop 1: deterministic JNL evaluation O(|J|·|φ|).
fn e1() {
    header("E1", "Prop 1 — deterministic JNL evaluation, O(|J|·|phi|)");
    let phi = e1_formula();
    println!(
        "{}",
        row(&["|J|".into(), "linear ms".into(), "oracle ms".into()])
    );
    let mut pts = Vec::new();
    for exp in [10, 11, 12, 13, 14, 15, 16] {
        let n = 1usize << exp;
        let doc = scaling_doc(n, 1);
        let tree = JsonTree::build(&doc);
        let fast = time_ms(3, || jnl::eval::linear::eval(&tree, &phi).unwrap());
        let naive = if n <= 1 << 12 {
            format!("{:.2}", time_ms(1, || jnl::eval::naive::eval(&tree, &phi)))
        } else {
            "-".into()
        };
        pts.push((tree.node_count() as f64, fast));
        println!(
            "{}",
            row(&[
                format!("{}", tree.node_count()),
                format!("{fast:.2}"),
                naive
            ])
        );
    }
    println!("fitted |J|-exponent (claim: ~1): {:.2}", loglog_slope(&pts));

    println!("{}", row(&["|phi|".into(), "linear ms".into()]));
    let doc = scaling_doc(1 << 13, 1);
    let tree = JsonTree::build(&doc);
    let mut pts = Vec::new();
    for k in [8, 16, 32, 64, 128, 256] {
        let phi = e1_formula_sized(k);
        let ms = time_ms(3, || jnl::eval::linear::eval(&tree, &phi).unwrap());
        pts.push((phi.size() as f64, ms));
        println!("{}", row(&[format!("{}", phi.size()), format!("{ms:.2}")]));
    }
    println!(
        "fitted |phi|-exponent (claim: ~1): {:.2}",
        loglog_slope(&pts)
    );
}

/// E2 — Prop 2: deterministic JNL satisfiability (NP), 3SAT reduction.
fn e2() {
    header(
        "E2",
        "Prop 2 — deterministic JNL satisfiability via 3SAT (NP-complete)",
    );
    use jnl::reduce::threesat::ThreeSat;
    println!(
        "{}",
        row(&[
            "vars".into(),
            "clauses".into(),
            "result".into(),
            "ms".into(),
            "verified".into()
        ])
    );
    for (n, seed) in [(5usize, 1u64), (8, 2), (10, 3), (12, 4), (14, 5)] {
        let m = (n as f64 * 4.2) as usize;
        let inst = ThreeSat::random(n, m, seed);
        let phi = inst.to_jnl();
        let t0 = std::time::Instant::now();
        let res = jnl::sat::det::sat_deterministic_with_budget(&phi, 2_000_000);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (label, verified) = match &res {
            jnl::SatResult::Sat(w) => {
                let a = inst.decode_witness(w);
                ("SAT", inst.eval(&a).to_string())
            }
            jnl::SatResult::Unsat => ("UNSAT", "n/a".into()),
            jnl::SatResult::Unknown(_) => ("UNKNOWN", "n/a".into()),
        };
        println!(
            "{}",
            row(&[
                n.to_string(),
                m.to_string(),
                label.into(),
                format!("{ms:.1}"),
                verified
            ])
        );
    }
}

/// E3 — Prop 3: recursive/non-deterministic evaluation, linear without
/// EQ(α,β), cubic with it.
fn e3() {
    header(
        "E3",
        "Prop 3 — recursive eval: linear eq-free (PDL) vs cubic with EQ(a,b)",
    );
    let eqfree = e3_formula_eqfree();
    let eqpair = e3_formula_eqpair();
    println!(
        "{}",
        row(&["|J|".into(), "pdl ms".into(), "cubic ms".into()])
    );
    let mut pdl_pts = Vec::new();
    let mut cubic_pts = Vec::new();
    for exp in [8, 9, 10, 11, 12] {
        let n = 1usize << exp;
        let doc = scaling_doc(n, 3);
        let tree = JsonTree::build(&doc);
        let p = time_ms(3, || jnl::eval::pdl::eval(&tree, &eqfree).unwrap());
        let c = time_ms(1, || jnl::eval::cubic::eval(&tree, &eqpair));
        pdl_pts.push((tree.node_count() as f64, p));
        cubic_pts.push((tree.node_count() as f64, c));
        println!(
            "{}",
            row(&[
                tree.node_count().to_string(),
                format!("{p:.2}"),
                format!("{c:.2}")
            ])
        );
    }
    println!(
        "fitted exponents — pdl (claim ~1): {:.2}, cubic (claim >1, ≤3 worst-case): {:.2}",
        loglog_slope(&pdl_pts),
        loglog_slope(&cubic_pts)
    );
}

/// E4 — Prop 4: the undecidability reduction exercised on a halting machine.
fn e4() {
    header(
        "E4",
        "Prop 4 — Minsky-machine reduction (undecidability witness check)",
    );
    use jnl::reduce::minsky::{Instr, MinskyMachine};
    let m = MinskyMachine {
        program: vec![
            Instr::Inc(0, 1),
            Instr::Inc(0, 2),
            Instr::Inc(1, 3),
            Instr::Dec(0, 4),
            Instr::Dec(0, 5),
            Instr::Dec(1, 6),
            Instr::IfZero(0, 7, 7),
            Instr::Halt,
        ],
    };
    let trace = m.run(1000).expect("machine halts");
    let witness = MinskyMachine::encode_trace(&trace);
    let tree = JsonTree::build(&witness);
    let phi = m.to_jnl();
    let accepted = jnl::eval::cubic::eval(&tree, &phi)[0];
    println!(
        "halting run length {} -> formula accepts witness: {accepted}",
        trace.len()
    );
    let mut bad = trace.clone();
    bad[1].counters[0] += 1;
    let corrupted = MinskyMachine::encode_trace(&bad);
    let t2 = JsonTree::build(&corrupted);
    println!(
        "corrupted run rejected: {}",
        !jnl::eval::cubic::eval(&t2, &phi)[0]
    );
}

/// E5 — Prop 5: satisfiability of non-deterministic (eq-pair-free) JNL via
/// the Theorem 2 route.
fn e5() {
    header(
        "E5",
        "Prop 5 — nondeterministic JNL satisfiability through JSL (PSPACE route)",
    );
    println!("{}", row(&["formula".into(), "result".into(), "ms".into()]));
    let cases: Vec<(&str, jnl::Unary)> = vec![
        (
            "[X_{a(b|c)a}]T",
            jnl::parse_unary(r#"[@/a(b|c)a/]"#).unwrap(),
        ),
        (
            "box-empty + diamond",
            jnl::parse_unary(r#"![@/.*/ ; <true>] & [@/x+/]"#).unwrap(),
        ),
        (
            "regex clash",
            jnl::parse_unary(r#"[@/a+/ ; <[@0]>] & ![@/a/ ; <[@0]>] & ![@/aa+/ ; <true>]"#)
                .unwrap(),
        ),
        (
            "range demands",
            jnl::parse_unary(r#"[@[3:5]] & ![@[0:*] ; <[@"k"]>]"#).unwrap(),
        ),
    ];
    for (label, phi) in cases {
        let t0 = std::time::Instant::now();
        let result = match jsl::jnl_to_jsl_cps(&phi) {
            Ok(psi) => match jsl::sat_jsl(&psi) {
                jsl::JslSatResult::Sat(w) => format!("SAT {w}"),
                jsl::JslSatResult::Unsat => "UNSAT".into(),
                jsl::JslSatResult::Unknown(_) => "UNKNOWN".into(),
            },
            Err(e) => format!("untranslatable: {e}"),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{}", row(&[label.into(), result, format!("{ms:.1}")]));
    }
}

/// E6 — Thm 2: translation sizes on the blowup family.
fn e6() {
    header(
        "E6",
        "Thm 2 — JNL->JSL translation size on the <[X_a]|[X_b]> chain family",
    );
    println!(
        "{}",
        row(&[
            "k".into(),
            "paper-lit".into(),
            "path-expand".into(),
            "cps".into()
        ])
    );
    for k in 1..=12 {
        let phi = jsl::translate::blowup_family(k);
        let paper = jsl::jnl_to_jsl_paper(&phi).unwrap().size();
        let paths = jsl::jnl_to_jsl_paths(&phi).unwrap().size();
        let cps = jsl::jnl_to_jsl_cps(&phi).unwrap().size();
        println!(
            "{}",
            row(&[
                k.to_string(),
                paper.to_string(),
                paths.to_string(),
                cps.to_string()
            ])
        );
    }
    println!("shape check: path-expansion doubles per step (exponential, the paper's remark);");
    println!(
        "the literal appendix construction and the CPS variant stay linear (see EXPERIMENTS.md)."
    );
}

/// E7 — Prop 6: JSL evaluation; Unique ablation.
fn e7() {
    header(
        "E7",
        "Prop 6 — JSL evaluation: Unique naive-pairwise (quadratic) vs canonical",
    );
    use jsl::{EvalOptions, UniqueStrategy};
    let phi = e7_formula();
    println!(
        "{}",
        row(&["array len".into(), "naive ms".into(), "canonical ms".into()])
    );
    let mut naive_pts = Vec::new();
    let mut canon_pts = Vec::new();
    for exp in [8, 9, 10, 11, 12, 13] {
        let n = 1usize << exp;
        // All-distinct array: the worst case for the pairwise scan (no
        // early duplicate short-circuits it).
        let doc = jsondata::gen::wide_array(n);
        let _ = e7_doc;
        let tree = JsonTree::build(&doc);
        let naive = time_ms(1, || {
            jsl::eval::evaluate_with(
                &tree,
                &phi,
                EvalOptions {
                    unique: UniqueStrategy::NaivePairwise,
                    ..Default::default()
                },
            )
        });
        let canon = time_ms(3, || {
            jsl::eval::evaluate_with(
                &tree,
                &phi,
                EvalOptions {
                    unique: UniqueStrategy::Canonical,
                    ..Default::default()
                },
            )
        });
        naive_pts.push((n as f64, naive));
        canon_pts.push((n as f64, canon));
        println!(
            "{}",
            row(&[n.to_string(), format!("{naive:.2}"), format!("{canon:.2}")])
        );
    }
    println!(
        "fitted exponents — naive (claim ~2): {:.2}, canonical (claim ~1): {:.2}",
        loglog_slope(&naive_pts),
        loglog_slope(&canon_pts)
    );
}

/// E8 — Prop 7: JSL satisfiability on the QBF reduction.
fn e8() {
    header(
        "E8",
        "Prop 7 — JSL satisfiability on QBF instances (PSPACE-hard family)",
    );
    use jsl::reduce::qbf::{Qbf, Quant};
    use rand::{Rng, SeedableRng};
    println!(
        "{}",
        row(&[
            "vars".into(),
            "oracle".into(),
            "via JSL".into(),
            "ms".into()
        ])
    );
    for n in 1..=5usize {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let prefix: Vec<Quant> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Quant::Exists
                } else {
                    Quant::Forall
                }
            })
            .collect();
        let clauses: Vec<Vec<(usize, bool)>> = (0..n + 1)
            .map(|_| {
                (0..2)
                    .map(|_| (rng.gen_range(0..n), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect();
        let q = Qbf { prefix, clauses };
        let oracle = q.brute_force();
        let t0 = std::time::Instant::now();
        let got = q.solve_via_jsl();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{}",
            row(&[
                n.to_string(),
                oracle.to_string(),
                got.map(|b| b.to_string())
                    .unwrap_or_else(|| "unknown".into()),
                format!("{ms:.1}"),
            ])
        );
    }
}

/// E9 — Prop 9: recursive JSL evaluation, PTIME vs the unfold baseline.
fn e9() {
    header(
        "E9",
        "Prop 9 — recursive JSL: PTIME bottom-up vs exponential unfold",
    );
    let delta = e9_even_depth();
    println!(
        "{}",
        row(&[
            "height".into(),
            "|J|".into(),
            "ptime ms".into(),
            "unfold |phi|".into(),
            "unfold ms".into()
        ])
    );
    for h in [2usize, 4, 6, 8, 10] {
        let doc = e9_doc(h, 2);
        let tree = JsonTree::build(&doc);
        let fast = time_ms(3, || delta.evaluate(&tree));
        let (usize_str, unfold_ms) = match delta.unfold(tree.height(), 2_000_000) {
            Some(unfolded) => {
                let ms = time_ms(1, || jsl::eval::evaluate(&tree, &unfolded));
                (unfolded.size().to_string(), format!("{ms:.2}"))
            }
            None => ("> 2e6 (budget)".into(), "-".into()),
        };
        println!(
            "{}",
            row(&[
                h.to_string(),
                tree.node_count().to_string(),
                format!("{fast:.2}"),
                usize_str,
                unfold_ms,
            ])
        );
    }
    // Circuit encodings: definitions count sweep.
    use jsl::reduce::circuit::{Circuit, Gate};
    println!("{}", row(&["gates".into(), "ptime ms".into()]));
    for depth in [64usize, 128, 256, 512] {
        let mut gates = vec![Gate::Input(0)];
        for i in 0..depth {
            gates.push(Gate::Not(i));
        }
        let c = Circuit { n_inputs: 1, gates };
        let delta = c.to_recursive_jsl();
        let doc = c.input_doc(&[true]);
        let tree = JsonTree::build(&doc);
        let ms = time_ms(3, || delta.evaluate(&tree));
        println!("{}", row(&[depth.to_string(), format!("{ms:.2}")]));
    }
}

/// E10 — Prop 10: J-automata emptiness.
fn e10() {
    header(
        "E10",
        "Prop 10 — J-automata: membership, complement, emptiness",
    );
    let delta = e9_even_depth();
    let auto = jautomata::JAutomaton::from_recursive_jsl(&delta).unwrap();
    println!("automaton states: {}", auto.rules.len());
    let doc = e9_doc(6, 2);
    let tree = JsonTree::build(&doc);
    let ms = time_ms(3, || auto.accepts(&tree).unwrap());
    println!("membership on |J|={}: {ms:.2} ms", tree.node_count());
    let comp = auto.complement();
    let ms = time_ms(3, || comp.accepts(&tree).unwrap());
    println!("complement membership     : {ms:.2} ms");
    let t0 = std::time::Instant::now();
    let e = auto.is_empty(jsl::SatConfig::default());
    println!(
        "emptiness (with witness)  : {:?} in {:.1} ms",
        match &e {
            jautomata::Emptiness::NonEmpty(w) => format!("NonEmpty({w})"),
            other => format!("{other:?}"),
        },
        t0.elapsed().as_secs_f64() * 1e3
    );
    let t0 = std::time::Instant::now();
    let never = auto.intersect(&auto.complement());
    let e = never.is_empty(jsl::SatConfig {
        max_height: Some(5),
        ..Default::default()
    });
    println!(
        "emptiness of L ∩ ¬L       : {:?} in {:.1} ms",
        match e {
            jautomata::Emptiness::NonEmpty(_) => "BUG".to_owned(),
            other => format!("{other:?}"),
        },
        t0.elapsed().as_secs_f64() * 1e3
    );
}

/// E11 — Thm 1: schema ⇔ JSL differential.
fn e11() {
    header("E11", "Thm 1 — Schema <-> JSL differential agreement");
    let mut checked = 0usize;
    let mut agreed = 0usize;
    for seed in 0..400u64 {
        let examples: Vec<jsondata::Json> = (0..3)
            .map(|i| jsondata::gen::random_json(&jsondata::gen::GenConfig::sized(seed * 3 + i, 60)))
            .collect();
        let schema = jschema::infer(&examples);
        let delta = jschema::schema_to_jsl(&schema).unwrap();
        for probe_seed in 0..5u64 {
            let probe = jsondata::gen::random_json(&jsondata::gen::GenConfig::sized(
                9_000 + seed * 5 + probe_seed,
                40,
            ));
            let via_schema = jschema::is_valid(&schema, &probe).unwrap();
            let via_jsl = delta.check_root(&JsonTree::build(&probe));
            checked += 1;
            if via_schema == via_jsl {
                agreed += 1;
            }
        }
    }
    println!(
        "document/schema pairs checked: {checked}; agreement: {agreed} ({:.1}%)",
        100.0 * agreed as f64 / checked as f64
    );
}

/// E12 — Thm 3: recursive schema ⇔ recursive JSL differential.
fn e12() {
    header(
        "E12",
        "Thm 3 — recursive Schema <-> recursive JSL (cons-list family)",
    );
    let schema = jschema::Schema::parse_str(
        r##"{
        "definitions": {
            "list": {"type": "object", "anyOf": [
                {"maxProperties": 0},
                {"required": ["head", "tail"],
                 "properties": {"head": {"type": "number"},
                                 "tail": {"$ref": "#/definitions/list"}}}
            ]}
        },
        "$ref": "#/definitions/list"
    }"##,
    )
    .unwrap();
    let delta = jschema::schema_to_jsl(&schema).unwrap();
    let mut agreed = 0;
    let mut checked = 0;
    // Deep lists plus random probes.
    let mut list = jsondata::Json::empty_object();
    for i in 0..40u64 {
        checked += 1;
        let v = jschema::is_valid(&schema, &list).unwrap();
        let j = delta.check_root(&JsonTree::build(&list));
        if v == j {
            agreed += 1;
        }
        list = jsondata::Json::object(vec![
            ("head".into(), jsondata::Json::Num(i)),
            ("tail".into(), list),
        ])
        .unwrap();
    }
    for seed in 0..200u64 {
        let probe = jsondata::gen::random_json(&jsondata::gen::GenConfig::sized(seed, 30));
        checked += 1;
        let v = jschema::is_valid(&schema, &probe).unwrap();
        let j = delta.check_root(&JsonTree::build(&probe));
        if v == j {
            agreed += 1;
        }
    }
    println!(
        "documents checked: {checked}; agreement: {agreed} ({:.1}%)",
        100.0 * agreed as f64 / checked as f64
    );
}

/// T1 — the Table 1 keyword coverage matrix.
fn t1() {
    header(
        "T1",
        "Table 1 — keyword coverage (validator + Thm 1 translation)",
    );
    let cases: Vec<(&str, &str, &str, bool)> = vec![
        ("type(string)", r#"{"type": "string"}"#, r#""x""#, true),
        (
            "pattern",
            r#"{"type": "string", "pattern": "(0|1)+"}"#,
            r#""01""#,
            true,
        ),
        ("type(number)", r#"{"type": "number"}"#, "5", true),
        (
            "multipleOf",
            r#"{"type": "number", "multipleOf": 4}"#,
            "12",
            true,
        ),
        ("minimum", r#"{"type": "number", "minimum": 3}"#, "2", false),
        ("maximum", r#"{"type": "number", "maximum": 3}"#, "4", false),
        ("type(object)", r#"{"type": "object"}"#, "{}", true),
        (
            "required",
            r#"{"type": "object", "required": ["k"]}"#,
            "{}",
            false,
        ),
        (
            "minProperties",
            r#"{"type": "object", "minProperties": 1}"#,
            "{}",
            false,
        ),
        (
            "maxProperties",
            r#"{"type": "object", "maxProperties": 0}"#,
            "{}",
            true,
        ),
        (
            "properties",
            r#"{"type": "object", "properties": {"k": {"type": "number"}}}"#,
            r#"{"k": "s"}"#,
            false,
        ),
        (
            "patternProperties",
            r#"{"type": "object", "patternProperties": {"a(b|c)a": {"type": "number"}}}"#,
            r#"{"aba": 1}"#,
            true,
        ),
        (
            "additionalProperties",
            r#"{"type": "object", "properties": {"k": {}}, "additionalProperties": {"type": "number"}}"#,
            r#"{"k": 1, "z": "s"}"#,
            false,
        ),
        (
            "items",
            r#"{"type": "array", "items": [{"type": "number"}]}"#,
            "[1]",
            true,
        ),
        (
            "additionalItems",
            r#"{"type": "array", "items": [{}], "additionalItems": {"type": "number"}}"#,
            r#"[1, "s"]"#,
            false,
        ),
        (
            "uniqueItems",
            r#"{"type": "array", "uniqueItems": "true"}"#,
            "[1, 1]",
            false,
        ),
        (
            "anyOf",
            r#"{"anyOf": [{"type": "number"}, {"type": "string"}]}"#,
            "{}",
            false,
        ),
        (
            "allOf",
            r#"{"allOf": [{"type": "number"}, {"minimum": 2}]}"#,
            "3",
            true,
        ),
        (
            "not",
            r#"{"not": {"type": "number", "multipleOf": 2}}"#,
            "3",
            true,
        ),
        ("enum", r#"{"enum": [1, "a"]}"#, r#""a""#, true),
    ];
    println!(
        "{}",
        row(&[
            "keyword".into(),
            "validator".into(),
            "Thm1-JSL".into(),
            "agree".into()
        ])
    );
    let mut all_agree = true;
    for (kw, schema_src, doc_src, expected) in cases {
        let schema = jschema::Schema::parse_str(schema_src).unwrap();
        let doc = jsondata::parse(doc_src).unwrap();
        let v = jschema::is_valid(&schema, &doc).unwrap();
        let delta = jschema::schema_to_jsl(&schema).unwrap();
        let j = delta.check_root(&JsonTree::build(&doc));
        let agree = v == j && v == expected;
        all_agree &= agree;
        println!(
            "{}",
            row(&[kw.into(), v.to_string(), j.to_string(), agree.to_string()])
        );
    }
    println!("all Table 1 keywords agree: {all_agree}");
}

/// S1 — the §4.1 systems survey: dialects vs their JNL compilations.
fn s1() {
    header(
        "S1",
        "§4.1 — MongoDB find & JSONPath agree with their JNL compilations",
    );
    let people = jsondata::gen::person_records(20_000, 7);
    let coll = mongofind::Collection::from_array(&people).unwrap();
    let filter =
        mongofind::Filter::parse_str(r#"{"name.first": {"$eq": "Sue"}, "hobbies": {"$size": 2}}"#)
            .unwrap();
    let t0 = std::time::Instant::now();
    let direct = coll.find(&filter).len();
    let direct_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = std::time::Instant::now();
    let via_jnl = jnl_docs(&coll, &filter).len();
    let jnl_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("mongo find over 20k docs: direct {direct} hits ({direct_ms:.1} ms), JNL {via_jnl} hits ({jnl_ms:.1} ms), agree: {}", direct == via_jnl);

    let store = scaling_doc(5_000, 11);
    let tree = JsonTree::build(&store);
    for path in ["$..a", "$..items[*]", "$.*"] {
        let p = jsonpath::JsonPath::parse(path).unwrap();
        let mut a = p.select_nodes(&tree);
        let mut b = p.select_nodes_via_jnl(&tree);
        a.sort();
        b.sort();
        println!("jsonpath {path}: {} hits, JNL agrees: {}", a.len(), a == b);
    }
}

/// S3 — the DFA-bitset experiment: regex edge matching through precomputed
/// symbol bitsets vs the lazy per-symbol memo tier vs the frozen
/// per-node-visit string baseline, on regex-heavy E1/E7-style workloads
/// over high-distinct-key trees. Asserts exact three-way agreement (the
/// deterministic CI gate) and emits `BENCH_dfa_bitset.json`.
fn s3() {
    header(
        "S3",
        "DFA symbol bitsets — bitset vs lazy memo vs per-node string baseline",
    );
    use relex::EdgeStrategy;

    // --- E1-style: JNL regex navigation, 4096 objects × 8 keys, all 32k
    // keys distinct ---
    let (n_objects, keys_each) = (4096usize, 8usize);
    let n_keys = n_objects * keys_each;
    let doc = s3_jnl_doc(n_objects, keys_each);
    let tree = JsonTree::build(&doc);
    let (e, phi) = s3_jnl_workload();
    let jnl_strings = bench::baseline::exists_regex_edge_strings(&tree, &e);
    let jnl_memo = jnl::eval::pdl::eval_with(&tree, &phi, EdgeStrategy::LazyMemo).unwrap();
    let jnl_bits = jnl::eval::pdl::eval_with(&tree, &phi, EdgeStrategy::DfaBitset).unwrap();
    assert_eq!(jnl_strings, jnl_memo, "E1 memo tier disagrees with strings");
    assert_eq!(jnl_memo, jnl_bits, "E1 bitset tier disagrees with memo");
    let e1_str = time_ms(5, || bench::baseline::exists_regex_edge_strings(&tree, &e));
    let e1_memo = time_ms(5, || {
        jnl::eval::pdl::eval_with(&tree, &phi, EdgeStrategy::LazyMemo).unwrap()
    });
    let e1_bits = time_ms(5, || {
        jnl::eval::pdl::eval_with(&tree, &phi, EdgeStrategy::DfaBitset).unwrap()
    });

    // --- E7-style: JSL patternProperties over 32k keys + 32k string atoms ---
    let n_props = 32_768usize;
    let jsl_doc = s3_doc(n_props);
    let jsl_tree = JsonTree::build(&jsl_doc);
    let psi = s3_jsl_formula();
    use jsl::EvalOptions;
    let memo_opts = EvalOptions {
        edge: EdgeStrategy::LazyMemo,
        ..Default::default()
    };
    let bits_opts = EvalOptions {
        edge: EdgeStrategy::DfaBitset,
        ..Default::default()
    };
    let jsl_strings = bench::baseline::jsl_eval_strings(&jsl_tree, &psi);
    let jsl_memo = jsl::eval::evaluate_with(&jsl_tree, &psi, memo_opts);
    let jsl_bits = jsl::eval::evaluate_with(&jsl_tree, &psi, bits_opts);
    assert_eq!(jsl_strings, jsl_memo, "E7 memo tier disagrees with strings");
    assert_eq!(jsl_memo, jsl_bits, "E7 bitset tier disagrees with memo");
    let e7_str = time_ms(5, || bench::baseline::jsl_eval_strings(&jsl_tree, &psi));
    let e7_memo = time_ms(5, || jsl::eval::evaluate_with(&jsl_tree, &psi, memo_opts));
    let e7_bits = time_ms(5, || jsl::eval::evaluate_with(&jsl_tree, &psi, bits_opts));

    println!(
        "{}",
        row(&[
            "eval".into(),
            "strings ms".into(),
            "memo ms".into(),
            "bitset ms".into(),
            "bitset/memo".into(),
        ])
    );
    println!(
        "{}",
        row(&[
            format!("E1 keys={n_keys}"),
            format!("{e1_str:.2}"),
            format!("{e1_memo:.2}"),
            format!("{e1_bits:.2}"),
            format!("{:.2}x", e1_memo / e1_bits),
        ])
    );
    println!(
        "{}",
        row(&[
            format!("E7 props={n_props}"),
            format!("{e7_str:.2}"),
            format!("{e7_memo:.2}"),
            format!("{e7_bits:.2}"),
            format!("{:.2}x", e7_memo / e7_bits),
        ])
    );

    let json = format!(
        "{{\n  \"experiment\": \"s3_dfa_bitset\",\n  \"units\": \"ms_per_eval\",\n  \"agreement\": \"asserted: strings == memo == bitset on both workloads\",\n  \"e1_jnl_regex_nav\": {{\"distinct_keys\": {n_keys}, \"strings\": {e1_str:.3}, \"memo\": {e1_memo:.3}, \"bitset\": {e1_bits:.3}, \"bitset_vs_memo\": {:.3}, \"bitset_vs_strings\": {:.3}}},\n  \"e7_jsl_pattern_props\": {{\"properties\": {n_props}, \"strings\": {e7_str:.3}, \"memo\": {e7_memo:.3}, \"bitset\": {e7_bits:.3}, \"bitset_vs_memo\": {:.3}, \"bitset_vs_strings\": {:.3}}}\n}}\n",
        e1_memo / e1_bits,
        e1_str / e1_bits,
        e7_memo / e7_bits,
        e7_str / e7_bits,
    );
    std::fs::write("BENCH_dfa_bitset.json", &json).expect("write BENCH_dfa_bitset.json");
    println!("wrote BENCH_dfa_bitset.json");
}

/// S4 — the parser→tree fusion experiment: the fused `parse_to_tree`
/// single pass vs the two-pass `parse` + `JsonTree::build` pipeline, on the
/// large-document workloads. Two deterministic gates run inside the
/// harness: the fused tree must be node-for-node identical to the two-pass
/// tree (arena layout + symbol table), and the fused path must not be
/// slower. Wall times plus allocation profiles (calls, peak live bytes —
/// the "intermediate `Json`" cost fusion removes) land in
/// `BENCH_parse_fusion.json`.
fn s4() {
    header(
        "S4",
        "Parser→tree fusion — fused parse_to_tree vs parse + JsonTree::build",
    );
    println!(
        "{}",
        row(&[
            "workload".into(),
            "MB".into(),
            "nodes".into(),
            "two-pass ms".into(),
            "fused ms".into(),
            "speedup".into(),
            "allocs 2p/fused".into(),
            "peak MB 2p/fused".into(),
        ])
    );
    let mut entries = Vec::new();
    for (label, src) in s4_workloads() {
        // Deterministic gate 1: node-for-node identity (layout + symbols
        // + canon signatures).
        let fused = jsondata::parse_to_tree(&src).expect("workload parses");
        let doc = jsondata::parse(&src).expect("workload parses");
        let two_pass = JsonTree::build(&doc);
        assert!(
            fused.identical(&two_pass),
            "S4 gate: fused tree differs from two-pass on {label}"
        );
        assert_eq!(
            jsondata::CanonTable::build(&fused).classes(),
            jsondata::CanonTable::build(&two_pass).classes(),
            "S4 gate: canon classes differ on {label}"
        );
        let nodes = fused.node_count();
        drop((fused, two_pass, doc));

        let two_ms = time_ms(9, || {
            let doc = jsondata::parse(&src).expect("parses");
            JsonTree::build(&doc)
        });
        let fused_ms = time_ms(9, || jsondata::parse_to_tree(&src).expect("parses"));
        let (t, fused_prof) = memtrack::measure(|| jsondata::parse_to_tree(&src).unwrap());
        drop(t);
        let (t, two_prof) = memtrack::measure(|| {
            let doc = jsondata::parse(&src).unwrap();
            JsonTree::build(&doc)
        });
        drop(t);

        // Deterministic gate 2: the fused path must not be slower than the
        // two-pass pipeline it replaces (it does strictly less work; the
        // observed margin is recorded in the JSON for trend tracking).
        assert!(
            fused_ms <= two_ms,
            "S4 gate: fused path slower than two-pass on {label}: {fused_ms:.2} ms vs {two_ms:.2} ms"
        );

        let mb = src.len() as f64 / (1024.0 * 1024.0);
        println!(
            "{}",
            row(&[
                label.into(),
                format!("{mb:.1}"),
                nodes.to_string(),
                format!("{two_ms:.2}"),
                format!("{fused_ms:.2}"),
                format!("{:.2}x", two_ms / fused_ms),
                format!("{}/{}", two_prof.allocs, fused_prof.allocs),
                format!(
                    "{:.1}/{:.1}",
                    two_prof.peak_bytes as f64 / (1024.0 * 1024.0),
                    fused_prof.peak_bytes as f64 / (1024.0 * 1024.0)
                ),
            ])
        );
        entries.push(format!(
            "    {{\"workload\": \"{label}\", \"bytes\": {}, \"nodes\": {nodes}, \"two_pass_ms\": {two_ms:.3}, \"fused_ms\": {fused_ms:.3}, \"speedup\": {:.3}, \"two_pass_allocs\": {}, \"fused_allocs\": {}, \"two_pass_peak_bytes\": {}, \"fused_peak_bytes\": {}}}",
            src.len(),
            two_ms / fused_ms,
            two_prof.allocs,
            fused_prof.allocs,
            two_prof.peak_bytes,
            fused_prof.peak_bytes,
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"s4_parse_fusion\",\n  \"units\": {{\"time\": \"ms_per_parse (median of 9)\", \"allocs\": \"heap allocation calls per parse\", \"peak_bytes\": \"peak live heap bytes above entry\"}},\n  \"gates\": \"asserted: fused tree identical to two-pass (layout + symbols + canon); fused_ms <= two_pass_ms\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_parse_fusion.json", &json).expect("write BENCH_parse_fusion.json");
    println!("wrote BENCH_parse_fusion.json");
}

/// S5 — the aggregation experiment: the `jagg` tree-backed pipeline
/// executor (cursor rows + overlay bindings over the collection's tree
/// column) vs the naive value-based reference executor, on a 20k-record
/// collection. Three gates run inside the harness: both executors must
/// produce identical output documents on every pipeline; the tree
/// executor must not be slower than the reference it subsumes (the
/// reference clones every document into owned rows before it can do
/// anything — exactly the cost the tree executor avoids); and, on the
/// [`S5_ALLOC_GATED`] pipelines, one `jagg::aggregate` call may add at
/// most [`S5_ALLOCS_PER_ROW_MAX`] heap allocations per added input
/// document between [`S5_ALLOC_SIZES`] (a count by `bench::memtrack`, not
/// a timing). Wall times and allocation counts land in
/// `BENCH_aggregate.json`.
fn s5() {
    header(
        "S5",
        "Aggregation — jagg tree executor vs naive value-based reference",
    );
    let text = s5_collection_text();
    let coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    // Materialise the reference's document vector up front so its timed
    // region measures pipeline execution, not materialisation.
    let docs = coll.docs();
    println!(
        "collection: {} documents, {} tree nodes, {} symbols",
        coll.len(),
        coll.segments()[0].node_count(),
        coll.interner().len()
    );
    println!(
        "{}",
        row(&[
            "pipeline".into(),
            "out docs".into(),
            "reference ms".into(),
            "tree ms".into(),
            "speedup".into(),
            "allocs".into(),
            "allocs/row".into(),
        ])
    );
    let mut entries = Vec::new();
    for (label, src) in s5_pipelines() {
        let pipe = jagg::Pipeline::parse_str(src).expect("workload pipeline parses");
        // Deterministic gate 1: output-for-output agreement.
        let via_tree = jagg::aggregate(&coll, &pipe);
        let via_value = jagg::reference::aggregate(&docs, &pipe);
        assert_eq!(
            via_tree, via_value,
            "S5 gate: tree executor disagrees with the value reference on {label}"
        );
        let out_docs = via_tree.len();
        drop((via_tree, via_value));

        let ref_ms = time_ms(9, || jagg::reference::aggregate(&docs, &pipe));
        let tree_ms = time_ms(9, || jagg::aggregate(&coll, &pipe));
        let allocs = s5_allocs(&pipe);
        // Deterministic gate 2: the tree executor must not be slower than
        // the naive reference (it does strictly less copying; the margin
        // is recorded for trend tracking).
        assert!(
            tree_ms <= ref_ms,
            "S5 gate: tree executor slower than the value reference on {label}: {tree_ms:.2} ms vs {ref_ms:.2} ms"
        );
        let [(small, a_small), (large, a_large)] = allocs;
        let per_row = (a_large as f64 - a_small as f64) / (large - small) as f64;
        // Deterministic gate 3: `$group` allocates per distinct key and
        // per output, and a top-k block projects its survivors only —
        // neither allocates per input row.
        if S5_ALLOC_GATED.contains(&label) {
            assert!(
                per_row <= S5_ALLOCS_PER_ROW_MAX,
                "S5 gate: {label} adds {per_row:.3} allocations per added input row \
                 ({a_small} at {small} docs, {a_large} at {large}); the bound is {S5_ALLOCS_PER_ROW_MAX}"
            );
        }
        println!(
            "{}",
            row(&[
                label.into(),
                out_docs.to_string(),
                format!("{ref_ms:.2}"),
                format!("{tree_ms:.2}"),
                format!("{:.2}x", ref_ms / tree_ms),
                format!("{a_large}"),
                format!("{per_row:.3}"),
            ])
        );
        entries.push(Val::obj(vec![
            ("pipeline", Val::str(label)),
            ("output_docs", Val::int(out_docs as u64)),
            ("reference_ms", Val::float(ref_ms, 3)),
            ("tree_ms", Val::float(tree_ms, 3)),
            ("speedup", Val::float(ref_ms / tree_ms, 3)),
            ("allocs", Val::int(a_large)),
            ("allocs_per_added_row", Val::float(per_row, 3)),
        ]));
    }
    let report = Val::obj(vec![
        ("experiment", Val::str("s5_aggregate")),
        (
            "units",
            Val::str(
                "ms_per_pipeline (median of 9); allocs: heap allocations of one \
                 aggregate call at the largest gate size; allocs_per_added_row: \
                 added allocations per added input document between the gate sizes",
            ),
        ),
        (
            "collection",
            Val::obj(vec![
                ("documents", Val::int(coll.len() as u64)),
                (
                    "tree_nodes",
                    Val::int(coll.segments()[0].node_count() as u64),
                ),
                ("symbols", Val::int(coll.interner().len() as u64)),
            ]),
        ),
        (
            "gates",
            Val::str(
                "asserted: tree output == reference output on every pipeline; \
                 tree_ms <= reference_ms; allocs_per_added_row <= 0.1 on \
                 match_unwind_group_sort, match_project_sort_paginate and \
                 jnl_match_group_compound_id",
            ),
        ),
        ("pipelines", Val::Arr(entries)),
    ]);
    jsonout::write("BENCH_aggregate.json", &report);
}

/// The S5 pipelines whose allocations per added input row are gated.
const S5_ALLOC_GATED: [&str; 3] = [
    "match_unwind_group_sort",
    "match_project_sort_paginate",
    "jnl_match_group_compound_id",
];

/// S5's allocation bound: heap allocations one `jagg::aggregate` call may
/// add per added input document. A per-row owned key, observation or
/// binding costs at least one allocation per row, ten times this.
const S5_ALLOCS_PER_ROW_MAX: f64 = 0.1;

/// The collection sizes (`person_records(n, 7)`) S5's allocation gate
/// compares.
const S5_ALLOC_SIZES: [usize; 2] = [10_000, 20_000];

/// Heap allocations of one `jagg::aggregate(pipe)` call at each of
/// [`S5_ALLOC_SIZES`], on a serial pool so the count does not depend on
/// the thread schedule. It does move by a few allocations with the
/// per-process hash seed (`Json` equality allocates, and how often a map
/// lookup compares keys depends on the hash layout), which the
/// difference between the two sizes cancels. One unmeasured call first
/// builds what the collection keeps across queries (each segment's
/// canonical-label table), as a served collection's indexes already
/// have.
fn s5_allocs(pipe: &jagg::Pipeline) -> [(usize, u64); 2] {
    S5_ALLOC_SIZES.map(|n| {
        let text = jsondata::serialize::to_string(&jsondata::gen::person_records(n, 7));
        let coll = mongofind::Collection::parse_str(&text)
            .expect("workload parses")
            .with_pool(jpar::Pool::serial());
        drop(jagg::aggregate(&coll, pipe));
        let (out, prof) = memtrack::measure(|| jagg::aggregate(&coll, pipe));
        drop(out);
        (n, prof.allocs)
    })
}

/// S6 — the parallel-execution experiment: the pool-driven find/aggregate
/// paths over the 20k-record collection at 1 thread vs the machine's
/// maximum, plus the fragmented (one segment per insert) vs compacted
/// segment layouts. Deterministic gates inside the harness:
///
/// 1. parallel output must be **byte-identical** to sequential on every
///    workload (the `jpar` chunk-splicing contract);
/// 2. parallel wall time at max threads must not exceed sequential — with
///    a small documented tolerance when the machine exposes only one CPU,
///    where the "parallel" run degenerates to the identical serial
///    fallback and the comparison is pure timer noise;
/// 3. after `Collection::compact()`, the per-segment JNL scan must be at
///    least as fast as on the fragmented layout it replaces (the
///    fragmented run pays one whole-tree evaluation per segment), with
///    identical results.
fn s6() {
    header(
        "S6",
        "Parallel execution — 1 vs max threads over the pool-driven query paths + compaction",
    );
    let max_threads = jpar::Pool::auto().threads();
    let hw_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The wall-clock gate is strict (parallel ≤ sequential) only when real
    // hardware parallelism backs the pool — there the expected margin is a
    // multiple, not a rounding error. With one thread the "parallel" run
    // IS the serial fallback, and with an oversubscribed JPAR_THREADS the
    // run measures pure dispatch overhead; both compare near-identical
    // work, so only noise (25%) is tolerated, not required wins.
    let tolerance = if max_threads > 1 && max_threads <= hw_threads {
        1.0
    } else {
        1.25
    };
    println!(
        "pool: {max_threads} thread(s) over {hw_threads} hardware thread(s), gate tolerance {tolerance}x"
    );
    // One timed run. The sequential/parallel comparison interleaves
    // single samples and keeps each side's best: back-to-back sample
    // blocks drift with allocator and scheduler state (the later block
    // measures consistently slower even on identical code paths), and
    // interleaving cancels that drift while best-of-N rejects load spikes.
    fn once_ms<T>(f: impl FnOnce() -> T) -> f64 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_secs_f64() * 1e3
    }
    // Best-of-N for the compaction comparison, which cannot interleave
    // (compact() is one-way); its margin is large enough that drift does
    // not threaten the gate.
    fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
        (0..reps)
            .map(|_| once_ms(&mut f))
            .fold(f64::INFINITY, f64::min)
    }

    let text = s5_collection_text();
    let mut coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    let find_filter = mongofind::Filter::parse_str(S6_FIND_FILTER).expect("filter parses");
    println!(
        "collection: {} documents in {} segment(s), {} symbols",
        coll.len(),
        coll.segments().len(),
        coll.interner().len()
    );
    println!(
        "{}",
        row(&[
            "workload".into(),
            "out".into(),
            "1-thread ms".into(),
            "max ms".into(),
            "speedup".into(),
        ])
    );

    let mut entries = Vec::new();
    let mut measure =
        |label: &str,
         coll: &mut mongofind::Collection,
         run: &dyn Fn(&mongofind::Collection) -> Vec<jsondata::Json>| {
            coll.set_pool(jpar::Pool::serial());
            let seq_out = run(coll);
            coll.set_pool(jpar::Pool::with_threads(max_threads));
            let par_out = run(coll);
            // Gate 1: byte-identical output for every thread count.
            assert_eq!(
                par_out, seq_out,
                "S6 gate: parallel output differs from sequential on {label}"
            );
            let (mut seq_ms, mut par_ms) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..9 {
                coll.set_pool(jpar::Pool::serial());
                seq_ms = seq_ms.min(once_ms(|| run(coll)));
                coll.set_pool(jpar::Pool::with_threads(max_threads));
                par_ms = par_ms.min(once_ms(|| run(coll)));
            }
            // Gate 2: parallelism must not cost wall time at max threads.
            assert!(
            par_ms <= seq_ms * tolerance,
            "S6 gate: parallel slower than sequential on {label}: {par_ms:.2} ms vs {seq_ms:.2} ms"
        );
            println!(
                "{}",
                row(&[
                    label.into(),
                    par_out.len().to_string(),
                    format!("{seq_ms:.2}"),
                    format!("{par_ms:.2}"),
                    format!("{:.2}x", seq_ms / par_ms),
                ])
            );
            entries.push(format!(
            "    {{\"workload\": \"{label}\", \"output_docs\": {}, \"sequential_ms\": {seq_ms:.3}, \"parallel_ms\": {par_ms:.3}, \"speedup\": {:.3}}}",
            par_out.len(),
            seq_ms / par_ms,
        ));
        };

    measure("find_scan", &mut coll, &|c| c.find(&find_filter));
    for (label, src) in s6_pipelines() {
        let pipe = jagg::Pipeline::parse_str(src).expect("workload pipeline parses");
        measure(label, &mut coll, &move |c| jagg::aggregate(c, &pipe));
    }

    // --- compacted vs fragmented segment layout -----------------------
    let n_frag = 1000usize;
    let jnl_filter = mongofind::Filter::parse_str(S6_JNL_FILTER).expect("filter parses");
    let agg = jagg::Pipeline::parse_str(s6_pipelines()[1].1).expect("pipeline parses");
    let jsondata::Json::Array(docs) = jsondata::gen::person_records(n_frag, 7) else {
        panic!("person_records returns an array");
    };
    let mut frag = mongofind::Collection::parse_str("[]").expect("empty parses");
    for d in &docs {
        frag.insert_str(&jsondata::serialize::to_string(d))
            .expect("record parses");
    }
    frag.set_pool(jpar::Pool::with_threads(max_threads));
    let frag_segments = frag.segments().len();
    let frag_out = jnl_docs(&frag, &jnl_filter);
    let frag_jnl_ms = best_ms(9, || jnl_docs(&frag, &jnl_filter));
    let frag_agg_ms = best_ms(9, || jagg::aggregate(&frag, &agg));
    let frag_agg_out = jagg::aggregate(&frag, &agg);

    frag.compact();
    let comp_out = jnl_docs(&frag, &jnl_filter);
    let comp_jnl_ms = best_ms(9, || jnl_docs(&frag, &jnl_filter));
    let comp_agg_ms = best_ms(9, || jagg::aggregate(&frag, &agg));
    let comp_agg_out = jagg::aggregate(&frag, &agg);
    assert_eq!(
        comp_out, frag_out,
        "S6 gate: compaction changed JNL results"
    );
    assert_eq!(
        comp_agg_out, frag_agg_out,
        "S6 gate: compaction changed aggregate results"
    );
    // Gate 3: compaction must not slow the per-segment JNL scan down (the
    // fragmented layout pays one whole-tree evaluation per segment — here
    // 1001 of them — so the margin is enormous).
    assert!(
        comp_jnl_ms <= frag_jnl_ms,
        "S6 gate: compacted JNL evaluation slower than fragmented: {comp_jnl_ms:.2} ms vs {frag_jnl_ms:.2} ms"
    );
    println!(
        "compaction ({n_frag} inserts): JNL {frag_jnl_ms:.2} -> {comp_jnl_ms:.2} ms ({:.1}x), \
         unwind_group {frag_agg_ms:.2} -> {comp_agg_ms:.2} ms ({:.2}x), segments {frag_segments} -> {}",
        frag_jnl_ms / comp_jnl_ms,
        frag_agg_ms / comp_agg_ms,
        frag.segments().len(),
    );

    let json = format!(
        "{{\n  \"experiment\": \"s6_parallel\",\n  \"units\": \"ms (best of 9, sequential/parallel samples interleaved)\",\n  \"threads\": {{\"sequential\": 1, \"parallel\": {max_threads}, \"gate_tolerance\": {tolerance}}},\n  \"gates\": \"asserted: parallel output == sequential output on every workload; parallel_ms <= sequential_ms * tolerance at max threads; compacted JNL evaluation <= fragmented with identical results\",\n  \"collection\": {{\"documents\": {}, \"segments\": {}}},\n  \"workloads\": [\n{}\n  ],\n  \"compaction\": {{\"documents\": {n_frag}, \"segments_fragmented\": {frag_segments}, \"segments_compacted\": {}, \"fragmented_jnl_ms\": {frag_jnl_ms:.3}, \"compacted_jnl_ms\": {comp_jnl_ms:.3}, \"jnl_speedup\": {:.3}, \"fragmented_agg_ms\": {frag_agg_ms:.3}, \"compacted_agg_ms\": {comp_agg_ms:.3}, \"agg_speedup\": {:.3}}}\n}}\n",
        coll.len(),
        coll.segments().len(),
        entries.join(",\n"),
        frag.segments().len(),
        frag_jnl_ms / comp_jnl_ms,
        frag_agg_ms / comp_agg_ms,
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}

/// S7 — fault injection & resource governance over the serving-layer
/// query paths. Deterministic gates inside the harness:
///
/// 1. **Ingestion fails closed.** Every hostile-corpus text inserts under
///    explicit [`jsondata::ParseLimits`] with success or a structured
///    `ParseLimit` error — never a panic — and the collection stays
///    queryable; a pathological regex past the edge-DFA state cap falls
///    back to the lazy tier and still answers (governed run agreeing).
/// 2. **Bounded grace.** Cancelled, expired-deadline and zero-budget
///    queries return their structured error within `GRACE_MS` (500 ms).
/// 3. **Panic containment.** Injected fault panics at swept poll indices
///    surface as `WorkerPanicked` (payload tagged) or complete with
///    baseline-identical output; the pool and collection stay reusable
///    after every one.
/// 4. **Failure storm.** After 1000 injected failures (panics, starved
///    budgets, expired deadlines, cancellations) the plain find and
///    aggregate outputs are byte-identical to the pre-storm baselines.
/// 5. **Uncontended overhead.** A live context (far deadline) on the S6
///    workloads costs at most 2% wall clock over the ungoverned paths
///    (median of paired samples, plus a small epsilon for timer noise).
fn s7() {
    use std::time::{Duration, Instant};

    use jguard::{Fault, QueryCtx, QueryError, Resource, INJECTED_PANIC_MSG};

    header(
        "S7",
        "Fault injection & governance — structured failure, bounded grace, <=2% ctx overhead",
    );
    // Generous enough for the slowest legitimate path to the first charge
    // point (a byte budget only trips once something materialises, so a
    // leading `$match` scan runs to completion first), tight enough
    // that a hung poll loop cannot hide.
    const GRACE_MS: f64 = 500.0;
    let max_threads = jpar::Pool::auto().threads();
    let text = s5_collection_text();
    let mut coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    coll.set_pool(jpar::Pool::with_threads(max_threads));
    let find_filter = mongofind::Filter::parse_str(S6_FIND_FILTER).expect("filter parses");
    let pipes: Vec<(&str, jagg::Pipeline)> = s6_pipelines()
        .into_iter()
        .map(|(label, src)| {
            (
                label,
                jagg::Pipeline::parse_str(src).expect("pipeline parses"),
            )
        })
        .collect();
    println!(
        "collection: {} documents, pool: {max_threads} thread(s)",
        coll.len()
    );

    // Pre-storm baselines every later gate compares against.
    let base_find = coll.find(&find_filter);
    let base_aggs: Vec<Vec<jsondata::Json>> = pipes
        .iter()
        .map(|(_, p)| jagg::aggregate(&coll, p))
        .collect();
    assert!(
        !base_find.is_empty(),
        "S7 setup: the find workload must select documents"
    );

    fn once_ms<T>(f: impl FnOnce() -> T) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_secs_f64() * 1e3
    }

    // --- gate 1: hostile ingestion + pathological regex ---------------
    let limits = jsondata::ParseLimits {
        max_depth: 256,
        max_bytes: 8 << 20,
    };
    let mut scratch = mongofind::Collection::parse_str(r#"[{"a": 1}]"#).expect("seed parses");
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for (label, hostile) in jsondata::gen::hostile_corpus(0xFA_17) {
        match scratch.insert_str_with_limits(&hostile, limits) {
            Ok(()) => accepted += 1,
            Err(QueryError::ParseLimit(_)) => rejected += 1,
            Err(e) => panic!("S7 gate: {label} raised a non-ingestion error: {e}"),
        }
    }
    assert!(
        rejected >= 4,
        "S7 gate: the caps must reject the worst corpus entries"
    );
    let scratch_filter = mongofind::Filter::parse_str(r#"{"a": {"$gte": 1}}"#).expect("parses");
    assert_eq!(
        scratch.find(&scratch_filter).len(),
        1,
        "S7 gate: collection not queryable after hostile ingestion"
    );
    // `(a|b)*a(a|b)^13` needs ~2^13 DFA states — past the edge-DFA cap,
    // so the evaluator must take the lazy fallback, not abort or stall.
    let blowup = format!("[@/(a|b)*a{}/]", "(a|b)".repeat(13));
    let phi = jnl::parse_unary(&blowup).expect("regex formula parses");
    let ab_doc = {
        let mut s = String::from("{");
        for i in 0..64u32 {
            if i > 0 {
                s.push(',');
            }
            let key: String = (0..14)
                .map(|b| if i >> (b % 6) & 1 == 0 { 'a' } else { 'b' })
                .collect();
            s.push_str(&format!("\"{i}_{key}\":0"));
        }
        s.push('}');
        s
    };
    let ab_tree = jsondata::parse_to_tree(&ab_doc).expect("ab doc parses");
    let plain_eval = jnl::evaluate(&ab_tree, &phi);
    let governed_eval = jnl::eval::evaluate_ctx(
        &ab_tree,
        &phi,
        &QueryCtx::new().with_timeout(Duration::from_secs(60)),
    )
    .expect("governed evaluation of the capped regex succeeds");
    assert_eq!(
        plain_eval, governed_eval,
        "S7 gate: governed regex evaluation diverged"
    );
    println!("ingestion: {accepted} accepted, {rejected} rejected, regex fallback ok");

    // --- gate 2: bounded grace -----------------------------------------
    let mut grace = Vec::new();
    {
        let cancelled = QueryCtx::new();
        cancelled.cancel();
        let ms = once_ms(|| {
            assert!(
                matches!(
                    coll.find_with_ctx(&find_filter, None, &cancelled),
                    Err(QueryError::Cancelled)
                ),
                "S7 gate: cancelled query did not return Cancelled"
            );
        });
        grace.push(("cancelled_find", ms));
        let expired = QueryCtx::new().with_timeout(Duration::ZERO);
        let ms = once_ms(|| {
            assert!(
                matches!(
                    jagg::aggregate_with_ctx(&coll, &pipes[0].1, &expired),
                    Err(QueryError::Deadline)
                ),
                "S7 gate: expired query did not return Deadline"
            );
        });
        grace.push(("expired_aggregate", ms));
        let no_rows = QueryCtx::new().with_row_budget(0);
        let ms = once_ms(|| {
            assert!(
                matches!(
                    coll.find_with_ctx(&find_filter, None, &no_rows),
                    Err(QueryError::BudgetExceeded {
                        resource: Resource::Rows
                    })
                ),
                "S7 gate: zero row budget did not return BudgetExceeded"
            );
        });
        grace.push(("row_budget_find", ms));
        let no_bytes = QueryCtx::new().with_byte_budget(1);
        let ms = once_ms(|| {
            assert!(
                matches!(
                    jagg::aggregate_with_ctx(&coll, &pipes[0].1, &no_bytes),
                    Err(QueryError::BudgetExceeded {
                        resource: Resource::Bytes
                    })
                ),
                "S7 gate: starved byte budget did not return BudgetExceeded"
            );
        });
        grace.push(("byte_budget_aggregate", ms));
        // A fault that sleeps inside one poll while the deadline expires:
        // the very next check must surface Deadline — the grace window is
        // one poll stride plus the injected stall.
        let slow = QueryCtx::new()
            .with_timeout(Duration::from_millis(10))
            .with_fault(Fault::SleepAtPoll { at: 2, millis: 80 });
        let ms = once_ms(|| {
            assert!(
                matches!(
                    coll.find_with_ctx(&find_filter, None, &slow),
                    Err(QueryError::Deadline)
                ),
                "S7 gate: slow-node fault did not surface Deadline"
            );
        });
        grace.push(("slow_node_find", ms - 80.0));
    }
    for (label, ms) in &grace {
        assert!(
            *ms <= GRACE_MS,
            "S7 gate: {label} took {ms:.1} ms to fail (grace {GRACE_MS} ms)"
        );
        println!("grace: {label} failed closed in {ms:.2} ms");
    }

    // --- gates 3+4: panic containment sweep, then the failure storm ----
    let (contained, storm_failures) = jguard::with_quiet_panics(|| {
        let mut contained = 0u32;
        for k in [1u64, 2, 3, 5, 8, 13, 21, 34, 55] {
            let ctx = QueryCtx::new().with_fault(Fault::PanicAtPoll(k));
            match coll.find_with_ctx(&find_filter, None, &ctx) {
                Ok(v) => assert_eq!(v, base_find, "S7 gate: fault-free run diverged at k={k}"),
                Err(QueryError::WorkerPanicked { payload, .. }) => {
                    assert!(
                        payload.contains(INJECTED_PANIC_MSG),
                        "S7 gate: foreign panic payload at k={k}: {payload}"
                    );
                    contained += 1;
                }
                Err(e) => panic!("S7 gate: injected panic surfaced as {e} at k={k}"),
            }
            let ctx = QueryCtx::new().with_fault(Fault::PanicAtPoll(k));
            match jagg::aggregate_with_ctx(&coll, &pipes[0].1, &ctx) {
                Ok(v) => assert_eq!(v, base_aggs[0], "S7 gate: aggregate diverged at k={k}"),
                Err(QueryError::WorkerPanicked { payload, .. }) => {
                    assert!(
                        payload.contains(INJECTED_PANIC_MSG),
                        "S7 gate: foreign panic payload at k={k}: {payload}"
                    );
                    contained += 1;
                }
                Err(e) => panic!("S7 gate: injected panic surfaced as {e} at k={k}"),
            }
            // Pool and tree column must be reusable immediately.
            assert_eq!(
                coll.find(&find_filter),
                base_find,
                "S7 gate: pool unusable after contained panic at k={k}"
            );
        }
        assert!(
            contained >= 2,
            "S7 gate: the poll sweep never hit a live poll"
        );

        let mut storm_failures = 0u32;
        for i in 0..1000u64 {
            let ctx = match i % 4 {
                0 => QueryCtx::new().with_fault(Fault::PanicAtPoll(1 + i % 7)),
                1 => QueryCtx::new().with_byte_budget(1),
                2 => QueryCtx::new().with_timeout(Duration::ZERO),
                _ => {
                    let c = QueryCtx::new();
                    c.cancel();
                    c
                }
            };
            let failed = if i % 2 == 0 {
                coll.find_with_ctx(&find_filter, None, &ctx).is_err()
            } else {
                jagg::aggregate_with_ctx(&coll, &pipes[(i % 4) as usize % pipes.len()].1, &ctx)
                    .is_err()
            };
            if failed {
                storm_failures += 1;
            }
        }
        (contained, storm_failures)
    });
    assert!(
        storm_failures >= 750,
        "S7 gate: the storm must actually fail its queries ({storm_failures}/1000)"
    );
    assert_eq!(
        coll.find(&find_filter),
        base_find,
        "S7 gate: find output changed after the failure storm"
    );
    for ((_, p), base) in pipes.iter().zip(&base_aggs) {
        assert_eq!(
            &jagg::aggregate(&coll, p),
            base,
            "S7 gate: aggregate output changed after the failure storm"
        );
    }
    println!("containment: {contained} injected panics contained; storm: {storm_failures}/1000 failed closed, outputs byte-identical");

    // --- gate 5: uncontended ctx overhead on the S6 workloads ----------
    // The live context carries a far-future deadline: every poll runs the
    // real check (clock read), which is exactly the overhead the <=2%
    // contract covers. Budget *charging* is pay-as-you-go on the charged
    // values and only runs when a budget is set.
    let live = QueryCtx::new().with_timeout(Duration::from_secs(3600));
    let mut overhead_entries = Vec::new();
    // Paired estimator: each rep times base and ctx back to back (order
    // alternating) and the gate runs on the *minimum of per-pair deltas*.
    // Interference on a shared/1-CPU runner is one-sided — a spike lands
    // on one half of a pair and inflates (or deflates) that delta — so
    // medians and best-of-N minima both wobble past 2% under load. A real
    // per-item regression, by contrast, is present in every single pair,
    // so the minimum delta still exposes it while ignoring the spikes.
    // The median delta is what gets *reported* (it is the better central
    // estimate when the machine is quiet).
    let mut gate_overhead = |label: &str, base: &dyn Fn() -> usize, ctx: &dyn Fn() -> usize| {
        assert_eq!(base(), ctx(), "S7 gate: governed output differs on {label}");
        let mut pairs = Vec::with_capacity(31);
        for i in 0..31 {
            let (b, c) = if i % 2 == 0 {
                let b = once_ms(base);
                (b, once_ms(ctx))
            } else {
                let c = once_ms(ctx);
                (once_ms(base), c)
            };
            pairs.push((b, c));
        }
        fn median(mut xs: Vec<f64>) -> f64 {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        }
        let base_ms = median(pairs.iter().map(|&(b, _)| b).collect());
        let delta_ms = median(pairs.iter().map(|&(b, c)| c - b).collect());
        let min_delta_ms = pairs
            .iter()
            .map(|&(b, c)| c - b)
            .fold(f64::INFINITY, f64::min);
        let ctx_ms = base_ms + delta_ms;
        let pct = delta_ms / base_ms * 100.0;
        // The epsilon absorbs scheduler/timer jitter on the cleanest pair;
        // a real per-item regression lands in all 31 pairs and fails.
        assert!(
            min_delta_ms <= base_ms * 0.02 + 0.25,
            "S7 gate: ctx overhead on {label}: {base_ms:.3} -> {ctx_ms:.3} ms \
             ({pct:+.2}% median, {min_delta_ms:.3} ms min paired delta)"
        );
        println!("overhead: {label} {base_ms:.3} -> {ctx_ms:.3} ms ({pct:+.2}%)");
        overhead_entries.push(format!(
            "    {{\"workload\": \"{label}\", \"base_ms\": {base_ms:.4}, \"ctx_ms\": {ctx_ms:.4}, \"overhead_pct\": {pct:.3}}}"
        ));
    };
    gate_overhead("find_scan", &|| coll.find(&find_filter).len(), &|| {
        coll.find_with_ctx(&find_filter, None, &live)
            .expect("live ctx never trips")
            .len()
    });
    for ((label, pipe), _) in pipes.iter().zip(&base_aggs) {
        gate_overhead(label, &|| jagg::aggregate(&coll, pipe).len(), &|| {
            jagg::aggregate_with_ctx(&coll, pipe, &live)
                .expect("live ctx never trips")
                .len()
        });
    }

    let grace_json = grace
        .iter()
        .map(|(label, ms)| format!("    {{\"case\": \"{label}\", \"fail_ms\": {ms:.3}}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"s7_robustness\",\n  \"units\": \"ms (median of 31 paired base/ctx samples)\",\n  \"gates\": \"asserted: hostile ingestion fails closed; cancelled/expired/starved queries error within {GRACE_MS} ms; injected panics surface as WorkerPanicked with pool reusable; outputs byte-identical after 1000 injected failures; live-ctx overhead (minimum of 31 paired base/ctx deltas) <= 2% + 0.25 ms timer epsilon\",\n  \"threads\": {max_threads},\n  \"ingestion\": {{\"accepted\": {accepted}, \"rejected\": {rejected}}},\n  \"grace_window_ms\": {GRACE_MS},\n  \"grace\": [\n{grace_json}\n  ],\n  \"containment\": {{\"poll_sweep_panics_contained\": {contained}, \"storm_queries\": 1000, \"storm_failed_closed\": {storm_failures}}},\n  \"overhead\": [\n{}\n  ]\n}}\n",
        overhead_entries.join(",\n")
    );
    std::fs::write("BENCH_robustness.json", &json).expect("write BENCH_robustness.json");
    println!("wrote BENCH_robustness.json");
}

/// The S8 sat sweeps as `(seed, formulas, depth, step budget)`. Each budget
/// is about 1.5x the most steps any formula of its sweep needs (67 on sweep
/// 11, 3,417 on sweep 22): a search regression of that size trips gate 2.
const S8_SWEEPS: [(u64, usize, usize, usize); 2] = [(11, 400, 3, 100), (22, 200, 4, 5_100)];

/// S8 — the static-analysis experiment. Deterministic gates inside the
/// harness:
///
/// 1. every `Sat` witness on the shared `jnl::gen` sweeps must satisfy its
///    formula through the production evaluator, and no `Unsat` verdict may
///    have a small model (`jnl::gen::small_model`; at least 10 per sweep
///    must fit its cap);
/// 2. every formula must be decided, with its default-budget verdict,
///    within its sweep's step budget ([`S8_SWEEPS`]);
/// 3. `prune(analyze(..))` must be output-identical to the unpruned
///    pipeline through both executors on every S5 pipeline plus two
///    salted pipelines that carry provably-dead stages (and the salted
///    ones must actually be rewritten — a vacuous prune gates nothing);
/// 4. analyzing **and** pruning a pipeline must cost no more than one
///    execution of it over the 20k-record collection — the break-even
///    bound that makes the analyzer free to run unconditionally.
fn s8() {
    use jstat::Analyze;

    header(
        "S8",
        "Static analysis — sat verdicts vs small models, step budgets, analyzer overhead, prune equivalence",
    );

    // --- Part 1: sat verdicts against the oracle, step budgets, timing ---
    println!(
        "{}",
        row(&[
            "sweep".into(),
            "sat/unsat".into(),
            "unsat enumerated".into(),
            "step budget".into(),
            "sym ms".into(),
        ])
    );
    let mut sweep_entries = Vec::new();
    for (seed, count, depth, budget) in S8_SWEEPS {
        let phis = jnl::gen::formulas(seed, count, depth);
        let (mut n_sat, mut n_unsat, mut n_enum) = (0usize, 0usize, 0usize);
        for phi in &phis {
            let r = jnl::sat_deterministic(phi);
            match &r {
                jnl::SatResult::Sat(w) => {
                    n_sat += 1;
                    assert!(
                        jnl::check_root(&JsonTree::build(w), phi),
                        "S8 gate: witness {w} fails its formula {phi}"
                    );
                }
                jnl::SatResult::Unsat => {
                    n_unsat += 1;
                    match jnl::gen::small_model(phi, jnl::gen::SMALL_MODEL_CAP) {
                        Ok(Some(m)) => panic!("S8 gate: {phi} is Unsat but has the model {m}"),
                        Ok(None) => n_enum += 1,
                        Err(_) => {}
                    }
                }
                jnl::SatResult::Unknown(_) => {}
            }
            // The search is deterministic: within budget it runs exactly as
            // at the default budget, witness included.
            let budgeted = jnl::sat::det::sat_deterministic_with_budget(phi, budget);
            assert!(
                !matches!(budgeted, jnl::SatResult::Unknown(_)) && budgeted == r,
                "S8 gate: {phi} is not decided within {budget} steps \
                 (got {budgeted:?}, default budget {r:?})"
            );
        }
        assert!(
            n_enum >= 10,
            "S8 gate: only {n_enum} Unsat verdicts fit the small-model cap on sweep {seed}"
        );
        let sym_ms = time_ms(7, || {
            phis.iter()
                .filter(|p| jnl::sat_deterministic(p).is_sat())
                .count()
        });
        let label = format!("seed {seed} depth {depth} ({count} formulas)");
        println!(
            "{}",
            row(&[
                label,
                format!("{n_sat}/{n_unsat}"),
                n_enum.to_string(),
                budget.to_string(),
                format!("{sym_ms:.2}"),
            ])
        );
        sweep_entries.push(format!(
            "    {{\"seed\": {seed}, \"depth\": {depth}, \"formulas\": {count}, \"sat\": {n_sat}, \"unsat\": {n_unsat}, \"unsat_enumerated\": {n_enum}, \"step_budget\": {budget}, \"sym_ms\": {sym_ms:.3}}}"
        ));
    }

    // --- Part 2: analyzer overhead + prune equivalence on pipelines ---
    let text = s5_collection_text();
    let coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    let docs = coll.docs();
    let mut pipes: Vec<(&str, String)> = s5_pipelines()
        .into_iter()
        .map(|(l, s)| (l, s.to_owned()))
        .collect();
    // Salted pipelines: provably-dead work the analyzer must find.
    pipes.push((
        "salted_unsat_prefix",
        r#"[
            {"$match": {"$and": [{"age": 1}, {"age": 2}]}},
            {"$unwind": "$hobbies"},
            {"$group": {"_id": "$hobbies", "n": {"$count": {}}}}
        ]"#
        .to_owned(),
    ));
    pipes.push((
        "salted_shadow_and_sorts",
        r#"[
            {"$match": {"name.last": "Doe"}},
            {"$match": {"name.last": {"$exists": "true"}}},
            {"$sort": {"age": 1}},
            {"$sort": {"age": 1, "name.first": 1}},
            {"$limit": 25}
        ]"#
        .to_owned(),
    ));
    println!(
        "{}",
        row(&[
            "pipeline".into(),
            "diags".into(),
            "analyze ms".into(),
            "exec ms".into(),
            "pruned ms".into(),
        ])
    );
    let mut analyzer_entries = Vec::new();
    for (label, src) in &pipes {
        let pipe = jagg::Pipeline::parse_str(src).expect("workload pipeline parses");
        let report = pipe.analyze(None);
        let pruned = pipe.prune(&report);
        if label.starts_with("salted_") {
            assert!(
                report.has_rewrite(),
                "S8 gate: the salted pipeline {label} was not rewritten\n{report}"
            );
        }
        // Gate 3: prune equivalence through both executors.
        assert_eq!(
            jagg::aggregate(&coll, &pipe),
            jagg::aggregate(&coll, &pruned),
            "S8 gate: prune changed tree-executor output on {label}"
        );
        assert_eq!(
            jagg::reference::aggregate(&docs, &pipe),
            jagg::reference::aggregate(&docs, &pruned),
            "S8 gate: prune changed reference output on {label}"
        );

        let analyze_ms = time_ms(7, || {
            let r = pipe.analyze(None);
            pipe.prune(&r).stages.len()
        });
        let exec_ms = time_ms(7, || jagg::aggregate(&coll, &pipe).len());
        let pruned_ms = time_ms(7, || jagg::aggregate(&coll, &pruned).len());
        // Gate 4: the break-even bound.
        assert!(
            analyze_ms <= exec_ms,
            "S8 gate: analyzing {label} costs more than executing it: \
             {analyze_ms:.3} ms vs {exec_ms:.3} ms"
        );
        println!(
            "{}",
            row(&[
                (*label).into(),
                report.diagnostics.len().to_string(),
                format!("{analyze_ms:.3}"),
                format!("{exec_ms:.2}"),
                format!("{pruned_ms:.2}"),
            ])
        );
        analyzer_entries.push(format!(
            "    {{\"pipeline\": \"{label}\", \"diagnostics\": {}, \"rewritten\": {}, \"analyze_ms\": {analyze_ms:.4}, \"exec_ms\": {exec_ms:.3}, \"pruned_exec_ms\": {pruned_ms:.3}}}",
            report.diagnostics.len(),
            report.has_rewrite(),
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"s8_static_analysis\",\n  \"units\": \"ms (median of 7)\",\n  \"gates\": \"asserted: every sat witness satisfies its formula through check_root; no Unsat verdict has a small model (jnl::gen::small_model, cap {}); every formula decided with its default-budget verdict within the sweep's step_budget; prune output-identical through both executors on every pipeline; salted pipelines rewritten; analyze+prune <= one execution\",\n  \"sat_sweeps\": [\n{}\n  ],\n  \"analyzer\": [\n{}\n  ]\n}}\n",
        jnl::gen::SMALL_MODEL_CAP,
        sweep_entries.join(",\n"),
        analyzer_entries.join(",\n")
    );
    std::fs::write("BENCH_sat.json", &json).expect("write BENCH_sat.json");
    println!("wrote BENCH_sat.json");
}

/// S9 — the secondary-index experiment: probe-answered `find`/`$match`
/// vs the full scan on the 20k person records, plus layout sweeps.
/// Deterministic gates inside the harness:
///
/// 1. index-answered results must be **byte-identical** to the scan
///    oracle on every workload, on the one-parse layout, the fragmented
///    (per-insert segment) layout, and after `compact()` (the rebuild
///    path);
/// 2. indexed `$eq`/range `find` must not be slower than the scan at
///    20k documents;
/// 3. the selective workload (`eq_unique`, one matching document) must
///    answer at least 2x faster than the scan, at the routed-refs level
///    and through the `jagg` leading-`$match`.
fn s9() {
    header(
        "S9",
        "Secondary indexes — probe-answered find/$match vs full scan",
    );
    let text = s5_collection_text();
    let scan_coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    let mut coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    let t0 = std::time::Instant::now();
    for p in S9_INDEX_PATHS {
        assert!(coll.create_index(p), "index on {p} declared once");
    }
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "collection: {} documents; indexes on {:?} built in {build_ms:.2} ms",
        coll.len(),
        S9_INDEX_PATHS,
    );

    // Gate 1a: byte-identical to the scan oracle on the fragmented and
    // post-compact layouts (1k docs: the layout sweep is a correctness
    // gate, not a timing).
    {
        let jsondata::Json::Array(docs) = jsondata::gen::person_records(1000, 7) else {
            panic!("person_records returns an array");
        };
        let mut frag = mongofind::Collection::parse_str("[]").expect("empty parses");
        for p in S9_INDEX_PATHS {
            frag.create_index(p);
        }
        for d in &docs {
            frag.insert(d);
        }
        for (label, src) in s9_workloads() {
            let f = mongofind::Filter::parse_str(src).expect("workload filter parses");
            assert_eq!(
                routed_refs(&frag, &f),
                scan_refs(&frag, &f),
                "S9 gate: indexed != scan on fragmented layout, {label}"
            );
        }
        frag.compact();
        for (label, src) in s9_workloads() {
            let f = mongofind::Filter::parse_str(src).expect("workload filter parses");
            assert_eq!(
                routed_refs(&frag, &f),
                scan_refs(&frag, &f),
                "S9 gate: indexed != scan after compact(), {label}"
            );
        }
        println!("layout gate: fragmented + post-compact sweeps byte-identical");
    }

    println!(
        "{}",
        row(&[
            "workload".into(),
            "hits".into(),
            "scan ms".into(),
            "indexed ms".into(),
            "speedup".into(),
        ])
    );
    let mut entries = Vec::new();
    let mut selective_speedup = 0.0_f64;
    for (label, src) in s9_workloads() {
        let f = mongofind::Filter::parse_str(src).expect("workload filter parses");
        assert!(
            coll.index_answerable(&f),
            "S9 workload {label} must engage the planner"
        );
        // Gate 1b: byte-identical refs and documents on the 20k layout.
        let probe_refs = routed_refs(&coll, &f);
        let scan = scan_refs(&coll, &f);
        assert_eq!(
            probe_refs, scan,
            "S9 gate: indexed refs != scan refs on {label}"
        );
        assert_eq!(
            coll.find(&f),
            scan.iter().map(|&d| coll.json_of(d)).collect::<Vec<_>>(),
            "S9 gate: indexed documents != scan documents on {label}"
        );
        let hits = probe_refs.len();
        drop(probe_refs);

        let scan_ms = time_ms(9, || scan_refs(&scan_coll, &f));
        let indexed_ms = time_ms(9, || routed_refs(&coll, &f));
        // Gate 2: probing must not cost wall time against the scan.
        assert!(
            indexed_ms <= scan_ms,
            "S9 gate: indexed find slower than scan on {label}: {indexed_ms:.3} ms vs {scan_ms:.3} ms"
        );
        let speedup = scan_ms / indexed_ms;
        if label == "eq_unique" {
            selective_speedup = speedup;
        }
        println!(
            "{}",
            row(&[
                label.into(),
                hits.to_string(),
                format!("{scan_ms:.3}"),
                format!("{indexed_ms:.3}"),
                format!("{speedup:.1}x"),
            ])
        );
        entries.push(format!(
            "    {{\"workload\": \"{label}\", \"hits\": {hits}, \"scan_ms\": {scan_ms:.4}, \"indexed_ms\": {indexed_ms:.4}, \"speedup\": {speedup:.2}}}"
        ));
    }
    // Gate 3a: the selective workload must win by at least 2x.
    assert!(
        selective_speedup >= 2.0,
        "S9 gate: selective probe speedup {selective_speedup:.2}x < 2x"
    );

    // Gate 3b: the same direction through the jagg leading-$match (the
    // executor routes an index-answerable leading filter to the probe).
    let pipe =
        jagg::Pipeline::parse_str(r#"[{"$match": {"id": 12345}}]"#).expect("match pipeline parses");
    let via_index = jagg::aggregate(&coll, &pipe);
    let via_scan = jagg::aggregate(&scan_coll, &pipe);
    assert_eq!(
        via_index, via_scan,
        "S9 gate: $match output differs between indexed and unindexed collections"
    );
    let match_scan_ms = time_ms(9, || jagg::aggregate(&scan_coll, &pipe));
    let match_indexed_ms = time_ms(9, || jagg::aggregate(&coll, &pipe));
    let match_speedup = match_scan_ms / match_indexed_ms;
    assert!(
        match_speedup >= 2.0,
        "S9 gate: selective $match speedup {match_speedup:.2}x < 2x ({match_indexed_ms:.3} ms vs {match_scan_ms:.3} ms)"
    );
    println!(
        "selective $match via jagg: {match_scan_ms:.3} ms scan, {match_indexed_ms:.3} ms indexed ({match_speedup:.1}x)"
    );

    let json = format!(
        "{{\n  \"experiment\": \"s9_secondary_indexes\",\n  \"units\": \"ms (median of 9)\",\n  \"collection\": {{\"documents\": {}, \"indexes\": [\"id\", \"name.first\", \"age\"], \"build_ms\": {build_ms:.3}}},\n  \"gates\": \"asserted: indexed results byte-identical to scan on one-parse/fragmented/post-compact layouts; indexed find <= scan on every workload; selective eq >= 2x at the routed-refs level and through the jagg leading-$match\",\n  \"match_pipeline\": {{\"scan_ms\": {match_scan_ms:.4}, \"indexed_ms\": {match_indexed_ms:.4}, \"speedup\": {match_speedup:.2}}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        coll.len(),
        entries.join(",\n")
    );
    std::fs::write("BENCH_index.json", &json).expect("write BENCH_index.json");
    println!("wrote BENCH_index.json");
}

/// S10 — the observability experiment: the `jtrace` metrics sink, the
/// `EXPLAIN`/`EXPLAIN ANALYZE` plans, and the flight-recorder span log
/// over the whole query stack. Deterministic gates inside the harness:
///
/// 1. **Metrics are ~free.** A metrics-carrying context on the S6
///    workloads (scan find + both pipelines) and the selective S9
///    indexed probe costs at most 2% + 0.25 ms over the metrics-off
///    paths — the same paired-sample protocol as the S7 poll-overhead
///    gate (minimum of 31 alternating-order paired deltas).
/// 2. **EXPLAIN cannot lie.** For every S9 corpus filter plus the
///    supplemental unindexed workloads, the route `EXPLAIN` claims is
///    the route the counters prove execution took: an index route
///    records probes and zero scanned documents / visited segments, a
///    scan route records scanned documents only — and the routed row
///    count equals the scan oracle's.
/// 3. **EXPLAIN ANALYZE counts right.** On every S5 pipeline the traced
///    executor's per-stage cardinalities (fused blocks expanded) equal
///    the value-based reference executor's, stage for stage.
///
/// The span log rides along: one governed find + aggregate run under a
/// span-recording sink must produce a non-empty Chrome-trace rendering.
fn s10() {
    use std::sync::Arc;

    use jguard::QueryCtx;
    use jtrace::{Counter, QueryMetrics};
    use mongofind::Route;

    header(
        "S10",
        "Observability — metrics overhead, explain/execute agreement, analyze cardinalities",
    );
    let max_threads = jpar::Pool::auto().threads();
    let text = s5_collection_text();
    let mut coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    coll.set_pool(jpar::Pool::with_threads(max_threads));
    let mut icoll = mongofind::Collection::parse_str(&text).expect("workload parses");
    icoll.set_pool(jpar::Pool::with_threads(max_threads));
    for p in S9_INDEX_PATHS {
        assert!(icoll.create_index(p), "index on {p} declared once");
    }
    println!(
        "collection: {} documents, pool: {max_threads} thread(s), indexes on {:?}",
        coll.len(),
        S9_INDEX_PATHS
    );

    // --- gate 2: explain/execute route agreement ----------------------
    println!(
        "{}",
        row(&[
            "workload".into(),
            "route".into(),
            "rows".into(),
            "probes".into(),
            "scanned".into(),
            "segments".into(),
        ])
    );
    let mut route_entries = Vec::new();
    let mut routes_seen = [false; 2];
    for (label, src, expected_route) in s10_route_workloads() {
        let f = mongofind::Filter::parse_str(src).expect("workload filter parses");
        let ex = icoll.explain(&f);
        assert_eq!(
            ex.route.name(),
            expected_route,
            "S10 gate: planner picked an unexpected route on {label}"
        );
        let an = icoll
            .explain_analyze(&f)
            .expect("ungoverned explain_analyze never trips");
        assert_eq!(
            an.plan.route, ex.route,
            "S10 gate: analyze plan route differs from explain on {label}"
        );
        // The routed execution must return exactly what the scan oracle
        // returns.
        assert_eq!(
            an.rows,
            scan_refs(&icoll, &f).len(),
            "S10 gate: routed row count differs from the scan oracle on {label}"
        );
        let probes = an.counters.get(Counter::IndexProbes);
        let scanned = an.counters.get(Counter::DocsScanned);
        let segments = an.counters.get(Counter::SegmentsVisited);
        // The claimed route must be the one the counters prove ran, with
        // the unchosen routes' counters at zero.
        match ex.route {
            Route::Index => {
                assert!(
                    probes > 0,
                    "S10 gate: index route recorded no probes on {label}"
                );
                assert_eq!(
                    (scanned, segments),
                    (0, 0),
                    "S10 gate: index route touched scan/JNL counters on {label}"
                );
                routes_seen[0] = true;
            }
            Route::Scan => {
                assert!(
                    scanned > 0,
                    "S10 gate: scan route scanned no documents on {label}"
                );
                assert_eq!(
                    (probes, segments),
                    (0, 0),
                    "S10 gate: scan route touched index/JNL counters on {label}"
                );
                routes_seen[1] = true;
            }
        }
        println!(
            "{}",
            row(&[
                label.into(),
                ex.route.name().into(),
                an.rows.to_string(),
                probes.to_string(),
                scanned.to_string(),
                segments.to_string(),
            ])
        );
        route_entries.push(Val::obj(vec![
            ("workload", Val::str(label)),
            ("route", Val::str(ex.route.name())),
            ("rows", Val::int(an.rows as u64)),
            ("index_probes", Val::int(probes)),
            ("docs_scanned", Val::int(scanned)),
            ("segments_visited", Val::int(segments)),
            ("plan", Val::Raw(ex.to_json().to_string())),
        ]));
    }
    assert!(
        routes_seen.iter().all(|&b| b),
        "S10 gate: the route corpus must exercise both index and scan"
    );
    println!("route gate: every claimed route proven by its counters, both routes exercised");

    // --- gate 3: EXPLAIN ANALYZE vs reference cardinalities -----------
    let docs = coll.docs();
    let mut analyze_entries = Vec::new();
    for (label, src) in s5_pipelines() {
        let pipe = jagg::Pipeline::parse_str(src).expect("workload pipeline parses");
        let an =
            jagg::explain_analyze(&coll, &pipe).expect("ungoverned explain_analyze never trips");
        let expected = jagg::reference::stage_cardinalities(&docs, &pipe);
        let got: Vec<usize> = an.stages.iter().map(|s| s.rows_out).collect();
        assert_eq!(
            got, expected,
            "S10 gate: traced cardinalities differ from the reference on {label}"
        );
        assert_eq!(
            an.rows,
            *expected.last().expect("pipelines are non-empty"),
            "S10 gate: output row count differs from the final cardinality on {label}"
        );
        let fused = an.plan.stages.iter().filter(|s| s.fused).count();
        println!("analyze: {label}: stage rows {got:?} == reference ({fused} fused stage(s))");
        analyze_entries.push(Val::obj(vec![
            ("pipeline", Val::str(label)),
            (
                "stage_rows",
                Val::Arr(got.iter().map(|&n| Val::int(n as u64)).collect()),
            ),
            ("fused_stages", Val::int(fused as u64)),
            ("wall_us", Val::int(an.wall_us)),
        ]));
    }

    // --- gate 1: metrics overhead on the S6 + selective S9 workloads --
    fn once_ms<T>(f: impl FnOnce() -> T) -> f64 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_secs_f64() * 1e3
    }
    let sink = Arc::new(QueryMetrics::new());
    let mctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
    let mut overhead_entries = Vec::new();
    // The S7 paired estimator: each rep times metrics-off and metrics-on
    // back to back in alternating order, and the gate runs on the
    // minimum of per-pair deltas — one-sided interference spikes inflate
    // individual pairs, but a real per-record regression is present in
    // every pair, so the minimum still exposes it.
    let mut gate_overhead = |label: &str, base: &dyn Fn() -> usize, inst: &dyn Fn() -> usize| {
        assert_eq!(
            base(),
            inst(),
            "S10 gate: metrics changed output on {label}"
        );
        let mut pairs = Vec::with_capacity(31);
        for i in 0..31 {
            let (b, c) = if i % 2 == 0 {
                let b = once_ms(base);
                (b, once_ms(inst))
            } else {
                let c = once_ms(inst);
                (once_ms(base), c)
            };
            pairs.push((b, c));
        }
        fn median(mut xs: Vec<f64>) -> f64 {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        }
        let base_ms = median(pairs.iter().map(|&(b, _)| b).collect());
        let delta_ms = median(pairs.iter().map(|&(b, c)| c - b).collect());
        let min_delta_ms = pairs
            .iter()
            .map(|&(b, c)| c - b)
            .fold(f64::INFINITY, f64::min);
        let ctx_ms = base_ms + delta_ms;
        let pct = delta_ms / base_ms * 100.0;
        assert!(
            min_delta_ms <= base_ms * 0.02 + 0.25,
            "S10 gate: metrics overhead on {label}: {base_ms:.3} -> {ctx_ms:.3} ms \
             ({pct:+.2}% median, {min_delta_ms:.3} ms min paired delta)"
        );
        println!("overhead: {label} {base_ms:.3} -> {ctx_ms:.3} ms ({pct:+.2}%)");
        overhead_entries.push(Val::obj(vec![
            ("workload", Val::str(label)),
            ("base_ms", Val::float(base_ms, 4)),
            ("metrics_ms", Val::float(ctx_ms, 4)),
            ("overhead_pct", Val::float(pct, 3)),
        ]));
    };
    let find_filter = mongofind::Filter::parse_str(S6_FIND_FILTER).expect("filter parses");
    gate_overhead("find_scan", &|| coll.find(&find_filter).len(), &|| {
        coll.find_with_ctx(&find_filter, None, &mctx)
            .expect("metrics ctx never trips")
            .len()
    });
    for (label, src) in s6_pipelines() {
        let pipe = jagg::Pipeline::parse_str(src).expect("workload pipeline parses");
        gate_overhead(label, &|| jagg::aggregate(&coll, &pipe).len(), &|| {
            jagg::aggregate_with_ctx(&coll, &pipe, &mctx)
                .expect("metrics ctx never trips")
                .len()
        });
    }
    let probe_filter =
        mongofind::Filter::parse_str(r#"{"name.first": "Sue"}"#).expect("filter parses");
    gate_overhead(
        "indexed_probe",
        &|| routed_refs(&icoll, &probe_filter).len(),
        &|| {
            icoll
                .find_refs_with_ctx(&probe_filter, &mctx)
                .expect("metrics ctx never trips")
                .len()
        },
    );

    // --- the flight recorder: one spanned run, dumped as Chrome trace --
    let span_sink = Arc::new(QueryMetrics::with_spans(4096));
    let sctx = QueryCtx::new().with_metrics(Arc::clone(&span_sink));
    let pipe = jagg::Pipeline::parse_str(s6_pipelines()[0].1).expect("pipeline parses");
    jagg::aggregate_with_ctx(&icoll, &pipe, &sctx).expect("span ctx never trips");
    icoll
        .find_refs_with_ctx(&probe_filter, &sctx)
        .expect("span ctx never trips");
    let spans = span_sink.spans().expect("sink was built with a span log");
    let trace = spans.to_chrome_trace();
    assert!(
        spans.recorded() > 0 && trace.starts_with("{\"traceEvents\":["),
        "S10 gate: the span log recorded nothing"
    );
    println!(
        "span log: {} events recorded, {} dropped, chrome trace {} bytes",
        spans.recorded(),
        spans.dropped(),
        trace.len()
    );

    let report = Val::obj(vec![
        ("experiment", Val::str("s10_observability")),
        (
            "units",
            Val::str("ms (median of 31 paired metrics-off/metrics-on samples)"),
        ),
        (
            "gates",
            Val::str(
                "asserted: metrics-on overhead (minimum of 31 paired deltas) <= 2% + 0.25 ms \
                 on the S6 workloads and the selective indexed probe; every EXPLAIN route \
                 proven by its execution counters with unchosen routes at zero and rows equal \
                 to the scan oracle; EXPLAIN ANALYZE per-stage cardinalities equal the \
                 reference executor's on every S5 pipeline; span log non-empty",
            ),
        ),
        ("threads", Val::int(max_threads as u64)),
        ("overhead", Val::Arr(overhead_entries)),
        ("routes", Val::Arr(route_entries)),
        ("analyze", Val::Arr(analyze_entries)),
        (
            "span_log",
            Val::obj(vec![
                ("recorded", Val::int(spans.recorded())),
                ("dropped", Val::int(spans.dropped())),
                ("chrome_trace_bytes", Val::int(trace.len() as u64)),
            ]),
        ),
    ]);
    jsonout::write("BENCH_observability.json", &report);
}

/// S11 — the serving experiment: the `jserve` multi-tenant core under a
/// concurrent storm. Deterministic gates inside the harness:
///
/// 1. **Snapshot linearizability.** N client threads run a find/
///    aggregate/insert mix (with background compactions racing the
///    writers) and record every read result with the epoch of the
///    snapshot that produced it. Afterwards the committed log prefix of
///    each observed epoch is replayed serially onto the seed collection
///    and re-queried single-threaded: every concurrent observation must
///    be byte-identical to its serial replay.
/// 2. **Zero aborts under fault storms.** Hundreds of requests carrying
///    injected `Fault::PanicAtPoll` / `Fault::SleepAtPoll` faults (the
///    latter against a 50 ms tenant deadline) must all come back as
///    `Ok` or a *typed* `QueryError` — panics contained at the serve
///    boundary, deadlines enforced, no permit leaked, and the server
///    fully serviceable afterwards.
///
/// The persistent pool at max threads against one thread is gated by
/// `s6` (parallel output equal, parallel time within tolerance).
fn s11() {
    use std::time::Duration;

    use jguard::{Fault, QueryError, RetryPolicy};
    use jserve::{AdmissionConfig, Request, Response, Server, TenantSpec};

    header(
        "S11",
        "Serving — snapshot linearizability, fault storms, admission",
    );
    let max_threads = jpar::Pool::auto().threads();
    let text = s5_collection_text();
    let mut seed = mongofind::Collection::parse_str(&text).expect("workload parses");
    seed.set_pool(jpar::Pool::with_threads(max_threads));
    println!(
        "collection: {} documents, pool: {max_threads} thread(s)",
        seed.len()
    );

    let server = Server::new(
        seed,
        AdmissionConfig {
            max_inflight: max_threads.max(2) * 2,
            queue_cap: 256,
            max_queue_wait: Duration::from_millis(500),
        },
    );
    assert!(server.register_tenant(TenantSpec::new("readers")));
    assert!(server.register_tenant(TenantSpec::new("writer")));

    let find_req = Request::Find {
        filter: S6_FIND_FILTER.into(),
    };
    let agg_src = s6_pipelines()[0].1;
    let agg_req = Request::Aggregate {
        pipeline: agg_src.into(),
    };
    let render = |docs: &[jsondata::Json]| -> String {
        let parts: Vec<String> = docs.iter().map(|d| d.to_string()).collect();
        parts.join("\n")
    };

    // --- gate 1: concurrent storm + serial replay ---------------------
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 50;
    let mut shed = 0u64;
    let mut inserts = 0u64;
    let mut compactions = 0u64;
    let mut observations: Vec<(u64, usize, String)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            let server = &server;
            let find_req = &find_req;
            let agg_req = &agg_req;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(u64, usize, String)> = Vec::new();
                let mut my_shed = 0u64;
                let mut my_inserts = 0u64;
                for r in 0..ROUNDS {
                    if r % 5 == t {
                        let doc = format!(
                            r#"{{"id": {}, "name": {{"first": "S{t}", "last": "Storm"}}, "age": {}}}"#,
                            100_000 + t * ROUNDS + r,
                            (r * 7 + t) % 90
                        );
                        // Overloaded is retryable by contract; the
                        // jguard backoff helper is the serving-side way
                        // to ride out a burst.
                        match jguard::retry_with_backoff(RetryPolicy::default(), || {
                            server.serve("writer", &Request::Insert { doc: doc.clone() })
                        }) {
                            Ok(Response::Inserted { .. }) => my_inserts += 1,
                            Ok(other) => panic!("insert returned {other:?}"),
                            Err(QueryError::Overloaded) => my_shed += 1,
                            Err(e) => panic!("S11: insert failed with {e}"),
                        }
                    }
                    for (which, req) in [(0usize, find_req), (1, agg_req)] {
                        match server.serve("readers", req) {
                            Ok(Response::Docs { epoch, docs }) => {
                                local.push((epoch, which, render(&docs)));
                            }
                            Ok(other) => panic!("read verb returned {other:?}"),
                            Err(QueryError::Overloaded) => my_shed += 1,
                            Err(e) => panic!("S11: storm hit a non-admission error: {e}"),
                        }
                    }
                }
                (local, my_shed, my_inserts)
            }));
        }
        let compactor = scope.spawn(|| {
            let mut done = 0u64;
            for _ in 0..8 {
                if server.store().compact() {
                    done += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            done
        });
        for h in handles {
            let (local, my_shed, my_inserts) = h.join().expect("client thread never panics");
            observations.extend(local);
            shed += my_shed;
            inserts += my_inserts;
        }
        compactions = compactor.join().expect("compactor never panics");
    });

    observations.sort_by_key(|a| a.0);
    let mut replay = mongofind::Collection::parse_str(&text).expect("workload parses");
    replay.set_pool(jpar::Pool::serial());
    let find_filter = mongofind::Filter::parse_str(S6_FIND_FILTER).expect("filter parses");
    let agg_pipe = jagg::Pipeline::parse_str(agg_src).expect("pipeline parses");
    let log = server.store().log_prefix(usize::MAX);
    assert_eq!(log.len() as u64, inserts, "commit log holds every insert");
    let mut replayed = 0usize;
    let mut cached: Option<(u64, [String; 2])> = None;
    let mut epochs_checked = 0u64;
    for (epoch, which, rendered) in &observations {
        while (replayed as u64) < *epoch {
            replay
                .insert_str(&log[replayed])
                .expect("committed log entries replay");
            replayed += 1;
        }
        let fresh = !matches!(&cached, Some((e, _)) if e == epoch);
        if fresh {
            cached = Some((
                *epoch,
                [
                    render(&replay.find(&find_filter)),
                    render(&jagg::aggregate(&replay, &agg_pipe)),
                ],
            ));
            epochs_checked += 1;
        }
        let (_, expect) = cached.as_ref().expect("just filled");
        assert_eq!(
            rendered, &expect[*which],
            "S11 gate: concurrent result at epoch {epoch} differs from its serial replay"
        );
    }
    println!(
        "linearizability: {} observations across {} epochs byte-identical to serial replay \
         ({} inserts committed, {} compactions published, {} requests shed)",
        observations.len(),
        epochs_checked,
        inserts,
        compactions,
        shed
    );
    assert!(
        !observations.is_empty(),
        "S11 gate: the storm produced no observations"
    );

    // --- gate 2: fault storm, typed errors only -----------------------
    let mut chaos = TenantSpec::new("chaos");
    chaos.timeout = Some(Duration::from_millis(50));
    assert!(server.register_tenant(chaos));
    const FAULTS: u64 = 200;
    let mut ok = 0u64;
    let mut contained = 0u64;
    let mut deadlines = 0u64;
    let mut fault_shed = 0u64;
    jguard::with_quiet_panics(|| {
        for i in 0..FAULTS {
            let fault = if i % 2 == 0 {
                Fault::PanicAtPoll(1 + i % 7)
            } else {
                Fault::SleepAtPoll { at: 1, millis: 100 }
            };
            let req = if i % 3 == 0 { &agg_req } else { &find_req };
            match server.serve_with_fault("chaos", req, fault) {
                Ok(_) => ok += 1,
                Err(QueryError::WorkerPanicked { .. }) => contained += 1,
                Err(QueryError::Deadline) => deadlines += 1,
                Err(QueryError::Overloaded) => fault_shed += 1,
                Err(e) => panic!("S11 gate: fault storm produced an unexpected error: {e}"),
            }
        }
    });
    assert!(
        contained > 0,
        "S11 gate: no injected panic reached the containment boundary"
    );
    assert!(
        deadlines > 0,
        "S11 gate: no injected sleep tripped the tenant deadline"
    );
    assert_eq!(
        server.admission().inflight(),
        0,
        "S11 gate: the fault storm leaked admission permits"
    );
    let Ok(Response::Docs { docs, .. }) = server.serve("readers", &find_req) else {
        panic!("S11 gate: server unserviceable after the fault storm")
    };
    assert!(!docs.is_empty());
    println!(
        "fault storm: {FAULTS} injected ({ok} ok, {contained} panics contained, \
         {deadlines} deadlines, {fault_shed} shed), zero aborts, zero leaked permits"
    );

    let report = Val::obj(vec![
        ("experiment", Val::str("s11_serving")),
        (
            "gates",
            Val::str(
                "asserted: every concurrent read byte-identical to the serial replay of its \
                 snapshot's committed log prefix (storms + compactions racing); fault storm \
                 of injected panics/sleeps yields typed errors only with zero aborts and \
                 zero leaked permits, server serviceable after",
            ),
        ),
        ("threads", Val::int(max_threads as u64)),
        (
            "storm",
            Val::obj(vec![
                ("clients", Val::int(CLIENTS as u64)),
                ("rounds", Val::int(ROUNDS as u64)),
                ("observations", Val::int(observations.len() as u64)),
                ("epochs_checked", Val::int(epochs_checked)),
                ("inserts", Val::int(inserts)),
                ("compactions", Val::int(compactions)),
                ("shed", Val::int(shed)),
            ]),
        ),
        (
            "faults",
            Val::obj(vec![
                ("injected", Val::int(FAULTS)),
                ("ok", Val::int(ok)),
                ("panics_contained", Val::int(contained)),
                ("deadlines", Val::int(deadlines)),
                ("shed", Val::int(fault_shed)),
            ]),
        ),
    ]);
    jsonout::write("BENCH_serving.json", &report);
}
