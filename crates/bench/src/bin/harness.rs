//! The experiment harness. The `e*` modes print the per-proposition
//! measurement tables that reproduce the paper's complexity claims (`t1`
//! its Table 1); the `s*` modes assert deterministic gates on the engines
//! built on them and write one `BENCH_*.json` report each, in the shape
//! of [`bench::jsonout`].
//!
//! ```sh
//! cargo run -p bench --release --bin harness          # all experiments
//! cargo run -p bench --release --bin harness -- e1 e7 # a subset
//! cargo run -p bench --release --bin harness -- compare old.json new.json
//! ```
//!
//! `compare` prints two reports of one experiment side by side, metric by
//! metric, marking wall-clock metrics (`ms`, `us`, `%` overheads) and
//! schedule-dependent counts as noisy; it fails when the experiments or
//! the metric sets differ.

use bench::jsonout::{Better, Report};
use bench::*;
use jsondata::JsonTree;

/// S4–S8, S10 and S11 count allocations with `bench::memtrack`, so the
/// harness installs its counting allocator. The counters are disabled
/// outside `memtrack::measure` windows (one relaxed bool load per
/// allocation), so no experiment's *timed* region is instrumented.
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
    if let [cmd, old, new] = args.as_slice() {
        if cmd == "compare" {
            return compare(old, new);
        }
    }
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

/// `harness compare old.json new.json`: every metric's old and new
/// value, the relative change and its `better` direction.
fn compare(old: &str, new: &str) -> std::process::ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let changes = match read(old).and_then(|o| bench::jsonout::compare(&o, &read(new)?)) {
        Ok(changes) => changes,
        Err(e) => {
            eprintln!("harness compare: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!(
        "{:<48} {:>14} {:>14} {:>9}  better",
        "metric", "old", "new", "change"
    );
    for c in &changes {
        let pct = if c.old == 0.0 {
            "-".to_owned()
        } else {
            format!("{:+.1}%", (c.new - c.old) / c.old * 100.0)
        };
        println!(
            "{:<48} {:>14} {:>14} {:>9}  {}{}",
            c.name,
            c.old,
            c.new,
            pct,
            c.better,
            if c.noisy() { "  noisy" } else { "" }
        );
    }
    let changed = changes.iter().filter(|c| c.changed());
    let quiet: Vec<&str> = changed
        .clone()
        .filter(|c| !c.noisy())
        .map(|c| c.name.as_str())
        .collect();
    println!(
        "{} of {} metric(s) changed; not noisy: {}",
        changed.count(),
        changes.len(),
        if quiet.is_empty() {
            "none".to_owned()
        } else {
            quiet.join(", ")
        }
    );
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
    println!("the literal appendix construction and the CPS variant stay linear.");
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
                },
            )
        });
        let canon = time_ms(3, || {
            jsl::eval::evaluate_with(
                &tree,
                &phi,
                EvalOptions {
                    unique: UniqueStrategy::Canonical,
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

/// A [`jsondata::gen::GenConfig`] whose leaf strings take every byte
/// length from 0 to 48, some with two-byte characters, so the paper
/// experiments' documents hold strings on both sides of `JStr`'s inline
/// limit and characters that straddle it.
fn paper_probe_cfg(seed: u64, target_nodes: usize) -> jsondata::gen::GenConfig {
    let string_pool = (0..=48)
        .map(|n: usize| "é".repeat(n / 4) + &"x".repeat(n - 2 * (n / 4)))
        .collect();
    jsondata::gen::GenConfig {
        string_pool,
        ..jsondata::gen::GenConfig::sized(seed, target_nodes)
    }
}

/// E11 — Thm 1: schema ⇔ JSL differential.
fn e11() {
    header("E11", "Thm 1 — Schema <-> JSL differential agreement");
    let mut checked = 0usize;
    let mut agreed = 0usize;
    for seed in 0..400u64 {
        let examples: Vec<jsondata::Json> = (0..3)
            .map(|i| jsondata::gen::random_json(&paper_probe_cfg(seed * 3 + i, 60)))
            .collect();
        let schema = jschema::infer(&examples);
        let delta = jschema::schema_to_jsl(&schema).unwrap();
        for probe_seed in 0..5u64 {
            let probe =
                jsondata::gen::random_json(&paper_probe_cfg(9_000 + seed * 5 + probe_seed, 40));
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
    assert_eq!(
        agreed, checked,
        "E11 gate: the validator and the Thm 1 JSL translation must agree on every pair"
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
        let probe = jsondata::gen::random_json(&paper_probe_cfg(seed, 30));
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
    assert_eq!(
        agreed, checked,
        "E12 gate: the recursive schema and its recursive JSL must agree on every document"
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
    assert!(
        all_agree,
        "T1 gate: every Table 1 keyword must give the expected verdict through both routes"
    );
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

/// S3 — the DFA-bitset experiment: regex edge matching through
/// precomputed symbol bitsets on regex-heavy E1/E7-style workloads over
/// high-distinct-key trees, checked against oracles that share no matcher
/// code with the engines. Gates:
///
/// 1. on `e1_jnl_regex_nav`, `pdl::eval` equals `jnl::eval::naive`, which
///    runs a raw NFA per edge; `cubic::eval` equals it on the workload's
///    first 256 objects (its relation rows take `|J|²` bits, 170 MB at full
///    size);
/// 2. on `e7_jsl_pattern_props`, `jsl::eval::evaluate` equals the
///    streaming validator run on every node's subtree
///    (`jsl::streaming::node_set`: compiled NFAs on raw strings);
/// 3. `jnl::eval::evaluate_ctx` on `e1_jnl_regex_nav` records exactly one
///    `dfa_bitset_builds`: its one regex takes the bitset, not the memo.
///
/// Engine times are medians of 5; each oracle runs once. All are written
/// to `BENCH_dfa_bitset.json`.
fn s3() {
    use jtrace::{Counter, QueryMetrics};
    use std::sync::Arc;

    header("S3", "DFA symbol bitsets — engines vs independent oracles");
    let mut report = Report::new("s3_dfa_bitset");

    // --- E1-style: JNL regex navigation, 4096 objects × 8 keys, all 32k
    // keys distinct ---
    let (n_objects, keys_each) = (4096usize, 8usize);
    let tree = JsonTree::build(&s3_jnl_doc(n_objects, keys_each));
    let phi = s3_jnl_workload();
    let t0 = std::time::Instant::now();
    let oracle = jnl::eval::naive::eval(&tree, &phi);
    let e1_oracle = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        jnl::eval::pdl::eval(&tree, &phi).unwrap(),
        oracle,
        "S3 gate: pdl disagrees with the naive oracle on e1_jnl_regex_nav"
    );
    let small = JsonTree::build(&s3_jnl_doc(256, keys_each));
    assert_eq!(
        jnl::eval::cubic::eval(&small, &phi),
        jnl::eval::naive::eval(&small, &phi),
        "S3 gate: cubic disagrees with the naive oracle on e1_jnl_regex_nav (256 objects)"
    );
    let sink = Arc::new(QueryMetrics::new());
    let ctx = jguard::QueryCtx::new().with_metrics(Arc::clone(&sink));
    assert_eq!(jnl::eval::evaluate_ctx(&tree, &phi, &ctx).unwrap(), oracle);
    let builds = sink.get(Counter::DfaBitsetBuilds);
    assert_eq!(
        builds, 1,
        "S3 gate: evaluate_ctx on e1_jnl_regex_nav made {builds} DFA bitset build(s), expected 1"
    );
    let e1_bits = time_ms(5, || jnl::eval::pdl::eval(&tree, &phi).unwrap());
    let e1_hits = oracle.iter().filter(|&&b| b).count();

    // --- E7-style: JSL patternProperties over 32k keys + 32k string atoms ---
    let n_props = 32_768usize;
    let jsl_tree = JsonTree::build(&s3_doc(n_props));
    let psi = s3_jsl_formula();
    let t0 = std::time::Instant::now();
    let jsl_oracle = jsl::streaming::node_set(&psi, &jsl_tree).expect("streamable formula");
    let e7_oracle = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        jsl::eval::evaluate(&jsl_tree, &psi),
        jsl_oracle,
        "S3 gate: jsl::eval disagrees with the per-node streaming oracle on e7_jsl_pattern_props"
    );
    let e7_bits = time_ms(5, || jsl::eval::evaluate(&jsl_tree, &psi));
    let e7_hits = jsl_oracle.iter().filter(|&&b| b).count();

    report.gate(format!(
        "pdl == naive on e1_jnl_regex_nav ({} distinct keys, {e1_hits} hit(s)), cubic == naive \
         on its first 256 objects; jsl::eval == per-node streaming on e7_jsl_pattern_props \
         ({n_props} properties, {e7_hits} hit(s))",
        n_objects * keys_each
    ));
    report.gate("evaluate_ctx on e1_jnl_regex_nav records dfa_bitset_builds == 1");
    for (workload, bits, oracle_ms) in [
        ("e1_jnl_regex_nav", e1_bits, e1_oracle),
        ("e7_jsl_pattern_props", e7_bits, e7_oracle),
    ] {
        report.ms(format!("{workload}.bitset_ms"), bits);
        report.ms(format!("{workload}.oracle_ms"), oracle_ms);
    }
    report.count("e1_jnl_regex_nav.dfa_bitset_builds", builds, Better::Lower);
    report.write("BENCH_dfa_bitset.json");
}

/// The most live bytes per node an S4 workload's fused tree and its
/// canonical-label table may retain together (S4 gate 3). The node
/// columns take 29 bytes, and the class vector, class index and
/// signature buffer about 15 more; per-node `height`/`size` columns,
/// doubling slack left in a node column, or a heap signature per class
/// each break it (70.6 on `person_records_20k` with the last two).
const S4_RETAINED_BYTES_PER_NODE: f64 = 56.0;

/// The most heap allocations one `CanonTable::build` may make on an S4
/// workload (S4 gate 3): a fixed set of buffers grown by doubling,
/// O(log n), never one per container or per class.
const S4_CANON_ALLOCS: u64 = 64;

/// S4 — the parser→tree fusion experiment: the fused `parse_to_tree`
/// single pass vs the two-pass `parse` + `JsonTree::build` pipeline, on the
/// large-document workloads. Three deterministic gates run inside the
/// harness: the fused tree must be node-for-node identical to the two-pass
/// tree (arena layout + symbol table + canon classes), and the fused path
/// must make at most 1/10 of the two-pass pipeline's heap allocations and
/// peak at fewer live bytes (`bench::memtrack`). Fusion never materialises
/// the owned `Json` the two-pass route builds first, one allocation per
/// container and string, and it allocates per buffer, not per node: one
/// allocation per node or per string fails the ratio (the two-pass route
/// makes 1–1.5 per node). The third gate bounds what a loaded column
/// keeps: the fused tree and its canonical-label table must retain at
/// most [`S4_RETAINED_BYTES_PER_NODE`] live bytes per node together, and
/// the table's build must make at most [`S4_CANON_ALLOCS`] allocations.
/// Times
/// (medians of 9), allocation profiles and retained bytes land in
/// `BENCH_parse_fusion.json`.
fn s4() {
    header(
        "S4",
        "Parser→tree fusion — fused parse_to_tree vs parse + JsonTree::build",
    );
    let mut report = Report::new("s4_parse_fusion");
    report
        .gate("fused tree identical to parse + JsonTree::build (layout + symbols + canon classes)");
    report.gate(
        "fused allocations at most 1/10 of the two-pass pipeline's; fused peak live bytes below it",
    );
    report.gate(format!(
        "fused tree plus canon table retain at most {S4_RETAINED_BYTES_PER_NODE} bytes per \
         node; CanonTable::build makes at most {S4_CANON_ALLOCS} allocations"
    ));
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
        drop((fused, two_pass, doc));

        let two_ms = time_ms(9, || {
            let doc = jsondata::parse(&src).expect("parses");
            JsonTree::build(&doc)
        });
        let fused_ms = time_ms(9, || jsondata::parse_to_tree(&src).expect("parses"));
        let (t, fused) = memtrack::measure(|| jsondata::parse_to_tree(&src).unwrap());
        drop(t);
        let (t, two) = memtrack::measure(|| {
            let doc = jsondata::parse(&src).unwrap();
            JsonTree::build(&doc)
        });
        drop(t);
        // Deterministic gate 2: no intermediate `Json`, no per-node
        // allocation.
        assert!(
            fused.allocs * 10 <= two.allocs && fused.peak_bytes < two.peak_bytes,
            "S4 gate: the fused path allocates like two-pass on {label}: \
             {} vs {} allocations (at most 1/10 allowed), {} vs {} peak bytes",
            fused.allocs,
            two.allocs,
            fused.peak_bytes,
            two.peak_bytes
        );
        report.ms(format!("{label}.two_pass_ms"), two_ms);
        report.ms(format!("{label}.fused_ms"), fused_ms);
        report.count(
            format!("{label}.two_pass_allocs"),
            two.allocs,
            Better::Lower,
        );
        report.count(format!("{label}.fused_allocs"), fused.allocs, Better::Lower);
        report.bytes(format!("{label}.two_pass_peak_bytes"), two.peak_bytes);
        report.bytes(format!("{label}.fused_peak_bytes"), fused.peak_bytes);

        // Deterministic gate 3: what a loaded column keeps, per node.
        let (tree, kept) = memtrack::measure(|| jsondata::parse_to_tree(&src).unwrap());
        let (canon, canon_kept) = memtrack::measure(|| jsondata::CanonTable::build(&tree));
        let nodes = tree.node_count() as f64;
        let tree_per_node = kept.live_bytes as f64 / nodes;
        let canon_per_node = canon_kept.live_bytes as f64 / nodes;
        let canon_ms = time_ms(9, || jsondata::CanonTable::build(&tree));
        drop((canon, tree));
        println!(
            "{label}: tree {tree_per_node:.2} + canon {canon_per_node:.2} bytes/node retained, \
             canon build {} allocations",
            canon_kept.allocs
        );
        assert!(
            tree_per_node + canon_per_node <= S4_RETAINED_BYTES_PER_NODE,
            "S4 gate: tree plus canon retain {:.2} bytes per node on {label} (at most \
             {S4_RETAINED_BYTES_PER_NODE} allowed)",
            tree_per_node + canon_per_node
        );
        assert!(
            canon_kept.allocs <= S4_CANON_ALLOCS,
            "S4 gate: CanonTable::build made {} allocations on {label} (at most \
             {S4_CANON_ALLOCS} allowed)",
            canon_kept.allocs
        );
        report.ms(format!("{label}.canon_ms"), canon_ms);
        report.count(
            format!("{label}.canon_allocs"),
            canon_kept.allocs,
            Better::Lower,
        );
        report.metric(
            format!("{label}.tree_retained_bytes_per_node"),
            tree_per_node,
            "bytes/node",
            Better::Lower,
        );
        report.metric(
            format!("{label}.canon_retained_bytes_per_node"),
            canon_per_node,
            "bytes/node",
            Better::Lower,
        );
    }
    report.write("BENCH_parse_fusion.json");
}

/// S5 — the aggregation experiment: the `jagg` tree-backed pipeline
/// executor (cursor rows + overlay bindings over the collection's tree
/// column) vs the naive value-based reference executor, on a 20k-record
/// collection. Three gates run inside the harness, all on every
/// pipeline: both executors must produce identical output documents;
/// one `jagg::aggregate` call may make at most 1/10 of the heap
/// allocations of one `jagg::reference::aggregate` call, which clones
/// every document into owned rows first (cloning the rows back in costs
/// more than that); and one `jagg::aggregate` call may add at most
/// [`S5_ALLOCS_PER_ROW_MAX`] allocations per added input document between
/// [`S5_ALLOC_SIZES`], so `$group` allocates per distinct key and per
/// output and a top-k block projects its survivors only. The counts are
/// by `bench::memtrack`; times (medians of 9) are reported in
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
    let mut report = Report::new("s5_aggregate");
    report.gate("tree executor output == jagg::reference output");
    report.gate(format!(
        "jagg::aggregate allocations <= 1/{S5_REFERENCE_ALLOC_RATIO} of jagg::reference::aggregate's"
    ));
    report.gate(format!(
        "jagg::aggregate adds <= {S5_ALLOCS_PER_ROW_MAX} allocations per added input document \
         between {} and {} documents",
        S5_ALLOC_SIZES[0], S5_ALLOC_SIZES[1]
    ));
    for (label, src) in s5_pipelines() {
        let pipe = jagg::Pipeline::parse_str(src).expect("workload pipeline parses");
        // Deterministic gate 1: output-for-output agreement.
        let via_tree = jagg::aggregate(&coll, &pipe);
        let (via_value, reference) = memtrack::measure(|| jagg::reference::aggregate(&docs, &pipe));
        assert_eq!(
            via_tree, via_value,
            "S5 gate: tree executor disagrees with the value reference on {label}"
        );
        drop((via_tree, via_value));

        let ref_ms = time_ms(9, || jagg::reference::aggregate(&docs, &pipe));
        let tree_ms = time_ms(9, || jagg::aggregate(&coll, &pipe));
        let [(small, a_small), (large, a_large)] = s5_allocs(&pipe);
        // Deterministic gate 2: the tree executor reads the column in
        // place; it never clones the documents into rows.
        assert!(
            a_large * S5_REFERENCE_ALLOC_RATIO <= reference.allocs,
            "S5 gate: the tree executor makes {a_large} allocations on {label}, more than \
             1/{S5_REFERENCE_ALLOC_RATIO} of the value reference's {}",
            reference.allocs
        );
        let per_row = (a_large as f64 - a_small as f64) / (large - small) as f64;
        // Deterministic gate 3: nothing allocates per input row.
        assert!(
            per_row <= S5_ALLOCS_PER_ROW_MAX,
            "S5 gate: {label} adds {per_row:.3} allocations per added input row \
             ({a_small} at {small} docs, {a_large} at {large}); the bound is {S5_ALLOCS_PER_ROW_MAX}"
        );
        report.ms(format!("{label}.reference_ms"), ref_ms);
        report.ms(format!("{label}.tree_ms"), tree_ms);
        report.count(
            format!("{label}.reference_allocs"),
            reference.allocs,
            Better::Lower,
        );
        report.count(format!("{label}.allocs"), a_large, Better::Lower);
        report.metric(
            format!("{label}.allocs_per_added_row"),
            per_row,
            "count",
            Better::Lower,
        );
    }
    report.write("BENCH_aggregate.json");
}

/// S5's reference bound: one `jagg::aggregate` call may make at most
/// 1/this of the allocations of `jagg::reference::aggregate` on the same
/// pipeline and documents.
const S5_REFERENCE_ALLOC_RATIO: u64 = 10;

/// S5's per-row bound: heap allocations one `jagg::aggregate` call may
/// add per added input document. A per-row owned key, observation or
/// binding costs at least one allocation per row, ten times this.
const S5_ALLOCS_PER_ROW_MAX: f64 = 0.1;

/// The collection sizes (`person_records(n, 7)`) S5's per-row gate
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

/// A query the S6, S7 and S10 gates run on any pool under any context.
type Workload = Box<dyn Fn(&mongofind::Collection, &jguard::QueryCtx) -> Vec<jsondata::Json>>;

/// The S6 workloads: the chunk-parallel find scan ([`S6_FIND_FILTER`])
/// and the two [`s6_pipelines`].
fn s6_workloads() -> Vec<(&'static str, Workload)> {
    let find = mongofind::Filter::parse_str(S6_FIND_FILTER).expect("filter parses");
    let find = jagg::Pipeline::find(find, Default::default());
    let mut all: Vec<(&'static str, Workload)> = vec![(
        "find_scan",
        Box::new(move |c, ctx| {
            jagg::aggregate_with_ctx(c, &find, ctx).expect("the context never trips")
        }),
    )];
    for (label, src) in s6_pipelines() {
        let pipe = jagg::Pipeline::parse_str(src).expect("workload pipeline parses");
        all.push((
            label,
            Box::new(move |c, ctx| {
                jagg::aggregate_with_ctx(c, &pipe, ctx).expect("the context never trips")
            }),
        ));
    }
    all
}

/// Runs `run` under a fresh metrics sink: its output and the counters it
/// recorded.
fn metered<T>(run: impl FnOnce(&jguard::QueryCtx) -> T) -> (T, jtrace::Snapshot) {
    let sink = std::sync::Arc::new(jtrace::QueryMetrics::new());
    let out = run(&jguard::QueryCtx::new().with_metrics(std::sync::Arc::clone(&sink)));
    (out, sink.snapshot())
}

/// The fixed thread count of S6's dispatch gate, independent of the
/// machine it runs on.
const S6_THREADS: usize = 4;

/// S6 — the parallel-execution experiment: the pool-driven find/aggregate
/// paths over the 20k-record collection, plus the fragmented (one segment
/// per insert) vs compacted segment layouts. Deterministic gates inside
/// the harness:
///
/// 1. output at [`S6_THREADS`] threads and at the default thread count
///    must be **byte-identical** to the serial pool's on every workload
///    (the `jpar` chunk-splicing contract);
/// 2. at `Pool::with_threads(S6_THREADS)` every workload must dispatch at
///    least [`S6_THREADS`] chunks, and more than on the serial pool: the
///    query paths split their work for the pool. (That helper threads
///    then run those chunks is pinned by `jpar`'s rendezvous test.)
/// 3. after `Collection::compact()`, the JNL oracle must visit one
///    segment instead of one per insert, with identical results.
///
/// Times at 1 thread and at the default thread count, and on both
/// layouts, are medians of 9, reported in `BENCH_parallel.json`.
fn s6() {
    use jpar::Pool;
    use jtrace::Counter;

    header(
        "S6",
        "Parallel execution — chunk dispatch, serial-identical output, compaction",
    );
    let max_threads = Pool::auto().threads();
    let text = s5_collection_text();
    let mut coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    let unlimited = jguard::QueryCtx::unlimited();
    let mut report = Report::new("s6_parallel");
    report.gate(format!(
        "output at {S6_THREADS} threads and at the default thread count == serial output"
    ));
    report.gate(format!(
        "every workload dispatches >= {S6_THREADS} chunks at {S6_THREADS} threads, \
         and more than on the serial pool"
    ));
    report.gate("compacted layout: the JNL oracle visits 1 segment, with identical results");
    for (label, run) in s6_workloads() {
        coll.set_pool(Pool::serial());
        let (serial_out, serial) = metered(|ctx| run(&coll, ctx));
        coll.set_pool(Pool::with_threads(S6_THREADS));
        let (out, par) = metered(|ctx| run(&coll, ctx));
        // Gate 1: byte-identical output for every thread count.
        assert_eq!(
            out, serial_out,
            "S6 gate: output at {S6_THREADS} threads differs from serial on {label}"
        );
        // Gate 2: the work is split for the pool.
        let (chunks, serial_chunks) = (
            par[Counter::ChunksDispatched],
            serial[Counter::ChunksDispatched],
        );
        assert!(
            chunks >= S6_THREADS as u64 && chunks > serial_chunks,
            "S6 gate: {label} dispatched {chunks} chunk(s) at {S6_THREADS} threads \
             and {serial_chunks} serially: the pool was not given the work"
        );
        coll.set_pool(Pool::serial());
        let seq_ms = time_ms(9, || run(&coll, &unlimited));
        coll.set_pool(Pool::with_threads(max_threads));
        assert_eq!(
            run(&coll, &unlimited),
            serial_out,
            "S6 gate: output at {max_threads} threads differs from serial on {label}"
        );
        let par_ms = time_ms(9, || run(&coll, &unlimited));
        report.ms(format!("{label}.sequential_ms"), seq_ms);
        report.ms(format!("{label}.parallel_ms"), par_ms);
        report.count(format!("{label}.chunks_dispatched"), chunks, Better::Higher);
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
    // One layout's JNL results, segments visited and allocations (on the
    // serial pool, so the count does not depend on the thread schedule),
    // then its JNL and aggregate times at the default thread count.
    let mut layout = |label: &str, frag: &mut mongofind::Collection| {
        frag.set_pool(Pool::serial());
        let ((out, profile), c) = metered(|ctx| {
            memtrack::measure(|| {
                frag.find_refs_via_jnl_with_ctx(&jnl_filter, ctx)
                    .expect("the context never trips")
            })
        });
        frag.set_pool(Pool::with_threads(max_threads));
        let out: Vec<jsondata::Json> = out.into_iter().map(|d| frag.json_of(d)).collect();
        let visited = c[Counter::SegmentsVisited];
        report.ms(
            format!("{label}.jnl_ms"),
            time_ms(9, || jnl_refs(frag, &jnl_filter)),
        );
        report.ms(
            format!("{label}.agg_ms"),
            time_ms(9, || jagg::aggregate(frag, &agg)),
        );
        report.count(format!("{label}.segments_visited"), visited, Better::Lower);
        report.count(format!("{label}.jnl_allocs"), profile.allocs, Better::Lower);
        (out, jagg::aggregate(frag, &agg), visited)
    };
    let (frag_out, frag_agg_out, frag_visited) = layout("fragmented", &mut frag);
    frag.compact();
    let (comp_out, comp_agg_out, comp_visited) = layout("compacted", &mut frag);
    assert_eq!(
        comp_out, frag_out,
        "S6 gate: compaction changed JNL results"
    );
    assert_eq!(
        comp_agg_out, frag_agg_out,
        "S6 gate: compaction changed aggregate results"
    );
    // Gate 3: the fragmented layout pays one whole-tree JNL evaluation
    // per segment; the compacted one pays one.
    assert!(
        comp_visited == 1 && frag_visited > 1,
        "S6 gate: the JNL oracle visits {frag_visited} segment(s) fragmented and \
         {comp_visited} compacted ({n_frag} inserts); compaction must leave 1"
    );
    report.write("BENCH_parallel.json");
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
///    workloads allocates exactly what the ungoverned paths do, and
///    passes the paired wall-clock bound of [`ctx_overhead`] (2% +
///    0.25 ms on the minimum of 31 paired deltas).
fn s7() {
    use std::time::Duration;

    use std::sync::Arc;

    use jguard::{Fault, QueryCtx, QueryError, Resource, INJECTED_PANIC_MSG};
    use jtrace::QueryMetrics;

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
    let find = jagg::Pipeline::find(find_filter.clone(), Default::default());
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
        let ms = time_ms(1, || {
            assert!(
                matches!(
                    jagg::aggregate_with_ctx(&coll, &find, &cancelled),
                    Err(QueryError::Cancelled)
                ),
                "S7 gate: cancelled query did not return Cancelled"
            );
        });
        grace.push(("cancelled_find", ms));
        let expired = QueryCtx::new().with_timeout(Duration::ZERO);
        let ms = time_ms(1, || {
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
        let ms = time_ms(1, || {
            assert!(
                matches!(
                    jagg::aggregate_with_ctx(&coll, &find, &no_rows),
                    Err(QueryError::BudgetExceeded {
                        resource: Resource::Rows
                    })
                ),
                "S7 gate: zero row budget did not return BudgetExceeded"
            );
        });
        grace.push(("row_budget_find", ms));
        let no_bytes = QueryCtx::new().with_byte_budget(1);
        let ms = time_ms(1, || {
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
        let ms = time_ms(1, || {
            assert!(
                matches!(
                    jagg::aggregate_with_ctx(&coll, &find, &slow),
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
    // Gate 3 also runs S9's probe+residual workload on the index route,
    // whose residual loop polls on the calling thread, outside any chunk.
    let mut indexed = coll.clone();
    for path in S9_INDEX_PATHS {
        indexed.create_index(path);
    }
    let (_, residual_src) = s9_workloads()
        .into_iter()
        .find(|(label, _)| *label == "probe_residual")
        .expect("S9 defines the probe+residual workload");
    let residual = mongofind::Filter::parse_str(residual_src).expect("filter parses");
    assert_eq!(
        indexed.route_of(&residual),
        mongofind::Route::Index,
        "S7 setup: the residual filter must take the index route"
    );
    let base_residual = indexed.find(&residual);
    let residual_find = jagg::Pipeline::find(residual.clone(), Default::default());
    // Runs one query under its own sink and a fault at poll `k`: a
    // contained panic must surface as WorkerPanicked and leave exactly one
    // audit event there. Returns whether the query panicked.
    fn sweep(
        what: &str,
        k: u64,
        base: &[jsondata::Json],
        run: impl Fn(&QueryCtx) -> Result<Vec<jsondata::Json>, QueryError>,
    ) -> bool {
        let sink = Arc::new(QueryMetrics::new());
        let ctx = QueryCtx::new()
            .with_metrics(Arc::clone(&sink))
            .with_fault(Fault::PanicAtPoll(k));
        let r = run(&ctx);
        let events = sink.panic_events().len();
        match r {
            Ok(v) => {
                assert_eq!(v, base, "S7 gate: fault-free {what} diverged at k={k}");
                assert_eq!(
                    events, 0,
                    "S7 gate: a clean {what} left audit events at k={k}"
                );
                false
            }
            Err(QueryError::WorkerPanicked { payload, .. }) => {
                assert!(
                    payload.contains(INJECTED_PANIC_MSG),
                    "S7 gate: foreign panic payload from {what} at k={k}: {payload}"
                );
                assert_eq!(
                    events, 1,
                    "S7 gate: a contained panic in {what} left {events} audit events at k={k}"
                );
                true
            }
            Err(e) => panic!("S7 gate: injected panic in {what} surfaced as {e} at k={k}"),
        }
    }
    let (contained, storm_failures) = jguard::with_quiet_panics(|| {
        let mut contained = 0u32;
        for k in [1u64, 2, 3, 5, 8, 13, 21, 34, 55] {
            let hits = [
                sweep("find", k, &base_find, |ctx| {
                    jagg::aggregate_with_ctx(&coll, &find, ctx)
                }),
                sweep("indexed find", k, &base_residual, |ctx| {
                    jagg::aggregate_with_ctx(&indexed, &residual_find, ctx)
                }),
                sweep("aggregate", k, &base_aggs[0], |ctx| {
                    jagg::aggregate_with_ctx(&coll, &pipes[0].1, ctx)
                }),
            ];
            contained += hits.into_iter().map(u32::from).sum::<u32>();
            // Pool and tree column must be reusable immediately.
            assert_eq!(
                coll.find(&find_filter),
                base_find,
                "S7 gate: pool unusable after contained panic at k={k}"
            );
        }
        assert!(
            contained >= 3,
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
                jagg::aggregate_with_ctx(&coll, &find, &ctx).is_err()
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
    let mut report = Report::new("s7_robustness");
    report.gate("hostile ingestion fails closed under ParseLimits; capped-regex fallback agrees");
    report.gate(format!(
        "cancelled, expired and starved queries return their QueryError within {GRACE_MS} ms"
    ));
    report.gate(
        "injected panics in find (scan and index-with-residual routes) and aggregate surface \
         as WorkerPanicked with exactly one audit event on the query's sink, pool reusable after each",
    );
    report.gate("outputs byte-identical to the baselines after 1000 injected failures");
    report.gate("live-ctx runs allocate exactly as often as ungoverned runs (serial pool)");
    report.gate("live-ctx overhead: minimum of 31 paired base/ctx deltas <= 2% of base + 0.25 ms");
    for (label, run) in s6_workloads() {
        let o = ctx_overhead("S7 gate", label, &mut coll, &live, &|c, ctx| {
            run(c, ctx).len()
        });
        report.ms(format!("overhead.{label}.base_ms"), o.base_ms);
        report.ms(format!("overhead.{label}.ctx_ms"), o.ctx_ms);
        report.metric(format!("overhead.{label}.pct"), o.pct, "%", Better::Lower);
        report.count(format!("overhead.{label}.allocs"), o.allocs, Better::Lower);
    }
    for (label, ms) in grace {
        report.ms(format!("grace.{label}_ms"), ms);
    }
    report.count("ingestion.rejected", rejected, Better::Higher);
    report.count("containment.panics_contained", contained, Better::Higher);
    report.count("storm.failed_closed", storm_failures, Better::Higher);
    report.write("BENCH_robustness.json");
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
///    execution of it over the 20k-record collection (serial pool) — the
///    break-even bound that makes the analyzer free to run
///    unconditionally. The cost is heap allocations on every pipeline,
///    the measure a slower analyzer moves (an analyzer that runs its
///    stage loop twice fails it). The unsatisfiable prefix leaves
///    nothing to execute, so that analysis is bounded by executing the
///    tail the prefix guards.
///
/// Times are medians of 7, reported in `BENCH_sat.json`.
fn s8() {
    use jstat::Analyze;

    header(
        "S8",
        "Static analysis — sat verdicts vs small models, step budgets, analyzer overhead, prune equivalence",
    );

    // --- Part 1: sat verdicts against the oracle, step budgets, timing ---
    let mut report = Report::new("s8_static_analysis");
    report.gate(format!(
        "every sat witness satisfies its formula through check_root; no Unsat verdict has a \
         small model (jnl::gen::small_model, cap {})",
        jnl::gen::SMALL_MODEL_CAP
    ));
    report.gate(
        "every formula decided with its default-budget verdict within its sweep's step budget",
    );
    report.gate("prune output-identical through both executors; salted pipelines rewritten");
    report.gate(
        "analyze+prune allocations <= one execution's (serial pool) on every pipeline; \
         the unsat prefix against its tail's execution",
    );
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
        println!(
            "sweep {seed} (depth {depth}, {count} formulas, budget {budget}): \
             {n_sat} sat, {n_unsat} unsat, {n_enum} unsat enumerated"
        );
        report.ms(format!("sweep_{seed}.sym_ms"), sym_ms);
        report.count(
            format!("sweep_{seed}.unsat_enumerated"),
            n_enum as u64,
            Better::Higher,
        );
    }

    // --- Part 2: analyzer overhead + prune equivalence on pipelines ---
    let text = s5_collection_text();
    let mut coll = mongofind::Collection::parse_str(&text).expect("workload parses");
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
    for (label, src) in &pipes {
        let pipe = jagg::Pipeline::parse_str(src).expect("workload pipeline parses");
        let analysis = pipe.analyze(None);
        let pruned = pipe.prune(&analysis);
        if label.starts_with("salted_") {
            assert!(
                analysis.has_rewrite(),
                "S8 gate: the salted pipeline {label} was not rewritten\n{analysis}"
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

        let analyze = || {
            let r = pipe.analyze(None);
            pipe.prune(&r).stages.len()
        };
        let (_, analyzed) = memtrack::measure(analyze);
        // The unsatisfiable prefix leaves nothing to execute (14
        // allocations), so that analysis is bounded by executing the tail
        // the prefix guards instead.
        let bound = match *label {
            "salted_unsat_prefix" => jagg::Pipeline {
                stages: pipe.stages[1..].to_vec(),
            },
            _ => pipe.clone(),
        };
        // Execution is counted on a serial pool, so the count does not
        // depend on the thread schedule.
        let pool = *coll.pool();
        coll.set_pool(jpar::Pool::serial());
        drop(jagg::aggregate(&coll, &bound));
        let (_, executed) = memtrack::measure(|| jagg::aggregate(&coll, &bound).len());
        coll.set_pool(pool);
        // Gate 4: the break-even bound, counted.
        assert!(
            analyzed.allocs <= executed.allocs,
            "S8 gate: analyzing {label} costs more than executing it: {} vs {} allocations",
            analyzed.allocs,
            executed.allocs,
        );
        println!("{label}: {} diagnostic(s)", analysis.diagnostics.len());
        report.ms(format!("{label}.analyze_ms"), time_ms(7, analyze));
        report.ms(
            format!("{label}.exec_ms"),
            time_ms(7, || jagg::aggregate(&coll, &pipe).len()),
        );
        report.ms(
            format!("{label}.pruned_exec_ms"),
            time_ms(7, || jagg::aggregate(&coll, &pruned).len()),
        );
        report.count(
            format!("{label}.analyze_allocs"),
            analyzed.allocs,
            Better::Lower,
        );
        report.count(
            format!("{label}.exec_allocs"),
            executed.allocs,
            Better::Lower,
        );
        report.bytes(format!("{label}.analyze_peak_bytes"), analyzed.peak_bytes);
        report.bytes(format!("{label}.exec_peak_bytes"), executed.peak_bytes);
    }
    report.write("BENCH_sat.json");
}

/// S9 — the secondary-index experiment: probe-answered `find`/`$match`
/// vs the full scan on the 20k person records, plus layout sweeps.
/// Deterministic gates inside the harness:
///
/// 1. index-answered results must be **byte-identical** to the scan
///    oracle on every workload, on the one-parse layout, the fragmented
///    (per-insert segment) layout, and after `compact()` (the rebuild
///    path);
/// 2. on every workload, and on a selective leading `$match` through
///    `jagg`, the routed call must scan no document, probe at least one
///    index, and do less work (rows emitted + residual evaluations) than
///    the scan's documents scanned;
/// 3. the unindexed scan starts at the filter's symbol horizon: a lookup
///    by a late inserted `email` scans only its document and the ones
///    after it, while a filter on strings the first record uses scans
///    every document;
/// 4. value fences: on that 300-insert layout, `{"id": k}` reads the
///    postings of exactly one segment, for a seed id and for an inserted
///    id, and so does an `$in` of three seed ids.
///
/// Times (medians of 9) are reported in `BENCH_index.json`.
fn s9() {
    use jtrace::{Counter, Snapshot};

    header(
        "S9",
        "Secondary indexes — probe-answered find/$match vs full scan",
    );
    let text = s5_collection_text();
    let scan_coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    let mut coll = mongofind::Collection::parse_str(&text).expect("workload parses");
    let build_ms = time_ms(1, || {
        for p in S9_INDEX_PATHS {
            assert!(coll.create_index(p), "index on {p} declared once");
        }
    });
    println!(
        "collection: {} documents; indexes on {:?}",
        coll.len(),
        S9_INDEX_PATHS,
    );
    let mut report = Report::new("s9_secondary_indexes");
    report.gate("indexed results byte-identical to the scan on one-parse, fragmented and post-compact layouts");
    report.gate(
        "routed find and leading $match: 0 documents scanned, >= 1 index probe, \
         rows emitted + residual evaluations < the scan's documents scanned",
    );
    report.ms("index_build_ms", build_ms);
    // Gate 2: the counters prove the routed call probed instead of
    // scanning.
    let probed = |label: &str, routed: &Snapshot, scan: &Snapshot| {
        let work = routed[Counter::RowsEmitted] + routed[Counter::ResidualEvals];
        let (scanned, probes) = (routed[Counter::DocsScanned], routed[Counter::IndexProbes]);
        assert!(
            scanned == 0 && probes >= 1 && work < scan[Counter::DocsScanned],
            "S9 gate: the routed call on {label} scanned {scanned} document(s) with {probes} \
             probe(s) and {work} rows + residual evaluations, against the scan's {} documents",
            scan[Counter::DocsScanned]
        );
    };

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

    for (label, src) in s9_workloads() {
        let f = mongofind::Filter::parse_str(src).expect("workload filter parses");
        assert_eq!(
            coll.route_of(&f),
            mongofind::Route::Index,
            "S9 workload {label} must engage the planner"
        );
        // Gate 1b: byte-identical refs and documents on the 20k layout.
        let (probe_refs, routed) = metered(|ctx| {
            coll.find_refs_with_ctx(&f, ctx)
                .expect("the context never trips")
        });
        let (scan, scanned) = metered(|ctx| {
            scan_coll
                .find_refs_via_scan_with_ctx(&f, ctx)
                .expect("the context never trips")
        });
        assert_eq!(
            probe_refs, scan,
            "S9 gate: indexed refs != scan refs on {label}"
        );
        assert_eq!(
            coll.find(&f),
            scan.iter().map(|&d| coll.json_of(d)).collect::<Vec<_>>(),
            "S9 gate: indexed documents != scan documents on {label}"
        );
        probed(label, &routed, &scanned);
        report.ms(
            format!("{label}.scan_ms"),
            time_ms(9, || scan_refs(&scan_coll, &f)),
        );
        report.ms(
            format!("{label}.indexed_ms"),
            time_ms(9, || routed_refs(&coll, &f)),
        );
        for c in [
            Counter::IndexProbes,
            Counter::RowsEmitted,
            Counter::ResidualEvals,
        ] {
            report.count(format!("{label}.{}", c.name()), routed[c], Better::Lower);
        }
    }

    // The same through the jagg leading-$match (the executor routes an
    // index-answerable leading filter to the probe).
    let pipe =
        jagg::Pipeline::parse_str(r#"[{"$match": {"id": 12345}}]"#).expect("match pipeline parses");
    let (via_index, routed) = metered(|ctx| jagg::aggregate_with_ctx(&coll, &pipe, ctx));
    let (via_scan, scanned) = metered(|ctx| jagg::aggregate_with_ctx(&scan_coll, &pipe, ctx));
    assert_eq!(
        via_index.expect("the context never trips"),
        via_scan.expect("the context never trips"),
        "S9 gate: $match output differs between indexed and unindexed collections"
    );
    probed("the leading $match", &routed, &scanned);
    report.ms(
        "match.scan_ms",
        time_ms(9, || jagg::aggregate(&scan_coll, &pipe)),
    );
    report.ms(
        "match.indexed_ms",
        time_ms(9, || jagg::aggregate(&coll, &pipe)),
    );

    // Gate 3: the unindexed scan starts at the filter's symbol horizon.
    // 300 documents are inserted after the 20k records, each with a
    // unique `email`, and compacted after 128 of them. A lookup by the
    // 150th email tests only that document and the ones after it; a
    // filter on strings the first record uses tests every document.
    report.gate(
        "scan horizon: {email: <150th inserted>} scans n - ordinal(its document) documents, \
         the control {name.last: {$gt: K}} scans all n",
    );
    let mut grown = mongofind::Collection::parse_str(&text).expect("workload parses");
    // Indexed as the 20k layout is; `email` and `name.last` stay
    // unindexed, so both gate-3 filters take the scan.
    for p in S9_INDEX_PATHS {
        grown.create_index(p);
    }
    let emails: Vec<String> = (0..300).map(|i| format!("u{i}@example.org")).collect();
    for (i, email) in emails.iter().enumerate() {
        let doc = format!(
            r#"{{"id": {}, "name": {{"first": "Sue", "last": "Kim"}}, "age": 40, "hobbies": [], "email": "{email}"}}"#,
            20_000 + i
        );
        grown.insert_str(&doc).expect("insert parses");
        if i + 1 == 128 {
            grown.compact();
        }
    }
    let n = grown.len() as u64;
    let target = 20_000 + 149;
    let f = mongofind::Filter::parse_str(&format!(r#"{{"email": "{}"}}"#, emails[149]))
        .expect("filter parses");
    let (hits, horizon) = metered(|ctx| {
        grown
            .find_refs_with_ctx(&f, ctx)
            .expect("the context never trips")
    });
    let control =
        mongofind::Filter::parse_str(r#"{"name.last": {"$gt": "K"}}"#).expect("filter parses");
    let (_, full) = metered(|ctx| {
        grown
            .find_refs_with_ctx(&control, ctx)
            .expect("the context never trips")
    });
    let (scanned, control_scanned) = (horizon[Counter::DocsScanned], full[Counter::DocsScanned]);
    assert!(
        hits == [grown.doc_refs()[target]] && scanned == n - target as u64 && control_scanned == n,
        "S9 gate: the email lookup scanned {scanned} of {n} documents (want {}) and found \
         {hits:?}; the control scanned {control_scanned} (want {n})",
        n - target as u64
    );
    println!(
        "scan horizon: email lookup scans {scanned} of {n} documents, control {control_scanned}"
    );
    report.count("horizon.email.docs_scanned", scanned, Better::Lower);
    report.count(
        "horizon.control.docs_scanned",
        control_scanned,
        Better::Lower,
    );

    // Gate 4: a point read skips every segment whose value fence rules
    // its number out. The seed ids live in the merged segment and each
    // late id in its own insert segment, so each of these probes reads
    // one segment's postings of the layout's many.
    report.gate(
        "value fences: on the horizon layout, {id: k} reads 1 segment's postings for a seed id \
         and for an inserted id, and an $in of three seed ids reads 1",
    );
    let segments = grown.segments().len() as u64;
    for (label, src) in [
        ("fence.eq_seed", r#"{"id": 12345}"#),
        ("fence.eq_inserted", r#"{"id": 20149}"#),
        ("fence.in_seed", r#"{"id": {"$in": [7, 12345, 19999]}}"#),
    ] {
        let f = mongofind::Filter::parse_str(src).expect("filter parses");
        let (hits, c) = metered(|ctx| {
            grown
                .find_refs_with_ctx(&f, ctx)
                .expect("the context never trips")
        });
        let probed = c[Counter::SegmentsProbed];
        assert!(
            !hits.is_empty() && hits == scan_refs(&grown, &f) && probed == 1,
            "S9 gate: {src} read the postings of {probed} of {segments} segments (want 1) \
             and found {} documents",
            hits.len()
        );
        report.count(format!("{label}.segments_probed"), probed, Better::Lower);
    }
    println!("value fences: each point read probes 1 of {segments} segments");
    report.count("fence.segments", segments, Better::Lower);
    report.write("BENCH_index.json");
}

/// S10 — the observability experiment: the `jtrace` metrics sink, the
/// `EXPLAIN`/`EXPLAIN ANALYZE` plans, and the flight-recorder span log
/// over the whole query stack. Deterministic gates inside the harness:
///
/// 1. **Metrics are ~free.** A metrics-carrying context on the S6
///    workloads (scan find + both pipelines) and the selective S9
///    indexed probe allocates exactly what the metrics-off paths do, and
///    passes the same paired wall-clock bound as the S7 poll-overhead
///    gate ([`ctx_overhead`]: 2% + 0.25 ms on the minimum of 31
///    alternating-order paired deltas).
/// 2. **EXPLAIN cannot lie.** For every S9 corpus filter plus the
///    supplemental unindexed workloads, the route `EXPLAIN` claims is
///    the route the counters prove execution took: an index route
///    records probes and zero scanned documents / visited segments, a
///    scan route records exactly the plan's `scan_docs` scanned documents
///    and nothing else — and the routed row count equals the scan
///    oracle's.
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
    let mut routes = Vec::new();
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
            an.actual.rows,
            scan_refs(&icoll, &f).len(),
            "S10 gate: routed row count differs from the scan oracle on {label}"
        );
        let probes = an.actual.counters.get(Counter::IndexProbes);
        let scanned = an.actual.counters.get(Counter::DocsScanned);
        let segments = an.actual.counters.get(Counter::SegmentsVisited);
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
                assert_eq!(
                    scanned, an.plan.scan_docs as u64,
                    "S10 gate: scan route scanned other than the plan's scan_docs on {label}"
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
            "route: {label}: {} ({} rows, {probes} probes, {scanned} scanned)",
            ex.route.name(),
            an.actual.rows
        );
        routes.push((label, probes, scanned));
    }
    assert!(
        routes_seen.iter().all(|&b| b),
        "S10 gate: the route corpus must exercise both index and scan"
    );
    println!("route gate: every claimed route proven by its counters, both routes exercised");

    // --- gate 3: EXPLAIN ANALYZE vs reference cardinalities -----------
    let docs = coll.docs();
    let mut analyzed = Vec::new();
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
            an.actual.rows,
            *expected.last().expect("pipelines are non-empty"),
            "S10 gate: output row count differs from the final cardinality on {label}"
        );
        let fused = an.plan.stages.iter().filter(|s| s.fused.is_some()).count();
        println!("analyze: {label}: stage rows {got:?} == reference ({fused} fused stage(s))");
        analyzed.push((label, an.actual.wall_us, fused));
    }

    // --- gate 1: metrics overhead on the S6 + selective S9 workloads --
    let mctx = QueryCtx::new().with_metrics(Arc::new(QueryMetrics::new()));
    let mut overheads = Vec::new();
    for (label, run) in s6_workloads() {
        let o = ctx_overhead("S10 gate", label, &mut coll, &mctx, &|c, ctx| {
            run(c, ctx).len()
        });
        overheads.push((label, o));
    }
    let probe_filter =
        mongofind::Filter::parse_str(r#"{"name.first": "Sue"}"#).expect("filter parses");
    let o = ctx_overhead("S10 gate", "indexed_probe", &mut icoll, &mctx, &|c, ctx| {
        c.find_refs_with_ctx(&probe_filter, ctx)
            .expect("the context never trips")
            .len()
    });
    overheads.push(("indexed_probe", o));

    // --- the flight recorder: one spanned run under EXPLAIN ANALYZE's
    // span-recording sink, dumped as Chrome trace ----------------------
    let span_sink = mongofind::Actuals::recorder();
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

    let mut report = Report::new("s10_observability");
    report.gate("metrics-on runs allocate exactly as often as metrics-off runs (serial pool)");
    report.gate(
        "metrics-on overhead: minimum of 31 paired deltas <= 2% of base + 0.25 ms \
         on the S6 workloads and the selective indexed probe",
    );
    report.gate(
        "every EXPLAIN route proven by its execution counters, unchosen routes at zero, \
         rows equal to the scan oracle; both routes exercised",
    );
    report.gate("EXPLAIN ANALYZE per-stage cardinalities == the reference executor's");
    report.gate("span log non-empty, renders Chrome-trace JSON");
    for (label, o) in overheads {
        report.ms(format!("overhead.{label}.base_ms"), o.base_ms);
        report.ms(format!("overhead.{label}.metrics_ms"), o.ctx_ms);
        report.metric(format!("overhead.{label}.pct"), o.pct, "%", Better::Lower);
        report.count(format!("overhead.{label}.allocs"), o.allocs, Better::Lower);
    }
    for (label, probes, scanned) in routes {
        report.count(format!("route.{label}.index_probes"), probes, Better::Lower);
        report.count(
            format!("route.{label}.docs_scanned"),
            scanned,
            Better::Lower,
        );
    }
    for (label, wall_us, fused) in analyzed {
        report.metric(
            format!("analyze.{label}.wall_us"),
            wall_us as f64,
            "us",
            Better::Lower,
        );
        report.count(
            format!("analyze.{label}.fused_stages"),
            fused as u64,
            Better::Higher,
        );
    }
    report.count("span_log.recorded", spans.recorded(), Better::Higher);
    report.count("span_log.dropped", spans.dropped(), Better::Lower);
    report.write("BENCH_observability.json");
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
/// 3. **Insert cost independent of the symbol table.** 256 inserts, each
///    bringing a new string, into a `jserve::Store` seeded with ~1k and
///    with ~100k distinct strings: allocations per insert on the large
///    table at most twice those on the small one (a copied table makes
///    about two per existing string). Retained bytes per insert are
///    reported.
/// 4. **A point read costs one probe, whatever the insert tail.** On a
///    serial-pool server over the servebench-shaped corpus (20k person
///    records indexed on `id`, `name.first` and `age`), a point Find,
///    FindProject and `[{"$match": {"id": N}}]` Aggregate through
///    [`jserve::Server::serve`] each dispatch no pool chunk, record one
///    index probe and no bitmap intersection, and make the same number
///    of allocations with 64 insert segments behind the seed as with
///    none.
/// 5. **An insert costs what its own document costs.** On the same
///    corpus, every served insert at tails 0 to 127 makes at most 42
///    allocations and peaks at most 16 KiB, the worst included (the one
///    on which the symbol table merges runs), and its peak bytes grow by
///    at most 16 per insert segment.
/// 6. **A compaction rewrites the tail, not the column.** A stream of
///    16 compactions of 128 inserts over a 1k seed rewrites, per
///    compaction, exactly the documents the tiering rule merges, leaves
///    at most `log2 n + 1` segments, and rewrites at most `log2 n + 2`
///    documents per document in all; a 128-insert tail compaction makes
///    as many allocations over a 20k seed as over a 1k one.
///
/// The persistent pool is gated by `s6`: output at several thread counts
/// equal to the serial pool's, and the work split into chunks.
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

    // --- gate 3: an insert's cost does not grow with the symbol table ---
    const INSERTS: usize = 256;
    let mut cost: Vec<(&str, f64, f64)> = Vec::new();
    for (label, distinct) in [("1k", 1_000usize), ("100k", 100_000)] {
        let docs: Vec<String> = (0..distinct)
            .map(|i| format!(r#"{{"id": {i}, "tag": "t{i}"}}"#))
            .collect();
        let store = jserve::Store::new(
            mongofind::Collection::parse_str(&format!("[{}]", docs.join(",")))
                .expect("seed parses"),
        );
        let base = store.snapshot().collection().interner().len();
        let inserts: Vec<String> = (0..INSERTS)
            .map(|i| format!(r#"{{"id": {}, "email": "u{i}@example.org"}}"#, distinct + i))
            .collect();
        let ((), prof) = memtrack::measure(|| {
            for doc in &inserts {
                store
                    .insert_str(doc, jsondata::ParseLimits::default())
                    .expect("insert commits");
            }
        });
        assert_eq!(
            store.snapshot().collection().interner().len(),
            base + 1 + INSERTS,
            "every insert brings one new string (the first also `email`)"
        );
        let allocs = prof.allocs as f64 / INSERTS as f64;
        let retained = prof.live_bytes as f64 / INSERTS as f64;
        println!(
            "insert cost on a {base}-string table: {allocs:.1} allocations and \
             {retained:.0} retained bytes per insert"
        );
        cost.push((label, allocs, retained));
    }
    let (small, large) = (cost[0].1, cost[1].1);
    assert!(
        large <= 2.0 * small,
        "S11 gate: an insert makes {large:.1} allocations on the 100k-string table against \
         {small:.1} on the 1k one (at most 2x allowed): its cost grows with the symbol table"
    );

    // --- gate 4: a point read costs one probe, whatever the tail -------
    let point = s11_point_reads();

    // --- gate 5: an insert costs what its own document costs -----------
    let insert_costs = s11_insert_costs();

    // --- gate 6: a compaction rewrites the tail, not the column --------
    let compaction = s11_compaction_costs();

    let mut report = Report::new("s11_serving");
    report.gate(
        "every concurrent read byte-identical to the serial replay of its snapshot's committed \
         log prefix (storms + compactions racing)",
    );
    report.gate(
        "fault storm of injected panics/sleeps yields typed errors only: zero aborts, \
         zero leaked permits, server serviceable after",
    );
    report.gate(
        "256 inserts that each bring a new string make at most 2x the allocations per insert \
         on a 100k-string table as on a 1k-string one",
    );
    report.gate(format!(
        "a served point find, projected find and $match aggregate each dispatch 0 chunks, \
         record 1 index probe and 0 bitmap intersections, make at most \
         {POINT_FIND_MAX_ALLOCS} / {POINT_FIND_PROJECT_MAX_ALLOCS} / \
         {POINT_AGGREGATE_MAX_ALLOCS} allocations, and make as many allocations with 64 \
         insert segments as with none"
    ));
    report.gate(format!(
        "a served insert makes at most {INSERT_MAX_ALLOCS} allocations at every tail up to \
         {} insert segments and peaks at most {INSERT_WORST_PEAK_BYTES} bytes, and its peak \
         bytes grow by at most {INSERT_PEAK_BYTES_PER_SEGMENT} per segment from \
         {INSERT_TAILS:?}'s first tail to its last",
        INSERT_TAILS[INSERT_TAILS.len() - 1]
    ));
    report.gate(format!(
        "{COMPACTIONS} compactions of {COMPACT_EVERY} inserts over a 1k seed each rewrite \
         exactly what the tiering rule merges, leave at most log2 n + 1 segments, all \
         multi-document, and rewrite at most log2 n + 2 documents per document in all; a \
         {COMPACT_EVERY}-insert tail compaction makes as many allocations over a 20k seed as \
         over a 1k one"
    ));
    // Which epochs the storm's reads land on, and whether admission sheds
    // a request (and so how many reads and inserts complete), depend on
    // how the client threads interleave: two runs of one commit differ.
    for (name, n, better) in [
        (
            "storm.observations",
            observations.len() as u64,
            Better::Higher,
        ),
        ("storm.epochs_checked", epochs_checked, Better::Higher),
        ("storm.inserts", inserts, Better::Higher),
        ("storm.shed", shed, Better::Lower),
        ("faults.shed", fault_shed, Better::Lower),
    ] {
        report.schedule_count(name, n, better);
    }
    for (name, n, better) in [
        ("storm.compactions", compactions, Better::Higher),
        ("faults.ok", ok, Better::Higher),
        ("faults.panics_contained", contained, Better::Higher),
        ("faults.deadlines", deadlines, Better::Higher),
    ] {
        report.count(name, n, better);
    }
    for (label, allocs, retained) in cost {
        report.metric(
            format!("insert.allocs_per_insert.{label}"),
            allocs,
            "count",
            Better::Lower,
        );
        report.metric(
            format!("insert.retained_bytes_per_insert.{label}"),
            retained,
            "bytes",
            Better::Lower,
        );
    }
    for (verb, tail, allocs) in point {
        report.count(
            format!("point.{verb}.allocs.tail{tail}"),
            allocs,
            Better::Lower,
        );
    }
    for (tail, prof) in insert_costs.rows {
        report.count(
            format!("insert.allocs.tail{tail}"),
            prof.allocs,
            Better::Lower,
        );
        report.bytes(format!("insert.peak_bytes.tail{tail}"), prof.peak_bytes);
    }
    report.count(
        "insert.allocs.worst",
        insert_costs.worst_allocs.1,
        Better::Lower,
    );
    report.bytes("insert.peak_bytes.worst", insert_costs.worst_peak.1);
    for (i, (docs, segments)) in (1..).zip(compaction.stream) {
        report.count(format!("compact.rewritten.c{i:02}"), docs, Better::Lower);
        report.count(format!("compact.segments.c{i:02}"), segments, Better::Lower);
    }
    for (seed, allocs, peak) in compaction.tail {
        let seed = format!("{}k", seed / 1000);
        report.count(format!("compact.allocs.seed{seed}"), allocs, Better::Lower);
        report.bytes(format!("compact.peak_bytes.seed{seed}"), peak);
    }
    report.write("BENCH_serving.json");
}

/// The servebench-shaped corpus of S11 gates 4 and 5 on a serial-pool
/// server: 20k person records indexed on `id`, `name.first` and `age`,
/// with one tenant, `"point"`.
fn s11_corpus_server() -> jserve::Server {
    use jserve::{AdmissionConfig, Server, TenantSpec};

    let corpus = jsondata::gen::person_records(20_000, 1);
    let mut coll = mongofind::Collection::parse_str(&jsondata::serialize::to_string(&corpus))
        .expect("corpus parses");
    for path in ["id", "name.first", "age"] {
        assert!(coll.create_index(path));
    }
    coll.set_pool(jpar::Pool::serial());
    let server = Server::new(coll, AdmissionConfig::default());
    assert!(server.register_tenant(TenantSpec::new("point")));
    server
}

/// The `i`-th document S11 gates 4 and 5 insert: servebench-shaped, with
/// an email that brings a new string.
fn s11_insert_doc(i: usize) -> String {
    format!(
        r#"{{"id": {}, "name": {{"first": "Sue", "last": "Kim"}}, "age": 40, "hobbies": [], "email": "u{i}@example.org"}}"#,
        20_000 + i
    )
}

/// The insert tails S11 gate 5 measures at.
const INSERT_TAILS: [usize; 3] = [0, 64, 127];
/// Most allocations a served insert may make at each of [`INSERT_TAILS`].
const INSERT_MAX_ALLOCS: u64 = 42;
/// Most bytes a served insert may peak at, at any tail up to the last of
/// [`INSERT_TAILS`]: the worst is an insert whose new string carries the
/// symbol table's runs into its oldest, which it copies once.
const INSERT_WORST_PEAK_BYTES: usize = 16_384;
/// Most a served insert's peak bytes may grow per insert segment, from
/// the first of [`INSERT_TAILS`] to the last: a snapshot clone copies one
/// pointer per segment, and nothing else an insert does grows with them.
const INSERT_PEAK_BYTES_PER_SEGMENT: usize = 16;

/// S11 gate 5: on a fresh [`s11_corpus_server`], serves and measures
/// (`bench::memtrack`, serial pool) the inserts at every tail from 0 to
/// the last of [`INSERT_TAILS`] insert segments. Asserts the allocation
/// count of every one, the worst included, and the growth of the peak
/// bytes with the tail over [`INSERT_TAILS`]. Returns the
/// `(tail, profile)` rows at [`INSERT_TAILS`] and the worst insert's
/// `(tail, allocations)` and `(tail, peak bytes)`.
fn s11_insert_costs() -> InsertCosts {
    use jserve::{Request, Response};

    let server = s11_corpus_server();
    let mut costs = InsertCosts::default();
    for tail in 0..=INSERT_TAILS[INSERT_TAILS.len() - 1] {
        let (reply, prof) = memtrack::measure(|| {
            server.serve(
                "point",
                &Request::Insert {
                    doc: s11_insert_doc(tail),
                },
            )
        });
        assert!(matches!(reply, Ok(Response::Inserted { .. })), "{reply:?}");
        assert!(
            prof.allocs <= INSERT_MAX_ALLOCS,
            "S11 gate: a served insert at {tail} insert segments makes {} allocations \
             (at most {INSERT_MAX_ALLOCS} allowed)",
            prof.allocs
        );
        if prof.allocs > costs.worst_allocs.1 {
            costs.worst_allocs = (tail, prof.allocs);
        }
        if prof.peak_bytes > costs.worst_peak.1 {
            costs.worst_peak = (tail, prof.peak_bytes);
        }
        if INSERT_TAILS.contains(&tail) {
            println!(
                "insert at {tail} insert segments: {} allocations, peak {} bytes",
                prof.allocs, prof.peak_bytes
            );
            costs.rows.push((tail, prof));
        }
    }
    let ((wa_tail, wa), (wp_tail, wp)) = (costs.worst_allocs, costs.worst_peak);
    println!(
        "worst insert over tails 0-{}: {wa} allocations (tail {wa_tail}), \
         peak {wp} bytes (tail {wp_tail})",
        INSERT_TAILS[INSERT_TAILS.len() - 1]
    );
    let (first, last) = (&costs.rows[0], &costs.rows[costs.rows.len() - 1]);
    let segments = last.0 - first.0;
    let growth = last.1.peak_bytes.saturating_sub(first.1.peak_bytes);
    assert!(
        growth <= INSERT_PEAK_BYTES_PER_SEGMENT * segments,
        "S11 gate: a served insert peaks at {} bytes at {} insert segments and {} at {}: \
         {growth} bytes more over {segments} segments (at most \
         {INSERT_PEAK_BYTES_PER_SEGMENT} per segment allowed)",
        first.1.peak_bytes,
        first.0,
        last.1.peak_bytes,
        last.0
    );
    assert!(
        wp <= INSERT_WORST_PEAK_BYTES,
        "S11 gate: the served insert at {wp_tail} insert segments peaks at {wp} bytes \
         (at most {INSERT_WORST_PEAK_BYTES} allowed)"
    );
    costs
}

/// What S11 gate 5 measures.
#[derive(Default)]
struct InsertCosts {
    /// `(tail, profile)` at each of [`INSERT_TAILS`].
    rows: Vec<(usize, memtrack::AllocProfile)>,
    /// The insert with the most allocations: `(tail, allocations)`.
    worst_allocs: (usize, u64),
    /// The insert with the highest peak: `(tail, peak bytes)`.
    worst_peak: (usize, usize),
}

/// Inserts S11 gate 6 commits between two compactions, as servebench's
/// `ingest` does.
const COMPACT_EVERY: usize = 128;
/// Compactions of S11 gate 6's insert stream: enough for a tier merge
/// to reach its 1k seed.
const COMPACTIONS: usize = 16;

/// What S11 gate 6 measures.
struct CompactionCosts {
    /// Per compaction of the stream: documents rewritten, and the
    /// multi-document segments it leaves.
    stream: Vec<(u64, u64)>,
    /// `(seed size, allocations, peak bytes)` of one compaction of a
    /// [`COMPACT_EVERY`]-insert tail.
    tail: Vec<(usize, u64, usize)>,
}

/// A serial-pool store over `n` servebench-shaped person records,
/// indexed on `id`, `name.first` and `age`.
fn s11_store(n: usize) -> jserve::Store {
    let corpus = jsondata::gen::person_records(n, 1);
    let mut coll = mongofind::Collection::parse_str(&jsondata::serialize::to_string(&corpus))
        .expect("corpus parses");
    for path in ["id", "name.first", "age"] {
        assert!(coll.create_index(path));
    }
    coll.set_pool(jpar::Pool::serial());
    jserve::Store::new(coll)
}

/// The documents a compaction rewrote: those of the segments of `after`
/// that `before` does not share.
fn rewritten(before: &mongofind::Collection, after: &mongofind::Collection) -> u64 {
    let kept = |seg: &std::sync::Arc<mongofind::Segment>| {
        before
            .segments()
            .iter()
            .any(|old| std::sync::Arc::ptr_eq(old, seg))
    };
    let fresh = after.segments().iter().filter(|seg| !kept(seg));
    fresh.map(|seg| seg.len() as u64).sum()
}

/// The documents the tiering rule rewrites on a column whose segments
/// hold `lens` documents, the first `multi` of them multi-document
/// segments and the rest a non-empty insert tail: the tail, and each
/// segment before it while that segment holds fewer than twice the
/// documents merged so far. Worked out from the lengths alone,
/// independently of `Collection::compact_tail`.
fn tiering_rewrites(lens: &[usize], multi: usize) -> u64 {
    let mut merged: usize = lens[multi..].iter().sum();
    for &older in lens[..multi].iter().rev() {
        if older >= 2 * merged {
            break;
        }
        merged += older;
    }
    merged as u64
}

/// S11 gate 6: on a serial-pool store over 1k servebench-shaped records,
/// commits [`COMPACTIONS`] rounds of [`COMPACT_EVERY`] inserts, each
/// followed by a `Store::compact`. Asserts that each compaction rewrites
/// exactly the documents the tiering rule merges (worked out from the
/// segment lengths alone), leaves at most `log2 n + 1` multi-document
/// segments and no insert segment, that the stream rewrites at most
/// `log2 n + 2` documents per document in the final column, and that the
/// replayed log equals the compacted column. Then, on fresh stores over
/// 1k and 20k records, measures one compaction of a
/// [`COMPACT_EVERY`]-insert tail and asserts the two make the same
/// number of allocations.
fn s11_compaction_costs() -> CompactionCosts {
    let store = s11_store(1_000);
    let mut stream = Vec::new();
    let mut next = 0;
    for round in 0..COMPACTIONS {
        for _ in 0..COMPACT_EVERY {
            store
                .insert_str(&s11_insert_doc(next), jsondata::ParseLimits::default())
                .expect("insert commits");
            next += 1;
        }
        let before = store.snapshot();
        let segs = before.collection().segments();
        let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        let multi = segs.iter().filter(|s| s.is_multi()).count();
        assert!(store.compact(), "S11: an uncontended compaction publishes");
        let after = store.snapshot();
        let coll = after.collection();
        let docs = rewritten(before.collection(), coll);
        let expect = tiering_rewrites(&lens, multi);
        assert_eq!(
            docs, expect,
            "S11 gate: compaction {round} rewrote {docs} documents, the tiering rule {expect}"
        );
        let segments = coll.segments();
        let bound = 1 + coll.len().ilog2() as usize;
        assert!(
            segments.iter().all(|s| s.is_multi()) && segments.len() <= bound,
            "S11 gate: compaction {round} leaves {} segments over {} documents \
             (all multi-document, at most {bound} allowed)",
            segments.len(),
            coll.len()
        );
        stream.push((docs, segments.len() as u64));
    }
    let snap = store.snapshot();
    let coll = snap.collection();
    let total: u64 = stream.iter().map(|&(docs, _)| docs).sum();
    let per_doc = total as f64 / coll.len() as f64;
    let bound = coll.len().ilog2() as f64 + 2.0;
    println!(
        "compaction stream: {COMPACTIONS} compactions of {COMPACT_EVERY} inserts over a 1k \
         seed rewrote {total} documents ({per_doc:.2} per document of the final {}), \
         segments after each: {:?}",
        coll.len(),
        stream.iter().map(|&(_, s)| s).collect::<Vec<_>>()
    );
    assert!(
        per_doc <= bound,
        "S11 gate: the stream rewrote {per_doc:.2} documents per document (at most \
         log2 n + 2 = {bound:.2} allowed)"
    );
    let mut replay = s11_store(1_000).snapshot().collection().clone();
    for entry in store.log_prefix(usize::MAX) {
        replay.insert_str(&entry).expect("log entries replay");
    }
    assert_eq!(
        coll.docs(),
        replay.docs(),
        "S11 gate: the compacted column differs from its serial replay"
    );

    let mut tail = Vec::new();
    for seed in [1_000, 20_000] {
        let store = s11_store(seed);
        for i in 0..COMPACT_EVERY {
            store
                .insert_str(&s11_insert_doc(i), jsondata::ParseLimits::default())
                .expect("insert commits");
        }
        let (published, prof) = memtrack::measure(|| store.compact());
        assert!(published, "S11: an uncontended compaction publishes");
        println!(
            "compaction of a {COMPACT_EVERY}-insert tail over {seed} records: {} \
             allocations, peak {} bytes",
            prof.allocs, prof.peak_bytes
        );
        tail.push((seed, prof.allocs, prof.peak_bytes));
    }
    assert_eq!(
        tail[0].1, tail[1].1,
        "S11 gate: a {COMPACT_EVERY}-insert tail compaction makes {} allocations over a 1k \
         seed and {} over a 20k one: its cost grows with the seed",
        tail[0].1, tail[1].1
    );
    CompactionCosts { stream, tail }
}

/// Most allocations a served point Find, FindProject and `$match`
/// Aggregate may each make (S11 gate 4).
const POINT_FIND_MAX_ALLOCS: u64 = 14;
const POINT_FIND_PROJECT_MAX_ALLOCS: u64 = 23;
const POINT_AGGREGATE_MAX_ALLOCS: u64 = 16;

/// S11 gate 4: serves a point Find, FindProject and `$match` Aggregate on
/// a serial-pool server over the servebench-shaped corpus, first with no
/// insert segment and then with 64, and asserts each request's chunk,
/// probe and intersection counts, its allocations against its ceiling
/// ([`POINT_FIND_MAX_ALLOCS`] and the two after it), and that
/// they do not grow with the tail. Returns `(verb, insert segments,
/// allocations)` rows.
fn s11_point_reads() -> Vec<(&'static str, usize, u64)> {
    use jserve::{Request, Response};
    use jtrace::Counter;

    const TAIL: usize = 64;
    let server = s11_corpus_server();
    let sink = server.tenant_metrics("point").expect("tenant registered");
    let filter = r#"{"id": 4242}"#;
    let verbs = [
        (
            "find",
            Request::Find {
                filter: filter.into(),
            },
            POINT_FIND_MAX_ALLOCS,
        ),
        (
            "find_project",
            Request::FindProject {
                filter: filter.into(),
                projection: r#"{"name.first": 1, "age": 1}"#.into(),
            },
            POINT_FIND_PROJECT_MAX_ALLOCS,
        ),
        (
            "aggregate",
            Request::Aggregate {
                pipeline: format!(r#"[{{"$match": {filter}}}]"#),
            },
            POINT_AGGREGATE_MAX_ALLOCS,
        ),
    ];
    let mut rows = Vec::new();
    for tail in [0, TAIL] {
        let inserted = server.store().snapshot().collection().segments().len() - 1;
        for i in inserted..tail {
            let reply = server.serve(
                "point",
                &Request::Insert {
                    doc: s11_insert_doc(i),
                },
            );
            assert!(matches!(reply, Ok(Response::Inserted { .. })), "{reply:?}");
        }
        let segments = server.store().snapshot().collection().segments().len();
        assert_eq!(segments, tail + 1, "S11: one segment per insert");
        for (verb, req, most) in &verbs {
            // A first, unmeasured call leaves lazily built state behind.
            server.serve("point", req).expect("point read serves");
            let before = sink.snapshot();
            let (reply, prof) = memtrack::measure(|| server.serve("point", req));
            let after = sink.snapshot();
            let delta = |c: Counter| after.get(c) - before.get(c);
            match reply {
                Ok(Response::Docs { docs, .. }) => {
                    assert_eq!(docs.len(), 1, "S11: point {verb} finds its document")
                }
                other => panic!("S11: point {verb} returned {other:?}"),
            }
            let (chunks, probes, ands) = (
                delta(Counter::ChunksDispatched),
                delta(Counter::IndexProbes),
                delta(Counter::BitmapIntersections),
            );
            assert!(
                (chunks, probes, ands) == (0, 1, 0) && prof.allocs <= *most,
                "S11 gate: a point {verb} at {tail} insert segments must dispatch 0 chunks, \
                 record 1 index probe and 0 bitmap intersections, and make at most {most} \
                 allocations; it made {:?}",
                (chunks, probes, ands, prof.allocs)
            );
            rows.push((*verb, tail, prof.allocs));
        }
    }
    for (i, (verb, _, bare)) in rows[..verbs.len()].iter().enumerate() {
        let tailed = rows[verbs.len() + i].2;
        println!("point {verb}: {bare} allocations at 0 insert segments, {tailed} at {TAIL}");
        assert_eq!(
            *bare, tailed,
            "S11 gate: a point {verb} makes {bare} allocations with no insert segment and \
             {tailed} with {TAIL}: its cost grows with the insert tail"
        );
    }
    rows
}
