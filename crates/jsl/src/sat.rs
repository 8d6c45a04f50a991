//! Satisfiability for JSL (Propositions 7 and 10) and, through the
//! Theorem 2 translation, for non-deterministic JNL (Proposition 5).
//!
//! The engine is a modal tableau with theory reasoning at the leaves:
//!
//! * boolean structure branches; recursive definitions unfold lazily (their
//!   well-formedness guarantees local termination);
//! * at each node the solver branches on the node kind, then discharges
//!   the accumulated atoms: **string** constraints through DFA language
//!   algebra (intersection/complement/witness), **number** constraints
//!   through bounded window scanning over the periodic structure of
//!   `MultOf`, **object** constraints by carving the key space into Venn
//!   regions of the mentioned regexes and assigning diamonds to regions,
//!   and **array** constraints by branching over candidate lengths and
//!   positions;
//! * non-recursive formulas need models no taller than their modal depth,
//!   so the search is complete for them (Prop 7); recursive formulas are
//!   explored to a configurable height cap (Prop 10's procedure is
//!   EXPTIME-complete — the cap makes the implementation a semi-decision
//!   procedure that reports [`JslSatResult::Unknown`] when it bites);
//! * every witness is **re-verified** with the production evaluator before
//!   `Sat` is reported, and any verification mismatch downgrades a would-be
//!   `Unsat` to `Unknown`, keeping both verdicts sound.

use std::collections::{BTreeSet, HashMap};

use jsondata::{Interner, JStr, Json, JsonTree, Sym};
use relex::{Dfa, Regex};

use crate::ast::{Jsl, NodeTest};
use crate::recursive::RecursiveJsl;

/// Outcome of a satisfiability check.
#[derive(Debug, Clone, PartialEq)]
pub enum JslSatResult {
    /// Satisfiable; the witness has been re-verified by the evaluator.
    Sat(Json),
    /// No model exists (within the complete fragment).
    Unsat,
    /// Gave up: height cap, branch budget, or heuristic gap (explained).
    Unknown(String),
}

impl JslSatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, JslSatResult::Sat(_))
    }

    /// Whether the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, JslSatResult::Unsat)
    }
}

/// Tuning knobs for the tableau.
#[derive(Debug, Clone, Copy)]
pub struct SatConfig {
    /// Model-height cap; `None` derives it (modal depth for non-recursive
    /// input, 24 for recursive input).
    pub max_height: Option<usize>,
    /// Budget on explored branches.
    pub branch_budget: usize,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            max_height: None,
            branch_budget: 400_000,
        }
    }
}

/// Satisfiability of a plain (non-recursive) JSL formula — Proposition 7.
pub fn sat_jsl(phi: &Jsl) -> JslSatResult {
    sat_recursive(&RecursiveJsl::plain(phi.clone()), SatConfig::default())
}

/// Satisfiability of a recursive JSL expression — Proposition 10's
/// decision problem, explored to a height cap.
pub fn sat_recursive(delta: &RecursiveJsl, cfg: SatConfig) -> JslSatResult {
    if let Err(e) = delta.well_formed() {
        return JslSatResult::Unknown(format!("ill-formed expression: {e}"));
    }
    let height = cfg.max_height.unwrap_or_else(|| {
        if delta.defs.is_empty() {
            delta.base.modal_depth()
        } else {
            24
        }
    });
    let defs: HashMap<&str, &Jsl> = delta.defs.iter().map(|(n, p)| (n.as_str(), p)).collect();
    let mut solver = Tableau {
        defs,
        budget: cfg.branch_budget,
        capped: false,
        mismatch: false,
        ill_formed: None,
        dfa_cache: HashMap::new(),
        syms: Interner::new(),
        delta,
    };
    match solver.solve(vec![Lit::pos(delta.base.clone())], height) {
        Some(witness) => {
            // Final verification with the production evaluator (fail-closed:
            // an ill-formed Δ downgrades to Unknown, never a panic).
            let tree = JsonTree::build(&witness);
            match delta.try_check_root(&tree) {
                Ok(true) => JslSatResult::Sat(witness),
                Ok(false) => JslSatResult::Unknown(
                    "internal: constructed witness failed verification".to_owned(),
                ),
                Err(e) => JslSatResult::Unknown(format!("ill-formed expression: {e}")),
            }
        }
        None if solver.ill_formed.is_some() => JslSatResult::Unknown(format!(
            "{} reached during search",
            solver.ill_formed.expect("checked")
        )),
        None if solver.capped => JslSatResult::Unknown(format!(
            "no model within height {height} / branch budget (recursive formulas may need deeper models)"
        )),
        None if solver.mismatch => JslSatResult::Unknown(
            "search exhausted but a candidate failed verification (heuristic gap)".to_owned(),
        ),
        None => JslSatResult::Unsat,
    }
}

/// A signed formula.
#[derive(Debug, Clone)]
struct Lit {
    phi: Jsl,
    positive: bool,
}

impl Lit {
    fn pos(phi: Jsl) -> Lit {
        Lit {
            phi,
            positive: true,
        }
    }

    fn neg(phi: Jsl) -> Lit {
        Lit {
            phi,
            positive: false,
        }
    }
}

/// Atoms accumulated at one tableau node.
#[derive(Debug, Default, Clone)]
struct NodeAtoms {
    kind_pos: Vec<NodeKindReq>,
    // Value constraints (apply when the kind matches; contradict otherwise).
    patterns_pos: Vec<Regex>,
    patterns_neg: Vec<Regex>,
    /// Positive `Min(i)` (implies the node is a number).
    min_pos: Option<u64>,
    /// Positive `Max(i)` (implies the node is a number).
    max_pos: Option<u64>,
    /// Negated `Min(i)`: *if* a number, value < i.
    neg_min: Vec<u64>,
    /// Negated `Max(i)`: *if* a number, value > i.
    neg_max: Vec<u64>,
    mult_pos: Vec<u64>,
    mult_neg: Vec<u64>,
    num_neq: Vec<u64>,
    minch: u64,
    maxch: Option<u64>,
    unique_pos: bool,
    unique_neg: bool,
    eq_docs: Vec<Json>,
    neq_docs: Vec<Json>,
    // Modal obligations.
    dia_key: Vec<(Regex, Jsl)>,
    box_key: Vec<(Regex, Jsl)>,
    dia_rng: Vec<(u64, Option<u64>, Jsl)>,
    box_rng: Vec<(u64, Option<u64>, Jsl)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKindReq {
    Obj,
    Arr,
    Str,
    Int,
    NotObj,
    NotArr,
    NotStr,
    NotInt,
}

struct Tableau<'a> {
    defs: HashMap<&'a str, &'a Jsl>,
    budget: usize,
    capped: bool,
    mismatch: bool,
    /// First ill-formedness (dangling definition name, cycle) encountered
    /// during search. The `sat_recursive` entry guards with
    /// `well_formed()` so this stays `None` there, but any branch that
    /// does hit one fails closed (the branch is abandoned, the exhausted
    /// search reports `Unknown`) instead of panicking across the governed
    /// boundary.
    ill_formed: Option<String>,
    dfa_cache: HashMap<Regex, Dfa>,
    /// Query-owned symbol table for witness generation: every object key a
    /// realized witness uses is interned once, so key accumulation and
    /// cross-region dedup compare `Sym`s; strings materialise only when the
    /// final `Json` object is assembled.
    syms: Interner,
    delta: &'a RecursiveJsl,
}

impl<'a> Tableau<'a> {
    fn dfa(&mut self, e: &Regex) -> Dfa {
        self.dfa_cache
            .entry(e.clone())
            .or_insert_with(|| e.to_dfa())
            .clone()
    }

    /// Satisfies the literal set at one node, building a subtree of height
    /// ≤ `height`.
    fn solve(&mut self, mut work: Vec<Lit>, height: usize) -> Option<Json> {
        if self.budget == 0 {
            self.capped = true;
            return None;
        }
        self.budget -= 1;

        let mut atoms = NodeAtoms::default();
        // Saturate boolean structure; branch on disjunctions.
        while let Some(lit) = work.pop() {
            match (lit.phi, lit.positive) {
                (Jsl::True, true) => {}
                (Jsl::True, false) => return None,
                (Jsl::Not(p), sign) => work.push(Lit {
                    phi: *p,
                    positive: !sign,
                }),
                (Jsl::And(ps), true) => work.extend(ps.into_iter().map(Lit::pos)),
                (Jsl::And(ps), false) => {
                    // ¬(∧) → branch on which conjunct fails.
                    for p in ps {
                        let mut w2 = work.clone();
                        w2.push(Lit::neg(p));
                        if let Some(m) = self.solve_with_atoms(w2, atoms.clone(), height) {
                            return Some(m);
                        }
                    }
                    return None;
                }
                (Jsl::Or(ps), true) => {
                    for p in ps {
                        let mut w2 = work.clone();
                        w2.push(Lit::pos(p));
                        if let Some(m) = self.solve_with_atoms(w2, atoms.clone(), height) {
                            return Some(m);
                        }
                    }
                    return None;
                }
                (Jsl::Or(ps), false) => work.extend(ps.into_iter().map(Lit::neg)),
                (Jsl::Var(v), sign) => {
                    // A dangling name fails the branch closed (recorded so
                    // exhaustion reports Unknown, not an unsound Unsat).
                    let Some(def) = self.defs.get(v.as_str()) else {
                        self.ill_formed
                            .get_or_insert_with(|| format!("undefined definition ${v}"));
                        return None;
                    };
                    let def = (*def).clone();
                    work.push(Lit {
                        phi: def,
                        positive: sign,
                    });
                }
                (Jsl::Test(t), sign) => {
                    if !accumulate_test(&mut atoms, t, sign) {
                        return None;
                    }
                }
                (Jsl::DiamondKey(e, p), true) => atoms.dia_key.push((e, *p)),
                (Jsl::DiamondKey(e, p), false) => atoms.box_key.push((e, Jsl::not(*p))),
                (Jsl::BoxKey(e, p), true) => atoms.box_key.push((e, *p)),
                (Jsl::BoxKey(e, p), false) => atoms.dia_key.push((e, Jsl::not(*p))),
                (Jsl::DiamondRange(i, j, p), true) => atoms.dia_rng.push((i, j, *p)),
                (Jsl::DiamondRange(i, j, p), false) => atoms.box_rng.push((i, j, Jsl::not(*p))),
                (Jsl::BoxRange(i, j, p), true) => atoms.box_rng.push((i, j, *p)),
                (Jsl::BoxRange(i, j, p), false) => atoms.dia_rng.push((i, j, Jsl::not(*p))),
            }
        }
        self.close_node(atoms, height)
    }

    fn solve_with_atoms(
        &mut self,
        mut work: Vec<Lit>,
        atoms: NodeAtoms,
        height: usize,
    ) -> Option<Json> {
        // Re-inject accumulated atoms as literals to keep one code path.
        reinject(&mut work, atoms);
        self.solve(work, height)
    }

    /// All boolean work done: pick a kind and discharge the atoms.
    fn close_node(&mut self, atoms: NodeAtoms, height: usize) -> Option<Json> {
        use NodeKindReq::*;
        let mut allowed = vec![
            KindChoice::Str,
            KindChoice::Int,
            KindChoice::Obj,
            KindChoice::Arr,
        ];
        for req in &atoms.kind_pos {
            allowed.retain(|k| match req {
                Obj => *k == KindChoice::Obj,
                Arr => *k == KindChoice::Arr,
                Str => *k == KindChoice::Str,
                Int => *k == KindChoice::Int,
                NotObj => *k != KindChoice::Obj,
                NotArr => *k != KindChoice::Arr,
                NotStr => *k != KindChoice::Str,
                NotInt => *k != KindChoice::Int,
            });
        }
        // Exact-document bindings restrict the kind immediately.
        if let Some(first) = atoms.eq_docs.first() {
            if atoms.eq_docs.iter().any(|d| d != first) {
                return None;
            }
            let k = match first {
                Json::Object(_) => KindChoice::Obj,
                Json::Array(_) => KindChoice::Arr,
                Json::Str(_) => KindChoice::Str,
                Json::Num(_) => KindChoice::Int,
            };
            allowed.retain(|kk| *kk == k);
            if allowed.is_empty() {
                return None;
            }
            // Check every remaining constraint by direct evaluation on the
            // bound document.
            let doc = first.clone();
            return self.verify_atoms_on(&doc, &atoms).then_some(doc);
        }
        for kind in allowed {
            let result = match kind {
                KindChoice::Str => self.close_string(&atoms),
                KindChoice::Int => self.close_number(&atoms),
                KindChoice::Obj => self.close_object(&atoms, height),
                KindChoice::Arr => self.close_array(&atoms, height),
            };
            if let Some(doc) = result {
                // Local re-verification of the atoms (covers ¬EqDoc,
                // Unique interplay, …).
                if self.verify_atoms_on(&doc, &atoms) {
                    return Some(doc);
                }
                self.mismatch = true;
            }
        }
        None
    }

    /// Direct evaluation of all accumulated atoms against a concrete
    /// document (sound closure of every heuristic above).
    fn verify_atoms_on(&mut self, doc: &Json, atoms: &NodeAtoms) -> bool {
        let tree = JsonTree::build(doc);
        let mut parts: Vec<Jsl> = Vec::new();
        collect_atom_formulas(atoms, &mut parts);
        let phi = Jsl::and(parts);
        let delta = RecursiveJsl {
            defs: self.delta.defs.clone(),
            base: phi,
        };
        match delta.try_check_root(&tree) {
            Ok(holds) => holds,
            Err(e) => {
                // Fail closed: the candidate is rejected and the defect
                // recorded, instead of unwinding mid-search.
                self.ill_formed.get_or_insert_with(|| e.to_string());
                false
            }
        }
    }

    fn close_string(&mut self, atoms: &NodeAtoms) -> Option<Json> {
        // Structural demands no string can meet.
        if atoms.unique_pos
            || atoms.minch > 0
            || !atoms.dia_key.is_empty()
            || !atoms.dia_rng.is_empty()
            || atoms.min_pos.is_some()
            || atoms.max_pos.is_some()
            || !atoms.mult_pos.is_empty()
        {
            return None;
        }
        let mut lang = Regex::sigma_star().to_dfa();
        for e in &atoms.patterns_pos {
            let d = self.dfa(e);
            lang = lang.intersect(&d);
        }
        for e in &atoms.patterns_neg {
            let d = self.dfa(e);
            lang = lang.intersect(&d.complement());
        }
        for d in &atoms.neq_docs {
            if let Json::Str(s) = d {
                let lit = Regex::literal(s).to_dfa();
                lang = lang.intersect(&lit.complement());
            }
        }
        lang.example().map(Json::str)
    }

    fn close_number(&mut self, atoms: &NodeAtoms) -> Option<Json> {
        if !atoms.patterns_pos.is_empty()
            || atoms.unique_pos
            || atoms.minch > 0
            || !atoms.dia_key.is_empty()
            || !atoms.dia_rng.is_empty()
        {
            return None;
        }
        // Lower bound: positive Min and negated Max (value > i).
        let mut lo = atoms.min_pos.unwrap_or(0);
        for i in &atoms.neg_max {
            lo = lo.max(i + 1);
        }
        // Upper bound: positive Max and negated Min (value < i).
        let mut hi_opt = atoms.max_pos;
        for i in &atoms.neg_min {
            if *i == 0 {
                return None; // value < 0 impossible for naturals
            }
            hi_opt = Some(hi_opt.map_or(i - 1, |h| h.min(i - 1)));
        }
        // Window: one period of every multiplier past all point
        // disequalities suffices because the constraint set is eventually
        // periodic.
        let period: u64 = atoms
            .mult_pos
            .iter()
            .chain(atoms.mult_neg.iter())
            .product::<u64>()
            .clamp(1, 1 << 20);
        let window = period + atoms.num_neq.len() as u64 + atoms.neq_docs.len() as u64 + 2;
        let hi = hi_opt.unwrap_or(lo.saturating_add(window));
        let mut v = lo;
        while v <= hi {
            let ok = atoms.mult_pos.iter().all(|m| {
                if *m == 0 {
                    v == 0
                } else {
                    v.is_multiple_of(*m)
                }
            }) && atoms.mult_neg.iter().all(|m| {
                if *m == 0 {
                    v != 0
                } else {
                    !v.is_multiple_of(*m)
                }
            }) && !atoms.num_neq.contains(&v)
                && !atoms.neq_docs.contains(&Json::Num(v));
            if ok {
                return Some(Json::Num(v));
            }
            v += 1;
        }
        None
    }

    fn close_object(&mut self, atoms: &NodeAtoms, height: usize) -> Option<Json> {
        if !atoms.patterns_pos.is_empty()
            || atoms.min_pos.is_some()
            || atoms.max_pos.is_some()
            || !atoms.mult_pos.is_empty()
            || atoms.unique_pos
            || !atoms.dia_rng.is_empty()
        {
            return None;
        }
        if !atoms.dia_key.is_empty() && height == 0 {
            self.capped = true;
            return None;
        }
        // Carve the key space into Venn regions over every distinct regex
        // mentioned at this node. Each diamond and box resolves to the
        // *index* of its regex here, once — the only place regex structures
        // are ever compared. Expansion below answers every region-membership
        // question with one shift-and-mask over those indices, and every
        // region DFA is computed at most once per mask (cached in the
        // [`KeySpace`]); keys stay interned `Sym`s until final assembly.
        let mut regexes: Vec<Regex> = Vec::new();
        let mut dia_idx: Vec<usize> = Vec::with_capacity(atoms.dia_key.len());
        let mut box_idx: Vec<usize> = Vec::with_capacity(atoms.box_key.len());
        for (list, out) in [
            (&atoms.dia_key, &mut dia_idx),
            (&atoms.box_key, &mut box_idx),
        ] {
            for (e, _) in list.iter() {
                let i = regexes.iter().position(|x| x == e).unwrap_or_else(|| {
                    regexes.push(e.clone());
                    regexes.len() - 1
                });
                out.push(i);
            }
        }
        if regexes.len() > 12 {
            self.capped = true;
            return None;
        }
        let dfas: Vec<Dfa> = regexes.iter().map(|e| self.dfa(e)).collect();
        let mut space = KeySpace {
            n_regexes: regexes.len(),
            dfas,
            sigma: Regex::sigma_star().to_dfa(),
            dia_idx,
            box_idx,
            regions: HashMap::new(),
        };

        // Assign each diamond to a Venn region compatible with its regex,
        // trying (a) pairwise-distinct keys, then (b) merging diamonds that
        // share a region. Regions are enumerated as bitmasks over `regexes`.
        let n_dia = atoms.dia_key.len();
        let mut assignment: Vec<u32> = vec![0; n_dia]; // region mask per diamond
        self.assign_diamonds(atoms, &mut space, &mut assignment, 0, height)
    }

    fn assign_diamonds(
        &mut self,
        atoms: &NodeAtoms,
        space: &mut KeySpace,
        assignment: &mut Vec<u32>,
        next: usize,
        height: usize,
    ) -> Option<Json> {
        if self.budget == 0 {
            self.capped = true;
            return None;
        }
        if next == atoms.dia_key.len() {
            return self.realize_object(atoms, space, assignment, height);
        }
        let d_idx = space.dia_idx[next];
        // Enumerate region masks containing d_idx.
        for mask in 0u32..(1 << space.n_regexes) {
            if mask & (1 << d_idx) == 0 {
                continue;
            }
            // Region emptiness check.
            if space.region(mask).is_empty() {
                continue;
            }
            self.budget = self.budget.saturating_sub(1);
            assignment[next] = mask;
            if let Some(doc) = self.assign_diamonds(atoms, space, assignment, next + 1, height) {
                return Some(doc);
            }
        }
        None
    }

    /// Materialises an object for a fixed diamond→region assignment.
    fn realize_object(
        &mut self,
        atoms: &NodeAtoms,
        space: &mut KeySpace,
        assignment: &[u32],
        height: usize,
    ) -> Option<Json> {
        // Group diamonds by region; each group first tries distinct keys,
        // falling back to a single shared key (covers MaxCh pressure).
        let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
        for (d, &mask) in assignment.iter().enumerate() {
            groups.entry(mask).or_default().push(d);
        }
        let mut pairs: Vec<(Sym, Json)> = Vec::new();
        // Keys already placed, by symbol — carried incrementally so every
        // dedup below is a `Sym` set probe, never a string comparison.
        let mut used: BTreeSet<Sym> = BTreeSet::new();
        for (&mask, dias) in &groups {
            let keys: Vec<Sym> = space
                .region(mask)
                .examples(dias.len())
                .iter()
                .map(|k| self.syms.intern(k))
                .collect();
            if keys.is_empty() {
                return None;
            }
            // Box bodies applying to this region: every box whose regex
            // index lands in the mask.
            let box_bodies: Vec<&Jsl> = atoms
                .box_key
                .iter()
                .enumerate()
                .filter(|(b, _)| space.box_applies(*b, mask))
                .map(|(_, (_, p))| p)
                .collect();
            if keys.len() >= dias.len() {
                // Distinct keys: one child per diamond.
                for (d, &key) in dias.iter().zip(keys.iter()) {
                    let mut lits = vec![Lit::pos(atoms.dia_key[*d].1.clone())];
                    lits.extend(box_bodies.iter().map(|b| Lit::pos((*b).clone())));
                    let child = self.solve(lits, height - 1)?;
                    pairs.push((key, child));
                    used.insert(key);
                }
            } else {
                // Shared key: all diamond bodies conjoined.
                let mut lits: Vec<Lit> = dias
                    .iter()
                    .map(|d| Lit::pos(atoms.dia_key[*d].1.clone()))
                    .collect();
                lits.extend(box_bodies.iter().map(|b| Lit::pos((*b).clone())));
                let child = self.solve(lits, height - 1)?;
                pairs.push((keys[0], child));
                used.insert(keys[0]);
            }
        }
        // MinCh padding: add children from the all-complement region when
        // possible, else from any region whose boxes are satisfiable.
        let have = pairs.len() as u64;
        if atoms.minch > have {
            let needed = (atoms.minch - have) as usize;
            let candidates: Vec<Sym> = space
                .region(0)
                .examples(needed)
                .iter()
                .map(|k| self.syms.intern(k))
                .collect();
            if candidates.len() >= needed {
                for key in candidates {
                    pairs.push((key, Json::Num(0)));
                }
            } else if space.n_regexes == 0 {
                return None; // Σ* region is infinite; unreachable
            } else {
                // Pad inside a box-covered region: children must satisfy the
                // applicable boxes. Dedup against already-used keys by
                // symbol: a candidate that was never interned cannot collide.
                let mut padded = candidates.len();
                for key in candidates {
                    pairs.push((key, Json::Num(0)));
                    used.insert(key);
                }
                'outer: for mask in 1u32..(1 << space.n_regexes) {
                    if padded >= needed {
                        break;
                    }
                    let ks: Vec<Sym> = space
                        .region(mask)
                        .examples(needed + used.len())
                        .into_iter()
                        .map(|k| self.syms.intern(&k))
                        .filter(|s| !used.contains(s))
                        .collect();
                    for key in ks {
                        if padded >= needed {
                            break 'outer;
                        }
                        let box_bodies: Vec<Lit> = atoms
                            .box_key
                            .iter()
                            .enumerate()
                            .filter(|(b, _)| space.box_applies(*b, mask))
                            .map(|(_, (_, p))| Lit::pos(p.clone()))
                            .collect();
                        if height == 0 {
                            self.capped = true;
                            return None;
                        }
                        let child = self.solve(box_bodies, height - 1)?;
                        pairs.push((key, child));
                        used.insert(key);
                        padded += 1;
                    }
                }
                if padded < needed {
                    return None;
                }
            }
        }
        if let Some(maxch) = atoms.maxch {
            if pairs.len() as u64 > maxch {
                return None;
            }
        }
        // Key collisions across regions are impossible (regions are
        // disjoint), but shared-key groups may collide with padding — the
        // object constructor rejects duplicates, treat as branch failure.
        // Symbols resolve back to strings only here, at assembly.
        let pairs: Vec<(JStr, Json)> = pairs
            .into_iter()
            .map(|(k, v)| (self.syms.resolve(k).into(), v))
            .collect();
        Json::object(pairs).ok()
    }

    fn close_array(&mut self, atoms: &NodeAtoms, height: usize) -> Option<Json> {
        if !atoms.patterns_pos.is_empty()
            || atoms.min_pos.is_some()
            || atoms.max_pos.is_some()
            || !atoms.mult_pos.is_empty()
            || !atoms.dia_key.is_empty()
        {
            return None;
        }
        if !atoms.dia_rng.is_empty() && height == 0 {
            self.capped = true;
            return None;
        }
        // Candidate lengths: boundary values of every constraint.
        let mut candidates: Vec<u64> = vec![0, atoms.minch];
        if atoms.unique_neg {
            candidates.push(2);
            candidates.push(atoms.minch.max(2));
        }
        for (i, j, _) in atoms.dia_rng.iter().chain(atoms.box_rng.iter()) {
            candidates.push(i + 1);
            if let Some(j) = j {
                candidates.push(j + 1);
            }
        }
        if let Some(m) = atoms.maxch {
            candidates.push(m);
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&l| l >= atoms.minch && atoms.maxch.is_none_or(|m| l <= m));

        'lens: for &len in &candidates {
            if self.budget == 0 {
                self.capped = true;
                return None;
            }
            self.budget -= 1;
            // Every diamond needs a position within [i, min(j, len-1)].
            let mut pos_of: Vec<u64> = Vec::new();
            for (i, j, _) in &atoms.dia_rng {
                let hi = j.map_or(len.saturating_sub(1), |j| j.min(len.saturating_sub(1)));
                if len == 0 || *i > hi {
                    continue 'lens;
                }
                // Leftmost position; diamonds at the same position conjoin.
                pos_of.push(*i);
            }
            let mut items: Vec<Json> = Vec::with_capacity(len as usize);
            let mut ok = true;
            for p in 0..len {
                let mut lits: Vec<Lit> = Vec::new();
                for (d, (_, _, body)) in atoms.dia_rng.iter().enumerate() {
                    if pos_of[d] == p {
                        lits.push(Lit::pos(body.clone()));
                    }
                }
                for (i, j, body) in &atoms.box_rng {
                    if p >= *i && j.is_none_or(|j| p <= j) {
                        lits.push(Lit::pos(body.clone()));
                    }
                }
                if atoms.unique_pos {
                    // Make padding positions distinct by default.
                    lits.push(Lit::pos(Jsl::True));
                }
                if height == 0 && !lits.is_empty() {
                    // Children must exist but we cannot descend.
                    if lits.iter().any(|l| !matches!(l.phi, Jsl::True)) {
                        self.capped = true;
                        ok = false;
                        break;
                    }
                }
                let child = if height == 0 {
                    Json::Num(p)
                } else {
                    match self.solve(lits, height - 1) {
                        Some(c) => c,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                };
                items.push(child);
            }
            if !ok {
                continue;
            }
            if atoms.unique_pos {
                // Perturb duplicate unconstrained numeric padding.
                make_distinct(&mut items);
            }
            if atoms.unique_neg && items.len() >= 2 {
                // Force a duplicate if two unconstrained slots exist — the
                // verification pass will reject if this breaks something.
                let last = items.len() - 1;
                items[last] = items[0].clone();
            }
            return Some(Json::Array(items));
        }
        None
    }
}

/// The carved key space of one object node: the Venn-region machinery
/// shared by diamond assignment and object realization. Every diamond and
/// box is pre-resolved to the index of its regex in the distinct-regex
/// list, so expansion decides region membership with one shift-and-mask
/// over small integers — regex structures (and the key strings inside
/// them) are compared exactly once, at construction — and each region's
/// DFA is built at most once per mask. Witness keys themselves live as
/// tableau-interner `Sym`s until final object assembly.
struct KeySpace {
    /// Number of distinct regexes (the mask width).
    n_regexes: usize,
    /// DFA per distinct regex, aligned with the mask bits.
    dfas: Vec<Dfa>,
    /// Σ* — the universe the regions partition.
    sigma: Dfa,
    /// Regex index per diamond (aligned with `NodeAtoms::dia_key`).
    dia_idx: Vec<usize>,
    /// Regex index per box (aligned with `NodeAtoms::box_key`).
    box_idx: Vec<usize>,
    /// Region DFA per mask, computed on first use.
    regions: HashMap<u32, Dfa>,
}

impl KeySpace {
    /// The DFA of the Venn region selected by `mask`: keys inside every
    /// masked regex's language and outside every unmasked one's.
    fn region(&mut self, mask: u32) -> &Dfa {
        if !self.regions.contains_key(&mask) {
            let mut acc = self.sigma.clone();
            for (i, d) in self.dfas.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    acc = acc.intersect(d);
                } else {
                    acc = acc.intersect(&d.complement());
                }
            }
            self.regions.insert(mask, acc);
        }
        self.regions.get(&mask).expect("just inserted")
    }

    /// Whether box `b` applies to region `mask` (its regex bit is set).
    fn box_applies(&self, b: usize, mask: u32) -> bool {
        mask & (1 << self.box_idx[b]) != 0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KindChoice {
    Obj,
    Arr,
    Str,
    Int,
}

fn accumulate_test(atoms: &mut NodeAtoms, t: NodeTest, sign: bool) -> bool {
    use NodeKindReq::*;
    match (t, sign) {
        (NodeTest::Obj, true) => atoms.kind_pos.push(Obj),
        (NodeTest::Obj, false) => atoms.kind_pos.push(NotObj),
        (NodeTest::Arr, true) => atoms.kind_pos.push(Arr),
        (NodeTest::Arr, false) => atoms.kind_pos.push(NotArr),
        (NodeTest::Str, true) => atoms.kind_pos.push(Str),
        (NodeTest::Str, false) => atoms.kind_pos.push(NotStr),
        (NodeTest::Int, true) => atoms.kind_pos.push(Int),
        (NodeTest::Int, false) => atoms.kind_pos.push(NotInt),
        (NodeTest::Pattern(e), true) => {
            atoms.kind_pos.push(Str);
            atoms.patterns_pos.push(e);
        }
        // ¬Pattern(e): not a string, or a string outside L(e). Model as a
        // negative pattern that only bites for strings (handled per kind).
        (NodeTest::Pattern(e), false) => atoms.patterns_neg.push(e),
        (NodeTest::Min(i), true) => {
            atoms.kind_pos.push(Int);
            atoms.min_pos = Some(atoms.min_pos.map_or(i, |m| m.max(i)));
        }
        (NodeTest::Min(i), false) => {
            // ¬Min(i): either not a number, or value < i. A natural below 0
            // is impossible, so ¬Min(0) rules the number kind out entirely;
            // otherwise record the bound for close_number only.
            if i == 0 {
                atoms.kind_pos.push(NotInt);
            } else {
                atoms.neg_min.push(i);
            }
        }
        (NodeTest::Max(i), true) => {
            atoms.kind_pos.push(Int);
            atoms.max_pos = Some(atoms.max_pos.map_or(i, |m| m.min(i)));
        }
        (NodeTest::Max(i), false) => {
            atoms.neg_max.push(i);
        }
        (NodeTest::MultOf(i), true) => {
            atoms.kind_pos.push(Int);
            atoms.mult_pos.push(i);
        }
        (NodeTest::MultOf(i), false) => atoms.mult_neg.push(i),
        (NodeTest::MinCh(i), true) => atoms.minch = atoms.minch.max(i),
        (NodeTest::MinCh(i), false) => {
            if i == 0 {
                return false;
            }
            atoms.maxch = Some(atoms.maxch.map_or(i - 1, |m| m.min(i - 1)));
        }
        (NodeTest::MaxCh(i), true) => {
            atoms.maxch = Some(atoms.maxch.map_or(i, |m| m.min(i)));
        }
        (NodeTest::MaxCh(i), false) => atoms.minch = atoms.minch.max(i + 1),
        (NodeTest::Unique, true) => {
            atoms.kind_pos.push(Arr);
            atoms.unique_pos = true;
        }
        (NodeTest::Unique, false) => atoms.unique_neg = true,
        (NodeTest::EqDoc(d), true) => atoms.eq_docs.push(d),
        (NodeTest::EqDoc(d), false) => {
            if let Json::Num(v) = &d {
                atoms.num_neq.push(*v);
            }
            atoms.neq_docs.push(d);
        }
    }
    true
}

/// Serialises atoms back into a conjunction (for re-verification).
fn collect_atom_formulas(atoms: &NodeAtoms, out: &mut Vec<Jsl>) {
    use NodeKindReq::*;
    for k in &atoms.kind_pos {
        out.push(match k {
            Obj => Jsl::Test(NodeTest::Obj),
            Arr => Jsl::Test(NodeTest::Arr),
            Str => Jsl::Test(NodeTest::Str),
            Int => Jsl::Test(NodeTest::Int),
            NotObj => Jsl::not(Jsl::Test(NodeTest::Obj)),
            NotArr => Jsl::not(Jsl::Test(NodeTest::Arr)),
            NotStr => Jsl::not(Jsl::Test(NodeTest::Str)),
            NotInt => Jsl::not(Jsl::Test(NodeTest::Int)),
        });
    }
    for e in &atoms.patterns_pos {
        out.push(Jsl::Test(NodeTest::Pattern(e.clone())));
    }
    for e in &atoms.patterns_neg {
        out.push(Jsl::not(Jsl::Test(NodeTest::Pattern(e.clone()))));
    }
    if let Some(m) = atoms.min_pos {
        out.push(Jsl::Test(NodeTest::Min(m)));
    }
    if let Some(m) = atoms.max_pos {
        out.push(Jsl::Test(NodeTest::Max(m)));
    }
    for i in &atoms.neg_min {
        out.push(Jsl::not(Jsl::Test(NodeTest::Min(*i))));
    }
    for i in &atoms.neg_max {
        out.push(Jsl::not(Jsl::Test(NodeTest::Max(*i))));
    }
    for m in &atoms.mult_pos {
        out.push(Jsl::Test(NodeTest::MultOf(*m)));
    }
    for m in &atoms.mult_neg {
        out.push(Jsl::not(Jsl::Test(NodeTest::MultOf(*m))));
    }
    if atoms.minch > 0 {
        out.push(Jsl::Test(NodeTest::MinCh(atoms.minch)));
    }
    if let Some(m) = atoms.maxch {
        out.push(Jsl::Test(NodeTest::MaxCh(m)));
    }
    if atoms.unique_pos {
        out.push(Jsl::Test(NodeTest::Unique));
    }
    if atoms.unique_neg {
        out.push(Jsl::not(Jsl::Test(NodeTest::Unique)));
    }
    for d in &atoms.eq_docs {
        out.push(Jsl::Test(NodeTest::EqDoc(d.clone())));
    }
    for d in &atoms.neq_docs {
        out.push(Jsl::not(Jsl::Test(NodeTest::EqDoc(d.clone()))));
    }
    for (e, p) in &atoms.dia_key {
        out.push(Jsl::DiamondKey(e.clone(), Box::new(p.clone())));
    }
    for (e, p) in &atoms.box_key {
        out.push(Jsl::BoxKey(e.clone(), Box::new(p.clone())));
    }
    for (i, j, p) in &atoms.dia_rng {
        out.push(Jsl::DiamondRange(*i, *j, Box::new(p.clone())));
    }
    for (i, j, p) in &atoms.box_rng {
        out.push(Jsl::BoxRange(*i, *j, Box::new(p.clone())));
    }
}

fn reinject(work: &mut Vec<Lit>, atoms: NodeAtoms) {
    let mut parts = Vec::new();
    collect_atom_formulas(&atoms, &mut parts);
    work.extend(parts.into_iter().map(Lit::pos));
}

fn make_distinct(items: &mut [Json]) {
    // Bump duplicate free-standing numbers upward.
    let mut seen: Vec<Json> = Vec::new();
    let mut next_free = 1_000_000u64;
    for item in items.iter_mut() {
        if seen.contains(item) && matches!(item, Json::Num(_)) {
            *item = Json::Num(next_free);
            next_free += 1;
        }
        seen.push(item.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Jsl as J;
    use crate::ast::NodeTest as T;

    fn assert_sat(phi: J) -> Json {
        match sat_jsl(&phi) {
            JslSatResult::Sat(w) => {
                let t = JsonTree::build(&w);
                assert!(crate::eval::check_root(&t, &phi), "witness {w} fails {phi}");
                w
            }
            other => panic!("expected Sat for {phi}, got {other:?}"),
        }
    }

    fn assert_unsat(phi: J) {
        assert_eq!(sat_jsl(&phi), JslSatResult::Unsat, "{phi}");
    }

    #[test]
    fn string_constraints() {
        let w = assert_sat(J::and(vec![
            J::Test(T::Pattern(Regex::parse("(0|1)+").unwrap())),
            J::not(J::Test(T::EqDoc(Json::str("0")))),
        ]));
        assert!(w.is_string());
        assert_unsat(J::and(vec![
            J::Test(T::Pattern(Regex::parse("a+").unwrap())),
            J::Test(T::Pattern(Regex::parse("b+").unwrap())),
        ]));
    }

    #[test]
    fn number_constraints() {
        let w = assert_sat(J::and(vec![
            J::Test(T::Min(10)),
            J::Test(T::Max(20)),
            J::Test(T::MultOf(7)),
        ]));
        assert_eq!(w, Json::Num(14));
        assert_unsat(J::and(vec![
            J::Test(T::Min(15)),
            J::Test(T::Max(20)),
            J::Test(T::MultOf(7)),
        ]));
        // ¬MultOf windows.
        assert_sat(J::and(vec![
            J::Test(T::Int),
            J::not(J::Test(T::MultOf(2))),
            J::Test(T::Min(100)),
        ]));
    }

    #[test]
    fn object_constraints() {
        // The paper's Prop-2-style clash, in JSL form: a key that must be
        // both an array and an object.
        assert_unsat(J::and(vec![
            J::diamond_key("a", J::Test(T::Arr)),
            J::box_key("a", J::Test(T::Obj)),
        ]));
        let w = assert_sat(J::and(vec![
            J::diamond_key("name", J::Test(T::Str)),
            J::diamond_key("age", J::Test(T::Min(18))),
            J::Test(T::MinCh(3)),
        ]));
        assert!(w.as_object().unwrap().len() >= 3);
    }

    #[test]
    fn regex_diamonds_and_boxes() {
        // ◇_{a(b|c)a}⊤ ∧ □_{Σ*} MultOf(2): some abc-key child; all children
        // even numbers.
        let w = assert_sat(J::and(vec![
            J::DiamondKey(Regex::parse("a(b|c)a").unwrap(), Box::new(J::True)),
            J::box_any_key(J::and(vec![J::Test(T::Int), J::Test(T::MultOf(2))])),
        ]));
        let o = w.as_object().unwrap();
        assert!(o.iter().any(|(k, _)| k == "aba" || k == "aca"));
        for (_, v) in o.iter() {
            assert!(v.as_num().unwrap() % 2 == 0);
        }
    }

    #[test]
    fn pspace_universality_style_unsat() {
        // [X_{Σ*}]⊥ ∧ ◇_e ⊤ is unsat for any e: the box forbids all
        // children, the diamond demands one.
        assert_unsat(J::and(vec![
            J::box_any_key(J::falsity()),
            J::DiamondKey(Regex::parse("x+").unwrap(), Box::new(J::True)),
        ]));
    }

    #[test]
    fn array_constraints() {
        let w = assert_sat(J::and(vec![
            J::Test(T::Arr),
            J::DiamondRange(2, Some(2), Box::new(J::Test(T::EqDoc(Json::Num(9))))),
            J::BoxRange(0, None, Box::new(J::Test(T::Int))),
        ]));
        assert_eq!(w.index(2), Some(&Json::Num(9)));
        // MaxCh below a required position.
        assert_unsat(J::and(vec![
            J::DiamondRange(5, Some(5), Box::new(J::True)),
            J::Test(T::MaxCh(3)),
        ]));
    }

    #[test]
    fn unique_interaction() {
        let w = assert_sat(J::and(vec![
            J::Test(T::Unique),
            J::Test(T::MinCh(3)),
            J::BoxRange(0, None, Box::new(J::Test(T::Int))),
        ]));
        let items = w.as_array().unwrap();
        assert!(items.len() >= 3);
        for i in 0..items.len() {
            for j in i + 1..items.len() {
                assert_ne!(items[i], items[j]);
            }
        }
        // ¬Unique with two forced-equal children.
        let w = assert_sat(J::and(vec![
            J::Test(T::Arr),
            J::Test(T::MinCh(2)),
            J::not(J::Test(T::Unique)),
        ]));
        let items = w.as_array().unwrap();
        assert!(items
            .iter()
            .any(|x| items.iter().filter(|y| *y == x).count() > 1));
    }

    #[test]
    fn eq_doc_binding_checks_other_constraints() {
        let doc = jsondata::parse(r#"{"a": 1}"#).unwrap();
        assert_sat(J::and(vec![
            J::Test(T::EqDoc(doc.clone())),
            J::diamond_key("a", J::Test(T::Int)),
        ]));
        assert_unsat(J::and(vec![
            J::Test(T::EqDoc(doc)),
            J::diamond_key("b", J::True),
        ]));
    }

    #[test]
    fn recursive_even_depth_is_satisfiable() {
        let delta = RecursiveJsl {
            defs: vec![
                ("g1".into(), J::box_any_key(J::Var("g2".into()))),
                (
                    "g2".into(),
                    J::and(vec![
                        J::diamond_any_key(J::True),
                        J::box_any_key(J::Var("g1".into())),
                    ]),
                ),
            ],
            base: J::and(vec![
                J::Var("g1".into()),
                // Force at least one level to make the model interesting.
                J::diamond_any_key(J::True),
            ]),
        };
        match sat_recursive(&delta, SatConfig::default()) {
            JslSatResult::Sat(w) => {
                let t = JsonTree::build(&w);
                assert!(delta.check_root(&t));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn deep_recursive_demand_hits_cap_gracefully() {
        // γ = ◇_a γ: every model would be infinite; the solver must report
        // Unknown (cap), never Sat.
        let delta = RecursiveJsl {
            defs: vec![("g".into(), J::diamond_key("a", J::Var("g".into())))],
            base: J::Var("g".into()),
        };
        match sat_recursive(
            &delta,
            SatConfig {
                max_height: Some(6),
                ..Default::default()
            },
        ) {
            JslSatResult::Unknown(_) => {}
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn kind_clashes_unsat() {
        assert_unsat(J::and(vec![J::Test(T::Str), J::Test(T::Int)]));
        assert_unsat(J::and(vec![J::Test(T::Obj), J::Test(T::Min(0))]));
        assert_unsat(J::and(vec![J::Test(T::Str), J::Test(T::MinCh(1))]));
    }

    #[test]
    fn maxch_zero_forces_empty_containers() {
        let w = assert_sat(J::and(vec![J::Test(T::Obj), J::Test(T::MaxCh(0))]));
        assert_eq!(w, Json::empty_object());
        assert_unsat(J::and(vec![
            J::Test(T::Obj),
            J::Test(T::MaxCh(0)),
            J::diamond_any_key(J::True),
        ]));
    }
}
