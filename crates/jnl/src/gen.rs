//! Seeded generation of deterministic-fragment JNL formulas, and the
//! bounded-model oracle that checks the satisfiability engine on them.
//!
//! The Sym-keyed tableau ([`crate::sat::det`]) is checked against
//! [`small_model`], Proposition 2's guess-and-check run exhaustively over
//! small documents, on *sweeps* of random formulas; the same sweeps and
//! oracle drive the `harness s8` gates. This module is their single source
//! so the test suite and the benchmark measure exactly the same thing.
//!
//! Generated formulas stay inside the deterministic fragment (Proposition
//! 2's decidable class): paths compose keys, small non-negative indices
//! and embedded tests; connectives are `∧`/`∨`/`¬` over `[α]`, `EQ(α, A)`
//! and `EQ(α, β)`. The key vocabulary and leaf documents are deliberately
//! tiny so that random conjunctions collide often — the sweeps exercise
//! both verdicts instead of drowning in trivially-satisfiable formulas.

use std::collections::BTreeMap;

use jsondata::{Json, JsonTree};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::ast::{Binary, Unary};

/// The closed key vocabulary of generated formulas.
const KEYS: [&str; 4] = ["a", "b", "k", "v"];

/// A seeded sweep of `count` deterministic formulas of nesting depth
/// ≤ `depth`. Deterministic in `(seed, count, depth)`.
pub fn formulas(seed: u64, count: usize, depth: usize) -> Vec<Unary> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| formula(&mut rng, depth)).collect()
}

/// One random deterministic formula of nesting depth ≤ `depth`.
pub fn formula(rng: &mut StdRng, depth: usize) -> Unary {
    if depth == 0 {
        return match rng.gen_range(0..6u32) {
            0..=2 => Unary::exists(path(rng, 0)),
            3..=4 => Unary::eq_doc(path(rng, 0), leaf_doc(rng)),
            _ => Unary::eq_pair(path(rng, 0), path(rng, 0)),
        };
    }
    match rng.gen_range(0..8u32) {
        0 | 1 => Unary::and(subformulas(rng, depth)),
        2 | 3 => Unary::or(subformulas(rng, depth)),
        4 => Unary::not(formula(rng, depth - 1)),
        5 => Unary::exists(path(rng, depth - 1)),
        6 => Unary::eq_doc(path(rng, depth - 1), leaf_doc(rng)),
        _ => Unary::eq_pair(path(rng, depth - 1), path(rng, depth - 1)),
    }
}

fn subformulas(rng: &mut StdRng, depth: usize) -> Vec<Unary> {
    let n = rng.gen_range(2..=3usize);
    (0..n).map(|_| formula(rng, depth - 1)).collect()
}

/// A deterministic path: 1–3 steps of keys, small indices, and (below the
/// depth budget) embedded tests.
fn path(rng: &mut StdRng, depth: usize) -> Binary {
    let len = rng.gen_range(1..=3usize);
    let mut parts = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_range(0..10u32);
        if roll < 6 {
            parts.push(Binary::key(KEYS[rng.gen_range(0..KEYS.len())]));
        } else if roll < 8 {
            parts.push(Binary::index(rng.gen_range(0..3i64)));
        } else if depth > 0 {
            parts.push(Binary::test(formula(rng, depth - 1)));
        } else {
            parts.push(Binary::key(KEYS[rng.gen_range(0..KEYS.len())]));
        }
    }
    Binary::compose(parts)
}

/// A small embedded document for `EQ(α, A)` leaves.
fn leaf_doc(rng: &mut StdRng) -> Json {
    match rng.gen_range(0..5u32) {
        0 | 1 => Json::Num(rng.gen_range(0..3u64)),
        2 => Json::str("s"),
        3 => Json::object(vec![("z".into(), Json::Num(rng.gen_range(0..2u64)))])
            .expect("distinct keys"),
        _ => Json::Array(vec![Json::Num(1)]),
    }
}

/// The [`small_model`] cap of the sat-parity suite and `harness s8`: it
/// fits most depth-2 sweep formulas, and a sweep checks in about a second.
pub const SMALL_MODEL_CAP: u64 = 10_000;

/// [`small_model`] declined to enumerate: the formula leaves the
/// deterministic fragment, uses a negative index, or has more candidate
/// documents than the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBounds;

/// Searches every small document for a model of `φ` at the root.
///
/// The search space is the trie of key and index positions the formula's
/// paths can reach from the root; an embedded test `⟨ψ⟩` adds ψ's paths at
/// the position where the test sits. Each position is one of:
///
/// * absent (below the root);
/// * an atom: an `EQ(α, A)` document or one of its subdocuments, or one
///   of two fresh strings;
/// * an object over the position's key children;
/// * an array of length 0 to its largest index + 1, with a pad string
///   unique to its index at every position the trie does not name.
///
/// Candidates are counted first; above `cap` the result is
/// [`OutOfBounds`]. Otherwise all candidates are evaluated, as one forest,
/// and the first model is returned. `Ok(None)` is a bounded check, not a
/// proof: no model exists *in this space*, which refutes a wrong `Unsat`
/// whenever a small model exists.
pub fn small_model(phi: &Unary, cap: u64) -> Result<Option<Json>, OutOfBounds> {
    let mut trie = Pos::default();
    let mut atoms = Vec::new();
    trie.add(phi, &mut atoms)?;
    // Fresh strings longer than every formula string cannot equal one.
    let longest = atoms.iter().filter_map(Json::as_str).map(str::len).max();
    let fresh = "#".repeat(1 + longest.unwrap_or(0));
    atoms.extend((0..2).map(|i| Json::str(format!("{fresh}{i}"))));
    let count = trie.count(atoms.len() as f64);
    if count > cap as f64 {
        return Err(OutOfBounds);
    }
    let candidates = trie.candidates(&atoms, &fresh);
    debug_assert_eq!(candidates.len() as f64, count);
    // JNL only navigates downwards, so `φ` holds at a candidate's root
    // inside one forest iff it holds of the candidate alone: one evaluation
    // of the forest decides every candidate.
    let forest = Json::Array(candidates);
    let tree = JsonTree::build(&forest);
    let holds = crate::evaluate(&tree, phi);
    let mut roots = tree.children(tree.root()).map(|(_, n)| holds[n.index()]);
    let model = roots.position(|h| h).and_then(|i| forest.index(i)).cloned();
    debug_assert!(model
        .iter()
        .all(|m| crate::check_root(&JsonTree::build(m), phi)));
    Ok(model)
}

/// A position of the [`small_model`] trie.
#[derive(Default)]
struct Pos {
    keys: BTreeMap<String, Pos>,
    idxs: BTreeMap<u64, Pos>,
}

impl Pos {
    /// Adds the positions `φ`'s paths reach from here, collecting the
    /// `EQ(α, A)` documents and their subdocuments into `atoms`.
    fn add(&mut self, phi: &Unary, atoms: &mut Vec<Json>) -> Result<(), OutOfBounds> {
        match phi {
            Unary::True => {}
            Unary::Not(p) => self.add(p, atoms)?,
            Unary::And(ps) | Unary::Or(ps) => ps.iter().try_for_each(|p| self.add(p, atoms))?,
            Unary::Exists(a) => _ = self.walk(a, atoms)?,
            Unary::EqDoc(a, doc) => {
                self.walk(a, atoms)?;
                collect_subdocs(doc, atoms);
            }
            Unary::EqPair(a, b) => {
                self.walk(a, atoms)?;
                self.walk(b, atoms)?;
            }
        }
        Ok(())
    }

    /// The position `α` leads to from here, created on demand.
    fn walk(&mut self, alpha: &Binary, atoms: &mut Vec<Json>) -> Result<&mut Pos, OutOfBounds> {
        match alpha {
            Binary::Epsilon => Ok(self),
            Binary::Key(w) => Ok(self.keys.entry(w.clone()).or_default()),
            Binary::Index(i) if *i >= 0 => Ok(self.idxs.entry(*i as u64).or_default()),
            Binary::Test(psi) => self.add(psi, atoms).map(|()| self),
            Binary::Compose(steps) => steps.iter().try_fold(self, |pos, s| pos.walk(s, atoms)),
            Binary::Index(_) | Binary::KeyRegex(_) | Binary::Range(..) | Binary::Star(_) => {
                Err(OutOfBounds)
            }
        }
    }

    /// One past the largest index child: the longest array worth trying.
    fn max_len(&self) -> u64 {
        self.idxs.keys().next_back().map_or(0, |&i| i + 1)
    }

    /// How many values [`Pos::candidates`] yields, given the number of
    /// atoms; a float overflows to `inf`, and counts up to 2⁵³ are exact.
    fn count(&self, atoms: f64) -> f64 {
        let objects: f64 = self.keys.values().map(|c| c.count(atoms) + 1.0).product();
        let (mut arrays, mut prefixes) = (0.0, 1.0);
        for i in 0..self.max_len() {
            arrays += prefixes;
            prefixes *= self.idxs.get(&i).map_or(1.0, |c| c.count(atoms));
        }
        atoms + objects + arrays + prefixes
    }

    /// Every present value this position can take; `pad` prefixes the
    /// strings at array positions the trie does not name.
    fn candidates(&self, atoms: &[Json], pad: &str) -> Vec<Json> {
        let mut out = atoms.to_vec();
        let mut objects = vec![Vec::new()];
        for child in self.keys.values() {
            let mut choices = vec![None];
            choices.extend(child.candidates(atoms, pad).into_iter().map(Some));
            objects = extend_each(&objects, &choices);
        }
        out.extend(objects.into_iter().map(|vals| {
            let pairs = self.keys.keys().zip(vals);
            Json::object(pairs.filter_map(|(k, v)| Some((k.into(), v?))).collect())
                .expect("trie keys are distinct")
        }));
        let mut arrays = vec![Vec::new()];
        for i in 0..self.max_len() {
            out.extend(arrays.iter().cloned().map(Json::Array));
            let choices = match self.idxs.get(&i) {
                Some(c) => c.candidates(atoms, pad),
                None => vec![Json::str(format!("{pad}pad{i}"))],
            };
            arrays = extend_each(&arrays, &choices);
        }
        out.extend(arrays.into_iter().map(Json::Array));
        out
    }
}

/// Pushes `doc` and each of its subdocuments onto `out`, once each.
fn collect_subdocs(doc: &Json, out: &mut Vec<Json>) {
    if !out.contains(doc) {
        out.push(doc.clone());
    }
    match doc {
        Json::Object(o) => o.iter().for_each(|(_, v)| collect_subdocs(v, out)),
        Json::Array(a) => a.iter().for_each(|v| collect_subdocs(v, out)),
        Json::Str(_) | Json::Num(_) => {}
    }
}

/// Every `prefix ++ [choice]`.
fn extend_each<T: Clone>(prefixes: &[Vec<T>], choices: &[T]) -> Vec<Vec<T>> {
    let mut out = Vec::with_capacity(prefixes.len() * choices.len());
    for p in prefixes {
        out.extend(
            choices
                .iter()
                .map(|c| [p, std::slice::from_ref(c)].concat()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_deterministic_in_the_seed() {
        let a = formulas(11, 40, 3);
        let b = formulas(11, 40, 3);
        assert_eq!(a, b);
        assert_ne!(a, formulas(12, 40, 3));
    }

    #[test]
    fn sweeps_stay_in_the_deterministic_fragment() {
        for phi in formulas(7, 200, 3) {
            assert!(
                phi.fragment().is_deterministic(),
                "generated formula left the fragment: {phi}"
            );
        }
    }

    #[test]
    fn small_model_finds_models_and_refuses_what_it_cannot_enumerate() {
        let parse = |src| crate::parse_unary(src).expect("parses");
        // A model needs an array of length 2 whose second element equals `a`.
        let phi = parse(r#"eqpair(@"a", @"b" ; @1) & !eqdoc(@"a", 1)"#);
        let m = small_model(&phi, SMALL_MODEL_CAP)
            .expect("enumerable")
            .expect("satisfiable");
        assert!(crate::check_root(&JsonTree::build(&m), &phi), "{m}");
        // A string cannot have children.
        let phi = parse(r#"eqdoc(@"a", "s") & [@"a" ; @"b"]"#);
        assert_eq!(small_model(&phi, SMALL_MODEL_CAP), Ok(None));
        // Outside the deterministic fragment, negative indices, over the cap.
        for src in [r#"[@/a|b/]"#, "[@[0:2]]", "[@-1]"] {
            assert_eq!(small_model(&parse(src), SMALL_MODEL_CAP), Err(OutOfBounds));
        }
        let wide = parse(r#"[@"a" ; @"b" ; @"k"] & [@"b" ; @"a" ; @"v"]"#);
        assert!(small_model(&wide, SMALL_MODEL_CAP).is_ok());
        assert_eq!(small_model(&wide, 10), Err(OutOfBounds));
    }

    #[test]
    fn sweeps_exercise_both_verdicts() {
        let (mut sat, mut unsat) = (0usize, 0usize);
        for phi in formulas(3, 120, 3) {
            match crate::sat::det::sat_deterministic(&phi) {
                crate::sat::SatResult::Sat(_) => sat += 1,
                crate::sat::SatResult::Unsat => unsat += 1,
                crate::sat::SatResult::Unknown(_) => {}
            }
        }
        assert!(sat > 10, "only {sat} satisfiable formulas in the sweep");
        assert!(
            unsat > 10,
            "only {unsat} unsatisfiable formulas in the sweep"
        );
    }
}
