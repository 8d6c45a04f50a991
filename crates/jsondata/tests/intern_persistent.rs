//! Differential test of the persistent symbol table.
//!
//! `Interner` shares immutable runs between clones, appends in place to a
//! last run nobody else holds, and otherwise pushes a one-string run and
//! merges the newest runs. The oracle here is a plain `Vec<String>` +
//! `HashMap` per branch, which shares none of that. Seeded random
//! interleavings of `intern`, `clone`, extend-both-branches and drop keep
//! up to `MAX_BRANCHES` live tables; every branch must agree with its own
//! model on `lookup`, `resolve`, `len`, `iter` order and `==`, must never
//! see a string only a sibling interned, and branches must give the
//! strings of their shared prefix the same symbols.

use std::collections::HashMap;

use jsondata::{Interner, Sym};

const MAX_BRANCHES: usize = 8;

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The oracle: symbols in interning order and their inverse.
#[derive(Clone, Default, PartialEq)]
struct Model {
    strings: Vec<String>,
    index: HashMap<String, usize>,
}

impl Model {
    fn intern(&mut self, s: &str) -> usize {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), self.strings.len() - 1);
        self.strings.len() - 1
    }
}

struct Branch {
    table: Interner,
    model: Model,
}

impl Branch {
    fn intern(&mut self, s: &str) {
        let want = self.model.intern(s);
        let got = self.table.intern(s);
        assert_eq!(got.index(), want, "intern({s:?})");
        assert_eq!(self.table.resolve(got), s);
        assert_eq!(self.table.lookup(s), Some(got));
        assert_eq!(self.table.len(), self.model.strings.len());
    }

    /// Full agreement with the model.
    fn check(&self) {
        let (t, m) = (&self.table, &self.model);
        assert_eq!(t.len(), m.strings.len());
        assert_eq!(t.is_empty(), m.strings.is_empty());
        for (i, s) in m.strings.iter().enumerate() {
            assert_eq!(t.lookup(s), Some(Sym::from_index(i)), "lookup({s:?})");
            assert_eq!(t.resolve(Sym::from_index(i)), s, "resolve({i})");
        }
        let listed: Vec<(usize, &str)> = t.iter().map(|(sym, s)| (sym.index(), s)).collect();
        let want: Vec<(usize, &str)> = m.strings.iter().map(String::as_str).enumerate().collect();
        assert_eq!(listed, want, "iter order");
        // Equality is the symbol sequence, whatever the run split: a table
        // interned flat from the model is equal.
        let mut flat = Interner::new();
        for s in &m.strings {
            flat.intern(s);
        }
        assert!(*t == flat, "== against a flat table");
        assert!(flat == *t, "== is symmetric");
    }
}

/// Pairwise: equal iff the models are equal, the same symbol for every
/// string of the common prefix, and no string a sibling alone interned.
fn check_siblings(branches: &[Branch]) {
    for a in branches {
        for b in branches {
            assert_eq!(a.table == b.table, a.model == b.model, "== across branches");
            let prefix = a
                .model
                .strings
                .iter()
                .zip(&b.model.strings)
                .take_while(|(x, y)| x == y)
                .count();
            for s in &a.model.strings[..prefix] {
                assert_eq!(a.table.lookup(s), b.table.lookup(s), "shared prefix {s:?}");
            }
            for s in &b.model.strings {
                if !a.model.index.contains_key(s) {
                    assert_eq!(a.table.lookup(s), None, "{s:?} leaked from a sibling");
                }
            }
        }
    }
}

/// A string for branch `b` to intern: mostly fresh, sometimes one it has,
/// sometimes one only a sibling has (new to `b`, so it gets `b`'s next
/// symbol, not the sibling's).
fn pick(rng: &mut Rng, branches: &[Branch], b: usize, fresh: &mut usize) -> String {
    match rng.below(10) {
        0 | 1 if !branches[b].model.strings.is_empty() => {
            let own = &branches[b].model.strings;
            own[rng.below(own.len())].clone()
        }
        2 => {
            let other = &branches[rng.below(branches.len())].model.strings;
            if other.is_empty() {
                String::new()
            } else {
                other[rng.below(other.len())].clone()
            }
        }
        _ => {
            *fresh += 1;
            format!("s{fresh}")
        }
    }
}

fn run_seed(seed: u64, base: usize, ops: usize) {
    let mut rng = Rng(seed);
    let mut fresh = 0usize;
    let mut first = Branch {
        table: Interner::new(),
        model: Model::default(),
    };
    // The unique-owner path: a table nobody shares grows in place.
    for i in 0..base {
        first.intern(&format!("base{i}"));
    }
    let mut branches = vec![first];
    for op in 0..ops {
        let b = rng.below(branches.len());
        match rng.below(8) {
            // intern into one branch (shared runs: push and merge; its own
            // last run: append in place)
            0..=3 => {
                let s = pick(&mut rng, &branches, b, &mut fresh);
                branches[b].intern(&s);
                for (c, other) in branches.iter().enumerate() {
                    if c != b && !other.model.index.contains_key(&s) {
                        assert_eq!(other.table.lookup(&s), None, "sibling sees {s:?}");
                    }
                }
            }
            // clone
            4 | 5 if branches.len() < MAX_BRANCHES => {
                let twin = Branch {
                    table: branches[b].table.clone(),
                    model: branches[b].model.clone(),
                };
                branches.push(twin);
            }
            // extend both branches of a fresh fork with the same strings:
            // equal symbols on both sides
            6 if branches.len() < MAX_BRANCHES => {
                let mut twin = Branch {
                    table: branches[b].table.clone(),
                    model: branches[b].model.clone(),
                };
                for _ in 0..1 + rng.below(4) {
                    let s = pick(&mut rng, &branches, b, &mut fresh);
                    branches[b].intern(&s);
                    twin.intern(&s);
                    assert_eq!(branches[b].table.lookup(&s), twin.table.lookup(&s));
                }
                assert!(branches[b].table == twin.table);
                branches.push(twin);
            }
            // drop a branch: the runs it shared may become uniquely owned
            _ if branches.len() > 1 => {
                branches.swap_remove(b);
            }
            _ => {}
        }
        if op % 256 == 255 {
            branches.iter().for_each(Branch::check);
            check_siblings(&branches);
        }
    }
    branches.iter().for_each(Branch::check);
    check_siblings(&branches);
}

#[test]
fn random_interleavings_agree_with_the_model() {
    for seed in 0..12u64 {
        let base = [0, 1, 37, 600][seed as usize % 4];
        run_seed(seed, base, 1500);
    }
}

/// The insert path: every version is a clone of the previous one plus one
/// or two new strings, and every version stays alive (each segment of a
/// collection, and each snapshot, keeps its table).
#[test]
fn every_version_of_an_insert_chain_keeps_its_table() {
    let mut rng = Rng(99);
    let mut head = Branch {
        table: Interner::new(),
        model: Model::default(),
    };
    for i in 0..1000 {
        head.intern(&format!("seed{i}"));
    }
    let mut versions: Vec<Branch> = Vec::new();
    for i in 0..700 {
        let mut next = Branch {
            table: head.table.clone(),
            model: head.model.clone(),
        };
        next.intern(&format!("email{i}"));
        if rng.below(3) == 0 {
            next.intern(&format!("extra{i}"));
        }
        next.intern("seed7");
        versions.push(std::mem::replace(&mut head, next));
    }
    versions.push(head);
    for v in &versions {
        v.check();
    }
    // Each version lacks every string a later one brought.
    for pair in versions.windows(2) {
        for s in &pair[1].model.strings[pair[0].model.strings.len()..] {
            assert_eq!(pair[0].table.lookup(s), None);
        }
    }
}
