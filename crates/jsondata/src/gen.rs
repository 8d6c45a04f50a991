//! Seeded document generators for tests and the benchmark harness.
//!
//! All generators are deterministic in their seed, so the experiment
//! harness's workloads (`cargo run -p bench --bin harness`) are
//! reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::value::Json;

/// Configuration for [`random_json`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed.
    pub seed: u64,
    /// Approximate number of nodes to generate (the generator stops opening
    /// new containers once the budget is spent, so actual size is close).
    pub target_nodes: usize,
    /// Maximum nesting depth.
    pub max_depth: usize,
    /// Maximum children per container.
    pub max_width: usize,
    /// Pool of keys to draw from (small pools create many shared keys, which
    /// the navigation logics need to find anything).
    pub key_pool: Vec<String>,
    /// Pool of leaf strings.
    pub string_pool: Vec<String>,
    /// Upper bound (exclusive) for numeric leaves.
    pub num_bound: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0xB0C4_D1E5,
            target_nodes: 256,
            max_depth: 8,
            max_width: 8,
            key_pool: [
                "a", "b", "c", "d", "name", "age", "items", "id", "tags", "value",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            string_pool: ["x", "y", "John", "Sue", "fishing", "yoga", ""]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            num_bound: 100,
        }
    }
}

impl GenConfig {
    /// A config with the given seed and approximate size.
    pub fn sized(seed: u64, target_nodes: usize) -> GenConfig {
        GenConfig {
            seed,
            target_nodes,
            ..GenConfig::default()
        }
    }
}

/// Generates a random document according to `cfg`.
pub fn random_json(cfg: &GenConfig) -> Json {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut budget = cfg.target_nodes.max(1);
    gen_value(&mut rng, cfg, 0, &mut budget)
}

fn gen_value(rng: &mut StdRng, cfg: &GenConfig, depth: usize, budget: &mut usize) -> Json {
    *budget = budget.saturating_sub(1);
    let leaf_only = depth >= cfg.max_depth || *budget == 0;
    let choice = if leaf_only {
        rng.gen_range(0..2)
    } else {
        rng.gen_range(0..4)
    };
    match choice {
        0 => Json::Num(rng.gen_range(0..cfg.num_bound)),
        1 => {
            let i = rng.gen_range(0..cfg.string_pool.len());
            Json::str(&cfg.string_pool[i])
        }
        2 => {
            let width = rng.gen_range(0..=cfg.max_width.min(*budget));
            Json::Array(
                (0..width)
                    .map(|_| gen_value(rng, cfg, depth + 1, budget))
                    .collect(),
            )
        }
        _ => {
            let width = rng.gen_range(0..=cfg.max_width.min(*budget).min(cfg.key_pool.len()));
            // Sample distinct keys from the pool.
            let mut keys: Vec<&String> = cfg.key_pool.iter().collect();
            for i in (1..keys.len()).rev() {
                let j = rng.gen_range(0..=i);
                keys.swap(i, j);
            }
            let pairs = keys
                .into_iter()
                .take(width)
                .map(|k| (k.into(), gen_value(rng, cfg, depth + 1, budget)))
                .collect();
            Json::object(pairs).expect("sampled keys are distinct")
        }
    }
}

/// A chain `{"key": {"key": ... v}}` of the given depth — the worst case for
/// height-sensitive algorithms.
pub fn deep_chain(depth: usize, key: &str, leaf: Json) -> Json {
    let mut j = leaf;
    for _ in 0..depth {
        j = Json::object(vec![(key.into(), j)]).expect("single key");
    }
    j
}

/// An object with `n` distinct keys `k0..k{n-1}` mapping to their index.
pub fn wide_object(n: usize) -> Json {
    Json::object(
        (0..n)
            .map(|i| (format!("k{i}").into(), Json::Num(i as u64)))
            .collect(),
    )
    .expect("generated keys are distinct")
}

/// An array of `n` numbers `0..n`.
pub fn wide_array(n: usize) -> Json {
    Json::Array((0..n).map(|i| Json::Num(i as u64)).collect())
}

/// An array of `n` elements drawn from `distinct` different values —
/// controls the duplicate density `Unique` has to detect.
pub fn array_with_duplicates(n: usize, distinct: usize, seed: u64) -> Json {
    let mut rng = StdRng::seed_from_u64(seed);
    let distinct = distinct.max(1);
    Json::Array(
        (0..n)
            .map(|_| {
                let v = rng.gen_range(0..distinct as u64);
                Json::object(vec![("v".into(), Json::Num(v))]).expect("single key")
            })
            .collect(),
    )
}

/// A balanced tree where every internal node is an object with `branch`
/// children and the given depth; leaves are numbers. Node count is
/// `(branch^(depth+1) - 1) / (branch - 1)` for `branch > 1`.
pub fn balanced_tree(depth: usize, branch: usize) -> Json {
    fn build(depth: usize, branch: usize, next: &mut u64) -> Json {
        if depth == 0 {
            let v = *next;
            *next += 1;
            return Json::Num(v);
        }
        Json::object(
            (0..branch)
                .map(|i| (format!("c{i}").into(), build(depth - 1, branch, next)))
                .collect(),
        )
        .expect("generated keys are distinct")
    }
    let mut next = 0;
    build(depth, branch, &mut next)
}

/// A synthetic "person records" collection: an array of `n` objects with the
/// shape the paper's MongoDB example queries (`name`, `age`, `hobbies`).
pub fn person_records(n: usize, seed: u64) -> Json {
    let mut rng = StdRng::seed_from_u64(seed);
    let firsts = ["John", "Sue", "Ana", "Wei", "Omar", "Ivy", "Leo", "Mia"];
    let lasts = ["Doe", "Smith", "Lopez", "Chen", "Haddad", "Kim"];
    let hobbies = ["fishing", "yoga", "chess", "running", "painting"];
    Json::Array(
        (0..n)
            .map(|i| {
                let nh = rng.gen_range(0..3);
                let mut hs = Vec::new();
                for _ in 0..nh {
                    hs.push(Json::str(hobbies[rng.gen_range(0..hobbies.len())]));
                }
                Json::object(vec![
                    ("id".into(), Json::Num(i as u64)),
                    (
                        "name".into(),
                        Json::object(vec![
                            (
                                "first".into(),
                                Json::str(firsts[rng.gen_range(0..firsts.len())]),
                            ),
                            (
                                "last".into(),
                                Json::str(lasts[rng.gen_range(0..lasts.len())]),
                            ),
                        ])
                        .expect("distinct"),
                    ),
                    ("age".into(), Json::Num(rng.gen_range(18..90))),
                    ("hobbies".into(), Json::Array(hs)),
                ])
                .expect("distinct")
            })
            .collect(),
    )
}

// ---- hostile corpus ----------------------------------------------------
//
// Adversarial *texts* (not values — several are deliberately rejected by
// the parser) for the robustness suites: every pipeline stage must either
// process these or return a structured error, never panic or abort.

/// `depth` unclosed-then-closed array brackets around a scalar:
/// `[[[...0...]]]`. Trips depth limits; with limits raised it stresses
/// every height-sensitive algorithm.
pub fn hostile_deep_nesting(depth: usize) -> String {
    let mut s = String::with_capacity(2 * depth + 1);
    for _ in 0..depth {
        s.push('[');
    }
    s.push('0');
    for _ in 0..depth {
        s.push(']');
    }
    s
}

/// An object of `n_keys` members whose keys are each `key_len` bytes —
/// interner and hash-table stress (a single 1 MB key is
/// `hostile_huge_keys(1 << 20, 1)`).
pub fn hostile_huge_keys(key_len: usize, n_keys: usize) -> String {
    let mut s = String::from("{");
    for i in 0..n_keys {
        if i > 0 {
            s.push(',');
        }
        // Distinct keys: a numeric prefix, padded to key_len with 'k'.
        let prefix = format!("{i}_");
        s.push('"');
        s.push_str(&prefix);
        for _ in prefix.len()..key_len {
            s.push('k');
        }
        s.push_str("\":0");
    }
    s.push('}');
    s
}

/// An object repeating the same key `n` times — the paper's §2 model
/// requires pairwise-distinct keys, so this must be *rejected*, and the
/// duplicate detector must stay near-linear while doing it.
pub fn hostile_duplicate_keys(n: usize) -> String {
    let mut s = String::from("{");
    for i in 0..n {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"k\":{i}"));
    }
    s.push('}');
    s
}

/// The seeded hostile corpus used by the adversarial tests and the s7
/// fault-injection harness: `(label, text)` pairs mixing inputs that
/// must parse (nasty but legal) with inputs that must be rejected with
/// a structured error.
pub fn hostile_corpus(seed: u64) -> Vec<(&'static str, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let wide = {
        // A legal sibling flood: many distinct keys at one level.
        let n = 2000 + rng.gen_range(0..100) as usize;
        crate::gen::wide_object(n).to_string()
    };
    vec![
        ("deep_1k", hostile_deep_nesting(1000)),
        ("deep_100k", hostile_deep_nesting(100_000)),
        ("huge_key_1mb", hostile_huge_keys(1 << 20, 1)),
        ("huge_keys_64x16kb", hostile_huge_keys(16 << 10, 64)),
        ("dup_flood_10k", hostile_duplicate_keys(10_000)),
        ("wide_sibling_flood", wide),
        ("unclosed_deep", "[".repeat(5000)),
        ("trailing_garbage", "{\"a\":1} [".to_owned()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_json_is_deterministic_in_seed() {
        let cfg = GenConfig::sized(7, 500);
        assert_eq!(random_json(&cfg), random_json(&cfg));
        let other = GenConfig::sized(8, 500);
        assert_ne!(random_json(&cfg), random_json(&other));
    }

    #[test]
    fn random_json_respects_depth_limit() {
        let cfg = GenConfig {
            max_depth: 3,
            ..GenConfig::sized(1, 2000)
        };
        let j = random_json(&cfg);
        assert!(j.height() <= 3, "height {} > 3", j.height());
    }

    #[test]
    fn random_json_size_tracks_target() {
        for target in [64, 512, 4096] {
            let cfg = GenConfig {
                max_depth: 64,
                ..GenConfig::sized(3, target)
            };
            let n = random_json(&cfg).node_count();
            assert!(n <= target + 1, "{n} nodes exceeds target {target}");
        }
    }

    #[test]
    fn structured_generators() {
        assert_eq!(deep_chain(5, "k", Json::Num(0)).height(), 5);
        assert_eq!(wide_object(10).as_object().unwrap().len(), 10);
        assert_eq!(wide_array(10).as_array().unwrap().len(), 10);
        let b = balanced_tree(3, 2);
        assert_eq!(b.node_count(), 15);
        assert_eq!(b.height(), 3);
    }

    #[test]
    fn duplicates_controlled() {
        let j = array_with_duplicates(100, 5, 11);
        let t = crate::tree::JsonTree::build(&j);
        let c = crate::canon::CanonTable::build(&t);
        // ≤ 5 distinct element objects + 5 numbers + root = ≤ 11 classes.
        assert!(c.class_count() <= 11);
    }

    #[test]
    fn person_records_shape() {
        let j = person_records(10, 1);
        let people = j.as_array().unwrap();
        assert_eq!(people.len(), 10);
        for p in people {
            assert!(p.get("name").unwrap().get("first").unwrap().is_string());
            assert!(p.get("age").unwrap().is_number());
            assert!(p.get("hobbies").unwrap().is_array());
        }
    }
}
