//! `JStr` at its inline limit, and objects at the key-index bound.
//!
//! Seeded properties over strings of every byte length from 0 to 48,
//! built from one- to four-byte characters so that some straddle the
//! 22-byte inline limit: `Eq`, `Ord`, `Hash`, `Display`, `Debug` and
//! serialization agree with `String`'s, escaped string text parses to the
//! same value, and parse → serialize round-trips byte-identically on the
//! `gen` corpora. Objects of 0 to 12 keys (either side of the 8-key
//! bound past which an object keeps a sorted key index) agree with a
//! `BTreeMap` model on lookup, key order, equality and hashing.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use jsondata::gen::{self, GenConfig};
use jsondata::serialize::{quote, to_string, to_string_pretty};
use jsondata::{parse, JStr, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Characters of every UTF-8 width, plus ones the serializer escapes.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\u{1}', '/', 'é', 'ß', '€', '中', '😀', '𝄞',
];

fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// A random string of exactly `len` bytes: random characters while they
/// fit, then ASCII padding.
fn string_of_len(rng: &mut StdRng, len: usize) -> String {
    let mut s = String::new();
    while s.len() < len {
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        if s.len() + c.len_utf8() <= len {
            s.push(c);
        } else {
            s.push('x');
        }
    }
    s
}

/// Strings of every byte length 0..=48, several per length, plus the
/// multi-byte characters that cross the inline limit: 21 ASCII bytes and
/// then a 2-, 3- or 4-byte character.
fn corpus() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x15_7A_11);
    let mut out: Vec<String> = (0..=48)
        .flat_map(|len| (0..12).map(move |_| len))
        .map(|len| string_of_len(&mut rng, len))
        .collect();
    for c in ['é', '€', '😀'] {
        for pad in 18..=22 {
            out.push(format!("{}{c}", "p".repeat(pad)));
        }
    }
    out
}

#[test]
fn jstr_agrees_with_string() {
    let strings = corpus();
    for s in &strings {
        let from_str = JStr::from(s.as_str());
        let from_string = JStr::from(s.clone());
        assert_eq!(from_str.as_str(), s);
        assert_eq!(from_string.as_str(), s);
        assert_eq!(from_str.is_inline(), s.len() <= JStr::INLINE, "{s:?}");
        assert_eq!(from_str, from_string);
        assert_eq!(from_str, *s);
        assert_eq!(String::from(from_string), *s);
        assert_eq!(hash_of(&from_str), hash_of(s), "{s:?}");
        assert_eq!(format!("{from_str}"), *s);
        assert_eq!(format!("{from_str:?}"), format!("{s:?}"));
        assert_eq!(format!("[{from_str:>30}]"), format!("[{s:>30}]"));
        let value = Json::str(s.as_str());
        assert_eq!(to_string(&value), quote(s));
        assert_eq!(hash_of(&value), hash_of(&Json::str(s.clone())));
        let back = parse(&to_string(&value)).expect("serialized string parses");
        assert_eq!(back.as_str(), Some(s.as_str()));
    }
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20_000 {
        let a = &strings[rng.gen_range(0..strings.len())];
        let b = &strings[rng.gen_range(0..strings.len())];
        let (ja, jb) = (JStr::from(a.as_str()), JStr::from(b.as_str()));
        assert_eq!(ja == jb, a == b);
        assert_eq!(ja.cmp(&jb), a.cmp(b), "{a:?} vs {b:?}");
        let (va, vb) = (Json::str(a.as_str()), Json::str(b.as_str()));
        assert_eq!(va == vb, a == b);
        assert_eq!(va.total_cmp(&vb), a.cmp(b));
    }
}

#[test]
fn escaped_text_decodes_across_the_limit() {
    // (text between the quotes, decoded string)
    let escapes: &[(&str, &str)] = &[
        ("\\n", "\n"),
        ("\\\"", "\""),
        ("\\\\", "\\"),
        ("\\u00e9", "é"),
        ("\\u20ac", "€"),
        ("\\ud83d\\ude00", "😀"),
        ("\\t", "\t"),
    ];
    let mut rng = StdRng::seed_from_u64(11);
    for prefix in 0..=30 {
        for &(esc, dec) in escapes {
            let head = string_of_len(&mut rng, prefix).replace(['"', '\\', '\n', '\u{1}'], "q");
            let text = format!("\"{head}{esc}{head}\"");
            let want = format!("{head}{dec}{head}");
            let got = parse(&text).expect("escaped string parses");
            assert_eq!(got.as_str(), Some(want.as_str()), "{text}");
            assert_eq!(got, Json::str(want.as_str()));
            // As an object key too.
            let key_text = format!("{{{text}: 1}}");
            let obj = parse(&key_text).expect("escaped key parses");
            assert_eq!(obj.get(&want), Some(&Json::Num(1)), "{key_text}");
        }
    }
}

#[test]
fn parse_serialize_round_trips_the_gen_corpora() {
    let long_pool = GenConfig {
        string_pool: corpus().into_iter().step_by(7).collect(),
        key_pool: corpus().into_iter().skip(3).step_by(11).collect(),
        max_width: 12,
        ..GenConfig::sized(1, 400)
    };
    let mut docs = vec![
        gen::person_records(300, 1),
        gen::wide_object(40),
        gen::balanced_tree(3, 10),
        gen::deep_chain(64, "a-key-longer-than-the-limit", Json::str("leaf")),
        gen::array_with_duplicates(100, 7, 3),
    ];
    for seed in 0..60 {
        docs.push(gen::random_json(&GenConfig::sized(seed, 300)));
        docs.push(gen::random_json(&GenConfig {
            seed,
            ..long_pool.clone()
        }));
    }
    for doc in &docs {
        let text = to_string(doc);
        let back = parse(&text).expect("serialized document parses");
        assert_eq!(&back, doc);
        assert_eq!(to_string(&back), text);
        let pretty = to_string_pretty(doc);
        assert_eq!(to_string_pretty(&parse(&pretty).unwrap()), pretty);
        let tree = jsondata::parse_to_tree(&text).expect("fused parse");
        assert_eq!(&tree.to_json(), doc);
    }
}

#[test]
fn objects_agree_with_a_map_on_both_sides_of_the_index_bound() {
    let mut rng = StdRng::seed_from_u64(3);
    let keys: Vec<String> = corpus().into_iter().step_by(5).collect();
    for round in 0..400 {
        let n = round % 13;
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        while model.len() < n {
            let k = keys[rng.gen_range(0..keys.len())].clone();
            model.insert(k, rng.gen_range(0..100));
        }
        // Insertion order: shuffled, not sorted.
        let mut pairs: Vec<(String, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        let obj = Json::object(
            pairs
                .iter()
                .map(|(k, v)| (k.as_str().into(), Json::Num(*v)))
                .collect(),
        )
        .expect("distinct keys");
        let o = obj.as_object().unwrap();
        assert_eq!(o.len(), n);
        for k in &keys {
            assert_eq!(obj.get(k), model.get(k).map(|&v| Json::Num(v)).as_ref());
        }
        let inserted: Vec<&str> = o.iter().map(|(k, _)| k).collect();
        let want: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(inserted, want, "insertion order is kept");
        let sorted: Vec<(&str, u64)> = o
            .iter_sorted()
            .map(|(k, v)| (k, v.as_num().unwrap()))
            .collect();
        let want: Vec<(&str, u64)> = model.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(sorted, want, "key order");
        // Equality and hashing ignore insertion order.
        let reordered = Json::object(
            model
                .iter()
                .map(|(k, v)| (k.as_str().into(), Json::Num(*v)))
                .collect(),
        )
        .unwrap();
        assert_eq!(obj, reordered);
        assert_eq!(hash_of(&obj), hash_of(&reordered));
        assert!(obj.total_cmp(&reordered).is_eq());
        // A duplicate is rejected at any size.
        if let Some((k, _)) = pairs.first() {
            let mut dup: Vec<(JStr, Json)> = pairs
                .iter()
                .map(|(k, v)| (k.as_str().into(), Json::Num(*v)))
                .collect();
            dup.push((k.as_str().into(), Json::Num(0)));
            assert!(Json::object(dup).is_err(), "duplicate {k:?} in {n} keys");
        }
        // get_mut edits the value in place.
        let mut edited = obj.clone();
        if let Some((k, _)) = pairs.last() {
            *edited.get_mut(k).unwrap() = Json::str("edited");
            assert_eq!(edited.get(k), Some(&Json::str("edited")));
            assert_ne!(edited, obj);
        }
    }
}
