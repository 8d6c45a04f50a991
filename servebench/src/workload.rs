//! Seeded request streams and the oracles that judge their replies.
//!
//! Everything the server sees is generated here from the seed: the seed
//! collection text and, per client, a fixed list of request texts. Each
//! request carries the expectation its reply is checked against; the
//! expectations are computed before any timing starts, from the
//! generator's own values, `jagg::reference`, and a serial-pool copy of
//! the collection.

use std::collections::HashMap;
use std::sync::Arc;

use jpar::Pool;
use jserve::{Request, Response, Store};
use jsondata::Json;
use mongofind::{Collection, Filter, Projection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Documents in the seed collection.
pub const SEED_DOCS: usize = 20_000;

/// The paths every collection (served or oracle) is indexed on; `name.last`
/// is left unindexed so `analytics` has finds that no index answers.
pub const INDEX_PATHS: [&str; 3] = ["id", "name.first", "age"];

/// Requests per client per round, by workload.
const LOOKUP_OPS: usize = 1000;
const ANALYTICS_OPS: usize = 78;
const INGEST_OPS: usize = 600;

/// On `ingest`, every `WRITE_EVERY`-th request of a client is an insert.
const WRITE_EVERY: usize = 4;

/// On `ingest`, requests come in blocks of `INGEST_BLOCK` (a multiple of
/// `WRITE_EVERY` and of the five-request read mix), and the reads of every
/// fourth block are of inserted documents. The share is exact for each
/// read verb, so the few costly whole-segment reads are as many on every
/// seed.
const INGEST_BLOCK: usize = 20;

/// On `ingest`, the load generator compacts the store after every
/// `COMPACT_EVERY` commits. It does not divide a round's commits, so a
/// round ends with a fragmented tail of insert segments.
pub const COMPACT_EVERY: u64 = 128;

/// Zipf exponent of the point-read key distribution.
const ZIPF_S: f64 = 1.0;

const PROJECTION: &str = r#"{"name.first": 1, "age": 1}"#;

// The S5 aggregation pipelines of the repository's experiment harness,
// copied so that the benchmark's inputs change only with the benchmark.
const UNWIND_GROUP_SORT: &str = r#"[
    {"$match": {"age": {"$gte": 30}}},
    {"$unwind": "$hobbies"},
    {"$group": {"_id": "$hobbies", "n": {"$count": {}}, "total_age": {"$sum": "$age"},
                "avg_age": {"$avg": "$age"}, "min_age": {"$min": "$age"}, "max_age": {"$max": "$age"}}},
    {"$sort": {"n": 0, "_id": 1}}
]"#;
const PROJECT_SORT_PAGINATE: &str = r#"[
    {"$match": {"name.first": {"$in": ["Sue", "Omar", "Ivy"]}, "age": {"$lte": 89}}},
    {"$project": {"name.first": 1, "age": 1, "nh": "$hobbies"}},
    {"$sort": {"age": 0, "name.first": 1}},
    {"$skip": 100},
    {"$limit": 50}
]"#;
const MATCH_GROUP_COMPOUND: &str = r#"[
    {"$match": {"name.last": {"$in": ["Doe", "Smith", "Lopez", "Chen", "Haddad", "Kim"]}}},
    {"$group": {"_id": {"f": "$name.first", "l": "$name.last"}, "n": {"$count": {}},
                "ages": {"$push": "$age"}, "youngest": {"$min": "$age"}}},
    {"$sort": {"n": 0, "_id": 1}},
    {"$limit": 10}
]"#;
/// Unindexed order comparison: outside the exact JNL fragment, so the scan route.
const FIND_SCAN: &str = r#"{"name.last": {"$gt": "K"}}"#;
/// Unindexed equality: in the exact fragment, so `route_of` says JNL.
const FIND_JNL: &str = r#"{"name.last": "Kim"}"#;

const FIRSTS: [&str; 8] = ["John", "Sue", "Ana", "Wei", "Omar", "Ivy", "Leo", "Mia"];
const LASTS: [&str; 6] = ["Doe", "Smith", "Lopez", "Chen", "Haddad", "Kim"];
const HOBBIES: [&str; 5] = ["fishing", "yoga", "chess", "running", "painting"];

/// The traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-skewed point reads on `id`.
    Lookup,
    /// Pipelines, unindexed finds and a few plans.
    Analytics,
    /// Inserts beside `lookup`-mix reads, with periodic compaction.
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "analytics" => Some(Workload::Analytics),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Analytics => "analytics",
            Workload::Ingest => "ingest",
        }
    }

    /// Whether the workload changes the store (so replies depend on the
    /// epoch they ran at, and every round starts from a fresh server).
    pub fn writes(self) -> bool {
        self == Workload::Ingest
    }
}

/// What a correct reply to one request is.
#[derive(Debug)]
pub enum Expect {
    /// Exactly these documents, in this order.
    Docs(Vec<Json>),
    /// A plan equal to this one once its run-dependent fields are removed
    /// ([`stable_plan`]).
    Plan(Json),
    /// An acknowledgement whose commit-log entry is the inserted text.
    Inserted,
    /// A point read of `id` on a changing store: the document if the
    /// reply's epoch includes it, nothing otherwise.
    Point { id: u64, project: bool },
}

/// One request and the expectation its reply is judged by.
#[derive(Debug)]
pub struct Op {
    pub req: Request,
    pub expect: Arc<Expect>,
}

/// A workload instantiated from a seed.
pub struct Scenario {
    /// The seed documents, as generated (the lookup oracle).
    pub records: Vec<Json>,
    /// The seed collection text the server parses.
    pub text: String,
    /// Each client's request list for one round.
    pub clients: Vec<Vec<Op>>,
    /// Insert-shaped document texts for the standalone parse probe.
    pub probe_docs: Vec<String>,
}

/// The seed collection: indexed, on the given pool.
pub fn indexed_collection(text: &str, pool: Pool) -> Collection {
    let mut coll = Collection::parse_str(text).expect("generated collection text parses");
    for path in INDEX_PATHS {
        assert!(coll.create_index(path), "index on {path} declared once");
    }
    coll.with_pool(pool)
}

impl Scenario {
    pub fn new(workload: Workload, seed: u64, clients: usize) -> Scenario {
        Scenario::with_docs(workload, seed, clients, SEED_DOCS)
    }

    fn with_docs(workload: Workload, seed: u64, clients: usize, docs: usize) -> Scenario {
        let all = jsondata::gen::person_records(docs, seed);
        let text = jsondata::serialize::to_string(&all);
        let Json::Array(records) = all else {
            unreachable!("person_records returns an array")
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed_5eed_5eed);
        let zipf = Zipf::new(docs, ZIPF_S, &mut rng);
        let inserts = insert_docs(docs as u64, clients, INGEST_OPS / WRITE_EVERY, &mut rng);
        let probe_docs = inserts.iter().flatten().map(|d| d.text.clone()).collect();
        let clients = match workload {
            Workload::Lookup => (0..clients)
                .map(|_| {
                    (0..LOOKUP_OPS)
                        .map(|i| point_read(i, zipf.sample(&mut rng), Some(&records[..])))
                        .collect()
                })
                .collect(),
            Workload::Analytics => {
                let mix = analytics_mix(&text, &records);
                // Each client runs the mix in blocks, each block in its own
                // shuffled order: the proportions are exact, and which
                // requests run side by side (which moves their latency a
                // lot on a few cores) varies instead of locking into one
                // pattern for a whole run.
                (0..clients)
                    .map(|_| {
                        let mut order: Vec<usize> = (0..mix.len()).collect();
                        (0..ANALYTICS_OPS)
                            .map(|i| {
                                if i % mix.len() == 0 {
                                    shuffle(&mut order, &mut rng);
                                }
                                let (req, expect) = &mix[order[i % mix.len()]];
                                Op {
                                    req: req.clone(),
                                    expect: Arc::clone(expect),
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
            Workload::Ingest => ingest_streams(&inserts, &zipf, &mut rng),
        };
        Scenario {
            records,
            text,
            clients,
            probe_docs,
        }
    }
}

/// Zipf-distributed keys over `0..n`, with the popular ranks scattered
/// over the key space by a seeded permutation.
struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<u64>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut StdRng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut keys: Vec<u64> = (0..n as u64).collect();
        shuffle(&mut keys, rng);
        Zipf { cdf, keys }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self.cdf.partition_point(|&c| c <= u);
        self.keys[rank.min(self.keys.len() - 1)]
    }
}

/// Fisher-Yates.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The `i`-th request of a point-read mix on `id`: 60% Find, 20%
/// FindProject, 20% single-`$match` Aggregate. With `records`, the reply
/// is known up front; without, it depends on the epoch.
fn point_read(i: usize, id: u64, records: Option<&[Json]>) -> Op {
    let filter = format!(r#"{{"id": {id}}}"#);
    let project = i % 5 == 3;
    let req = match i % 5 {
        0..=2 => Request::Find { filter },
        3 => Request::FindProject {
            filter,
            projection: PROJECTION.into(),
        },
        _ => Request::Aggregate {
            pipeline: format!(r#"[{{"$match": {filter}}}]"#),
        },
    };
    let expect = match records {
        Some(records) => Expect::Docs(vec![shape(&records[id as usize], project)]),
        None => Expect::Point { id, project },
    };
    Op {
        req,
        expect: Arc::new(expect),
    }
}

fn shape(doc: &Json, project: bool) -> Json {
    if project {
        Projection::parse_str(PROJECTION)
            .expect("projection parses")
            .apply(doc)
    } else {
        doc.clone()
    }
}

/// The `analytics` request cycle with its expected replies, computed on a
/// serial-pool copy of the collection and by `jagg::reference`.
fn analytics_mix(text: &str, records: &[Json]) -> Vec<(Request, Arc<Expect>)> {
    let serial = indexed_collection(text, Pool::serial());
    let aggregate = |src: &str| {
        let pipe = jagg::Pipeline::parse_str(src).expect("pipeline parses");
        let expect = Expect::Docs(jagg::reference::aggregate(records, &pipe));
        (
            Request::Aggregate {
                pipeline: src.into(),
            },
            Arc::new(expect),
        )
    };
    let find = |src: &str| {
        let filter = Filter::parse_str(src).expect("filter parses");
        (
            Request::Find { filter: src.into() },
            Arc::new(Expect::Docs(serial.find(&filter))),
        )
    };
    let explain = (
        Request::Explain {
            filter: FIND_JNL.into(),
        },
        Arc::new(Expect::Plan(stable_plan(
            &serial
                .explain(&Filter::parse_str(FIND_JNL).expect("filter parses"))
                .to_json(),
        ))),
    );
    let pipe = jagg::Pipeline::parse_str(MATCH_GROUP_COMPOUND).expect("pipeline parses");
    let analyze = (
        Request::ExplainAnalyzePipeline {
            pipeline: MATCH_GROUP_COMPOUND.into(),
        },
        Arc::new(Expect::Plan(stable_plan(
            &jagg::explain_analyze(&serial, &pipe)
                .expect("ungoverned analyze succeeds")
                .to_json(),
        ))),
    );
    let (unwind, paginate, compound) = (
        aggregate(UNWIND_GROUP_SORT),
        aggregate(PROJECT_SORT_PAGINATE),
        aggregate(MATCH_GROUP_COMPOUND),
    );
    let (scan, jnl) = (find(FIND_SCAN), find(FIND_JNL));
    // As many requests in the cycle are cheaper than the unwind pipeline
    // as are dearer, so the median read falls inside one request class
    // instead of on the edge between two.
    vec![
        compound.clone(),
        scan.clone(),
        unwind.clone(),
        jnl,
        compound.clone(),
        paginate,
        unwind.clone(),
        explain,
        compound.clone(),
        scan,
        unwind,
        analyze,
        compound,
    ]
}

/// A generated insert document.
struct NewDoc {
    id: u64,
    email: String,
    text: String,
}

/// Per client, `per_client` insert documents. Each carries a unique
/// `email`, so every insert adds a string to the symbol table.
fn insert_docs(
    seed_docs: u64,
    clients: usize,
    per_client: usize,
    rng: &mut StdRng,
) -> Vec<Vec<NewDoc>> {
    (0..clients)
        .map(|c| {
            (0..per_client)
                .map(|j| {
                    let id = seed_docs + (c * per_client + j) as u64;
                    let hobbies: Vec<String> = (0..rng.gen_range(0..3usize))
                        .map(|_| format!("\"{}\"", HOBBIES[rng.gen_range(0..HOBBIES.len())]))
                        .collect();
                    let email = format!("u{id}.{:016x}@example.org", rng.next_u64());
                    let text = format!(
                        r#"{{"id": {id}, "name": {{"first": "{}", "last": "{}"}}, "age": {}, "hobbies": [{}], "email": "{email}"}}"#,
                        FIRSTS[rng.gen_range(0..FIRSTS.len())],
                        LASTS[rng.gen_range(0..LASTS.len())],
                        rng.gen_range(18..90u64),
                        hobbies.join(", "),
                    );
                    NewDoc { id, email, text }
                })
                .collect()
        })
        .collect()
}

/// `ingest` streams: every `WRITE_EVERY`-th request inserts the client's
/// next document; the rest are point reads, three in four on a Zipf seed
/// key and one in four (see `INGEST_BLOCK`) on a document some client
/// inserts at about the same point of its stream (visible or not,
/// depending on the epoch).
/// The `$match` reads of inserted documents select by `email`, which no
/// index covers: they take the whole-segment JNL route, whose cost grows
/// with the insert segments compaction has not merged yet.
fn ingest_streams(inserts: &[Vec<NewDoc>], zipf: &Zipf, rng: &mut StdRng) -> Vec<Vec<Op>> {
    inserts
        .iter()
        .map(|mine| {
            (0..INGEST_OPS)
                .map(|i| {
                    let j = i / WRITE_EVERY;
                    if i % WRITE_EVERY == 0 {
                        return Op {
                            req: Request::Insert {
                                doc: mine[j].text.clone(),
                            },
                            expect: Arc::new(Expect::Inserted),
                        };
                    }
                    if (i / INGEST_BLOCK) % 4 != 3 {
                        return point_read(i, zipf.sample(rng), None);
                    }
                    let other = &inserts[rng.gen_range(0..inserts.len())];
                    let doc = &other[rng.gen_range(0..=j)];
                    let mut op = point_read(i, doc.id, None);
                    if let Request::Aggregate { pipeline } = &mut op.req {
                        *pipeline = format!(r#"[{{"$match": {{"email": "{}"}}}}]"#, doc.email);
                    }
                    op
                })
                .collect()
        })
        .collect()
}

/// What a serial replay of the commit log says about each inserted id:
/// the epoch that first contains it, and its document.
pub struct Ledger<'a> {
    records: &'a [Json],
    log: Vec<Arc<str>>,
    inserted: HashMap<u64, (u64, Json)>,
}

impl<'a> Ledger<'a> {
    pub fn new(records: &'a [Json], log: Vec<Arc<str>>) -> Result<Ledger<'a>, String> {
        let mut inserted = HashMap::new();
        for (pos, entry) in log.iter().enumerate() {
            let doc = jsondata::parse(entry).map_err(|e| format!("log entry {pos}: {e}"))?;
            let id = doc
                .get("id")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("log entry {pos} has no id"))?;
            inserted.insert(id, (pos as u64 + 1, doc));
        }
        Ok(Ledger {
            records,
            log,
            inserted,
        })
    }

    /// The reply a point read of `id` must get at `epoch`.
    fn point(&self, id: u64, epoch: u64, project: bool) -> Vec<Json> {
        let doc = match self.records.get(id as usize) {
            Some(doc) => Some(doc),
            None => self
                .inserted
                .get(&id)
                .filter(|(visible_at, _)| *visible_at <= epoch)
                .map(|(_, doc)| doc),
        };
        doc.map(|d| shape(d, project)).into_iter().collect()
    }
}

/// Judges one reply. `ledger` is needed for the epoch-dependent
/// expectations of `ingest` and ignored otherwise.
pub fn check(op: &Op, reply: &Response, ledger: Option<&Ledger>) -> Result<(), String> {
    let needs_ledger = || ledger.ok_or("epoch-dependent reply judged without a ledger");
    match (&*op.expect, reply) {
        (Expect::Docs(want), Response::Docs { docs, .. }) => same_docs(docs, want),
        (Expect::Plan(want), Response::Plan { plan, .. }) => {
            if stable_plan(plan) == *want {
                Ok(())
            } else {
                Err(format!("plan differs: got {plan}, want {want}"))
            }
        }
        (Expect::Inserted, Response::Inserted { epoch }) => {
            let Request::Insert { doc } = &op.req else {
                return Err("insert expectation on a read".into());
            };
            let entry = epoch
                .checked_sub(1)
                .and_then(|pos| needs_ledger().ok()?.log.get(pos as usize));
            match entry {
                Some(entry) if **entry == **doc => Ok(()),
                _ => Err(format!("epoch {epoch} does not hold the inserted document")),
            }
        }
        (Expect::Point { id, project }, Response::Docs { epoch, docs }) => {
            same_docs(docs, &needs_ledger()?.point(*id, *epoch, *project))
        }
        (_, other) => Err(format!("wrong reply kind: {other:?}")),
    }
}

fn same_docs(got: &[Json], want: &[Json]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let first_diff = got.iter().zip(want).position(|(g, w)| g != w);
    Err(format!(
        "{} docs, want {}; first difference at {first_diff:?}",
        got.len(),
        want.len()
    ))
}

/// Keys of `EXPLAIN ANALYZE` output that vary from run to run: wall times,
/// counters that depend on the schedule, and span-ring tallies.
const RUN_DEPENDENT_KEYS: [&str; 3] = ["wall_us", "counters", "spans"];

/// A plan with its run-dependent fields removed, at every depth.
pub fn stable_plan(plan: &Json) -> Json {
    match plan {
        Json::Object(obj) => Json::object(
            obj.pairs()
                .iter()
                .filter(|(k, _)| !RUN_DEPENDENT_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), stable_plan(v)))
                .collect(),
        )
        .expect("a subset of distinct keys"),
        Json::Array(items) => Json::Array(items.iter().map(stable_plan).collect()),
        other => other.clone(),
    }
}

/// The round-level half of the `ingest` oracle: the commit log holds
/// exactly the acknowledged inserts, the store holds seed plus inserts,
/// and the inserted documents equal a serial replay of the log onto a
/// serial-pool copy of the seed collection.
pub fn check_ingest_round(store: &Store, oracle: &Collection, acked: usize) -> Result<(), String> {
    let log = store.log_prefix(usize::MAX);
    let snap = store.snapshot();
    let coll = snap.collection();
    if log.len() != acked || snap.epoch() != acked as u64 {
        return Err(format!(
            "log holds {} entries at epoch {}, {acked} inserts acknowledged",
            log.len(),
            snap.epoch()
        ));
    }
    if coll.len() != oracle.len() + acked {
        return Err(format!(
            "{} documents after {acked} inserts on {}",
            coll.len(),
            oracle.len()
        ));
    }
    let mut replay = oracle.clone();
    for entry in &log {
        replay
            .insert_str(entry)
            .map_err(|e| format!("log entry does not replay: {e}"))?;
    }
    let tail = |c: &Collection| -> Vec<Json> {
        c.doc_refs()[oracle.len()..]
            .iter()
            .map(|&d| c.json_of(d))
            .collect()
    };
    same_docs(&tail(coll), &tail(&replay)).map_err(|e| format!("serial replay differs: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(s: &Scenario) -> Vec<String> {
        s.clients
            .iter()
            .flatten()
            .map(|op| format!("{:?}", op.req))
            .collect()
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        for w in [Workload::Lookup, Workload::Analytics, Workload::Ingest] {
            let a = Scenario::with_docs(w, 7, 2, 300);
            let b = Scenario::with_docs(w, 7, 2, 300);
            let c = Scenario::with_docs(w, 8, 2, 300);
            assert_eq!(a.text, b.text, "{w:?}");
            assert_eq!(texts(&a), texts(&b), "{w:?}");
            assert_ne!(a.text, c.text, "{w:?}");
            if w != Workload::Analytics {
                assert_ne!(texts(&a), texts(&c), "{w:?}");
            }
        }
    }

    #[test]
    fn lookup_mix_is_sixty_twenty_twenty() {
        let s = Scenario::with_docs(Workload::Lookup, 1, 1, 300);
        let ops = &s.clients[0];
        let finds = ops
            .iter()
            .filter(|o| matches!(o.req, Request::Find { .. }))
            .count();
        let projects = ops
            .iter()
            .filter(|o| matches!(o.req, Request::FindProject { .. }))
            .count();
        assert_eq!((finds, projects), (LOOKUP_OPS * 3 / 5, LOOKUP_OPS / 5));
    }

    fn docs(epoch: u64, docs: Vec<Json>) -> Response {
        Response::Docs { epoch, docs }
    }

    #[test]
    fn lookup_oracle_rejects_a_corrupted_reply() {
        let s = Scenario::with_docs(Workload::Lookup, 3, 1, 300);
        let op = &s.clients[0][0];
        let Expect::Docs(want) = &*op.expect else {
            panic!("lookup replies are known up front")
        };
        assert!(check(op, &docs(0, want.clone()), None).is_ok());
        let mut wrong = jsondata::serialize::to_string(&want[0]);
        wrong = wrong.replacen("\"age\":", "\"age\":1", 1);
        let corrupted = vec![jsondata::parse(&wrong).unwrap()];
        assert!(check(op, &docs(0, corrupted), None).is_err());
        assert!(check(op, &docs(0, Vec::new()), None).is_err());
        assert!(check(op, &Response::Inserted { epoch: 1 }, None).is_err());
    }

    #[test]
    fn analytics_oracle_rejects_a_corrupted_reply() {
        let s = Scenario::with_docs(Workload::Analytics, 3, 1, 300);
        for op in &s.clients[0] {
            let reply = match &*op.expect {
                Expect::Docs(want) => {
                    let mut bad = want.clone();
                    if bad.pop().is_none() {
                        bad.push(Json::Num(0));
                    }
                    assert!(check(op, &docs(0, bad), None).is_err(), "{:?}", op.req);
                    docs(0, want.clone())
                }
                Expect::Plan(want) => {
                    let bad =
                        jsondata::parse(&want.to_string().replacen("jnl", "scan", 1)).unwrap();
                    assert_ne!(&bad, want);
                    let bad = Response::Plan {
                        epoch: 0,
                        plan: bad,
                    };
                    assert!(check(op, &bad, None).is_err(), "{:?}", op.req);
                    Response::Plan {
                        epoch: 0,
                        plan: want.clone(),
                    }
                }
                other => panic!("analytics expects docs or plans, not {other:?}"),
            };
            assert!(check(op, &reply, None).is_ok(), "{:?}", op.req);
        }
    }

    #[test]
    fn plans_compare_without_run_dependent_fields() {
        let a =
            jsondata::parse(r#"{"route": "jnl", "wall_us": 5, "x": [{"counters": {"polls": 1}}]}"#)
                .unwrap();
        let b =
            jsondata::parse(r#"{"route": "jnl", "wall_us": 9, "x": [{"counters": {"polls": 3}}]}"#)
                .unwrap();
        assert_eq!(stable_plan(&a), stable_plan(&b));
    }

    #[test]
    fn ingest_oracle_rejects_a_corrupted_reply() {
        let records: Vec<Json> = (0..3)
            .map(|i| jsondata::parse(&format!(r#"{{"id": {i}, "age": 1}}"#)).unwrap())
            .collect();
        let new_doc = r#"{"id": 3, "age": 9}"#;
        let log: Vec<Arc<str>> = vec![r#"{"id": 9}"#.into(), new_doc.into()];
        let ledger = Ledger::new(&records, log).unwrap();
        let insert = Op {
            req: Request::Insert {
                doc: new_doc.into(),
            },
            expect: Arc::new(Expect::Inserted),
        };
        assert!(check(&insert, &Response::Inserted { epoch: 2 }, Some(&ledger)).is_ok());
        assert!(check(&insert, &Response::Inserted { epoch: 1 }, Some(&ledger)).is_err());
        assert!(check(&insert, &Response::Inserted { epoch: 0 }, Some(&ledger)).is_err());

        let read = point_read(0, 3, None);
        let doc = jsondata::parse(new_doc).unwrap();
        // Visible from epoch 2 on, absent before.
        assert!(check(&read, &docs(2, vec![doc.clone()]), Some(&ledger)).is_ok());
        assert!(check(&read, &docs(1, Vec::new()), Some(&ledger)).is_ok());
        assert!(check(&read, &docs(1, vec![doc.clone()]), Some(&ledger)).is_err());
        assert!(check(&read, &docs(2, Vec::new()), Some(&ledger)).is_err());
        assert!(check(&read, &docs(2, vec![records[0].clone()]), Some(&ledger)).is_err());
        assert!(check(&read, &docs(2, vec![doc]), None).is_err());
    }

    #[test]
    fn ingest_round_check_rejects_a_lost_insert() {
        let s = Scenario::with_docs(Workload::Ingest, 5, 1, 300);
        let oracle = indexed_collection(&s.text, Pool::serial());
        let store = Store::new(indexed_collection(&s.text, Pool::serial()));
        for text in s.probe_docs.iter().take(3) {
            store
                .insert_str(text, jsondata::ParseLimits::default())
                .unwrap();
        }
        assert!(check_ingest_round(&store, &oracle, 3).is_ok());
        assert!(check_ingest_round(&store, &oracle, 4).is_err());
    }
}
