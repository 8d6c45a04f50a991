//! The traced replay: a request served through the same public calls
//! `jserve::Server::serve` makes, in the same order, with a span around
//! each call. Nothing inside the library is instrumented; a layer's time
//! is the time of the public calls into it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use jguard::{QueryCtx, QueryError};
use jserve::{Request, Response, Server};
use jsondata::{Json, ParseLimits};
use mongofind::{Collection, DocRef, Filter, Projection, Route};

/// Name of the root span each request gets.
const REQUEST: &str = "jserve.request";

/// `mongofind`'s minimum chunk length for materialisation (its private
/// `DOC_CHUNK_MIN`), so the replay carves results up as `find` does.
const DOC_CHUNK_MIN: usize = 256;

/// One timed call (or, for [`REQUEST`], one whole request).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub tid: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Recorders made so far; a recorder's number prefixes its span ids, so
/// ids stay unique across the clients and rounds of a run.
static RECORDERS: AtomicU64 = AtomicU64::new(0);

/// A client thread's span buffer, kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    tid: usize,
    id_prefix: u64,
    next_id: u64,
    req: u64,
    root: Option<u64>,
    pub spans: Vec<Span>,
    /// Find/FindProject requests replayed, and how many `route_of` sent
    /// to an index.
    pub finds: u64,
    pub index_routed: u64,
}

impl Recorder {
    pub fn new(tid: usize, origin: Instant) -> Recorder {
        Recorder {
            origin,
            tid,
            id_prefix: (RECORDERS.fetch_add(1, Ordering::Relaxed) + 1) << 40,
            next_id: 0,
            req: 0,
            root: None,
            spans: Vec::new(),
            finds: 0,
            index_routed: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.id_prefix | self.next_id
    }

    fn push(&mut self, name: &'static str, id: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: if name == REQUEST { None } else { self.root },
            req: self.req,
            tid: self.tid,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` as one call of the current request.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.fresh_id();
        let start = self.now_ns();
        let out = f();
        self.push(name, id, start);
        out
    }

    /// Runs `f` as one request under a fresh root span.
    fn request<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.fresh_id();
        self.req = id;
        self.root = Some(id);
        let start = self.now_ns();
        let out = f(self);
        self.push(REQUEST, id, start);
        self.root = None;
        out
    }

    fn parse_filter(&mut self, src: &str) -> Result<Filter, QueryError> {
        self.span("mongofind.filter_parse", || Filter::parse_str(src))
            .map_err(bad_query)
    }

    fn route(&mut self, coll: &Collection, f: &Filter) {
        let route = self.span("mongofind.route", || coll.route_of(f));
        self.finds += 1;
        self.index_routed += u64::from(route == Route::Index);
    }
}

fn bad_query(e: impl std::fmt::Display) -> QueryError {
    QueryError::BadQuery(e.to_string())
}

/// Serves `req` for `tenant` the way `Server::serve` does, plus one
/// `route_of` call per find so the route the planner would pick is known.
pub fn replay(
    server: &Server,
    tenant: &str,
    req: &Request,
    rec: &mut Recorder,
) -> Result<Response, QueryError> {
    rec.request(|rec| {
        let metrics = server
            .tenant_metrics(tenant)
            .ok_or_else(|| bad_query(format!("unknown tenant: {tenant}")))?;
        let _permit = rec.span("jserve.admission.wait", || server.admission().admit(None))?;
        let ctx = QueryCtx::new().with_metrics(metrics);
        if let Request::Insert { doc } = req {
            let epoch = rec.span("jserve.store.insert", || {
                server.store().insert_str(doc, ParseLimits::default())
            })?;
            return Ok(Response::Inserted { epoch });
        }
        let snap = rec.span("jserve.store.snapshot", || server.store().snapshot());
        let coll = snap.collection();
        let epoch = snap.epoch();
        let docs = |docs: Vec<Json>| Ok(Response::Docs { epoch, docs });
        let plan = |plan: Json| Ok(Response::Plan { epoch, plan });
        match req {
            Request::Find { filter } => {
                let f = rec.parse_filter(filter)?;
                rec.route(coll, &f);
                let refs = rec.span("mongofind.scan", || coll.find_refs_with_ctx(&f, &ctx))?;
                docs(rec.span("mongofind.materialize", || {
                    materialize(coll, &ctx, &refs, |d| coll.json_of(d))
                })?)
            }
            Request::FindProject { filter, projection } => {
                let f = rec.parse_filter(filter)?;
                let p = rec
                    .span("mongofind.filter_parse", || {
                        Projection::parse_str(projection)
                    })
                    .map_err(bad_query)?;
                rec.route(coll, &f);
                let refs = rec.span("mongofind.scan", || coll.find_refs_with_ctx(&f, &ctx))?;
                docs(rec.span("mongofind.materialize", || {
                    materialize(coll, &ctx, &refs, |d| {
                        p.apply_tree(&coll.segments()[d.seg as usize], d.node)
                    })
                })?)
            }
            Request::Aggregate { pipeline } => {
                let p = parse_pipeline(rec, pipeline)?;
                docs(rec.span("jagg.exec", || jagg::aggregate_with_ctx(coll, &p, &ctx))?)
            }
            Request::Explain { filter } => {
                let f = rec.parse_filter(filter)?;
                plan(rec.span("mongofind.explain", || coll.explain(&f).to_json()))
            }
            Request::ExplainAnalyze { filter } => {
                let f = rec.parse_filter(filter)?;
                plan(
                    rec.span("mongofind.explain", || coll.explain_analyze(&f))?
                        .to_json(),
                )
            }
            Request::ExplainPipeline { pipeline } => {
                let p = parse_pipeline(rec, pipeline)?;
                plan(rec.span("jagg.explain", || jagg::explain(coll, &p).to_json()))
            }
            Request::ExplainAnalyzePipeline { pipeline } => {
                let p = parse_pipeline(rec, pipeline)?;
                plan(
                    rec.span("jagg.explain", || jagg::explain_analyze(coll, &p))?
                        .to_json(),
                )
            }
            Request::Insert { .. } => unreachable!("inserts return before the snapshot"),
        }
    })
}

fn parse_pipeline(rec: &mut Recorder, src: &str) -> Result<jagg::Pipeline, QueryError> {
    rec.span("jagg.pipeline_parse", || jagg::Pipeline::parse_str(src))
        .map_err(bad_query)
}

/// Builds the reply documents as `find` does: on the collection's pool,
/// in document order, polling the context and charging the byte budget
/// per document.
fn materialize(
    coll: &Collection,
    ctx: &QueryCtx,
    refs: &[DocRef],
    make: impl Fn(DocRef) -> Json + Sync,
) -> Result<Vec<Json>, QueryError> {
    let chunk = coll.pool().chunk_for(refs.len(), DOC_CHUNK_MIN);
    coll.pool()
        .try_flat_map_chunks(ctx, refs.len(), chunk, |r| {
            let mut poll = ctx.poller();
            let mut out = Vec::with_capacity(r.len());
            for &d in &refs[r] {
                poll.tick()?;
                let v = make(d);
                ctx.charge_json(&v)?;
                out.push(v);
            }
            Ok(out)
        })
}

/// Per span name: total self time (the span minus the time its child
/// spans cover) in nanoseconds, and the number of spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let e = out.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
        e.1 += 1;
    }
    out
}

/// The share of request time no layer span covers.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == REQUEST)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let own = self_times(spans).get(REQUEST).map_or(0, |e| e.0);
    own as f64 / total.max(1) as f64
}

/// Mean time of one whole request, in microseconds.
pub fn request_us(spans: &[Span]) -> f64 {
    let (ns, n) = spans
        .iter()
        .filter(|s| s.name == REQUEST)
        .fold((0, 0), |(ns, n), s| (ns + s.end_ns - s.start_ns, n + 1));
    ns as f64 / 1e3 / f64::from(n.max(1))
}

/// The spans as Chrome-trace JSON (complete `X` events; each carries its
/// request id and parent span id).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                r#"{{"name":"{}","ph":"X","pid":1,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"req":{},"id":{},"parent":{}}}}}"#,
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Merges the recorders of one round: their spans, finds replayed, and
/// finds `route_of` sent to an index.
pub fn gather(recorders: impl IntoIterator<Item = Recorder>) -> (Vec<Span>, u64, u64) {
    let mut spans = Vec::new();
    let (mut finds, mut index_routed) = (0, 0);
    for r in recorders {
        spans.extend(r.spans);
        finds += r.finds;
        index_routed += r.index_routed;
    }
    (spans, finds, index_routed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 1,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("mongofind.scan", 2, Some(1), 10, 70),
            span("mongofind.materialize", 3, Some(1), 70, 90),
            span(REQUEST, 1, None, 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t[REQUEST], (20, 1));
        assert_eq!(t["mongofind.scan"], (60, 1));
        assert!((unattributed_share(&spans) - 0.2).abs() < 1e-12);
        assert!(chrome_trace(&spans).contains(r#""parent":1}"#));
    }

    #[test]
    fn recorder_nests_calls_under_their_request() {
        let mut rec = Recorder::new(3, Instant::now());
        rec.request(|rec| rec.span("jserve.store.snapshot", || ()));
        let [child, root] = &rec.spans[..] else {
            panic!("one call and one request")
        };
        assert_eq!(root.name, REQUEST);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.req, root.id);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
    }
}
