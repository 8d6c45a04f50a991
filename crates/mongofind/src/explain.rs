//! `EXPLAIN` / `EXPLAIN ANALYZE` for the `find` dialect.
//!
//! [`Collection::explain`] describes — without executing anything — the
//! route [`Collection::find_refs_with_ctx`] takes for a filter. Both ask
//! the one index planner (`IndexSet::plan`) once and render or run the
//! plan it returns; [`Collection::route_of`] reports its two outcomes:
//!
//! 1. **index** — a plan exists: at least one conjunct probes a declared
//!    secondary index; the plan lists every probe and the residual
//!    predicate evaluated on the probe hits (a lone `$eq` reads its
//!    posting lists directly, other plans intersect bitmaps).
//! 2. **scan** — otherwise, the chunk-parallel document scan.
//!
//! [`Collection::explain_analyze`] executes the *same* routed path under
//! a fresh span-recording sink ([`Actuals::measure`], the measurement
//! `jagg`'s pipeline analyzer shares) and annotates the plan with what
//! actually happened: row count, wall time, and the full counter
//! snapshot. Because the plan and the execution share one planner, the
//! claimed route and the recorded counters cannot drift —
//! the `s10` bench gate asserts exactly this agreement (an index route
//! records probes and zero scanned documents; a scan route records
//! exactly the plan's `scan_docs` scanned documents and zero probes).
//!
//! Both plans render two ways: [`FindExplain::to_json`] (machine-stable,
//! natural-number wall time in microseconds — the value space is ℕ) and
//! [`FindExplain::render_text`] (one node per line, pinned by snapshot
//! tests in the bench crate).

use std::sync::Arc;
use std::time::Instant;

use jguard::{QueryCtx, QueryError};
use jsondata::Json;
use jtrace::{QueryMetrics, Snapshot, ALL_COUNTERS};

use crate::index::Probe;
use crate::{Collection, Filter};

/// The execution route chosen for a filter by [`Collection::route_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Index probes + residual on survivors.
    Index,
    /// Chunk-parallel document scan.
    Scan,
}

impl Route {
    /// Stable lowercase name (`"index"` / `"scan"`).
    pub fn name(self) -> &'static str {
        match self {
            Route::Index => "index",
            Route::Scan => "scan",
        }
    }
}

/// One planned index probe, rendered for humans and JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeDesc {
    /// The declared index path the probe runs against.
    pub path: String,
    /// Probe kind: `"eq"`, `"in"`, or `"range"`.
    pub kind: &'static str,
    /// The conjunct, rendered (`age >= 30`).
    pub condition: String,
}

/// The `EXPLAIN` plan of one `find`: the route the governed executor
/// would take and, for the index route, the probe/residual split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FindExplain {
    /// The filter, rendered ([`Filter`]'s `Display`).
    pub filter: String,
    /// Chosen route ([`Collection::route_of`], shared with execution).
    pub route: Route,
    /// Documents in the collection at plan time.
    pub docs: usize,
    /// Documents the scan route will test: those from
    /// [`Collection::scan_start`] on. Zero on the index route.
    pub scan_docs: usize,
    /// Segments of the tree column at plan time.
    pub segments: usize,
    /// Declared index paths, in declaration order.
    pub indexed_paths: Vec<String>,
    /// Index probes, in execution order (empty off the index route).
    pub probes: Vec<ProbeDesc>,
    /// Residual conjunction evaluated on the probe hits, rendered;
    /// `None` when the probes are exact (or off the index route).
    pub residual: Option<String>,
}

impl FindExplain {
    /// Machine-stable JSON rendering of the plan.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("query".into(), Json::str("find")),
            ("filter".into(), Json::str(&self.filter)),
            ("route".into(), Json::str(self.route.name())),
            ("docs".into(), Json::Num(self.docs as u64)),
            ("scan_docs".into(), Json::Num(self.scan_docs as u64)),
            ("segments".into(), Json::Num(self.segments as u64)),
            (
                "indexes".into(),
                Json::array(self.indexed_paths.iter().map(Json::str)),
            ),
            (
                "probes".into(),
                Json::array(self.probes.iter().map(|p| {
                    Json::object(vec![
                        ("path".into(), Json::str(&p.path)),
                        ("kind".into(), Json::str(p.kind)),
                        ("condition".into(), Json::str(&p.condition)),
                    ])
                    .expect("distinct literal keys")
                })),
            ),
        ];
        if let Some(residual) = &self.residual {
            pairs.push(("residual".into(), Json::str(residual)));
        }
        Json::object(pairs).expect("distinct literal keys")
    }

    /// Human-readable rendering, one plan node per line (pinned by the
    /// explain snapshot tests).
    pub fn render_text(&self) -> String {
        let mut out = format!("find {}\n", self.filter);
        out.push_str(&format!(
            "  route: {}  [docs={}, scan_docs={}, segments={}]\n",
            self.route.name(),
            self.docs,
            self.scan_docs,
            self.segments
        ));
        if !self.indexed_paths.is_empty() {
            out.push_str(&format!("  indexes: [{}]\n", self.indexed_paths.join(", ")));
        }
        for (i, p) in self.probes.iter().enumerate() {
            out.push_str(&format!("  probe[{i}] {}: {}\n", p.kind, p.condition));
        }
        if let Some(residual) = &self.residual {
            out.push_str(&format!("  residual: {residual}\n"));
        }
        out
    }
}

/// Span-ring capacity of the [`Actuals`] recorder. A find touches a
/// handful of spans per segment; 4096 slots hold any realistic single
/// query, and the `spans_dropped` honesty counter reports overflow when
/// one doesn't fit.
const ANALYZE_SPAN_CAPACITY: usize = 4096;

/// What one `EXPLAIN ANALYZE` execution recorded — the measurement both
/// analyzers share ([`FindAnalyze`] here, `jagg`'s `PipelineAnalyze`).
///
/// [`Actuals::measure`] runs the execution under a fresh private sink
/// that records spans as well as counters. Serving sinks count without
/// a span ring, so spans are recorded only where a report reads them:
/// here, or by a caller that attaches [`Actuals::recorder`] to its own
/// [`QueryCtx`].
#[derive(Debug, Clone)]
pub struct Actuals {
    /// Rows the execution returned.
    pub rows: usize,
    /// Wall time of the execution, in microseconds.
    pub wall_us: u64,
    /// Counter snapshot of the execution's private metrics sink.
    pub counters: Snapshot,
    /// Span events the execution recorded into its ring.
    pub spans_recorded: u64,
    /// Span events lost to ring wrap-around — the honesty counter: a
    /// nonzero value means the trace is a suffix, not the whole story.
    pub spans_dropped: u64,
}

impl Actuals {
    /// A fresh metrics sink with a span ring of `EXPLAIN ANALYZE`'s
    /// capacity.
    pub fn recorder() -> Arc<QueryMetrics> {
        Arc::new(QueryMetrics::with_spans(ANALYZE_SPAN_CAPACITY))
    }

    /// Runs `run` under a context carrying a fresh [`Actuals::recorder`]
    /// and times it; `run` returns the number of rows it produced.
    pub fn measure(
        run: impl FnOnce(&QueryCtx) -> Result<usize, QueryError>,
    ) -> Result<Actuals, QueryError> {
        let sink = Actuals::recorder();
        let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
        let start = Instant::now();
        let rows = run(&ctx)?;
        let wall_us = start.elapsed().as_micros() as u64;
        let spans = sink.spans().expect("the recorder has a span ring");
        Ok(Actuals {
            rows,
            wall_us,
            counters: sink.snapshot(),
            spans_recorded: spans.recorded(),
            spans_dropped: spans.dropped(),
        })
    }

    /// Annotates a rendered plan object: its keys, then `extra`, then
    /// `rows`, `wall_us`, `counters` (every counter present, zeros
    /// included, so the schema is layout-independent) and `spans`.
    pub fn annotate_json(&self, plan: Json, extra: Option<(String, Json)>) -> Json {
        let Json::Object(plan) = plan else {
            unreachable!("plans render to objects")
        };
        let mut pairs: Vec<(String, Json)> = plan.pairs().to_vec();
        pairs.extend(extra);
        pairs.push(("rows".into(), Json::Num(self.rows as u64)));
        pairs.push(("wall_us".into(), Json::Num(self.wall_us)));
        let counters: Vec<(String, Json)> = ALL_COUNTERS
            .iter()
            .map(|&c| (c.name().to_owned(), Json::Num(self.counters.get(c))))
            .collect();
        pairs.push((
            "counters".into(),
            Json::object(counters).expect("counter names are distinct"),
        ));
        pairs.push((
            "spans".into(),
            Json::object(vec![
                ("recorded".into(), Json::Num(self.spans_recorded)),
                ("dropped".into(), Json::Num(self.spans_dropped)),
            ])
            .expect("distinct literal keys"),
        ));
        Json::object(pairs).expect("annotation keys disjoint from plan keys")
    }

    /// Appends the `actual:`, `counters:` (nonzero counters only) and
    /// `spans:` lines to a rendered plan.
    pub fn annotate_text(&self, out: &mut String) {
        out.push_str(&format!(
            "  actual: rows={}, wall_us={}\n",
            self.rows, self.wall_us
        ));
        let nz = self.counters.nonzero();
        if !nz.is_empty() {
            let parts: Vec<String> = nz.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("  counters: {}\n", parts.join(", ")));
        }
        out.push_str(&format!(
            "  spans: recorded={}, dropped={}\n",
            self.spans_recorded, self.spans_dropped
        ));
    }
}

/// The `EXPLAIN ANALYZE` result: the plan plus what execution recorded.
#[derive(Debug, Clone)]
pub struct FindAnalyze {
    /// The plan, as [`Collection::explain`] would have produced it.
    pub plan: FindExplain,
    /// What the routed execution recorded; `rows` counts the matching
    /// documents.
    pub actual: Actuals,
}

impl FindAnalyze {
    /// Machine-stable JSON rendering: the plan annotated with actuals
    /// ([`Actuals::annotate_json`]).
    pub fn to_json(&self) -> Json {
        self.actual.annotate_json(self.plan.to_json(), None)
    }

    /// Human-readable rendering: the plan text plus the
    /// [`Actuals::annotate_text`] lines.
    pub fn render_text(&self) -> String {
        let mut out = self.plan.render_text();
        self.actual.annotate_text(&mut out);
        out
    }
}

fn describe_probe(path: &str, probe: &Probe<'_>) -> ProbeDesc {
    let (kind, condition) = match probe {
        Probe::Eq(v) => ("eq", format!("{path} = {v}")),
        Probe::In(items) => {
            let vals: Vec<String> = items.iter().map(|v| v.to_string()).collect();
            ("in", format!("{path} in [{}]", vals.join(", ")))
        }
        Probe::Range(cmp, v) => ("range", format!("{path} {cmp} {v}")),
    };
    ProbeDesc {
        path: path.to_owned(),
        kind,
        condition,
    }
}

impl Collection {
    /// The route [`Collection::find_refs_with_ctx`] takes for `filter`:
    /// [`Route::Index`] iff the declared indexes plan at least one probe
    /// for it (the planner `EXPLAIN` and execution share), else
    /// [`Route::Scan`].
    pub fn route_of(&self, filter: &Filter) -> Route {
        match self.indexes.plan(filter) {
            Some(_) => Route::Index,
            None => Route::Scan,
        }
    }

    /// `EXPLAIN`: the plan for `filter`, without executing anything —
    /// the index plan rendered as built, or the scan's extent.
    pub fn explain(&self, filter: &Filter) -> FindExplain {
        let (route, scan_docs, probes, residual) = match self.indexes.plan(filter) {
            None => {
                let start = self.scan_start(&filter.bind(self.interner()));
                (Route::Scan, self.len() - start, Vec::new(), None)
            }
            Some(plan) => {
                let probes = plan
                    .probes
                    .iter()
                    .map(|(pi, probe)| describe_probe(self.indexes.path_name(*pi), probe))
                    .collect();
                let residual = (!plan.residual.is_empty()).then(|| {
                    let parts: Vec<String> = plan.residual.iter().map(|f| f.to_string()).collect();
                    parts.join(" && ")
                });
                (Route::Index, 0, probes, residual)
            }
        };
        FindExplain {
            filter: filter.to_string(),
            route,
            docs: self.len(),
            scan_docs,
            segments: self.segments.len(),
            indexed_paths: self.indexes.declared().map(str::to_owned).collect(),
            probes,
            residual,
        }
    }

    /// `EXPLAIN ANALYZE`: plans, then executes the routed path under
    /// [`Actuals::measure`], and returns the plan annotated with actual
    /// rows, wall time, counters, and the span ring's recorded/dropped
    /// tallies. This and [`FindAnalyze`] stay beside `jagg`'s analyzer
    /// because the serving benchmark's traced replay calls them.
    pub fn explain_analyze(&self, filter: &Filter) -> Result<FindAnalyze, QueryError> {
        let plan = self.explain(filter);
        let actual = Actuals::measure(|ctx| Ok(self.find_refs_with_ctx(filter, ctx)?.len()))?;
        Ok(FindAnalyze { plan, actual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::parse;
    use jtrace::Counter;

    fn people() -> Collection {
        Collection::from_array(
            &parse(
                r#"[
                {"name": {"first": "Sue", "last": "Kim"}, "age": 28, "hobbies": ["yoga", "chess"]},
                {"name": {"first": "John", "last": "Doe"}, "age": 32, "hobbies": ["golf"]},
                {"name": {"first": "Ada", "last": "Kim"}, "age": 41, "hobbies": []}
            ]"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn explain_routes_match_execution_counters() {
        let mut coll = people();
        coll.create_index("age");

        // Index route: probes recorded, no docs scanned, no segments.
        let f = Filter::parse_str(r#"{"age": {"$gte": 30}}"#).unwrap();
        let ex = coll.explain(&f);
        assert_eq!(ex.route, Route::Index);
        assert_eq!(ex.probes.len(), 1);
        assert_eq!(ex.probes[0].kind, "range");
        let an = coll.explain_analyze(&f).unwrap();
        assert_eq!(an.actual.rows, 2);
        assert!(an.actual.counters.get(Counter::IndexProbes) > 0);
        assert_eq!(an.actual.counters.get(Counter::DocsScanned), 0);
        assert_eq!(an.actual.counters.get(Counter::SegmentsVisited), 0);

        // Scan route: any unindexed filter, in or out of the exactly
        // JNL-compilable fragment.
        for (src, rows, scan_docs) in [
            (r#"{"name.last": "Kim"}"#, 2, 3),
            (r#"{"name.last": {"$gt": "K"}}"#, 2, 3),
            // "Ada" is first interned by the last document.
            (r#"{"name.first": "Ada"}"#, 1, 1),
        ] {
            let f = Filter::parse_str(src).unwrap();
            let ex = coll.explain(&f);
            assert_eq!(ex.route, Route::Scan, "{src}");
            let an = coll.explain_analyze(&f).unwrap();
            assert_eq!(an.actual.rows, rows, "{src}");
            assert_eq!(ex.scan_docs, scan_docs, "{src}");
            assert_eq!(
                an.actual.counters.get(Counter::DocsScanned),
                ex.scan_docs as u64
            );
            assert_eq!(an.actual.counters.get(Counter::IndexProbes), 0);
            assert_eq!(an.actual.counters.get(Counter::SegmentsVisited), 0);
        }

        // The JNL oracle is no route, but it records its own counter:
        // one per segment evaluated, and neither probes nor scans.
        let f = Filter::parse_str(r#"{"name.last": "Kim"}"#).unwrap();
        let sink = Arc::new(QueryMetrics::new());
        let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
        assert_eq!(coll.find_refs_via_jnl_with_ctx(&f, &ctx).unwrap().len(), 2);
        assert_eq!(
            sink.get(Counter::SegmentsVisited),
            coll.segments().len() as u64
        );
        assert_eq!(sink.get(Counter::IndexProbes), 0);
        assert_eq!(sink.get(Counter::DocsScanned), 0);
    }

    #[test]
    fn routed_results_agree_with_scan_oracle() {
        let mut coll = people();
        coll.create_index("age");
        for src in [
            r#"{"age": {"$gte": 30}}"#,
            r#"{"name.last": "Kim"}"#,
            r#"{"name.last": {"$gt": "K"}}"#,
            r#"{"age": {"$gte": 30}, "name.last": "Kim"}"#,
        ] {
            let f = Filter::parse_str(src).unwrap();
            let ctx = QueryCtx::unlimited();
            assert_eq!(
                coll.find_refs_with_ctx(&f, &ctx).unwrap(),
                coll.find_refs_via_scan_with_ctx(&f, &ctx).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn explain_renders_probes_and_residual() {
        let mut coll = people();
        coll.create_index("age");
        let f = Filter::parse_str(
            r#"{"age": {"$gte": 30}, "name.last": "Kim", "hobbies": {"$size": 0}}"#,
        )
        .unwrap();
        let ex = coll.explain(&f);
        assert_eq!(ex.route, Route::Index);
        let text = ex.render_text();
        assert!(text.contains("route: index"), "{text}");
        assert!(text.contains("age >= 30"), "{text}");
        assert!(text.contains("residual:"), "{text}");
        assert!(text.contains("size(hobbies) = 0"), "{text}");
        let json = ex.to_json().to_string();
        assert!(json.contains("\"route\":\"index\""), "{json}");
        assert!(json.contains("\"kind\":\"range\""), "{json}");
    }

    #[test]
    fn analyze_json_carries_every_counter() {
        let coll = people();
        let f = Filter::parse_str(r#"{"age": {"$gte": 30}}"#).unwrap();
        let an = coll.explain_analyze(&f).unwrap();
        let json = an.to_json();
        let counters = json
            .as_object()
            .and_then(|o| o.get("counters"))
            .and_then(Json::as_object)
            .expect("counters object");
        assert_eq!(counters.len(), ALL_COUNTERS.len());
    }

    #[test]
    fn analyze_reports_span_honesty() {
        let coll = people();
        let f = Filter::parse_str(r#"{"age": {"$gte": 30}}"#).unwrap();
        let an = coll.explain_analyze(&f).unwrap();
        // The routed path always opens at least the plan span, and a
        // single small query never overflows the analyze ring.
        assert!(an.actual.spans_recorded > 0);
        assert_eq!(an.actual.spans_dropped, 0);
        let text = an.render_text();
        assert!(
            text.contains(&format!(
                "spans: recorded={}, dropped=0",
                an.actual.spans_recorded
            )),
            "{text}"
        );
        let json = an.to_json();
        let spans = json
            .as_object()
            .and_then(|o| o.get("spans"))
            .and_then(Json::as_object)
            .expect("spans object");
        assert_eq!(
            spans.get("recorded"),
            Some(&Json::Num(an.actual.spans_recorded))
        );
        assert_eq!(spans.get("dropped"), Some(&Json::Num(0)));
    }
}
