//! `EXPLAIN` / `EXPLAIN ANALYZE` for aggregation pipelines.
//!
//! [`explain`] describes the plan the tree-backed executor would run,
//! without executing anything: one node per stage, the leading-`$match`
//! route (delegated to [`Collection::explain`] — the executor and the
//! plan share one routing function, so they cannot disagree), and the
//! top-k fusion the executor applies to `$sort` blocks whose output is
//! immediately cut to `skip + limit` rows.
//!
//! [`explain_analyze`] executes the pipeline under a fresh
//! [`QueryMetrics`] sink with per-stage tracing and annotates the plan
//! with actual row counts, per-stage wall time, and the full counter
//! snapshot. Fused blocks are expanded back into their constituent
//! stages — `$sort` preserves cardinality and the pagination arithmetic
//! is exact — so the reported per-stage cardinalities equal the
//! reference executor's ([`crate::reference::stage_cardinalities`]),
//! which the `s10` bench gate asserts on every S5 pipeline.
//!
//! Static-analysis findings (`jstat` prunes and advisories) attach to a
//! plan through [`PipelineExplain::add_note`] — the analyzer sits above
//! this crate in the dependency order, so the annotation flows from the
//! caller.

use std::sync::Arc;
use std::time::Instant;

use jguard::{QueryCtx, QueryError};
use jsondata::Json;
use jtrace::{QueryMetrics, Snapshot, ALL_COUNTERS};
use mongofind::{Collection, FindExplain};

use crate::exec::{aggregate_traced_with_ctx, clamp_len, stage_label};
use crate::pipeline::{
    Accumulator, GroupSpec, IdExpr, Pipeline, ProjectField, SortOrder, Stage, ValueExpr,
};

/// One plan node: a pipeline stage as the executor will run it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageExplain {
    /// Operator name (`"$match"`, `"$group"`, …).
    pub label: &'static str,
    /// Rendered operand (filter text, sort spec, group summary, …).
    pub detail: String,
    /// Whether the stage is absorbed into a top-k fused block.
    pub fused: bool,
}

/// The `EXPLAIN` plan of one pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineExplain {
    /// One node per pipeline stage, in order.
    pub stages: Vec<StageExplain>,
    /// The leading-`$match` route plan, when the pipeline opens with a
    /// `$match` (the fast path straight off the collection).
    pub match_plan: Option<FindExplain>,
    /// Free-form annotations: fusion notes from the planner, plus
    /// whatever the caller attaches (e.g. `jstat` diagnostics).
    pub notes: Vec<String>,
}

impl PipelineExplain {
    /// Attaches an annotation (rendered into text and JSON output).
    pub fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Machine-stable JSON rendering of the plan.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("query".into(), Json::str("aggregate")),
            (
                "stages".into(),
                Json::array(self.stages.iter().map(|s| {
                    Json::object(vec![
                        ("stage".into(), Json::str(s.label)),
                        ("detail".into(), Json::str(&s.detail)),
                        ("fused".into(), Json::Num(u64::from(s.fused))),
                    ])
                    .expect("distinct literal keys")
                })),
            ),
        ];
        if let Some(mp) = &self.match_plan {
            pairs.push(("match_plan".into(), mp.to_json()));
        }
        if !self.notes.is_empty() {
            pairs.push((
                "notes".into(),
                Json::array(self.notes.iter().map(Json::str)),
            ));
        }
        Json::object(pairs).expect("distinct literal keys")
    }

    /// Human-readable rendering, one plan node per line (pinned by the
    /// explain snapshot tests).
    pub fn render_text(&self) -> String {
        let mut out = format!("aggregate ({} stages)\n", self.stages.len());
        for (i, s) in self.stages.iter().enumerate() {
            let fused = if s.fused { "  [fused: top-k]" } else { "" };
            out.push_str(&format!("  [{i}] {}: {}{fused}\n", s.label, s.detail));
        }
        if let Some(mp) = &self.match_plan {
            out.push_str("  leading $match plan:\n");
            for line in mp.render_text().lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

/// What one stage actually did: produced by the traced executor
/// ([`explain_analyze`]), one entry per pipeline stage with fused blocks
/// expanded back to their constituents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageActual {
    /// Operator name, matching the plan node.
    pub label: &'static str,
    /// Rows leaving the stage.
    pub rows_out: usize,
    /// Wall time of the stage in microseconds (a fused block's time
    /// lands on its `$sort`; the interior pagination reports `0`).
    pub wall_us: u64,
}

/// The `EXPLAIN ANALYZE` result: the plan plus what execution recorded.
#[derive(Debug, Clone)]
pub struct PipelineAnalyze {
    /// The plan, as [`explain`] would have produced it.
    pub plan: PipelineExplain,
    /// Per-stage actuals, parallel to `plan.stages`.
    pub stages: Vec<StageActual>,
    /// Output documents the pipeline produced.
    pub rows: usize,
    /// End-to-end wall time in microseconds.
    pub wall_us: u64,
    /// Counter snapshot of the execution's private metrics sink.
    pub counters: Snapshot,
    /// Span events the execution recorded into its ring.
    pub spans_recorded: u64,
    /// Span events lost to ring wrap-around — the honesty counter: a
    /// nonzero value means the trace is a suffix, not the whole story.
    pub spans_dropped: u64,
}

impl PipelineAnalyze {
    /// Machine-stable JSON rendering: the plan annotated with actuals.
    pub fn to_json(&self) -> Json {
        let Json::Object(plan) = self.plan.to_json() else {
            unreachable!("plans render to objects")
        };
        let mut pairs: Vec<(String, Json)> = plan
            .pairs()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        pairs.push((
            "actual_stages".into(),
            Json::array(self.stages.iter().map(|s| {
                Json::object(vec![
                    ("stage".into(), Json::str(s.label)),
                    ("rows".into(), Json::Num(s.rows_out as u64)),
                    ("wall_us".into(), Json::Num(s.wall_us)),
                ])
                .expect("distinct literal keys")
            })),
        ));
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

    /// Human-readable rendering: the plan text plus per-stage actuals,
    /// nonzero counters, and the span recorded/dropped tallies.
    pub fn render_text(&self) -> String {
        let mut out = self.plan.render_text();
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "  actual[{i}] {}: rows={}, wall_us={}\n",
                s.label, s.rows_out, s.wall_us
            ));
        }
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
        out
    }
}

fn render_expr(e: &ValueExpr) -> String {
    match e {
        ValueExpr::Const(c) => c.to_string(),
        ValueExpr::Field(p) => format!("${p}"),
    }
}

fn render_id(id: &IdExpr) -> String {
    match id {
        IdExpr::Const(c) => c.to_string(),
        IdExpr::Field(p) => format!("${p}"),
        IdExpr::Doc(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(name, e)| format!("{name}: {}", render_expr(e)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
    }
}

fn render_acc(acc: &Accumulator) -> String {
    match acc {
        Accumulator::Sum(e) => format!("$sum({})", render_expr(e)),
        Accumulator::Avg(e) => format!("$avg({})", render_expr(e)),
        Accumulator::Min(e) => format!("$min({})", render_expr(e)),
        Accumulator::Max(e) => format!("$max({})", render_expr(e)),
        Accumulator::Count => "$count".into(),
        Accumulator::Push(e) => format!("$push({})", render_expr(e)),
        Accumulator::First(e) => format!("$first({})", render_expr(e)),
        Accumulator::Last(e) => format!("$last({})", render_expr(e)),
    }
}

fn render_group(spec: &GroupSpec) -> String {
    let accs: Vec<String> = spec
        .accs
        .iter()
        .map(|(name, acc)| format!("{name}: {}", render_acc(acc)))
        .collect();
    if accs.is_empty() {
        format!("_id: {}", render_id(&spec.id))
    } else {
        format!("_id: {}, {}", render_id(&spec.id), accs.join(", "))
    }
}

fn stage_detail(stage: &Stage) -> String {
    match stage {
        Stage::Match(f) => f.to_string(),
        Stage::Project(spec) => {
            let parts: Vec<String> = spec
                .iter()
                .map(|(p, field)| match field {
                    ProjectField::Include => p.to_string(),
                    ProjectField::Expr(e) => format!("{p} = {}", render_expr(e)),
                })
                .collect();
            parts.join(", ")
        }
        Stage::Unwind(p) => format!("${p}"),
        Stage::Group(spec) => render_group(spec),
        Stage::Sort(spec) => {
            let parts: Vec<String> = spec
                .iter()
                .map(|(p, order)| {
                    let dir = match order {
                        SortOrder::Asc => "asc",
                        SortOrder::Desc => "desc",
                    };
                    format!("{p} {dir}")
                })
                .collect();
            parts.join(", ")
        }
        Stage::Skip(n) | Stage::Limit(n) => n.to_string(),
        Stage::Count(label) => label.clone(),
    }
}

/// `EXPLAIN`: the plan for `pipeline` over `coll`, without executing
/// anything. Fusion detection mirrors the executor's scan exactly (the
/// same left-to-right cursor with consumed stages skipped).
pub fn explain(coll: &Collection, pipeline: &Pipeline) -> PipelineExplain {
    let stages = &pipeline.stages;
    let mut notes = Vec::new();
    let mut fused = vec![false; stages.len()];
    let mut i = 0;
    while i < stages.len() {
        if let Stage::Sort(_) = &stages[i] {
            let consumed = match (stages.get(i + 1), stages.get(i + 2)) {
                (Some(Stage::Limit(k)), _) => {
                    notes.push(format!(
                        "top-k fusion: $sort+$limit run as a bounded heap (skip=0, limit={})",
                        clamp_len(*k)
                    ));
                    Some(2)
                }
                (Some(Stage::Skip(s)), Some(Stage::Limit(k))) => {
                    notes.push(format!(
                        "top-k fusion: $sort+$skip+$limit run as a bounded heap (skip={}, limit={})",
                        clamp_len(*s),
                        clamp_len(*k)
                    ));
                    Some(3)
                }
                _ => None,
            };
            if let Some(c) = consumed {
                for flag in &mut fused[i..i + c] {
                    *flag = true;
                }
                i += c;
                continue;
            }
        }
        i += 1;
    }
    let match_plan = match stages.first() {
        Some(Stage::Match(f)) => Some(coll.explain(f)),
        _ => None,
    };
    let nodes = stages
        .iter()
        .zip(&fused)
        .map(|(stage, &fused)| StageExplain {
            label: stage_label(stage),
            detail: stage_detail(stage),
            fused,
        })
        .collect();
    PipelineExplain {
        stages: nodes,
        match_plan,
        notes,
    }
}

/// `EXPLAIN ANALYZE`: plans, then executes the pipeline under a fresh
/// private span-recording [`QueryMetrics`] sink with per-stage tracing,
/// and returns the plan annotated with actual cardinalities, wall
/// times, counters, and the span ring's recorded/dropped tallies.
pub fn explain_analyze(
    coll: &Collection,
    pipeline: &Pipeline,
) -> Result<PipelineAnalyze, QueryError> {
    let plan = explain(coll, pipeline);
    let sink = Arc::new(QueryMetrics::with_spans(mongofind::ANALYZE_SPAN_CAPACITY));
    let ctx = QueryCtx::new().with_metrics(Arc::clone(&sink));
    let mut stages = Vec::new();
    let start = Instant::now();
    let out = aggregate_traced_with_ctx(coll, pipeline, &ctx, &mut stages)?;
    let wall_us = start.elapsed().as_micros() as u64;
    let spans = sink.spans().expect("sink was built with a span ring");
    Ok(PipelineAnalyze {
        plan,
        stages,
        rows: out.len(),
        wall_us,
        counters: sink.snapshot(),
        spans_recorded: spans.recorded(),
        spans_dropped: spans.dropped(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::parse;

    fn coll() -> Collection {
        Collection::from_array(
            &parse(
                r#"[
                {"name": {"first": "Sue", "last": "Kim"}, "age": 28, "hobbies": ["yoga", "chess"]},
                {"name": {"first": "John", "last": "Doe"}, "age": 32, "hobbies": ["golf"]},
                {"name": {"first": "Ada", "last": "Kim"}, "age": 41, "hobbies": ["chess"]},
                {"name": {"first": "Bo", "last": "Chen"}, "age": 35, "hobbies": []}
            ]"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn explain_marks_topk_fusion_and_match_route() {
        let c = coll();
        let p = Pipeline::parse_str(
            r#"[
                {"$match": {"age": {"$gte": 30}}},
                {"$sort": {"age": 0}},
                {"$skip": 1},
                {"$limit": 1}
            ]"#,
        )
        .unwrap();
        let ex = explain(&c, &p);
        assert_eq!(ex.stages.len(), 4);
        assert!(!ex.stages[0].fused);
        assert!(ex.stages[1].fused && ex.stages[2].fused && ex.stages[3].fused);
        assert_eq!(ex.match_plan.as_ref().unwrap().route.name(), "scan");
        assert_eq!(ex.notes.len(), 1);
        let text = ex.render_text();
        assert!(text.contains("[fused: top-k]"), "{text}");
        assert!(text.contains("leading $match plan:"), "{text}");
    }

    #[test]
    fn analyze_cardinalities_match_reference_through_fusion() {
        let c = coll();
        for src in [
            r#"[{"$match": {"age": {"$gte": 30}}}, {"$sort": {"age": 0}}, {"$skip": 1}, {"$limit": 1}]"#,
            r#"[{"$unwind": "$hobbies"}, {"$group": {"_id": "$hobbies", "n": {"$sum": 1}}}]"#,
            r#"[{"$sort": {"age": 1}}, {"$limit": 2}, {"$project": {"age": 1}}]"#,
            r#"[{"$match": {"name.last": "Kim"}}, {"$count": "kims"}]"#,
        ] {
            let p = Pipeline::parse_str(src).unwrap();
            let an = explain_analyze(&c, &p).unwrap();
            let expected = crate::reference::stage_cardinalities(&c.docs(), &p);
            let got: Vec<usize> = an.stages.iter().map(|s| s.rows_out).collect();
            assert_eq!(got, expected, "{src}");
            assert_eq!(an.rows, *expected.last().unwrap(), "{src}");
        }
    }

    #[test]
    fn analyze_json_reports_stages_and_counters() {
        let c = coll();
        let p =
            Pipeline::parse_str(r#"[{"$match": {"age": {"$gte": 30}}}, {"$limit": 2}]"#).unwrap();
        let an = explain_analyze(&c, &p).unwrap();
        let json = an.to_json();
        let obj = json.as_object().unwrap();
        assert!(obj.get("actual_stages").is_some());
        assert!(obj.get("counters").is_some());
        let text = an.render_text();
        assert!(text.contains("actual[0] $match"), "{text}");
    }

    #[test]
    fn analyze_reports_span_honesty() {
        let c = coll();
        let p =
            Pipeline::parse_str(r#"[{"$match": {"age": {"$gte": 30}}}, {"$limit": 2}]"#).unwrap();
        let an = explain_analyze(&c, &p).unwrap();
        // Per-stage tracing opens a span per stage; one small pipeline
        // never overflows the analyze ring.
        assert!(an.spans_recorded > 0);
        assert_eq!(an.spans_dropped, 0);
        let text = an.render_text();
        assert!(text.contains("spans: recorded="), "{text}");
        let spans = an
            .to_json()
            .as_object()
            .and_then(|o| o.get("spans"))
            .and_then(Json::as_object)
            .cloned()
            .expect("spans object");
        assert_eq!(spans.get("recorded"), Some(&Json::Num(an.spans_recorded)));
        assert_eq!(spans.get("dropped"), Some(&Json::Num(0)));
    }
}
