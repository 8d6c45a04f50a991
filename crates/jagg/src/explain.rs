//! `EXPLAIN` / `EXPLAIN ANALYZE` for aggregation pipelines.
//!
//! [`explain`] describes the plan the tree-backed executor would run,
//! without executing anything: one node per stage, the leading-`$match`
//! route (delegated to [`Collection::explain`] — the executor and the
//! plan share one routing function, so they cannot disagree), and the
//! fused blocks. Those come from the one planner the executor runs
//! (`plan::plan`), so a plan cannot claim a fusion that does not run: a
//! top-k block (`$sort` whose output is immediately cut to
//! `skip + limit` rows) marks its stages fused with a note on the
//! skip/limit arithmetic, and a `$project` it takes in for late
//! projection is marked fused too, with a second note naming the paths
//! the sort keys are read at. A `$project` that ends the pipeline is
//! marked fused into the output step, with a note.
//!
//! [`explain_analyze`] executes the pipeline with per-stage tracing
//! under a fresh span-recording sink ([`Actuals::measure`], the
//! measurement the find analyzer shares) and annotates the plan with
//! actual row counts, per-stage wall time, and the full counter
//! snapshot. Fused blocks are expanded back into their constituent
//! stages — `$project` and `$sort` preserve cardinality and the
//! pagination arithmetic is exact — so the reported per-stage
//! cardinalities equal the reference executor's
//! ([`crate::reference::stage_cardinalities`]), which the `s10` bench
//! gate asserts on every S5 pipeline.
//!
//! Static-analysis findings (`jstat` prunes and advisories) attach to a
//! plan through [`PipelineExplain::add_note`] — the analyzer sits above
//! this crate in the dependency order, so the annotation flows from the
//! caller.

use jguard::QueryError;
use jsondata::Json;
use mongofind::{Actuals, Collection, FindExplain};

use crate::exec::{clamp_len, execute, stage_label};
use crate::pipeline::{
    Accumulator, GroupSpec, IdExpr, Pipeline, ProjectField, SortOrder, Stage, ValueExpr,
};
use crate::plan::{plan, Block};

/// One plan node: a pipeline stage as the executor will run it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageExplain {
    /// Operator name (`"$match"`, `"$group"`, …).
    pub label: &'static str,
    /// Rendered operand (filter text, sort spec, group summary, …).
    pub detail: String,
    /// The fused block the stage runs in, if any: `"top-k"` (a
    /// `$project` is in one when it runs late) or `"output"` (a last
    /// `$project`, run by the output step).
    pub fused: Option<&'static str>,
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
                        ("fused".into(), Json::Num(u64::from(s.fused.is_some()))),
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
            let fused = s.fused.map_or(String::new(), |b| format!("  [fused: {b}]"));
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
    /// lands on its `$sort`; its `$project`, `$skip` and `$limit` report
    /// `0`).
    pub wall_us: u64,
}

/// The `EXPLAIN ANALYZE` result: the plan plus what execution recorded.
#[derive(Debug, Clone)]
pub struct PipelineAnalyze {
    /// The plan, as [`explain`] would have produced it.
    pub plan: PipelineExplain,
    /// Per-stage actuals, parallel to `plan.stages`.
    pub stages: Vec<StageActual>,
    /// What the whole execution recorded; `rows` counts the output
    /// documents.
    pub actual: Actuals,
}

impl PipelineAnalyze {
    /// Machine-stable JSON rendering: the plan, then `actual_stages`,
    /// then the [`Actuals::annotate_json`] keys.
    pub fn to_json(&self) -> Json {
        let stages = Json::array(self.stages.iter().map(|s| {
            Json::object(vec![
                ("stage".into(), Json::str(s.label)),
                ("rows".into(), Json::Num(s.rows_out as u64)),
                ("wall_us".into(), Json::Num(s.wall_us)),
            ])
            .expect("distinct literal keys")
        }));
        self.actual
            .annotate_json(self.plan.to_json(), Some(("actual_stages".into(), stages)))
    }

    /// Human-readable rendering: the plan text, per-stage actuals, then
    /// the [`Actuals::annotate_text`] lines.
    pub fn render_text(&self) -> String {
        let mut out = self.plan.render_text();
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "  actual[{i}] {}: rows={}, wall_us={}\n",
                s.label, s.rows_out, s.wall_us
            ));
        }
        self.actual.annotate_text(&mut out);
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
/// anything. The fused blocks are the executor's own (`plan::plan`).
pub fn explain(coll: &Collection, pipeline: &Pipeline) -> PipelineExplain {
    let stages = &pipeline.stages;
    let mut notes = Vec::new();
    let mut fused = vec![None; stages.len()];
    let mut at = 0;
    for block in plan(stages) {
        if let Block::Output(_) = block {
            fused[at] = Some("output");
            notes.push("output projection: the last $project runs in the output step".into());
        }
        if let Block::TopK(tk) = &block {
            fused[at..at + block.len()].fill(Some("top-k"));
            let limit = clamp_len(tk.limit);
            notes.push(match tk.skip {
                None => format!(
                    "top-k fusion: $sort+$limit run as a bounded heap (skip=0, limit={limit})"
                ),
                Some(s) => format!(
                    "top-k fusion: $sort+$skip+$limit run as a bounded heap (skip={}, limit={limit})",
                    clamp_len(s)
                ),
            });
            if tk.project.is_some() {
                let keys: Vec<String> = tk.keys.iter().map(|(p, _)| p.to_string()).collect();
                notes.push(format!(
                    "late projection: $project runs after the top-k, on at most {limit} rows; \
                     sort keys read before projection at {}",
                    keys.join(", ")
                ));
            }
        }
        at += block.len();
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

/// `EXPLAIN ANALYZE`: plans, then executes the pipeline with per-stage
/// tracing under [`Actuals::measure`], and returns the plan annotated
/// with actual cardinalities, wall times, counters, and the span ring's
/// recorded/dropped tallies.
pub fn explain_analyze(
    coll: &Collection,
    pipeline: &Pipeline,
) -> Result<PipelineAnalyze, QueryError> {
    let plan = explain(coll, pipeline);
    let mut stages = Vec::new();
    let actual =
        Actuals::measure(|ctx| Ok(execute(coll, pipeline, ctx, Some(&mut stages))?.len()))?;
    Ok(PipelineAnalyze {
        plan,
        stages,
        actual,
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
        let fused: Vec<_> = ex.stages.iter().map(|s| s.fused).collect();
        assert_eq!(fused, [None, Some("top-k"), Some("top-k"), Some("top-k")]);
        assert_eq!(ex.match_plan.as_ref().unwrap().route.name(), "scan");
        assert_eq!(ex.notes.len(), 1);
        let text = ex.render_text();
        assert!(text.contains("[fused: top-k]"), "{text}");
        assert!(text.contains("leading $match plan:"), "{text}");
    }

    #[test]
    fn explain_marks_a_late_projected_project_fused() {
        let c = coll();
        let p = Pipeline::parse_str(
            r#"[
                {"$match": {"age": {"$gte": 30}}},
                {"$project": {"name.first": 1, "age": 1, "h": "$hobbies"}},
                {"$sort": {"age": 0, "h": 1}},
                {"$limit": 2}
            ]"#,
        )
        .unwrap();
        let ex = explain(&c, &p);
        let fused: Vec<bool> = ex.stages.iter().map(|s| s.fused.is_some()).collect();
        assert_eq!(fused, [false, true, true, true]);
        assert_eq!(
            ex.notes,
            [
                "top-k fusion: $sort+$limit run as a bounded heap (skip=0, limit=2)",
                "late projection: $project runs after the top-k, on at most 2 rows; \
                 sort keys read before projection at age, hobbies",
            ]
        );
        assert!(ex
            .render_text()
            .contains("[1] $project: name.first, age, h = $hobbies  [fused: top-k]"));
        // A prefix clash keeps the `$project` before the block.
        let p = Pipeline::parse_str(
            r#"[{"$project": {"name": 1, "name.first": 1}}, {"$sort": {"name.first": 1}}, {"$limit": 2}]"#,
        )
        .unwrap();
        let ex = explain(&c, &p);
        let fused: Vec<bool> = ex.stages.iter().map(|s| s.fused.is_some()).collect();
        assert_eq!(fused, [false, true, true]);
        assert_eq!(ex.notes.len(), 1);
    }

    #[test]
    fn explain_marks_a_last_project_fused_into_the_output_step() {
        let c = coll();
        let p = Pipeline::find(
            mongofind::Filter::parse_str(r#"{"age": {"$gte": 30}}"#).unwrap(),
            mongofind::Projection::parse_str(r#"{"name.first": 1, "age": 1}"#).unwrap(),
        );
        let ex = explain(&c, &p);
        let fused: Vec<_> = ex.stages.iter().map(|s| s.fused).collect();
        assert_eq!(fused, [None, Some("output")]);
        assert_eq!(
            ex.notes,
            ["output projection: the last $project runs in the output step"]
        );
        assert!(ex
            .render_text()
            .contains("[1] $project: name.first, age  [fused: output]"));
    }

    #[test]
    fn analyze_cardinalities_match_reference_through_fusion() {
        let c = coll();
        for src in [
            r#"[{"$match": {"age": {"$gte": 30}}}, {"$sort": {"age": 0}}, {"$skip": 1}, {"$limit": 1}]"#,
            r#"[{"$unwind": "$hobbies"}, {"$group": {"_id": "$hobbies", "n": {"$sum": 1}}}]"#,
            r#"[{"$sort": {"age": 1}}, {"$limit": 2}, {"$project": {"age": 1}}]"#,
            r#"[{"$match": {"name.last": "Kim"}}, {"$count": "kims"}]"#,
            // Late projection: the `$project` entry is derived, too.
            r#"[{"$match": {"age": {"$gte": 30}}}, {"$project": {"age": 1, "h": "$hobbies"}}, {"$sort": {"age": 0}}, {"$skip": 1}, {"$limit": 1}]"#,
            r#"[{"$unwind": "$hobbies"}, {"$project": {"hobbies": 1}}, {"$sort": {"hobbies": 1}}, {"$limit": 9}]"#,
        ] {
            let p = Pipeline::parse_str(src).unwrap();
            let an = explain_analyze(&c, &p).unwrap();
            let expected = crate::reference::stage_cardinalities(&c.docs(), &p);
            let got: Vec<usize> = an.stages.iter().map(|s| s.rows_out).collect();
            assert_eq!(got, expected, "{src}");
            assert_eq!(an.actual.rows, *expected.last().unwrap(), "{src}");
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
    fn analyze_execution_audits_each_contained_panic_once() {
        use jguard::{Fault, QueryCtx, QueryError, INJECTED_PANIC_MSG};
        use jtrace::Counter;
        use std::sync::Arc;

        // `explain_analyze` executes through `execute` with a trace under
        // a context it builds; here the same context carries a fault.
        let c = coll();
        let p = Pipeline::parse_str(
            r#"[{"$unwind": "$hobbies"}, {"$group": {"_id": "$hobbies", "n": {"$sum": 1}}}, {"$sort": {"_id": 1}}, {"$limit": 2}]"#,
        )
        .unwrap();
        let mut panicked = 0;
        jguard::with_quiet_panics(|| {
            for k in 1..=8 {
                let sink = Actuals::recorder();
                let ctx = QueryCtx::new()
                    .with_metrics(Arc::clone(&sink))
                    .with_fault(Fault::PanicAtPoll(k));
                let mut stages = Vec::new();
                match execute(&c, &p, &ctx, Some(&mut stages)) {
                    Err(QueryError::WorkerPanicked { payload, .. }) => {
                        assert!(payload.contains(INJECTED_PANIC_MSG), "k={k}: {payload}");
                        assert_eq!(sink.panic_events().len(), 1, "k={k}");
                        assert_eq!(sink.get(Counter::WorkerPanics), 1, "k={k}");
                        panicked += 1;
                    }
                    Ok(out) => {
                        assert_eq!(out, crate::aggregate(&c, &p), "k={k}");
                        assert!(sink.panic_events().is_empty(), "k={k}");
                    }
                    Err(e) => panic!("k={k}: an injected panic surfaced as {e}"),
                }
            }
        });
        assert!(panicked >= 2, "the sweep hit only {panicked} live polls");
    }

    #[test]
    fn analyze_reports_span_honesty() {
        let c = coll();
        let p =
            Pipeline::parse_str(r#"[{"$match": {"age": {"$gte": 30}}}, {"$limit": 2}]"#).unwrap();
        let an = explain_analyze(&c, &p).unwrap();
        // Per-stage tracing opens a span per stage; one small pipeline
        // never overflows the analyze ring.
        assert!(an.actual.spans_recorded > 0);
        assert_eq!(an.actual.spans_dropped, 0);
        let text = an.render_text();
        assert!(text.contains("spans: recorded="), "{text}");
        let spans = an
            .to_json()
            .as_object()
            .and_then(|o| o.get("spans"))
            .and_then(Json::as_object)
            .cloned()
            .expect("spans object");
        assert_eq!(
            spans.get("recorded"),
            Some(&Json::Num(an.actual.spans_recorded))
        );
        assert_eq!(spans.get("dropped"), Some(&Json::Num(0)));
    }
}
