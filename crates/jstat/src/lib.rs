//! # jstat — static analysis for pipelines, queries and schemas
//!
//! The execution stack decides satisfiability (`jnl::sat`, Prop 2),
//! containment (`jnl::sat::containment`, Prop 5 via sat) and schema
//! satisfiability (`jsl::sat`, Props 7/10) — this crate points those
//! decision procedures *at the workload itself*, before anything runs.
//! [`Analyze::analyze`] walks a parsed [`jagg::Pipeline`] (optionally
//! against the collection's declared [`jsl::RecursiveJsl`] schema) and
//! emits structured [`Diagnostic`]s with stable lint codes:
//!
//! | code | name | meaning |
//! |------|------|---------|
//! | `J001` | `unsat-match` | the `$match` filter is unsatisfiable — the stage (and everything after it) produces nothing |
//! | `J002` | `tautological-match` | every document matches — the stage is a no-op |
//! | `J003` | `stage-shadowed` | an earlier `$match` already implies this one (containment) |
//! | `J004` | `dead-path` | a `$match`/`$project`/`$sort`/`$unwind` path is unsatisfiable under the declared schema |
//! | `J005` | `degenerate-stage` | `$limit 0`, a `$skip` past the row bound, or consecutive `$sort`s |
//!
//! ## The soundness contract
//!
//! Every diagnostic carrying a rewrite [`Action`] is **provably** dead,
//! never heuristic: each one is backed by an `Unsat` verdict from a
//! decision procedure whose negative answers are sound (witnessed sat
//! results on the other side are re-verified by evaluation), or by an
//! exact row-count argument (`$limit`/`$skip`). Where the bridge from
//! filter surface syntax to logic is approximate — [`mongofind::Filter::to_jnl`]
//! over-approximates ranges to path existence — the analyzer only uses
//! the direction that stays sound: over-approximations can prove a
//! filter unsatisfiable (`J001`) but are never trusted to prove it total
//! (`J002`) or implied (`J003`); those require [`mongofind::Filter::jnl_exact`].
//! Schema-conditional lints (`J004`) are sound *relative to the declared
//! schema*: attaching a schema to a collection is a promise that the
//! documents conform, not a check.
//!
//! Consequently [`Analyze::prune`] — which deletes provably-dead stages
//! and short-circuits unsatisfiable prefixes to the empty result — is a
//! semantics-preserving rewrite, pinned by the rewrite-equivalence
//! property suite (`tests/rewrite_equivalence.rs`): pruned and unpruned
//! pipelines are output-identical through both `jagg::exec` and the
//! `jagg::reference` oracle on generated pipelines × generated
//! collections.
//!
//! ```
//! use jagg::Pipeline;
//! use jstat::Analyze;
//!
//! let pipe = Pipeline::parse_str(
//!     r#"[{"$match": {"k": 1}}, {"$match": {"k": {"$exists": "true"}}}, {"$limit": 0}]"#,
//! )
//! .unwrap();
//! let report = pipe.analyze(None);
//! assert_eq!(report.diagnostics.len(), 2); // J003 (shadowed) + J005 ($limit 0)
//! let pruned = pipe.prune(&report);
//! assert_eq!(pruned.stages.len(), 2); // [$match {"k": 1}, $limit 0]
//! ```

use std::fmt;

use jagg::pipeline::{Pipeline, ProjectField, SortOrder, Stage, ValueExpr};
use jnl::ast::Unary;
use jnl::sat_deterministic;
use jsl::ast::Jsl;
use jsl::translate::jnl_to_jsl_cps;
use jsl::{sat_recursive, RecursiveJsl, SatConfig};
use mongofind::{Filter, Path};

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

/// Stable lint codes (see the crate docs for the full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// `J001` — the `$match` filter is unsatisfiable.
    UnsatMatch,
    /// `J002` — every document matches the filter.
    TautologicalMatch,
    /// `J003` — an earlier `$match` already implies this one.
    StageShadowed,
    /// `J004` — a path is unsatisfiable under the declared schema.
    DeadPath,
    /// `J005` — a row-count degenerate stage.
    DegenerateStage,
}

impl LintCode {
    /// The stable code string (`"J001"` …).
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UnsatMatch => "J001",
            LintCode::TautologicalMatch => "J002",
            LintCode::StageShadowed => "J003",
            LintCode::DeadPath => "J004",
            LintCode::DegenerateStage => "J005",
        }
    }

    /// The human-readable lint name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::UnsatMatch => "unsat-match",
            LintCode::TautologicalMatch => "tautological-match",
            LintCode::StageShadowed => "stage-shadowed",
            LintCode::DeadPath => "dead-path",
            LintCode::DegenerateStage => "degenerate-stage",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// What [`Analyze::prune`] is entitled to do about a diagnostic.
///
/// Every non-[`Action::Advisory`] variant is backed by a proof (see the
/// crate-level soundness contract) that applying it preserves the
/// pipeline's output exactly.
#[derive(Debug, Clone)]
pub enum Action {
    /// The pipeline's output is provably empty from this stage on:
    /// truncate here and short-circuit to the empty result.
    EmptyResult,
    /// The stage is provably a no-op: delete it.
    DeleteStage,
    /// Replace the stage with a smaller equivalent (e.g. a `$sort` or
    /// `$project` with its dead entries removed).
    Replace(Stage),
    /// Informational only — nothing is provably dead.
    Advisory,
}

/// One finding: a lint code, the stage it anchors to, a message, and the
/// rewrite it licenses.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Index of the stage in [`Pipeline::stages`] (0 for whole-query or
    /// whole-schema diagnostics).
    pub stage: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The licensed rewrite.
    pub action: Action,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rewrite = match &self.action {
            Action::EmptyResult => "empty result",
            Action::DeleteStage => "delete stage",
            Action::Replace(_) => "shrink stage",
            Action::Advisory => "advisory",
        };
        write!(
            f,
            "{} (stage {}): {} [{}]",
            self.code, self.stage, self.message, rewrite
        )
    }
}

/// The result of an analysis: every diagnostic, in stage order.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The findings, ordered by stage index.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any diagnostic with this code fired.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Whether any diagnostic licenses a rewrite (non-advisory).
    pub fn has_rewrite(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| !matches!(d.action, Action::Advisory))
    }

    fn push(&mut self, code: LintCode, stage: usize, message: impl Into<String>, action: Action) {
        self.diagnostics.push(Diagnostic {
            code,
            stage,
            message: message.into(),
            action,
        });
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "clean: no findings");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Attaches a report's findings to an `EXPLAIN` plan as notes — the
/// analyzer sits *above* the execution crate in the dependency order, so
/// the annotation flows this way (the plan cannot pull it in). Each
/// diagnostic renders as its [`Diagnostic`] `Display` line prefixed with
/// `jstat:`, so a plan reader sees the licensed prunes next to the stages
/// they anchor to.
pub fn annotate_explain(plan: &mut jagg::PipelineExplain, report: &Report) {
    for d in &report.diagnostics {
        plan.add_note(format!("jstat: {d}"));
    }
}

// ---------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------

/// Static analysis over [`jagg::Pipeline`] — an extension trait because
/// the execution crate cannot depend on its analyzer.
pub trait Analyze {
    /// Lints the pipeline, optionally against the collection's declared
    /// schema (enables the `J004` dead-path checks).
    fn analyze(&self, schema: Option<&RecursiveJsl>) -> Report;

    /// Applies the rewrites a report licenses: provably-dead stages are
    /// deleted or shrunk, and an [`Action::EmptyResult`] truncates the
    /// pipeline to its live prefix followed by `$limit 0`. The report
    /// must come from [`Analyze::analyze`] on this same pipeline.
    fn prune(&self, report: &Report) -> Pipeline;
}

/// A dotted path whose JNL compilation ([`Path::to_binary`]) is *exact*:
/// no numeric segments, so [`Path::resolve`] succeeds iff the existence
/// formula `[α]` holds. (Numeric segments index arrays in JNL but also
/// match object keys in `resolve` — the same gate `Filter::jnl_exact`
/// applies.)
fn path_exact(p: &Path) -> bool {
    p.0.iter().all(|seg| seg.parse::<u64>().is_err())
}

/// Whether `schema ∧ φ` is *provably* unsatisfiable: translate the JNL
/// query into JSL (Theorem 2) and conjoin it with the schema base under
/// the schema's own definitions. Translation failures and `Unknown`
/// verdicts (budget or height caps) report `false` — no lint.
fn dead_under_schema(schema: &RecursiveJsl, phi: &Unary) -> bool {
    let Ok(translated) = jnl_to_jsl_cps(phi) else {
        return false;
    };
    let combined = RecursiveJsl {
        defs: schema.defs.clone(),
        base: Jsl::and(vec![schema.base.clone(), translated]),
    };
    sat_recursive(&combined, SatConfig::default()).is_unsat()
}

/// Whether the path provably never exists in any schema-conforming
/// document.
fn path_dead(schema: &RecursiveJsl, p: &Path) -> bool {
    path_exact(p) && dead_under_schema(schema, &Unary::exists(p.to_binary()))
}

/// Walk state threaded through the stage scan.
struct Scan<'p> {
    /// Rows entering the current stage are still unmodified documents of
    /// the original collection — the precondition for every
    /// schema-conditional (`J004`) lint. Cleared by any stage that
    /// reshapes documents (`$project`, `$unwind`, `$group`, `$count`).
    originals: bool,
    /// `(stage index, to_jnl)` of every `$match` whose formula still
    /// holds of all surviving rows. The `to_jnl` over-approximation is
    /// sound on this side: passing a filter implies its formula. Cleared
    /// by reshaping stages.
    prior: Vec<(usize, Unary)>,
    /// A sound upper bound on the number of rows entering the current
    /// stage, when one is known (`$limit` establishes it; `$unwind`
    /// destroys it).
    row_bound: Option<u64>,
    /// The immediately preceding stage, if it was a `$sort` (index and
    /// key list) — the `J005` consecutive-sort window.
    last_sort: Option<(usize, &'p [(Path, SortOrder)])>,
}

impl Analyze for Pipeline {
    fn analyze(&self, schema: Option<&RecursiveJsl>) -> Report {
        let mut report = Report::default();
        let mut scan = Scan {
            originals: true,
            prior: Vec::new(),
            row_bound: None,
            last_sort: None,
        };
        for (i, stage) in self.stages.iter().enumerate() {
            analyze_stage(&mut report, &mut scan, schema, i, stage);
        }
        report
    }

    fn prune(&self, report: &Report) -> Pipeline {
        let mut stages: Vec<Stage> = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let mut delete = false;
            let mut replacement: Option<&Stage> = None;
            for d in report.diagnostics.iter().filter(|d| d.stage == i) {
                match &d.action {
                    Action::EmptyResult => {
                        // Everything from this stage on is provably
                        // empty; `$limit 0` short-circuits both
                        // executors without changing the (empty) output.
                        stages.push(Stage::Limit(0));
                        return Pipeline { stages };
                    }
                    Action::DeleteStage => delete = true,
                    Action::Replace(s) => replacement = Some(s),
                    Action::Advisory => {}
                }
            }
            if delete {
                continue;
            }
            match replacement {
                Some(s) => stages.push(s.clone()),
                None => stages.push(stage.clone()),
            }
        }
        Pipeline { stages }
    }
}

fn analyze_stage<'p>(
    report: &mut Report,
    scan: &mut Scan<'p>,
    schema: Option<&RecursiveJsl>,
    i: usize,
    stage: &'p Stage,
) {
    let sort_window = scan.last_sort.take();
    match stage {
        Stage::Match(f) => analyze_match(report, scan, schema, i, f),
        Stage::Project(spec) => {
            if let Some(schema) = schema.filter(|_| scan.originals) {
                analyze_project(report, schema, i, spec);
            }
            scan.originals = false;
            scan.prior.clear();
        }
        Stage::Unwind(p) => {
            if let Some(schema) = schema.filter(|_| scan.originals) {
                if path_dead(schema, p) {
                    report.push(
                        LintCode::DeadPath,
                        i,
                        format!(
                            "$unwind path \"{p}\" never exists under the declared schema; \
                             every document unwinds to nothing"
                        ),
                        Action::EmptyResult,
                    );
                }
            }
            scan.originals = false;
            scan.prior.clear();
            scan.row_bound = None;
        }
        Stage::Group(_) => {
            // n rows form at most n groups: the row bound survives.
            scan.originals = false;
            scan.prior.clear();
        }
        Stage::Sort(spec) => {
            analyze_sort(report, scan, schema, i, spec, sort_window);
            scan.last_sort = Some((i, spec));
        }
        Stage::Skip(n) => {
            if let Some(bound) = scan.row_bound {
                if *n >= bound {
                    report.push(
                        LintCode::DegenerateStage,
                        i,
                        format!("$skip {n} discards all rows (at most {bound} reach it)"),
                        Action::EmptyResult,
                    );
                }
            }
            scan.row_bound = scan.row_bound.map(|b| b.saturating_sub(*n));
        }
        Stage::Limit(n) => {
            if *n == 0 {
                report.push(
                    LintCode::DegenerateStage,
                    i,
                    "$limit 0 discards all rows".to_owned(),
                    Action::EmptyResult,
                );
            }
            scan.row_bound = Some(scan.row_bound.map_or(*n, |b| b.min(*n)));
        }
        Stage::Count(_) => {
            scan.originals = false;
            scan.prior.clear();
            scan.row_bound = Some(1);
        }
    }
}

fn analyze_match(
    report: &mut Report,
    scan: &mut Scan,
    schema: Option<&RecursiveJsl>,
    i: usize,
    f: &Filter,
) {
    let phi = f.to_jnl();
    let exact = f.jnl_exact();

    // J001 — sound even for approximate filters: matching implies the
    // formula, so an unsatisfiable formula means nothing matches.
    if sat_deterministic(&phi).is_unsat() {
        report.push(
            LintCode::UnsatMatch,
            i,
            "no document can satisfy this filter".to_owned(),
            Action::EmptyResult,
        );
        scan.prior.push((i, phi));
        return;
    }

    // J004 — dead under the declared schema. Needs exactness (the
    // formula must *under*-approximate too) and unmodified documents.
    if exact && scan.originals {
        if let Some(schema) = schema {
            if dead_under_schema(schema, &phi) {
                report.push(
                    LintCode::DeadPath,
                    i,
                    "no document satisfying the declared schema can match this filter".to_owned(),
                    Action::EmptyResult,
                );
                scan.prior.push((i, phi));
                return;
            }
        }
    }

    if !exact {
        scan.prior.push((i, phi));
        return;
    }
    // J002 and J003 both query ¬φ. It is built once, around φ itself,
    // and the queries move their parts in and back out, so no formula
    // is copied.
    let mut not_phi = Unary::Not(Box::new(phi));

    // J002 — tautological: ¬φ unsatisfiable means every document
    // matches. Needs exactness (φ true must imply the filter matches).
    if sat_deterministic(&not_phi).is_unsat() {
        report.push(
            LintCode::TautologicalMatch,
            i,
            "every document matches this filter; the stage is a no-op".to_owned(),
            Action::DeleteStage,
        );
        scan.prior.push((i, negated(not_phi)));
        return;
    }

    // J003 — shadowed by an earlier $match: rows reaching this stage
    // already satisfy some earlier formula ψ (over-approximation is
    // sound on that side); if ψ ∧ ¬φ is unsatisfiable (ψ ⊑ φ) and φ is
    // exact, every row matches.
    for k in 0..scan.prior.len() {
        let psi = std::mem::replace(&mut scan.prior[k].1, Unary::True);
        let query = Unary::And(vec![psi, not_phi]);
        let shadowed = sat_deterministic(&query).is_unsat();
        let Unary::And(mut parts) = query else {
            unreachable!("built as a conjunction")
        };
        (not_phi, scan.prior[k].1) = (parts.pop().expect("¬φ"), parts.pop().expect("ψ"));
        if shadowed {
            report.push(
                LintCode::StageShadowed,
                i,
                format!("already implied by the $match at stage {}", scan.prior[k].0),
                Action::DeleteStage,
            );
            break;
        }
    }
    scan.prior.push((i, negated(not_phi)));
}

/// φ out of the `¬φ` that [`analyze_match`] built around it.
fn negated(not_phi: Unary) -> Unary {
    match not_phi {
        Unary::Not(phi) => *phi,
        _ => unreachable!("built as ¬φ"),
    }
}

fn analyze_project(
    report: &mut Report,
    schema: &RecursiveJsl,
    i: usize,
    spec: &[(Path, ProjectField)],
) {
    // An entry whose *source* path provably never exists contributes no
    // output field on any schema-conforming document — drop it.
    let mut dead: Vec<String> = Vec::new();
    let mut kept: Vec<(Path, ProjectField)> = Vec::new();
    for (path, field) in spec {
        let source = match field {
            ProjectField::Include => Some(path),
            ProjectField::Expr(ValueExpr::Field(src)) => Some(src),
            ProjectField::Expr(ValueExpr::Const(_)) => None,
        };
        match source {
            Some(src) if path_dead(schema, src) => dead.push(src.to_string()),
            _ => kept.push((path.clone(), field.clone())),
        }
    }
    if !dead.is_empty() {
        report.push(
            LintCode::DeadPath,
            i,
            format!(
                "$project source path(s) {} never exist under the declared schema",
                dead.join(", ")
            ),
            Action::Replace(Stage::Project(kept)),
        );
    }
}

fn analyze_sort(
    report: &mut Report,
    scan: &mut Scan,
    schema: Option<&RecursiveJsl>,
    i: usize,
    spec: &[(Path, SortOrder)],
    sort_window: Option<(usize, &[(Path, SortOrder)])>,
) {
    // J005 — consecutive $sorts. If the earlier key list is a prefix of
    // this one, rows tied on all our keys are tied on all of the earlier
    // sort's keys too, so (both sorts being stable) the earlier sort
    // cannot influence the final order: delete it. Otherwise the earlier
    // sort only rearranges our ties — worth a note, not provably dead.
    if let Some((j, prev)) = sort_window {
        let is_prefix = prev.len() <= spec.len()
            && prev
                .iter()
                .zip(spec.iter())
                .all(|((pp, po), (sp, so))| pp == sp && po == so);
        if is_prefix {
            report.push(
                LintCode::DegenerateStage,
                j,
                format!("$sort immediately overwritten by the $sort at stage {i}, whose key list extends it"),
                Action::DeleteStage,
            );
        } else {
            report.push(
                LintCode::DegenerateStage,
                j,
                format!("$sort only affects tie-breaking of the $sort at stage {i}"),
                Action::Advisory,
            );
        }
    }

    // J004 — sort keys that never exist. Missing keys compare equal, so
    // a provably-absent key never separates two rows: drop it; if every
    // key is dead the stage is an identity (stable sort, all tied).
    if let Some(schema) = schema.filter(|_| scan.originals) {
        let kept: Vec<(Path, SortOrder)> = spec
            .iter()
            .filter(|(p, _)| !path_dead(schema, p))
            .cloned()
            .collect();
        if kept.len() < spec.len() {
            let dead: Vec<String> = spec
                .iter()
                .filter(|(p, _)| kept.iter().all(|(k, _)| k != p))
                .map(|(p, _)| p.to_string())
                .collect();
            let (message, action) = if kept.is_empty() {
                (
                    format!(
                        "every $sort key ({}) is absent under the declared schema; \
                         the stable sort is an identity",
                        dead.join(", ")
                    ),
                    Action::DeleteStage,
                )
            } else {
                (
                    format!(
                        "$sort key(s) {} never exist under the declared schema",
                        dead.join(", ")
                    ),
                    Action::Replace(Stage::Sort(kept)),
                )
            };
            report.push(LintCode::DeadPath, i, message, action);
        }
    }
}

// ---------------------------------------------------------------------
// Query- and schema-level entry points
// ---------------------------------------------------------------------

/// Lints a raw JNL query: `J001` when unsatisfiable, `J002` when valid
/// (its negation is unsatisfiable). Diagnostics anchor to stage 0.
pub fn analyze_query(phi: &Unary) -> Report {
    let mut report = Report::default();
    if sat_deterministic(phi).is_unsat() {
        report.push(
            LintCode::UnsatMatch,
            0,
            "query is unsatisfiable: it selects nothing on every document".to_owned(),
            Action::EmptyResult,
        );
    } else if sat_deterministic(&Unary::not(phi.clone())).is_unsat() {
        report.push(
            LintCode::TautologicalMatch,
            0,
            "query is valid: it holds on every document".to_owned(),
            Action::Advisory,
        );
    }
    report
}

/// Lints a JSL schema: ill-formedness and unsatisfiability (a schema no
/// document can conform to makes every query against the collection
/// dead). Diagnostics anchor to stage 0 and are advisory — a schema is
/// not a pipeline stage.
pub fn analyze_schema(delta: &RecursiveJsl) -> Report {
    let mut report = Report::default();
    if let Err(e) = delta.well_formed() {
        report.push(
            LintCode::DeadPath,
            0,
            format!("schema is ill-formed: {e}"),
            Action::Advisory,
        );
        return report;
    }
    if sat_recursive(delta, SatConfig::default()).is_unsat() {
        report.push(
            LintCode::DeadPath,
            0,
            "schema is unsatisfiable: no document conforms, so every query against it is dead"
                .to_owned(),
            Action::Advisory,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnl::ast::Binary;
    use jsondata::{parse, Json};

    fn pipe(src: &str) -> Pipeline {
        Pipeline::parse_str(src).expect("test pipeline parses")
    }

    fn docs(src: &str) -> Vec<Json> {
        parse(src).unwrap().as_array().unwrap().to_vec()
    }

    /// A schema stating "the key `q` never exists", built through the
    /// same Theorem 2 translation the analyzer uses.
    fn no_key_q_schema() -> RecursiveJsl {
        let phi = Unary::not(Unary::exists(Binary::key("q")));
        RecursiveJsl::plain(jnl_to_jsl_cps(&phi).expect("translates"))
    }

    fn assert_equiv(p: &Pipeline, schema: Option<&RecursiveJsl>, collection: &str) {
        let report = p.analyze(schema);
        let pruned = p.prune(&report);
        let rows = docs(collection);
        assert_eq!(
            jagg::reference::aggregate(&rows, p),
            jagg::reference::aggregate(&rows, &pruned),
            "prune changed the output"
        );
    }

    #[test]
    fn annotate_explain_attaches_findings_as_notes() {
        let p = pipe(r#"[{"$match": {"$and": [{"k": 1}, {"k": 2}]}}, {"$sort": {"k": 1}}]"#);
        let coll = mongofind::Collection::from_array(&parse(r#"[{"k": 1}]"#).unwrap()).unwrap();
        let mut plan = jagg::explain(&coll, &p);
        let report = p.analyze(None);
        assert!(!report.is_clean());
        annotate_explain(&mut plan, &report);
        assert_eq!(plan.notes.len(), report.diagnostics.len());
        let text = plan.render_text();
        assert!(text.contains("note: jstat: J001"), "{text}");
    }

    #[test]
    fn j001_unsat_match_short_circuits() {
        let p = pipe(r#"[{"$match": {"$and": [{"k": 1}, {"k": 2}]}}, {"$sort": {"k": 1}}]"#);
        let report = p.analyze(None);
        assert!(report.has(LintCode::UnsatMatch), "{report}");
        let pruned = p.prune(&report);
        assert_eq!(pruned.stages.len(), 1);
        assert!(matches!(pruned.stages[0], Stage::Limit(0)));
        assert_equiv(&p, None, r#"[{"k": 1}, {"k": 2}, {"x": 9}]"#);
    }

    #[test]
    fn j002_tautological_match_deleted() {
        let p = pipe(
            r#"[{"$match": {"$or": [{"k": {"$exists": "true"}}, {"k": {"$exists": "false"}}]}}]"#,
        );
        let report = p.analyze(None);
        assert!(report.has(LintCode::TautologicalMatch), "{report}");
        assert_eq!(p.prune(&report).stages.len(), 0);
        assert_equiv(&p, None, r#"[{"k": 1}, {"x": 2}]"#);
    }

    #[test]
    fn j003_shadowed_match_deleted() {
        let p = pipe(r#"[{"$match": {"k": 5}}, {"$match": {"k": {"$exists": "true"}}}]"#);
        let report = p.analyze(None);
        assert!(report.has(LintCode::StageShadowed), "{report}");
        assert_eq!(report.diagnostics[0].stage, 1);
        assert_eq!(p.prune(&report).stages.len(), 1);
        assert_equiv(&p, None, r#"[{"k": 5}, {"k": 6}, {"x": 1}]"#);
    }

    #[test]
    fn j003_not_fired_across_reshaping_stages() {
        // $project reshapes documents, so the earlier $match's formula no
        // longer holds of the rows reaching the later one.
        let p = pipe(
            r#"[{"$match": {"k": 5}}, {"$project": {"x": "$x"}},
                {"$match": {"k": {"$exists": "true"}}}]"#,
        );
        assert!(!p.analyze(None).has(LintCode::StageShadowed));
    }

    #[test]
    fn j003_approximate_earlier_match_still_shadows() {
        // {"k": {"$gte": 3}} over-approximates to [@k] — which is sound
        // as the *earlier* side of the containment.
        let p = pipe(r#"[{"$match": {"k": {"$gte": 3}}}, {"$match": {"k": {"$exists": "true"}}}]"#);
        let report = p.analyze(None);
        assert!(report.has(LintCode::StageShadowed), "{report}");
        assert_equiv(&p, None, r#"[{"k": 5}, {"k": 1}, {"x": 1}]"#);
    }

    #[test]
    fn j003_needs_exact_later_match() {
        // The later filter is approximate ($gte): its formula holding
        // does not imply it matches, so no deletion is licensed.
        let p = pipe(r#"[{"$match": {"k": 5}}, {"$match": {"k": {"$gte": 3}}}]"#);
        assert!(!p.analyze(None).has(LintCode::StageShadowed));
    }

    #[test]
    fn j004_match_dead_under_schema() {
        let schema = no_key_q_schema();
        let p = pipe(r#"[{"$match": {"q": 1}}, {"$count": "n"}]"#);
        let report = p.analyze(Some(&schema));
        assert!(report.has(LintCode::DeadPath), "{report}");
        let pruned = p.prune(&report);
        assert!(matches!(pruned.stages[0], Stage::Limit(0)));
        // Schema-conforming collection: no "q" keys anywhere.
        assert_equiv(&p, Some(&schema), r#"[{"k": 1}, {"x": 2}]"#);
    }

    #[test]
    fn j004_needs_original_documents() {
        // After $project the rows are reshaped; the schema no longer
        // describes them, so no J004 may fire on the later $match.
        let schema = no_key_q_schema();
        let p = pipe(r#"[{"$project": {"q": {"$literal": 1}}}, {"$match": {"q": 1}}]"#);
        let report = p.analyze(Some(&schema));
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == LintCode::DeadPath && d.stage == 1),
            "{report}"
        );
        assert_equiv(&p, Some(&schema), r#"[{"k": 1}, {"x": 2}]"#);
    }

    #[test]
    fn j004_project_and_sort_entries_shrink() {
        let schema = no_key_q_schema();
        let p = pipe(r#"[{"$sort": {"q": 1, "k": 1}}, {"$project": {"k": 1, "q": 1}}]"#);
        let report = p.analyze(Some(&schema));
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::DeadPath)
            .collect();
        assert_eq!(dead.len(), 2, "{report}");
        let pruned = p.prune(&report);
        match &pruned.stages[0] {
            Stage::Sort(keys) => assert_eq!(keys.len(), 1),
            other => panic!("expected shrunk $sort, got {other:?}"),
        }
        match &pruned.stages[1] {
            Stage::Project(spec) => assert_eq!(spec.len(), 1),
            other => panic!("expected shrunk $project, got {other:?}"),
        }
        assert_equiv(&p, Some(&schema), r#"[{"k": 3}, {"k": 1}, {"x": 0}]"#);
    }

    #[test]
    fn j004_dead_unwind_empties_the_pipeline() {
        let schema = no_key_q_schema();
        let p = pipe(r#"[{"$unwind": "$q"}, {"$count": "n"}]"#);
        let report = p.analyze(Some(&schema));
        assert!(report.has(LintCode::DeadPath), "{report}");
        assert!(matches!(p.prune(&report).stages[0], Stage::Limit(0)));
        assert_equiv(&p, Some(&schema), r#"[{"k": [1, 2]}, {"x": 2}]"#);
    }

    #[test]
    fn j005_limit_zero_and_skip_past_limit() {
        let p = pipe(r#"[{"$limit": 0}]"#);
        let report = p.analyze(None);
        assert!(report.has(LintCode::DegenerateStage));
        assert_equiv(&p, None, r#"[{"k": 1}]"#);

        let p = pipe(r#"[{"$limit": 3}, {"$sort": {"k": 1}}, {"$skip": 3}]"#);
        let report = p.analyze(None);
        assert!(report.has(LintCode::DegenerateStage), "{report}");
        assert!(matches!(
            p.prune(&report).stages.last(),
            Some(Stage::Limit(0))
        ));
        assert_equiv(&p, None, r#"[{"k": 2}, {"k": 1}, {"k": 3}, {"k": 0}]"#);

        // $skip strictly under the bound: no lint.
        let p = pipe(r#"[{"$limit": 3}, {"$skip": 2}]"#);
        assert!(p.analyze(None).is_clean());
    }

    #[test]
    fn j005_consecutive_sorts() {
        // Prefix: the earlier sort is provably dead.
        let p = pipe(r#"[{"$sort": {"k": 1}}, {"$sort": {"k": 1, "x": 0}}]"#);
        let report = p.analyze(None);
        assert!(report.has(LintCode::DegenerateStage), "{report}");
        assert!(report.has_rewrite());
        assert_eq!(p.prune(&report).stages.len(), 1);
        assert_equiv(
            &p,
            None,
            r#"[{"k": 2, "x": 1}, {"k": 1, "x": 2}, {"k": 1, "x": 3}, {"x": 4}]"#,
        );

        // Not a prefix: advisory only, nothing pruned.
        let p = pipe(r#"[{"$sort": {"x": 1}}, {"$sort": {"k": 1}}]"#);
        let report = p.analyze(None);
        assert!(report.has(LintCode::DegenerateStage));
        assert!(!report.has_rewrite());
        assert_eq!(p.prune(&report).stages.len(), 2);
    }

    #[test]
    fn row_bound_survives_group_but_not_unwind() {
        // $group keeps the bound: 2 rows form at most 2 groups.
        let p = pipe(r#"[{"$limit": 2}, {"$group": {"_id": "$k"}}, {"$skip": 2}]"#);
        assert!(p.analyze(None).has(LintCode::DegenerateStage));

        // $unwind destroys it: no lint may fire.
        let p = pipe(r#"[{"$limit": 2}, {"$unwind": "$k"}, {"$skip": 2}]"#);
        assert!(p.analyze(None).is_clean());
    }

    #[test]
    fn clean_pipeline_is_untouched() {
        let p =
            pipe(r#"[{"$match": {"k": {"$exists": "true"}}}, {"$sort": {"k": 0}}, {"$limit": 2}]"#);
        let report = p.analyze(None);
        assert!(report.is_clean(), "{report}");
        let pruned = p.prune(&report);
        assert_eq!(pruned.stages.len(), p.stages.len());
    }

    #[test]
    fn query_level_entry_points() {
        let phi = Unary::and(vec![
            Unary::eq_doc(Binary::key("k"), Json::Num(1)),
            Unary::eq_doc(Binary::key("k"), Json::Num(2)),
        ]);
        assert!(analyze_query(&phi).has(LintCode::UnsatMatch));

        let valid = Unary::or(vec![
            Unary::exists(Binary::key("k")),
            Unary::not(Unary::exists(Binary::key("k"))),
        ]);
        assert!(analyze_query(&valid).has(LintCode::TautologicalMatch));

        assert!(analyze_query(&Unary::exists(Binary::key("k"))).is_clean());
    }

    #[test]
    fn schema_level_entry_points() {
        // Satisfiable schema: clean.
        assert!(analyze_schema(&no_key_q_schema()).is_clean());

        // Unsatisfiable schema: [@q] ∧ ¬[@q].
        let phi = Unary::and(vec![
            Unary::exists(Binary::key("q")),
            Unary::not(Unary::exists(Binary::key("q"))),
        ]);
        let delta = RecursiveJsl::plain(jnl_to_jsl_cps(&phi).unwrap());
        assert!(analyze_schema(&delta).has(LintCode::DeadPath));

        // Ill-formed: free variable.
        let delta = RecursiveJsl::plain(Jsl::Var("loop".to_owned()));
        assert!(analyze_schema(&delta).has(LintCode::DeadPath));
    }
}
