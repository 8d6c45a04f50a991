//! The pipeline planner: the one function that decides which stages run
//! fused. The executor ([`crate::exec`]) runs the blocks [`plan`] returns
//! and `EXPLAIN` ([`crate::explain`]) renders them, so a plan cannot
//! claim a fusion that does not run.

use mongofind::Path;

use crate::pipeline::{ProjectField, SortOrder, Stage, ValueExpr};

/// A run of consecutive pipeline stages that the executor answers as one
/// step.
pub(crate) enum Block<'p> {
    /// One stage, run as written.
    Stage(&'p Stage),
    /// `[$project] $sort [$skip] $limit`, answered by a bounded heap.
    TopK(TopK<'p>),
}

/// A top-k block: `$sort` whose output is immediately cut to
/// `skip + limit` rows, optionally with the `$project` right before it
/// taken in (late projection).
pub(crate) struct TopK<'p> {
    /// The absorbed `$project`'s spec: it runs on the `limit` rows the
    /// heap keeps, not on every input row.
    pub project: Option<&'p [(Path, ProjectField)]>,
    /// The sort keys, as paths to resolve on the rows entering the
    /// block: the `$sort`'s own paths, or — under late projection — the
    /// input paths the projected values come from.
    pub keys: Vec<(&'p Path, SortOrder)>,
    /// The `$skip` operand, when the block has a `$skip` stage.
    pub skip: Option<u64>,
    /// The `$limit` operand.
    pub limit: u64,
}

impl Block<'_> {
    /// How many written stages the block covers.
    pub(crate) fn len(&self) -> usize {
        match self {
            Block::Stage(_) => 1,
            Block::TopK(tk) => {
                2 + usize::from(tk.project.is_some()) + usize::from(tk.skip.is_some())
            }
        }
    }
}

/// Splits `stages` into the blocks the executor runs, left to right.
///
/// **Top-k.** `$sort` followed by `$limit k`, or by `$skip s` and
/// `$limit k`, is one block: a bounded heap keeps the `s + k` best rows
/// and the full sort never happens.
///
/// **Late projection.** A `$project` right before such a `$sort` joins
/// the block: the heap runs on the pre-projection rows and only the
/// `limit` survivors are projected. That is valid when every sort key
/// `p` meets both conditions:
///
/// 1. `p` is an output path of the `$project` with `p: 1` or a field
///    reference `p: "$q"`. The projected row's value at `p` is then the
///    input row's value at `p` (resp. `q`), and the key resolves there.
/// 2. No other output path of the `$project` is a proper prefix or a
///    proper extension of `p`. Otherwise the projection's first-wins
///    merge of nested outputs (`mongofind::insert_path`) can change the
///    value found at `p`.
///
/// A `$project` that fails either condition runs unfused, before the
/// block. This is a syntactic rewrite; [`crate::reference`] keeps running
/// the pipeline as written, and the differential suites compare the two.
pub(crate) fn plan(stages: &[Stage]) -> Vec<Block<'_>> {
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < stages.len() {
        let block = top_k_at(stages, i).unwrap_or(Block::Stage(&stages[i]));
        i += block.len();
        blocks.push(block);
    }
    blocks
}

/// The top-k block starting at stage `i`, if there is one.
fn top_k_at(stages: &[Stage], i: usize) -> Option<Block<'_>> {
    let (project, at) = match &stages[i] {
        Stage::Project(spec) => (Some(spec.as_slice()), i + 1),
        _ => (None, i),
    };
    let Some(Stage::Sort(sort)) = stages.get(at) else {
        return None;
    };
    let (skip, limit) = match (stages.get(at + 1), stages.get(at + 2)) {
        (Some(Stage::Limit(k)), _) => (None, *k),
        (Some(Stage::Skip(s)), Some(Stage::Limit(k))) => (Some(*s), *k),
        _ => return None,
    };
    let keys = match project {
        None => sort.iter().map(|(p, order)| (p, *order)).collect(),
        Some(spec) => late_keys(spec, sort)?,
    };
    Some(Block::TopK(TopK {
        project,
        keys,
        skip,
        limit,
    }))
}

/// The input paths the sort keys read when the `$project` runs after the
/// heap, or `None` when some key fails the conditions of [`plan`].
fn late_keys<'p>(
    spec: &'p [(Path, ProjectField)],
    sort: &'p [(Path, SortOrder)],
) -> Option<Vec<(&'p Path, SortOrder)>> {
    sort.iter()
        .map(|(p, order)| {
            let mut source = None;
            for (out, field) in spec {
                if out == p {
                    source = match field {
                        ProjectField::Include => Some(out),
                        ProjectField::Expr(ValueExpr::Field(q)) => Some(q),
                        ProjectField::Expr(ValueExpr::Const(_)) => return None,
                    };
                } else if out.0.starts_with(&p.0) || p.0.starts_with(&out.0) {
                    return None;
                }
            }
            source.map(|q| (q, *order))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;

    /// The late-projected sort-key paths of the pipeline's first block,
    /// or `None` when its `$project` runs unfused.
    fn late(src: &str) -> Option<Vec<String>> {
        let p = Pipeline::parse_str(src).unwrap();
        match plan(&p.stages).into_iter().next() {
            Some(Block::TopK(TopK {
                project: Some(_),
                keys,
                ..
            })) => Some(keys.iter().map(|(q, _)| q.to_string()).collect()),
            _ => None,
        }
    }

    #[test]
    fn late_projection_takes_includes_and_field_references() {
        assert_eq!(
            late(
                r#"[{"$project": {"name.first": 1, "age": 1, "nh": "$hobbies"}}, {"$sort": {"age": 0, "name.first": 1}}, {"$skip": 1}, {"$limit": 2}]"#
            ),
            Some(vec!["age".into(), "name.first".into()])
        );
        assert_eq!(
            late(
                r#"[{"$project": {"h": "$hobbies", "a": 1}}, {"$sort": {"h": 1}}, {"$limit": 2}]"#
            ),
            Some(vec!["hobbies".into()])
        );
    }

    #[test]
    fn late_projection_refuses_every_other_shape() {
        for src in [
            // A prefix and an extension of the key are both output paths.
            r#"[{"$project": {"name": 1, "name.first": 1}}, {"$sort": {"name.first": 1}}, {"$limit": 2}]"#,
            r#"[{"$project": {"name": 1, "name.first": 1}}, {"$sort": {"name": 1}}, {"$limit": 2}]"#,
            // The key is not an output path, or is a constant.
            r#"[{"$project": {"age": 1}}, {"$sort": {"name.first": 1}}, {"$limit": 2}]"#,
            r#"[{"$project": {"k": {"$literal": 3}}}, {"$sort": {"k": 1}}, {"$limit": 2}]"#,
            // No cut after the sort, or a stage in between.
            r#"[{"$project": {"age": 1}}, {"$sort": {"age": 1}}]"#,
            r#"[{"$project": {"age": 1}}, {"$sort": {"age": 1}}, {"$skip": 2}]"#,
            r#"[{"$project": {"age": 1}}, {"$match": {"age": 1}}, {"$sort": {"age": 1}}, {"$limit": 2}]"#,
        ] {
            assert_eq!(late(src), None, "{src}");
        }
    }

    #[test]
    fn blocks_cover_every_stage_once() {
        let p = Pipeline::parse_str(
            r#"[{"$project": {"age": 1, "name": 1, "name.first": 1}}, {"$sort": {"age": 1}}, {"$skip": 1}, {"$limit": 2},
                {"$project": {"age": 1}}, {"$project": {"age": 1}}, {"$sort": {"age": 1}}, {"$limit": 1},
                {"$sort": {"age": 1}}]"#,
        )
        .unwrap();
        let lens: Vec<usize> = plan(&p.stages).iter().map(Block::len).collect();
        // The first $project is eligible ("age" has no prefix clash); the
        // fifth stage runs alone, the sixth joins the next top-k.
        assert_eq!(lens, [4, 1, 3, 1]);
    }
}
