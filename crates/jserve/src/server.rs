//! The multi-tenant serving front end.
//!
//! A [`Server`] owns a [`Store`] and an [`Admission`] gate and exposes
//! the query surface as client-visible **verbs** ([`Request`]): `find`,
//! projected find, aggregation, insert, and the `EXPLAIN` /
//! `EXPLAIN ANALYZE` plans. Every request runs on behalf of a
//! registered tenant ([`TenantSpec`]): admission first, then a
//! [`QueryCtx`] carrying the tenant's deadline and budgets plus its
//! shared [`QueryMetrics`] sink, then execution against an immutable
//! [`crate::Snapshot`] acquired once per request. A find is a pipeline
//! ([`jagg::Pipeline::find`]): find, projected find and aggregation all
//! run through [`jagg::aggregate_with_ctx`], whose leading `$match`, like
//! `EXPLAIN ANALYZE`, takes [`Collection::find_refs_with_ctx`], the
//! routed path whose route `EXPLAIN` reports.
//!
//! ## Failure envelope
//!
//! [`Server::serve`] returns `Result<Response, QueryError>` and nothing
//! else, ever:
//!
//! - malformed request text → [`QueryError::BadQuery`] (deterministic,
//!   not retryable);
//! - shed by admission → [`QueryError::Overloaded`] (retryable — pair
//!   with [`jguard::retry_with_backoff`]);
//! - deadline/budget trips → the corresponding governance error;
//! - a panic anywhere under the verb → contained at this boundary and
//!   surfaced as [`QueryError::WorkerPanicked`], with the permit
//!   released and the server fully serviceable for the next request
//!   (the `s11` fault-storm gate).

use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use jguard::{Fault, QueryCtx, QueryError};
use jsondata::{Json, ParseLimits};
use jtrace::QueryMetrics;
use mongofind::{Collection, Filter, Projection};

use crate::admission::{Admission, AdmissionConfig};
use crate::store::{Snapshot, Store};

/// Per-tenant serving policy. Fields left `None` are unlimited. The
/// tenant's metrics sink counts work and contained panics but records no
/// spans ([`Server::tenant_metrics`]).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name — the routing key of [`Server::serve`].
    pub name: String,
    /// Per-request deadline, applied at admission time.
    pub timeout: Option<Duration>,
    /// Per-request byte budget (materialization charges).
    pub byte_budget: Option<u64>,
    /// Per-request row budget.
    pub row_budget: Option<u64>,
    /// Ingestion limits for this tenant's inserts.
    pub parse_limits: ParseLimits,
}

impl TenantSpec {
    /// A spec with no limits: unlimited everything, default parse
    /// limits.
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            timeout: None,
            byte_budget: None,
            row_budget: None,
            parse_limits: ParseLimits::default(),
        }
    }
}

struct Tenant {
    spec: TenantSpec,
    metrics: Arc<QueryMetrics>,
}

/// A client-visible verb. All payloads are *text* — parsing happens
/// inside the serve boundary so malformed input is a typed
/// [`QueryError::BadQuery`], not a caller-side panic.
#[derive(Debug, Clone)]
pub enum Request {
    /// `find(filter)` — matching documents, in document order.
    Find {
        /// Filter text (`{"age": {"$gte": 30}}`).
        filter: String,
    },
    /// `find(filter, projection)`.
    FindProject {
        /// Filter text.
        filter: String,
        /// Projection text (`{"name.first": 1}`).
        projection: String,
    },
    /// `aggregate(pipeline)`.
    Aggregate {
        /// Pipeline text (`[{"$match": …}, …]`).
        pipeline: String,
    },
    /// Appends one document through the tenant's [`ParseLimits`].
    Insert {
        /// Document text.
        doc: String,
    },
    /// `EXPLAIN` of a find — the plan, nothing executed.
    Explain {
        /// Filter text.
        filter: String,
    },
    /// `EXPLAIN ANALYZE` of a find — plan plus actuals (rows, wall
    /// time, counters, span recorded/dropped tallies).
    ExplainAnalyze {
        /// Filter text.
        filter: String,
    },
    /// `EXPLAIN` of a pipeline.
    ExplainPipeline {
        /// Pipeline text.
        pipeline: String,
    },
    /// `EXPLAIN ANALYZE` of a pipeline.
    ExplainAnalyzePipeline {
        /// Pipeline text.
        pipeline: String,
    },
}

/// What a verb returns. Read verbs carry the **epoch** of the snapshot
/// that produced them — the anchor of the `s11` linearizability replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Documents from a `find`/`aggregate`, plus the snapshot epoch.
    Docs {
        /// Epoch of the snapshot the query ran against.
        epoch: u64,
        /// The result documents.
        docs: Vec<Json>,
    },
    /// Outcome of an insert: the epoch it created.
    Inserted {
        /// The new epoch (this insert's position in the commit log).
        epoch: u64,
    },
    /// A rendered `EXPLAIN`/`EXPLAIN ANALYZE` plan.
    Plan {
        /// Epoch of the snapshot the plan describes.
        epoch: u64,
        /// The machine-stable JSON rendering of the plan.
        plan: Json,
    },
}

/// The serving core: store + admission + tenants.
pub struct Server {
    store: Store,
    admission: Admission,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
}

fn bad_query(e: impl std::fmt::Display) -> QueryError {
    QueryError::BadQuery(e.to_string())
}

impl Server {
    /// Wraps a seed collection. The collection's pool configuration
    /// (thread count) and declared indexes are inherited by every
    /// snapshot.
    pub fn new(coll: Collection, admission: AdmissionConfig) -> Server {
        Server {
            store: Store::new(coll),
            admission: Admission::new(admission),
            tenants: RwLock::new(HashMap::new()),
        }
    }

    /// Registers a tenant with a fresh counters-only metrics sink (no
    /// span ring); `false` (and no change) if the name is taken.
    pub fn register_tenant(&self, spec: TenantSpec) -> bool {
        let metrics = Arc::new(QueryMetrics::new());
        let mut tenants = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if tenants.contains_key(&spec.name) {
            return false;
        }
        tenants.insert(spec.name.clone(), Arc::new(Tenant { spec, metrics }));
        true
    }

    /// The shared metrics sink of a tenant — counters and contained
    /// panics aggregated across every request the tenant has run. It
    /// records no spans: `EXPLAIN ANALYZE` records them in its own
    /// private ring, and a caller that wants a trace attaches a
    /// span-recording sink ([`mongofind::Actuals::recorder`]) to its own
    /// [`QueryCtx`].
    pub fn tenant_metrics(&self, name: &str) -> Option<Arc<QueryMetrics>> {
        self.tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|t| Arc::clone(&t.metrics))
    }

    /// The underlying store — snapshots, the commit log, and
    /// [`Store::compact`] for maintenance tasks.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The admission gate in force.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Serves one request on behalf of `tenant`. See the module docs
    /// for the complete failure envelope.
    pub fn serve(&self, tenant: &str, req: &Request) -> Result<Response, QueryError> {
        self.serve_with_fault(tenant, req, Fault::None)
    }

    /// [`Server::serve`] with an injected [`Fault`] planted on the
    /// request's context — the fault-storm entry point of the `s11`
    /// harness and the containment tests. Production callers use
    /// [`Server::serve`] (`Fault::None`).
    pub fn serve_with_fault(
        &self,
        tenant: &str,
        req: &Request,
        fault: Fault,
    ) -> Result<Response, QueryError> {
        let tenant = self
            .tenants
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant)
            .cloned()
            .ok_or_else(|| bad_query(format!("unknown tenant: {tenant}")))?;
        let deadline = tenant.spec.timeout.map(|t| Instant::now() + t);
        let _permit = self.admission.admit(deadline)?;
        let mut ctx = QueryCtx::new().with_metrics(Arc::clone(&tenant.metrics));
        if let Some(d) = deadline {
            ctx = ctx.with_deadline(d);
        }
        if let Some(b) = tenant.spec.byte_budget {
            ctx = ctx.with_byte_budget(b);
        }
        if let Some(r) = tenant.spec.row_budget {
            ctx = ctx.with_row_budget(r);
        }
        if fault != Fault::None {
            ctx = ctx.with_fault(fault);
        }
        // The panic boundary: a panic anywhere under a verb becomes a
        // typed error with the permit released (Drop) and the snapshot
        // discarded — the server state cannot be poisoned by a request.
        jpar::contain(&ctx, || self.execute(&tenant, &ctx, req))
    }

    fn execute(
        &self,
        tenant: &Tenant,
        ctx: &QueryCtx,
        req: &Request,
    ) -> Result<Response, QueryError> {
        if let Request::Insert { doc } = req {
            let epoch = self.store.insert_str(doc, tenant.spec.parse_limits)?;
            return Ok(Response::Inserted { epoch });
        }
        let snap: Arc<Snapshot> = self.store.snapshot();
        let coll = snap.collection();
        let epoch = snap.epoch();
        let filter = |src: &str| Filter::parse_str(src).map_err(bad_query);
        let pipeline = |src: &str| jagg::Pipeline::parse_str(src).map_err(bad_query);
        let plan = |plan| Ok(Response::Plan { epoch, plan });
        let read = match req {
            Request::Find { filter: f } => jagg::Pipeline::find(filter(f)?, Projection::default()),
            Request::FindProject {
                filter: f,
                projection,
            } => {
                let f = filter(f)?;
                jagg::Pipeline::find(f, Projection::parse_str(projection).map_err(bad_query)?)
            }
            Request::Aggregate { pipeline: p } => pipeline(p)?,
            Request::Explain { filter: f } => return plan(coll.explain(&filter(f)?).to_json()),
            Request::ExplainAnalyze { filter: f } => {
                return plan(coll.explain_analyze(&filter(f)?)?.to_json())
            }
            Request::ExplainPipeline { pipeline: p } => {
                return plan(jagg::explain(coll, &pipeline(p)?).to_json())
            }
            Request::ExplainAnalyzePipeline { pipeline: p } => {
                return plan(jagg::explain_analyze(coll, &pipeline(p)?)?.to_json())
            }
            Request::Insert { .. } => unreachable!("handled before snapshot acquisition"),
        };
        let docs = jagg::aggregate_with_ctx(coll, &read, ctx)?;
        Ok(Response::Docs { epoch, docs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsondata::parse;
    use jtrace::Counter;

    fn seed() -> Collection {
        Collection::from_array(
            &parse(
                r#"[
                {"id": 1, "name": {"first": "Sue", "last": "Kim"}, "age": 28},
                {"id": 2, "name": {"first": "John", "last": "Doe"}, "age": 32},
                {"id": 3, "name": {"first": "Ada", "last": "Kim"}, "age": 41}
            ]"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn server() -> Server {
        let s = Server::new(seed(), AdmissionConfig::default());
        assert!(s.register_tenant(TenantSpec::new("t0")));
        s
    }

    #[test]
    fn verbs_round_trip() {
        let s = server();
        let r = s
            .serve(
                "t0",
                &Request::Find {
                    filter: r#"{"age": {"$gte": 30}}"#.into(),
                },
            )
            .unwrap();
        let Response::Docs { epoch, docs } = r else {
            panic!("find returns docs")
        };
        assert_eq!((epoch, docs.len()), (0, 2));

        let r = s
            .serve(
                "t0",
                &Request::Insert {
                    doc: r#"{"id": 4, "name": {"first": "Bo", "last": "Chen"}, "age": 35}"#.into(),
                },
            )
            .unwrap();
        assert_eq!(r, Response::Inserted { epoch: 1 });

        let r = s
            .serve(
                "t0",
                &Request::Aggregate {
                    pipeline: r#"[{"$match": {"age": {"$gte": 30}}}, {"$count": "n"}]"#.into(),
                },
            )
            .unwrap();
        let Response::Docs { epoch, docs } = r else {
            panic!("aggregate returns docs")
        };
        assert_eq!(epoch, 1);
        assert_eq!(docs[0].to_string(), r#"{"n":3}"#);
    }

    #[test]
    fn find_verbs_take_the_route_explain_reports() {
        let mut coll = seed();
        assert!(coll.create_index("id"));
        let s = Server::new(coll, AdmissionConfig::default());
        for (filter, route, rows) in [
            (r#"{"id": 2}"#, "index", 1),
            (r#"{"name.last": "Kim"}"#, "scan", 2),
        ] {
            let explain = Request::Explain {
                filter: filter.into(),
            };
            assert!(s.register_tenant(TenantSpec::new(route)));
            let Response::Plan { plan, .. } = s.serve(route, &explain).unwrap() else {
                panic!("explain returns a plan")
            };
            let claimed = plan.as_object().and_then(|o| o.get("route"));
            assert_eq!(claimed, Some(&Json::str(route)), "{filter}: {plan}");
            let finds = [
                Request::Find {
                    filter: filter.into(),
                },
                Request::FindProject {
                    filter: filter.into(),
                    projection: r#"{"name.first": 1}"#.into(),
                },
            ];
            for (i, req) in finds.iter().enumerate() {
                // A fresh tenant per verb: its sink sees only this request.
                let tenant = format!("{route}-{i}");
                assert!(s.register_tenant(TenantSpec::new(tenant.as_str())));
                let Response::Docs { docs, .. } = s.serve(&tenant, req).unwrap() else {
                    panic!("find verbs return docs")
                };
                assert_eq!(docs.len(), rows, "{req:?}");
                let m = s.tenant_metrics(&tenant).unwrap();
                let (probes, scanned) = (m.get(Counter::IndexProbes), m.get(Counter::DocsScanned));
                if route == "index" {
                    assert!(
                        probes >= 1 && scanned == 0,
                        "{req:?}: {probes} probes, {scanned} scanned"
                    );
                } else {
                    assert!(
                        probes == 0 && scanned > 0,
                        "{req:?}: {probes} probes, {scanned} scanned"
                    );
                }
            }
        }
    }

    #[test]
    fn explain_verbs_are_client_visible() {
        let s = server();
        for (req, needle) in [
            (
                Request::Explain {
                    filter: r#"{"age": {"$gte": 30}}"#.into(),
                },
                "\"route\"",
            ),
            (
                Request::ExplainAnalyze {
                    filter: r#"{"age": {"$gte": 30}}"#.into(),
                },
                "\"spans\"",
            ),
            (
                Request::ExplainPipeline {
                    pipeline: r#"[{"$match": {"age": {"$gte": 30}}}]"#.into(),
                },
                "\"stages\"",
            ),
            (
                Request::ExplainAnalyzePipeline {
                    pipeline: r#"[{"$match": {"age": {"$gte": 30}}}]"#.into(),
                },
                "\"spans\"",
            ),
        ] {
            let Response::Plan { plan, .. } = s.serve("t0", &req).unwrap() else {
                panic!("explain verbs return plans")
            };
            assert!(plan.to_string().contains(needle), "{req:?}: {plan}");
        }
    }

    #[test]
    fn malformed_text_is_bad_query_never_a_panic() {
        let s = server();
        for req in [
            Request::Find {
                filter: "{not json".into(),
            },
            Request::FindProject {
                filter: r#"{"age": 1}"#.into(),
                projection: "nope".into(),
            },
            Request::Aggregate {
                pipeline: r#"[{"$frobnicate": 1}]"#.into(),
            },
            Request::Explain {
                filter: "{{{{".into(),
            },
        ] {
            let err = s.serve("t0", &req).unwrap_err();
            assert!(matches!(err, QueryError::BadQuery(_)), "{req:?}: {err}");
            assert!(!err.is_retryable());
        }
        let err = s
            .serve(
                "nobody",
                &Request::Find {
                    filter: "{}".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::BadQuery(_)));
    }

    #[test]
    fn a_projection_key_follows_the_project_key_rule() {
        // `find(f, p)` is `[$match f, $project p]`: an operator key is no
        // output path in either form.
        let s = server();
        let find = Request::FindProject {
            filter: r#"{"id": 1}"#.into(),
            projection: r#"{"$x": 1}"#.into(),
        };
        let pipeline = Request::Aggregate {
            pipeline: r#"[{"$match": {"id": 1}}, {"$project": {"$x": 1}}]"#.into(),
        };
        for req in [find, pipeline] {
            let err = s.serve("t0", &req).unwrap_err();
            let QueryError::BadQuery(msg) = &err else {
                panic!("{req:?}: {err}")
            };
            assert!(
                msg.contains(r#"$project field "$x" must not start with $"#),
                "{msg}"
            );
            assert!(!err.is_retryable());
        }
    }

    #[test]
    fn injected_panic_is_contained_and_server_stays_serviceable() {
        let s = server();
        let req = Request::Find {
            filter: r#"{"age": {"$gte": 0}}"#.into(),
        };
        let err = jguard::with_quiet_panics(|| {
            s.serve_with_fault("t0", &req, Fault::PanicAtPoll(1))
                .unwrap_err()
        });
        assert!(matches!(err, QueryError::WorkerPanicked { .. }), "{err}");
        // The permit was released and the store untouched: the very next
        // request succeeds.
        let r = s.serve("t0", &req).unwrap();
        assert!(matches!(r, Response::Docs { .. }));
        assert_eq!(s.admission().inflight(), 0);
    }

    #[test]
    fn tenant_deadline_and_metrics_ride_every_request() {
        let s = Server::new(seed(), AdmissionConfig::default());
        let mut spec = TenantSpec::new("slow");
        spec.timeout = Some(Duration::from_millis(40));
        assert!(s.register_tenant(spec));
        let req = Request::Find {
            filter: r#"{"age": {"$gte": 0}}"#.into(),
        };
        // A clean request records work against the tenant's shared sink.
        assert!(s.serve("slow", &req).is_ok());
        let m = s.tenant_metrics("slow").unwrap();
        assert!(m.get(Counter::DocsScanned) > 0);
        // The sink counts without a span ring: no request pays for spans.
        assert!(m.spans().is_none());
        // A fault that sleeps past the deadline trips Deadline, not a hang.
        let err = s
            .serve_with_fault("slow", &req, Fault::SleepAtPoll { at: 1, millis: 200 })
            .unwrap_err();
        assert_eq!(err, QueryError::Deadline);
    }
}
