//! `servebench` — the serving benchmark: closed-loop clients driving
//! `jserve::Server::serve` with the `lookup`, `analytics` and `ingest`
//! traffic mixes.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload lookup --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client thread per available core sends its next request only after
//! the previous reply arrived and was checked. A client's requests for one
//! round are fixed by the seed; rounds repeat until `--seconds` have been
//! measured (and every reported percentile has ten samples beyond it).
//! Every round of the timed run starts from a server set up just before
//! it, so every round does the same work. The traced run keeps one server
//! on read-only workloads, and starts each `ingest` round from a new
//! server over a clone of the seed collection.
//!
//! `--trace 0` reports the end-to-end metrics. The request costs among
//! them are in cycles: each client thread's CPU time over a call (see
//! `cpu.rs`), times the core clock measured in the same round, and each
//! request counts with its least cost over the run's rounds. On a host
//! shared with other processes, wall time also measures how long the
//! clients waited for a core, and other load slows the cores by a tenth or
//! more for seconds at a time: wall-clock medians moved by a quarter
//! between runs of the same code. The wall-clock throughput and latencies
//! are printed beside them as notes. `--trace 1` alternates an untraced
//! round through `serve` with a traced replay of the same round through
//! the public calls `serve` makes (see `trace.rs`), and reports the
//! per-layer metrics. Every reply is checked against an oracle; a wrong
//! reply makes the run fail with exit code 1.
//!
//! Stdout carries one `metric <name> <value> <unit>` line per figure, an
//! environment stamp, and, as its last line, the JSON result.

mod cpu;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use jguard::QueryError;
use jpar::Pool;
use jserve::{AdmissionConfig, Request, Response, Server, TenantSpec};
use jtrace::{Counter, QueryMetrics, Snapshot};
use mongofind::Collection;

use cpu::CpuTimer;
use trace::Recorder;
use workload::{Ledger, Op, Scenario, Workload, COMPACT_EVERY};

const TENANT: &str = "bench";

/// Worker threads per request. With one client per core the clients
/// already keep every core busy; a wider pool only oversubscribes them,
/// and its helper hand-offs made run-to-run latency spread several times
/// wider than any regression bound the benchmark could hold.
const POOL_THREADS: usize = 1;

/// Rounds a run makes at least. Every round brings one set-up, and
/// `setup_s` is their median.
const MIN_ROUNDS: usize = 9;

/// Core clock samples a client takes before and after its requests in a
/// round; their median is the round's clock.
const CLOCK_SAMPLES: usize = 3;

/// Samples a p99 needs to have ten beyond it.
const P99_SAMPLES: usize = 1000;

/// How far past `--seconds` a run may go to collect `P99_SAMPLES`.
const MAX_OVERRUN_S: f64 = 60.0;

/// The work counters that depend only on the requests, not on the
/// schedule: on a read-only workload every round must repeat them exactly.
const SCHEDULE_FREE: [Counter; 6] = [
    Counter::DocsScanned,
    Counter::RowsEmitted,
    Counter::IndexProbes,
    Counter::ResidualEvals,
    Counter::SegmentsVisited,
    Counter::CanonBuilds,
];

const USAGE: &str =
    "usage: servebench --workload lookup|analytics|ingest --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clients = std::thread::available_parallelism().map_or(1, usize::from);
    let scenario = Scenario::new(args.workload, args.seed, clients);
    let seed = workload::indexed_collection(&scenario.text, Pool::with_threads(POOL_THREADS));
    let oracle = workload::indexed_collection(&scenario.text, Pool::serial());
    let bench = Bench {
        workload: args.workload,
        scenario: &scenario,
        seed: &seed,
        oracle: &oracle,
        origin: Instant::now(),
    };
    let report = if args.trace {
        bench.traced_run(&args)
    } else {
        bench.timed_run(&args)
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    for note in &report.notes {
        println!("note {note}");
    }
    println!(
        r#"{{"env":{{"workload":"{}","seed":{},"run_seconds":{},"trace":{},"nproc":{clients},"clients":{clients},"pool_threads":{},"admission_max_inflight":{},"rev":"{}"}}}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        POOL_THREADS,
        AdmissionConfig::default().max_inflight,
        git_rev(),
    );
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Seed parse, the three indexes, `Server::new` and tenant registration:
/// the server, and the seconds of this thread's CPU time it took (all of
/// it runs on this thread).
fn set_up(text: &str) -> (Server, f64) {
    let t = CpuTimer::start();
    let server = Server::new(
        workload::indexed_collection(text, Pool::with_threads(POOL_THREADS)),
        AdmissionConfig::default(),
    );
    assert!(server.register_tenant(TenantSpec::new(TENANT)));
    (server, t.elapsed_ms() / 1e3)
}

fn metrics_of(server: &Server) -> std::sync::Arc<QueryMetrics> {
    server
        .tenant_metrics(TENANT)
        .expect("the bench tenant is registered")
}

enum Verdict {
    Pass,
    Fail(String),
    /// Judged after the round, against the commit log (`ingest`).
    Later(Response),
}

struct Outcome {
    /// Wall and client-thread CPU time of the call.
    ms: f64,
    cpu_ms: f64,
    write: bool,
    verdict: Verdict,
}

struct Round {
    wall_s: f64,
    /// Per client, parallel to its requests.
    outcomes: Vec<Vec<Outcome>>,
    compact_ms: Vec<f64>,
    recorders: Vec<Recorder>,
    shed: u64,
    clock_ghz: Vec<f64>,
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one client did in one round.
struct ClientRun {
    outcomes: Vec<Outcome>,
    recorder: Option<Recorder>,
    shed: u64,
    compact_ms: Vec<f64>,
    clock_ghz: Vec<f64>,
}

/// One closed-loop client: each request is sent after the previous reply
/// was received and (for read-only workloads) checked. Latency covers the
/// call only. A client whose insert lands on a multiple of
/// `COMPACT_EVERY` commits compacts the store before its next request,
/// while the other clients keep going.
fn client(
    server: &Server,
    workload: Workload,
    ops: &[Op],
    mut recorder: Option<Recorder>,
) -> ClientRun {
    let mut run = ClientRun {
        outcomes: Vec::with_capacity(ops.len()),
        recorder: None,
        shed: 0,
        compact_ms: Vec::new(),
        clock_ghz: Vec::with_capacity(2 * CLOCK_SAMPLES),
    };
    run.clock_ghz
        .extend((0..CLOCK_SAMPLES).map(|_| cpu::clock_ghz()));
    for op in ops {
        let cpu = CpuTimer::start();
        let t = Instant::now();
        let reply = match recorder.as_mut() {
            Some(rec) => trace::replay(server, TENANT, &op.req, rec),
            None => server.serve(TENANT, &op.req),
        };
        let ms = elapsed_ms(t);
        let cpu_ms = cpu.elapsed_ms();
        let verdict = match reply {
            Ok(reply) => {
                if let Response::Inserted { epoch } = reply {
                    if epoch % COMPACT_EVERY == 0 {
                        let t = Instant::now();
                        server.store().compact();
                        run.compact_ms.push(elapsed_ms(t));
                    }
                }
                if workload.writes() {
                    Verdict::Later(reply)
                } else {
                    match workload::check(op, &reply, None) {
                        Ok(()) => Verdict::Pass,
                        Err(e) => Verdict::Fail(e),
                    }
                }
            }
            Err(e) => {
                run.shed += u64::from(matches!(e, QueryError::Overloaded));
                Verdict::Fail(e.to_string())
            }
        };
        run.outcomes.push(Outcome {
            ms,
            cpu_ms,
            write: matches!(op.req, Request::Insert { .. }),
            verdict,
        });
    }
    run.clock_ghz
        .extend((0..CLOCK_SAMPLES).map(|_| cpu::clock_ghz()));
    run.recorder = recorder;
    run
}

/// The summed outcomes of several rounds.
#[derive(Default)]
struct Tally {
    /// Per request of a round (clients in order, each in request order):
    /// whether it writes, and the fewest millions of cycles any round took
    /// for it.
    best_mcycles: Vec<(bool, f64)>,
    /// Per round: the core clock.
    round_ghz: Vec<f64>,
    /// Wall-clock latencies of every read and write.
    reads: Vec<f64>,
    writes: Vec<f64>,
    /// Per round: requests per second, and the median read latency.
    round_rps: Vec<f64>,
    round_read_p50: Vec<f64>,
    /// Reads since the last window closed, and the p99 of each window of
    /// at least `P99_SAMPLES` reads (whole rounds).
    window: Vec<f64>,
    window_read_p99: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    /// The first few failures, and every round-level oracle failure.
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, round: &Round) {
        let first_read = self.reads.len();
        let requests = round.outcomes.iter().map(Vec::len).sum::<usize>();
        if self.best_mcycles.is_empty() {
            self.best_mcycles = round
                .outcomes
                .iter()
                .flatten()
                .map(|o| (o.write, f64::INFINITY))
                .collect();
        }
        let ghz = stats::median(&round.clock_ghz);
        self.round_ghz.push(ghz);
        for (o, best) in round.outcomes.iter().flatten().zip(&mut self.best_mcycles) {
            best.1 = best.1.min(o.cpu_ms * ghz);
            self.attempted += 1;
            if o.write {
                self.writes.push(o.ms);
            } else {
                self.reads.push(o.ms);
            }
            if let Verdict::Fail(e) = &o.verdict {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e.clone());
                }
            }
        }
        self.wall_s += round.wall_s;
        self.round_rps.push(requests as f64 / round.wall_s);
        self.round_read_p50
            .push(stats::median(&self.reads[first_read..]));
        self.window.extend_from_slice(&self.reads[first_read..]);
        if let Some(p99) = stats::percentile(&self.window, 0.99) {
            self.window_read_p99.push(p99);
            self.window.clear();
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn throughput_rps(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }

    /// The mean over a round's requests of their best cost.
    fn request_mcycles(&self) -> f64 {
        let total: f64 = self.best_mcycles.iter().map(|&(_, c)| c).sum();
        total / self.best_mcycles.len() as f64
    }

    /// The best costs of a round's reads.
    fn read_mcycles(&self) -> Vec<f64> {
        self.best_mcycles
            .iter()
            .filter(|&&(write, _)| !write)
            .map(|&(_, c)| c)
            .collect()
    }
}

/// The median over windows of the windows' read p99.
fn window_p99(tally: &Tally) -> Result<f64, String> {
    if tally.window_read_p99.is_empty() {
        return Err(format!(
            "{} reads in {:.1} s cannot support a p99",
            tally.reads.len(),
            tally.wall_s
        ));
    }
    Ok(stats::median(&tally.window_read_p99))
}

fn percentile(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    stats::percentile(samples, q).ok_or_else(|| {
        format!(
            "{} {what} samples cannot support p{}",
            samples.len(),
            q * 100.0
        )
    })
}

struct Bench<'a> {
    workload: Workload,
    scenario: &'a Scenario,
    /// The set-up seed collection every served round starts from.
    seed: &'a Collection,
    oracle: &'a Collection,
    origin: Instant,
}

impl Bench<'_> {
    /// Runs every client's round once against `server`.
    fn round(&self, server: &Server, traced: bool) -> Round {
        let t = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .scenario
                .clients
                .iter()
                .enumerate()
                .map(|(c, ops)| {
                    let rec = traced.then(|| Recorder::new(c, self.origin));
                    s.spawn(move || client(server, self.workload, ops, rec))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let mut round = Round {
            wall_s: t.elapsed().as_secs_f64(),
            outcomes: Vec::new(),
            compact_ms: Vec::new(),
            recorders: Vec::new(),
            shed: 0,
            clock_ghz: Vec::new(),
        };
        for run in runs {
            round.clock_ghz.extend(run.clock_ghz);
            round.outcomes.push(run.outcomes);
            round.recorders.extend(run.recorder);
            round.shed += run.shed;
            round.compact_ms.extend(run.compact_ms);
        }
        round
    }

    /// Judges the replies an `ingest` round left for later, and the round
    /// as a whole, against the server's commit log.
    fn settle(&self, round: &mut Round, server: &Server) -> Result<(), String> {
        if !self.workload.writes() {
            return Ok(());
        }
        let ledger = Ledger::new(
            &self.scenario.records,
            server.store().log_prefix(usize::MAX),
        )?;
        let mut acked = 0;
        for (ops, outcomes) in self.scenario.clients.iter().zip(&mut round.outcomes) {
            for (op, o) in ops.iter().zip(outcomes) {
                if let Verdict::Later(reply) = &o.verdict {
                    acked += usize::from(matches!(reply, Response::Inserted { .. }));
                    o.verdict = match workload::check(op, reply, Some(&ledger)) {
                        Ok(()) => Verdict::Pass,
                        Err(e) => Verdict::Fail(e),
                    };
                }
            }
        }
        workload::check_ingest_round(server.store(), self.oracle, acked)
    }

    /// A round plus its judgement, added to `tally`.
    fn counted_round(&self, server: &Server, traced: bool, tally: &mut Tally) -> Round {
        let mut round = self.round(server, traced);
        if let Err(e) = self.settle(&mut round, server) {
            tally.errors.push(format!("round check: {e}"));
        }
        tally.add(&round);
        round
    }

    /// A server for the next round: the same one for read-only workloads;
    /// for `ingest`, a new one over a clone of the set-up seed collection
    /// (the old one is dropped first).
    fn next_server(&self, server: &mut Option<Server>) {
        if self.workload.writes() || server.is_none() {
            *server = None;
            let fresh = Server::new(self.seed.clone(), AdmissionConfig::default());
            assert!(fresh.register_tenant(TenantSpec::new(TENANT)));
            *server = Some(fresh);
        }
    }

    fn warm_up(&self, server: &mut Option<Server>) {
        // One uncounted round, so that lazily built state and first-touch
        // page faults fall outside the measurement.
        self.next_server(server);
        self.round(server.as_ref().expect("server is set up"), false);
    }

    /// End-to-end metrics, untraced.
    fn timed_run(&self, args: &Args) -> Result<Report, String> {
        let mut warm = None;
        self.warm_up(&mut warm);
        drop(warm);
        let mut tally = Tally::default();
        let (mut setups, mut round_rss) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            // Every round runs on a server set up just before it, so the
            // rounds sample where the collection happens to land in
            // memory: one server kept for a whole run made `lookup` run
            // medians move by 8%. The set-ups, like the rounds, then
            // sample the host over the whole run.
            let (server, setup_s) = set_up(&self.scenario.text);
            setups.push(setup_s);
            reset_peak_rss()?;
            self.counted_round(&server, false, &mut tally);
            round_rss.push(peak_rss_mb()?);
            drop(server);
            let elapsed = start.elapsed().as_secs_f64();
            let enough = !tally.window_read_p99.is_empty()
                && setups.len() >= MIN_ROUNDS
                && (!self.workload.writes() || tally.writes.len() >= P99_SAMPLES);
            if (elapsed >= args.seconds && enough) || elapsed >= args.seconds + MAX_OVERRUN_S {
                break;
            }
        }
        let reads = tally.read_mcycles();
        let metrics = vec![
            // Each request's least cost over the rounds, which all repeat
            // the same requests: outside load only ever adds to it.
            ("request_mcycles", tally.request_mcycles(), "Mcycles"),
            ("read_p50_mcycles", stats::median(&reads), "Mcycles"),
            (
                "read_p90_mcycles",
                percentile(&reads, 0.9, "read")?,
                "Mcycles",
            ),
            // The median round's peak: a run's single highest peak rests
            // on how the clients happened to interleave around a
            // compaction.
            ("peak_rss_mb", stats::median(&round_rss), "MB"),
            ("setup_s", stats::median(&setups), "s"),
        ];
        let mut notes = vec![
            // Wall clock, every sample: reported, not gated, since it
            // also measures the host's other load. Medians over rounds
            // (and over windows of rounds for the p99).
            format!("throughput_rps {} 1/s", stats::median(&tally.round_rps)),
            format!("read_p50_ms {} ms", stats::median(&tally.round_read_p50)),
            format!("read_p99_ms {} ms", window_p99(&tally)?),
            format!("core_clock_ghz {} GHz", stats::median(&tally.round_ghz)),
            format!("read_samples {}", tally.reads.len()),
            format!("read_cost_samples {}", reads.len()),
            format!("rounds {}", tally.round_rps.len()),
            format!("p99_windows {}", tally.window_read_p99.len()),
            format!(
                "error_rate {}",
                tally.failed as f64 / tally.attempted as f64
            ),
        ];
        if self.workload.writes() {
            // Reported, not gated: only `ingest` issues writes, and a gated
            // metric must exist on every workload.
            notes.push(format!("write_samples {}", tally.writes.len()));
            notes.push(format!(
                "write_p50_ms {} ms",
                percentile(&tally.writes, 0.5, "write")?
            ));
            notes.push(format!(
                "write_p99_ms {} ms",
                percentile(&tally.writes, 0.99, "write")?
            ));
        }
        notes.extend(tally.errors.iter().map(|e| format!("failure {e}")));
        Ok(Report {
            correct: tally.correct(),
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            notes,
        })
    }

    /// Per-layer metrics: untraced and traced rounds alternate, and the
    /// traced ones attribute request time to the calls into each layer.
    fn traced_run(&self, args: &Args) -> Result<Report, String> {
        let mut server = None;
        self.warm_up(&mut server);
        let (mut plain, mut traced) = (Tally::default(), Tally::default());
        let mut spans = Vec::new();
        let (mut finds, mut index_routed, mut shed) = (0, 0, 0);
        let mut first_counts: Option<Snapshot> = None;
        let mut compact_ms = Vec::new();
        let mut compactions = 0;
        let mut gauges = (0, 0, 0);
        let mut trace_file = None;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds {
            for traced_pass in [false, true] {
                self.next_server(&mut server);
                let srv = server.as_ref().expect("server is set up");
                let before = metrics_of(srv).snapshot();
                let tally = if traced_pass { &mut traced } else { &mut plain };
                let round = self.counted_round(srv, traced_pass, tally);
                let counts = minus(&metrics_of(srv).snapshot(), &before);
                shed += round.shed;
                let reference = *first_counts.get_or_insert(counts);
                if !self.workload.writes()
                    && SCHEDULE_FREE
                        .iter()
                        .any(|&c| counts.get(c) != reference.get(c))
                {
                    tally.errors.push(format!(
                        "schedule-free counters changed between rounds: {:?} vs {:?}",
                        counts.nonzero(),
                        reference.nonzero()
                    ));
                }
                if traced_pass {
                    let (s, f, i) = trace::gather(round.recorders);
                    trace_file.get_or_insert_with(|| trace::chrome_trace(&s));
                    spans.extend(s);
                    finds += f;
                    index_routed += i;
                } else {
                    if compact_ms.is_empty() {
                        compactions = round.compact_ms.len();
                    }
                    compact_ms.extend(round.compact_ms);
                    let snap = srv.store().snapshot();
                    gauges = (
                        snap.collection().segments().len(),
                        snap.collection().interner().len(),
                        snap.epoch(),
                    );
                }
            }
        }
        let srv = server.as_ref().expect("server is set up");
        let clone_us = probe_clone_us(srv.store().snapshot().collection());
        let doc_parse_us = probe_parse_us(&self.scenario.probe_docs)?;
        if let Some(text) = trace_file {
            write_trace(args, &text);
        }
        let counts = first_counts.expect("at least one round ran");
        let layers = trace::self_times(&spans);
        let self_us = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n as f64)
        };
        let count = |c: Counter| counts.get(c) as f64;
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let metrics = vec![
            ("jserve.request_us", trace::request_us(&spans), "us"),
            (
                "jserve.admission.wait_us",
                self_us("jserve.admission.wait"),
                "us",
            ),
            ("jserve.admission.shed", shed as f64, "count"),
            (
                "jserve.store.snapshot_us",
                self_us("jserve.store.snapshot"),
                "us",
            ),
            (
                "jserve.store.insert_us",
                self_us("jserve.store.insert"),
                "us",
            ),
            ("jserve.store.clone_us", clone_us, "us"),
            ("jserve.store.compact_ms", mean(&compact_ms), "ms"),
            ("jserve.store.compactions", compactions as f64, "count"),
            ("jserve.store.segments", gauges.0 as f64, "count"),
            ("jserve.store.interner_syms", gauges.1 as f64, "count"),
            ("jserve.store.epoch", gauges.2 as f64, "count"),
            (
                "jserve.unattributed_share",
                trace::unattributed_share(&spans),
                "ratio",
            ),
            ("jsondata.doc_parse_us", doc_parse_us, "us"),
            (
                "mongofind.filter_parse_us",
                self_us("mongofind.filter_parse"),
                "us",
            ),
            ("mongofind.route_us", self_us("mongofind.route"), "us"),
            (
                "mongofind.route_index_share",
                index_routed as f64 / (finds as f64).max(1.0),
                "ratio",
            ),
            ("mongofind.scan_us", self_us("mongofind.scan"), "us"),
            (
                "mongofind.materialize_us",
                self_us("mongofind.materialize"),
                "us",
            ),
            ("mongofind.explain_us", self_us("mongofind.explain"), "us"),
            (
                "mongofind.docs_scanned",
                count(Counter::DocsScanned),
                "count",
            ),
            (
                "mongofind.rows_emitted",
                count(Counter::RowsEmitted),
                "count",
            ),
            (
                "mongofind.rows_per_scanned",
                count(Counter::RowsEmitted) / count(Counter::DocsScanned).max(1.0),
                "ratio",
            ),
            (
                "mongofind.index_probes",
                count(Counter::IndexProbes),
                "count",
            ),
            (
                "mongofind.residual_evals",
                count(Counter::ResidualEvals),
                "count",
            ),
            (
                "mongofind.bitmap_intersections",
                count(Counter::BitmapIntersections),
                "count",
            ),
            (
                "jnl.segments_visited",
                count(Counter::SegmentsVisited),
                "count",
            ),
            (
                "jnl.dfa_bitset_builds",
                count(Counter::DfaBitsetBuilds),
                "count",
            ),
            (
                "jagg.pipeline_parse_us",
                self_us("jagg.pipeline_parse"),
                "us",
            ),
            ("jagg.exec_us", self_us("jagg.exec"), "us"),
            ("jagg.explain_us", self_us("jagg.explain"), "us"),
            ("jagg.canon_builds", count(Counter::CanonBuilds), "count"),
            (
                "jpar.chunks_dispatched",
                count(Counter::ChunksDispatched),
                "count",
            ),
            ("jpar.chunks_stolen", count(Counter::ChunksStolen), "count"),
            ("jpar.polls", count(Counter::Polls), "count"),
            (
                "trace.overhead",
                plain.throughput_rps() / traced.throughput_rps() - 1.0,
                "ratio",
            ),
        ];
        let mut notes = vec![format!(
            "counts are per round of {} requests",
            self.scenario.clients.iter().map(Vec::len).sum::<usize>()
        )];
        notes.extend(
            plain
                .errors
                .iter()
                .chain(&traced.errors)
                .map(|e| format!("failure {e}")),
        );
        Ok(Report {
            correct: plain.correct() && traced.correct(),
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
            metrics,
            notes,
        })
    }
}

fn minus(after: &Snapshot, before: &Snapshot) -> Snapshot {
    let mut out = *after;
    for (o, b) in out.counts.iter_mut().zip(before.counts) {
        *o -= b;
    }
    out
}

/// Median time of one `Collection::clone()` — what every insert pays to
/// copy the current snapshot — in microseconds.
fn probe_clone_us(coll: &Collection) -> f64 {
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(coll.clone());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// Mean time of a standalone `parse_to_tree` of one insert document, in
/// microseconds.
fn probe_parse_us(docs: &[String]) -> Result<f64, String> {
    let t = Instant::now();
    for doc in docs {
        std::hint::black_box(jsondata::parse_to_tree(doc).map_err(|e| e.to_string())?);
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / docs.len().max(1) as f64)
}

fn write_trace(args: &Args, text: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!(
            "servebench: Chrome trace of the first traced round in {}",
            path.display()
        ),
        Err(e) => eprintln!("servebench: could not write {}: {e}", path.display()),
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
compile_error!("servebench trims glibc's heap and reads Linux's /proc");

extern "C" {
    /// glibc: returns the heap's free pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free pages to the kernel, then resets this
/// process's peak resident set size (`VmHWM`) to its resident set size.
/// Without the trim, the next peak would rest on how much memory earlier
/// set-ups and rounds happened to leave cached in the allocator: on
/// `ingest`, run medians moved by a tenth.
fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes no pointers; it only releases free pages.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The checkout's git revision, when it is a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let rev = read(&git.join("HEAD")).and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(&git.join(r)).or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_owned))
        }),
    });
    rev.unwrap_or_else(|| "unknown".into())
}
