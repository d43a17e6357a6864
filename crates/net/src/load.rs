//! The load driver over the paper's Figure 8 workloads, in process or
//! over TCP.
//!
//! [`run_fig8`] drives a [`Target`]: a [`Server`] through one in-process
//! [`Session`] per client, or a socket address through one [`NetClient`]
//! per client. The requests are the five Figure 8 queries (Q1–Q4 plus the
//! reordered Q4) in their `gapply` form; request `k` runs workload
//! `k % 5`, and client thread `t` owns requests `t, t+C, …`. Each client
//! connects and prepares its statements (the warm path) before a barrier,
//! so set-up stays outside the measured window.
//!
//! * **Closed loop** (`rate: None`): a client sends its next request when
//!   the previous one has answered, so offered load follows the service.
//! * **Open loop** (`rate: Some(r)`): request `k` is due at `t0 + k/r`
//!   however earlier requests fared, the way independent users arrive.
//!   Requests sent more than 1 ms after they were due count as late.
//!
//! Latency runs from the due time to the end of the answer: the scheduled
//! time in an open loop, the first send in a closed loop. A stall is thus
//! charged to every request that waited behind it. Shed requests (the
//! in-process [`SHED_MSG`] error, the wire's BUSY frame) are retried with
//! a backoff of 10 µs doubling to 1 ms; the retries and the time slept
//! are part of the latency and are reported next to the percentiles.
//!
//! With a non-zero `update_mix` one writer thread renames a supplier and
//! republishes the Figure 1 view on its own in-process session, recording
//! `upd` latencies. It is paced by completed requests: update `k` fires
//! once `k / update_mix` requests have completed, and updates still owed
//! when the clients finish run before the report is taken, so a run makes
//! exactly ⌊requests × update_mix⌋ of them. The writer needs the server
//! in this process, so a socket target must name it as `host`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use xmlpub::Database;
use xmlpub_common::{DeltaBatch, Error, Relation, Result, Tuple, Value};
use xmlpub_engine::ExecStats;
use xmlpub_obs::{nearest_rank, HistogramSnapshot};
use xmlpub_server::{Server, Session, SHED_MSG};
use xmlpub_xml::workloads::{figure8_workloads, Workload};
use xmlpub_xml::XmlView;

use crate::client::{retry_busy, NetClient, Reply, RetryStats};
use crate::server::resolve_view;

/// Where the load goes.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    /// One [`Session`] per client on this server.
    InProcess(&'a Server),
    /// One [`NetClient`] per client, connected to `addr`. `host` is the
    /// server behind it when that runs in this process; the update-mix
    /// writer and the server-side latency histogram need it.
    Socket { addr: SocketAddr, host: Option<&'a Server> },
}

impl<'a> Target<'a> {
    /// The server in this process, if there is one.
    fn server(self) -> Option<&'a Server> {
        match self {
            Target::InProcess(server) => Some(server),
            Target::Socket { host, .. } => host,
        }
    }
}

/// Load-run shape.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Concurrent client threads, each with its own session or connection.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// `None` runs a closed loop; `Some(r)` an open loop at `r` requests
    /// per second across all clients.
    pub rate: Option<f64>,
    /// Prepare statements first (warm plan cache). When false every
    /// request is planned again from its SQL text.
    pub warm: bool,
    /// Updates per completed request (0.0–1.0); 0 disables the writer.
    pub update_mix: f64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { clients: 4, requests: 200, rate: None, warm: true, update_mix: 0.0 }
    }
}

/// Latency summary for one workload query (or `upd` for the writer).
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Workload name (Q1…Q4r, or `upd`).
    pub name: &'static str,
    /// Completed requests.
    pub requests: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median latency.
    pub p50_us: f64,
    /// 95th-percentile latency.
    pub p95_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
}

impl QueryStats {
    fn new(name: &'static str, mut samples: Vec<u64>) -> QueryStats {
        samples.sort_unstable();
        let n = samples.len() as u64;
        QueryStats {
            name,
            requests: n,
            mean_us: if n == 0 { 0.0 } else { samples.iter().sum::<u64>() as f64 / n as f64 },
            p50_us: nearest_rank(&samples, 50.0) as f64,
            p95_us: nearest_rank(&samples, 95.0) as f64,
            p99_us: nearest_rank(&samples, 99.0) as f64,
        }
    }
}

/// The report of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The options the run used.
    pub options: LoadOptions,
    /// `"in-process"` or `"socket"`.
    pub transport: &'static str,
    /// Per-query latency summaries, in workload order.
    pub per_query: Vec<QueryStats>,
    /// The writer's update-then-republish latencies, present when the run
    /// had a non-zero `update_mix`. Not counted in `total_requests`.
    pub update_stats: Option<QueryStats>,
    /// Completed update-then-republish operations.
    pub updates: u64,
    /// Republishes that took the incremental (splice) path.
    pub incremental_republishes: u64,
    /// Completed requests across all clients and queries.
    pub total_requests: u64,
    /// Shed requests (in-process) or BUSY answers (socket) retried.
    pub busy_retries: u64,
    /// Time slept backing off from sheds, summed across threads.
    pub retry_backoff: Duration,
    /// Requests sent more than 1 ms after they were due; always 0 in a
    /// closed loop. When this is a large fraction, the open loop ran
    /// behind its rate.
    pub late_arrivals: u64,
    /// From the post-warm-up barrier to the last request and update.
    pub wall: Duration,
    /// Completed requests per second of wall time.
    pub throughput_qps: f64,
    /// The in-process server's own `server.query_us` histogram after the
    /// run, read back through its text exposition. `None` for a remote
    /// server or an empty registry.
    pub server_query_us: Option<HistogramSnapshot>,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = &self.options;
        let shape = match o.rate {
            Some(rate) => format!("open loop at {rate:.0}/s"),
            None => "closed loop".to_string(),
        };
        let path = if o.warm { "prepared/warm" } else { "ad-hoc/cold" };
        writeln!(
            f,
            "== load report ==  {}, {shape}: {} clients, {} requests ({path} path)",
            self.transport, o.clients, o.requests
        )?;
        writeln!(
            f,
            "  {:>5}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
            "query", "requests", "mean_us", "p50_us", "p95_us", "p99_us"
        )?;
        for q in self.per_query.iter().chain(&self.update_stats) {
            write!(
                f,
                "  {:>5}  {:>8}  {:>10.1}  {:>10.1}  {:>10.1}  {:>10.1}",
                q.name, q.requests, q.mean_us, q.p50_us, q.p95_us, q.p99_us
            )?;
            if q.name == UPDATE_NAME {
                write!(
                    f,
                    "  ({} of {} republishes incremental)",
                    self.incremental_republishes, self.updates
                )?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "  total {} requests in {:.3}s -> {:.1} q/s (latency from due time; {} busy-retried, \
             {:.3}s backoff, included in latency; {} late arrivals)",
            self.total_requests,
            self.wall.as_secs_f64(),
            self.throughput_qps,
            self.busy_retries,
            self.retry_backoff.as_secs_f64(),
            self.late_arrivals
        )?;
        if let Some(h) = &self.server_query_us {
            write!(
                f,
                "\n  server registry: {} samples, mean {:.1}us, p50<={}us, p95<={}us, p99<={}us",
                h.count,
                h.mean_us(),
                h.percentile_us(50.0),
                h.percentile_us(95.0),
                h.percentile_us(99.0)
            )?;
        }
        Ok(())
    }
}

/// Pseudo-query name the writer's samples are reported under.
const UPDATE_NAME: &str = "upd";

/// A client thread sleeps until this long before a request is due and
/// spins the rest, so its own wake-up delay is not charged as latency.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);

/// One client's connection to a [`Target`].
enum Conn {
    Local(Session),
    Net(NetClient),
}

impl Conn {
    fn open(target: Target) -> Result<Conn> {
        Ok(match target {
            Target::InProcess(server) => Conn::Local(server.session()),
            Target::Socket { addr, .. } => Conn::Net(NetClient::connect(addr)?),
        })
    }

    fn prepare(&mut self, name: &str, sql: &str) -> Result<()> {
        match self {
            Conn::Local(s) => s.prepare(name, sql).map(drop),
            Conn::Net(c) => c.prepare(name, sql)?.expect_done().map(drop),
        }
    }

    fn sql(&mut self, sql: &str) -> Result<Reply<Relation>> {
        match self {
            Conn::Local(s) => shed_as_busy(s.execute(sql).map(|(rel, _)| rel)),
            Conn::Net(c) => Ok(c.sql(sql)?.map(|(rel, _)| rel)),
        }
    }

    fn exec_prepared(&mut self, name: &str) -> Result<Reply<Relation>> {
        match self {
            Conn::Local(s) => shed_as_busy(s.execute_prepared(name).map(|(rel, _)| rel)),
            Conn::Net(c) => Ok(c.exec_prepared(name)?.map(|(rel, _)| rel)),
        }
    }

    /// Publish a view by its wire name: the document, its row count and
    /// the request's engine counters.
    fn publish(&mut self, view: &str, pretty: bool) -> Result<Reply<(String, u64, ExecStats)>> {
        match self {
            Conn::Local(s) => {
                let view = resolve_view(s.database(), view)?;
                shed_as_busy(s.publish_to(&view, pretty, Vec::new()).map(|(bytes, rows, stats)| {
                    (String::from_utf8(bytes).expect("tagger emits UTF-8 only"), rows, stats)
                }))
            }
            Conn::Net(c) => c.publish(view, pretty),
        }
    }

    fn close(self) -> Result<()> {
        match self {
            Conn::Local(_) => Ok(()),
            Conn::Net(c) => c.goodbye(),
        }
    }
}

/// An in-process admission-control shed is what a BUSY frame is on the
/// wire.
fn shed_as_busy<T>(result: Result<T>) -> Result<Reply<T>> {
    match result {
        Ok(v) => Ok(Reply::Done(v)),
        Err(Error::Execution(msg)) if msg.contains(SHED_MSG) => Ok(Reply::Busy(msg)),
        Err(e) => Err(e),
    }
}

/// Rename one supplier (row `tick % n`, name suffixed `u#tick`) through
/// the database's delta path: the update-mix writer's churn.
fn rename_supplier(db: &Database, tick: u64) -> Result<()> {
    let name_col = db.catalog().table("supplier")?.schema.resolve(None, "s_name")?;
    let data = db.catalog().data("supplier")?;
    let rows = data.rows();
    if rows.is_empty() {
        return Err(Error::exec("supplier table is empty; nothing to churn"));
    }
    let old = rows[(tick as usize) % rows.len()].clone();
    let mut vals = old.values().to_vec();
    let base = match &vals[name_col] {
        Value::Str(s) => s.split(" u#").next().unwrap_or(s).to_string(),
        other => return Err(Error::exec(format!("s_name should be a string, got {other:?}"))),
    };
    vals[name_col] = Value::str(format!("{base} u#{tick}"));
    db.apply_delta("supplier", &DeltaBatch::new(vec![Tuple::new(vals)], vec![old]))?;
    Ok(())
}

/// What one client or writer thread measured.
#[derive(Default)]
struct Outcome {
    /// `(workload index, latency us)`; the writer uses index 0.
    samples: Vec<(usize, u64)>,
    retries: RetryStats,
    late: u64,
    incremental: u64,
}

/// Sleep until shortly before `t`, then spin to it.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if now + SPIN_BEFORE_DUE < t {
        std::thread::sleep(t - now - SPIN_BEFORE_DUE);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// What every thread of one run shares.
struct Run<'a> {
    target: Target<'a>,
    options: LoadOptions,
    clients: usize,
    workloads: Vec<Workload>,
    /// Clients, the writer and the coordinating thread meet here once
    /// set-up is done; the first one through takes the clock origin.
    barrier: Barrier,
    t0: OnceLock<Instant>,
    /// Requests answered so far: the writer's pacing signal.
    completed: AtomicU64,
    /// Set once every client has finished: the writer catches up.
    done: AtomicBool,
}

impl Run<'_> {
    /// Meet the others at the barrier and return the clock origin.
    fn start(&self) -> Instant {
        self.barrier.wait();
        *self.t0.get_or_init(Instant::now)
    }

    /// Client thread `t`: connect and warm up, then issue requests
    /// `t, t+clients, …`.
    fn client(&self, t: usize) -> Result<Outcome> {
        let (options, workloads) = (self.options, &self.workloads);
        // Set-up failures still reach the barrier, so one client that
        // cannot connect does not strand the others.
        let setup = (|| -> Result<Conn> {
            let mut conn = Conn::open(self.target)?;
            if options.warm {
                for w in workloads {
                    conn.prepare(w.name, &w.gapply_sql)?;
                }
            }
            Ok(conn)
        })();
        let t0 = self.start();
        let mut conn = setup?;
        let mut out = Outcome::default();
        for k in (t..options.requests).step_by(self.clients) {
            let due = match options.rate {
                Some(rate) => {
                    let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                    wait_until(due);
                    if due.elapsed() > Duration::from_millis(1) {
                        out.late += 1;
                    }
                    due
                }
                None => Instant::now(),
            };
            let i = k % workloads.len();
            let w = &workloads[i];
            retry_busy(&mut out.retries, || {
                if options.warm {
                    conn.exec_prepared(w.name)
                } else {
                    conn.sql(&w.gapply_sql)
                }
            })?;
            out.samples.push((i, micros(due.elapsed())));
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
        conn.close()?;
        Ok(out)
    }

    /// The update-mix writer: warm the document cache, then make
    /// `updates` rename-then-republish operations, the `k`-th once
    /// `k / update_mix` requests have completed or the clients are done.
    fn writer(&self, server: &Server, view: &XmlView, updates: u64) -> Result<Outcome> {
        let mut session = server.session();
        let warm = session.republish(view, false);
        self.start();
        warm?;
        let mut out = Outcome::default();
        for k in 1..=updates {
            let after = (k as f64 / self.options.update_mix).ceil() as u64;
            while self.completed.load(Ordering::Relaxed) < after
                && !self.done.load(Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_micros(100));
            }
            let begin = Instant::now();
            rename_supplier(server.database(), k)?;
            let (_, outcome) =
                retry_busy(&mut out.retries, || shed_as_busy(session.republish(view, false)))?;
            out.incremental += u64::from(outcome.is_incremental());
            out.samples.push((0, micros(begin.elapsed())));
        }
        Ok(out)
    }
}

/// Run the Figure 8 workloads against `target`.
pub fn run_fig8(target: Target, options: LoadOptions) -> Result<LoadReport> {
    if options.rate.is_some_and(|r| r.is_nan() || r <= 0.0) {
        return Err(Error::exec("open-loop rate must be positive"));
    }
    let updates = (options.requests as f64 * options.update_mix).floor() as u64;
    let writer = match (updates, target.server()) {
        (0, _) => None,
        (_, Some(server)) => {
            Some((server, xmlpub_xml::supplier_parts_view(server.database().catalog())?))
        }
        (_, None) => {
            return Err(Error::exec(
                "an update mix needs the server in this process: a socket target's host",
            ))
        }
    };
    let clients = options.clients.max(1);
    let run = Run {
        target,
        options,
        clients,
        workloads: figure8_workloads(),
        barrier: Barrier::new(clients + 1 + usize::from(writer.is_some())),
        t0: OnceLock::new(),
        completed: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };

    let (wall, client_outcomes, writer_outcome) = std::thread::scope(|s| {
        let run = &run;
        let handles: Vec<_> = (0..clients).map(|t| s.spawn(move || run.client(t))).collect();
        let writer = writer
            .as_ref()
            .map(|(server, view)| s.spawn(move || run.writer(server, view, updates)));
        let t0 = run.start();
        let outcomes: Vec<Result<Outcome>> =
            handles.into_iter().map(|h| h.join().expect("load client panicked")).collect();
        run.done.store(true, Ordering::Relaxed);
        let writer = writer.map(|h| h.join().expect("load writer panicked"));
        (t0.elapsed(), outcomes, writer)
    });

    let mut per_query: Vec<Vec<u64>> = vec![Vec::new(); run.workloads.len()];
    let mut retries = RetryStats::default();
    let mut late_arrivals = 0;
    for outcome in client_outcomes {
        let outcome = outcome?;
        for (i, us) in outcome.samples {
            per_query[i].push(us);
        }
        retries.merge(&outcome.retries);
        late_arrivals += outcome.late;
    }
    let (update_stats, incremental_republishes) = match writer_outcome.transpose()? {
        Some(w) => {
            retries.merge(&w.retries);
            let samples = w.samples.into_iter().map(|(_, us)| us).collect();
            (Some(QueryStats::new(UPDATE_NAME, samples)), w.incremental)
        }
        None => (None, 0),
    };
    let per_query: Vec<QueryStats> =
        run.workloads.iter().zip(per_query).map(|(w, s)| QueryStats::new(w.name, s)).collect();
    let total_requests = per_query.iter().map(|q| q.requests).sum();
    let secs = wall.as_secs_f64();
    Ok(LoadReport {
        options,
        transport: match target {
            Target::InProcess(_) => "in-process",
            Target::Socket { .. } => "socket",
        },
        per_query,
        updates: update_stats.as_ref().map_or(0, |u| u.requests),
        update_stats,
        incremental_republishes,
        total_requests,
        busy_retries: retries.busy_retries,
        retry_backoff: retries.backoff,
        late_arrivals,
        wall,
        throughput_qps: if secs > 0.0 { total_requests as f64 / secs } else { 0.0 },
        server_query_us: target.server().and_then(|server| {
            xmlpub::parse_text(&server.metrics_text())
                .ok()
                .and_then(|snap| snap.histogram("server.query_us").cloned())
        }),
    })
}

/// Check `target`'s answers against serial execution on `reference`
/// (the same deterministic TPC-H data): the Figure 8 relations, and the
/// `supplier_parts` document, compact and pretty, byte for byte.
pub fn verify_fig8(target: Target, reference: &Database) -> Result<()> {
    let mut conn = Conn::open(target)?;
    for w in figure8_workloads() {
        if conn.sql(&w.gapply_sql)?.expect_done()? != reference.sql(&w.gapply_sql)? {
            return Err(Error::exec(format!("{} differs from serial execution", w.name)));
        }
    }
    let view = resolve_view(reference, "supplier_parts")?;
    for pretty in [false, true] {
        let (xml, rows, stats) = conn.publish("supplier_parts", pretty)?.expect_done()?;
        if rows == 0 || stats.rows_scanned == 0 {
            return Err(Error::exec(format!("publish(pretty={pretty}) reported empty counters")));
        }
        if xml != reference.publish(&view, pretty)? {
            return Err(Error::exec(format!(
                "publish(pretty={pretty}) differs byte-for-byte from serial publishing"
            )));
        }
    }
    conn.close()
}

/// Check that `server`'s metrics exposition parses back and accounts for
/// every request of `report`, net-layer counters included for a socket
/// run.
pub fn verify_metrics(server: &Server, report: &LoadReport) -> Result<()> {
    let snap = xmlpub::parse_text(&server.metrics_text())
        .map_err(|e| Error::exec(format!("exposition does not parse: {e}")))?;
    let queries = snap.counter("server.query.count").unwrap_or(0);
    let hist = snap.histogram("server.query_us").map_or(0, |h| h.count);
    if queries < report.total_requests || hist != queries {
        return Err(Error::exec(format!(
            "registry lost requests: counter {queries}, histogram {hist}, load report {}",
            report.total_requests
        )));
    }
    if report.transport == "socket" {
        let requests = snap.counter("server.net.requests").unwrap_or(0);
        let frames_out = snap.counter("server.net.frames_out").unwrap_or(0);
        let opened = snap.counter("server.net.connections.opened").unwrap_or(0);
        if requests < report.total_requests || frames_out == 0 || opened == 0 {
            return Err(Error::exec(format!(
                "net layer unaccounted: requests {requests} (expected >= {}), frames_out \
                 {frames_out}, connections.opened {opened}",
                report.total_requests
            )));
        }
    }
    Ok(())
}

/// After an update-mix run: rename once more, then a session warmed
/// before the rename republishes incrementally, and its document must be
/// byte-identical to a full recompute over the final data.
pub fn verify_republish(server: &Server, report: &LoadReport) -> Result<()> {
    if report.updates == 0 {
        return Err(Error::exec("no updates completed; raise --requests or --update-mix"));
    }
    let view = resolve_view(server.database(), "supplier_parts")?;
    let mut incremental = server.session();
    incremental.republish(&view, false)?;
    rename_supplier(server.database(), report.updates + 1)?;
    let (doc, outcome) = incremental.republish(&view, false)?;
    if !outcome.is_incremental() {
        return Err(Error::exec(format!(
            "final republish fell back ({outcome}); expected the incremental path"
        )));
    }
    let mut full = server.session();
    full.set_republish_threshold(0.0);
    if doc != full.republish(&view, false)?.0 {
        return Err(Error::exec("incremental republish differs byte-for-byte from full recompute"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{NetConfig, NetServer};
    use xmlpub_server::ServerConfig;

    fn server(workers: usize, queue_depth: usize) -> Server {
        Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers, queue_depth, ..ServerConfig::default() },
        )
    }

    #[test]
    fn tiny_load_run_completes_and_reports() {
        let server = server(2, 8);
        let report = run_fig8(
            Target::InProcess(&server),
            LoadOptions { clients: 2, requests: 20, ..LoadOptions::default() },
        )
        .unwrap();
        assert_eq!(report.total_requests, 20);
        assert_eq!(report.per_query.len(), 5);
        for q in &report.per_query {
            assert_eq!(q.requests, 4);
            assert!(q.p50_us <= q.p95_us && q.p95_us <= q.p99_us);
        }
        assert!(report.throughput_qps > 0.0);
        assert_eq!(report.late_arrivals, 0, "a closed loop is never late");
        // The server-side histogram saw every completed request.
        let h = report.server_query_us.as_ref().expect("server registry histogram");
        assert_eq!(h.count, report.total_requests);
        assert!(h.percentile_us(50.0) <= h.percentile_us(99.0));
        let text = report.to_string();
        assert!(text.contains("p95_us") && text.contains("q/s"), "{text}");
        assert!(text.contains("server registry:"), "{text}");
        // Retry cost is reported next to the percentiles; a run with no
        // sheds slept for nothing.
        assert!(text.contains("backoff, included in latency"), "{text}");
        if report.busy_retries == 0 {
            assert_eq!(report.retry_backoff, Duration::ZERO);
        }
        // The warm path really warmed the cache. The five workloads
        // share four distinct gapply plans (Q4r re-prepares Q4's text),
        // and both clients warm *concurrently*: simultaneous misses on
        // one key both build (the loser adopts the winner's entry), so
        // the exact hit/miss split is timing-dependent. Assert the
        // race-free invariants instead: every lookup accounted, all
        // four plans resident, and each client's own Q4r prepare hits
        // the Q4 entry it just planted.
        let stats = server.stats();
        assert_eq!(stats.cache.entries, 4, "expected 4 distinct warm plans, got {stats}");
        assert_eq!(stats.cache.evictions, 0, "nothing should be evicted, got {stats}");
        assert_eq!(
            stats.cache.hits + stats.cache.misses,
            10,
            "2 clients x 5 prepares, got {stats}"
        );
        assert!(stats.cache.hits >= 2, "expected at least the intra-client hits, got {stats}");
    }

    #[test]
    fn update_mix_interleaves_writes_and_republishes() {
        let server = server(2, 16);
        let options =
            LoadOptions { clients: 2, requests: 30, update_mix: 0.5, ..LoadOptions::default() };
        let report = run_fig8(Target::InProcess(&server), options).unwrap();
        // floor(30 requests x 0.5 updates per request).
        assert_eq!(report.updates, 15, "{report}");
        let upd = report.update_stats.as_ref().expect("update stats present");
        assert_eq!(upd.name, "upd");
        assert_eq!(upd.requests, report.updates);
        assert!(upd.p50_us > 0.0);
        // Queries are unaffected by the writer.
        assert_eq!(report.total_requests, 30);
        // The writer republishes from a warm baseline, so single-supplier
        // churn should take the incremental path nearly always.
        assert!(
            report.incremental_republishes > 0,
            "no republish took the incremental path: {report}"
        );
        let text = report.to_string();
        assert!(text.contains("republishes incremental"), "{text}");
        // The session metrics saw the writes too, plus the writer's
        // warm-up republish.
        let snap = xmlpub::parse_text(&server.metrics_text()).unwrap();
        assert_eq!(snap.counter("server.republish.count").unwrap_or(0), report.updates + 1);
        verify_metrics(&server, &report).unwrap();
        verify_republish(&server, &report).unwrap();
    }

    #[test]
    fn socket_run_counts_every_request_and_renders() {
        let server = Arc::new(server(2, 64));
        let net = NetServer::start(Arc::clone(&server), NetConfig::default()).unwrap();
        let target = Target::Socket { addr: net.local_addr(), host: Some(&server) };
        verify_fig8(target, &Database::tpch(0.001).unwrap()).unwrap();
        for rate in [None, Some(500.0)] {
            let options = LoadOptions { clients: 2, requests: 10, rate, ..LoadOptions::default() };
            let report = run_fig8(target, options).unwrap();
            assert_eq!(report.total_requests, 10);
            assert!(report.per_query.iter().all(|q| q.requests == 2), "{report}");
            let text = report.to_string();
            assert!(text.starts_with("== load report ==  socket"), "{text}");
            assert!(text.contains("late arrivals"), "{text}");
            verify_metrics(&server, &report).unwrap();
        }
        let drain = net.drain(Duration::from_secs(10));
        assert!(drain.drained && drain.aborted == 0, "{drain:?}");
    }

    /// Above capacity an open loop builds a backlog, and latency timed
    /// from each request's due time grows with it: a run three times as
    /// long must report a clearly higher median. A clock started at send
    /// time would stay flat.
    #[test]
    fn due_time_latency_grows_with_run_length_above_capacity() {
        let server = Arc::new(server(1, 64));
        let net = NetServer::start(Arc::clone(&server), NetConfig::default()).unwrap();
        let target = Target::Socket { addr: net.local_addr(), host: Some(&server) };
        let median_p50 = |requests| {
            let options = LoadOptions {
                clients: 2,
                requests,
                rate: Some(10_000.0),
                ..LoadOptions::default()
            };
            let report = run_fig8(target, options).unwrap();
            assert_eq!(report.total_requests, requests as u64);
            let mut p50: Vec<f64> = report.per_query.iter().map(|q| q.p50_us).collect();
            p50.sort_by(f64::total_cmp);
            (p50[p50.len() / 2], report.late_arrivals)
        };
        let (short, _) = median_p50(40);
        let (long, late) = median_p50(120);
        assert!(
            long > 2.0 * short,
            "p50 {long:.0} us over 120 requests should exceed twice {short:.0} us over 40"
        );
        assert!(late > 60, "an overloaded generator runs late: {late} of 120");
        let drain = net.drain(Duration::from_secs(10));
        assert!(drain.drained, "{drain:?}");
    }
}
