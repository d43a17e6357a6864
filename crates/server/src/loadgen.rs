//! Closed-loop load generator over the paper's Figure 8 workloads.
//!
//! Each client thread opens its own [`Session`], prepares the five
//! Figure 8 queries (Q1–Q4 plus the reordered Q4 variant) in their
//! `gapply` form, then issues them round-robin as fast as the service
//! answers — *closed loop*: a client never has more than one request in
//! flight, so offered load scales with client count and queue depth
//! rather than running open-loop and measuring its own backlog. Shed
//! requests ([`SHED_MSG`]) are retried after a short exponential
//! backoff and counted; every completed request contributes a latency
//! sample.
//!
//! With a non-zero `update_mix` the clients interleave **writes**: a
//! deterministic fraction of requests become update-then-republish
//! operations (rename one supplier, then [`Session::republish`] the
//! Figure 1 view), exercising the delta-maintained document path under
//! concurrent query load. Update latencies are reported separately.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xmlpub_common::{DeltaBatch, Error, Result, Tuple, Value};
use xmlpub_obs::{nearest_rank, HistogramSnapshot};
use xmlpub_xml::workloads::figure8_workloads;

use crate::pool::SHED_MSG;
use crate::{Server, Session};

/// Load-run shape.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Concurrent client threads (each with its own session).
    pub clients: usize,
    /// Round-robin passes over the workload set per client.
    pub iters: usize,
    /// Prepare statements first (warm plan cache / warm path). When
    /// false every request re-plans through the cache by SQL text.
    pub warm: bool,
    /// Fraction of requests (0.0–1.0) that are update-then-republish
    /// operations instead of queries. 0 disables writes entirely.
    pub update_mix: f64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { clients: 4, iters: 20, warm: true, update_mix: 0.0 }
    }
}

/// Serialized churn source shared by all writer clients: renames one
/// supplier per tick, reading the current tuple under the lock so the
/// delete side of the batch always matches.
pub struct ChurnSource {
    tick: Mutex<u64>,
}

impl Default for ChurnSource {
    fn default() -> Self {
        ChurnSource { tick: Mutex::new(0) }
    }
}

impl ChurnSource {
    /// Rename one supplier (round-robin by tick) through
    /// [`crate::Server::database`]'s delta path.
    pub fn mutate_one(&self, server: &Server) -> Result<()> {
        let mut tick = self.tick.lock().map_err(|_| Error::exec("churn lock poisoned"))?;
        *tick += 1;
        let db = server.database();
        let name_col = db.catalog().table("supplier")?.schema.resolve(None, "s_name")?;
        let data = db.catalog().data("supplier")?;
        let rows = data.rows();
        if rows.is_empty() {
            return Err(Error::exec("supplier table is empty; nothing to churn"));
        }
        let old = rows[(*tick as usize) % rows.len()].clone();
        let mut vals = old.values().to_vec();
        let base = match &vals[name_col] {
            Value::Str(s) => s.split(" u#").next().unwrap_or(s).to_string(),
            other => return Err(Error::exec(format!("s_name should be a string, got {other:?}"))),
        };
        vals[name_col] = Value::str(format!("{base} u#{}", *tick));
        let batch = DeltaBatch::new(vec![Tuple::new(vals)], vec![old]);
        db.apply_delta("supplier", &batch)?;
        Ok(())
    }
}

/// Latency summary for one workload query.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Workload name (Q1…Q4R).
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

/// The full report of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The options the run used.
    pub options: LoadOptions,
    /// Per-query latency summaries, in workload order.
    pub per_query: Vec<QueryStats>,
    /// Update-then-republish latency summary, present when the run had
    /// a non-zero `update_mix`. Not counted in `total_requests`.
    pub update_stats: Option<QueryStats>,
    /// Completed update-then-republish operations.
    pub updates: u64,
    /// Republishes that took the incremental (splice) path rather than
    /// recomputing the document.
    pub incremental_republishes: u64,
    /// Total completed requests across all clients and queries.
    pub total_requests: u64,
    /// Requests shed by admission control and retried.
    pub shed_retries: u64,
    /// Wall time spent sleeping in shed backoff, summed across clients.
    /// Together with `shed_retries` this is the full cost of admission
    /// control — it is *excluded* from the per-query service-time
    /// percentiles, which time only the attempt that completed.
    pub retry_backoff: Duration,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Completed requests per second of wall time.
    pub throughput_qps: f64,
    /// The server's own `server.query_us` histogram after the run —
    /// percentiles as the *service* measured them (including queueing),
    /// independent of the client-side samples above. `None` only if the
    /// registry recorded nothing.
    pub server_query_us: Option<HistogramSnapshot>,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "== load report ==  {} clients x {} iters ({} path)",
            self.options.clients,
            self.options.iters,
            if self.options.warm { "prepared/warm" } else { "ad-hoc/cold" }
        )?;
        writeln!(
            f,
            "  {:>5}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
            "query", "requests", "mean_us", "p50_us", "p95_us", "p99_us"
        )?;
        for q in &self.per_query {
            writeln!(
                f,
                "  {:>5}  {:>8}  {:>10.1}  {:>10.1}  {:>10.1}  {:>10.1}",
                q.name, q.requests, q.mean_us, q.p50_us, q.p95_us, q.p99_us
            )?;
        }
        if let Some(q) = &self.update_stats {
            writeln!(
                f,
                "  {:>5}  {:>8}  {:>10.1}  {:>10.1}  {:>10.1}  {:>10.1}  ({} of {} republishes incremental)",
                q.name, q.requests, q.mean_us, q.p50_us, q.p95_us, q.p99_us,
                self.incremental_republishes, self.updates
            )?;
        }
        write!(
            f,
            "  total {} requests in {:.3}s -> {:.1} q/s ({} shed-then-retried, {:.3}s backoff, excluded from percentiles)",
            self.total_requests,
            self.wall.as_secs_f64(),
            self.throughput_qps,
            self.shed_retries,
            self.retry_backoff.as_secs_f64()
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

/// Pseudo-query name update-then-republish samples are reported under.
const UPDATE_NAME: &str = "upd";

/// One update-then-republish operation: mutate a supplier through the
/// serialized churn source, then republish the view (retrying on shed
/// like a query). Returns the latency of the whole operation in
/// microseconds, excluding shed backoff sleeps.
fn run_update(
    server: &Server,
    session: &mut Session,
    view: &xmlpub_xml::XmlView,
    churn: &ChurnSource,
    incremental_republishes: &AtomicU64,
    shed_retries: &AtomicU64,
    backoff_us: &AtomicU64,
) -> Result<u64> {
    let mutate_start = Instant::now();
    churn.mutate_one(server)?;
    let mutate_us = mutate_start.elapsed().as_micros() as u64;
    let mut backoff = Duration::from_micros(10);
    loop {
        // Time each attempt on its own, like the query loop: shed
        // backoff surfaces through the shared counters, not the sample.
        let attempt = Instant::now();
        match session.republish(view, false) {
            Ok((_, outcome)) => {
                if outcome.is_incremental() {
                    incremental_republishes.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(mutate_us + attempt.elapsed().as_micros() as u64);
            }
            Err(Error::Execution(msg)) if msg.contains(SHED_MSG) => {
                shed_retries.fetch_add(1, Ordering::Relaxed);
                let slept = Instant::now();
                std::thread::sleep(backoff);
                backoff_us.fetch_add(slept.elapsed().as_micros() as u64, Ordering::Relaxed);
                backoff = (backoff * 2).min(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run the Figure 8 workloads closed-loop against `server`.
pub fn run_fig8_load(server: &Server, options: LoadOptions) -> Result<LoadReport> {
    let workloads = figure8_workloads();
    let shed_retries = AtomicU64::new(0);
    let backoff_us = AtomicU64::new(0);
    let incremental_republishes = AtomicU64::new(0);
    let churn = ChurnSource::default();
    let update_view = if options.update_mix > 0.0 {
        Some(xmlpub_xml::supplier_parts_view(server.database().catalog())?)
    } else {
        None
    };
    let start = Instant::now();

    let per_client: Vec<Result<BTreeMap<&'static str, Vec<u64>>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..options.clients.max(1))
            .map(|_| {
                let mut session = server.session();
                let workloads = &workloads;
                let shed_retries = &shed_retries;
                let backoff_us = &backoff_us;
                let incremental_republishes = &incremental_republishes;
                let churn = &churn;
                let update_view = update_view.as_ref();
                s.spawn(move || -> Result<BTreeMap<&'static str, Vec<u64>>> {
                    if options.warm {
                        for w in workloads {
                            session.prepare(w.name, &w.gapply_sql)?;
                        }
                        // Warm the document cache too, so measured
                        // republishes start from a baseline.
                        if let Some(view) = update_view {
                            session.republish(view, false)?;
                        }
                    }
                    let mut samples: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
                    // Deterministic update schedule: accumulate the mix
                    // fraction per request and fire on whole-number
                    // crossings — no RNG, exact ratio over the run.
                    let mut update_acc = 0.0f64;
                    for _ in 0..options.iters {
                        for w in workloads {
                            if let Some(view) = update_view {
                                update_acc += options.update_mix;
                                while update_acc >= 1.0 {
                                    update_acc -= 1.0;
                                    let us = run_update(
                                        server,
                                        &mut session,
                                        view,
                                        churn,
                                        incremental_republishes,
                                        shed_retries,
                                        backoff_us,
                                    )?;
                                    samples.entry(UPDATE_NAME).or_default().push(us);
                                }
                            }
                            // Closed loop with retry-on-shed: backpressure
                            // slows the client down instead of losing work.
                            // Back off exponentially (capped at ~1ms) so shed
                            // clients sleep instead of busy-spinning a core
                            // away from the workers they are waiting on.
                            //
                            // Each attempt is timed on its own so sheds and
                            // backoff sleeps never inflate the service-time
                            // percentiles; only the attempt that completed
                            // contributes a sample. The retry cost surfaces
                            // separately as `shed_retries`/`retry_backoff`.
                            let mut backoff = Duration::from_micros(10);
                            let us = loop {
                                let t = Instant::now();
                                let attempt = if options.warm {
                                    session.execute_prepared(w.name)
                                } else {
                                    session.execute(&w.gapply_sql)
                                };
                                match attempt {
                                    Ok(_) => break t.elapsed().as_micros() as u64,
                                    Err(Error::Execution(msg)) if msg.contains(SHED_MSG) => {
                                        shed_retries.fetch_add(1, Ordering::Relaxed);
                                        let slept = Instant::now();
                                        std::thread::sleep(backoff);
                                        backoff_us.fetch_add(
                                            slept.elapsed().as_micros() as u64,
                                            Ordering::Relaxed,
                                        );
                                        backoff = (backoff * 2).min(Duration::from_millis(1));
                                    }
                                    Err(e) => return Err(e),
                                }
                            };
                            samples.entry(w.name).or_default().push(us);
                        }
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect()
    });

    let wall = start.elapsed();

    let mut merged: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for client in per_client {
        for (name, mut samples) in client? {
            merged.entry(name).or_default().append(&mut samples);
        }
    }

    fn summarize(name: &'static str, mut samples: Vec<u64>) -> QueryStats {
        samples.sort_unstable();
        let mean_us = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64
        };
        QueryStats {
            name,
            requests: samples.len() as u64,
            mean_us,
            p50_us: nearest_rank(&samples, 50.0) as f64,
            p95_us: nearest_rank(&samples, 95.0) as f64,
            p99_us: nearest_rank(&samples, 99.0) as f64,
        }
    }

    let update_stats = merged.remove(UPDATE_NAME).map(|s| summarize(UPDATE_NAME, s));
    let updates = update_stats.as_ref().map(|s| s.requests).unwrap_or(0);
    let mut per_query = Vec::new();
    let mut total_requests = 0u64;
    for w in &workloads {
        let samples = merged.remove(w.name).unwrap_or_default();
        let stats = summarize(w.name, samples);
        total_requests += stats.requests;
        per_query.push(stats);
    }

    let secs = wall.as_secs_f64();
    // The service's own view of the run, read back through the text
    // exposition — the same path `\metrics` and external scrapers use.
    let server_query_us = xmlpub::parse_text(&server.metrics_text())
        .ok()
        .and_then(|snap| snap.histogram("server.query_us").cloned());
    Ok(LoadReport {
        options,
        per_query,
        update_stats,
        updates,
        incremental_republishes: incremental_republishes.load(Ordering::Relaxed),
        total_requests,
        shed_retries: shed_retries.load(Ordering::Relaxed),
        retry_backoff: Duration::from_micros(backoff_us.load(Ordering::Relaxed)),
        wall,
        throughput_qps: if secs > 0.0 { total_requests as f64 / secs } else { 0.0 },
        server_query_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use xmlpub::Database;

    #[test]
    fn tiny_load_run_completes_and_reports() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 8, ..ServerConfig::default() },
        );
        let report = run_fig8_load(
            &server,
            LoadOptions { clients: 2, iters: 2, warm: true, ..LoadOptions::default() },
        )
        .unwrap();
        // 2 clients x 2 iters x 5 workloads.
        assert_eq!(report.total_requests, 20);
        assert_eq!(report.per_query.len(), 5);
        for q in &report.per_query {
            assert_eq!(q.requests, 4);
            assert!(q.p50_us <= q.p95_us && q.p95_us <= q.p99_us);
        }
        assert!(report.throughput_qps > 0.0);
        // The server-side histogram saw every completed request.
        let h = report.server_query_us.as_ref().expect("server registry histogram");
        assert_eq!(h.count, report.total_requests);
        assert!(h.percentile_us(50.0) <= h.percentile_us(99.0));
        let text = report.to_string();
        assert!(text.contains("p95_us") && text.contains("q/s"), "{text}");
        assert!(text.contains("server registry:"), "{text}");
        // Retry cost is reported separately from the service-time
        // percentiles; a run with no sheds slept for nothing.
        assert!(text.contains("backoff, excluded from percentiles"), "{text}");
        if report.shed_retries == 0 {
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
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 16, ..ServerConfig::default() },
        );
        let options = LoadOptions { clients: 2, iters: 3, warm: true, update_mix: 0.5 };
        let report = run_fig8_load(&server, options).unwrap();
        // 2 clients x 3 iters x 5 workloads x mix 0.5 => 7 updates each
        // (the accumulator fires on whole-number crossings of 0.5/step).
        assert_eq!(report.updates, 14, "{report}");
        let upd = report.update_stats.as_ref().expect("update stats present");
        assert_eq!(upd.name, "upd");
        assert_eq!(upd.requests, report.updates);
        assert!(upd.p50_us > 0.0);
        // Queries are unaffected by the interleaved writes.
        assert_eq!(report.total_requests, 30);
        // Warm sessions republish from a baseline, so single-supplier
        // churn should take the incremental path nearly always (a
        // concurrent writer can at worst force a conservative re-check,
        // never a wrong answer).
        assert!(
            report.incremental_republishes > 0,
            "no republish took the incremental path: {report}"
        );
        let text = report.to_string();
        assert!(text.contains("republishes incremental"), "{text}");
        // The session metrics saw the writes too.
        let snap = xmlpub::parse_text(&server.metrics_text()).unwrap();
        assert_eq!(snap.counter("server.republish.count").unwrap_or(0), report.updates + 2);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 50);
        assert_eq!(nearest_rank(&samples, 99.0), 99);
        assert_eq!(nearest_rank(&samples, 100.0), 100);
        assert_eq!(nearest_rank::<u64>(&[], 50.0), 0);
        assert_eq!(nearest_rank(&[7u64], 99.0), 7);
    }
}
