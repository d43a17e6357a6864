//! Open-loop socket load harness over the Figure 8 workloads.
//!
//! The in-process harness (`xmlpub_server::run_fig8_load`) is *closed
//! loop*: each client waits for its answer before sending the next
//! request, so offered load sags exactly when the server slows down —
//! good for throughput ceilings, useless for latency under a fixed
//! arrival process. This harness is *open loop*: request `k` of `n` is
//! scheduled at `t0 + k/rate` regardless of how request `k-1` fared,
//! the way real traffic arrives. Threads split the global schedule
//! round-robin (thread `t` issues requests `t, t+clients, ...`), each
//! over its own TCP connection. `t0` is taken at a barrier *after*
//! every thread has connected and run its warm-up prepares, so setup
//! cost is outside the measured window — the scheduler never starts
//! with a sleep deficit and early requests are not branded late.
//!
//! Accounting follows the in-process harness's fixed rules: a service
//! time is the successful attempt alone, measured send-to-`End`; BUSY
//! answers and backoff sleeps are counted separately and never become
//! latency samples. Lateness (the scheduler falling behind the arrival
//! process because every connection is stuck waiting) is reported so a
//! saturated run is visibly not measuring the rate it claims.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use xmlpub_common::{Error, Result};
use xmlpub_obs::nearest_rank;
use xmlpub_server::loadgen::QueryStats;
use xmlpub_xml::workloads::figure8_workloads;

use crate::client::{NetClient, RetryStats};

/// Open-loop run shape.
#[derive(Debug, Clone, Copy)]
pub struct NetLoadOptions {
    /// Client threads, each with its own connection.
    pub clients: usize,
    /// Total requests across all threads.
    pub requests: usize,
    /// Target arrival rate, requests/second, across all threads.
    pub rate_per_sec: f64,
    /// Prepare statements per connection first (warm path).
    pub warm: bool,
}

impl Default for NetLoadOptions {
    fn default() -> Self {
        NetLoadOptions { clients: 4, requests: 200, rate_per_sec: 200.0, warm: true }
    }
}

/// The report of one open-loop socket run.
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// The options the run used.
    pub options: NetLoadOptions,
    /// Per-query service-time summaries (socket round-trip), workload
    /// order.
    pub per_query: Vec<QueryStats>,
    /// Completed requests.
    pub total_requests: u64,
    /// BUSY answers received and retried.
    pub busy_retries: u64,
    /// Total backoff sleep across all clients (excluded from the
    /// percentiles above).
    pub retry_backoff: Duration,
    /// Requests issued more than 1ms after their scheduled arrival —
    /// when this is a large fraction, the run was not actually open
    /// loop at the target rate.
    pub late_arrivals: u64,
    /// Wall clock for the measured window: from the post-connect,
    /// post-warmup barrier to the last thread finishing.
    pub wall: Duration,
    /// Completed requests per second of wall time.
    pub throughput_qps: f64,
}

impl std::fmt::Display for NetLoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "== socket load report ==  open loop: {} clients, {} requests at {:.0}/s ({} path)",
            self.options.clients,
            self.options.requests,
            self.options.rate_per_sec,
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
        write!(
            f,
            "  total {} requests in {:.3}s -> {:.1} q/s ({} busy-retried, {:.3}s backoff, \
             excluded from percentiles; {} late arrivals)",
            self.total_requests,
            self.wall.as_secs_f64(),
            self.throughput_qps,
            self.busy_retries,
            self.retry_backoff.as_secs_f64(),
            self.late_arrivals
        )
    }
}

struct ThreadOutcome {
    samples: BTreeMap<&'static str, Vec<u64>>,
    retries: RetryStats,
    late: u64,
}

/// Run the Figure 8 workloads open-loop against a listening
/// [`crate::NetServer`] at `addr`.
pub fn run_fig8_socket_load(addr: SocketAddr, options: NetLoadOptions) -> Result<NetLoadReport> {
    if options.rate_per_sec <= 0.0 {
        return Err(Error::exec("open-loop rate must be positive"));
    }
    let workloads = figure8_workloads();
    let clients = options.clients.max(1);
    let interval = Duration::from_secs_f64(1.0 / options.rate_per_sec);
    // Threads park here once their connection is ready (warm-up
    // prepares included); the arrival clock starts only after release.
    // The extra participant is the coordinating thread, which takes the
    // wall-clock origin at the same instant.
    let barrier = std::sync::Barrier::new(clients + 1);

    let (wall, outcomes): (Duration, Vec<Result<ThreadOutcome>>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let workloads = &workloads;
                let barrier = &barrier;
                s.spawn(move || -> Result<ThreadOutcome> {
                    // Setup failures still hit the barrier — a thread
                    // that can't connect must not strand the others.
                    let setup = (|| -> Result<NetClient> {
                        let mut client = NetClient::connect(addr)?;
                        if options.warm {
                            for w in workloads {
                                client.prepare(w.name, &w.gapply_sql)?.expect_done()?;
                            }
                        }
                        Ok(client)
                    })();
                    barrier.wait();
                    let start = Instant::now();
                    let mut client = setup?;
                    let mut out = ThreadOutcome {
                        samples: BTreeMap::new(),
                        retries: RetryStats::default(),
                        late: 0,
                    };
                    // This thread owns global request indices t, t+C, ...
                    let mut k = t;
                    while k < options.requests {
                        let scheduled = interval.mul_f64(k as f64);
                        let now = start.elapsed();
                        if now < scheduled {
                            std::thread::sleep(scheduled - now);
                        } else if now > scheduled + Duration::from_millis(1) {
                            out.late += 1;
                        }
                        let w = &workloads[k % workloads.len()];
                        // Service time = the successful attempt alone:
                        // each attempt restarts the clock, so BUSY
                        // round-trips and backoff never pollute samples.
                        let mut attempt_us = 0u64;
                        client.retry_busy(&mut out.retries, |c| {
                            let t = Instant::now();
                            let r = if options.warm {
                                c.exec_prepared(w.name)
                            } else {
                                c.sql(&w.gapply_sql)
                            };
                            attempt_us = t.elapsed().as_micros() as u64;
                            r
                        })?;
                        out.samples.entry(w.name).or_default().push(attempt_us);
                        k += clients;
                    }
                    client.goodbye()?;
                    Ok(out)
                })
            })
            .collect();
        barrier.wait();
        let run_start = Instant::now();
        let outcomes =
            handles.into_iter().map(|h| h.join().expect("socket load client panicked")).collect();
        (run_start.elapsed(), outcomes)
    });
    let mut merged: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut retries = RetryStats::default();
    let mut late = 0u64;
    for outcome in outcomes {
        let mut outcome = outcome?;
        for (name, samples) in std::mem::take(&mut outcome.samples) {
            merged.entry(name).or_default().extend(samples);
        }
        retries.merge(&outcome.retries);
        late += outcome.late;
    }

    let mut per_query = Vec::new();
    let mut total_requests = 0u64;
    for w in &workloads {
        let mut samples = merged.remove(w.name).unwrap_or_default();
        samples.sort_unstable();
        total_requests += samples.len() as u64;
        let mean_us = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64
        };
        per_query.push(QueryStats {
            name: w.name,
            requests: samples.len() as u64,
            mean_us,
            p50_us: nearest_rank(&samples, 50.0) as f64,
            p95_us: nearest_rank(&samples, 95.0) as f64,
            p99_us: nearest_rank(&samples, 99.0) as f64,
        });
    }

    let secs = wall.as_secs_f64();
    Ok(NetLoadReport {
        options,
        per_query,
        total_requests,
        busy_retries: retries.busy_retries,
        retry_backoff: retries.backoff,
        late_arrivals: late,
        wall,
        throughput_qps: if secs > 0.0 { total_requests as f64 / secs } else { 0.0 },
    })
}
