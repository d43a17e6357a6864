//! `xmlpub-loadgen` — headless load driver and concurrent smoke test,
//! in process or over TCP.
//!
//! ```text
//! # in process, closed loop:
//! cargo run --release -p xmlpub-net --bin xmlpub-loadgen -- \
//!     --scale 0.005 --workers 8 --clients 8 --requests 400 [--cold] [--verify]
//!
//! # open loop over a socket (hosts its own TCP server on `auto`):
//! cargo run --release -p xmlpub-net --bin xmlpub-loadgen -- \
//!     --connect auto --workers 2 --dop 2 --clients 4 --requests 200 \
//!     --rate 200 [--verify]
//!
//! # open loop against an already-running server:
//! cargo run --release -p xmlpub-net --bin xmlpub-loadgen -- \
//!     --connect 127.0.0.1:7878 --clients 4 --requests 200 --rate 200
//! ```
//!
//! Every target runs the same driver (`xmlpub_net::load`): `--requests`
//! is the total across clients, `--rate R` makes it an open loop at `R`
//! requests/s (closed loop without it), latency runs from each request's
//! due time, and `--dop` sets the hosted server's per-request GApply
//! dop. `--update-mix R` adds a writer thread making `R` updates per
//! completed request (rename a supplier, republish the Figure 1 view);
//! it mutates the server in this process, so over a socket it needs
//! `--connect auto`.
//!
//! `--verify` is the differential mode CI runs: every answer must match
//! serial execution over the same (deterministic) TPC-H data — relations
//! for the five Figure 8 queries, byte-identical XML for `supplier_parts`
//! compact and pretty — and, for a server in this process, the metrics
//! exposition must parse back and account for every request, and after
//! an update mix a final incremental republish must equal a full
//! recompute. With `--connect auto` the run also drains the server it
//! hosts and exits non-zero unless the drain was clean.

use std::net::SocketAddr;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use xmlpub::Database;
use xmlpub_net::load::{verify_fig8, verify_metrics, verify_republish};
use xmlpub_net::{run_fig8, LoadOptions, NetConfig, NetServer, Target};
use xmlpub_server::{Server, ServerConfig};

const USAGE: &str = "usage: xmlpub-loadgen [--scale F] [--workers N] [--queue-depth N] \
                     [--dop N] [--clients N] [--requests N] [--rate R] [--update-mix R] \
                     [--cold] [--verify] [--connect ADDR|auto]";

fn num_arg<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, what: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{what} needs a number");
        exit(2);
    })
}

/// Print `what: error` and exit 1 when a check failed.
fn check<T>(what: &str, result: xmlpub_common::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        exit(1);
    })
}

fn main() {
    let mut scale = 0.005f64;
    let mut workers = 4usize;
    let mut queue_depth = 64usize;
    let mut dop = 1usize;
    let mut options = LoadOptions::default();
    let mut verify = false;
    let mut connect: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = num_arg(&mut args, "--scale"),
            "--workers" => workers = num_arg(&mut args, "--workers"),
            "--queue-depth" => queue_depth = num_arg(&mut args, "--queue-depth"),
            "--dop" => dop = num_arg::<usize>(&mut args, "--dop").max(1),
            "--clients" => options.clients = num_arg(&mut args, "--clients"),
            "--requests" => options.requests = num_arg(&mut args, "--requests"),
            "--rate" => options.rate = Some(num_arg(&mut args, "--rate")),
            "--update-mix" => {
                options.update_mix = num_arg::<f64>(&mut args, "--update-mix").clamp(0.0, 1.0)
            }
            "--cold" => options.warm = false,
            "--verify" => verify = true,
            "--connect" => {
                connect = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--connect needs an address (or 'auto')");
                    exit(2);
                }))
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                exit(2);
            }
        }
    }

    // The target: a server in this process (in-process or `auto`), or a
    // remote address.
    let remote: Option<SocketAddr> = match connect.as_deref() {
        None | Some("auto") => None,
        Some(addr) => Some(addr.parse().unwrap_or_else(|_| {
            eprintln!("--connect: '{addr}' is not a socket address");
            exit(2);
        })),
    };
    let server = remote.is_none().then(|| {
        eprintln!("generating TPC-H at scale {scale}...");
        let db = Database::tpch(scale).expect("generate TPC-H");
        let mut defaults = db.config();
        defaults.engine.dop = dop;
        Arc::new(Server::new(
            db,
            ServerConfig { workers, queue_depth, defaults, ..ServerConfig::default() },
        ))
    });
    let net = server.as_ref().filter(|_| connect.is_some()).map(|server| {
        let net =
            NetServer::start(Arc::clone(server), NetConfig::default()).expect("start TCP server");
        eprintln!(
            "serving on {} ({workers} workers, dop {dop}, queue depth {queue_depth})",
            net.local_addr()
        );
        net
    });
    let target = match (remote, &net, server.as_deref()) {
        (Some(addr), _, _) => Target::Socket { addr, host: None },
        (None, Some(net), host) => Target::Socket { addr: net.local_addr(), host },
        (None, None, Some(server)) => Target::InProcess(server),
        (None, None, None) => unreachable!("no remote address implies a hosted server"),
    };

    if verify {
        eprintln!("verifying answers against serial execution...");
        let reference = Database::tpch(scale).expect("generate TPC-H");
        check("DIVERGENCE", verify_fig8(target, &reference));
        eprintln!("verify ok: 5 workloads + publish (compact & pretty) match serial execution");
    }

    let report = check("load run failed", run_fig8(target, options));
    println!("{report}");

    if let Some(server) = &server {
        println!("{}", server.stats());
        print!("{}", server.metrics_text());
        if verify {
            check("METRICS", verify_metrics(server, &report));
            eprintln!("metrics ok: every request accounted for in the exposition");
            if options.update_mix > 0.0 {
                check("REPUBLISH", verify_republish(server, &report));
                eprintln!(
                    "republish ok: {} updates under load ({} incremental), final document \
                     byte-identical to full recompute",
                    report.updates, report.incremental_republishes
                );
            }
        }
    }
    if let Some(net) = net {
        let drain = net.drain(Duration::from_secs(10));
        if !drain.drained || drain.aborted > 0 {
            eprintln!("DRAIN: not clean: {drain:?}");
            exit(1);
        }
        eprintln!("drain ok: all connections closed gracefully");
    }
}
