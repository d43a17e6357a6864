//! The xmlpub benchmark: runs one named workload through the public API
//! of the publishing stack and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig8_query --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload once untraced and once traced and reports the per-layer
//! metrics. See README.md for the workloads and the metric map.

mod churn;
mod common;
mod fig8;
mod report;
mod wire;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

use std::io::Write;
use std::path::Path;

use common::{percentile, repeated_setup, LayerSamples, Metrics, Tally, Tracer};
use report::{per_layer_catalogue, Phase, END_TO_END};
use xmlpub::Result;

const USAGE: &str =
    "usage: perfbench --workload <fig8_query|publish_churn|wire_mixed> --seed <n> --seconds <s> --trace <0|1>";

/// Where each run leaves its configuration record, result and spans.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload run produced.
struct Run {
    tally: Tally,
    metrics: Metrics,
    params: Vec<(&'static str, String)>,
    tracer: Option<Tracer>,
}

/// Per-layer metrics: the median of each layer's samples from the traced
/// phase, and the trace overhead on the workload's median latency.
fn traced_metrics(plain: &Phase, traced: &Phase, layers: &LayerSamples) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in per_layer_catalogue() {
        let v = layers.median(&name);
        m.set(name, v, unit);
    }
    let p_plain = percentile(&plain.lat_ms, 0.5);
    let p_traced = percentile(&traced.lat_ms, 0.5);
    m.set("bench.trace_overhead_pct", common::pct(p_traced - p_plain, p_plain), "%");
    m
}

fn run(args: &Args) -> Result<Run> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut layers = LayerSamples::default();
    let secs = args.seconds;
    // A traced run measures untraced for half the time only: that phase
    // just anchors `bench.trace_overhead_pct`.
    let plain_secs = if args.trace { secs / 2.0 } else { secs };
    let (mut metrics, setup, params) = match args.workload.as_str() {
        "fig8_query" => {
            let (w, setup) = repeated_setup(|| fig8::Fig8::setup(args.seed))?;
            let plain = w.measure(plain_secs, &mut tally);
            let metrics = if args.trace {
                let traced = w.measure_traced(secs, &mut tally, &mut tracer, &mut layers)?;
                let mut m = traced_metrics(&plain, &traced, &layers);
                fig8::speedups(&layers, &mut m);
                m
            } else {
                let mut m = Metrics::default();
                plain.end_to_end(fig8::ROUND, &mut m);
                m
            };
            (metrics, setup, fig8::params())
        }
        "publish_churn" => {
            let (mut w, setup) = repeated_setup(|| churn::Churn::setup(args.seed))?;
            let plain = w.measure(plain_secs, &mut tally)?;
            let metrics = if args.trace {
                let traced = w.measure_traced(secs, &mut tally, &mut tracer, &mut layers)?;
                traced_metrics(&plain, &traced, &layers)
            } else {
                let mut m = Metrics::default();
                plain.end_to_end(churn::PUBLISH_EVERY, &mut m);
                m
            };
            w.final_check(&mut tally)?;
            (metrics, setup, churn::params())
        }
        "wire_mixed" => {
            let (mut w, setup) = repeated_setup(|| wire::Wire::setup(args.seed))?;
            let plain = w.measure(plain_secs, wire::LOAD, &mut tally)?;
            let metrics = if args.trace {
                let traced = w.measure_traced(secs, &mut tally, &mut tracer, &mut layers)?;
                traced_metrics(&plain.phase, &traced.phase, &layers)
            } else {
                let mut m = Metrics::default();
                wire::end_to_end(&plain, &mut m);
                m
            };
            w.shutdown()?;
            (metrics, setup, wire::params())
        }
        other => return Err(xmlpub::Error::exec(format!("unknown workload {other:?}"))),
    };
    if !args.trace {
        metrics.set("setup_s", setup.seconds, "s");
        metrics.set("peak_heap_mb", setup.peak_heap_mb, "MB");
        let ok = tally.attempted.saturating_sub(tally.failed) as f64;
        metrics.set("ok_ratio", ok / tally.attempted.max(1) as f64, "fraction");
    }
    Ok(Run { tally, metrics, params, tracer: args.trace.then_some(tracer) })
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `unknown` outside a git repository.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn config_record(args: &Args, params: &[(&'static str, String)]) -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let mut fields = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", args.trace),
        format!("\"host_cores\": {cores}"),
        format!("\"build_profile\": \"{profile}\""),
        format!("\"commit\": \"{}\"", commit()),
        format!("\"dop\": {}", common::DOP),
        format!("\"batch_size\": {}", common::BATCH_SIZE),
        format!("\"pool_workers\": {}", common::POOL_WORKERS),
        format!("\"plan_cache_capacity\": {}", common::PLAN_CACHE_CAPACITY),
        format!("\"setup_repeats\": {}", common::SETUP_REPEATS),
    ];
    fields.extend(params.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")));
    format!("{{{}}}", fields.join(", "))
}

/// Write the configuration record, the result and (traced runs) the
/// spans under [`OUT_DIR`].
fn write_outputs(args: &Args, record: &str, line: &str, tracer: Option<&Tracer>) {
    let stem =
        format!("{OUT_DIR}/{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        std::fs::write(
            format!("{stem}.json"),
            format!("{{\"config\": {record}, \"result\": {line}}}\n"),
        )?;
        if let Some(t) = tracer {
            let mut f =
                std::io::BufWriter::new(std::fs::File::create(format!("{stem}.spans.jsonl"))?);
            t.write_jsonl(&mut f)?;
            f.flush()?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("perfbench: could not write {stem}.*: {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(var) = common::FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; it changes what is measured");
        std::process::exit(2);
    }
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let record = config_record(&args, &run.params);
    eprintln!("perfbench config: {record}");
    let metrics = if args.trace {
        report::complete(run.metrics, &per_layer_catalogue())
    } else {
        let catalogue: Vec<(String, &'static str)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        report::complete(run.metrics, &catalogue)
    };
    let correct = run.tally.wrong == 0;
    let line = report::result_line(correct, run.tally.attempted, run.tally.failed, &metrics);
    write_outputs(&args, &record, &line, run.tracer.as_ref());
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
