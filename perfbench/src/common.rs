//! Pieces every workload shares: the pinned configuration, seeded
//! inputs, answer checksums, percentiles, the span recorder and the
//! metric sink.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use xmlpub::{
    Config, Database, EngineConfig, ExecStats, OpProfile, PartitionStrategy, Relation, Result,
    Tuple,
};
use xmlpub_engine::{execute_analyzed, execute_with_stats};
use xmlpub_server::{CacheCounters, Server, ServerConfig};
use xmlpub_tpch::{TpchConfig, TpchGenerator};
use xmlpub_xml::souq::sorted_outer_union;
use xmlpub_xml::{StreamingTagger, XmlView};

/// Rows per engine batch.
pub const BATCH_SIZE: usize = 1024;
/// Engine threads per request. This equals the server's per-request cap
/// on a 2-core host, so no workload exercises intra-query parallelism.
pub const DOP: usize = 1;
/// Worker threads in the server pool.
pub const POOL_WORKERS: usize = 2;
/// Plans the shared plan cache holds.
pub const PLAN_CACHE_CAPACITY: usize = 64;
/// How many times setup runs per benchmark run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Environment variables that change engine or observability defaults
/// behind the benchmark's back (`XMLPUB_DOP` is read by the engine's
/// default dop, for example). The benchmark refuses to run under them.
pub const FORBIDDEN_ENV: [&str; 5] =
    ["XMLPUB_DOP", "XMLPUB_CHECK_PROPS", "XMLPUB_TRACE", "XMLPUB_TRACE_FILE", "XMLPUB_METRICS"];

/// The engine configuration every request and every replayed layer call
/// runs with. Every field is set, none is left to its default.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        partition_strategy: PartitionStrategy::Hash,
        cache_uncorrelated_apply: true,
        memoize_correlated_apply: true,
        batch_size: BATCH_SIZE,
        profile_ops: false,
        dop: DOP,
        check_props: false,
    }
}

/// The session configuration: default optimizer rules, pinned engine.
pub fn session_config() -> Config {
    Config { engine: engine_config(), ..Config::default() }
}

/// The server configuration. `dop_budget = workers * DOP` pins the
/// per-request dop cap to `DOP` instead of deriving it from the host.
pub fn server_config(metrics_enabled: bool) -> ServerConfig {
    ServerConfig {
        workers: POOL_WORKERS,
        queue_depth: 64,
        plan_cache_capacity: PLAN_CACHE_CAPACITY,
        dop_budget: POOL_WORKERS * DOP,
        slow_query_us: 0,
        slow_query_capacity: 32,
        metrics_enabled,
        defaults: session_config(),
    }
}

/// A database generated from the TPC-H generator with the run's seed:
/// the three core tables, or all of them when `full`.
pub fn tpch_database(scale: f64, seed: u64, full: bool) -> Result<Database> {
    let generator = TpchGenerator::new(TpchConfig { scale, seed, skew: 0.0 });
    let catalog = if full { generator.catalog()? } else { generator.core_catalog()? };
    let mut db = Database::from_catalog(catalog);
    *db.config_mut() = session_config();
    Ok(db)
}

/// A server over a freshly generated database.
pub fn tpch_server(scale: f64, seed: u64, full: bool, metrics: bool) -> Result<Server> {
    Ok(Server::new(tpch_database(scale, seed, full)?, server_config(metrics)))
}

/// A small deterministic generator (splitmix64) for workload choices
/// derived from the seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// A query answer reduced to what the benchmark compares: the row count
/// and an order-insensitive checksum of the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: usize,
    pub checksum: u64,
}

impl Answer {
    pub fn of(rel: &Relation) -> Answer {
        Answer::of_rows(rel.rows())
    }

    pub fn of_rows(rows: &[Tuple]) -> Answer {
        let checksum = rows.iter().fold(0u64, |acc, row| {
            let mut h = DefaultHasher::new();
            row.hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        Answer { rows: rows.len(), checksum }
    }
}

/// How one checked operation went.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Errors, refusals (BUSY or shed) and wrong answers.
    pub failed: u64,
    /// Wrong answers alone; any of these makes the run exit non-zero.
    pub wrong: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn error(&mut self, what: &str, e: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: {what} failed: {e}");
    }

    pub fn wrong(&mut self, what: &str, detail: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        eprintln!("perfbench: wrong answer from {what}: {detail}");
    }

    /// Count one operation whose answer was compared with its reference.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got == want {
            self.ok();
        } else {
            self.wrong(what, format!("got {got:?}, want {want:?}"));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 for an
/// empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Replay a full publish of `view` through the layers' entry points:
/// optimize its sorted outer union, execute it, then tag the
/// materialized rows with `StreamingTagger`. Returns the document and the
/// time spent executing and tagging.
pub fn replay_publish(
    db: &Database,
    view: &XmlView,
    tracer: &mut Tracer,
    layers: &mut LayerSamples,
    round: &mut RoundCounts,
) -> Result<(Vec<u8>, Duration)> {
    let catalog = db.catalog();
    let engine = engine_config();
    let sou = sorted_outer_union(view)?;
    let (optimized, _) = tracer.time("optimizer.optimize", || db.optimize_plan(sou.plan.clone()));
    let (plan, _) = optimized?;
    let (res, exec) =
        tracer.time("engine.execute_with_stats", || execute_with_stats(&plan, catalog, &engine));
    let (rel, stats) = res?;
    round.add(&stats);
    layers.push("publish.exec_ms", ms(exec));
    let (doc, tag) = tracer.time("xml.streaming_tagger", || -> Result<Vec<u8>> {
        let mut tagger = StreamingTagger::new(Vec::new(), &sou.tag_plan, false);
        for row in rel.rows() {
            tagger.write_row(row)?;
        }
        tagger.finish()
    });
    let doc = doc?;
    layers.push("xml.tag_ms", ms(tag));
    layers.push("xml.tag_mb_per_s", doc.len() as f64 / 1e6 / tag.as_secs_f64());
    let (res, _) =
        tracer.time("engine.execute_analyzed", || execute_analyzed(&plan, catalog, &engine));
    round.add_profiles(&res?.2);
    Ok((doc, exec + tag))
}

/// Plan-cache hits over lookups between two counter snapshots.
pub fn hit_ratio(before: &CacheCounters, after: &CacheCounters) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    hits / (hits + misses).max(1.0)
}

/// `part / whole` as a percentage; 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// What setup cost.
pub struct SetupCost {
    /// Median duration of the [`SETUP_REPEATS`] setups.
    pub seconds: f64,
    /// The heap high-water mark once they are done. Every operation type
    /// has run by then (reference answers and warm-up), and unlike a
    /// mark taken at the end of the run it does not depend on how
    /// concurrent requests happened to overlap.
    pub peak_heap_mb: f64,
}

/// Run `setup` [`SETUP_REPEATS`] times, dropping each state before the
/// next is built, and return the last state with its cost.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> Result<S>) -> Result<(S, SetupCost)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let cost = SetupCost { seconds: median(&times), peak_heap_mb: peak_heap_mb() };
    Ok((state.expect("SETUP_REPEATS >= 1"), cost))
}

/// One timed call into a layer's public entry point.
pub struct Span {
    /// The workload operation the call belongs to.
    pub op: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Records spans in memory; they are written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), op: 0 }
    }

    /// Start attributing spans to the next workload operation.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Time `f`, record it as a span named `name`, and return its result
    /// with the elapsed time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.spans.push(Span {
            op: self.op,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        (out, dur)
    }

    /// Record a span measured elsewhere.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            op: self.op,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.op, s.name, s.start_ns, s.dur_ns
            )?;
        }
        Ok(())
    }
}

/// Metric values by name, with their units.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.values.iter()
    }
}

/// Samples of per-layer quantities, reduced to medians at the end.
#[derive(Default)]
pub struct LayerSamples {
    samples: BTreeMap<String, Vec<f64>>,
}

impl LayerSamples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map(|s| median(s)).unwrap_or(0.0)
    }
}

/// The operator kinds `engine.op_self_ms.<kind>` reports, and the
/// physical operator labels each one covers.
pub const OP_KINDS: [&str; 10] = [
    "scan",
    "filter",
    "project",
    "hash_join",
    "aggregate",
    "sort",
    "distinct",
    "union_all",
    "apply",
    "gapply",
];

/// The position in [`OP_KINDS`] of an operator profile label's kind.
fn op_kind(label: &str) -> Option<usize> {
    let kind = match label.split(['(', '[']).next().unwrap_or(label) {
        "TableScan" | "GroupScan" => "scan",
        "Filter" => "filter",
        "Project" => "project",
        "HashJoin" | "NestedLoopJoin" => "hash_join",
        "HashAggregate" | "ScalarAggregate" => "aggregate",
        "Sort" => "sort",
        "HashDistinct" => "distinct",
        "UnionAll" => "union_all",
        "Apply" | "Exists" | "NotExists" => "apply",
        "GApply" => "gapply",
        _ => return None,
    };
    OP_KINDS.iter().position(|k| *k == kind)
}

/// Engine counters and operator self times summed over one round.
#[derive(Default)]
pub struct RoundCounts {
    stats: ExecStats,
    op_self_ns: [u64; OP_KINDS.len()],
}

impl RoundCounts {
    pub fn add(&mut self, stats: &ExecStats) {
        self.stats.merge(stats);
    }

    pub fn add_profiles(&mut self, profiles: &[OpProfile]) {
        for p in profiles {
            if let Some(k) = op_kind(&p.label) {
                self.op_self_ns[k] += p.self_ns();
            }
        }
    }

    /// Push the round's totals as one sample each and reset.
    pub fn flush(&mut self, layers: &mut LayerSamples) {
        let s = &self.stats;
        layers.push("engine.rows_hashed", s.rows_hashed as f64);
        layers.push("engine.join_probes", s.join_probes as f64);
        layers.push("engine.rows_sorted", s.rows_sorted as f64);
        layers.push("engine.groups_processed", s.groups_processed as f64);
        layers.push("engine.pgq_executions", s.pgq_executions as f64);
        for (k, kind) in OP_KINDS.iter().enumerate() {
            layers.push(format!("engine.op_self_ms.{kind}"), self.op_self_ns[k] as f64 / 1e6);
        }
        *self = RoundCounts::default();
    }
}

/// The global allocator of the benchmark process: the system allocator,
/// plus a count of live heap bytes and their high-water mark.
///
/// `peak_heap_mb` comes from this count and not from the resident set
/// size: `VmHWM` varied between 38 and 54 MB across runs of one seed of
/// `fig8_query`, depending on how much freed memory glibc's per-thread
/// arenas kept, while the live-byte peak of a closed loop repeats.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Each thread publishes its allocation balance to the shared counters
/// only once it has moved by this many bytes, so the counters cost two
/// contended atomics per 16 KiB of churn instead of per allocation (per
/// allocation they slowed `fig8_query` by a fifth). The peak is exact to
/// within this amount per thread.
const FLUSH_BYTES: isize = 16 * 1024;

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn flush(bytes: isize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn account(bytes: isize) {
    // A thread that is being torn down has no thread-local left; its
    // bytes go straight to the shared counters.
    let spilled = PENDING.try_with(|p| {
        let v = p.get() + bytes;
        if v.abs() >= FLUSH_BYTES {
            p.set(0);
            flush(v);
        } else {
            p.set(v);
        }
    });
    if spilled.is_err() {
        flush(bytes);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, since
        // every allocation of this allocator is.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` obligations pass through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// The high-water mark of live heap bytes so far, in MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
