//! Sessions: the per-client face of the service.
//!
//! A [`Session`] is cheap to open and owns nothing shared: a clone of the
//! server's default [`Config`] (override freely — `batch_size`, rule
//! flags, `skip_optimizer` — without affecting other clients), a handle
//! for submitting work to the bounded pool, and a private map of
//! prepared statements. Planning — parse, bind, optimize — happens on
//! the *client* thread through the shared [`PlanCache`]; only execution
//! is shipped to a worker, so a shed request costs no planning work and
//! a cache hit skips planning entirely. What runs there is the same
//! [`Pipeline`] a [`Database`] request runs through — the session adds
//! only its cache, the pool hop, prepared statements, the
//! published-document cache and its request accounting.

use std::collections::{BTreeMap, HashMap};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use xmlpub::{analyze_report, Answer, Config, Database, Pipeline, TaggedPlan};
use xmlpub_algebra::LogicalPlan;
use xmlpub_common::{Error, Relation, Result};
use xmlpub_engine::{dirty_keys, ExecStats, ObsContext, TableDeltas};
use xmlpub_obs::{saturating_us_since, MetricsHandle};
use xmlpub_xml::souq::{sorted_outer_union, sorted_outer_union_for_keys, SortedOuterUnion};
use xmlpub_xml::view::XmlView;

use crate::cache::{cache_key, CachedPlan};
use crate::incremental::{self, RepublishOutcome, SegmentedDoc};
use crate::pool::PoolHandle;
use crate::ServerShared;

/// Default republish fallback threshold: when more than this fraction
/// of the cached document's root groups is dirty, the splice overhead
/// is no longer worth it and [`Session::republish`] recomputes from
/// scratch. Tunable per session via
/// [`Session::set_republish_threshold`].
pub const DEFAULT_REPUBLISH_DIRTY_THRESHOLD: f64 = 0.5;

/// A cached published document: the segmented bytes plus the catalog
/// version of every scanned table at build time — the baseline the next
/// republish diffs against.
#[derive(Debug, Clone)]
pub struct PublishedDoc {
    /// The segmented document (header / per-group ranges / footer).
    pub doc: Arc<SegmentedDoc>,
    /// Per-table catalog versions captured *before* the build executed,
    /// so a concurrent writer can only make them stale-low — the next
    /// republish then re-propagates a delta it already absorbed, which
    /// is conservative (extra dirty groups), never wrong.
    pub versions: BTreeMap<String, u64>,
}

/// What a republish worker hands back to the session thread.
enum WorkerOutcome {
    /// No output-visible changes; cached bytes stay valid. Carries the
    /// current versions so the baseline still advances (otherwise a
    /// no-op delta would be re-propagated forever and eventually fall
    /// out of the bounded delta log).
    Clean { versions: BTreeMap<String, u64> },
    /// A new document was built (full recompute or splice).
    Built { doc: SegmentedDoc, versions: BTreeMap<String, u64>, outcome: RepublishOutcome },
}

/// A client connection to a [`crate::Server`].
pub struct Session {
    shared: Arc<ServerShared>,
    pool: PoolHandle,
    config: Config,
    prepared: HashMap<String, Arc<CachedPlan>>,
    /// Per-session metrics registry: the same families as the
    /// server-wide one (`session.*` instead of `server.*`), scoped to
    /// this client's requests.
    metrics: MetricsHandle,
    /// Per-(session, view, pretty) published-document cache for
    /// [`Session::republish`], keyed like the plan cache by the SOU
    /// plan's rendered form.
    published: HashMap<String, PublishedDoc>,
    /// See [`DEFAULT_REPUBLISH_DIRTY_THRESHOLD`].
    republish_threshold: f64,
}

impl Session {
    pub(crate) fn new(shared: Arc<ServerShared>, pool: PoolHandle, config: Config) -> Self {
        Session {
            shared,
            pool,
            config,
            prepared: HashMap::new(),
            metrics: MetricsHandle::new_registry(),
            published: HashMap::new(),
            republish_threshold: DEFAULT_REPUBLISH_DIRTY_THRESHOLD,
        }
    }

    /// This session's private metrics registry.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// The observability context session executions run under: the
    /// *server-wide* metrics registry (so engine-level counters
    /// aggregate across sessions) plus the shared database's tracer.
    fn exec_obs(&self) -> ObsContext {
        ObsContext {
            metrics: self.shared.metrics.clone(),
            tracer: self.shared.db.observability().tracer.clone(),
            parent_span: 0,
        }
    }

    /// Fold one finished request into the per-session and server-wide
    /// registries and the shared slow-query log.
    fn observe_request(&self, kind: &str, label: &str, us: u64, rows: u64) {
        self.shared.metrics.add(&format!("server.{kind}.count"), 1);
        self.shared.metrics.record_us(&format!("server.{kind}_us"), us);
        self.metrics.add(&format!("session.{kind}.count"), 1);
        self.metrics.record_us(&format!("session.{kind}_us"), us);
        self.shared.slow.observe(label, us, rows);
    }

    /// This session's configuration.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Override this session's configuration (other sessions and the
    /// server defaults are unaffected). Plans are cached per config
    /// fingerprint, so changing plan-relevant flags mid-session simply
    /// routes to different cache entries.
    pub fn config_mut(&mut self) -> &mut Config {
        &mut self.config
    }

    /// The shared database (read-only).
    pub fn database(&self) -> &Database {
        &self.shared.db
    }

    /// The config a worker actually runs with: the session's, with
    /// `engine.dop` clamped to the server-wide per-request cap so
    /// concurrent requests can't oversubscribe the machine no matter
    /// what a session asks for. The session config itself is untouched,
    /// and dop is not part of any plan-cache key.
    fn exec_config(&self) -> Config {
        let mut config = self.config;
        config.engine.dop = config.engine.dop.min(self.shared.dop_cap).max(1);
        config
    }

    /// Ship one request to a pool worker, where it runs through the
    /// shared [`Pipeline`] under this session's (dop-clamped) config and
    /// the server's observability context.
    fn run_request<T, F>(&self, work: F) -> Result<T>
    where
        T: Send + 'static,
        F: FnOnce(&Pipeline<'_>) -> Result<T> + Send + 'static,
    {
        let config = self.exec_config();
        let obs = self.exec_obs();
        self.run_on_pool(move |shared| work(&shared.db.pipeline(config, obs)))
    }

    /// Plan through the shared cache. Returns the entry and whether it
    /// was a hit.
    fn plan_cached(&self, sql: &str) -> Result<(Arc<CachedPlan>, bool)> {
        let key = cache_key(sql, &self.config);
        self.shared.cache.get_or_build(key.clone(), || {
            let planner = planner(&self.shared, self.config);
            let (plan, firings) = planner.optimize(planner.plan(sql)?)?;
            Ok(CachedPlan { key, plan, firings, tagged: None })
        })
    }

    /// Prepare a statement under `name`: parse, bind and optimize now
    /// (through the shared cache), execute later any number of times.
    /// Returns whether planning was answered from the cache.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<bool> {
        let (plan, hit) = self.plan_cached(sql)?;
        self.prepared.insert(name.to_string(), plan);
        Ok(hit)
    }

    /// The cached plan behind a prepared statement (for inspection and
    /// lint verification via [`CachedPlan::verify`]).
    pub fn prepared_plan(&self, name: &str) -> Option<&Arc<CachedPlan>> {
        self.prepared.get(name)
    }

    /// Run a SQL query: plan through the shared cache, execute on the
    /// worker pool. `stats.plan_cache_hits`/`misses` record how planning
    /// was served for *this* request.
    pub fn execute(&self, sql: &str) -> Result<(Relation, ExecStats)> {
        let (plan, hit) = self.plan_cached(sql)?;
        let (rel, stats, _) = self.execute_cached(plan, hit, sql, false)?;
        Ok((rel, stats))
    }

    /// Execute a previously prepared statement. Planning was done at
    /// prepare time, so this always counts as a plan-cache hit.
    pub fn execute_prepared(&self, name: &str) -> Result<(Relation, ExecStats)> {
        let plan = self
            .prepared
            .get(name)
            .ok_or_else(|| Error::exec(format!("no prepared statement named {name:?}")))?;
        let (rel, stats, _) =
            self.execute_cached(Arc::clone(plan), true, &format!("prepared:{name}"), false)?;
        Ok((rel, stats))
    }

    /// Execute a cached plan on the pool, account for the request, and
    /// stamp how its planning was served.
    fn execute_cached(
        &self,
        plan: Arc<CachedPlan>,
        hit: bool,
        label: &str,
        profile: bool,
    ) -> Result<Answer> {
        let start = Instant::now();
        let (rel, mut stats, profiles) =
            self.run_request(move |pipeline| pipeline.query(&plan.plan, profile))?;
        self.observe_request("query", label, saturating_us_since(start), rel.rows().len() as u64);
        stats.plan_cache_hits = u64::from(hit);
        stats.plan_cache_misses = u64::from(!hit);
        Ok((rel, stats, profiles))
    }

    /// `\explain --analyze` through the service: the optimized plan, the
    /// per-operator breakdown and engine counters — plus the server-side
    /// counters (plan cache, pool) the standalone engine can't know.
    pub fn execute_analyzed(&self, sql: &str) -> Result<(Relation, String)> {
        let (cached, hit) = self.plan_cached(sql)?;
        let (rel, stats, profiles) = self.execute_cached(Arc::clone(&cached), hit, sql, true)?;
        let engine = self.exec_config().engine;
        let mut out = analyze_report(
            &cached.plan,
            &profiles,
            &stats,
            &engine,
            &format!(
                "  dop {} (session {}, server cap {})\n",
                engine.dop, self.config.engine.dop, self.shared.dop_cap
            ),
        );
        let cache = self.shared.cache.counters();
        let pool = self.pool.counters();
        out.push_str(&format!(
            "\n== server counters ==\n  this query: plan cache {}\n  plan cache: {} entries, {} hits, {} misses, {} evictions\n  pool: {} admitted, {} executed, {} shed, {} panicked, {} in queue\n",
            if hit { "hit" } else { "miss" },
            cache.entries,
            cache.hits,
            cache.misses,
            cache.evictions,
            pool.admitted,
            pool.executed,
            pool.shed,
            pool.panicked,
            pool.in_queue
        ));
        Ok((rel, out))
    }

    /// Publish an XML view through the service: the sorted-outer-union
    /// plan goes through the shared cache (keyed by the plan's rendered
    /// form — views have no SQL text) and a worker streams batches
    /// straight into the tagger, so even concurrent publishes hold at
    /// most one batch plus the open-element stack per request.
    pub fn publish(&self, view: &XmlView, pretty: bool) -> Result<String> {
        let (bytes, _rows, _stats) = self.publish_to(view, pretty, Vec::new())?;
        Ok(String::from_utf8(bytes).expect("tagger emits UTF-8 only"))
    }

    /// Publish an XML view straight into an arbitrary sink: the worker
    /// thread writes tagged XML into `sink` as batches stream out of the
    /// engine, so the full document is never materialised. This is how
    /// the network layer streams XML to a socket — the sink there wraps
    /// a `TcpStream` and flushes chunk frames as the tagger produces
    /// bytes. Returns the sink, the number of tagged rows, and the
    /// request's engine counters (so transports can report real stats,
    /// e.g. in an `End` frame).
    ///
    /// The sink crosses onto a pool worker, hence `Send + 'static`; the
    /// calling thread blocks until the request finishes, so a sink
    /// borrowing from the *connection* (via clones/Arcs) sees no
    /// concurrent use.
    pub fn publish_to<W>(
        &self,
        view: &XmlView,
        pretty: bool,
        sink: W,
    ) -> Result<(W, u64, ExecStats)>
    where
        W: std::io::Write + Send + 'static,
    {
        let sou = sorted_outer_union(view)?;
        let (cached, hit) = publish_plan_cached(&self.shared, self.config, &sou)?;
        let start = Instant::now();
        let (sink, rows, mut stats) =
            self.run_request(move |pipeline| pipeline.publish(tagged(&cached), pretty, sink))?;
        self.observe_request("publish", "publish", saturating_us_since(start), rows);
        stats.plan_cache_hits = u64::from(hit);
        stats.plan_cache_misses = u64::from(!hit);
        Ok((sink, rows, stats))
    }

    /// The republish fallback threshold (fraction of dirty root groups
    /// beyond which a full recompute is cheaper than splicing).
    pub fn republish_threshold(&self) -> f64 {
        self.republish_threshold
    }

    /// Override the republish fallback threshold for this session.
    /// `0.0` forces a full recompute whenever anything changed (useful
    /// as a baseline); `1.0` never falls back on dirty fraction alone.
    pub fn set_republish_threshold(&mut self, threshold: f64) {
        self.republish_threshold = threshold.clamp(0.0, 1.0);
    }

    /// Cached published documents this session holds (one per
    /// (view, pretty) republished so far).
    pub fn published_doc_count(&self) -> usize {
        self.published.len()
    }

    /// The cached published document for `view`/`pretty`, if any.
    pub fn published_doc(&self, view: &XmlView, pretty: bool) -> Option<&PublishedDoc> {
        let sou = sorted_outer_union(view).ok()?;
        self.published.get(&published_doc_key(&sou.plan, pretty))
    }

    /// Publish `view` incrementally: diff the catalog against the
    /// version baseline of this session's cached document, re-tag only
    /// the root groups the deltas may have touched through a
    /// key-restricted sorted-outer-union, and splice the clean groups'
    /// bytes verbatim (see [`crate::incremental`]). Falls back to a
    /// full segmented recompute — never to a wrong answer — when there
    /// is no cached document yet, the bounded delta log has trimmed
    /// past the baseline, delta propagation cannot handle the plan
    /// shape, or the dirty fraction exceeds
    /// [`Session::republish_threshold`].
    ///
    /// The returned document is byte-identical to what
    /// [`Session::publish`] would produce at the same catalog state.
    pub fn republish(
        &mut self,
        view: &XmlView,
        pretty: bool,
    ) -> Result<(String, RepublishOutcome)> {
        let sou = sorted_outer_union(view)?;
        let doc_key = published_doc_key(&sou.plan, pretty);
        let tables: Vec<String> = incremental::scan_tables(&sou.plan).into_iter().collect();
        let cached = self.published.get(&doc_key).cloned();
        let threshold = self.republish_threshold;
        let config = self.exec_config();
        let obs = self.exec_obs();
        let worker_view = view.clone();
        let start = Instant::now();
        let worked = self.run_on_pool(move |shared| {
            let mut span = obs.tracer.span("republish", obs.parent_span, &[]);
            let pipeline = shared.db.pipeline(config, obs.under(span.id()));
            let republish = Republish {
                shared,
                pipeline: &pipeline,
                config,
                view: &worker_view,
                sou,
                pretty,
                tables: &tables,
            };
            let out = republish.run(cached, threshold)?;
            if let WorkerOutcome::Built { doc, outcome, .. } = &out {
                span.annotate("rows", &doc.rows().to_string());
                span.annotate("outcome", &outcome.to_string());
            }
            Ok(out)
        })?;
        let (bytes, rows, outcome) = match worked {
            WorkerOutcome::Clean { versions } => {
                let entry = self
                    .published
                    .get_mut(&doc_key)
                    .expect("clean republish implies a cached document");
                entry.versions = versions;
                (entry.doc.bytes.clone(), entry.doc.rows(), RepublishOutcome::Clean)
            }
            WorkerOutcome::Built { doc, versions, outcome } => {
                let rows = doc.rows();
                let bytes = doc.bytes.clone();
                self.published.insert(doc_key, PublishedDoc { doc: Arc::new(doc), versions });
                (bytes, rows, outcome)
            }
        };
        self.observe_request("republish", "republish", saturating_us_since(start), rows);
        let count = |name: &str, n: u64| {
            self.shared.metrics.add(&format!("server.republish.{name}"), n);
            self.metrics.add(&format!("session.republish.{name}"), n);
        };
        match &outcome {
            RepublishOutcome::Full { reason } => {
                count("fallback.count", 1);
                count(&format!("fallback.{reason}"), 1);
            }
            RepublishOutcome::Clean => count("clean.count", 1),
            RepublishOutcome::Incremental { dirty_groups, spliced_groups } => {
                count("incremental.count", 1);
                count("dirty_groups", *dirty_groups as u64);
                count("spliced_groups", *spliced_groups as u64);
            }
        }
        Ok((String::from_utf8(bytes).expect("tagger emits UTF-8 only"), outcome))
    }

    /// Ship `work` to the pool and wait for its result. The closure runs
    /// on a worker thread against the shared state; admission-control
    /// shedding surfaces here as an [`Error`] carrying
    /// [`crate::SHED_MSG`].
    fn run_on_pool<T, F>(&self, work: F) -> Result<T>
    where
        T: Send + 'static,
        F: FnOnce(&ServerShared) -> Result<T> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let shared = Arc::clone(&self.shared);
        if let Err(e) = self.pool.submit(Box::new(move || {
            // The client may have given up; a closed channel is fine.
            let _ = tx.send(work(&shared));
        })) {
            self.shared.metrics.add("server.shed.count", 1);
            self.metrics.add("session.shed.count", 1);
            return Err(e);
        }
        rx.recv().map_err(|_| {
            Error::exec("worker dropped the request (job panicked or server shutting down)")
        })?
    }
}

/// The pipeline sessions plan through: the session's config, no
/// observation — planning happens once per cache entry, and a session's
/// accounting is `server.*`/`session.*`, not the optimizer's metrics.
fn planner(shared: &ServerShared, config: Config) -> Pipeline<'_> {
    shared.db.pipeline(config, ObsContext::disabled())
}

/// The checked plan of a publish cache entry.
fn tagged(entry: &CachedPlan) -> &TaggedPlan {
    entry.tagged.as_ref().expect("publish cache entries are built by publish_plan_cached")
}

/// Plan a view's sorted outer union through the shared cache. A miss
/// optimizes and runs the tagger-safety check once; every hit reuses
/// the checked plan. `publish` and the full republish stage share
/// entries. "\u{1}publish" cannot collide with any normalized SQL key,
/// and the explain text pins the exact bound plan (tables, join
/// columns, projected fields).
fn publish_plan_cached(
    shared: &ServerShared,
    config: Config,
    sou: &SortedOuterUnion,
) -> Result<(Arc<CachedPlan>, bool)> {
    let key = format!(
        "\u{1}publish\u{1f}{}\u{1f}{:?}\u{1f}{}",
        sou.plan.explain(),
        config.optimizer,
        config.skip_optimizer
    );
    shared.cache.get_or_build(key.clone(), || {
        let (tagged, firings) = planner(shared, config).publish_plan(sou.clone())?;
        Ok(CachedPlan { key, plan: tagged.plan().clone(), firings, tagged: Some(tagged) })
    })
}

/// Cache key for a published document. `\u{2}doc` cannot collide with
/// SQL keys or `\u{1}publish` plan keys; the explain text pins the
/// bound plan and `pretty` changes the bytes, so it is part of the key.
fn published_doc_key(plan: &LogicalPlan, pretty: bool) -> String {
    format!("\u{2}doc\u{1f}{}\u{1f}{pretty}", plan.explain())
}

/// One republish request on a pool worker. See [`Session::republish`]
/// for the policy; [`Republish::run`] implements it: capture versions →
/// collect deltas → propagate to dirty root keys → threshold check →
/// restricted re-tag → splice — with a full segmented recompute at
/// every exit where incremental maintenance is unavailable.
struct Republish<'a> {
    shared: &'a ServerShared,
    /// Executes both stages, under the `republish` span.
    pipeline: &'a Pipeline<'a>,
    /// The session's config (dop clamped), for planning.
    config: Config,
    view: &'a XmlView,
    sou: SortedOuterUnion,
    pretty: bool,
    tables: &'a [String],
}

impl Republish<'_> {
    fn run(&self, cached: Option<PublishedDoc>, threshold: f64) -> Result<WorkerOutcome> {
        let catalog = self.shared.db.catalog();
        // Capture versions BEFORE reading any data: a concurrent writer
        // can only make the recorded baseline older than the rows the
        // build sees, so the next republish re-propagates a delta this
        // document already absorbed — conservative, never a missed
        // update.
        let mut versions = BTreeMap::new();
        for t in self.tables {
            versions.insert(t.clone(), catalog.version(t)?);
        }

        let Some(prev) = cached else {
            return self.full(versions, "first-publish");
        };
        let mut deltas = TableDeltas::new();
        for t in self.tables {
            let since = prev.versions.get(t).copied().unwrap_or(0);
            match catalog.deltas_since(t, since)? {
                // The bounded log no longer reaches back to the baseline.
                None => return self.full(versions, "delta-log-trimmed"),
                Some(batches) => {
                    for batch in batches {
                        deltas.add(t, batch);
                    }
                }
            }
        }
        if deltas.is_empty() {
            return Ok(WorkerOutcome::Clean { versions });
        }

        let sou = &self.sou;
        let root_keys = sou.tag_plan.root_key_cols();
        let dirty = match dirty_keys(&sou.plan, root_keys, catalog, &self.config.engine, &deltas) {
            Ok(Some(keys)) => keys,
            // Plan shape the propagator doesn't handle (or propagation
            // failed): recompute rather than guess.
            Ok(None) | Err(_) => return self.full(versions, "unsupported-plan"),
        };
        if dirty.is_empty() {
            // Deltas exist but touch no output row (e.g. filtered out);
            // the document is unchanged — just advance the baseline.
            return Ok(WorkerOutcome::Clean { versions });
        }
        let total_groups = prev.doc.segments.len().max(1);
        if dirty.len() as f64 / total_groups as f64 > threshold {
            return self.full(versions, "dirty-fraction");
        }

        // The incremental path proper: re-tag only the dirty groups
        // through the key-restricted SOU (planned and checked per
        // request, deliberately NOT plan-cached — the key list churns
        // every republish), then splice.
        let restricted = sorted_outer_union_for_keys(self.view, &dirty)?;
        let (plan, _) = planner(self.shared, self.config).publish_plan(restricted)?;
        let fresh = self.pipeline.publish_segmented(&plan, self.pretty)?;
        let doc = incremental::splice(&prev.doc, &dirty, &fresh);
        let spliced_groups = doc.segments.len() - fresh.segments.len();
        Ok(WorkerOutcome::Built {
            doc,
            versions,
            outcome: RepublishOutcome::Incremental { dirty_groups: dirty.len(), spliced_groups },
        })
    }

    /// Full segmented recompute through the publish plan-cache entry.
    fn full(&self, versions: BTreeMap<String, u64>, reason: &'static str) -> Result<WorkerOutcome> {
        let (entry, _) = publish_plan_cached(self.shared, self.config, &self.sou)?;
        let doc = self.pipeline.publish_segmented(tagged(&entry), self.pretty)?;
        Ok(WorkerOutcome::Built { doc, versions, outcome: RepublishOutcome::Full { reason } })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};
    use xmlpub_common::{DeltaBatch, Tuple, Value};
    use xmlpub_xml::supplier_parts_view;

    const Q: &str = "select gapply(select count(*), avg(p_retailprice) from g) as (n, avgprice) \
                     from partsupp, part where ps_partkey = p_partkey \
                     group by ps_suppkey : g";

    fn server() -> Server {
        Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 16, ..ServerConfig::default() },
        )
    }

    #[test]
    fn session_execute_matches_direct_database() {
        let server = server();
        let session = server.session();
        let (via_server, stats) = session.execute(Q).unwrap();
        let direct = server.database().sql(Q).unwrap();
        assert_eq!(via_server, direct);
        assert_eq!((stats.plan_cache_hits, stats.plan_cache_misses), (0, 1));
        // Same SQL again: planning is served from the shared cache.
        let (_, stats) = session.execute(Q).unwrap();
        assert_eq!((stats.plan_cache_hits, stats.plan_cache_misses), (1, 0));
    }

    #[test]
    fn prepared_statements_execute_many_times() {
        let server = server();
        let mut session = server.session();
        assert!(!session.prepare("q1", Q).unwrap());
        let direct = server.database().sql(Q).unwrap();
        for _ in 0..3 {
            let (rel, stats) = session.execute_prepared("q1").unwrap();
            assert_eq!(rel, direct);
            assert_eq!(stats.plan_cache_hits, 1);
        }
        // The cached plan is still lint-verifiable.
        let plan = session.prepared_plan("q1").unwrap();
        assert!(plan.verify().is_empty(), "cached plan fails lint: {:?}", plan.verify());
        assert!(!plan.firings.is_empty(), "optimizer audit should ride along");
        // Unknown names fail cleanly.
        assert!(session.execute_prepared("nope").is_err());
    }

    #[test]
    fn per_session_batch_size_overrides_are_isolated() {
        let server = server();
        let mut tuple_at_a_time = server.session();
        tuple_at_a_time.config_mut().engine.batch_size = 1;
        let vectorized = server.session();
        assert_eq!(vectorized.config().engine.batch_size, xmlpub::DEFAULT_BATCH_SIZE);
        let (a, _) = tuple_at_a_time.execute(Q).unwrap();
        let (b, stats_b) = vectorized.execute(Q).unwrap();
        assert_eq!(a, b);
        // batch_size is engine-only: both sessions share one cached plan.
        assert_eq!(stats_b.plan_cache_hits, 1, "engine knobs must not split the plan cache");
        // The override really reaches the engine.
        let (_, report) = tuple_at_a_time.execute_analyzed(Q).unwrap();
        assert!(report.contains("batch size 1\n"), "override missing from report");
    }

    #[test]
    fn sessions_with_different_optimizer_flags_get_different_plans() {
        let server = server();
        let baseline = server.session();
        let mut unoptimized = server.session();
        unoptimized.config_mut().skip_optimizer = true;
        let (a, _) = baseline.execute(Q).unwrap();
        let (b, stats) = unoptimized.execute(Q).unwrap();
        assert_eq!(a, b, "skip_optimizer changes the plan, not the answer");
        assert_eq!(stats.plan_cache_misses, 1, "different config fingerprint, different entry");
    }

    #[test]
    fn analyzed_report_carries_server_counters() {
        let server = server();
        let session = server.session();
        let (_, report) = session.execute_analyzed(Q).unwrap();
        for needle in
            ["== optimized plan ==", "== operators (analyze) ==", "== server counters ==", "pool:"]
        {
            assert!(report.contains(needle), "missing {needle:?} in report");
        }
    }

    #[test]
    fn server_dop_budget_caps_session_dop() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 16, dop_budget: 16, ..ServerConfig::default() },
        );
        let mut greedy = server.session();
        greedy.config_mut().engine.dop = 64;
        let (_, report) = greedy.execute_analyzed(Q).unwrap();
        assert!(
            report.contains("dop 8 (session 64, server cap 8)"),
            "expected the clamp in the report:\n{report}"
        );
        // The clamp is execution-side only: a serial session shares the
        // greedy session's cached plan.
        let (_, stats) = server.session().execute(Q).unwrap();
        assert_eq!(stats.plan_cache_hits, 1, "dop must not split the plan cache");
        // The session config itself is untouched by execution.
        assert_eq!(greedy.config().engine.dop, 64);
    }

    /// Stress: many client threads hammer parallel-GApply queries and
    /// publishes through a small pool with an explicit thread budget
    /// (forcing dop > 1 per request even on a single-core CI box). Every
    /// answer must match the serial direct result — under contention,
    /// shedding is the only acceptable failure.
    #[test]
    fn concurrent_parallel_queries_stay_deterministic() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig { workers: 2, queue_depth: 32, dop_budget: 8, ..ServerConfig::default() },
        );
        let direct = server.database().sql(Q).unwrap();
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        let xml = server.database().publish(&view, false).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let server = &server;
                let direct = &direct;
                let view = &view;
                let xml = &xml;
                s.spawn(move || {
                    let mut session = server.session();
                    session.config_mut().engine.dop = 4;
                    for i in 0..5 {
                        if (t + i) % 2 == 0 {
                            match session.execute(Q) {
                                Ok((rel, _)) => assert_eq!(&rel, direct),
                                Err(e) => assert!(e.to_string().contains(crate::SHED_MSG)),
                            }
                        } else {
                            match session.publish(view, false) {
                                Ok(out) => assert_eq!(&out, xml),
                                Err(e) => assert!(e.to_string().contains(crate::SHED_MSG)),
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn sessions_record_into_both_registries_and_slow_log() {
        let server = Server::new(
            Database::tpch(0.001).unwrap(),
            ServerConfig {
                workers: 2,
                queue_depth: 16,
                // Threshold 1us: everything observable counts as slow.
                slow_query_us: 1,
                ..ServerConfig::default()
            },
        );
        let a = server.session();
        let b = server.session();
        a.execute(Q).unwrap();
        a.execute(Q).unwrap();
        b.execute(Q).unwrap();
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        b.publish(&view, false).unwrap();

        // Server-wide registry aggregates across sessions.
        let snap = server.metrics().snapshot().unwrap();
        assert_eq!(snap.counter("server.query.count"), Some(3));
        assert_eq!(snap.counter("server.publish.count"), Some(1));
        assert_eq!(snap.histogram("server.query_us").map(|h| h.count), Some(3));
        assert_eq!(snap.histogram("server.publish_us").map(|h| h.count), Some(1));
        // Per-session registries stay private.
        assert_eq!(a.metrics().snapshot().unwrap().counter("session.query.count"), Some(2));
        let b_snap = b.metrics().snapshot().unwrap();
        assert_eq!(b_snap.counter("session.query.count"), Some(1));
        assert_eq!(b_snap.counter("session.publish.count"), Some(1));
        // The slow log saw everything and labels each kind.
        let labels: Vec<String> =
            server.slow_query_log().entries().into_iter().map(|e| e.label).collect();
        assert_eq!(labels.len(), 4, "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("gapply")), "{labels:?}");
        assert!(labels.contains(&"publish".to_string()), "{labels:?}");
        // Prepared executions are labelled by statement name.
        let mut c = server.session();
        c.prepare("q1", Q).unwrap();
        c.execute_prepared("q1").unwrap();
        let labels: Vec<String> =
            server.slow_query_log().entries().into_iter().map(|e| e.label).collect();
        assert!(labels.contains(&"prepared:q1".to_string()), "{labels:?}");
    }

    #[test]
    fn metrics_text_round_trips_with_service_gauges() {
        let server = server();
        server.session().execute(Q).unwrap();
        let text = server.metrics_text();
        let snap = xmlpub::parse_text(&text).expect("exposition must parse");
        assert_eq!(snap.counter("server.query.count"), Some(1));
        assert!(snap.gauge("server.workers").unwrap_or(0) > 0);
        assert!(snap.histogram("server.query_us").is_some());
        // Percentiles are computable from the parsed exposition.
        let h = snap.histogram("server.query_us").unwrap();
        assert!(h.percentile_us(50.0) <= h.percentile_us(99.0));
    }

    /// The incremental republish pipeline end to end: first publish is
    /// a full recompute, a quiescent republish is clean, a one-row
    /// delete dirties exactly one root group and splices the rest, and
    /// every result is byte-identical to a from-scratch publish at the
    /// same catalog state.
    #[test]
    fn republish_is_incremental_and_byte_identical() {
        let server = server();
        let mut session = server.session();
        let view = supplier_parts_view(server.database().catalog()).unwrap();

        let (first, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Full { reason: "first-publish" });
        assert_eq!(first, server.database().publish(&view, false).unwrap());
        assert_eq!(session.published_doc_count(), 1);

        let (again, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Clean);
        assert_eq!(again, first);

        // Delete one partsupp row: exactly one supplier group dirties.
        let ps = server.database().catalog().data("partsupp").unwrap();
        let victim = ps.rows()[0].clone();
        server.database().apply_delta("partsupp", &DeltaBatch::deletes(vec![victim])).unwrap();
        let (incr, outcome) = session.republish(&view, false).unwrap();
        match outcome {
            RepublishOutcome::Incremental { dirty_groups, spliced_groups } => {
                assert_eq!(dirty_groups, 1);
                assert!(spliced_groups > 0);
            }
            other => panic!("expected incremental republish, got {other}"),
        }
        assert_eq!(incr, server.database().publish(&view, false).unwrap());
        assert_ne!(incr, first, "the delete must be visible in the document");

        // Append a brand-new supplier: a new root group spliced in.
        let sup = server.database().catalog().data("supplier").unwrap();
        let mut vals: Vec<Value> = sup.rows()[0].values().to_vec();
        vals[0] = Value::Int(999_999);
        server
            .database()
            .apply_delta("supplier", &DeltaBatch::appends(vec![Tuple::new(vals)]))
            .unwrap();
        let (ins, outcome) = session.republish(&view, false).unwrap();
        assert!(
            matches!(outcome, RepublishOutcome::Incremental { dirty_groups: 1, .. }),
            "expected one dirty group, got {outcome}"
        );
        assert_eq!(ins, server.database().publish(&view, false).unwrap());

        // Every path left its counter.
        let snap = server.metrics().snapshot().unwrap();
        assert_eq!(snap.counter("server.republish.count"), Some(4));
        assert_eq!(snap.counter("server.republish.incremental.count"), Some(2));
        assert_eq!(snap.counter("server.republish.fallback.count"), Some(1));
        assert_eq!(snap.counter("server.republish.fallback.first-publish"), Some(1));
        assert_eq!(snap.counter("server.republish.clean.count"), Some(1));
        assert_eq!(snap.counter("server.republish.dirty_groups"), Some(2));
    }

    /// A zero threshold forces the dirty-fraction fallback; the answer
    /// is still exact.
    #[test]
    fn republish_threshold_zero_forces_full_recompute() {
        let server = server();
        let mut session = server.session();
        session.set_republish_threshold(0.0);
        assert_eq!(session.republish_threshold(), 0.0);
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        session.republish(&view, false).unwrap();
        let ps = server.database().catalog().data("partsupp").unwrap();
        let victim = ps.rows()[0].clone();
        server.database().apply_delta("partsupp", &DeltaBatch::deletes(vec![victim])).unwrap();
        let (out, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Full { reason: "dirty-fraction" });
        assert_eq!(out, server.database().publish(&view, false).unwrap());
    }

    /// The full republish stage runs on the plan-cache entry `publish`
    /// built (no second optimizer run), and stays exact.
    #[test]
    fn fallback_republish_reuses_the_publish_plan() {
        let server = server();
        let mut session = server.session();
        session.set_republish_threshold(0.0);
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        session.publish(&view, false).unwrap();
        let after_publish = server.stats().cache;

        let (first, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Full { reason: "first-publish" });
        assert_eq!(first, server.database().publish(&view, false).unwrap());
        let ps = server.database().catalog().data("partsupp").unwrap();
        let victim = ps.rows()[0].clone();
        server.database().apply_delta("partsupp", &DeltaBatch::deletes(vec![victim])).unwrap();
        let (out, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Full { reason: "dirty-fraction" });
        assert_eq!(out, server.database().publish(&view, false).unwrap());

        // Both full recomputes hit the entry; nothing new was planned.
        let cache = server.stats().cache;
        assert_eq!(cache.hits, after_publish.hits + 2);
        assert_eq!(cache.misses, after_publish.misses);
    }

    /// Overrun the bounded delta log between republishes: the session
    /// must detect the trimmed history and fall back, not splice stale
    /// bytes.
    #[test]
    fn republish_falls_back_when_delta_log_trims() {
        let server = server();
        let mut session = server.session();
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        session.republish(&view, false).unwrap();
        let ps = server.database().catalog().data("partsupp").unwrap();
        let row = ps.rows()[0].clone();
        // Churn one row in and out until the log forgets the baseline.
        for _ in 0..(xmlpub_algebra::DELTA_LOG_CAPACITY / 2 + 1) {
            server
                .database()
                .apply_delta("partsupp", &DeltaBatch::deletes(vec![row.clone()]))
                .unwrap();
            server
                .database()
                .apply_delta("partsupp", &DeltaBatch::appends(vec![row.clone()]))
                .unwrap();
        }
        let (out, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Full { reason: "delta-log-trimmed" });
        assert_eq!(out, server.database().publish(&view, false).unwrap());
        // And the fallback re-established a usable baseline.
        let (_, outcome) = session.republish(&view, false).unwrap();
        assert_eq!(outcome, RepublishOutcome::Clean);
    }

    #[test]
    fn publish_through_session_matches_database_publish() {
        let server = server();
        let session = server.session();
        let view = supplier_parts_view(server.database().catalog()).unwrap();
        for pretty in [false, true] {
            let via_server = session.publish(&view, pretty).unwrap();
            let direct = server.database().publish(&view, pretty).unwrap();
            assert_eq!(via_server, direct);
        }
        // Second publish hits the cached SOU plan.
        let before = server.stats().cache.hits;
        session.publish(&view, false).unwrap();
        assert!(server.stats().cache.hits > before);
    }
}
