//! The request path every entry point shares: a plan (parsed and
//! optimized fresh, or handed in from a plan cache), then every check
//! the plan must pass, then [`execute_stream_with_obs`], then a sink —
//! rows, the streaming tagger, or the segmenting tagger of an
//! incremental republish. [`Database`](crate::Database) runs its
//! requests through a [`Pipeline`]; the server's sessions build one per
//! request on a pool worker.
//!
//! Observation is one hook, the [`ObsContext`]: a disabled context is
//! what "untraced" means, so no phase has a second, uninstrumented copy.
//! Tagging only accepts a [`TaggedPlan`], whose one constructor runs the
//! tagger-safety check: the constant-space tagger silently interleaves
//! documents on out-of-order input (§2), so a plan that does not
//! provably cluster rows by element never reaches it.

use std::io::Write;
use std::time::Instant;

use xmlpub_algebra::{validate, Catalog, LogicalPlan};
use xmlpub_common::{Error, Relation, Result};
use xmlpub_engine::{
    emit_operator_spans, execute_stream_with_obs, render_profiles, EngineConfig, ExecStats,
    OpProfile,
};
use xmlpub_obs::{saturating_ns_since, saturating_us_since, MetricsHandle, ObsContext};
use xmlpub_optimizer::{Optimizer, RuleFiring, Statistics};
use xmlpub_sql::{parse, Binder};
use xmlpub_xml::souq::{SortedOuterUnion, TagPlan};
use xmlpub_xml::{SegmentedDoc, StreamingTagger};

use crate::database::Config;

/// A query's rows, its engine counters and its per-operator profiles
/// (populated when profiling is on).
pub type Answer = (Relation, ExecStats, Vec<OpProfile>);

/// An optimized sorted-outer-union plan proven to deliver its rows
/// sorted on the whole key/ordinal prefix the tagger needs. Only
/// [`Pipeline::publish_plan`] builds one.
#[derive(Debug)]
pub struct TaggedPlan {
    plan: LogicalPlan,
    tag_plan: TagPlan,
}

impl TaggedPlan {
    /// The checked relational plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The tagging metadata the plan was checked against.
    pub fn tag_plan(&self) -> &TagPlan {
        &self.tag_plan
    }
}

/// One request's view of the database: catalog, statistics, the
/// configuration it runs under and where its observations go.
#[derive(Clone)]
pub struct Pipeline<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) stats: &'a Statistics,
    pub(crate) config: Config,
    /// Spans (parented at `obs.parent_span`) and engine counters.
    pub(crate) obs: ObsContext,
    /// Request counts and phase latencies (`query.*`, `publish.*`). A
    /// [`Database`](crate::Database) records them; sessions account in
    /// `server.*`/`session.*` instead and leave this disabled.
    pub(crate) phase_metrics: MetricsHandle,
}

impl<'a> Pipeline<'a> {
    /// Parse, bind and validate a SQL query (no optimization).
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        let plan = Binder::new(self.catalog).bind_query(&parse(sql)?)?;
        validate(&plan)?;
        Ok(plan)
    }

    /// Optimize a bound plan: an `optimize` span with one `rule:<name>`
    /// child per firing, latency in `query.optimize_us`.
    pub fn optimize(&self, plan: LogicalPlan) -> Result<(LogicalPlan, Vec<RuleFiring>)> {
        if self.config.skip_optimizer {
            return Ok((plan, Vec::new()));
        }
        let start = Instant::now();
        let (optimized, log) =
            Optimizer::new(self.config.optimizer, self.stats).optimize_observed(plan, &self.obs);
        self.phase_metrics.record_us("query.optimize_us", saturating_us_since(start));
        validate(&optimized)?;
        Ok((optimized, log))
    }

    /// Optimize a sorted outer union and prove the result safe for the
    /// tagger — the one place the tagger-safety check runs.
    pub fn publish_plan(&self, sou: SortedOuterUnion) -> Result<(TaggedPlan, Vec<RuleFiring>)> {
        let (plan, firings) = self.optimize(sou.plan)?;
        let facts = self.stats.catalog_properties();
        match xmlpub_lint::passes::check_tagger_safety(&plan, sou.tag_plan.lvl_col, facts) {
            Some(diag) => Err(Error::plan(format!("publish aborted: {diag}"))),
            None => Ok((TaggedPlan { plan, tag_plan: sou.tag_plan }, firings)),
        }
    }

    /// SQL text in, rows out: `parse`, `optimize` and `execute` under one
    /// `query` span. `profile` forces per-operator profiling.
    pub fn sql(&self, sql: &str, profile: bool) -> Result<(LogicalPlan, Answer)> {
        let body = |p: &Pipeline| {
            let start = Instant::now();
            let bound = {
                let _span = p.obs.tracer.span("parse", p.obs.parent_span, &[]);
                p.plan(sql)
            };
            p.phase_metrics.record_us("query.parse_us", saturating_us_since(start));
            let (plan, _) = p.optimize(bound?)?;
            let answer = p.execute(&plan, profile)?;
            Ok((plan, answer))
        };
        self.request("query", &[("sql", sql)], body, |(_, (rel, _, _))| rel.len() as u64)
    }

    /// Run an optimized plan (e.g. from a plan cache) under a `query`
    /// span.
    pub fn query(&self, plan: &LogicalPlan, profile: bool) -> Result<Answer> {
        self.request("query", &[], |p| p.execute(plan, profile), |(rel, _, _)| rel.len() as u64)
    }

    /// Publish a checked plan into `sink` under a `publish` span. Rows
    /// are tagged batch by batch as the engine yields them, so peak
    /// memory is one batch plus the tagger's open-element stack.
    /// Returns the sink, the tagged row count and the engine counters.
    pub fn publish<W: Write>(
        &self,
        plan: &TaggedPlan,
        pretty: bool,
        sink: W,
    ) -> Result<(W, u64, ExecStats)> {
        self.request("publish", &[], |p| p.tag_into(plan, pretty, sink), |out| out.1)
    }

    /// [`Pipeline::publish`] for a sorted outer union planned and checked
    /// fresh, inside the `publish` span.
    pub fn publish_sou<W: Write>(
        &self,
        sou: SortedOuterUnion,
        pretty: bool,
        sink: W,
    ) -> Result<(W, u64, ExecStats)> {
        let body = |p: &Pipeline| p.tag_into(&p.publish_plan(sou)?.0, pretty, sink);
        self.request("publish", &[], body, |out| out.1)
    }

    /// Execute a checked plan into a segmented document (the stages of
    /// an incremental republish), with its spans under this pipeline's.
    pub fn publish_segmented(&self, plan: &TaggedPlan, pretty: bool) -> Result<SegmentedDoc> {
        let tagger = StreamingTagger::segmenting(plan.tag_plan(), pretty)?;
        Ok(self.tag(plan, pretty, tagger, StreamingTagger::finish_segmented)?.0)
    }

    /// Run `body` as one request of `kind` (`query` or `publish`): a span
    /// its phases parent under, annotated with the result's `rows`, then
    /// `<kind>.count` and `<kind>.total_us`.
    fn request<T>(
        &self,
        kind: &str,
        attrs: &[(&str, &str)],
        body: impl FnOnce(&Pipeline<'a>) -> Result<T>,
        rows: impl FnOnce(&T) -> u64,
    ) -> Result<T> {
        let start = Instant::now();
        let mut span = self.obs.tracer.span(kind, self.obs.parent_span, attrs);
        let out = body(&Pipeline { obs: self.obs.under(span.id()), ..self.clone() })?;
        span.annotate("rows", &rows(&out).to_string());
        if self.phase_metrics.enabled() {
            self.phase_metrics.add(&format!("{kind}.count"), 1);
            self.phase_metrics.record_us(&format!("{kind}.total_us"), saturating_us_since(start));
        }
        Ok(out)
    }

    /// Start an execution: the engine config (tracing implies profiling,
    /// so `op:*` spans are synthesized from the profiles afterwards and
    /// the hot path never touches the tracer) and its `execute` span.
    fn start_execute(&self, profile: bool) -> (EngineConfig, xmlpub_obs::SpanGuard) {
        let mut engine = self.config.engine;
        engine.profile_ops = engine.profile_ops || profile || self.obs.tracer.enabled();
        let dop = engine.dop.to_string();
        (engine, self.obs.tracer.span("execute", self.obs.parent_span, &[("dop", &dop)]))
    }

    /// Execute a plan to completion; latency lands in `query.exec_us`.
    fn execute(&self, plan: &LogicalPlan, profile: bool) -> Result<Answer> {
        let start = Instant::now();
        let (engine, mut span) = self.start_execute(profile);
        let stream =
            execute_stream_with_obs(plan, self.catalog, &engine, self.obs.under(span.id()))?;
        let (rel, stats, profiles) = stream.materialize()?;
        emit_operator_spans(&self.obs.tracer, span.id(), &profiles);
        span.annotate("rows", &rel.len().to_string());
        self.phase_metrics.record_us("query.exec_us", saturating_us_since(start));
        Ok((rel, stats, profiles))
    }

    /// [`Pipeline::tag`] into a plain document on `sink`.
    fn tag_into<W: Write>(
        &self,
        plan: &TaggedPlan,
        pretty: bool,
        sink: W,
    ) -> Result<(W, u64, ExecStats)> {
        self.tag(plan, pretty, StreamingTagger::new(sink, plan.tag_plan(), pretty), |t| t.finish())
    }

    /// Execute a checked plan, stream its rows through `tagger`, then
    /// `finish` it. Tagging interleaves with execution batch by batch, so
    /// its time is summed around the tagger calls and emitted afterwards
    /// as one `tag` span (and `publish.tag_us`).
    fn tag<'p, W: Write, T>(
        &self,
        plan: &'p TaggedPlan,
        pretty: bool,
        mut tagger: StreamingTagger<'p, W>,
        finish: impl FnOnce(StreamingTagger<'p, W>) -> Result<T>,
    ) -> Result<(T, u64, ExecStats)> {
        let (engine, mut span) = self.start_execute(false);
        let mut stream =
            execute_stream_with_obs(&plan.plan, self.catalog, &engine, self.obs.under(span.id()))?;
        let (mut rows, mut tag_ns) = (0u64, 0u64);
        while let Some(batch) = stream.next_batch()? {
            let start = Instant::now();
            for row in batch.rows() {
                tagger.write_row(row)?;
            }
            rows += batch.rows().len() as u64;
            tag_ns = tag_ns.saturating_add(saturating_ns_since(start));
        }
        let start = Instant::now();
        let out = finish(tagger)?;
        tag_ns = tag_ns.saturating_add(saturating_ns_since(start));
        emit_operator_spans(&self.obs.tracer, span.id(), stream.profiles());
        span.annotate("rows", &rows.to_string());
        drop(span);
        let (rows_s, pretty_s) = (rows.to_string(), pretty.to_string());
        let attrs = [("rows", rows_s.as_str()), ("pretty", pretty_s.as_str())];
        let tracer = &self.obs.tracer;
        tracer.emit_span("tag", self.obs.parent_span, tracer.now_us(), tag_ns / 1_000, &attrs);
        self.phase_metrics.record_us("publish.tag_us", tag_ns / 1_000);
        Ok((out, rows, stream.stats().clone()))
    }
}

/// The `\explain --analyze` report: the optimized plan, the
/// per-operator breakdown and the engine counters. `extra` lines go into
/// the counters section after the batch size (a session's dop clamp).
pub fn analyze_report(
    plan: &LogicalPlan,
    profiles: &[OpProfile],
    stats: &ExecStats,
    engine: &EngineConfig,
    extra: &str,
) -> String {
    format!(
        "== optimized plan ==\n{}\n== operators (analyze) ==\n{}\n== engine counters ==\n  batch size {}\n{extra}  {stats:?}\n",
        plan.explain(),
        render_profiles(profiles),
        engine.batch_size
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use xmlpub_algebra::SortKey;
    use xmlpub_common::{DataType, Field, Schema};

    /// The lint suite's unsorted shape — a bare three-column scan that
    /// nothing orders — as a sorted outer union tagged on column 2.
    fn unsorted_sou() -> SortedOuterUnion {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("s", DataType::Str),
        ]);
        SortedOuterUnion {
            plan: LogicalPlan::scan("t", schema),
            tag_plan: TagPlan { document_element: "doc".into(), lvl_col: 2, branches: Vec::new() },
        }
    }

    #[test]
    fn publish_refuses_an_unsorted_plan_before_writing() {
        let db = Database::tpch(0.001).unwrap();
        // Hand the plan in as-is: no optimizer run may add an ordering.
        let config = Config { skip_optimizer: true, ..Config::default() };
        let pipeline = db.pipeline(config, ObsContext::disabled());

        let mut sink = Vec::new();
        let err = pipeline.publish_sou(unsorted_sou(), false, &mut sink).unwrap_err();
        assert!(matches!(&err, Error::Plan(m) if m.contains("tagger-safety")), "{err}");
        assert!(sink.is_empty(), "the sink received {} bytes", sink.len());

        // The same stage accepts the plan once it is sorted on the
        // whole `0..lvl_col` prefix.
        let mut sorted = unsorted_sou();
        sorted.plan = sorted.plan.order_by(vec![SortKey::asc(0), SortKey::asc(1)]);
        assert!(pipeline.publish_plan(sorted).is_ok());
    }
}
