//! `publish_churn`: writes beside reads on one `Session`. Each cycle
//! renames one supplier through `Database::apply_delta` and republishes
//! the supplier/part view, which takes the incremental splice path;
//! every tenth cycle also publishes the three-level customer/order view
//! in full.

use std::time::{Duration, Instant};

use xmlpub::{Error, Result, Tuple, Value};
use xmlpub_common::DeltaBatch;
use xmlpub_engine::{dirty_keys, execute_analyzed, execute_with_stats, TableDeltas};
use xmlpub_server::incremental::scan_tables;
use xmlpub_server::{segment_rows, splice, PublishedDoc, RepublishOutcome, Server, Session};
use xmlpub_xml::souq::{sorted_outer_union, sorted_outer_union_for_keys};
use xmlpub_xml::{customer_orders_view, supplier_parts_view, XmlView};

use crate::common::{
    engine_config, hit_ratio, pct, replay_publish, tpch_server, us, LayerSamples, RoundCounts,
    SplitMix, Tally, Tracer,
};
use crate::report::Phase;

/// TPC-H scale factor (all tables: 100 suppliers, 1500 customers,
/// 15000 orders, about 60000 line items).
pub const SCALE: f64 = 0.01;
/// One cycle in this many also publishes the customer/order view.
pub const PUBLISH_EVERY: usize = 10;

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("scale", format!("{SCALE} (all tables)")),
        ("loop", "closed, 1 session".into()),
        (
            "cycle",
            format!(
                "apply_delta (rename 1 supplier) + republish supplier_parts; \
                 + full publish customer_orders every {PUBLISH_EVERY}th cycle"
            ),
        ),
    ]
}

/// Renames suppliers in a seeded order, remembering each row's current
/// contents so the delete half of the next delta matches exactly.
struct Renamer {
    rows: Vec<Tuple>,
    name_col: usize,
    order: Vec<usize>,
    next: usize,
}

impl Renamer {
    /// Build the next rename: the delta, the old and the new name.
    fn next(&mut self) -> (DeltaBatch, String, String) {
        let idx = self.order[self.next % self.order.len()];
        self.next += 1;
        let old = self.rows[idx].clone();
        let mut vals = old.values().to_vec();
        let old_name = match &vals[self.name_col] {
            Value::Str(s) => s.to_string(),
            other => panic!("s_name is a string column, got {other:?}"),
        };
        let base = old_name.split(" r#").next().unwrap_or(&old_name);
        let new_name = format!("{base} r#{}", self.next);
        vals[self.name_col] = Value::str(new_name.clone());
        let renamed = Tuple::new(vals);
        self.rows[idx] = renamed.clone();
        (DeltaBatch { appended: vec![renamed], deleted: vec![old] }, old_name, new_name)
    }
}

pub struct Churn {
    server: Server,
    session: Session,
    parts_view: XmlView,
    orders_view: XmlView,
    /// The supplier/part document as it must read after the last rename:
    /// the reference publish with every rename applied to it.
    parts_expected: String,
    /// Size of the reference supplier/part document, before any rename.
    parts_reference_bytes: usize,
    /// The customer/order document (renames do not reach it).
    orders_expected: String,
    renamer: Renamer,
    cycle: usize,
}

/// What one measured cycle did.
struct CycleOutcome {
    lat: Duration,
    write: Duration,
    republish: Duration,
    outcome: RepublishOutcome,
}

impl Churn {
    /// Generate the data, start the server, publish both views serially
    /// through `Database` as references, then warm up: one full publish,
    /// the first republish and one incremental cycle, all checked.
    pub fn setup(seed: u64) -> Result<Churn> {
        let server = tpch_server(SCALE, seed, true, true)?;
        let db = server.database();
        let parts_view = supplier_parts_view(db.catalog())?;
        let orders_view = customer_orders_view(db.catalog())?;
        let parts_expected = db.publish(&parts_view, false)?;
        let orders_expected = db.publish(&orders_view, false)?;
        let schema = &db.catalog().table("supplier")?.schema;
        let name_col = schema.resolve(None, "s_name")?;
        let rows = db.catalog().data("supplier")?.rows().to_vec();
        let order = SplitMix::new(seed).permutation(rows.len());
        let renamer = Renamer { rows, name_col, order, next: 0 };
        let mut session = server.session();
        if session.publish(&orders_view, false)? != orders_expected {
            return Err(Error::exec("warm-up publish of customer_orders differs from reference"));
        }
        let (doc, _) = session.republish(&parts_view, false)?;
        if doc != parts_expected {
            return Err(Error::exec("first republish of supplier_parts differs from reference"));
        }
        let mut churn = Churn {
            server,
            session,
            parts_view,
            orders_view,
            parts_reference_bytes: parts_expected.len(),
            parts_expected,
            orders_expected,
            renamer,
            cycle: 1,
        };
        let mut tally = Tally::default();
        churn.cycle(&mut tally)?;
        if tally.failed > 0 {
            return Err(Error::exec("warm-up cycle failed"));
        }
        Ok(churn)
    }

    /// One cycle, timed; the answers are checked after the clock stops.
    fn cycle(&mut self, tally: &mut Tally) -> Result<CycleOutcome> {
        let (delta, old_name, new_name) = self.renamer.next();
        let publish = self.cycle.is_multiple_of(PUBLISH_EVERY);
        self.cycle += 1;
        let start = Instant::now();
        self.server.database().apply_delta("supplier", &delta)?;
        let write = start.elapsed();
        let (doc, outcome) = self.session.republish(&self.parts_view, false)?;
        let republish = start.elapsed() - write;
        let full =
            if publish { Some(self.session.publish(&self.orders_view, false)?) } else { None };
        let lat = start.elapsed();

        let old_elem = format!("<s_name>{old_name}</s_name>");
        let new_elem = format!("<s_name>{new_name}</s_name>");
        self.parts_expected = self.parts_expected.replacen(&old_elem, &new_elem, 1);
        if !matches!(outcome, RepublishOutcome::Incremental { .. }) {
            tally.wrong("republish", format!("outcome {outcome}, want incremental"));
        } else if doc != self.parts_expected {
            tally.wrong("republish", format!("document differs after renaming {old_name}"));
        } else {
            tally.ok();
        }
        if let Some(full) = full {
            if full == self.orders_expected {
                tally.ok();
            } else {
                tally.wrong("publish customer_orders", "document differs from reference");
            }
        }
        Ok(CycleOutcome { lat, write, republish, outcome })
    }

    /// Closed loop for `secs` seconds, ending on a whole publish round.
    pub fn measure(&mut self, secs: f64, tally: &mut Tally) -> Result<Phase> {
        let mut phase = Phase::default();
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        while self.cycle % PUBLISH_EVERY != 1 || Instant::now() < deadline {
            let c = self.cycle(tally)?;
            phase.record(c.lat);
        }
        Ok(phase)
    }

    /// The traced phase: each cycle is followed by a replay of its
    /// republish (delta propagation, key-restricted re-tag, splice) and,
    /// on publish cycles, of the full publish (execute, then tag),
    /// through the layers' public entry points.
    pub fn measure_traced(
        &mut self,
        secs: f64,
        tally: &mut Tally,
        tracer: &mut Tracer,
        layers: &mut LayerSamples,
    ) -> Result<Phase> {
        let before = self.server.stats().cache;
        let mut phase = Phase::default();
        let mut round = RoundCounts::default();
        let (mut cycle_s, mut layer_s) = (0.0, 0.0);
        let (mut republishes, mut incremental) = (0u64, 0u64);
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        while self.cycle % PUBLISH_EVERY != 1 || Instant::now() < deadline {
            tracer.next_op();
            let publish = self.cycle.is_multiple_of(PUBLISH_EVERY);
            let prev = self
                .session
                .published_doc(&self.parts_view, false)
                .cloned()
                .ok_or_else(|| Error::exec("session holds no supplier_parts document"))?;
            let c = self.cycle(tally)?;
            phase.record(c.lat);
            cycle_s += c.lat.as_secs_f64();
            layer_s += c.write.as_secs_f64();
            layers.push("delta.apply_us", us(c.write));
            republishes += 1;
            if let RepublishOutcome::Incremental { dirty_groups, spliced_groups } = c.outcome {
                incremental += 1;
                layers.push("incremental.dirty_groups", dirty_groups as f64);
                layers.push("incremental.spliced_groups", spliced_groups as f64);
            }
            let replayed = self.replay_republish(&prev, tracer, layers, &mut round, tally)?;
            layer_s += replayed.as_secs_f64().min(c.republish.as_secs_f64());
            if publish {
                let publish_time = c.lat - c.write - c.republish;
                let replayed = self.replay_publish(tracer, layers, &mut round, tally)?;
                layer_s += replayed.as_secs_f64().min(publish_time.as_secs_f64());
                round.flush(layers);
            }
        }
        let after = self.server.stats().cache;
        layers.push("server.plan_cache.hit_ratio", hit_ratio(&before, &after));
        layers.push("incremental.hit_ratio", incremental as f64 / republishes.max(1) as f64);
        layers.push("bench.layer_coverage_pct", pct(layer_s, cycle_s));
        layers.push("server.session_overhead_pct", pct(cycle_s - layer_s, cycle_s));
        layers.push("xml.doc_bytes.customer_orders", self.orders_expected.len() as f64);
        layers.push("xml.doc_bytes.supplier_parts", self.parts_reference_bytes as f64);
        Ok(phase)
    }

    /// Replay the republish that just ran: the deltas since `prev`'s
    /// versions, propagated to dirty root keys, re-tagged through the
    /// key-restricted sorted outer union and spliced into `prev`. The
    /// spliced document must equal the session's. Returns the time
    /// spent in the layer calls.
    fn replay_republish(
        &self,
        prev: &PublishedDoc,
        tracer: &mut Tracer,
        layers: &mut LayerSamples,
        round: &mut RoundCounts,
        tally: &mut Tally,
    ) -> Result<Duration> {
        let db = self.server.database();
        let catalog = db.catalog();
        let engine = engine_config();
        let sou = sorted_outer_union(&self.parts_view)?;
        let mut deltas = TableDeltas::new();
        for t in scan_tables(&sou.plan) {
            let since = prev.versions.get(&t).copied().unwrap_or(0);
            let batches = catalog
                .deltas_since(&t, since)?
                .ok_or_else(|| Error::exec(format!("delta log of {t} trimmed")))?;
            for b in batches {
                deltas.add(&t, b);
            }
        }
        let (dirty, propagate) = tracer.time("engine.dirty_keys", || {
            dirty_keys(&sou.plan, sou.tag_plan.root_key_cols(), catalog, &engine, &deltas)
        });
        let dirty =
            dirty?.ok_or_else(|| Error::exec("delta propagation does not cover the view"))?;
        layers.push("delta.propagate_us", us(propagate));

        let retag_start = Instant::now();
        let restricted = sorted_outer_union_for_keys(&self.parts_view, &dirty)?;
        let (optimized, t) =
            tracer.time("optimizer.optimize", || db.optimize_plan(restricted.plan.clone()));
        layers.push("optimizer.optimize_us", us(t));
        let (plan, _) = optimized?;
        let (res, _) = tracer
            .time("engine.execute_with_stats", || execute_with_stats(&plan, catalog, &engine));
        let (rel, stats) = res?;
        round.add(&stats);
        let (fresh, _) = tracer
            .time("server.segment_rows", || segment_rows(rel.rows(), &restricted.tag_plan, false));
        let fresh = fresh?;
        let retag = retag_start.elapsed();
        layers.push("incremental.retag_us", us(retag));
        let (doc, splice_t) = tracer.time("server.splice", || splice(&prev.doc, &dirty, &fresh));
        layers.push("incremental.splice_us", us(splice_t));
        tally.check("republish replay", doc.bytes.as_slice(), self.parts_expected.as_bytes());

        let (res, _) =
            tracer.time("engine.execute_analyzed", || execute_analyzed(&plan, catalog, &engine));
        round.add_profiles(&res?.2);
        Ok(propagate + retag + splice_t)
    }

    /// Replay a full customer/order publish; the document must equal
    /// the reference. Returns the time spent in execute and tag.
    fn replay_publish(
        &self,
        tracer: &mut Tracer,
        layers: &mut LayerSamples,
        round: &mut RoundCounts,
        tally: &mut Tally,
    ) -> Result<Duration> {
        let db = self.server.database();
        let (doc, t) = replay_publish(db, &self.orders_view, tracer, layers, round)?;
        tally.check("publish replay", doc.as_slice(), self.orders_expected.as_bytes());
        Ok(t)
    }

    /// The last republished document must equal a fresh full publish of
    /// the same catalog version.
    pub fn final_check(&mut self, tally: &mut Tally) -> Result<()> {
        let (doc, outcome) = self.session.republish(&self.parts_view, false)?;
        let fresh = self.server.database().publish(&self.parts_view, false)?;
        if doc != fresh {
            tally.wrong(
                "final republish",
                format!("{outcome} document differs from a full publish"),
            );
        } else {
            tally.ok();
        }
        Ok(())
    }
}
