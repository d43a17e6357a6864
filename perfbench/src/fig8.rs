//! `fig8_query`: a closed loop of ad-hoc `Session::execute` calls,
//! round-robin over the classic and gapply forms of the paper's Figure 8
//! queries. Every call after warm-up is a plan-cache hit, so nearly all
//! of each request is engine operator time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xmlpub::{Error, Result};
use xmlpub_engine::{execute_analyzed, execute_with_stats};
use xmlpub_server::{Server, Session};
use xmlpub_xml::workloads::figure8_workloads;

use crate::common::{
    engine_config, hit_ratio, ms, pct, tpch_server, us, Answer, LayerSamples, Metrics, RoundCounts,
    Tally, Tracer,
};
use crate::report::Phase;

/// TPC-H scale factor (core tables: 100 suppliers, 2000 parts, 8000
/// partsupp rows).
pub const SCALE: f64 = 0.01;

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("scale", format!("{SCALE} (core tables)")),
        ("loop", "closed, 1 session".into()),
        ("mix", "round-robin over Q1-Q4, Q4r in classic and gapply forms (10 statements)".into()),
    ]
}

/// Requests per round: every statement once.
pub const ROUND: usize = 10;

/// One statement of the round-robin.
struct Stmt {
    query: &'static str,
    form: &'static str,
    sql: String,
    want: Answer,
}

impl Stmt {
    fn name(&self) -> String {
        format!("{}.{}", self.query, self.form)
    }
}

/// The ten Figure 8 statements with their reference answers, computed
/// serially through the `Database` pipeline.
fn statements(server: &Server) -> Result<Vec<Stmt>> {
    let mut stmts = Vec::new();
    for w in figure8_workloads() {
        for (form, sql) in [("classic", w.classic_sql), ("gapply", w.gapply_sql)] {
            let want = Answer::of(&server.database().sql(&sql)?);
            stmts.push(Stmt { query: w.name, form, sql, want });
        }
    }
    Ok(stmts)
}

pub struct Fig8 {
    seed: u64,
    server: Server,
    session: Session,
    stmts: Vec<Stmt>,
}

/// Execute `stmt` through `session` and check the answer.
fn check(session: &Session, stmt: &Stmt) -> Result<()> {
    let (rel, _) = session.execute(&stmt.sql)?;
    let got = Answer::of(&rel);
    if got != stmt.want {
        return Err(Error::exec(format!("{}: got {got:?}, want {:?}", stmt.name(), stmt.want)));
    }
    Ok(())
}

impl Fig8 {
    /// Generate the data, start the server, compute the reference
    /// answers, prepare every statement (which fills the plan cache) and
    /// run one checked warm-up round.
    pub fn setup(seed: u64) -> Result<Fig8> {
        Fig8::setup_with(seed, true)
    }

    fn setup_with(seed: u64, metrics: bool) -> Result<Fig8> {
        let server = tpch_server(SCALE, seed, false, metrics)?;
        let stmts = statements(&server)?;
        let mut session = server.session();
        for s in &stmts {
            session.prepare(&s.name(), &s.sql)?;
        }
        for s in &stmts {
            check(&session, s)?;
        }
        Ok(Fig8 { seed, server, session, stmts })
    }

    /// Closed loop for `secs` seconds, ending on a whole round so every
    /// statement is equally represented.
    pub fn measure(&self, secs: f64, tally: &mut Tally) -> Phase {
        let mut phase = Phase::default();
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut i = 0usize;
        while !i.is_multiple_of(self.stmts.len()) || Instant::now() < deadline {
            let stmt = &self.stmts[i % self.stmts.len()];
            i += 1;
            let start = Instant::now();
            let res = self.session.execute(&stmt.sql);
            let lat = start.elapsed();
            match res {
                Ok((rel, _)) => {
                    phase.record(lat);
                    tally.check(&stmt.name(), Answer::of(&rel), stmt.want);
                }
                Err(e) => tally.error(&stmt.name(), e),
            }
        }
        phase
    }

    /// The traced phase: the same loop, and after each timed request the
    /// benchmark replays it through the layers' public entry points,
    /// timing each call, and repeats it on a server with metrics off.
    pub fn measure_traced(
        &self,
        secs: f64,
        tally: &mut Tally,
        tracer: &mut Tracer,
        layers: &mut LayerSamples,
    ) -> Result<Phase> {
        let quiet = Fig8::setup_with(self.seed, false)?;
        let catalog = self.server.database().catalog();
        let db = self.server.database();
        let engine = engine_config();
        let before = self.server.stats().cache;
        let mut phase = Phase::default();
        let mut round = RoundCounts::default();
        let (mut session_s, mut exec_s, mut on_s, mut off_s) = (0.0, 0.0, 0.0, 0.0);
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut i = 0usize;
        while !i.is_multiple_of(self.stmts.len()) || Instant::now() < deadline {
            let k = i % self.stmts.len();
            let stmt = &self.stmts[k];
            i += 1;
            tracer.next_op();
            let (res, lat) = tracer.time("session.execute", || self.session.execute(&stmt.sql));
            let rel = match res {
                Ok((rel, _)) => rel,
                Err(e) => {
                    tally.error(&stmt.name(), e);
                    continue;
                }
            };
            phase.record(lat);
            tally.check(&stmt.name(), Answer::of(&rel), stmt.want);

            let (bound, t) = tracer.time("sql.compile", || xmlpub_sql::compile(&stmt.sql, catalog));
            layers.push("sql.compile_us", us(t));
            let (optimized, t) = tracer.time("optimizer.optimize", || db.optimize_plan(bound?));
            optimized?;
            layers.push("optimizer.optimize_us", us(t));

            let plan = Arc::clone(
                self.session
                    .prepared_plan(&stmt.name())
                    .expect("every statement is prepared at setup"),
            );
            let (res, t) = tracer.time("engine.execute_with_stats", || {
                execute_with_stats(&plan.plan, catalog, &engine)
            });
            let (rel, stats) = res?;
            tally.check(&format!("{} replay", stmt.name()), Answer::of(&rel), stmt.want);
            layers.push(format!("engine.exec_ms.{}", stmt.name()), ms(t));
            // The replay runs on this thread, the request on a pool
            // worker, so it can read slower; cap it at the request.
            session_s += lat.as_secs_f64();
            exec_s += t.min(lat).as_secs_f64();
            round.add(&stats);

            let (res, _) = tracer
                .time("engine.execute_analyzed", || execute_analyzed(&plan.plan, catalog, &engine));
            round.add_profiles(&res?.2);

            // Metrics on against metrics off, on the same statement, in
            // alternating order so drift cancels.
            let quiet_stmt = &quiet.stmts[k];
            let (on, off) = if i.is_multiple_of(2) {
                let on = time_checked(&self.session, stmt, tally);
                (on, time_checked(&quiet.session, quiet_stmt, tally))
            } else {
                let off = time_checked(&quiet.session, quiet_stmt, tally);
                (time_checked(&self.session, stmt, tally), off)
            };
            on_s += on;
            off_s += off;

            if k + 1 == self.stmts.len() {
                round.flush(layers);
            }
        }
        let after = self.server.stats().cache;
        layers.push("server.plan_cache.hit_ratio", hit_ratio(&before, &after));
        layers.push("server.session_overhead_pct", pct(session_s - exec_s, session_s));
        layers.push("bench.layer_coverage_pct", pct(exec_s, session_s));
        layers.push("obs.metrics_overhead_pct", pct(on_s - off_s, off_s));
        Ok(phase)
    }
}

fn time_checked(session: &Session, stmt: &Stmt, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let res = check(session, stmt);
    let t = start.elapsed().as_secs_f64();
    match res {
        Ok(()) => tally.ok(),
        Err(e) => tally.wrong(&stmt.name(), e),
    }
    t
}

/// The classic/gapply ratio of each query's median engine time.
pub fn speedups(layers: &LayerSamples, metrics: &mut Metrics) {
    for w in figure8_workloads() {
        let classic = layers.median(&format!("engine.exec_ms.{}.classic", w.name));
        let gapply = layers.median(&format!("engine.exec_ms.{}.gapply", w.name));
        if gapply > 0.0 {
            metrics.set(format!("fig8.speedup.{}", w.name), classic / gapply, "ratio");
        }
    }
}
