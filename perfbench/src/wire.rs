//! `wire_mixed`: a mix of requests over loopback TCP to an in-process
//! `NetServer`, from two connections, each on its own client thread,
//! splitting one global schedule.
//!
//! The end-to-end run is a closed loop: each connection sends its next
//! request when the last one ends. The traced run adds an open loop at
//! [`RATE_PER_S`], where request `i` is due at `t0 + i / rate` and its
//! latency runs from that due time to its response terminator, so a
//! stall also charges every request queued behind it. Its percentiles
//! are reported per layer, not gated: on a 2-core virtual machine they
//! spread over 10 runs by 22% (median) and 70% (p95), against 8% and 5%
//! for the closed loop.

use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xmlpub::{Error, Result};
use xmlpub_engine::{execute_analyzed, execute_with_stats};
use xmlpub_net::frame::read_frame;
use xmlpub_net::{
    encode_request, Frame, NetConfig, NetServer, Request, Response, PROTOCOL_VERSION,
};
use xmlpub_server::{Server, Session};
use xmlpub_xml::workloads::{exists_sweep_sql, figure8_workloads, selection_sweep_sql};
use xmlpub_xml::{supplier_parts_view, XmlView};

use crate::common::{
    engine_config, hit_ratio, median, ms, pct, percentile, replay_publish, tpch_server, us, Answer,
    LayerSamples, Metrics, RoundCounts, SplitMix, Tally, Tracer,
};
use crate::report::{Phase, WIRE_KINDS};

/// TPC-H scale factor (core tables: 20 suppliers, 400 parts, 1600
/// partsupp rows).
pub const SCALE: f64 = 0.002;
/// Offered load of the traced open loop in requests per second: about
/// half the rate at which this mix saturates the two-worker server on a
/// 2-core host. Fixed here, never derived at run time.
pub const RATE_PER_S: f64 = 180.0;
/// How the end-to-end run offers load.
pub const LOAD: Load = Load::Closed;
/// A client thread sleeps until this long before a request is due and
/// spins the rest, so the generator's own wake-up delay is not charged to
/// the server.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// Client connections, one thread each.
pub const CONNECTIONS: usize = 2;
/// Distinct thresholds per sweep query. Two sweep queries give twice
/// this many distinct texts, more than the plan cache holds, so every
/// sweep request misses the cache.
pub const SWEEP_THRESHOLDS: usize = 100;

/// The request mix, repeated: `E` executes a prepared Figure 8 gapply
/// statement, `S` runs an ad-hoc sweep query, `P` publishes the
/// supplier/part view.
const MIX: [Kind; 10] = [
    Kind::Exec,
    Kind::Sql,
    Kind::Publish,
    Kind::Exec,
    Kind::Sql,
    Kind::Exec,
    Kind::Sql,
    Kind::Publish,
    Kind::Exec,
    Kind::Sql,
];

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("scale", format!("{SCALE} (core tables)")),
        (
            "loop",
            format!(
                "closed, {CONNECTIONS} connections; traced run adds an open loop at {RATE_PER_S} req/s"
            ),
        ),
        (
            "mix",
            "4 exec_prepared (Fig. 8 gapply), 4 sql (sweep), 2 publish supplier_parts per 10"
                .into(),
        ),
        ("sweep_texts", format!("{}", 2 * SWEEP_THRESHOLDS)),
    ]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Exec,
    Sql,
    Publish,
}

impl Kind {
    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        WIRE_KINDS[self.index()]
    }
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Req {
    kind: Kind,
    /// Index into the prepared statements or the sweep texts.
    item: usize,
}

/// What a response must be.
#[derive(Clone, PartialEq, Debug)]
enum Expect {
    Rows(Answer),
    Xml(usize, u64),
}

struct Stmt {
    name: String,
    sql: String,
    want: Answer,
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A `Read` that keeps a copy of every byte it passes on.
struct Tee<'a, R> {
    inner: &'a mut R,
    copy: &'a mut Vec<u8>,
}

impl<R: Read> Read for Tee<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.copy.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// A response reduced to what is compared.
enum Reply {
    Done(Expect),
    Busy,
    /// The server answered with an ERROR frame.
    Failed(String),
}

fn next_response(r: &mut impl Read) -> Result<Response> {
    match read_frame(r)? {
        Some(Frame::Response(resp)) => Ok(resp),
        Some(Frame::Request(_)) => Err(Error::exec("request frame from server")),
        None => Err(Error::exec("server closed the connection")),
    }
}

/// Read frames up to the response terminator.
fn read_reply(r: &mut impl Read) -> Result<Reply> {
    let mut rows = 0usize;
    let mut checksum = 0u64;
    let mut xml: Option<(usize, u64)> = None;
    loop {
        match next_response(r)? {
            Response::Schema(_) => {}
            Response::RowBatch(batch) => {
                let a = Answer::of_rows(&batch);
                rows += a.rows;
                checksum = checksum.wrapping_add(a.checksum);
            }
            Response::XmlChunk(bytes) => {
                let (len, h) = xml.get_or_insert((0, FNV_OFFSET));
                *len += bytes.len();
                *h = fnv(*h, &bytes);
            }
            Response::End { .. } => {
                return Ok(Reply::Done(match xml {
                    Some((len, h)) => Expect::Xml(len, h),
                    None => Expect::Rows(Answer { rows, checksum }),
                }))
            }
            Response::Busy { .. } => return Ok(Reply::Busy),
            Response::Error { message, .. } => return Ok(Reply::Failed(message)),
            other => return Err(Error::exec(format!("unexpected frame {other:?}"))),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte stream: equal documents, equal digests, however
/// the stream was chunked.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Conn> {
        let writer = TcpStream::connect(addr).map_err(|e| Error::exec(format!("connect: {e}")))?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::with_capacity(
            64 * 1024,
            writer.try_clone().map_err(|e| Error::exec(format!("clone: {e}")))?,
        );
        let mut conn = Conn { writer, reader };
        conn.send(&Request::Hello { version: PROTOCOL_VERSION })?;
        match next_response(&mut conn.reader)? {
            Response::Ok { .. } => Ok(conn),
            other => Err(Error::exec(format!("handshake answered {other:?}"))),
        }
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        self.writer
            .write_all(&encode_request(req))
            .map_err(|e| Error::exec(format!("socket write: {e}")))
    }

    /// Send a request and read its reply, keeping a copy of the response
    /// bytes when `capture` is given.
    fn call(&mut self, req: &Request, capture: Option<&mut Vec<u8>>) -> Result<Reply> {
        self.send(req)?;
        match capture {
            Some(copy) => read_reply(&mut Tee { inner: &mut self.reader, copy }),
            None => read_reply(&mut self.reader),
        }
    }
}

pub struct Wire {
    conns: Vec<Conn>,
    net: Option<NetServer>,
    server: Arc<Server>,
    /// An in-process session with the same prepared statements, for the
    /// socket-against-in-process comparison.
    session: Session,
    view: XmlView,
    prepared: Vec<Stmt>,
    sweep: Vec<Stmt>,
    publish_want: Expect,
    /// Seeded visiting order of the sweep texts.
    sweep_order: Vec<usize>,
}

/// Latency samples of one driven phase.
pub struct LoadRun {
    pub phase: Phase,
    /// Wall time from the first due time to the last terminator.
    pub wall: Duration,
    /// Requests sent more than 1 ms after they were due, as a fraction
    /// (always 0 in a closed loop, where a request is due when sent).
    pub late_frac: f64,
    pub max_late_ms: f64,
    /// Requests the pool shed during the phase.
    pub shed: u64,
}

impl Wire {
    /// Generate the data, start the server and its listener, compute the
    /// reference answers serially through `Database`, connect, prepare
    /// the statements on every connection and run one checked request
    /// of each kind on each.
    pub fn setup(seed: u64) -> Result<Wire> {
        let server = Arc::new(tpch_server(SCALE, seed, false, true)?);
        let db = server.database();
        let mut prepared = Vec::new();
        for w in figure8_workloads() {
            let want = Answer::of(&db.sql(&w.gapply_sql)?);
            prepared.push(Stmt { name: format!("{}.gapply", w.name), sql: w.gapply_sql, want });
        }
        let mut sweep = Vec::new();
        for k in 0..SWEEP_THRESHOLDS {
            // TPC-H retail prices span [900, 2099).
            let t = 900.0 + 12.0 * k as f64 + 0.5;
            for sql in [selection_sweep_sql(t), exists_sweep_sql(t)] {
                let want = Answer::of(&db.sql(&sql)?);
                sweep.push(Stmt { name: format!("sweep{}", sweep.len()), sql, want });
            }
        }
        let view = supplier_parts_view(db.catalog())?;
        let doc = db.publish(&view, false)?;
        let publish_want = Expect::Xml(doc.len(), fnv(FNV_OFFSET, doc.as_bytes()));
        let mut session = server.session();
        for s in &prepared {
            session.prepare(&s.name, &s.sql)?;
        }
        let net = NetServer::start(
            Arc::clone(&server),
            NetConfig { addr: "127.0.0.1:0".into(), max_pipeline: 32 },
        )?;
        let mut conns = Vec::new();
        for _ in 0..CONNECTIONS {
            let mut conn = Conn::connect(net.local_addr())?;
            for s in &prepared {
                conn.send(&Request::Prepare { name: s.name.clone(), sql: s.sql.clone() })?;
                match next_response(&mut conn.reader)? {
                    Response::Ok { .. } => {}
                    other => return Err(Error::exec(format!("prepare answered {other:?}"))),
                }
            }
            conns.push(conn);
        }
        let sweep_order = SplitMix::new(seed).permutation(sweep.len());
        let mut wire = Wire {
            conns,
            net: Some(net),
            server,
            session,
            view,
            prepared,
            sweep,
            publish_want,
            sweep_order,
        };
        for c in 0..CONNECTIONS {
            for kind in [Kind::Exec, Kind::Sql, Kind::Publish] {
                let req = Req { kind, item: c };
                let (request, want) = wire.request(req);
                match wire.conns[c].call(&request, None)? {
                    Reply::Done(got) if got == want => {}
                    Reply::Done(got) => {
                        return Err(Error::exec(format!(
                            "warm-up {kind:?}: got {got:?}, want {want:?}"
                        )))
                    }
                    Reply::Busy => return Err(Error::exec("warm-up request shed")),
                    Reply::Failed(e) => return Err(Error::exec(format!("warm-up {kind:?}: {e}"))),
                }
            }
        }
        Ok(wire)
    }

    /// The `i`-th request of the schedule.
    fn scheduled(&self, i: usize) -> Req {
        let slot = i % MIX.len();
        let kind = MIX[slot];
        let per_round = MIX.iter().filter(|m| **m == kind).count();
        let before = MIX[..slot].iter().filter(|m| **m == kind).count();
        // How many requests of this kind precede request `i`.
        let nth = (i / MIX.len()) * per_round + before;
        match kind {
            Kind::Exec => Req { kind, item: nth % self.prepared.len() },
            Kind::Sql => Req { kind, item: self.sweep_order[nth % self.sweep.len()] },
            Kind::Publish => Req { kind, item: 0 },
        }
    }

    /// The wire request and its expected reply.
    fn request(&self, req: Req) -> (Request, Expect) {
        match req.kind {
            Kind::Exec => {
                let s = &self.prepared[req.item % self.prepared.len()];
                (Request::ExecPrepared { name: s.name.clone() }, Expect::Rows(s.want))
            }
            Kind::Sql => {
                let s = &self.sweep[req.item % self.sweep.len()];
                (Request::Sql { sql: s.sql.clone() }, Expect::Rows(s.want))
            }
            Kind::Publish => (
                Request::Publish { view: "supplier_parts".into(), pretty: false },
                self.publish_want.clone(),
            ),
        }
    }

    /// Drive the schedule for `secs` seconds under `load`.
    pub fn measure(&mut self, secs: f64, load: Load, tally: &mut Tally) -> Result<LoadRun> {
        let mut conns = std::mem::take(&mut self.conns);
        let run = self.drive(&mut conns, secs, load, tally, None);
        self.conns = conns;
        run
    }

    fn drive(
        &self,
        conns: &mut [Conn],
        secs: f64,
        load: Load,
        tally: &mut Tally,
        mut spans: Option<&mut Tracer>,
    ) -> Result<LoadRun> {
        let shed_before = self.server.stats().pool.shed;
        let t0 = Instant::now() + Duration::from_millis(5);
        let end = t0 + Duration::from_secs_f64(secs);
        let results: Vec<Result<(Vec<Sample>, Tally)>> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    s.spawn(move || -> Result<(Vec<Sample>, Tally)> {
                        let mut samples = Vec::new();
                        let mut tally = Tally::default();
                        for i in (c..).step_by(CONNECTIONS) {
                            let due = match load {
                                Load::Open(rate) => {
                                    let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                                    if due >= end {
                                        break;
                                    }
                                    wait_until(due);
                                    due
                                }
                                Load::Closed => {
                                    wait_until(t0);
                                    let now = Instant::now();
                                    if now >= end {
                                        break;
                                    }
                                    now
                                }
                            };
                            let sent = Instant::now();
                            let (request, want) = self.request(self.scheduled(i));
                            match conn.call(&request, None)? {
                                Reply::Done(got) => {
                                    let end = Instant::now();
                                    samples.push(Sample { i, due, sent, end });
                                    tally.check("wire request", got, want);
                                }
                                Reply::Busy => tally.error("wire request", "BUSY"),
                                Reply::Failed(e) => tally.error("wire request", e),
                            }
                        }
                        Ok((samples, tally))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut samples = Vec::new();
        for r in results {
            let (s, t) = r?;
            samples.extend(s);
            tally.merge(t);
        }
        samples.sort_by_key(|s| s.i);
        let mut phase = Phase::default();
        let (mut late, mut max_late) = (0usize, Duration::ZERO);
        let mut last = t0;
        for s in &samples {
            phase.record(s.end - s.due);
            let l = s.sent.saturating_duration_since(s.due);
            if l > Duration::from_millis(1) {
                late += 1;
            }
            max_late = max_late.max(l);
            last = last.max(s.end);
            if let Some(t) = spans.as_deref_mut() {
                t.record("wire.request", s.due, s.end);
            }
        }
        Ok(LoadRun {
            phase,
            wall: last - t0,
            late_frac: late as f64 / samples.len().max(1) as f64,
            max_late_ms: ms(max_late),
            shed: self.server.stats().pool.shed - shed_before,
        })
    }

    /// The traced run: the open loop again with every request recorded
    /// as a span, then a closed-loop comparison in which each request of
    /// the mix goes over the socket, through the in-process session and
    /// through the layers' public entry points, one after another.
    pub fn measure_traced(
        &mut self,
        secs: f64,
        tally: &mut Tally,
        tracer: &mut Tracer,
        layers: &mut LayerSamples,
    ) -> Result<LoadRun> {
        let mut conns = std::mem::take(&mut self.conns);
        let run = self.traced_with(&mut conns, secs, tally, tracer, layers);
        self.conns = conns;
        run
    }

    fn traced_with(
        &self,
        conns: &mut [Conn],
        secs: f64,
        tally: &mut Tally,
        tracer: &mut Tracer,
        layers: &mut LayerSamples,
    ) -> Result<LoadRun> {
        let before = self.server.stats().cache;
        let traced = self.drive(conns, secs / 2.0, LOAD, tally, Some(tracer))?;
        let after = self.server.stats().cache;
        layers.push("server.plan_cache.hit_ratio", hit_ratio(&before, &after));

        // The open loop at the fixed rate, latency from due time.
        let open = self.drive(conns, secs / 2.0, Load::Open(RATE_PER_S), tally, None)?;
        layers.push("server.pool.shed", (traced.shed + open.shed) as f64);
        layers.push("loadgen.late_frac", open.late_frac);
        layers.push("loadgen.max_late_ms", open.max_late_ms);
        layers.push("loadgen.open_p50_ms", open.phase.windowed(MIX.len(), |w| percentile(w, 0.5)));
        layers.push("loadgen.open_p95_ms", open.phase.windowed(MIX.len(), |w| percentile(w, 0.95)));

        let conn = &mut conns[0];
        let mut round = RoundCounts::default();
        let (mut socket_s, mut layer_s) = (0.0, 0.0);
        let (mut session_s, mut session_extra_s) = (0.0, 0.0);
        let (mut decoded_bytes, mut decode_s) = (0usize, 0.0);
        let mut overhead: [Vec<f64>; 3] = Default::default();
        let mut sized = [false; 3];
        let deadline = Instant::now() + Duration::from_secs_f64(secs / 2.0);
        let mut i = 0usize;
        while !i.is_multiple_of(MIX.len()) || Instant::now() < deadline {
            let req = self.scheduled(i);
            i += 1;
            tracer.next_op();
            let (request, want) = self.request(req);
            let mut bytes = Vec::new();
            let (reply, socket) =
                tracer.time("net.roundtrip", || conn.call(&request, Some(&mut bytes)));
            match reply? {
                Reply::Done(got) => tally.check("wire replay", got, want),
                Reply::Busy => tally.error("wire replay", "BUSY"),
                Reply::Failed(e) => tally.error("wire replay", e),
            }
            // The first response of each kind is the exact size guard.
            if !std::mem::replace(&mut sized[req.kind.index()], true) {
                layers.push(format!("net.response_bytes.{}", req.kind.name()), bytes.len() as f64);
            }
            let (_, decode) = tracer.time("net.read_frame", || decode_all(&bytes));
            decoded_bytes += bytes.len();
            decode_s += decode.as_secs_f64();

            let (res, session) = tracer.time("session.request", || self.in_process(req));
            tally.check("in-process request", res?, self.request(req).1);
            overhead[req.kind.index()].push(us(socket) - us(session));

            let layer = self.replay(req, tracer, layers, &mut round, tally)?;
            // Replays run on this thread and can read slower than the
            // request itself; each is capped at the time it accounts for.
            socket_s += socket.as_secs_f64();
            layer_s += (layer + decode).min(socket).as_secs_f64();
            session_s += session.as_secs_f64();
            session_extra_s += session.saturating_sub(layer).as_secs_f64();
            if i.is_multiple_of(MIX.len()) {
                round.flush(layers);
            }
        }
        for k in [Kind::Exec, Kind::Sql, Kind::Publish] {
            layers.push(format!("net.overhead_us.{}", k.name()), median(&overhead[k.index()]));
        }
        layers.push("net.decode_mb_per_s", decoded_bytes as f64 / 1e6 / decode_s.max(1e-9));
        layers.push("bench.layer_coverage_pct", pct(layer_s, socket_s));
        layers.push("server.session_overhead_pct", pct(session_extra_s, session_s));
        if let Expect::Xml(len, _) = self.publish_want {
            layers.push("xml.doc_bytes.supplier_parts", len as f64);
        }
        Ok(traced)
    }

    /// The same request through the in-process session.
    fn in_process(&self, req: Req) -> Result<Expect> {
        Ok(match req.kind {
            Kind::Exec => {
                let s = &self.prepared[req.item];
                Expect::Rows(Answer::of(&self.session.execute_prepared(&s.name)?.0))
            }
            Kind::Sql => {
                Expect::Rows(Answer::of(&self.session.execute(&self.sweep[req.item].sql)?.0))
            }
            Kind::Publish => {
                let doc = self.session.publish(&self.view, false)?;
                Expect::Xml(doc.len(), fnv(FNV_OFFSET, doc.as_bytes()))
            }
        })
    }

    /// The request through the layers' public entry points: compile and
    /// optimize (ad-hoc SQL only, since those miss the plan cache), then
    /// execute; a publish executes the sorted outer union and tags it.
    /// Returns the time spent in the layer calls.
    fn replay(
        &self,
        req: Req,
        tracer: &mut Tracer,
        layers: &mut LayerSamples,
        round: &mut RoundCounts,
        tally: &mut Tally,
    ) -> Result<Duration> {
        let db = self.server.database();
        let catalog = db.catalog();
        let engine = engine_config();
        match req.kind {
            Kind::Exec | Kind::Sql => {
                let (plan, planning) = if req.kind == Kind::Sql {
                    let s = &self.sweep[req.item];
                    let (bound, c) =
                        tracer.time("sql.compile", || xmlpub_sql::compile(&s.sql, catalog));
                    layers.push("sql.compile_us", us(c));
                    let (opt, o) = tracer.time("optimizer.optimize", || db.optimize_plan(bound?));
                    layers.push("optimizer.optimize_us", us(o));
                    (opt?.0, c + o)
                } else {
                    let s = &self.prepared[req.item];
                    let cached = self
                        .session
                        .prepared_plan(&s.name)
                        .expect("every statement is prepared at setup");
                    (cached.plan.clone(), Duration::ZERO)
                };
                let (res, exec) = tracer.time("engine.execute_with_stats", || {
                    execute_with_stats(&plan, catalog, &engine)
                });
                let (rel, stats) = res?;
                let want = match req.kind {
                    Kind::Sql => self.sweep[req.item].want,
                    _ => self.prepared[req.item].want,
                };
                tally.check("layer replay", Answer::of(&rel), want);
                if req.kind == Kind::Exec {
                    let name = &self.prepared[req.item].name;
                    layers.push(format!("engine.exec_ms.{name}"), ms(exec));
                }
                round.add(&stats);
                let (res, _) = tracer
                    .time("engine.execute_analyzed", || execute_analyzed(&plan, catalog, &engine));
                round.add_profiles(&res?.2);
                Ok(planning + exec)
            }
            Kind::Publish => {
                let (doc, t) = replay_publish(db, &self.view, tracer, layers, round)?;
                let got = Expect::Xml(doc.len(), fnv(FNV_OFFSET, &doc));
                tally.check("publish replay", got, self.publish_want.clone());
                Ok(t)
            }
        }
    }

    /// Say goodbye on every connection and drain the listener.
    pub fn shutdown(mut self) -> Result<()> {
        for conn in &mut self.conns {
            conn.send(&Request::Goodbye)?;
            match next_response(&mut conn.reader)? {
                Response::Goodbye => {}
                other => return Err(Error::exec(format!("goodbye answered {other:?}"))),
            }
        }
        self.conns.clear();
        let report =
            self.net.take().expect("listener runs until shutdown").drain(Duration::from_secs(5));
        if !report.drained {
            return Err(Error::exec(format!("listener did not drain: {report:?}")));
        }
        Ok(())
    }
}

/// Decode every frame of a captured response stream.
fn decode_all(bytes: &[u8]) -> Result<usize> {
    let mut cursor = Cursor::new(bytes);
    let mut frames = 0;
    while read_frame(&mut cursor)?.is_some() {
        frames += 1;
    }
    Ok(frames)
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

/// How requests are offered.
#[derive(Clone, Copy)]
pub enum Load {
    /// At a fixed rate per second; latency runs from each due time.
    Open(f64),
    /// Each connection sends its next request when the last one ends.
    Closed,
}

struct Sample {
    i: usize,
    due: Instant,
    sent: Instant,
    end: Instant,
}

/// End-to-end metrics of a wire_mixed phase.
pub fn end_to_end(run: &LoadRun, metrics: &mut Metrics) {
    let n = run.phase.lat_ms.len() as f64;
    metrics.set("ops_per_s", n / run.wall.as_secs_f64().max(1e-9), "1/s");
    run.phase.latency_percentiles(MIX.len(), metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Above capacity an open loop builds a backlog, and latency counted
    /// from due time grows with it: a run three times as long must
    /// report a clearly higher median. A clock started at send time
    /// would not show this.
    #[test]
    fn due_time_latency_grows_with_run_length_above_capacity() {
        const OVERLOAD_RATE: f64 = 1000.0;
        let mut wire = Wire::setup(1).expect("setup");
        let mut tally = Tally::default();
        let short = wire.measure(0.5, Load::Open(OVERLOAD_RATE), &mut tally).expect("short run");
        let long = wire.measure(1.5, Load::Open(OVERLOAD_RATE), &mut tally).expect("long run");
        wire.shutdown().expect("shutdown");
        assert_eq!(tally.failed, 0, "every request must succeed");
        let p_short = median(&short.phase.lat_ms);
        let p_long = median(&long.phase.lat_ms);
        assert!(
            p_long > 2.0 * p_short,
            "median latency {p_long:.1} ms after 1.5 s should exceed twice {p_short:.1} ms after 0.5 s"
        );
        assert!(long.late_frac > 0.5, "an overloaded generator runs late: {}", long.late_frac);
    }
}
