//! The three workloads: their data, the statements their clients send,
//! the answers those statements must get, and the closed-loop TCP
//! clients that send them.

use crate::trace::{ReqId, Trace};
use datagen::{figure1_scaled, Figure1Params};
use net::{Backend, Client, NetError, Response, Server, ServerConfig};
use oodb::{Database, Val};
use service::{Service, ServiceConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};
use storage::RealFs;
use xsql::{EvalOptions, Session};

/// The 2-var join `wide_read` prepares once and then executes.
pub const WIDE_QUERY: &str =
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary AND X.Age < Y.Age";
/// Name the wide join is prepared under on every connection.
pub const WIDE_NAME: &str = "wide";
/// Base tag of every store the benchmark creates.
pub const BASE_TAG: &str = "figure1";
/// One in this many `wide_read` responses is compared cell by cell
/// with the in-process answer; every response has its row count
/// checked.
const WIDE_SAMPLE_EVERY: usize = 8;
/// Upper bound of the uniform pause a client takes after each answer.
/// Without it, two closed-loop clients (reader and writer) settle into
/// a phase that lasts the whole run, and that phase, not the code,
/// decides the median latency.
const THINK_MAX_US: u64 = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WideRead,
    PointRead,
    MixedCommit,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "wide_read" => Some(Kind::WideRead),
            "point_read" => Some(Kind::PointRead),
            "mixed_commit" => Some(Kind::MixedCommit),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WideRead => "wide_read",
            Kind::PointRead => "point_read",
            Kind::MixedCommit => "mixed_commit",
        }
    }

    /// Target population for `Figure1Params::with_total_objects`.
    fn objects(self) -> usize {
        match self {
            Kind::WideRead => 200,
            Kind::PointRead => 20_000,
            Kind::MixedCommit => 2_000,
        }
    }

    /// Reader and writer connections. The read-only workloads use one
    /// reader: with two closed-loop readers on a 2-core machine, how
    /// much their requests overlap settled differently per instance and
    /// moved the median read by up to 20% between instances.
    fn clients(self) -> (usize, usize) {
        match self {
            Kind::WideRead | Kind::PointRead => (1, 0),
            Kind::MixedCommit => (1, 1),
        }
    }

    /// Requests each connection sends before the timed window.
    fn warmup(self, writer: bool) -> usize {
        match (self, writer) {
            (_, true) => 10,
            (Kind::PointRead, false) => 64,
            _ => 20,
        }
    }

    /// The generated database. Its seed stays the generator's default
    /// rather than following `--seed`: across data seeds the wide join's
    /// result varies by about ±15% in rows, and read latency with it,
    /// which would swamp the run-to-run spread the bounds are set from.
    /// `--seed` drives everything the clients send.
    fn params(self) -> Figure1Params {
        Figure1Params::with_total_objects(self.objects())
    }
}

/// SplitMix64: a small seeded generator, so every key and literal
/// sequence follows from the benchmark's `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stream ids of the seeded sequences.
const STREAM_READER: u64 = 1;
const STREAM_WRITER: u64 = 100;
const STREAM_AUX: u64 = 200;
pub const STREAM_REPLAY: u64 = 300;

/// The generator of connection `conn`'s request stream.
pub fn stream_rng(seed: u64, conn: u32, writer: bool) -> Rng {
    let base = if writer { STREAM_WRITER } else { STREAM_READER };
    Rng::new(seed, base + u64::from(conn))
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// `EXECUTE wide` through the prepared-statement frame.
    Wide,
    /// `SELECT X FROM Employee X WHERE X.Salary = k`.
    Point(i64),
    /// `UPDATE CLASS Employee SET <employee>.Age = age`.
    Write { emp: usize, age: i64 },
}

impl Req {
    /// The XSQL text of the request (the prepared body for `Wide`).
    pub fn text(&self, oracle: &Oracle) -> String {
        match self {
            Req::Wide => WIDE_QUERY.to_string(),
            Req::Point(k) => format!("SELECT X FROM Employee X WHERE X.Salary = {k}"),
            Req::Write { emp, age } => format!(
                "UPDATE CLASS Employee SET {}.Age = {age}",
                oracle.employees[*emp]
            ),
        }
    }
}

/// A connection's seeded request stream. A point reader walks its own
/// seeded permutation of the salary values over and over: with more
/// distinct statements than the plan cache holds, a cyclic walk never
/// hits an LRU cache, so `point_read` is the workload that bypasses the
/// cache while `wide_read` always hits it.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: Kind,
    writer: bool,
    rng: Rng,
    order: Vec<i64>,
    pos: usize,
}

impl Stream {
    pub fn new(kind: Kind, writer: bool, mut rng: Rng, oracle: &Oracle) -> Stream {
        let mut order = oracle.salaries.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Stream {
            kind,
            writer,
            rng,
            order,
            pos: 0,
        }
    }

    pub fn next(&mut self, oracle: &Oracle) -> Req {
        if self.writer {
            Req::Write {
                emp: self.rng.below(oracle.employees.len()),
                age: 20 + self.rng.below(46) as i64,
            }
        } else if self.kind == Kind::WideRead {
            Req::Wide
        } else {
            let k = self.order[self.pos % self.order.len()];
            self.pos += 1;
            Req::Point(k)
        }
    }
}

/// The answers requests must get, computed at setup from the generated
/// database without going through the server.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    /// The wide join's rendered rows, in-process (`wide_read` only).
    pub wide_rows: Vec<Vec<String>>,
    /// Distinct salary values present, ascending.
    pub salaries: Vec<i64>,
    /// Employees per salary value.
    pub salary_counts: BTreeMap<i64, usize>,
    /// Employee names, in class-extent order.
    pub employees: Vec<String>,
}

impl Oracle {
    pub fn of(kind: Kind, db: &Database) -> Result<Oracle, String> {
        let sym = |n: &str| {
            db.oids()
                .find_sym(n)
                .ok_or_else(|| format!("generated data lacks `{n}`"))
        };
        let (employee, salary) = (sym("Employee")?, sym("Salary")?);
        let mut o = Oracle::default();
        for e in db.instances_of(employee) {
            o.employees.push(db.render(e));
            if let Some(Val::Scalar(v)) = db.stored_value(e, salary, &[]) {
                let k: i64 = db
                    .render(*v)
                    .parse()
                    .map_err(|_| format!("non-integer salary on {}", db.render(e)))?;
                *o.salary_counts.entry(k).or_default() += 1;
            }
        }
        o.salaries = o.salary_counts.keys().copied().collect();
        if o.salaries.is_empty() || o.employees.is_empty() {
            return Err("generated data has no salaried employees".into());
        }
        if kind == Kind::WideRead {
            let mut s = Session::new(db.clone());
            let rel = s.query(WIDE_QUERY).map_err(|e| e.to_string())?;
            o.wide_rows = rel
                .iter()
                .map(|t| t.iter().map(|c| s.db().render(*c)).collect())
                .collect();
        }
        Ok(o)
    }
}

/// What a set of requests did.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Latencies of correct reads, send to last frame decoded.
    pub read_ms: Vec<f64>,
    /// Latencies of acknowledged commits.
    pub commit_ms: Vec<f64>,
    /// Attempts sent, a retried shed counting once per attempt.
    pub attempted: u64,
    /// Attempts refused, failed or answered wrongly.
    pub failed: u64,
    pub refused: u64,
    pub wrong: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// Reads, and reads whose epoch differs from that connection's
    /// previous read.
    pub reads: u64,
    pub epoch_changes: u64,
    /// Last acknowledged `Age` per employee index.
    pub acked: BTreeMap<usize, i64>,
    /// End of the last request, for the window length.
    pub last_end: Option<Instant>,
}

impl Tally {
    pub fn absorb(&mut self, o: Tally) {
        self.read_ms.extend(o.read_ms);
        self.commit_ms.extend(o.commit_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.refused += o.refused;
        self.wrong += o.wrong;
        for e in o.errors {
            self.note(e);
        }
        self.reads += o.reads;
        self.epoch_changes += o.epoch_changes;
        self.acked.extend(o.acked);
        self.last_end = self.last_end.max(o.last_end);
    }

    /// Records a wrong or failed outcome (not a retryable shed).
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// True when no request was failed or answered wrongly; retried
    /// sheds count against the error ratio but not against correctness.
    pub fn correct(&self) -> bool {
        self.failed == self.refused
    }
}

/// One client connection and its seeded request stream.
pub struct Worker {
    pub conn: u32,
    pub writer: bool,
    client: Option<Client>,
    stream: Stream,
    /// Draws think times and which responses get a full comparison.
    aux: Rng,
    /// The id the client will give its next frame (it numbers them
    /// 1, 2, … per connection).
    next_frame: u64,
    last_epoch: Option<u64>,
    /// Requests sent during traced windows, for the layer replay.
    pub log: Vec<(ReqId, Req)>,
}

impl Worker {
    fn connect(
        kind: Kind,
        conn: u32,
        writer: bool,
        seed: u64,
        addr: &str,
        oracle: &Oracle,
    ) -> Result<Worker, String> {
        let client = Client::connect(addr, "").map_err(|e| format!("connect: {e}"))?;
        let mut w = Worker {
            conn,
            writer,
            client: Some(client),
            stream: Stream::new(kind, writer, stream_rng(seed, conn, writer), oracle),
            aux: Rng::new(seed, STREAM_AUX + u64::from(conn)),
            next_frame: 1,
            last_epoch: None,
            log: Vec::new(),
        };
        if kind == Kind::WideRead && !writer {
            w.next_frame += 1;
            w.client
                .as_mut()
                .expect("just connected")
                .prepare(WIDE_NAME, WIDE_QUERY)
                .map_err(|e| format!("prepare: {e}"))?;
        }
        Ok(w)
    }

    /// Pauses for a seeded think time, then sends one request until it
    /// is answered or fails for good. A typed retryable shed is counted
    /// as failed, waited out and re-sent.
    fn issue(&mut self, oracle: &Oracle, trace: Option<&mut Trace>, tally: &mut Tally) {
        std::thread::sleep(Duration::from_micros(self.aux.next_u64() % THINK_MAX_US));
        let req = self.stream.next(oracle);
        let text = req.text(oracle);
        let mut trace = trace;
        loop {
            let Some(client) = self.client.as_mut() else {
                return;
            };
            tally.attempted += 1;
            let rid = ReqId {
                conn: self.conn,
                frame: self.next_frame,
            };
            self.next_frame += 1;
            let name = if self.writer {
                "tcp.commit"
            } else {
                "tcp.read"
            };
            let root = trace.as_deref_mut().map(|t| t.open(name, None, rid));
            let started = Instant::now();
            let res = match (&req, trace.as_deref_mut()) {
                (Req::Wide, _) => client.execute_prepared(WIDE_NAME, &[]),
                (_, None) => client.execute(&text),
                (_, Some(t)) => {
                    let sent = t.time("client.send", root, rid, || client.start_execute(&text, 0));
                    match sent {
                        Ok(id) => t.time("client.recv", root, rid, || client.finish_execute(id)),
                        Err(e) => Err(e),
                    }
                }
            };
            let elapsed = started.elapsed();
            if let (Some(t), Some(r)) = (trace.as_deref_mut(), root) {
                t.close(r);
            }
            tally.last_end = Some(Instant::now());
            match res {
                Ok(resp) => {
                    let ms = elapsed.as_secs_f64() * 1e3;
                    if trace.is_some() {
                        self.log.push((rid, req.clone()));
                    }
                    match self.check(&req, &resp, oracle, tally) {
                        Ok(()) if self.writer => tally.commit_ms.push(ms),
                        Ok(()) => tally.read_ms.push(ms),
                        Err(e) => {
                            tally.wrong += 1;
                            tally.fail(format!("conn {} frame {}: {e}", rid.conn, rid.frame));
                        }
                    }
                    return;
                }
                Err(NetError::Server {
                    code, retry_after, ..
                }) if code.retryable() => {
                    tally.failed += 1;
                    tally.refused += 1;
                    std::thread::sleep(retry_after.max(Duration::from_micros(50)));
                }
                Err(e) => {
                    tally.fail(format!("conn {} frame {}: {e}", rid.conn, rid.frame));
                    // The connection's state is unknown; stop using it.
                    self.client = None;
                    return;
                }
            }
        }
    }

    /// Checks one answer against the oracle and keeps the per-connection
    /// epoch bookkeeping.
    fn check(
        &mut self,
        req: &Req,
        resp: &Response,
        oracle: &Oracle,
        tally: &mut Tally,
    ) -> Result<(), String> {
        match req {
            Req::Write { emp, age } => {
                if !resp.info.starts_with("updated 1 ") {
                    return Err(format!("write acknowledged as `{}`", resp.info.trim()));
                }
                tally.acked.insert(*emp, *age);
            }
            Req::Wide | Req::Point(_) => {
                tally.reads += 1;
                if self.last_epoch.is_some_and(|e| e != resp.epoch) {
                    tally.epoch_changes += 1;
                }
                self.last_epoch = Some(resp.epoch);
                let want = match req {
                    Req::Point(k) => oracle.salary_counts.get(k).copied().unwrap_or(0),
                    _ => oracle.wide_rows.len(),
                };
                if resp.rows.len() != want {
                    return Err(format!("{} rows, expected {want}", resp.rows.len()));
                }
                if *req == Req::Wide && self.aux.below(WIDE_SAMPLE_EVERY) == 0 {
                    let same = resp.rows == oracle.wide_rows || {
                        let mut got = resp.rows.clone();
                        let mut want = oracle.wide_rows.clone();
                        got.sort();
                        want.sort();
                        got == want
                    };
                    if !same {
                        return Err("rows differ from the in-process answer".into());
                    }
                }
            }
        }
        Ok(())
    }

    /// False once an error left the connection unusable.
    fn alive(&self) -> bool {
        self.client.is_some()
    }

    fn goodbye(&mut self) {
        if let Some(c) = self.client.take() {
            c.goodbye();
        }
    }
}

/// A running workload: generated data, service, TCP server and the
/// connected clients.
pub struct Live {
    pub kind: Kind,
    pub seed: u64,
    pub svc: Arc<Service>,
    server: Option<Server>,
    pub oracle: Oracle,
    dir: Option<PathBuf>,
    pub workers: Vec<Worker>,
}

impl Live {
    /// Generates the data, opens the store when the workload is
    /// durable, starts the service and server, connects and prepares
    /// the clients, and warms up. Returns the set-up time, which
    /// excludes computing the oracle, and the warm-up's tally.
    pub fn start(
        kind: Kind,
        seed: u64,
        run_dir: &Path,
        tag: usize,
    ) -> Result<(Live, Duration, Tally), String> {
        let t0 = Instant::now();
        let db = figure1_scaled(&kind.params());
        let mut spent = t0.elapsed();
        let oracle = Oracle::of(kind, &db)?;
        let t1 = Instant::now();
        let (session, dir) = if kind == Kind::MixedCommit {
            let dir = run_dir.join(format!("store-{tag}"));
            let _ = std::fs::remove_dir_all(&dir);
            let s = Session::open_dir(Box::new(RealFs), &dir, db, BASE_TAG, EvalOptions::default())
                .map_err(|e| format!("create store: {e}"))?;
            (s, Some(dir))
        } else {
            (Session::new(db), None)
        };
        let svc = Arc::new(Service::start(session, ServiceConfig::default()));
        let server = Server::start(
            Backend::Primary(Arc::clone(&svc)),
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("listen: {e}"))?;
        let addr = server.local_addr().to_string();
        let (readers, writers) = kind.clients();
        let mut workers = Vec::new();
        for i in 0..readers + writers {
            workers.push(Worker::connect(
                kind,
                i as u32,
                i >= readers,
                seed,
                &addr,
                &oracle,
            )?);
        }
        let mut live = Live {
            kind,
            seed,
            svc,
            server: Some(server),
            oracle,
            dir,
            workers,
        };
        let warm = live.warm_up();
        spent += t1.elapsed();
        Ok((live, spent, warm))
    }

    fn warm_up(&mut self) -> Tally {
        let (kind, oracle) = (self.kind, &self.oracle);
        let per_worker = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .map(|w| {
                    s.spawn(move || {
                        let mut t = Tally::default();
                        for _ in 0..kind.warmup(w.writer) {
                            w.issue(oracle, None, &mut t);
                        }
                        t
                    })
                })
                .collect();
            join_all(handles)
        });
        let mut tally = Tally::default();
        for t in per_worker {
            tally.absorb(t);
        }
        // Warm-up latencies are not measurements.
        tally.read_ms.clear();
        tally.commit_ms.clear();
        tally
    }

    /// Runs every client in a closed loop for `dur`. With `origin`,
    /// each request is traced. Returns the tally, the spans, and the
    /// window length (start to the end of the last request).
    pub fn window(&mut self, dur: Duration, origin: Option<Instant>) -> (Tally, Trace, Duration) {
        let oracle = &self.oracle;
        let barrier = Barrier::new(self.workers.len() + 1);
        let start: OnceLock<Instant> = OnceLock::new();
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .map(|w| {
                    let (barrier, start) = (&barrier, &start);
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let mut trace = origin.map(Trace::new);
                        barrier.wait();
                        let deadline = *start.get().expect("set before the barrier") + dur;
                        while Instant::now() < deadline && w.alive() {
                            w.issue(oracle, trace.as_mut(), &mut tally);
                        }
                        (tally, trace)
                    })
                })
                .collect();
            start.set(Instant::now()).expect("set once");
            barrier.wait();
            join_all(handles)
        });
        let started = *start.get().expect("set");
        let mut tally = Tally::default();
        let mut trace = Trace::new(origin.unwrap_or(started));
        for (t, tr) in results {
            tally.absorb(t);
            if let Some(tr) = tr {
                trace.absorb(tr);
            }
        }
        let len = tally
            .last_end
            .map_or(dur, |e| e.saturating_duration_since(started));
        (tally, trace, len)
    }

    /// Closes the clients, drains the server and stops the service.
    /// For a durable workload, reopens the store, verifies that every
    /// written employee's `Age` is its last acknowledged value, and
    /// removes the store.
    pub fn finish(mut self, acked: &BTreeMap<usize, i64>, tally: &mut Tally) {
        for w in &mut self.workers {
            w.goodbye();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        match Arc::try_unwrap(self.svc) {
            Ok(svc) => {
                if let Err(e) = svc.shutdown() {
                    tally.fail(format!("service shutdown: {e}"));
                }
            }
            Err(_) => tally.fail("service still referenced after server shutdown".into()),
        }
        if let Some(dir) = &self.dir {
            if let Err(e) = verify_store(self.kind, dir, &self.oracle, acked) {
                tally.wrong += 1;
                tally.fail(format!("after reopen: {e}"));
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

/// Reopens a closed store over a freshly generated base and checks the
/// acknowledged writes survived.
fn verify_store(
    kind: Kind,
    dir: &Path,
    oracle: &Oracle,
    acked: &BTreeMap<usize, i64>,
) -> Result<(), String> {
    let base = figure1_scaled(&kind.params());
    let s = Session::open_dir(
        Box::new(RealFs),
        dir,
        base,
        BASE_TAG,
        EvalOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let db = s.db();
    let age = db.oids().find_sym("Age").ok_or("no Age attribute")?;
    for (&emp, &want) in acked {
        let name = &oracle.employees[emp];
        let o = db
            .oids()
            .find_sym(name)
            .ok_or_else(|| format!("{name} missing"))?;
        let got = match db.stored_value(o, age, &[]) {
            Some(Val::Scalar(v)) => db.render(*v),
            other => format!("{other:?}"),
        };
        if got != want.to_string() {
            return Err(format!("{name}.Age is {got}, last acknowledged {want}"));
        }
    }
    Ok(())
}
