//! The layer replay: a seeded sample of the requests a traced run sent
//! is replayed through each layer's public functions, one layer at a
//! time, so every layer is timed from outside without touching library
//! code.
//!
//! A replayed read is a `replay.read` span whose children are the
//! steps the server and client take for it, in order: the in-process
//! service call, rendering every cell, encoding the response frames
//! and decoding them again. A replayed commit is a `replay.commit`
//! span whose children are the writer's steps: executing the update
//! with the per-statement fsync off, the group fsync, cloning the
//! database and publishing the clone as the next epoch.

use crate::stats::Ratio;
use crate::trace::{ReqId, Trace};
use crate::workload::{
    stream_rng, Kind, Live, Req, Rng, Stream, BASE_TAG, STREAM_REPLAY, WIDE_NAME, WIDE_QUERY,
};
use net::frame::{self, Frame, FrameBuf};
use oodb::EpochCell;
use service::{ExecResult, QueryContext};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use storage::RealFs;
use xsql::{parse, resolve_stmt, vm, EvalOptions, Outcome, Session};

/// Statements of reader 0's seeded stream run through one replay
/// session to measure plan-cache behaviour and `Session::run`.
const SEQ_LEN: usize = 256;
/// Distinct statements timed through parse, resolve and compile.
const FRONT_SAMPLES: usize = 32;
/// Warm- and cold-cache runs timed even when the sequence never hits
/// (`point_read`) or misses only once (`wide_read`).
const MIN_CACHE_SAMPLES: usize = 8;
/// Reader-session rebuilds timed.
const REBUILD_SAMPLES: usize = 8;
/// Commits replayed through a fresh store.
const COMMIT_SAMPLES: usize = 24;
/// The client reads the socket in chunks of this size.
const CLIENT_CHUNK: usize = 8192;

pub struct Replayed {
    pub trace: Trace,
    /// Per replayed response: frames, wire bytes, rows.
    pub frames: Vec<f64>,
    pub wire_bytes: Vec<f64>,
    pub rows: Vec<f64>,
    /// Plan-cache hits over lookups along the seeded sequence.
    pub cache_hits: Ratio,
    /// Store directory growth over replayed commits.
    pub wal_bytes_per_commit: Ratio,
}

/// Replays `reads` and `writes` (sampled from a traced run's log, keyed
/// by their frame ids) against `live`'s current epoch.
pub fn replay(
    live: &Live,
    reads: &[(ReqId, Req)],
    writes: &[(ReqId, Req)],
    run_dir: &Path,
    origin: Instant,
) -> Result<Replayed, String> {
    let mut out = Replayed {
        trace: Trace::new(origin),
        frames: Vec::new(),
        wire_bytes: Vec::new(),
        rows: Vec::new(),
        cache_hits: Ratio::new(0.0, 0.0),
        wal_bytes_per_commit: Ratio::new(0.0, 0.0),
    };
    replay_reads(live, reads, &mut out)?;
    replay_xsql(live, &mut out)?;
    replay_commits(live, writes, run_dir, &mut out)?;
    Ok(out)
}

fn replay_reads(live: &Live, reads: &[(ReqId, Req)], out: &mut Replayed) -> Result<(), String> {
    let tr = &mut out.trace;
    let mut h = live.svc.connect().map_err(|e| e.to_string())?;
    let ctx = QueryContext::default();
    if live.kind == Kind::WideRead {
        h.execute(&format!("PREPARE {WIDE_NAME} AS {WIDE_QUERY}"), &ctx)
            .map_err(|e| e.to_string())?;
    }
    for (rid, req) in reads {
        let rid = *rid;
        let src = match req {
            Req::Wide => format!("EXECUTE {WIDE_NAME}"),
            other => other.text(&live.oracle),
        };
        let root = tr.open("replay.read", None, rid);
        let res = tr.time("service.handle_read", Some(root), rid, || {
            h.execute(&src, &ctx)
        });
        let r = match res.map_err(|e| e.to_string())? {
            ExecResult::Read(r) => r,
            other => return Err(format!("replayed read answered {other:?}")),
        };
        let Outcome::Relation(rel) = &r.outcome else {
            return Err("replayed read produced no relation".into());
        };
        // The server's `read_frames`: header, one rendered row per
        // tuple, terminal Done.
        let frames = tr.time("oodb.render", Some(root), rid, || {
            let oids = r.snapshot.oids();
            let mut f = Vec::with_capacity(rel.len() + 2);
            f.push(Frame::RowsHeader {
                id: rid.frame,
                epoch: r.epoch,
                columns: rel.columns().to_vec(),
            });
            f.extend(rel.iter().map(|t| Frame::Row {
                id: rid.frame,
                cells: t.iter().map(|o| oids.render(*o)).collect(),
            }));
            f.push(Frame::Done {
                id: rid.frame,
                epoch: r.epoch,
                rows: rel.len() as u64,
                info: String::new(),
            });
            f
        });
        let encoded: Vec<Vec<u8>> = tr.time("net.encode", Some(root), rid, || {
            frames.iter().map(frame::encode).collect()
        });
        let wire: Vec<u8> = encoded.concat();
        // The client's `read_frame` loop: drain complete frames, then
        // take the next socket chunk.
        let decoded = tr.time("net.decode", Some(root), rid, || {
            let mut fb = FrameBuf::new();
            let mut n = 0usize;
            for chunk in wire.chunks(CLIENT_CHUNK) {
                fb.push(chunk);
                while let Some(f) = fb.next_frame().map_err(|e| e.to_string())? {
                    black_box(&f);
                    n += 1;
                }
            }
            Ok::<usize, String>(n)
        })?;
        tr.close(root);
        let crc = tr.time("net.crc", None, rid, || {
            encoded.iter().fold(0u32, |acc, b| {
                acc ^ storage::wal::crc32(0, &b[frame::HEADER..])
            })
        });
        black_box(crc);
        let want = match req {
            Req::Point(k) => live.oracle.salary_counts.get(k).copied().unwrap_or(0),
            _ => live.oracle.wide_rows.len(),
        };
        if decoded != frames.len() || rel.len() != want {
            return Err(format!(
                "replayed read decoded {decoded} of {} frames with {} rows, expected {want}",
                frames.len(),
                rel.len()
            ));
        }
        out.frames.push(frames.len() as f64);
        out.wire_bytes.push(wire.len() as f64);
        out.rows.push(rel.len() as f64);
    }
    Ok(())
}

/// Times `Session::run` along reader 0's seeded statement sequence
/// (classifying each run as a plan-cache hit or miss by the session's
/// own counters), the compile path of its first distinct statements,
/// and rebuilding a reader session from the epoch.
fn replay_xsql(live: &Live, out: &mut Replayed) -> Result<(), String> {
    let tr = &mut out.trace;
    let db = live.svc.epoch().db;
    let err = |e: xsql::XsqlError| e.to_string();
    let mut stream = Stream::new(
        live.kind,
        false,
        stream_rng(live.seed, 0, false),
        &live.oracle,
    );
    let seq: Vec<String> = (0..SEQ_LEN)
        .map(|_| stream.next(&live.oracle).text(&live.oracle))
        .collect();
    let rid = ReqId::default();

    let mut sess = Session::with_options((*db).clone(), EvalOptions::default());
    let counter = |s: &Session, name: &str| s.registry().counter_total(name) as f64;
    let (h0, m0) = (
        counter(&sess, "xsql_plan_cache_hits_total"),
        counter(&sess, "xsql_plan_cache_misses_total"),
    );
    let (mut hit_runs, mut miss_runs) = (0, 0);
    for src in &seq {
        let before = counter(&sess, "xsql_plan_cache_misses_total");
        let idx = tr.open("xsql.run", None, rid);
        black_box(sess.run(src).map_err(err)?);
        tr.close(idx);
        if counter(&sess, "xsql_plan_cache_misses_total") > before {
            tr.spans[idx].name = "xsql.run_miss";
            miss_runs += 1;
        } else {
            tr.spans[idx].name = "xsql.run_hit";
            hit_runs += 1;
        }
    }
    let hits = counter(&sess, "xsql_plan_cache_hits_total") - h0;
    let lookups = hits + counter(&sess, "xsql_plan_cache_misses_total") - m0;
    out.cache_hits = Ratio::new(hits, lookups);
    // Re-running the statement just run is a hit; a fresh session is a
    // cold cache.
    let last = seq.last().expect("SEQ_LEN > 0");
    for _ in hit_runs..MIN_CACHE_SAMPLES {
        black_box(
            tr.time("xsql.run_hit", None, rid, || sess.run(last))
                .map_err(err)?,
        );
    }
    drop(sess);
    for src in seq
        .iter()
        .cycle()
        .take(MIN_CACHE_SAMPLES.saturating_sub(miss_runs))
    {
        let mut cold = Session::with_options((*db).clone(), EvalOptions::default());
        black_box(
            tr.time("xsql.run_miss", None, rid, || cold.run(src))
                .map_err(err)?,
        );
    }

    let mut front_db = (*db).clone();
    let opts = EvalOptions::default();
    let mut distinct: Vec<&String> = Vec::new();
    for src in &seq {
        if distinct.len() < FRONT_SAMPLES && !distinct.contains(&src) {
            distinct.push(src);
        }
    }
    for src in distinct {
        let root = tr.open("replay.front", None, rid);
        let stmt = tr
            .time("xsql.parse", Some(root), rid, || parse(src))
            .map_err(err)?;
        let resolved = tr
            .time("xsql.resolve", Some(root), rid, || {
                resolve_stmt(&mut front_db, &stmt)
            })
            .map_err(err)?;
        let prog = tr.time("xsql.compile", Some(root), rid, || {
            vm::Program::compile(&front_db, &opts, resolved, 0)
        });
        black_box(prog);
        tr.close(root);
    }

    for _ in 0..REBUILD_SAMPLES {
        let s = tr.time("service.reader_rebuild", None, rid, || {
            Session::with_options((*db).clone(), EvalOptions::default())
        });
        drop(black_box(s));
    }
    Ok(())
}

/// Replays commits through a fresh store over the current epoch, the
/// way the service writer runs a one-unit group commit.
fn replay_commits(
    live: &Live,
    writes: &[(ReqId, Req)],
    run_dir: &Path,
    out: &mut Replayed,
) -> Result<(), String> {
    let tr = &mut out.trace;
    // Read-only workloads have no logged writes: draw seeded updates
    // over the same employees.
    let mut stream = Stream::new(
        live.kind,
        true,
        Rng::new(live.seed, STREAM_REPLAY),
        &live.oracle,
    );
    let drawn: Vec<(ReqId, Req)>;
    let writes = if writes.is_empty() {
        drawn = (0..COMMIT_SAMPLES)
            .map(|i| {
                let rid = ReqId {
                    conn: 0,
                    frame: i as u64 + 1,
                };
                (rid, stream.next(&live.oracle))
            })
            .collect();
        &drawn[..]
    } else {
        writes
    };
    let err = |e: xsql::XsqlError| e.to_string();
    let dir = run_dir.join("replay-store");
    let _ = std::fs::remove_dir_all(&dir);
    let db = live.svc.epoch().db;
    let mut s = Session::open_dir(
        Box::new(RealFs),
        &dir,
        (*db).clone(),
        BASE_TAG,
        EvalOptions::default(),
    )
    .map_err(err)?;
    let cell = EpochCell::new(s.db().clone());
    let size0 = dir_bytes(&dir);
    for (rid, req) in writes {
        let rid = *rid;
        let src = req.text(&live.oracle);
        let root = tr.open("replay.commit", None, rid);
        s.set_sync_on_commit(false);
        tr.time("storage.write_exec", Some(root), rid, || s.run(&src))
            .map_err(err)?;
        tr.time("storage.fsync", Some(root), rid, || s.sync_wal())
            .map_err(err)?;
        s.set_sync_on_commit(true);
        let snap = tr.time("oodb.clone", Some(root), rid, || s.db().clone());
        tr.time("oodb.publish", Some(root), rid, || cell.publish(snap));
        let ck = tr.open("storage.checkpoint", Some(root), rid);
        let fired = s.checkpoint_if_due().map_err(err)?.is_some();
        tr.close(ck);
        if !fired {
            tr.spans.pop();
        }
        tr.close(root);
    }
    let grown = dir_bytes(&dir).saturating_sub(size0);
    out.wal_bytes_per_commit = Ratio::new(grown as f64, writes.len() as f64);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Total size of the regular files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
