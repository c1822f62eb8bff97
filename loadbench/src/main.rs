//! End-to-end load benchmark: XSQL path queries over scaled Figure 1
//! data, sent over TCP through `net::Client` to an in-process
//! `net::Server` in front of `service::Service`.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload wide_read|point_read|mixed_commit --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation,
//! as medians over several independently set-up instances.
//! `--trace 1` measures the per-layer metrics: it alternates untraced
//! and traced windows (client-side spans per request, keyed by frame
//! id), then replays a seeded sample of the traced requests through
//! each layer's public functions (see `replay.rs`). Every run checks its
//! outputs. Human-readable lines, each metric with its unit and sample
//! count, come first; the last line of standard output is one JSON
//! object. A failed output check exits 1.

mod replay;
mod stats;
mod trace;
mod workload;

use stats::{bucket_quantile, Ratio, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime};
use trace::{ReqId, Trace};
use workload::{Kind, Live, Req, Rng, Tally, STREAM_REPLAY};

/// Independently set-up instances per `--trace 0` run.
const INSTANCES: usize = 15;
/// Reads and commits sampled from a traced run for the replay.
const REPLAY_READS: usize = 64;
const REPLAY_WRITES: usize = 24;
/// Directory, under the working directory, for stores and trace files.
const RUN_DIR: &str = ".bench_run";

/// Blocking steps of one read and one commit, in the replay's span
/// names. Their self times are what a request waits for.
const READ_CHAIN: [&str; 4] = [
    "service.handle_read",
    "oodb.render",
    "net.encode",
    "net.decode",
];
const COMMIT_CHAIN: [&str; 4] = [
    "storage.write_exec",
    "storage.fsync",
    "oodb.clone",
    "oodb.publish",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let args = Args {
        kind: Kind::parse(get("--workload")?).ok_or("unknown --workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    };
    if kv.len() != 4 {
        return Err("unexpected arguments".into());
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count, or the base of a ratio.
    note: String,
}

struct Report {
    metrics: Vec<Metric>,
    /// Printed, but not part of the JSON result.
    extra: Vec<Metric>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            extra: Vec::new(),
        }
    }

    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    fn extra(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.extra.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    fn ratio(&mut self, name: &'static str, r: Ratio, unit: &'static str) {
        self.add(
            name,
            r.value(),
            unit,
            format!("{} / base {}", r.num, r.base),
        );
    }

    fn print(&self, tally: &Tally) {
        for (tag, list) in [("metric", &self.metrics), ("info", &self.extra)] {
            for m in list {
                println!("{tag} {} = {} {} ({})", m.name, m.value, m.unit, m.note);
            }
        }
        let err = Ratio::new(tally.failed as f64, tally.attempted as f64);
        println!(
            "info error_ratio = {err} (refused {}, wrong {})",
            tally.refused, tally.wrong
        );
        for e in &tally.errors {
            println!("error {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.correct(),
            tally.attempted.max(1),
            tally.failed,
            metrics.join(", ")
        );
    }
}

fn n(s: &Summary) -> String {
    format!("n={}", s.n)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a command, or `unknown` when it cannot run.
fn command_line(prog: &str, args: &[&str]) -> String {
    std::process::Command::new(prog)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDTHH:MM:SSZ` for the current UTC time.
fn utc_now() -> String {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = ((secs / 86_400) as i64, secs % 86_400);
    // Civil date from days since 1970-01-01 (H. Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

fn fingerprint(a: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only a checkout that is itself a git work tree: git would otherwise
    // search the parent directories.
    let rev = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".into()
    };
    println!(
        "info fingerprint nproc={nproc} git={} date={} rustc=\"{}\" workload={} seed={} seconds={} trace={}",
        rev,
        utc_now(),
        command_line("rustc", &["--version"]),
        a.kind.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            eprintln!("usage: loadbench --workload wide_read|point_read|mixed_commit --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("loadbench: cannot create {RUN_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    fingerprint(&args);
    let res = if args.trace {
        run_traced(&args, &run_dir)
    } else {
        run_end_to_end(&args, &run_dir)
    };
    match res {
        Ok((report, tally)) => {
            report.print(&tally);
            if tally.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One stream of requests (reads or commits) over all instances.
#[derive(Default)]
struct PerInstance {
    ops_per_s: Vec<f64>,
    p50: Vec<f64>,
    /// Latencies of every instance, pooled.
    pooled_ms: Vec<f64>,
}

impl PerInstance {
    fn push(&mut self, lat_ms: &[f64], secs: f64) {
        let s = Summary::of(lat_ms);
        self.ops_per_s.push(s.n as f64 / secs);
        self.p50.push(s.p50);
        self.pooled_ms.extend_from_slice(lat_ms);
    }

    /// `ops_per_s` and `p50_ms` as medians over instances, `p95_ms`
    /// over the pooled latencies (an instance alone has too few
    /// samples beyond its p95), each with its sample note.
    fn figures(&self) -> [(f64, String); 3] {
        let pooled = Summary::of(&self.pooled_ms);
        let median = |of: &[f64]| {
            let note = format!("median of {} instances, n={}", of.len(), pooled.n);
            (Summary::of(of).p50, note)
        };
        [
            median(&self.ops_per_s),
            median(&self.p50),
            (pooled.p95, format!("pooled, n={}", pooled.n)),
        ]
    }
}

/// Runs `INSTANCES` independent instances of the workload, each set up
/// from scratch, measured for an equal share of `--seconds` with no
/// tracing, and torn down (with the durability check). Throughput and
/// median latency are medians over instances: an instance settles into
/// one of several steady states (thread placement, allocator arenas,
/// the phase between writer and reader) for its whole life, and a
/// co-tenant's burst hits one instance, not all. Peak RSS is read after
/// the first instance, before freed memory of earlier instances can
/// make it depend on allocator reuse.
fn run_end_to_end(a: &Args, run_dir: &Path) -> Result<(Report, Tally), String> {
    let mut all = Tally::default();
    let mut setup_s = Vec::new();
    let (mut reads, mut commits) = (PerInstance::default(), PerInstance::default());
    let mut rss = 0.0;
    let share = Duration::from_secs_f64(a.seconds as f64 / INSTANCES as f64);
    for k in 0..INSTANCES {
        let (mut live, spent, warm) = Live::start(a.kind, a.seed, run_dir, k)?;
        setup_s.push(spent.as_secs_f64());
        let mut acked = warm.acked.clone();
        all.absorb(warm);
        let (tally, _, len) = live.window(share, None);
        if k == 0 {
            rss = peak_rss_mb();
        }
        let secs = len.as_secs_f64();
        reads.push(&tally.read_ms, secs);
        commits.push(&tally.commit_ms, secs);
        println!(
            "info instance {k}: setup {:.3} s, {:.1} reads/s, read p50 {:.3} ms, {} reads, {} commits, {} epoch changes",
            spent.as_secs_f64(),
            reads.ops_per_s[k],
            reads.p50[k],
            tally.read_ms.len(),
            tally.commit_ms.len(),
            tally.epoch_changes
        );
        acked.extend(tally.acked.clone());
        live.finish(&acked, &mut all);
        all.absorb(tally);
    }

    let mut r = Report::new();
    let setup = Summary::of(&setup_s);
    r.add(
        "setup_s",
        setup.p50,
        "s",
        format!("median of {} set-ups", setup.n),
    );
    let [ops, p50, p95] = reads.figures();
    r.add("read_ops_per_s", ops.0, "1/s", ops.1);
    r.add("read_p50_ms", p50.0, "ms", p50.1);
    r.add("read_p95_ms", p95.0, "ms", p95.1);
    r.add(
        "peak_rss_mb",
        rss,
        "MB",
        "VmHWM after the first instance".into(),
    );
    let pooled = Summary::of(&reads.pooled_ms);
    r.extra(
        "read_iqr_ratio",
        pooled.iqr_ratio(),
        "ratio",
        format!("pooled, n={}", pooled.n),
    );
    if a.kind == Kind::MixedCommit {
        let [ops, p50, p95] = commits.figures();
        r.extra("commit_ops_per_s", ops.0, "1/s", ops.1);
        r.extra("commit_p50_ms", p50.0, "ms", p50.1);
        r.extra("commit_p95_ms", p95.0, "ms", p95.1);
    }
    Ok((r, all))
}

/// Picks up to `k` entries of `pool` without replacement, in pool order.
fn sample(pool: &[(ReqId, Req)], k: usize, rng: &mut Rng) -> Vec<(ReqId, Req)> {
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    let k = k.min(idx.len());
    for i in 0..k {
        let j = i + rng.below(idx.len() - i);
        idx.swap(i, j);
    }
    let mut chosen = idx[..k].to_vec();
    chosen.sort_unstable();
    chosen.into_iter().map(|i| pool[i].clone()).collect()
}

/// Alternates untraced and traced windows, replays a sample of the
/// traced requests layer by layer, and derives the per-layer metrics.
fn run_traced(a: &Args, run_dir: &Path) -> Result<(Report, Tally), String> {
    let (mut live, _, warm) = Live::start(a.kind, a.seed, run_dir, 0)?;
    let mut acked = warm.acked.clone();
    let mut all = Tally::default();
    all.absorb(warm);

    let reg = std::sync::Arc::clone(live.svc.registry());
    let hists = [
        reg.latency("svc_read_admission_latency_us", &[]),
        reg.latency("svc_write_queue_latency_us", &[]),
        reg.latency("storage_checkpoint_latency_us", &[("result", "ok")]),
    ];
    let before: Vec<_> = hists.iter().map(|h| h.cumulative_buckets()).collect();

    let origin = Instant::now();
    let quarter = Duration::from_secs_f64(a.seconds as f64 / 4.0);
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut plain_secs = 0.0;
    let mut tcp = Trace::new(origin);
    for i in 0..4 {
        let on = i % 2 == 1;
        let (t, tr, len) = live.window(quarter, on.then_some(origin));
        acked.extend(t.acked.clone());
        if on {
            tcp.absorb(tr);
            traced.absorb(t);
        } else {
            plain_secs += len.as_secs_f64();
            plain.absorb(t);
        }
    }
    let after: Vec<_> = hists.iter().map(|h| h.cumulative_buckets()).collect();

    let mut rng = Rng::new(a.seed, STREAM_REPLAY + 1);
    let (mut read_log, mut write_log) = (Vec::new(), Vec::new());
    for w in &live.workers {
        if w.writer {
            write_log.extend(w.log.iter().cloned());
        } else {
            read_log.extend(w.log.iter().cloned());
        }
    }
    let reads = sample(&read_log, REPLAY_READS, &mut rng);
    let writes = sample(&write_log, REPLAY_WRITES, &mut rng);
    let replayed = replay::replay(&live, &reads, &writes, run_dir, origin);

    let plain_reads = Summary::of(&plain.read_ms);
    let traced_reads = Summary::of(&traced.read_ms);
    let plain_commits = Summary::of(&plain.commit_ms);
    let rebuilds = Ratio::new(
        (plain.epoch_changes + traced.epoch_changes) as f64,
        (plain.reads + traced.reads) as f64,
    );
    let plain_read_n = plain.read_ms.len();
    all.absorb(plain);
    all.absorb(traced);
    live.finish(&acked, &mut all);
    let rep = replayed?;

    let layers = rep.trace.self_us_by_name();
    let layer = |name: &str| Summary::of(layers.get(name).map_or(&[][..], |v| &v[..]));
    let mut r = Report::new();
    let timed = |r: &mut Report, metric: &'static str, span: &str| {
        let s = layer(span);
        r.add(metric, s.p50, "us", format!("self-time p50, {}", n(&s)));
        s.p50
    };
    timed(&mut r, "net.encode_us", "net.encode");
    timed(&mut r, "net.decode_us", "net.decode");
    timed(&mut r, "net.crc_us", "net.crc");
    let frames = Summary::of(&rep.frames);
    r.add(
        "net.frames",
        frames.p50,
        "count",
        format!("median per response, {}", n(&frames)),
    );
    let bytes = Summary::of(&rep.wire_bytes);
    r.add(
        "net.wire_bytes",
        bytes.p50,
        "bytes",
        format!("median per response, {}", n(&bytes)),
    );
    let handle = timed(&mut r, "service.handle_read_us", "service.handle_read");
    r.add(
        "net.overhead_us",
        plain_reads.p50 * 1e3 - handle,
        "us",
        format!("TCP read p50 ({}) - in-process p50", n(&plain_reads)),
    );
    let rebuild = timed(
        &mut r,
        "service.reader_rebuild_us",
        "service.reader_rebuild",
    );
    r.ratio("service.reader_rebuild_ratio", rebuilds, "ratio");
    timed(&mut r, "xsql.parse_us", "xsql.parse");
    timed(&mut r, "xsql.resolve_us", "xsql.resolve");
    timed(&mut r, "xsql.compile_us", "xsql.compile");
    timed(&mut r, "xsql.run_hit_us", "xsql.run_hit");
    timed(&mut r, "xsql.run_miss_us", "xsql.run_miss");
    r.ratio("xsql.plan_cache_hit_ratio", rep.cache_hits, "ratio");
    let rows = Summary::of(&rep.rows);
    r.add(
        "xsql.rows_out",
        rows.p50,
        "count",
        format!("median per response, {}", n(&rows)),
    );
    timed(&mut r, "oodb.render_us", "oodb.render");
    timed(&mut r, "oodb.clone_us", "oodb.clone");
    timed(&mut r, "oodb.publish_us", "oodb.publish");
    timed(&mut r, "storage.write_exec_us", "storage.write_exec");
    timed(&mut r, "storage.fsync_us", "storage.fsync");
    r.ratio(
        "storage.wal_bytes_per_commit",
        rep.wal_bytes_per_commit,
        "bytes",
    );

    // What a read waits for: the replayed blocking steps, plus a reader
    // rebuild on the share of reads that found a new epoch.
    let e2e_us = plain_reads.p50 * 1e3;
    let blocking: f64 =
        READ_CHAIN.iter().map(|s| layer(s).p50).sum::<f64>() + rebuilds.value() * rebuild;
    r.ratio(
        "trace.unaccounted_ratio",
        Ratio::new(e2e_us - blocking, e2e_us),
        "ratio",
    );
    r.ratio(
        "trace.overhead_ratio",
        Ratio::new(traced_reads.p50, plain_reads.p50),
        "ratio",
    );

    let wait = |i: usize| bucket_quantile(&before[i], &after[i], 0.5);
    let (adm_n, adm) = wait(0);
    r.extra(
        "service.read_admission_wait_us",
        adm,
        "us",
        format!("svc histogram p50, n={adm_n}"),
    );
    let (wq_n, wq) = wait(1);
    r.extra(
        "service.write_queue_wait_us",
        wq,
        "us",
        format!("svc histogram p50, n={wq_n}"),
    );
    let (ck_n, ck) = wait(2);
    r.extra(
        "storage.checkpoint_us",
        ck,
        "us",
        format!("storage histogram p50, n={ck_n}"),
    );
    r.extra(
        "storage.checkpoints",
        ck_n as f64,
        "count",
        "during the measured windows".into(),
    );
    r.extra(
        "read_p50_ms",
        plain_reads.p50,
        "ms",
        format!("untraced windows, {}", n(&plain_reads)),
    );
    r.extra(
        "read_ops_per_s",
        plain_read_n as f64 / plain_secs,
        "1/s",
        format!("untraced windows, n={plain_read_n} in {plain_secs:.3} s"),
    );
    r.extra(
        "traced_read_p50_ms",
        traced_reads.p50,
        "ms",
        format!("traced windows, {}", n(&traced_reads)),
    );
    for step in READ_CHAIN {
        let s = layer(step);
        r.extra(
            "read_chain",
            s.p50,
            "us",
            format!("{step} self-time p50, {}", n(&s)),
        );
    }
    if a.kind == Kind::MixedCommit {
        let commit_us = plain_commits.p50 * 1e3;
        let mut chain = 0.0;
        for step in COMMIT_CHAIN {
            let s = layer(step);
            chain += s.p50;
            r.extra(
                "commit_chain",
                s.p50,
                "us",
                format!("{step} self-time p50, {}", n(&s)),
            );
        }
        r.extra(
            "trace.commit_unaccounted_ratio",
            Ratio::new(commit_us - chain, commit_us).value(),
            "ratio",
            format!(
                "{} / base {commit_us} (untraced commit p50, {})",
                commit_us - chain,
                n(&plain_commits)
            ),
        );
    }

    let mut full = tcp;
    full.absorb(rep.trace);
    let path = run_dir.join(format!("trace-{}.tsv", a.kind.name()));
    if let Err(e) = full.write_tsv(&path) {
        eprintln!("loadbench: cannot write {}: {e}", path.display());
    } else {
        println!(
            "info spans {} written to {}",
            full.spans.len(),
            path.display()
        );
    }
    Ok((r, all))
}
