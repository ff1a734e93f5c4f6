//! Durability-cost bench: per-commit writer latency through the full
//! protocol stack with the write-ahead log on (fsync per append, the
//! production default) versus durability off.
//!
//! The acceptance gate is an **absolute budget**: making a commit durable
//! is one overwrite of preallocated log blocks plus exactly one
//! `fdatasync`, so the durable p50 may exceed the ephemeral p50 by at most
//! [`GATE_BUDGET_US`], and the fsync count must equal the commit count.
//! (It used to be a ratio, ≤ 1.10× of a ~9 ms commit; since an update
//! re-propagates only the changed cone the commit in front of the log is
//! ~0.9 ms here and a spaced-out `fdatasync` is a large share of it by
//! construction, which says nothing about the log.) Measured with the
//! segmented log: overhead 301–473 µs over four runs on a quiet box (the
//! growing `wal.log` read 255–407 µs in the same hour: the daemons here
//! alternate ten commits each, so every burst starts on an idle disk and
//! the sync's device flush, not the journal, is what is timed). The
//! budget was 1200 µs against a 360 µs reading; it is 800 µs now — above
//! one sync and below two, so a second sync per commit, or a per-commit
//! state capture creeping back in, fails it. Emits one
//! machine-readable JSON line after the human summary and exits non-zero
//! when the gate fails across all attempts.

use insta_engine::{InstaConfig, InstaEngine};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::{RefSta, StaConfig};
use insta_serve::{Client, DurabilityConfig, Op, ServeConfig, Server};
use insta_support::json::{obj, Json, ToJson};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Durable median commit latency may exceed ephemeral by this much (µs).
const GATE_BUDGET_US: f64 = 800.0;
/// Noise retries, same policy as the other gates.
const ATTEMPTS: usize = 3;
/// Unmeasured commits per daemon before the interleaved measurement.
const WARMUP: usize = 8;

fn build_engine() -> InstaEngine {
    let design = generate_design(&GeneratorConfig::block("wal-bench", 91, 0.25));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference STA");
    sta.full_update(&design);
    let mut engine = InstaEngine::new(
        sta.export_insta_init(),
        InstaConfig {
            top_k: 16,
            ..InstaConfig::default()
        },
    )
    .expect("engine init");
    engine.propagate();
    engine
}

fn connect(server: &Server) -> (Client<UnixStream, UnixStream>, std::thread::JoinHandle<()>) {
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    let srv = server.clone();
    let h = std::thread::spawn(move || {
        let r = theirs.try_clone().expect("clone");
        srv.handle_connection(r, theirs);
    });
    (Client::new(ours.try_clone().expect("clone"), ours), h)
}

/// One update commit round-trip, returning its latency in µs. Each
/// commit is a realistic multi-arc ECO batch whose values alternate, so
/// every commit re-propagates a real cone.
fn one_commit(cl: &mut Client<UnixStream, UnixStream>, i: usize) -> f64 {
    let mean = if i % 2 == 0 { 30.0 } else { 10.0 };
    let deltas: Vec<Json> = (0..8_u64)
        .map(|arc| {
            obj([
                ("arc", arc.to_json()),
                (
                    "mean",
                    Json::Arr(vec![
                        (mean + arc as f64).to_json(),
                        (mean + arc as f64).to_json(),
                    ]),
                ),
                ("sigma", Json::Arr(vec![2.0.to_json(), 2.0.to_json()])),
            ])
        })
        .collect();
    let params = obj([("deltas", Json::Arr(deltas))]);
    let t = Instant::now();
    let r = cl.call(Op::Update, None, params).expect("commit round-trip");
    assert!(r.ok, "{:?}", r.error);
    t.elapsed().as_secs_f64() * 1e6
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Attempt {
    p50_off: f64,
    p99_off: f64,
    p50_on: f64,
    p99_on: f64,
    fsyncs: u64,
    wal_bytes: u64,
    overhead_us: f64,
    pass: bool,
}

fn run_attempt(commits: usize) -> Attempt {
    // Two daemons over twin engines: durability off (the ephemeral
    // daemon) and durability on with fsync per append (the
    // production default); checkpoints off and sync pacing off so the
    // measurement isolates the per-commit WAL cost rather than the
    // periodic snapshot write or the wait for a sync slot.
    let off_server = Server::new(build_engine(), ServeConfig::default());
    let dir = std::env::temp_dir().join(format!("insta-wal-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.checkpoint_every = 0;
    dcfg.sync_interval = std::time::Duration::ZERO;
    let (on_server, _report) =
        Server::with_durability(build_engine(), ServeConfig::default(), dcfg).expect("durability");

    let (mut off_cl, off_h) = connect(&off_server);
    let (mut on_cl, on_h) = connect(&on_server);
    // Warm caches, the allocator, and the page cache on both daemons.
    for i in 0..WARMUP {
        one_commit(&mut off_cl, i);
        one_commit(&mut on_cl, i);
    }
    // Interleave the two measurements in small chunks so slow drift
    // (CPU frequency, page-cache writeback, a noisy neighbor) hits both
    // sides equally instead of biasing whichever phase ran second.
    const CHUNK: usize = 10;
    let mut off = Vec::with_capacity(commits);
    let mut on = Vec::with_capacity(commits);
    let mut i = 0;
    while off.len() < commits {
        let n = CHUNK.min(commits - off.len());
        for _ in 0..n {
            off.push(one_commit(&mut off_cl, i));
            i += 1;
        }
        for _ in 0..n {
            on.push(one_commit(&mut on_cl, i));
            i += 1;
        }
    }
    drop(off_cl);
    drop(on_cl);
    off_h.join().expect("off connection");
    on_h.join().expect("on connection");
    off.sort_by(|a, b| a.partial_cmp(b).unwrap());
    on.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let stats = &on_server.durability().expect("layer").stats;
    let fsyncs = stats.fsyncs.load(std::sync::atomic::Ordering::Relaxed);
    let wal_bytes = stats.wal_bytes.load(std::sync::atomic::Ordering::Relaxed);
    drop(on_server);
    drop(off_server);
    let _ = std::fs::remove_dir_all(&dir);

    let p50_off = percentile(&off, 0.50);
    let p50_on = percentile(&on, 0.50);
    let overhead_us = p50_on - p50_off;
    // Warm-up commits are logged too: one sync per commit, no more.
    let pass = overhead_us <= GATE_BUDGET_US && fsyncs == (commits + WARMUP) as u64;
    Attempt {
        p50_off,
        p99_off: percentile(&off, 0.99),
        p50_on,
        p99_on: percentile(&on, 0.99),
        fsyncs,
        wal_bytes,
        overhead_us,
        pass,
    }
}

fn main() {
    let fast = std::env::var_os("INSTA_BENCH_FAST").is_some();
    let commits = if fast { 60 } else { 400 };

    let mut last = None;
    let mut passed = false;
    for attempt in 1..=ATTEMPTS {
        let a = run_attempt(commits);
        eprintln!(
            "wal_overhead attempt {attempt}: durability-off p50 {:.0}us p99 {:.0}us | \
             durability-on p50 {:.0}us p99 {:.0}us ({} fsyncs, {} WAL bytes) | \
             overhead {:+.0}us | {}",
            a.p50_off,
            a.p99_off,
            a.p50_on,
            a.p99_on,
            a.fsyncs,
            a.wal_bytes,
            a.overhead_us,
            if a.pass { "PASS" } else { "RETRY" },
        );
        let ok = a.pass;
        last = Some(a);
        if ok {
            passed = true;
            break;
        }
    }
    let a = last.expect("at least one attempt");
    println!(
        "{}",
        obj([
            ("suite", Json::Str("wal_overhead".into())),
            ("commits", Json::Num(commits as f64)),
            ("p50_off_us", Json::Num(a.p50_off)),
            ("p99_off_us", Json::Num(a.p99_off)),
            ("p50_on_us", Json::Num(a.p50_on)),
            ("p99_on_us", Json::Num(a.p99_on)),
            ("fsyncs", Json::Num(a.fsyncs as f64)),
            ("wal_bytes", Json::Num(a.wal_bytes as f64)),
            ("overhead_us", Json::Num(a.overhead_us)),
            ("gate_budget_us", Json::Num(GATE_BUDGET_US)),
            ("pass", Json::Bool(passed)),
        ])
    );
    if !passed {
        eprintln!(
            "wal_overhead: durable p50 {:.0}us vs ephemeral p50 {:.0}us breaks the \
             {GATE_BUDGET_US:.0}us budget, or {} fsyncs for {} commits, after {ATTEMPTS} attempts",
            a.p50_on,
            a.p50_off,
            a.fsyncs,
            commits + WARMUP
        );
        std::process::exit(1);
    }
}
