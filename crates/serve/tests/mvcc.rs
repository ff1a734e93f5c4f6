//! The MVCC guarantee, observed over the wire: N concurrent protocol
//! readers racing one writer across an epoch swap each see a *wholly*
//! consistent snapshot — bit-identical to the serial ground truth of its
//! epoch, old or new, never a blend.

mod common;

use common::{build_engine, connect, slack_bits};
use insta_refsta::eco::ArcDelta;
use insta_serve::{Op, ServeConfig, Server};
use insta_support::json::{obj, Json, ToJson};

const SEED: u64 = 31;
const K: usize = 8;
const READERS: usize = 4;
const READS_PER_READER: usize = 120;

fn delta() -> ArcDelta {
    ArcDelta {
        arc: 0,
        mean: [60.0; 2],
        sigma: [6.0; 2],
    }
}

#[test]
fn concurrent_readers_see_whole_epochs_never_blends() {
    // Serial ground truth from a twin engine: epoch 0 bits (initial
    // propagation) and epoch 1 bits (after the delta).
    let mut twin = build_engine(SEED, K);
    let truth0: Vec<u64> = twin.report().slacks.iter().map(|s| s.to_bits()).collect();
    let truth1: Vec<u64> = twin
        .update_timing(&[delta()])
        .expect("twin update")
        .slacks
        .iter()
        .map(|s| s.to_bits())
        .collect();
    assert_ne!(truth0, truth1, "the delta must move some slack");

    let server = Server::new(build_engine(SEED, K), ServeConfig::default());
    let mut handles = Vec::new();
    let mut reader_threads = Vec::new();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(READERS + 1));

    for r in 0..READERS {
        let (mut cl, h) = connect(&server);
        handles.push(h);
        let barrier = std::sync::Arc::clone(&barrier);
        let (truth0, truth1) = (truth0.clone(), truth1.clone());
        reader_threads.push(std::thread::spawn(move || {
            barrier.wait();
            let mut seen = [0usize; 2];
            for i in 0..READS_PER_READER {
                let resp = cl
                    .call(Op::ReportSlack, None, Json::Null)
                    .unwrap_or_else(|e| panic!("reader {r} read {i}: {e}"));
                assert!(resp.ok, "reader {r}: {:?}", resp.error);
                let epoch = resp.result.get::<u64>("epoch").unwrap();
                let bits = slack_bits(&resp.result);
                // The whole-epoch check: every slack bit must match the
                // serial truth of the epoch the response claims. A torn
                // snapshot (old report under a new epoch, or a mid-update
                // mixture) fails on raw bits.
                let truth: &[u64] = match epoch {
                    0 => &truth0,
                    1 => &truth1,
                    other => panic!("reader {r} saw impossible epoch {other}"),
                };
                assert_eq!(
                    bits, *truth,
                    "reader {r} read {i}: epoch {epoch} served blended bits"
                );
                seen[epoch as usize] += 1;
            }
            seen
        }));
    }

    // The writer commits mid-storm on its own connection.
    let (mut writer, wh) = connect(&server);
    handles.push(wh);
    barrier.wait();
    std::thread::sleep(std::time::Duration::from_millis(5));
    let up = writer
        .call(
            Op::Update,
            None,
            obj([(
                "deltas",
                Json::Arr(vec![obj([
                    ("arc", 0_u64.to_json()),
                    ("mean", Json::Arr(vec![60.0.to_json(), 60.0.to_json()])),
                    ("sigma", Json::Arr(vec![6.0.to_json(), 6.0.to_json()])),
                ])]),
            )]),
        )
        .expect("writer update");
    assert!(up.ok, "{:?}", up.error);
    assert_eq!(up.result.get::<u64>("epoch").unwrap(), 1);

    let mut seen = [0usize; 2];
    for t in reader_threads {
        let s = t.join().expect("reader thread");
        seen[0] += s[0];
        seen[1] += s[1];
    }
    assert_eq!(seen[0] + seen[1], READERS * READS_PER_READER);
    assert!(
        seen[1] > 0,
        "at least some reads must land after the swap (writer committed mid-storm)"
    );

    // Post-storm: a min_epoch=1 read observes the new epoch exactly.
    let fresh = writer
        .call(
            Op::ReportSlack,
            None,
            obj([("min_epoch", 1_u64.to_json())]),
        )
        .expect("post-storm read");
    assert!(fresh.ok);
    assert_eq!(slack_bits(&fresh.result), truth1);

    drop(writer);
    for h in handles {
        h.join().expect("connection thread");
    }
}

/// A reader that pins an epoch keeps *that epoch*: later commits rewrite
/// the engine's rows chunk by chunk, copying a chunk the pinned snapshot
/// still shares before touching it, so neither its slacks nor any of its
/// point arrivals ever move — and once the reader lets go, the epoch is
/// freed (nobody else counts a reference to it).
#[test]
fn a_pinned_epoch_keeps_its_rows_while_later_commits_rewrite_chunks() {
    const COMMITS: u64 = 12;
    const NODES: u32 = 400;
    let server = Server::new(build_engine(SEED, K), ServeConfig::default());
    let (mut writer, wh) = connect(&server);
    let commit = |writer: &mut common::Conn, i: u64| {
        let mean = 45.0 + i as f64;
        let up = writer
            .call(
                Op::Update,
                None,
                obj([(
                    "deltas",
                    Json::Arr(vec![obj([
                        ("arc", (i % 5).to_json()),
                        ("mean", Json::Arr(vec![mean.to_json(), mean.to_json()])),
                        ("sigma", Json::Arr(vec![4.5.to_json(), 4.5.to_json()])),
                    ])]),
                )]),
            )
            .expect("writer update");
        assert!(up.ok, "{:?}", up.error);
    };
    let image = |snap: &insta_engine::TimingSnapshot| -> Vec<Option<u64>> {
        (0..NODES)
            .flat_map(|node| (0..2).map(move |rf| (node, rf)))
            .map(|(node, rf)| snap.arrival_at(node, rf).map(f64::to_bits))
            .collect()
    };

    // A reader spins on `load()` for the whole run: every snapshot it
    // sees is a whole epoch, never older than the one before.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let started = std::sync::Arc::new(std::sync::Barrier::new(2));
    let spinner = {
        let (server, stop) = (server.clone(), std::sync::Arc::clone(&stop));
        let started = std::sync::Arc::clone(&started);
        std::thread::spawn(move || {
            let (mut last, mut loads) = (0, 0u64);
            started.wait();
            // At least one load, however soon the writer is done.
            while loads == 0 || !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let snap = server.snapshot();
                assert!(snap.epoch() >= last, "epoch went back");
                last = snap.epoch();
                loads += 1;
            }
            (last, loads)
        })
    };

    started.wait();
    let mut pinned = Vec::new();
    for i in 0..COMMITS {
        commit(&mut writer, i);
        let snap = server.snapshot();
        assert_eq!(snap.epoch(), i + 1);
        pinned.push((image(&snap), std::sync::Arc::downgrade(&snap), snap));
    }
    assert!(
        pinned.windows(2).any(|w| w[0].0 != w[1].0),
        "the commits must move some arrival"
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let (last, loads) = spinner.join().expect("spinning reader");
    assert!(last <= COMMITS && loads > 0);
    let mut weak = Vec::new();
    for (then, w, snap) in pinned {
        assert!(
            image(&snap) == then,
            "epoch {} moved under its reader",
            snap.epoch()
        );
        weak.push(w);
    }
    // Only the published epoch is still alive.
    let alive = weak.iter().filter(|w| w.strong_count() > 0).count();
    assert_eq!(alive, 1, "released epochs must be freed");
    drop(writer);
    wh.join().expect("connection thread");
}

/// An epoch's wire image under contention: 8 readers take whole reports
/// as raw frames while a writer publishes 200 epochs, each only after the
/// one before was read. Every reply that carries result epoch E carries
/// the same bytes — the slack bits the writer saw commit — no reader's
/// epochs go back, each epoch's image is written once however many
/// readers race for it, and an image dies with its epoch.
#[test]
fn racing_readers_share_one_image_per_epoch_and_it_dies_with_the_epoch() {
    use insta_serve::protocol::{read_frame, write_frame};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    const RACERS: usize = 8;
    const EPOCHS: u64 = 200;

    let server = Server::new(build_engine(SEED, K), ServeConfig::default());
    let stop = AtomicBool::new(false);
    let bits_of = |server: &Server| -> Vec<u64> {
        let snap = server.snapshot();
        let report = snap.report().expect("a propagated engine");
        report.slacks.iter().map(|s| s.to_bits()).collect()
    };
    // Blocks until some reader has asked for the published epoch's image,
    // so every epoch is one that was read.
    let image_once_read = |server: &Server| loop {
        if let Some(image) = server.published().slack_image() {
            return std::sync::Arc::downgrade(image);
        }
        std::thread::yield_now();
    };

    let (seen, reads, truth, epochs, images) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..RACERS)
            .map(|r| {
                let (server, stop) = (&server, &stop);
                scope.spawn(move || {
                    let (ours, theirs) = std::os::unix::net::UnixStream::pair().expect("pair");
                    let conn = scope.spawn(move || {
                        let reader = theirs.try_clone().expect("clone server half");
                        server.handle_connection(reader, theirs);
                    });
                    let mut from = std::io::BufReader::new(ours.try_clone().expect("clone"));
                    let mut to = ours;
                    // Epoch → the result text it was first seen with.
                    let mut seen = BTreeMap::<u64, String>::new();
                    let (mut last, mut reads) = (0, 0u64);
                    while !stop.load(Ordering::Acquire) {
                        // The same request bytes every time: only the
                        // envelope's epoch may differ between two replies
                        // that carry the same result epoch.
                        write_frame(&mut to, r#"{"id":7,"op":"report_slack"}"#).expect("send");
                        let body = read_frame(&mut from, 1 << 24).expect("reply frame");
                        let body = String::from_utf8(body).expect("UTF-8 reply");
                        let (envelope, result) =
                            body.split_once(r#""result":"#).expect("a success reply");
                        let doc = insta_support::json::parse(&body).expect("JSON reply");
                        let epoch = doc.field("result").unwrap().get::<u64>("epoch").unwrap();
                        assert!(epoch >= last, "reader {r}: epoch {last} -> {epoch}");
                        assert!(doc.get::<u64>("epoch").unwrap() >= epoch, "{envelope}");
                        last = epoch;
                        reads += 1;
                        let first = seen.entry(epoch).or_insert_with(|| result.to_owned());
                        assert_eq!(first, result, "reader {r}: epoch {epoch} changed bytes");
                    }
                    drop((from, to));
                    conn.join().expect("connection thread");
                    (seen, reads)
                })
            })
            .collect();

        let (mut writer, wh) = connect(&server);
        let mut truth = vec![bits_of(&server)];
        let mut epochs = vec![std::sync::Arc::downgrade(&server.published())];
        let mut images = vec![image_once_read(&server)];
        for i in 0..EPOCHS {
            let mean = 45.0 + (i % 40) as f64;
            let delta = obj([
                ("arc", (i % 5).to_json()),
                ("mean", Json::Arr(vec![mean.to_json(), mean.to_json()])),
                ("sigma", Json::Arr(vec![4.5.to_json(), 4.5.to_json()])),
            ]);
            let up = writer
                .call(Op::Update, None, obj([("deltas", Json::Arr(vec![delta]))]))
                .expect("writer update");
            assert!(up.ok, "{:?}", up.error);
            truth.push(bits_of(&server));
            epochs.push(std::sync::Arc::downgrade(&server.published()));
            images.push(image_once_read(&server));
        }
        stop.store(true, Ordering::Release);
        let mut seen = Vec::new();
        let mut reads = 0;
        for reader in readers {
            let (s, n) = reader.join().expect("reader thread");
            seen.push(s);
            reads += n;
        }
        drop(writer);
        wh.join().expect("writer connection");
        (seen, reads, truth, epochs, images)
    });

    // One text per epoch across all readers, and it is the committed bits.
    let mut texts = BTreeMap::<u64, String>::new();
    for (epoch, text) in seen.into_iter().flatten() {
        let first = texts.entry(epoch).or_insert_with(|| text.clone());
        assert_eq!(*first, text, "two readers saw epoch {epoch} differently");
    }
    assert_eq!(texts.len() as u64, EPOCHS + 1, "every epoch was read");
    for (epoch, text) in &texts {
        let result = insta_support::json::parse(text.strip_suffix('}').expect("envelope end"))
            .expect("result object");
        assert_eq!(slack_bits(&result), truth[*epoch as usize], "epoch {epoch}");
    }
    assert!(truth.windows(2).any(|w| w[0] != w[1]), "commits must move slack");

    // Built once per epoch read, shared by every other read.
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let counters = server.counters();
    assert_eq!(count(&counters.slack_images_built), EPOCHS + 1);
    assert_eq!(count(&counters.slack_image_hits), reads - (EPOCHS + 1));

    // Only the current epoch and its image are alive.
    let current = server.published();
    for (epoch, (e, image)) in epochs.iter().zip(&images).enumerate() {
        let live = epoch as u64 == EPOCHS;
        assert_eq!(e.strong_count() > 0, live, "epoch {epoch}");
        assert_eq!(image.strong_count(), usize::from(live), "epoch {epoch}'s image");
    }
    assert_eq!(current.snapshot().epoch(), EPOCHS);
}

/// Regression: commit order and publication order must agree. With the
/// snapshot published *after* the writer lock was released, a preempted
/// writer could publish its older epoch over a successor's newer one —
/// a sampler hammering the published cell would observe the epoch go
/// backwards.
#[test]
fn racing_writers_never_regress_the_published_epoch() {
    const WRITERS: usize = 4;
    const COMMITS_PER_WRITER: usize = 6;
    let server = Server::new(build_engine(SEED, K), ServeConfig::default());

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let server = server.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let e = server.snapshot().epoch();
                assert!(e >= last, "published epoch regressed: {last} -> {e}");
                last = e;
            }
            last
        })
    };

    let mut writers = Vec::new();
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let (mut cl, h) = connect(&server);
        handles.push(h);
        writers.push(std::thread::spawn(move || {
            for i in 0..COMMITS_PER_WRITER {
                let mean = 30.0 + (w * COMMITS_PER_WRITER + i) as f64;
                let up = cl
                    .call(
                        Op::Update,
                        None,
                        obj([(
                            "deltas",
                            Json::Arr(vec![obj([
                                ("arc", ((w % 3) as u64).to_json()),
                                ("mean", Json::Arr(vec![mean.to_json(), mean.to_json()])),
                                ("sigma", Json::Arr(vec![3.0.to_json(), 3.0.to_json()])),
                            ])]),
                        )]),
                    )
                    .unwrap_or_else(|e| panic!("writer {w} commit {i}: {e}"));
                assert!(up.ok, "writer {w} commit {i}: {:?}", up.error);
            }
            drop(cl);
        }));
    }
    for t in writers {
        t.join().expect("writer thread");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let last_seen = sampler.join().expect("sampler thread");

    let total = (WRITERS * COMMITS_PER_WRITER) as u64;
    assert_eq!(server.snapshot().epoch(), total, "every commit published");
    assert!(last_seen <= total);
    for h in handles {
        h.join().expect("connection thread");
    }
}
