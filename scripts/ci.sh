#!/usr/bin/env bash
# Offline CI gate for the hermetic workspace. Run from the repo root.
#
# Everything runs with --offline: the workspace must never need registry
# access. A new third-party dependency will fail this script at build time.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release, offline, warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --workspace --release --offline

echo "==> one-site gate (the level protocol — thread::scope, catch_unwind, PanicCell, serial_retry_failed: true — is spelled in insta-core's parallel.rs only)"
strays=""
for f in $(find crates/insta-core/src -name '*.rs' -not -name parallel.rs | sort); do
  # Non-test code: everything before the file's first line-start #[cfg(test)].
  hits=$(sed '/^#\[cfg(test)\]/,$d' "$f" |
    grep -nE 'thread::scope|catch_unwind|PanicCell|serial_retry_failed: true' || true)
  [ -z "$hits" ] || strays="$strays$f: $hits"$'\n'
done
[ -z "$strays" ] || { printf 'one-site gate: the level runner is being re-spelled outside parallel.rs:\n%s' "$strays" >&2; exit 1; }

echo "==> one-clock gate (the sizers and the placer time themselves through the Recorder spans they return: no Instant::now in crates/sizer/src or crates/placer/src)"
clocks=$(grep -rn 'Instant::now' crates/sizer/src crates/placer/src || true)
[ -z "$clocks" ] || { printf 'one-clock gate: a second way to time is growing back:\n%s\n' "$clocks" >&2; exit 1; }

echo "==> DESIGN.md size line (what the code and its module docs already say does not go there)"
design_bytes=$(wc -c < DESIGN.md)
[ "$design_bytes" -le 58000 ] || { echo "DESIGN.md is $design_bytes bytes, over the 58000-byte line: cut, or move the text into the module it describes" >&2; exit 1; }

echo "==> rustfmt ratchet (the files listed here are rustfmt-clean and stay so; the list only grows, and never names anything under crates/bench/src/bin/e2e)"
rustfmt --edition 2021 --check \
  crates/bench/tests/path_referee.rs \
  crates/insta-core/src/scalar_ref.rs \
  crates/insta-core/src/snapshot.rs \
  crates/insta-core/src/topk.rs \
  crates/insta-core/src/validity.rs

echo "==> doc links (an intra-doc link to a missing item — a deleted function, a renamed type — fails the build)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --document-private-items --offline

echo "==> public docs (warnings are errors: a public doc that links a private item, or spells out a link target rustdoc already resolves, fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> tests (offline; debug profile keeps the hot-path poison asserts on) — one run of the whole workspace, which is every gate named below"
echo "    fault-injection gate (fixed seed, zero panics): tests/fault_injection, insta-engine fault_tolerance"
echo "    session-chaos gate (rollback bit-identity under seeded corruption + worker panics; a fired token/deadline stops at the next level poll): tests/sessions"
echo "    batch-equivalence gate (batched scenarios' reports bit-identical to serial sessions, and no lane carries gradients — the engine's backward pass is the one producer; one deadline for the whole call; no evaluate call opens a session — past-the-seed-switch lanes, which take the window route (a report-only full pass keeping a row only until its last reader), and cancelled-base-sync lanes included; an exhausted drift budget leaves every lane on its serial route): tests/batch_equivalence"
echo "    window-pass gate (delta-free corner groups and full-pass lanes run the window route and equal their rolled-back serial twins on to_bits across K, threads, a startpoint above level 0, an endpoint with fanout and a virtual chain past the gather's hop limit; a window pass, like every pass, computes only the nodes that reach an endpoint — the slot plan keeps no row only dead nodes read; a worker panic in a window pass is contained; only a corner group with a delta lane allocates the corner rows): insta-engine window_pass, batch::tests"
echo "    mcmm-equivalence gate (corner/mode lanes bit-identical to pre-scaled, masked serial twins): tests/mcmm_equivalence"
echo "    validity gate (generated state machine over every annotation- and product-writing call: each read is None or a from-scratch twin's bits, current arrays take the cone path): insta-engine validity_model"
echo "    refsta-incremental gate (the reference engine's change-pruned incremental update bit-identical to a fresh full update — every arrival-map entry, slew, arc delay and report field — over random resize sequences on generated designs and block-5, flop, clock-buffer and mixed changelists included; the frontier re-annotates a seed or a node under a moved slew and only re-reduces a node under a moved map, with a case whose slews settle in a few levels while its arrivals run to the last): insta-refsta incremental_equivalence"
echo "    refsta-reduce gate (the one run-merge reduction of setup and hold maps equals the frozen two-sort reducers on to_bits over generated tie-heavy runs, with the cap, keep_min and the window at every boundary and a NaN sigma, and pins the tie rule — startpoint ascending, the first run for one startpoint): insta-refsta sta::tests::run_merge_equals_the_two_sort_oracle_and_pins_ties"
echo "    cone-equivalence gate (session cone updates bit-identical to reannotate + full pass, rollbacks by the undo log bit-identical to never having run, arrays and report; after an interleaved hold pass every row equals both twins'; a lane on arcs no endpoint sees is its base, and a fired token cancels it at its one level-0 poll; batched calls and failed cone sessions leave the engine's bits untouched after clean, quarantined, cancelled and panicked sweeps): insta-engine cone_equivalence"
echo "    kernel-equivalence gate (production kernels bit-identical to the scalar reference — TopKQueue::push, the literal Algorithm 2, folded over every queue's push sequence in level order — across K, threads, fused passes, hold, gradients and batch lanes — hold's rows equal the reference's whole, the nodes no endpoint sees — found by the reference's own sweep — empty on both sides; on generated dead logic no pass times a dead pin (arrival_at, the snapshot and distribution_at answer None), every pass reports the same bits, and every dead arc's and node's gradient is +0.0 after a fused pass, a committed cone and a rollback; a startpoint with one fanin arc keeps its launch seed; a virtual hop that reorders falls back to materialising, its rank breaks a corner tie, and every pass span counts the fallback; merge-free chains equal the sorted sums of means and variances): insta-engine kernel_equivalence"
echo "    path-referee gate (no endpoint's setup slack at a covering K below the worst of its every launch-to-capture path, enumerated from the exported InstaInit alone with the referee's own sums and CPPR walk): insta-bench path_referee"
echo "    server-chaos gate (protocol-fault storm: no hangs, no panics, typed errors, bit-identical post-storm commit; TCP round trip: 50 pings over loopback p50 < 5 ms; TCP connections: one past the 64-connection cap gets one typed overloaded frame and is closed, one silent 5 s (between frames or inside one, 64 such fill and then free the cap) or open at shutdown is closed, a frame written in pieces keeps sync, closed == opened; gradient replies — the writer engine's own backward pass, no batch lane — equal a twin's gradients bit for bit and move no later commit; reply byte identity: image-spliced replies equal the tree encoder's bytes on generated reports and a live daemon, one image per epoch read under 8 racing readers): insta-serve"
echo "    stats-surface gate (stats.engine shows a batch and a refused update with no commit between them, and a gradient leaves every stats.engine counter unchanged; a durable daemon's stats key paths equal a pinned literal list, in order): insta-serve service stats_engine_shows_the_writers_last_op_without_a_commit, a_durable_daemons_stats_layout_is_pinned"
echo "    decoder gate (generated and mutated JSON documents equal the frozen pre-one-pass parser on to_bits wherever it read a valid, finite document, and are a positioned JsonError otherwise, never a panic; written trees parse back bit for bit; digit runs across 8-byte words and at the last byte; frame streams give a body or a typed FrameError within max_bytes; every op's request params, under every FaultPlan fault (the mode index 1e18 among the seeds), get ok or a typed error and never panic the daemon; WriterOp and EngineDurableState payloads — cut at every byte, bit-flipped, lengths up to u64::MAX — give a typed PersistError (BadLength for a length past the bytes left) or a value that re-encodes to the same bytes; a WAL segment and a v4 checkpoint a real Durability wrote — cut at every byte, flipped with and without a re-sealed CRC, every length field at 0, MAX_RECORD_BYTES, +1 and u32::MAX — keep their untouched records, put damage at the end of the valid prefix, restore or fail typed, and refuse an impossible length at its guard; the strict number grammar refuses 01, 00.5, 1., 1.e5, -.5 and 1e400, one case each): insta-serve decoders, insta-support json"
echo "    crash-recovery gate (kill -9 chaos: every crash point + durability fault recovers the durable prefix bit-exactly, incl. a real SIGKILL of the insta-serve binary; an unreplayable record is cut out of the log and a segment the cut empties is renamed, so no rotation replaces it; an engine failure stops recovery with every file byte-identical; a flipped stored slack bit makes a checkpoint stale and the log rebuilds): insta-serve recovery, engine_failure, checkpoint"
cargo test -q --workspace --offline

echo "==> paper-table outcome check (Table I size, correlation, mismatch, #vio and WNS per block; Fig. 6 correlation and mismatch per Top-K; Fig. 8 correlation and mismatch before and after the flow; Table II WNS, TNS, #vio and cells sized per design and sizer; Table III legalized HPWL and TNS per instance, mode and seed; the power-recovery and INSTA-Buffer outcomes — each equal to its crates/bench/expected/<table>.json; a PR that moves one updates that file and says why)"
cargo run -q --release --offline -p insta-bench --bin repro -- table1 fig6 fig8 table2 table3 extensions
cargo run -q --release --offline -p insta-bench --bin repro -- check

echo "==> benches compile (offline)"
cargo build --release --offline --benches -p insta-bench

# Every bench prints one JSON result line; they are kept under target/
# (untracked — each is one fast-mode sample of this run, not a record).
bench_out=target/bench
mkdir -p "$bench_out"

echo "==> session-overhead smoke (plain vs commit vs rollback over two alternating delta sets; report-only JSON line)"
INSTA_BENCH_FAST=1 cargo bench --offline -p insta-bench --bench session_overhead | tail -1 | tee "$bench_out/BENCH_session.json"

echo "==> batch-throughput gate (parity: evaluate_batch S=16 >= 0.9x 16 sequential cone sessions — both take a sweep back by the one undo log; min of interleaved iterations, 3-round noise retry; bench exits non-zero on breach)"
INSTA_BENCH_FAST=1 cargo bench --offline -p insta-bench --bench batch_throughput | tail -1 | tee "$bench_out/BENCH_batch.json"

echo "==> mcmm-throughput gate (CxM sweep >= 3x sequential per-corner sessions — each delta-free corner one window-route pass, no second row set — best of three iterations per arm; bench exits non-zero on breach)"
INSTA_BENCH_FAST=1 cargo bench --offline -p insta-bench --bench mcmm_throughput | tail -1 | tee "$bench_out/BENCH_mcmm.json"

echo "==> serve-throughput smoke (reader p99 with a hot writer <= 2x idle p99; bench exits non-zero on breach)"
INSTA_BENCH_FAST=1 cargo bench --offline -p insta-bench --bench serve_throughput | tail -1 | tee "$bench_out/BENCH_serve.json"

echo "==> WAL-overhead smoke (unpaced durable commit p50 within 800 us of ephemeral — was 1200; measured 301-473 us with the segmented log — and one fsync per commit; bench exits non-zero on breach)"
INSTA_BENCH_FAST=1 cargo bench --offline -p insta-bench --bench wal_overhead | tail -1 | tee "$bench_out/BENCH_wal.json"

echo "==> trace-overhead gate (traced propagate_fused <= 3% over untraced; bench exits non-zero on breach)"
INSTA_BENCH_FAST=1 cargo bench --offline -p insta-bench --bench obs_overhead | tail -1 | tee "$bench_out/BENCH_obs.json"

echo "==> fig9 levelized-breakdown smoke + forward-pass regression gate"
# The floor is the fused-kernel forward_ns of the fast budget (3 passes
# over block-1 at K=8, all cores, the first pass cold) on the reference CI
# machine, a 2-core Intel Xeon. Re-anchored when the level body stopped
# materialising virtual parents and gathered through them instead: two
# alternating best-of-three readings, as the gate takes them, were 40.5
# and 39.8 ms before that change and 35.5 and 35.2 ms with it. So the
# floor is 34 ms and the limit below 39.1 ms: the kernel passes with 10 %
# to spare, and the kernel before the change (39.8 ms at its quietest)
# trips the gate, as would a PR that gives the gain back. Override with
# INSTA_FORWARD_NS_FLOOR on machines with a different baseline. The gate
# takes the best of three bench runs: the fast-budget measurement is
# ~40 ms of wall clock, so a single noisy-neighbor burst on a shared box
# can double one reading — a real kernel regression slows every run.
floor_ns="${INSTA_FORWARD_NS_FLOOR:-34000000}"
gate_ok=""
for attempt in 1 2 3; do
  INSTA_BENCH_FAST=1 cargo bench --offline -p insta-bench --bench fig9_breakdown | tail -1 | tee "$bench_out/BENCH_fig9.json"
  forward_ns=$(sed -n 's/.*"forward_ns":\([0-9][0-9.]*\).*/\1/p' "$bench_out/BENCH_fig9.json")
  if [ -z "$forward_ns" ]; then
    echo "forward-pass gate: could not parse forward_ns from $bench_out/BENCH_fig9.json" >&2
    exit 1
  fi
  if awk -v got="$forward_ns" -v floor="$floor_ns" 'BEGIN {
    limit = floor * 1.15
    printf "    forward_ns=%.0f  floor=%.0f  limit=%.0f\n", got, floor, limit
    exit (got <= limit) ? 0 : 1
  }'; then
    gate_ok=yes
    break
  fi
  echo "    attempt $attempt over the limit; retrying (noise tolerance)"
done
[ -n "$gate_ok" ] || { echo "forward-pass gate: forward_ns regressed past 1.15x floor on 3 runs" >&2; exit 1; }

echo "==> quickstart smoke run"
cargo run -q --release --offline --example quickstart

echo "==> timing-driven placement smoke run (INSTA-Place's gradient path end to end: refresh, try_backward_tns, arc weights)"
cargo run -q --release --offline --example timing_driven_placement

echo "==> net lines per crate, non-test vs test (report only)"
scripts/loc.sh

echo "==> ci.sh: all gates passed"
