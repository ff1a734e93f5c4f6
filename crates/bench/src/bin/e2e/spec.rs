//! The benchmark's contract: workload and metric names with their units,
//! directions, regress bounds and the end-to-end metric each layer metric
//! is predicted to move. Later issues cite these names; `BENCHMARK.json`
//! and `README.md` repeat them and a unit test keeps code and file in step.

/// One of the named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Full,
    Eco,
    Whatif,
    Serve,
    /// The run of [`Workload::Serve`] seen from its reader: the op is one
    /// `report_slack` round trip, so `op_p50_ms` and `ops_per_s` here are
    /// `read_p50_us` and `reads_per_s` there. It exists because the
    /// benchmark driver gates the same end-to-end metrics on every
    /// workload; this is the workload on which those metrics are the reads.
    ServeReads,
}

use Workload::{Eco, Full, Serve, ServeReads, Whatif};

impl Workload {
    /// Interleaving order of `--all`.
    pub const ALL: [Workload; 5] = [Full, Eco, Whatif, Serve, ServeReads];

    pub fn name(self) -> &'static str {
        match self {
            Full => "full_block1_k32",
            Eco => "eco_block5_k8",
            Whatif => "whatif_block3_k8",
            Serve => "serve_block5_durable",
            ServeReads => "serve_block5_reads",
        }
    }

    /// The workload whose run this one is: itself, except that the reader's
    /// view is a run of the daemon workload.
    pub fn run_as(self) -> Workload {
        match self {
            ServeReads => Serve,
            w => w,
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Index into `insta_bench::block_specs()` (block-1, -5, -3, -5).
    pub fn block_index(self) -> usize {
        match self {
            Full => 0,
            Eco | Serve | ServeReads => 4,
            Whatif => 2,
        }
    }

    pub fn top_k(self) -> usize {
        match self {
            Full => 32,
            _ => 8,
        }
    }

    /// Threads the workload keeps busy at once: what the machine must have
    /// cores for. The daemon workload has two closed-loop clients; a traced
    /// full pass also times a two-thread twin.
    pub fn busy_threads(self, traced: bool) -> usize {
        match self {
            Serve | ServeReads => 2,
            Full if traced => 2,
            _ => 1,
        }
    }

    /// Discarded warm-up ops per repetition.
    pub fn warmup(self) -> usize {
        match self {
            Full | Whatif => 3,
            Eco | Serve | ServeReads => 20,
        }
    }

    /// Timed ops per repetition: a fixed count, not a time box, sized so
    /// that the timed phase takes about [`REP_SECONDS`] on the reference
    /// box (serve: the writer's commits; the reader reads beside them).
    /// The issue's counts were 30 / 500 / 40 / 500; they are a fifth lower
    /// so that its five repetitions fit the time the driver allows a run.
    pub fn ops(self) -> usize {
        match self {
            Full => 24,
            Eco | Serve | ServeReads => 400,
            Whatif => 32,
        }
    }

    /// One-line reason the workload exists (repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Full => "Table-I/Fig. 9 signoff pass on block-1 at K=32, one thread: the levelized kernels do all the work; bypass workload for session, batch, codec and daemon changes",
            Eco => "Fig. 7 sizing-flow evaluation on block-5: the merge kernel as a one-lane sparse session update beside the reference engine's incremental update",
            Whatif => "candidate scoring on block-3: the same kernel as a 64-lane dirty-cone sweep plus a 3-corner x 6-mode MCMM sweep, half cone lanes and half all-dirty lanes",
            Serve => "the durable daemon's request path on block-5 with one closed-loop writer and one closed-loop reader: frame, admission, session, WAL fsync, snapshot publish, reply, with reads beside writes",
            ServeReads => "the same daemon run seen from its reader: the op is one report_slack round trip while the writer commits, so a commit-path gain that costs readers is gated, not only printed",
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Workloads it is defined on.
    pub on: &'static [Workload],
    /// Listed under `end_to_end` in `BENCHMARK.json`. The benchmark
    /// driver prints every such metric on every workload and takes none
    /// that can be zero. The read metrics are defined on one workload, so
    /// the driver gates them as `op_p50_ms` and `ops_per_s` of
    /// `serve_block5_reads`; `failed_frac` is zero when healthy, so the
    /// driver reads `failed`/`attempted` of the result line. Those three
    /// are declared under `per_layer`; `--all` and `--check-repeat` treat
    /// all seven as end-to-end.
    pub driver_e2e: bool,
}

const EVERY: &[Workload] = &Workload::ALL;

/// The seven end-to-end metrics. The issue proposed a bound of 0.10 on
/// the timings; on this shared box ten runs of the same code, each with
/// another seed, spread by 1–8 % (quartile distance over median) and a
/// noisy spell can double that, so a tenth could not tell a regression from
/// the neighbours. The bounds are the largest the benchmark contract
/// allows; the paired rule of `--selftest` is what resolves a 10 % change.
/// On `ServeReads` the read metrics repeat the op metrics in their own
/// units.
pub const E2E: [E2eMetric; 7] = [
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        on: EVERY,
        driver_e2e: true,
    },
    E2eMetric {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        on: EVERY,
        driver_e2e: true,
    },
    E2eMetric {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        on: EVERY,
        driver_e2e: true,
    },
    E2eMetric {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        on: &[Serve, ServeReads],
        driver_e2e: false,
    },
    E2eMetric {
        name: "reads_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        on: &[Serve, ServeReads],
        driver_e2e: false,
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        on: EVERY,
        driver_e2e: true,
    },
    E2eMetric {
        name: "failed_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        on: EVERY,
        driver_e2e: false,
    },
];

/// A metric of one layer (a module of this repository), taken in the
/// traced run. No bound: it explains an end-to-end change, it does not
/// gate one.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: &'static [Workload],
    /// The end-to-end metric this one is predicted to move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        on,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, grouped as in the README tables.
pub const LAYERS: &[LayerMetric] = &[
    // Set-up, all workloads.
    lm("netlist.generate_ms", "ms", Lower, EVERY, "setup_s"),
    lm("refsta.build_ms", "ms", Lower, EVERY, "setup_s"),
    lm("refsta.full_update_ms", "ms", Lower, EVERY, "setup_s"),
    lm("refsta.export_ms", "ms", Lower, EVERY, "setup_s"),
    lm("engine.new_ms", "ms", Lower, EVERY, "setup_s"),
    lm("engine.first_propagate_ms", "ms", Lower, EVERY, "setup_s"),
    lm("server.open_ms", "ms", Lower, &[Serve], "setup_s"),
    lm("netlist.pins", "count", Lower, EVERY, "setup_s"),
    lm("engine.nodes", "count", Lower, EVERY, "setup_s"),
    lm("engine.arcs", "count", Lower, EVERY, "setup_s"),
    lm("engine.levels", "count", Lower, EVERY, "setup_s"),
    lm("engine.endpoints", "count", Lower, EVERY, "setup_s"),
    lm("engine.state_mb", "MB", Lower, EVERY, "peak_rss_mb"),
    // full_block1_k32.
    lm(
        "forward.propagate_fused_ms",
        "ms",
        Lower,
        &[Full],
        "op_p50_ms",
    ),
    lm(
        "backward.backward_tns_ms",
        "ms",
        Lower,
        &[Full],
        "op_p50_ms",
    ),
    lm(
        "backward.arc_gradients_ms",
        "ms",
        Lower,
        &[Full],
        "op_p50_ms",
    ),
    lm("hold.propagate_hold_ms", "ms", Lower, &[Full], "op_p50_ms"),
    lm("forward.kernel_ms", "ms", Lower, &[Full], "op_p50_ms"),
    lm("lse.kernel_ms", "ms", Lower, &[Full], "op_p50_ms"),
    lm("backward.kernel_ms", "ms", Lower, &[Full], "op_p50_ms"),
    lm(
        "forward.mnodes_per_s",
        "Mnodes/s",
        Higher,
        &[Full],
        "ops_per_s",
    ),
    // Every workload pins one thread, so this one moves nothing end to end.
    lm("parallel.speedup_2t", "x", Higher, &[Full], "none"),
    lm("engine.pass_tail_ms", "ms", Lower, &[Full], "ops_per_s"),
    // eco_block5_k8 (the session spans also appear in the serve replay).
    lm("refsta.estimate_eco_ms", "ms", Lower, &[Eco], "op_p50_ms"),
    lm("session.begin_ms", "ms", Lower, &[Eco, Serve], "op_p50_ms"),
    lm(
        "session.update_timing_ms",
        "ms",
        Lower,
        &[Eco, Serve],
        "op_p50_ms",
    ),
    lm("session.commit_ms", "ms", Lower, &[Eco, Serve], "op_p50_ms"),
    lm("session.rollback_ms", "ms", Lower, &[Eco], "op_p50_ms"),
    lm(
        "refsta.incremental_update_ms",
        "ms",
        Lower,
        &[Eco],
        "op_p50_ms",
    ),
    lm(
        "incremental.deltas_per_op",
        "count",
        Lower,
        &[Eco, Serve],
        "op_p50_ms",
    ),
    lm("checkpoint.bytes_per_op", "B", Lower, &[Eco], "peak_rss_mb"),
    lm(
        "incremental.vs_refsta_incr_x",
        "x",
        Lower,
        &[Eco],
        "op_p50_ms",
    ),
    lm("session.op_tail_ms", "ms", Lower, &[Eco], "ops_per_s"),
    // whatif_block3_k8.
    lm(
        "batch.evaluate_batch_ms",
        "ms",
        Lower,
        &[Whatif],
        "op_p50_ms",
    ),
    lm(
        "batch.evaluate_mcmm_ms",
        "ms",
        Lower,
        &[Whatif],
        "op_p50_ms",
    ),
    lm("batch.cone_lane_us", "us", Lower, &[Whatif], "op_p50_ms"),
    lm("batch.corner_lane_ms", "ms", Lower, &[Whatif], "op_p50_ms"),
    lm(
        "batch.scenarios_per_s",
        "1/s",
        Higher,
        &[Whatif],
        "ops_per_s",
    ),
    lm("batch.scenarios", "count", Higher, &[Whatif], "ops_per_s"),
    lm("batch.corner_lanes", "count", Lower, &[Whatif], "op_p50_ms"),
    lm(
        "batch.mcmm_deduped",
        "count",
        Higher,
        &[Whatif],
        "op_p50_ms",
    ),
    lm(
        "batch.quarantined",
        "count",
        Lower,
        &[Whatif],
        "failed_frac",
    ),
    lm("batch.op_tail_ms", "ms", Lower, &[Whatif], "ops_per_s"),
    // serve_block5_durable, over the socket.
    lm("server.commit_tail_ms", "ms", Lower, &[Serve], "ops_per_s"),
    lm(
        "server.checkpoint_commit_ms",
        "ms",
        Lower,
        &[Serve],
        "ops_per_s",
    ),
    lm(
        "server.report_at_p50_us",
        "us",
        Lower,
        &[Serve],
        "reads_per_s",
    ),
    lm("server.read_tail_us", "us", Lower, &[Serve], "reads_per_s"),
    // serve, counts from the `stats` op.
    lm("wal.records", "count", Lower, &[Serve], "op_p50_ms"),
    lm("wal.bytes_per_commit", "B", Lower, &[Serve], "op_p50_ms"),
    lm(
        "wal.fsyncs_per_commit",
        "count",
        Lower,
        &[Serve],
        "op_p50_ms",
    ),
    lm(
        "wal.checkpoints_written",
        "count",
        Lower,
        &[Serve],
        "ops_per_s",
    ),
    lm(
        "server.snapshot_swaps",
        "count",
        Lower,
        &[Serve],
        "op_p50_ms",
    ),
    lm(
        "admission.rejected",
        "count",
        Lower,
        &[Serve],
        "failed_frac",
    ),
    // serve, layer replay through the public functions.
    lm("client.encode_us", "us", Lower, &[Serve], "op_p50_ms"),
    lm("protocol.decode_us", "us", Lower, &[Serve], "op_p50_ms"),
    lm("admission.try_admit_us", "us", Lower, &[Serve], "op_p50_ms"),
    lm("wal.log_commit_us", "us", Lower, &[Serve], "op_p50_ms"),
    lm("snapshot.capture_us", "us", Lower, &[Serve], "op_p50_ms"),
    lm(
        "protocol.encode_reply_us",
        "us",
        Lower,
        &[Serve],
        "op_p50_ms",
    ),
    lm(
        "persist.capture_encode_ms",
        "ms",
        Lower,
        &[Serve],
        "ops_per_s",
    ),
    lm(
        "wal.write_checkpoint_ms",
        "ms",
        Lower,
        &[Serve],
        "ops_per_s",
    ),
    lm("server.unattributed_ms", "ms", Lower, &[Serve], "op_p50_ms"),
    lm("snapshot.load_us", "us", Lower, &[Serve], "read_p50_us"),
    lm(
        "server.read_unattributed_us",
        "us",
        Lower,
        &[Serve],
        "read_p50_us",
    ),
    lm("recovery.replay_ms", "ms", Lower, &[Serve], "setup_s"),
    lm(
        "recovery.records_replayed",
        "count",
        Lower,
        &[Serve],
        "setup_s",
    ),
    // The process itself, all workloads.
    lm("process.cpu_ms_per_op", "ms", Lower, EVERY, "op_p50_ms"),
    lm("process.calib_ms", "ms", Lower, EVERY, "op_p50_ms"),
    lm(
        "process.trace_overhead_frac",
        "ratio",
        Lower,
        EVERY,
        "op_p50_ms",
    ),
    lm(
        "process.span_coverage_frac",
        "ratio",
        Higher,
        EVERY,
        "op_p50_ms",
    ),
];

/// Names, units and directions of the `per_layer` list of
/// `BENCHMARK.json`: every layer metric plus the end-to-end metrics the
/// driver cannot take as end-to-end.
pub fn driver_per_layer() -> Vec<(&'static str, &'static str, Better)> {
    LAYERS
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(
            E2E.iter()
                .filter(|m| !m.driver_e2e)
                .map(|m| (m.name, m.unit, m.better)),
        )
        .collect()
}

/// `InstaConfig::n_threads` of every workload's engine. The issue pinned
/// the full pass to two threads; on the two shared cores of the reference
/// box that measured the neighbours (ten runs of the same code spread by
/// 12–29 % of their median, and a one-core spinner beside it cost the
/// two-thread pass 10 % and the one-thread pass nothing) while buying no
/// speed (`parallel.speedup_2t` 1.0–1.2). So `parallel.rs` is measured by that
/// per-layer metric, on a two-thread twin in the traced run, and every
/// gated number is the single-thread path.
pub const N_THREADS: usize = 1;

/// Seconds a run measures for unless `--seconds` says otherwise
/// (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 16.0;

/// Seconds the timed phase of one repetition takes on the reference box
/// (2.6–3.9 s over the workloads at their fixed op counts). A run of
/// `--seconds T` is `T / REP_SECONDS` repetitions: five at the default.
pub const REP_SECONDS: f64 = 3.2;

pub fn e2e(name: &str) -> &'static E2eMetric {
    E2E.iter()
        .find(|m| m.name == name)
        .expect("a declared end-to-end metric")
}
