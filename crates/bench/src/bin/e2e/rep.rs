//! One repetition of one workload: set-up (timed) → warm-up ops
//! (discarded) → a fixed count of timed ops → output checks → one result. `--all` runs
//! each repetition in a child process of its own; the smoke test runs
//! them in-process on a tiny design.

use crate::probe;
use crate::spec::{self, Workload};
use crate::trace::Tracer;
use crate::{eco, full, serve, whatif};
use insta_bench::block_specs;
use insta_engine::{DriftPolicy, InstaConfig, InstaEngine};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_netlist::Design;
use insta_refsta::{RefSta, StaConfig};
use insta_support::json::{obj, Json, JsonError, ToJson};
use std::path::PathBuf;
use std::time::Instant;

/// What one repetition is asked to do.
#[derive(Debug, Clone)]
pub struct RepArgs {
    pub workload: Workload,
    /// Drives every generated input; 1 is exactly the Table-I blocks.
    pub seed: u64,
    pub rep: u32,
    pub trace: bool,
    pub warmup: usize,
    /// Timed ops: a fixed count.
    pub ops: usize,
    /// A generated toy design in place of the block (smoke test).
    pub tiny: bool,
    /// Busy-wait added to every op by the bench-side wrapper, in µs (the
    /// self-test's planted slowdown; 0 otherwise).
    pub slow_us: f64,
    /// Root for WAL directories and traces.
    pub scratch: PathBuf,
}

impl RepArgs {
    /// A repetition with the workload's declared op counts.
    pub fn new(workload: Workload, seed: u64, rep: u32, trace: bool) -> Self {
        RepArgs {
            workload,
            seed,
            rep,
            trace,
            warmup: workload.warmup(),
            ops: workload.ops(),
            tiny: false,
            slow_us: 0.0,
            scratch: probe::scratch_root(),
        }
    }

    pub fn to_cli(&self) -> Vec<String> {
        let mut v = vec![
            "--child".to_owned(),
            self.workload.name().to_owned(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--rep".to_owned(),
            self.rep.to_string(),
            "--warmup".to_owned(),
            self.warmup.to_string(),
            "--ops".to_owned(),
            self.ops.to_string(),
            "--slow-us".to_owned(),
            self.slow_us.to_string(),
        ];
        if self.trace {
            v.push("--traced".to_owned());
        }
        if self.tiny {
            v.push("--tiny".to_owned());
        }
        v
    }
}

/// The timed phase of a repetition.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    started: Instant,
    cpu_ms_at_start: f64,
}

impl Timed {
    pub fn start() -> Self {
        Timed {
            started: Instant::now(),
            cpu_ms_at_start: probe::cpu_ms(),
        }
    }

    /// Closes the timed phase: its wall time, the process's CPU time per
    /// op over it (with two threads this shows spin and wait cost that
    /// wall time hides), and the memory high-water mark — read here, before
    /// the output checks build twin engines of their own.
    pub fn finish(&self, out: &mut RepOut) {
        out.timed_wall_s = self.started.elapsed().as_secs_f64();
        let ops = out.op_ms.len().max(1) as f64;
        out.set(
            "process.cpu_ms_per_op",
            (probe::cpu_ms() - self.cpu_ms_at_start) / ops,
        );
        out.peak_rss_mb = probe::peak_rss_mb();
    }
}

/// Spins for `us` microseconds (the self-test's planted slowdown).
#[inline]
pub fn busy_wait_us(us: f64) {
    if us > 0.0 {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() * 1e6 < us {
            std::hint::spin_loop();
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepOut {
    pub workload: String,
    pub traced: bool,
    pub setup_s: f64,
    /// Wall time of each timed op (serve: each commit round trip), ms.
    pub op_ms: Vec<f64>,
    /// Wall time of the whole timed phase.
    pub timed_wall_s: f64,
    /// serve only: `report_slack` and `report_at` round trips, µs.
    pub read_us: Vec<f64>,
    pub read_at_us: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Ops, requests and output checks attempted, and how many of them
    /// errored, were refused or failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// CRC-32 of the slack bits after the timed ops.
    pub result_hash: u32,
    /// Per-layer values this repetition can give by itself: counts and
    /// set-up stages always, span medians when traced.
    pub layers: Vec<(String, f64)>,
    /// Where the traced repetition wrote its spans.
    pub trace_file: String,
}

impl RepOut {
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        match self.layers.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.layers.push((name.to_owned(), value)),
        }
    }

    /// Records a failed check or op (the message is capped: a failure in
    /// the loop would otherwise repeat hundreds of times).
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message.into());
        }
    }

    /// Counts one output check, failing it with `message` when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("traced", Json::Bool(self.traced)),
            ("setup_s", Json::Num(self.setup_s)),
            ("op_ms", self.op_ms.to_json()),
            ("timed_wall_s", Json::Num(self.timed_wall_s)),
            ("read_us", self.read_us.to_json()),
            ("read_at_us", self.read_at_us.to_json()),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("failures", self.failures.to_json()),
            ("result_hash", u64::from(self.result_hash).to_json()),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            ("trace_file", Json::Str(self.trace_file.clone())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, JsonError> {
        let layers = j
            .field("layers")?
            .as_obj()?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64()?)))
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(RepOut {
            workload: j.get("workload")?,
            traced: j.get("traced")?,
            setup_s: j.get("setup_s")?,
            op_ms: j.get("op_ms")?,
            timed_wall_s: j.get("timed_wall_s")?,
            read_us: j.get("read_us")?,
            read_at_us: j.get("read_at_us")?,
            peak_rss_mb: j.get("peak_rss_mb")?,
            attempted: j.get("attempted")?,
            failed: j.get("failed")?,
            failures: j.get("failures")?,
            result_hash: j.get::<u64>("result_hash")? as u32,
            layers,
            trace_file: j.get("trace_file")?,
        })
    }
}

/// The reference engine, the design and the INSTA engine of a workload,
/// with what their construction cost.
pub struct Built {
    pub design: Design,
    pub sta: RefSta,
    pub engine: InstaEngine,
    /// Sum of the set-up stages, in seconds.
    pub setup_s: f64,
}

/// The engine configuration of a workload: thread count pinned, drift
/// auditing off so every op measures the same work.
pub fn engine_config(w: Workload) -> InstaConfig {
    InstaConfig {
        top_k: w.top_k(),
        n_threads: spec::N_THREADS,
        drift_policy: DriftPolicy::unlimited(),
        ..InstaConfig::default()
    }
}

/// Set-up shared by the workloads: generate → `RefSta::new` +
/// `full_update` → `export_insta_init` → `InstaEngine::new` → first
/// `propagate`, each stage timed into `out` under its layer's name.
pub fn build(args: &RepArgs, tr: &mut Tracer, out: &mut RepOut) -> Built {
    let w = args.workload;
    let (design, t_gen) = tr.timed("netlist.generate", || {
        if args.tiny {
            generate_design(&GeneratorConfig::small("e2e-smoke", 40 + args.seed))
        } else {
            let mut spec = block_specs()[w.block_index()].clone();
            spec.seed += args.seed - 1;
            spec.build()
        }
    });
    let (sta, t_build) = tr.timed("refsta.build", || {
        RefSta::new(&design, StaConfig::default()).expect("generated designs have no loops")
    });
    let mut sta = sta;
    let (_, t_full) = tr.timed("refsta.full_update", || sta.full_update(&design));
    let (init, t_export) = tr.timed("refsta.export", || sta.export_insta_init());
    let (engine, t_new) = tr.timed("engine.new", || {
        InstaEngine::new(init, engine_config(w)).expect("the reference export is a valid snapshot")
    });
    let mut engine = engine;
    let (_, t_first) = tr.timed("engine.first_propagate", || {
        engine.propagate();
    });
    for (name, ms) in [
        ("netlist.generate_ms", t_gen),
        ("refsta.build_ms", t_build),
        ("refsta.full_update_ms", t_full),
        ("refsta.export_ms", t_export),
        ("engine.new_ms", t_new),
        ("engine.first_propagate_ms", t_first),
    ] {
        out.set(name, ms);
    }
    out.set("netlist.pins", design.pins().len() as f64);
    out.set("engine.nodes", engine.num_nodes() as f64);
    out.set("engine.arcs", engine.num_arcs() as f64);
    out.set("engine.levels", engine.num_levels() as f64);
    out.set("engine.endpoints", engine.num_endpoints() as f64);
    out.set(
        "engine.state_mb",
        engine.state_bytes() as f64 / (1024.0 * 1024.0),
    );
    let setup_s = (t_gen + t_build + t_full + t_export + t_new + t_first) / 1e3;
    Built {
        design,
        sta,
        engine,
        setup_s,
    }
}

/// A twin of the workload's engine, rebuilt from the reference engine's
/// export (checks and traced comparisons; never in the timed phase).
pub fn twin_engine(sta: &RefSta, cfg: InstaConfig) -> InstaEngine {
    let mut twin = InstaEngine::new(sta.export_insta_init(), cfg)
        .expect("the reference export is a valid snapshot");
    twin.propagate();
    twin
}

/// Order-sensitive 64-bit fold of slack bits: cheap enough to take around
/// every op (FNV-1a over words).
pub fn fold_bits(slacks: &[f64]) -> u64 {
    slacks.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        (h ^ s.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether two slack vectors are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// CRC-32 of slack bits, the printed `result_hash`.
pub fn crc_bits<'a>(slacks: impl IntoIterator<Item = &'a f64>) -> u32 {
    let mut crc = insta_support::Crc32::new();
    for s in slacks {
        crc.update(&s.to_bits().to_le_bytes());
    }
    crc.finish()
}

/// Runs one repetition to completion and returns what it measured.
pub fn run_rep(args: &RepArgs) -> RepOut {
    let mut out = RepOut {
        workload: args.workload.name().to_owned(),
        traced: args.trace,
        ..RepOut::default()
    };
    let mut tr = Tracer::new(args.trace, 0);
    let calib_before = probe::calib_ms();
    match args.workload {
        Workload::Full => full::run(args, &mut tr, &mut out),
        Workload::Eco => eco::run(args, &mut tr, &mut out),
        Workload::Whatif => whatif::run(args, &mut tr, &mut out),
        Workload::Serve | Workload::ServeReads => serve::run(args, &mut tr, &mut out),
    }
    out.set("process.calib_ms", 0.5 * (calib_before + probe::calib_ms()));
    if args.trace {
        let cov = tr.coverage();
        out.set("process.span_coverage_frac", crate::stats::median(&cov));
    }
    out
}

/// Where the traced repetitions of a workload leave their spans.
pub fn trace_dir(scratch: &std::path::Path) -> PathBuf {
    scratch.join("e2e-trace")
}

/// Writes the traced repetition's spans as JSON lines under
/// `<scratch>/e2e-trace/<workload>.rep<N>.jsonl` and remembers where; the
/// parent keeps the quietest repetition's file as `<workload>.jsonl`.
pub fn export_trace(args: &RepArgs, tracers: &[&Tracer], out: &mut RepOut) {
    if !args.trace {
        return;
    }
    let dir = trace_dir(&args.scratch);
    let path = dir.join(format!("{}.rep{}.jsonl", args.workload.name(), args.rep));
    let text: String = tracers.iter().map(|t| t.export_jsonl()).collect();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => out.trace_file = path.display().to_string(),
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }
}

/// Medians of the named spans into `out`, as `<name>_<unit>` metrics.
pub fn span_medians(tr: &Tracer, out: &mut RepOut, spans: &[(&str, &str, f64)]) {
    if !tr.is_on() {
        return;
    }
    for &(span, metric, scale) in spans {
        let d = tr.durations_ms(span);
        if !d.is_empty() {
            out.set(metric, crate::stats::median(&d) * scale);
        }
    }
}
