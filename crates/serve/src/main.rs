//! `insta-serve` — the timing daemon.
//!
//! ```text
//! insta-serve [--snapshot FILE | --gen NAME:SEED] [--k K] [--tcp ADDR]
//!             [--max-inflight N] [--default-deadline-ms MS] [--debug-ops]
//!             [--durability DIR] [--checkpoint-every N] [--no-fsync]
//!             [--sync-interval-us US]
//! ```
//!
//! The engine is initialized from an exported `InstaInit` JSON snapshot
//! (`--snapshot`) or a generated design (`--gen`, default
//! `small:42`), propagated once, and served over stdin/stdout — or TCP
//! with `--tcp 127.0.0.1:7117`.
//!
//! With `--durability DIR` the daemon recovers the committed timeline
//! from DIR on startup (checkpoint + write-ahead-log replay) and makes
//! every writer commit durable before publishing it — a `kill -9` at any
//! instant loses no committed epoch. The same design flags
//! (`--gen`/`--snapshot`/`--k`) must be passed on restart.
//! `--sync-interval-us` sets the sustained spacing of WAL syncs (default
//! 1000; 0 = sync as fast as commits arrive).

use insta_engine::{InstaConfig, InstaEngine};
use insta_refsta::export::load_init;
use insta_serve::{DurabilityConfig, ServeConfig, Server};

fn usage(err: &str) -> ! {
    eprintln!("insta-serve: {err}");
    eprintln!(
        "usage: insta-serve [--snapshot FILE | --gen NAME:SEED] [--k K] [--tcp ADDR]\n\
         \x20                  [--max-inflight N] [--default-deadline-ms MS] [--debug-ops]\n\
         \x20                  [--durability DIR] [--checkpoint-every N] [--no-fsync]\n\
         \x20                  [--sync-interval-us US]"
    );
    std::process::exit(2);
}

/// A flag's integer value.
fn int<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("{flag} wants an integer")))
}

fn main() {
    let mut snapshot: Option<String> = None;
    let mut gen_spec = String::from("small:42");
    let mut k: usize = 8;
    let mut tcp: Option<String> = None;
    let mut cfg = ServeConfig::default();
    let mut durability_dir: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut sync_interval_us: Option<u64> = None;
    let mut fsync = true;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--snapshot" => snapshot = Some(val()),
            "--gen" => gen_spec = val(),
            "--k" => k = int(&flag, val()),
            "--tcp" => tcp = Some(val()),
            "--max-inflight" => cfg.max_inflight = int(&flag, val()),
            "--default-deadline-ms" => cfg.default_deadline_ms = int(&flag, val()),
            "--debug-ops" => cfg.enable_debug_ops = true,
            "--durability" => durability_dir = Some(val()),
            "--checkpoint-every" => checkpoint_every = Some(int(&flag, val())),
            "--no-fsync" => fsync = false,
            "--sync-interval-us" => sync_interval_us = Some(int(&flag, val())),
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    let init = match &snapshot {
        Some(path) => load_init(path).unwrap_or_else(|e| usage(&format!("loading {path}: {e}"))),
        None => {
            let (name, seed) = gen_spec
                .split_once(':')
                .unwrap_or_else(|| usage("--gen wants NAME:SEED"));
            let seed: u64 = seed.parse().unwrap_or_else(|_| usage("--gen seed wants an integer"));
            let gen = match name {
                "small" => insta_netlist::generator::GeneratorConfig::small(name, seed),
                "medium" => insta_netlist::generator::GeneratorConfig::medium(name, seed),
                other => usage(&format!("unknown generator {other:?} (small|medium)")),
            };
            let design = insta_netlist::generator::generate_design(&gen);
            let mut sta = insta_refsta::RefSta::new(&design, insta_refsta::StaConfig::default())
                .unwrap_or_else(|e| usage(&format!("reference STA: {e}")));
            sta.full_update(&design);
            sta.export_insta_init()
        }
    };
    let mut engine = InstaEngine::new(
        init,
        InstaConfig {
            top_k: k,
            ..InstaConfig::default()
        },
    )
    .unwrap_or_else(|e| usage(&format!("engine init: {e}")));
    engine.propagate();
    eprintln!(
        "insta-serve: engine ready — {} nodes, {} endpoints, epoch {}",
        engine.num_nodes(),
        engine.num_endpoints(),
        engine.epoch()
    );

    let server = match durability_dir {
        Some(dir) => {
            let mut dcfg = DurabilityConfig::new(dir);
            dcfg.fsync = fsync;
            if let Some(n) = checkpoint_every {
                dcfg.checkpoint_every = n;
            }
            if let Some(us) = sync_interval_us {
                dcfg.sync_interval = std::time::Duration::from_micros(us);
            }
            let (server, report) = Server::with_durability(engine, cfg, dcfg)
                .unwrap_or_else(|e| usage(&format!("durability: {e}")));
            eprintln!(
                "insta-serve: recovered epoch {} (checkpoint {}, {} replayed, {} incident{})",
                report.recovered_epoch,
                report
                    .checkpoint_epoch
                    .map_or_else(|| "none".to_owned(), |e| e.to_string()),
                report.replayed,
                report.incidents.len(),
                if report.incidents.len() == 1 { "" } else { "s" },
            );
            for inc in &report.incidents {
                eprintln!("insta-serve: recovery incident: {}", inc.message);
            }
            server
        }
        None => Server::new(engine, cfg),
    };
    match tcp {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr)
                .unwrap_or_else(|e| usage(&format!("binding {addr}: {e}")));
            eprintln!("insta-serve: listening on {addr}");
            if let Err(e) = server.serve_tcp(listener) {
                eprintln!("insta-serve: accept loop failed: {e}");
                std::process::exit(1);
            }
        }
        None => server.serve_stdio(),
    }
}
