//! Application 3: INSTA-Place vs plain analytic placement vs net-weighting
//! (paper §IV-D, Table III and Fig. 9).
//!
//! Runs the same superblue-like instance through the three placer modes
//! and prints post-legalization HPWL and TNS, plus the timing-refresh
//! runtime breakdown INSTA-Place incurs. Run with
//! `cargo run --release --example timing_driven_placement`.

use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::placer::{place, PlacerConfig, PlacerMode};

fn main() {
    let mut gen = GeneratorConfig::medium("superblue_like", 15);
    gen.clock_period_ps = 7200.0;
    gen.uniform_endpoint_taps = true;
    gen.hub_fraction = 0.04;
    gen.hub_pick_prob = 0.35;

    let run = |mode: PlacerMode, label: &str| {
        let mut design = generate_design(&gen);
        let cfg = PlacerConfig {
            mode,
            seed: 3,
            ..PlacerConfig::default()
        };
        let r = place(&mut design, &cfg);
        println!(
            "{label:<12}: HPWL {:9.0} um (init {:9.0})  TNS {:9.1} ps  WNS {:7.2} ps",
            r.hpwl_legal, r.hpwl_init, r.tns_legal_ps, r.wns_legal_ps
        );
        r
    };

    println!("post-legalization results (same instance, same iteration budget):");
    let dp = run(PlacerMode::Wirelength, "DP (WL-only)");
    let nw = run(
        PlacerMode::NetWeighting {
            alpha: 1.0,
            beta: 0.5,
        },
        "DP4.0 (NW)",
    );
    let ip = run(PlacerMode::InstaPlace { lambda_rc: 0.01 }, "INSTA-Place");

    println!(
        "\nINSTA-Place vs net-weighting: TNS {:.0} vs {:.0} ps, HPWL {:+.1}%",
        ip.tns_legal_ps,
        nw.tns_legal_ps,
        100.0 * (ip.hpwl_legal / nw.hpwl_legal - 1.0)
    );
    // Every refresh is one `placer.refresh` span; its children are Fig. 9's
    // rows.
    let ms = |name| ip.trace.sum(name).secs() * 1e3;
    println!("\ntiming-refresh breakdown of INSTA-Place (Fig. 9 analogue), all refreshes:");
    println!(
        "wires {:6.1} ms | reference timer {:6.1} ms | transfer {:6.1} ms | INSTA grad {:6.1} ms | total {:6.1} ms",
        ms("placer.wires"),
        ms("placer.refsta"),
        ms("placer.transfer"),
        ms("placer.gradient"),
        ms("placer.refresh")
    );
    let _ = dp;
}
