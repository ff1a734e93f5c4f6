//! Application 2: INSTA-Size vs the greedy reference sizer (paper §IV-C,
//! Table II).
//!
//! Both sizers start from the same violating design; the comparison shows
//! the paper's headline: gradient targeting reaches comparable-or-better
//! TNS while touching far fewer cells. Run with
//! `cargo run --release --example gate_sizing`.

use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::refsta::{RefSta, StaConfig};
use insta_sta::sizer::{insta_size, reference_size, InstaSizeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An IWLS-scale circuit with a clock tight enough to violate.
    let mut gen = GeneratorConfig::with_target_pins("aes_like", 77, 12_000);
    gen.clock_period_ps = 860.0;

    // --- Reference greedy sizer ----------------------------------------
    let mut design_ref = generate_design(&gen);
    let mut sta_ref = RefSta::new(&design_ref, StaConfig::default())?;
    let ref_out = reference_size(&mut design_ref, &mut sta_ref);

    // --- INSTA-Size ------------------------------------------------------
    let mut design_insta = generate_design(&gen); // identical start state
    let mut sta_insta = RefSta::new(&design_insta, StaConfig::default())?;
    let insta_out = insta_size(&mut design_insta, &mut sta_insta, &InstaSizeConfig::default());

    // Each run returns its spans: `size.run` is the whole run, and
    // `size.gradient` INSTA-Size's gradient calls (the paper's bRT).
    let secs = |out: &insta_sta::sizer::SizeOutcome, name| out.trace.sum(name).secs();
    println!("initial state : WNS {:8.2} ps  TNS {:10.1} ps  #vio {}",
        ref_out.wns_before_ps, ref_out.tns_before_ps, ref_out.violations_before);
    println!("reference     : WNS {:8.2} ps  TNS {:10.1} ps  #vio {:4}  cells sized {:4}  ({:.2} s)",
        ref_out.wns_after_ps, ref_out.tns_after_ps, ref_out.violations_after,
        ref_out.cells_sized, secs(&ref_out, "size.run"));
    println!("INSTA-Size    : WNS {:8.2} ps  TNS {:10.1} ps  #vio {:4}  cells sized {:4}  ({:.2} s, bRT {:.3} s)",
        insta_out.wns_after_ps, insta_out.tns_after_ps, insta_out.violations_after,
        insta_out.cells_sized, secs(&insta_out, "size.run"), secs(&insta_out, "size.gradient"));
    // Every INSTA-Size move is one `coupled.move` span whose `kind` is its
    // route: a session on the changed arcs (0), or an engine rebuild for a
    // changed launch (1) or a full re-time (2).
    let mut kinds = [0; 3];
    for e in insta_out.trace.events().filter(|e| e.name == "coupled.move") {
        kinds[e.field("kind").map_or(0, |k| k as usize)] += 1;
    }
    println!("  moves by route: {} arcs ({:.1} ms in sessions), {} launch + {} full ({:.1} ms in rebuilds)",
        kinds[0], secs(&insta_out, "coupled.session") * 1e3, kinds[1], kinds[2],
        secs(&insta_out, "coupled.rebuild") * 1e3);
    if ref_out.cells_sized > 0 {
        let fewer = 100.0
            * (1.0 - insta_out.cells_sized as f64 / ref_out.cells_sized as f64);
        println!("INSTA-Size touched {fewer:.0}% fewer cells than the reference sizer");
    }
    Ok(())
}
