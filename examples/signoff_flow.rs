//! A miniature signoff loop using the interchange front ends: write the
//! design to structural Verilog, read it back, constrain it with SDC,
//! report the worst paths, then recover power with INSTA as the evaluator.
//!
//! Run with `cargo run --release --example signoff_flow`.

use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::netlist::verilog::{parse_verilog, write_verilog};
use insta_sta::refsta::sdc::apply_sdc;
use insta_sta::refsta::{RefSta, StaConfig};
use insta_sta::sizer::power_recover;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A netlist arrives as Verilog (here: generated, written, re-read).
    let mut gen = GeneratorConfig::small("mini_soc", 99);
    gen.clock_period_ps = 2000.0;
    gen.drive_choices = vec![4]; // deliberately oversized: power headroom
    let golden_src = generate_design(&gen);
    let verilog = write_verilog(&golden_src);
    println!("netlist: {} lines of structural Verilog", verilog.lines().count());
    let mut design = parse_verilog(&verilog, golden_src.library_arc(), "clk", 2000.0)?;
    // Structural Verilog carries no parasitics; reuse the source wires.
    for ni in 0..design.nets().len() {
        let name = design.nets()[ni].name.clone();
        if let Some(src_net) = golden_src.nets().iter().find(|n| n.name == name) {
            design.set_net_wires(
                insta_sta::netlist::NetId(ni as u32),
                src_net.sink_wires.clone(),
            );
        }
    }

    // 2. Constrain with SDC.
    let mut sta = RefSta::new(&design, StaConfig::default())?;
    sta.full_update(&design);
    apply_sdc(
        &mut sta,
        &design,
        "# mini_soc constraints\n\
         create_clock -name core -period 2000 [get_ports clk]\n\
         set_input_delay 50 [all_inputs]\n",
    )?;
    let report = sta.full_update(&design);
    println!(
        "constrained timing: WNS {:.1} ps, TNS {:.1} ps, {} violations",
        report.wns_ps, report.tns_ps, report.n_violations
    );

    // 3. Inspect the worst path.
    if let Some(worst) = sta.report_worst_paths(&design, 1).into_iter().next() {
        println!("\n{}", worst.to_text(&design.name));
    }

    // 4. Recover power with INSTA as the incremental evaluator.
    let out = power_recover(&mut design, &mut sta);
    println!(
        "power recovery: leakage {:.1} -> {:.1} ({:.0}% recovered), {} downsizing commits \
         on {} cells, WNS {:.1} ps, {} violations, {:.2} s",
        out.leakage_before,
        out.leakage_after,
        100.0 * out.recovery_frac(),
        out.cells_downsized,
        out.timing.cells_sized,
        out.timing.wns_after_ps,
        out.timing.violations_after,
        out.timing.trace.sum("size.run").secs()
    );
    Ok(())
}
