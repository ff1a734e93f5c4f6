//! INSTA-Buffer: gradient-guided buffer insertion — the paper's stated
//! future work ("In the future, we aim to investigate INSTA for buffering
//! and restructuring"), prototyped here on the same timing-gradient
//! machinery as INSTA-Size.
//!
//! The per-arc gradient identifies *which* interconnect hurts TNS; the
//! Elmore model says *how much* splitting helps (halving the quadratic
//! R·C/2 term). Each round, the highest `|gradient| × wire delay` net
//! arcs get a buffer inserted at the wire midpoint; the batch is accepted
//! only if the signoff TNS improves (topology changed, so the evaluation
//! is a fresh full analysis).

use insta_engine::{InstaConfig, InstaEngine};
use insta_liberty::GateClass;
use insta_netlist::{Design, TimingArcKind, WireRc};
use insta_refsta::{RefSta, StaConfig};
use insta_support::obs::Recorder;

/// Insertion rounds (gradients refresh between rounds).
const ROUNDS: usize = 4;
/// Buffers inserted per round.
const BUFFERS_PER_ROUND: usize = 8;
/// Minimum branch Elmore delay (ps) for a wire to be a candidate.
const MIN_WIRE_DELAY_PS: f64 = 5.0;
/// Drive strength of inserted buffers.
const BUFFER_DRIVE: u32 = 4;

/// Outcome of a buffering run.
#[derive(Debug, Clone)]
pub struct BufferingOutcome {
    /// WNS before (ps).
    pub wns_before_ps: f64,
    /// WNS after (ps).
    pub wns_after_ps: f64,
    /// TNS before (ps).
    pub tns_before_ps: f64,
    /// TNS after (ps).
    pub tns_after_ps: f64,
    /// Buffers committed.
    pub buffers_added: usize,
    /// The run's one `buffer.run` span.
    pub trace: Recorder,
}

/// Runs gradient-guided buffer insertion on `design`.
///
/// Each round is transactional: candidates are applied to a clone and the
/// clone replaces the design only if signoff TNS improves.
///
/// # Panics
///
/// Panics if the library has no buffer family.
pub fn insta_buffer(design: &mut Design) -> BufferingOutcome {
    let mut trace = Recorder::new();
    trace.begin("buffer.run");
    let lib = design.library_arc();
    let buf_cell = lib
        .family_member(GateClass::Buf, BUFFER_DRIVE)
        .or_else(|| lib.family(GateClass::Buf).last().copied())
        .expect("library has buffers");

    let mut golden = RefSta::new(design, StaConfig::default()).expect("acyclic design");
    let before = golden.full_update(design);
    let mut current = before.clone();
    let mut added = 0usize;

    for round in 0..ROUNDS {
        if current.n_violations == 0 {
            break;
        }
        // Timing gradients from INSTA (τ = 1 ps, the default).
        let mut engine = InstaEngine::new(golden.export_insta_init(), InstaConfig::default())
            .expect("valid snapshot");
        engine.backward_tns();
        let grads = engine.arc_gradients();

        // Candidate net arcs: long wires carrying gradient, scored by
        // |gradient| × branch delay.
        let graph = golden.graph();
        let mut cands: Vec<(f64, insta_netlist::NetId, usize)> = Vec::new();
        for (ai, arc) in graph.arcs().iter().enumerate() {
            let TimingArcKind::Net { net, sink_pos } = arc.kind else {
                continue;
            };
            let g = grads[ai].abs();
            if g == 0.0 {
                continue;
            }
            let wire = design.net(net).sink_wires[sink_pos as usize];
            let sink_cap = design.pin_cap_ff(design.net(net).sinks[sink_pos as usize]);
            let elmore = wire.res_kohm * (wire.cap_ff / 2.0 + sink_cap);
            if elmore < MIN_WIRE_DELAY_PS {
                continue;
            }
            cands.push((g * elmore, net, sink_pos as usize));
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
        cands.truncate(BUFFERS_PER_ROUND);
        if cands.is_empty() {
            break;
        }

        // Transactional application: build the buffered clone.
        let mut trial = design.clone();
        let mut inserted = 0usize;
        for (bi, &(_, net, sink_pos)) in cands.iter().enumerate() {
            // Snapshot the branch before surgery (sink positions shift as
            // sinks are removed, so re-resolve by pin id).
            let sink = design.net(net).sinks[sink_pos];
            let wire = design.net(net).sink_wires[sink_pos];
            if trial.pin(sink).net != Some(net) {
                continue; // another insertion already rewired this sink
            }
            let buf = trial.add_cell(format!("ibuf_r{round}_{bi}"), buf_cell);
            let buf_in = trial.cell_pin(buf, "A");
            let buf_out = trial.cell_pin(buf, "Y");
            let half = WireRc {
                res_kohm: wire.res_kohm / 2.0,
                cap_ff: wire.cap_ff / 2.0,
            };
            trial.disconnect_sink(net, sink);
            // Buffer input joins the original net on the first half-wire…
            trial.attach_sink(net, buf_in, half);
            // …and the second half becomes a new net to the sink.
            trial.connect_with_wires(
                format!("ibuf_net_r{round}_{bi}"),
                buf_out,
                vec![sink],
                vec![half],
            );
            inserted += 1;
        }
        trial.validate().expect("buffered netlist stays valid");

        // Fresh signoff of the trial (topology changed).
        let mut trial_sta = RefSta::new(&trial, StaConfig::default()).expect("acyclic");
        let trial_report = trial_sta.full_update(&trial);
        if trial_report.tns_ps > current.tns_ps {
            added += inserted;
            *design = trial;
            golden = trial_sta;
            current = trial_report;
        } else {
            break; // no further benefit
        }
    }

    trace.end();
    BufferingOutcome {
        wns_before_ps: before.wns_ps,
        wns_after_ps: current.wns_ps,
        tns_before_ps: before.tns_ps,
        tns_after_ps: current.tns_ps,
        buffers_added: added,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insta_netlist::generator::{generate_design, GeneratorConfig};

    /// Long-wire designs violate through interconnect; buffering must
    /// recover TNS.
    #[test]
    fn buffering_improves_wire_dominated_timing() {
        let mut cfg = GeneratorConfig::small("buf", 5);
        cfg.mean_wire_um = 120.0; // very long wires
        cfg.clock_period_ps = 900.0;
        let mut design = generate_design(&cfg);
        let mut sta = RefSta::new(&design, StaConfig::default()).expect("build");
        let before = sta.full_update(&design);
        assert!(before.n_violations > 0, "need wire-dominated violations");

        let cells_before = design.cells().len();
        let out = insta_buffer(&mut design);
        assert!(out.buffers_added > 0, "long wires must attract buffers");
        assert_eq!(design.cells().len(), cells_before + out.buffers_added);
        assert!(
            out.tns_after_ps > out.tns_before_ps,
            "TNS must improve: {} -> {}",
            out.tns_before_ps,
            out.tns_after_ps
        );
        design.validate().expect("valid after surgery");
    }

    /// A clean design is left untouched.
    #[test]
    fn clean_design_gets_no_buffers() {
        let mut cfg = GeneratorConfig::small("buf", 7);
        cfg.clock_period_ps = 50_000.0;
        let mut design = generate_design(&cfg);
        let out = insta_buffer(&mut design);
        assert_eq!(out.buffers_added, 0);
        assert_eq!(out.tns_after_ps, 0.0);
    }

    /// The committed result is reproducible from scratch.
    #[test]
    fn outcome_matches_fresh_analysis() {
        let mut cfg = GeneratorConfig::small("buf", 9);
        cfg.mean_wire_um = 100.0;
        cfg.clock_period_ps = 900.0;
        let mut design = generate_design(&cfg);
        let out = insta_buffer(&mut design);
        let mut fresh = RefSta::new(&design, StaConfig::default()).expect("build");
        let report = fresh.full_update(&design);
        assert!((report.tns_ps - out.tns_after_ps).abs() < 1e-6);
        assert!((report.wns_ps - out.wns_after_ps).abs() < 1e-6);
    }
}
