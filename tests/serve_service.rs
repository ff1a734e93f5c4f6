//! Cross-crate smoke: the timing service composed through the umbrella
//! crate — reference flow → engine → daemon → protocol round-trip.

use insta_sta::engine::{InstaConfig, InstaEngine};
use insta_sta::netlist::generator::{generate_design, GeneratorConfig};
use insta_sta::refsta::eco::ArcDelta;
use insta_sta::refsta::{RefSta, StaConfig};
use insta_sta::serve::{Client, Op, ServeConfig, Server};
use insta_sta::support::json::{obj, Json, ToJson};
use std::os::unix::net::UnixStream;

#[test]
fn service_round_trip_through_the_umbrella_crate() {
    let design = generate_design(&GeneratorConfig::small("umbrella-serve", 5));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference STA");
    sta.full_update(&design);
    let mut engine = InstaEngine::new(sta.export_insta_init(), InstaConfig::default())
        .expect("engine init");
    let golden: Vec<u64> = engine.propagate().slacks.iter().map(|s| s.to_bits()).collect();

    let server = Server::new(engine, ServeConfig::default());
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    let srv = server.clone();
    let h = std::thread::spawn(move || {
        let r = theirs.try_clone().expect("clone");
        srv.handle_connection(r, theirs);
    });
    let mut cl = Client::new(ours.try_clone().expect("clone"), ours);

    let rep = cl.call(Op::ReportSlack, None, Json::Null).expect("read");
    assert!(rep.ok, "{:?}", rep.error);
    let bits: Vec<u64> = rep
        .result
        .field("slacks")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|j| j.as_f64().unwrap().to_bits())
        .collect();
    assert_eq!(bits, golden, "slack bits must survive the wire");

    let up = cl
        .call(
            Op::Update,
            Some(5_000),
            obj([(
                "deltas",
                vec![ArcDelta {
                    arc: 0,
                    mean: [20.0; 2],
                    sigma: [2.0; 2],
                }]
                .to_json(),
            )]),
        )
        .expect("write");
    assert!(up.ok, "{:?}", up.error);
    assert_eq!(up.result.get::<u64>("epoch").unwrap(), 1);
    assert_eq!(server.snapshot().epoch(), 1);

    drop(cl);
    h.join().expect("connection thread");
}
