//! Shared fixtures: an engine built through the reference flow, and an
//! in-process daemon spoken to over a Unix socketpair — the protocol,
//! framing, and threading are all exactly what production connections
//! use; only the transport is in-process.

use insta_engine::{InstaConfig, InstaEngine};
use insta_netlist::generator::{generate_design, GeneratorConfig};
use insta_refsta::eco::ArcDelta;
use insta_refsta::{RefSta, StaConfig};
use insta_serve::{Client, Server};
use insta_support::json::{obj, Json, ToJson};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;

/// Builds a propagated engine from the small generated design.
pub fn build_engine(seed: u64, k: usize) -> InstaEngine {
    let design = generate_design(&GeneratorConfig::small("serve-test", seed));
    let mut sta = RefSta::new(&design, StaConfig::default()).expect("reference STA");
    sta.full_update(&design);
    let mut engine = InstaEngine::new(
        sta.export_insta_init(),
        InstaConfig {
            top_k: k,
            ..InstaConfig::default()
        },
    )
    .expect("engine init");
    engine.propagate();
    engine
}

/// A client over the in-process transport.
pub type Conn = Client<UnixStream, UnixStream>;

/// Opens one client connection against an in-process daemon. The server
/// side runs on its own thread (the production connection model); drop
/// the client to end it.
pub fn connect(server: &Server) -> (Conn, JoinHandle<()>) {
    let (ours, theirs) = UnixStream::pair().expect("socketpair");
    let srv = server.clone();
    let handle = std::thread::spawn(move || {
        let r = theirs.try_clone().expect("clone server half");
        srv.handle_connection(r, theirs);
    });
    let r = ours.try_clone().expect("clone client half");
    (Client::new(r, ours), handle)
}

/// An `update` request's params: the deltas in their wire form.
pub fn deltas_params(deltas: &[ArcDelta]) -> Json {
    obj([(
        "deltas",
        Json::Arr(deltas.iter().map(ToJson::to_json).collect()),
    )])
}

/// Raw bits of a response's `result.slacks` array.
pub fn slack_bits(result: &Json) -> Vec<u64> {
    result
        .field("slacks")
        .expect("slacks")
        .as_arr()
        .expect("array")
        .iter()
        .map(|j| j.as_f64().expect("number").to_bits())
        .collect()
}
