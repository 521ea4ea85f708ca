//! Regression guard for the `Transport` API extraction: the simnet is
//! still the deterministic test transport. The same multi-site
//! scenario, replayed from scratch, must drive **byte-identical** wire
//! traffic through the transport — request bytes, response bytes, and
//! error strings — and attaching via an explicit simnet transport must
//! behave exactly like the classic `GlobalLayer::attach`. The transcript
//! is also pinned byte for byte to a committed golden file, so a codec
//! change that alters any wire byte fails here.

use gridrm::global::{GlobalLayer, GmaDirectory, RecordingTransport, Transport};
use gridrm::prelude::*;
use std::sync::Arc;

/// Build a two-site grid, run remote queries (including failure paths),
/// event forwarding, and pings; return the layer-0 fingerprint of all
/// observable behaviour plus the recorded wire transcript (empty when
/// `record` is false and the classic `attach` path is used).
fn run_scenario(record: bool) -> (String, String) {
    let net = Network::new(SimClock::new(), 0xD5);
    let recorder = RecordingTransport::new(net.clone());
    let directory = GmaDirectory::new();
    let mut layers = Vec::new();
    for i in 0..2u64 {
        let site = format!("site{i}");
        let model = SiteModel::generate(100 + i, &SiteSpec::new(&site, 2, 4));
        model.advance_to(300_000);
        deploy_site(&net, model);
        let gateway = Gateway::new(
            GatewayConfig::new(&format!("gw-{site}"), &site),
            net.clone(),
        );
        install_into_gateway(&gateway);
        let layer = if record {
            let transport: Arc<dyn Transport> = recorder.clone();
            GlobalLayer::attach_via(gateway, directory.clone(), transport)
        } else {
            GlobalLayer::attach(gateway, directory.clone())
        };
        layers.push(layer);
    }
    let portal = &layers[0];

    let mut out = String::new();
    // Remote query (site0 -> site1) and a local one for contrast.
    for source in [
        "jdbc:snmp://node01.site1/public",
        "jdbc:snmp://node00.site0/public",
    ] {
        match portal.query(&ClientRequest::realtime(
            source,
            "SELECT Hostname, Load1 FROM Processor ORDER BY Hostname",
        )) {
            Ok(resp) => out.push_str(&resp.rows.to_table_string()),
            Err(e) => out.push_str(&format!("ERR {source}: {e}\n")),
        }
    }
    // Failure paths must surface identical error strings run to run:
    // a host the remote site does not have, and a downed GMA endpoint.
    for down in [false, true] {
        net.set_down("gw.site1:gma", down);
        match portal.query(&ClientRequest::realtime(
            "jdbc:snmp://node09.site1/public",
            "SELECT Hostname FROM Processor",
        )) {
            Ok(resp) => out.push_str(&resp.rows.to_table_string()),
            Err(e) => out.push_str(&format!("ERR down={down}: {e}\n")),
        }
        out.push_str(&format!("ping down={down}: {}\n", portal.ping("gw-site1")));
    }
    net.set_down("gw.site1:gma", false);
    // Event forwarding crosses the transport too.
    let accepted = portal.forward_event(&GridRMEvent {
        id: 1,
        at_ms: 300_500,
        source: "det-test".to_owned(),
        hostname: Some("node00.site0".to_owned()),
        severity: Severity::Warning,
        category: "cpu.load".to_owned(),
        message: "synthetic".to_owned(),
        value: Some(3.5),
    });
    out.push_str(&format!("event accepted by {accepted} peers\n"));
    let stats = portal.stats().snapshot();
    out.push_str(&format!(
        "out={} in={} ok={} err={}\n",
        stats.remote_queries_out, stats.remote_queries_in, stats.segments_ok, stats.segments_error
    ));
    (out, recorder.transcript_text())
}

#[test]
fn simnet_transport_transcripts_are_byte_identical() {
    let (fp_a, wire_a) = run_scenario(true);
    let (fp_b, wire_b) = run_scenario(true);
    assert!(!wire_a.is_empty(), "scenario produced no wire traffic");
    assert_eq!(fp_a, fp_b, "observable behaviour diverged between runs");
    assert_eq!(wire_a, wire_b, "wire transcripts diverged between runs");
    // The transcript must carry both directions of the failure story:
    // a remote error answered over the wire, and a transport error.
    assert!(wire_a.contains("gw.site1:gma"), "{wire_a}");
    assert!(
        wire_a.contains("endpoint 'gw.site1:gma' is down"),
        "downed-endpoint error text missing:\n{wire_a}"
    );
}

#[test]
fn attach_and_attach_via_simnet_agree() {
    let (classic, _) = run_scenario(false);
    let (via, _) = run_scenario(true);
    assert_eq!(
        classic, via,
        "attach() and attach_via(simnet) behave differently"
    );
}

/// The golden transcript: every request and response frame of the
/// scenario, as the JSON codec wrote them before the direct writer and
/// reader replaced the `Value` tree on the wire.
const GOLDEN_TRANSCRIPT: &str = include_str!("fixtures/transport_transcript.golden");

#[test]
fn wire_transcript_matches_the_golden_fixture() {
    let (_, wire) = run_scenario(true);
    if wire != GOLDEN_TRANSCRIPT {
        let line = wire
            .lines()
            .zip(GOLDEN_TRANSCRIPT.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| wire.lines().count().min(GOLDEN_TRANSCRIPT.lines().count()));
        panic!(
            "wire transcript differs from tests/fixtures/transport_transcript.golden \
             (first differing line {}):\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            wire.lines().nth(line),
            GOLDEN_TRANSCRIPT.lines().nth(line),
        );
    }
}
