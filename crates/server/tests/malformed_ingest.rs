//! Malformed-ingest coverage: a fuzz-style table of hostile input lines
//! asserting that every one of them comes back as a typed `ApiError`
//! frame — no panics, no hung or dropped connections, and no collateral
//! damage to well-formed requests sharing the server.

use splitting_server::wire::split_reply;
use splitting_server::{transport, Server, ServerConfig};
use std::sync::Arc;

const GOOD_REQUEST: &str = r#"{"v":1,"type":"request","id":"good","problem":{"name":"mis","base_degree":8},"instance":{"kind":"host","nodes":3,"edges":[[0,1],[1,2],[2,0]]}}"#;

fn quiet_server() -> Server {
    Server::start(ServerConfig {
        record_timings: false,
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    })
}

/// Every hostile line and the reason it is hostile. All must produce an
/// `invalid-request` error frame.
fn hostile_lines() -> Vec<(&'static str, String)> {
    let truncated: Vec<String> = [
        // the good request chopped at ever-earlier byte offsets,
        // including mid-string, mid-number, and mid-escape cuts
        140, 100, 60, 30, 10, 3, 1,
    ]
    .iter()
    .map(|&n| GOOD_REQUEST.chars().take(n).collect())
    .collect();
    let mut table: Vec<(&'static str, String)> = vec![
        ("not JSON at all", "hello there".into()),
        ("top-level array", "[1,2,3]".into()),
        ("top-level string", "\"frame\"".into()),
        ("top-level number", "17".into()),
        ("unbalanced braces", "{\"v\":1".into()),
        ("trailing garbage", "{\"v\":1,\"type\":\"ping\"} extra".into()),
        ("duplicate keys", r#"{"v":1,"v":1,"type":"ping"}"#.into()),
        ("missing version", r#"{"type":"ping"}"#.into()),
        ("future version", r#"{"v":99,"type":"ping"}"#.into()),
        ("string version", r#"{"v":"1","type":"ping"}"#.into()),
        ("missing type", r#"{"v":1}"#.into()),
        ("unknown type", r#"{"v":1,"type":"solve"}"#.into()),
        (
            "unknown top-level field",
            r#"{"v":1,"type":"ping","turbo":true}"#.into(),
        ),
        (
            "numeric id",
            r#"{"v":1,"type":"request","id":7,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "oversized id",
            format!(
                r#"{{"v":1,"type":"request","id":"{}","problem":{{"name":"mis"}},"instance":{{"kind":"host","nodes":1,"edges":[]}}}}"#,
                "x".repeat(200)
            ),
        ),
        (
            "unknown priority",
            r#"{"v":1,"type":"request","id":"x","priority":"urgent","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "missing problem",
            r#"{"v":1,"type":"request","id":"x","instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "unknown problem name",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"graph-coloring"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "unknown problem field (typo)",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis","basedegree":4},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "unknown instance kind",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"hypergraph","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "unknown instance field",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[],"weights":[]}}"#.into(),
        ),
        (
            "edge with one endpoint",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":2,"edges":[[0]]}}"#.into(),
        ),
        (
            "edge with three endpoints",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":3,"edges":[[0,1,2]]}}"#.into(),
        ),
        (
            "edge endpoint out of range",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"multigraph","nodes":2,"edges":[[0,9]]}}"#.into(),
        ),
        (
            "negative node count",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":-4,"edges":[]}}"#.into(),
        ),
        (
            "negative seed",
            r#"{"v":1,"type":"request","id":"x","seed":-1,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "NaN literal",
            r#"{"v":1,"type":"request","id":"x","max_rounds":NaN,"problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "unknown pipeline",
            r#"{"v":1,"type":"request","id":"x","force_pipeline":"theorem99","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "unknown determinism policy",
            r#"{"v":1,"type":"request","id":"x","determinism":"maybe","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "raw control character in string",
            "{\"v\":1,\"type\":\"request\",\"id\":\"a\x01b\",\"problem\":{\"name\":\"mis\"},\"instance\":{\"kind\":\"host\",\"nodes\":1,\"edges\":[]}}".into(),
        ),
        (
            "lone surrogate escape",
            r#"{"v":1,"type":"request","id":"\ud800","problem":{"name":"mis"},"instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "deeply nested instance value",
            format!(
                r#"{{"v":1,"type":"request","id":"x","problem":{{"name":"mis"}},"instance":{{"kind":"host","nodes":{}1{},"edges":[]}}}}"#,
                "[".repeat(100),
                "]".repeat(100)
            ),
        ),
        (
            "oversized frame",
            format!(
                r#"{{"v":1,"type":"request","id":"big","problem":{{"name":"mis"}},"instance":{{"kind":"host","nodes":1,"edges":[],"pad":"{}"}}}}"#,
                "y".repeat(8000)
            ),
        ),
        (
            // the error offset must index into the instance text (pinned
            // precisely in wire's offset-consistency unit test); here we
            // assert the frame is the usual typed error
            "malformed edge deep in a long array",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"instance":{"kind":"host","nodes":9,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,]]}}"#.into(),
        ),
        (
            "request with both inline instance and handle",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"handle":"00000000000000000000000000000000","instance":{"kind":"host","nodes":1,"edges":[]}}"#.into(),
        ),
        (
            "request with neither instance nor handle",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"}}"#.into(),
        ),
        (
            "malformed handle string",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"handle":"BEEF"}"#.into(),
        ),
        (
            "handle nobody uploaded",
            r#"{"v":1,"type":"request","id":"x","problem":{"name":"mis"},"handle":"00000000000000000000000000000000"}"#.into(),
        ),
        (
            "upload without an instance",
            r#"{"v":1,"type":"upload","id":"x"}"#.into(),
        ),
        (
            "upload with a malformed instance",
            r#"{"v":1,"type":"upload","id":"x","instance":{"kind":"host","nodes":2,"edges":[[0,5]]}}"#.into(),
        ),
        (
            // node counts are bounded before any graph is allocated: an
            // unchecked count this size aborts the process on allocation
            "upload with an oversized bipartite side",
            r#"{"v":1,"type":"upload","id":"big","instance":{"kind":"bipartite","left":100000000000000,"right":1,"edges":[]}}"#.into(),
        ),
        (
            "inline host instance with an oversized node count",
            r#"{"v":1,"type":"request","id":"big","problem":{"name":"mis"},"instance":{"kind":"host","nodes":100000000000000,"edges":[]}}"#.into(),
        ),
        (
            "inline multigraph with an oversized node count",
            r#"{"v":1,"type":"request","id":"big","problem":{"name":"mis"},"instance":{"kind":"multigraph","nodes":100000000000000,"edges":[]}}"#.into(),
        ),
        (
            "release without a handle",
            r#"{"v":1,"type":"release","id":"x"}"#.into(),
        ),
        (
            "release of a handle nobody holds",
            r#"{"v":1,"type":"release","id":"x","handle":"00000000000000000000000000000000"}"#.into(),
        ),
    ];
    for t in truncated {
        table.push(("truncated request", t));
    }
    table
}

#[test]
fn every_hostile_line_gets_a_typed_error_frame() {
    let server = quiet_server();
    let table = hostile_lines();
    // interleave: valid request, all hostile lines, valid request — the
    // connection must survive everything in between
    let mut input = String::new();
    input.push_str(GOOD_REQUEST);
    input.push('\n');
    for (_, line) in &table {
        input.push_str(line);
        input.push('\n');
    }
    input.push_str(GOOD_REQUEST);
    input.push('\n');

    let mut out = Vec::new();
    let summary = transport::serve_stream(&server, input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), table.len() + 2, "one reply per line\n{text}");
    assert_eq!(summary.replies_out as usize, frames.len());

    let first = split_reply(frames[0]).expect(frames[0]);
    assert_eq!(first.frame_type, "solution", "leading good request solves");
    let last = split_reply(frames.last().unwrap()).unwrap();
    assert_eq!(
        last.frame_type,
        "solution",
        "the connection survives every hostile line: {}",
        frames.last().unwrap()
    );
    assert_eq!(last.id, "good");

    for (frame, (what, line)) in frames[1..frames.len() - 1].iter().zip(&table) {
        let reply =
            split_reply(frame).unwrap_or_else(|| panic!("{what}: reply frame malformed: {frame}"));
        assert_eq!(reply.frame_type, "error", "{what}: {line} -> {frame}");
        let payload = reply.payload.unwrap();
        assert!(
            payload.contains(r#""event":"error""#)
                && payload.contains(r#""kind":"invalid-request""#),
            "{what}: expected a typed invalid-request payload, got {payload}"
        );
    }
    server.shutdown();
}

#[test]
fn invalid_utf8_gets_a_typed_error_not_a_dropped_connection() {
    let server = quiet_server();
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']);
    input.extend_from_slice(GOOD_REQUEST.as_bytes());
    input.push(b'\n');
    let mut out = Vec::new();
    transport::serve_stream(&server, &input[..], &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), 2, "{text}");
    let first = split_reply(frames[0]).unwrap();
    assert_eq!(first.frame_type, "error");
    assert!(first.payload.unwrap().contains("not valid UTF-8"));
    let second = split_reply(frames[1]).unwrap();
    assert_eq!(second.frame_type, "solution");
    server.shutdown();
}

#[test]
fn hostile_client_does_not_disturb_other_connections() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    let server = Arc::new(quiet_server());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            for stream in listener.incoming() {
                let server = Arc::clone(&server);
                let stream = stream.unwrap();
                thread::spawn(move || {
                    let reader = BufReader::new(&stream);
                    let _ = transport::serve_stream(&server, reader, &stream);
                });
            }
        });
    }

    // the hostile client holds its connection open mid-garbage while the
    // polite client completes a full request/solution exchange
    let mut hostile = TcpStream::connect(addr).unwrap();
    hostile.write_all(&[0xff, 0xfe, b'\n']).unwrap();
    hostile.write_all(b"{\"v\":1,\"type\":\"requ\n").unwrap();
    hostile.flush().unwrap();

    let polite = TcpStream::connect(addr).unwrap();
    (&polite).write_all(GOOD_REQUEST.as_bytes()).unwrap();
    (&polite).write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&polite).read_line(&mut reply).unwrap();
    let parsed = split_reply(reply.trim_end()).expect(&reply);
    assert_eq!(parsed.frame_type, "solution");
    assert_eq!(parsed.id, "good");

    // the hostile client still gets its two typed error frames back
    let mut hostile_replies = BufReader::new(&hostile).lines();
    for _ in 0..2 {
        let frame = hostile_replies.next().unwrap().unwrap();
        let parsed = split_reply(&frame).expect(&frame);
        assert_eq!(parsed.frame_type, "error");
    }
}

/// Differential fuzzing of the zero-copy edge scanner against the strict
/// parser: whatever bytes arrive, both must agree on accept vs reject,
/// on the parsed pairs, and on the exact error (offset and reason).
mod edge_scanner_differential {
    use proptest::prelude::*;
    use splitting_server::json;

    fn assert_agreement(input: &str) {
        let strict = json::parse_edge_pairs(input);
        let scanned = json::scan_edge_pairs(input);
        match (&strict, &scanned) {
            (Ok(a), Ok((b, _fast))) => assert_eq!(a, b, "parsed pairs diverge on {input:?}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "errors diverge on {input:?}"),
            _ => {
                panic!("accept/reject diverges on {input:?}: strict={strict:?} scanned={scanned:?}")
            }
        }
        assert_frame_scan_agreement(input);
    }

    /// The fused frame scan (ingest prescan path) must accept, reject,
    /// and err byte-identically to the plain scanner with the edge text
    /// embedded where it travels on the wire, and any pairs it captures
    /// must match the strict parser's.
    fn assert_frame_scan_agreement(edges: &str) {
        let line = format!(
            r#"{{"v":1,"type":"request","id":"d","problem":{{"name":"weak_splitting"}},"instance":{{"kind":"bipartite","left":4,"right":4,"edges":{edges}}}}}"#
        );
        let plain = json::scan_top_level(&line);
        match json::scan_frame(&line) {
            Ok(scan) => {
                let plain = plain.expect("scan_frame accepted, scan_top_level rejected");
                assert_eq!(scan.fields, plain, "fused fields diverge on {edges:?}");
                if let Some((instance_fields, pairs)) = &scan.instance {
                    assert_eq!(
                        &json::parse_edge_pairs(edges).expect("capture implies strict accept"),
                        pairs,
                        "captured pairs diverge on {edges:?}"
                    );
                    let instance = scan
                        .fields
                        .iter()
                        .find(|(k, _)| *k == "instance")
                        .expect("frame carries an instance")
                        .1;
                    assert_eq!(
                        instance_fields,
                        &json::scan_top_level(instance).expect("instance scans"),
                        "captured instance fields diverge on {edges:?}"
                    );
                }
            }
            Err(e) => {
                let plain_err = plain.expect_err("scan_frame rejected, scan_top_level accepted");
                assert_eq!(e, plain_err, "errors diverge on {edges:?}");
            }
        }
    }

    /// Every character class an edge encoding (or near-miss) can use:
    /// digits, structure, whitespace, sign/float/exponent spellings, and
    /// one outright illegal byte.
    const ALPHABET: &[u8] = b"0123456789,[] -+.eEx";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // byte soup over the edge-list alphabet: mostly invalid inputs,
        // exercising every early-bail branch of the fast scanner
        #[test]
        fn random_soup_agrees(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..64)
        ) {
            let input: String = picks.iter().map(|&i| ALPHABET[i] as char).collect();
            assert_agreement(&input);
        }

        // structurally valid edge lists with random whitespace, then a
        // single-character substitution and deletion — near-valid inputs
        // probe the boundary between the fast path and the fallback
        #[test]
        fn perturbed_edge_lists_agree(
            (pairs, gaps, mutate, at, replacement) in (
                proptest::collection::vec((0u64..1u64 << 40, 0u64..1u64 << 40), 0..24),
                proptest::collection::vec(0usize..3, 1..16),
                0usize..2,
                0usize..4096,
                0usize..ALPHABET.len(),
            )
        ) {
            let mut encoded = String::from("[");
            for (i, (u, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    encoded.push(',');
                }
                let pad = " ".repeat(gaps[i % gaps.len()]);
                encoded.push_str(&format!("{pad}[{u},{pad}{v}]"));
            }
            encoded.push(']');
            assert_agreement(&encoded);
            if mutate == 1 {
                let at = at % encoded.len();
                let mut mutated: String = encoded
                    .char_indices()
                    .map(|(i, c)| if i == at { ALPHABET[replacement] as char } else { c })
                    .collect();
                assert_agreement(&mutated);
                // and a deletion at the same spot
                mutated.remove(at);
                assert_agreement(&mutated);
            }
        }
    }
}
