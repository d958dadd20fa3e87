//! Property-based robustness tests for the KV line protocol: parsers must
//! round-trip every well-formed request/response and must never panic on
//! arbitrary or truncated input — a network peer controls these bytes.
//!
//! Gated behind the `proptest` feature (`cargo test --features proptest`)
//! so the default offline test run stays lean.
#![cfg(feature = "proptest")]

use kvstore::protocol::encode_response;
use kvstore::{format_request, format_response, parse_request, parse_response, Request, Response};
use proptest::prelude::*;

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Request::Set(k, v)),
        any::<u64>().prop_map(Request::Get),
        any::<u64>().prop_map(Request::Del),
        (any::<u64>(), 0usize..100_000).prop_map(|(k, n)| Request::Scan(k, n)),
        Just(Request::Len),
        Just(Request::Quit),
    ]
}

/// Arbitrary text built from raw bytes (the vendored proptest shim has no
/// regex string strategies): lossy-decoded so it may contain replacement
/// chars, multi-byte chars, and embedded whitespace/control bytes.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..64).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        any::<u64>().prop_map(Response::Value),
        Just(Response::Miss),
        any::<u64>().prop_map(Response::Deleted),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..8).prop_map(Response::Range),
        (0usize..1_000_000).prop_map(Response::Len),
        Just(Response::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request survives format -> parse unchanged.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let line = format_request(&req);
        prop_assert_eq!(parse_request(&line), Ok(req));
    }

    /// Every response survives format -> parse unchanged.
    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let line = format_response(&resp);
        prop_assert_eq!(parse_response(&line), Ok(resp));
    }

    /// `parse_request` never panics on arbitrary text; it returns Ok or Err.
    #[test]
    fn parse_request_never_panics(line in arb_text()) {
        let _ = parse_request(&line);
    }

    /// `parse_response` never panics on arbitrary text.
    #[test]
    fn parse_response_never_panics(line in arb_text()) {
        let _ = parse_response(&line);
    }

    /// Truncating a valid request at any byte must parse or error — never
    /// panic (slicing is on char boundaries by construction: the wire
    /// format is pure ASCII).
    #[test]
    fn truncated_requests_never_panic(req in arb_request(), cut in 0usize..32) {
        let line = format_request(&req);
        let cut = cut.min(line.len());
        let _ = parse_request(&line[..cut]);
    }

    /// A valid request with arbitrary bytes appended must parse or error —
    /// never panic (models a corrupted/concatenated wire line).
    #[test]
    fn request_with_garbage_suffix_never_panics(req in arb_request(), tail in arb_text()) {
        let line = format_request(&req) + &tail;
        let _ = parse_request(&line);
    }

    /// Truncating a valid response at any byte must parse or error.
    #[test]
    fn truncated_responses_never_panic(resp in arb_response(), cut in 0usize..64) {
        let line = format_response(&resp);
        let cut = cut.min(line.len());
        let _ = parse_response(&line[..cut]);
    }

    /// Arbitrary whitespace-flanked garbage around "ERR" exercises the
    /// message-extraction slice in `parse_response`.
    #[test]
    fn err_with_arbitrary_payload_never_panics(payload in arb_text()) {
        let _ = parse_response(&format!("ERR {payload}"));
        let _ = parse_response(&format!("  ERR {payload}"));
    }

    /// The in-place encoder the server writes replies with produces
    /// exactly `format_response(r) + "\n"`, for every response kind, and
    /// appends to what the buffer already holds.
    #[test]
    fn in_place_encoder_matches_format_response(
        resp in prop_oneof![arb_response(), arb_text().prop_map(Response::Err)],
        prefix in arb_text(),
    ) {
        let want = format!("{prefix}{}\n", format_response(&resp));
        let mut out = prefix.clone().into_bytes();
        encode_response(&mut out, &resp);
        prop_assert_eq!(&out, want.as_bytes());
    }
}
