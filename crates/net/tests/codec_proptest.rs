//! Property tests for the wire codec: every encodable message roundtrips
//! bit-exactly, and *no* byte-level corruption ever decodes cleanly — the
//! adversarial half of the WAL-mirrored fail-closed policy.

use proptest::prelude::*;

use apc_net::{
    decode_message, encode_hello, encode_request, encode_response, encode_response_into,
    CodecError, FrameReader, Message, WireResult, MAX_WIRE_PAYLOAD,
};
use apc_store::{DurabilityClass, Request, StoreError, StoreOp, StoreResp, TierCredential};

/// Decodes a generated tuple into an arbitrary operation (small key space,
/// arbitrary values — including empty and non-ASCII-adjacent keys).
fn decode_op(kind: u8, key: u8, val: u64) -> StoreOp {
    let k = match key % 4 {
        0 => String::new(),
        1 => format!("k/{key}"),
        2 => format!("π/{val}"), // multi-byte UTF-8 survives the wire
        _ => "x".repeat(usize::from(key % 32)),
    };
    match kind % 5 {
        0 => StoreOp::Get(k),
        1 => StoreOp::Put(k, val),
        2 => StoreOp::Remove(k),
        3 => StoreOp::Cas { key: k, expect: val.is_multiple_of(2).then_some(val / 2), new: val },
        _ => StoreOp::Scan { from: k, to: format!("z{val}") },
    }
}

fn decode_request(
    encoded: &[(u8, u8, u64)],
    cred: u8,
    durability: bool,
    deadline: Option<u32>,
    budget: u32,
) -> Request {
    let ops = encoded.iter().map(|(k, key, v)| decode_op(*k, *key, *v)).collect();
    let credential = if cred.is_multiple_of(2) {
        TierCredential::Guest
    } else {
        TierCredential::Vip { token: u64::from(cred) << 32 }
    };
    let mut req = Request::new(ops).credential(credential).retry_budget(budget);
    if durability {
        req = req.durability(DurabilityClass::Sync);
    }
    if let Some(ms) = deadline {
        req = req.deadline_ms(ms);
    }
    req
}

fn decode_result(tag: u8, a: u64, b: u64) -> WireResult {
    match tag % 9 {
        0 => Ok(StoreResp::Value(a.is_multiple_of(2).then_some(b))),
        1 => {
            Ok(StoreResp::Cas { ok: a.is_multiple_of(2), actual: b.is_multiple_of(2).then_some(a) })
        }
        2 => Ok(StoreResp::Entries(vec![(format!("e/{a}"), b)])),
        3 => Err(StoreError::Moved { epoch: a }),
        4 => Err(StoreError::GuestTier),
        5 => Err(StoreError::RetryBudgetExhausted { budget: a as u32 }),
        6 => Err(StoreError::Unavailable { version: a }),
        7 => Err(StoreError::DeadlineExceeded { deadline_ms: a as u32 }),
        _ => Err(StoreError::Corrupt { detail: format!("detail/{a}/{b}") }),
    }
}

/// One frame through the streaming reader.
fn reframe(frame: &[u8]) -> Vec<u8> {
    let mut reader = FrameReader::new();
    reader.push(frame);
    let payload = reader.next_payload().expect("well-formed").expect("complete").to_vec();
    assert_eq!(reader.buffered(), 0, "one frame consumes exactly its bytes");
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests of arbitrary shape roundtrip bit-exactly.
    #[test]
    fn request_roundtrips(
        encoded in proptest::collection::vec((0u8..5, 0u8..=255, 0u64..1000), 0..12),
        id in 0u64..u64::MAX,
        cred in 0u8..=255,
        durability_tag in 0u8..2,
        deadline_tag in 0u8..2,
        deadline_ms in 0u32..100_000,
        budget in 0u32..=u32::MAX,
    ) {
        let deadline = (deadline_tag == 1).then_some(deadline_ms);
        let req = decode_request(&encoded, cred, durability_tag == 1, deadline, budget);
        let payload = reframe(&encode_request(id, &req));
        prop_assert_eq!(decode_message(&payload).unwrap(), Message::Request { id, req });
    }

    /// Responses roundtrip.
    #[test]
    fn response_roundtrips(
        encoded in proptest::collection::vec((0u8..9, 0u64..1000, 0u64..1000), 0..16),
        id in 0u64..u64::MAX,
    ) {
        let results: Vec<WireResult> =
            encoded.iter().map(|(t, a, b)| decode_result(*t, *a, *b)).collect();
        let payload = reframe(&encode_response(id, &results));
        let Message::Response { id: got_id, results: got } = decode_message(&payload).unwrap()
        else { panic!("expected a response") };
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, results);
    }

    /// Response tag 4 (once an in-band "unavailable") is reserved: a frame
    /// that carries it fails closed, whatever results precede it.
    #[test]
    fn response_tag_4_fails_closed(
        encoded in proptest::collection::vec((0u8..9, 0u64..1000, 0u64..1000), 0..6),
        version in 0u64..u64::MAX,
        id in 0u64..u64::MAX,
    ) {
        // `Err(Moved { epoch })` is `[1][1][u64]` on the wire, the retired
        // `Ok(Unavailable { version })` was `[0][4][u64]`; it goes last.
        let mut results: Vec<WireResult> =
            encoded.iter().map(|(t, a, b)| decode_result(*t, *a, *b)).collect();
        results.push(Err(StoreError::Moved { epoch: version }));
        let mut payload = reframe(&encode_response(id, &results));
        let tags = payload.len() - 10;
        prop_assert_eq!(&payload[tags..tags + 2], &[1u8, 1][..]);
        payload[tags] = 0;
        payload[tags + 1] = 4;
        prop_assert_eq!(
            decode_message(&payload),
            Err(CodecError::UnknownDiscriminant { what: "resp", found: 4 })
        );
    }

    /// The encode-side payload cap: no generated result set — including
    /// `Entries` bodies far beyond the cap — ever produces a frame the
    /// peer's decoder rejects. Oversized slots degrade to a typed
    /// `Corrupt { detail: "oversized..." }`; in-share slots are verbatim.
    #[test]
    fn encode_response_never_exceeds_the_payload_cap(
        encoded in proptest::collection::vec((0u8..9, 0u64..1000, 0u64..1000), 0..8),
        huge_positions in proptest::collection::vec(0usize..8, 0..3),
        entry_count in 1usize..60_000,
        id in 0u64..u64::MAX,
    ) {
        let mut results: Vec<WireResult> =
            encoded.iter().map(|(t, a, b)| decode_result(*t, *a, *b)).collect();
        for pos in huge_positions {
            if results.is_empty() { break; }
            let slot = pos % results.len();
            let entries = (0..entry_count)
                .map(|i| (format!("bulk/{i:06}/{}", "p".repeat(20)), i as u64))
                .collect();
            results[slot] = Ok(StoreResp::Entries(entries));
        }
        let frame = encode_response(id, &results);
        // The streaming reader is the peer's cap oracle: it must accept
        // the frame whole rather than failing closed on its length.
        let payload = reframe(&frame);
        prop_assert!(payload.len() <= MAX_WIRE_PAYLOAD as usize);
        let Message::Response { id: got_id, results: got } = decode_message(&payload).unwrap()
        else { panic!("expected a response") };
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got.len(), results.len());
        for (g, want) in got.iter().zip(&results) {
            let replaced =
                matches!(g, Err(StoreError::Corrupt { detail }) if detail.starts_with("oversized"));
            prop_assert!(g == want || replaced, "slot neither verbatim nor typed-oversized");
        }
    }

    /// Encoding into a buffer that already holds bytes appends exactly the
    /// owned encoding and leaves the bytes before it alone — on the
    /// in-cap path and on the fair-share oversize path alike.
    #[test]
    fn encode_response_into_appends_the_owned_encoding(
        prefix in proptest::collection::vec(0u8..=255, 0..64),
        encoded in proptest::collection::vec((0u8..9, 0u64..1000, 0u64..1000), 0..8),
        huge_at in proptest::collection::vec(0usize..8, 0..3),
        entry_count in 1usize..60_000,
        id in 0u64..u64::MAX,
    ) {
        let mut results: Vec<WireResult> =
            encoded.iter().map(|(t, a, b)| decode_result(*t, *a, *b)).collect();
        for pos in huge_at {
            if results.is_empty() { break; }
            let slot = pos % results.len();
            let entries = (0..entry_count)
                .map(|i| (format!("bulk/{i:06}/{}", "q".repeat(20)), i as u64))
                .collect();
            results[slot] = Ok(StoreResp::Entries(entries));
        }
        let owned = encode_response(id, &results);
        let mut out = prefix.clone();
        encode_response_into(&mut out, id, &results);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert!(out[prefix.len()..] == owned[..], "appended frame differs from the owned one");
        // A reused buffer, cleared, encodes the next response just the same.
        out.clear();
        encode_response_into(&mut out, id ^ 1, &results[..results.len() / 2]);
        prop_assert!(out == encode_response(id ^ 1, &results[..results.len() / 2]));
    }

    /// Many frames pushed at once and then re-pushed in pieces cut at
    /// arbitrary offsets come out whole and in order, `buffered()` is
    /// exactly the bytes not yet handed out after every step, and a torn
    /// tail behind frames already read still shows at close.
    #[test]
    fn frame_reader_yields_every_frame_in_order_across_any_split(
        ids in proptest::collection::vec(0u64..u64::MAX, 1..12),
        cuts in proptest::collection::vec(0usize..10_000, 0..8),
        torn in 1usize..20,
    ) {
        let frames: Vec<Vec<u8>> = ids
            .iter()
            .map(|&id| encode_request(id, &Request::new(vec![StoreOp::Get(format!("k/{id}"))])))
            .collect();
        let stream: Vec<u8> = frames.concat();

        // All frames in one push.
        let mut reader = FrameReader::new();
        reader.push(&stream);
        let mut left = stream.len();
        for frame in &frames {
            prop_assert_eq!(reader.buffered(), left);
            let payload = reader.next_payload().unwrap().expect("a whole frame is buffered");
            prop_assert_eq!(payload, &frame[4..frame.len() - 8]);
            left -= frame.len();
            prop_assert_eq!(reader.buffered(), left);
        }
        prop_assert_eq!(reader.next_payload().unwrap(), None);

        // The same stream in pieces.
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut reader = FrameReader::new();
        let (mut pushed, mut read, mut next) = (0, 0, 0);
        for &cut in &cuts {
            reader.push(&stream[pushed..cut]);
            pushed = cut;
            while let Some(payload) = reader.next_payload().unwrap() {
                prop_assert_eq!(payload, &frames[next][4..frames[next].len() - 8]);
                read += frames[next].len();
                next += 1;
            }
            prop_assert_eq!(reader.buffered(), pushed - read, "exactly the unread bytes");
        }
        prop_assert_eq!(next, frames.len(), "every frame, once");

        // A torn tail behind consumed frames is still visible at close.
        let tail = &frames[0][..torn.min(frames[0].len() - 1)];
        reader.push(tail);
        prop_assert_eq!(reader.next_payload().unwrap(), None);
        prop_assert_eq!(reader.buffered(), tail.len());
    }

    /// Hello frames roundtrip for every credential shape.
    #[test]
    fn hello_roundtrips(cred in 0u8..=255, token in 0u64..u64::MAX) {
        let credential = if cred.is_multiple_of(2) {
            TierCredential::Guest
        } else {
            TierCredential::Vip { token }
        };
        let payload = reframe(&encode_hello(&credential));
        prop_assert_eq!(decode_message(&payload).unwrap(), Message::Hello(credential));
    }

    /// Adversarial single-byte corruption anywhere in a frame never
    /// decodes into a *different* clean message: it is caught by the
    /// checksum, a structural check, or (for length-prefix growth) held
    /// as an incomplete frame — never silently misdecoded.
    #[test]
    fn single_byte_corruption_fails_closed(
        encoded in proptest::collection::vec((0u8..5, 0u8..=255, 0u64..100), 1..6),
        pos_seed in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let req = decode_request(&encoded, 1, false, Some(9), 3);
        let clean = encode_request(5, &req);
        let mut frame = clean.clone();
        let pos = pos_seed % frame.len();
        frame[pos] ^= flip;

        let mut reader = FrameReader::new();
        reader.push(&frame);
        match reader.next_payload() {
            Err(_) => {} // oversized prefix or checksum mismatch: closed
            Ok(None) => {
                // The length prefix grew: the frame legitimately waits for
                // bytes that will never come — at stream close this is the
                // torn tail and fails closed.
                prop_assert!(reader.buffered() > 0);
            }
            Ok(Some(payload)) => {
                // The checksum cannot catch a flip confined to the length
                // prefix that still frames a checksummed payload — but
                // that can only *shrink* the frame, and the decoder then
                // fails on the truncated body or trailing bytes. A clean
                // decode must reproduce the original message exactly.
                match decode_message(payload) {
                    Err(_) => {}
                    Ok(msg) => prop_assert_eq!(msg, Message::Request { id: 5, req }),
                }
            }
        }
    }

    /// Truncating a frame at any boundary is pending (never an error,
    /// never a partial decode) until the stream closes.
    #[test]
    fn truncation_is_pending(
        encoded in proptest::collection::vec((0u8..5, 0u8..=255, 0u64..100), 1..6),
        cut_seed in 0usize..10_000,
    ) {
        let frame = encode_request(1, &decode_request(&encoded, 0, false, None, 1));
        let cut = 1 + cut_seed % (frame.len() - 1);
        let mut reader = FrameReader::new();
        reader.push(&frame[..cut]);
        prop_assert_eq!(reader.next_payload().unwrap(), None);
        prop_assert!(reader.buffered() > 0, "torn tail stays visible");
        // Feeding the remainder completes the frame exactly.
        reader.push(&frame[cut..]);
        let payload = reader.next_payload().unwrap().expect("now complete");
        prop_assert!(decode_message(payload).is_ok());
    }

    /// Arbitrary garbage never panics the decoder and never yields a
    /// frame whose claimed length exceeds the cap.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        match reader.next_payload() {
            Ok(Some(payload)) => {
                prop_assert!(payload.len() <= MAX_WIRE_PAYLOAD as usize);
                let _ = decode_message(payload); // must not panic
            }
            Ok(None) => {}
            Err(e) => {
                let structural = matches!(
                    e,
                    CodecError::FrameTooLarge { .. } | CodecError::ChecksumMismatch
                );
                prop_assert!(structural, "unexpected stream error: {e}");
            }
        }
    }
}
