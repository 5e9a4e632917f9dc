//! Property tests for the hand-rolled JSON layer: everything the
//! writer emits must parse back, bit-for-bit where the format allows.

use loadsteal_obs::json::{parse, JsonBuf, JsonValue};
use loadsteal_obs::{Event, SimEventKind};
use proptest::prelude::*;

/// Map arbitrary bits to a finite f64 (the writer never receives
/// non-finite values from instrumented code paths under test here; the
/// non-finite rendering is covered separately below).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        // Fall back to a value derived from the same entropy.
        (bits >> 12) as f64 / 1e3
    }
}

/// Build a string from entropy over an alphabet that exercises every
/// escaping path: quotes, backslashes, control characters, multi-byte
/// UTF-8, and astral-plane characters (surrogate pairs in `\u` form).
fn tricky_string(seed: u64, len: usize) -> String {
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1f}',
        'é',
        'λ',
        '中',
        '😀',
        '\u{10FFFF}',
    ];
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ALPHABET[(s >> 33) as usize % ALPHABET.len()]
        })
        .collect()
}

fn sim_kind(tag: u8) -> SimEventKind {
    match tag % 5 {
        0 => SimEventKind::Arrival,
        1 => SimEventKind::Completion,
        2 => SimEventKind::StealAttempt,
        3 => SimEventKind::StealSuccess,
        _ => SimEventKind::Migration,
    }
}

fn get_f64(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .as_f64()
        .unwrap_or_else(|| panic!("{key} is not a number"))
}

fn get_u64(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing key {key}"))
        .as_u64()
        .unwrap_or_else(|| panic!("{key} is not a u64"))
}

proptest! {
    #[test]
    fn finite_f64_round_trips_exactly(bits in any::<u64>()) {
        let v = finite(bits);
        let mut j = JsonBuf::new();
        j.begin_obj().field_f64("x", v);
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("writer output must parse");
        let got = doc.get("x").unwrap().as_f64().unwrap();
        // Shortest-roundtrip float formatting is exact, including -0.0.
        prop_assert_eq!(got.to_bits(), v.to_bits());
    }

    #[test]
    fn u64_round_trips_exactly(v in any::<u64>()) {
        let mut j = JsonBuf::new();
        j.begin_obj().field_u64("n", v);
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("writer output must parse");
        prop_assert_eq!(doc.get("n").unwrap().as_u64(), Some(v));
    }

    #[test]
    fn strings_round_trip_through_escaping(seed in any::<u64>(), len in 0usize..40) {
        let s = tricky_string(seed, len);
        let mut j = JsonBuf::new();
        j.begin_obj().field_str("s", &s);
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("escaped string must parse");
        prop_assert_eq!(doc.get("s").unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn non_finite_floats_render_as_null_and_stay_parseable(tag in 0u8..3) {
        let v = match tag {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let mut j = JsonBuf::new();
        j.begin_obj().field_f64("x", v);
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("null rendering must parse");
        prop_assert!(matches!(doc.get("x"), Some(JsonValue::Null)));
    }

    #[test]
    fn sim_event_lines_round_trip(
        tag in any::<u8>(),
        t in 0.0f64..1e9,
        procs in (0u32..4096, 0u32..4096),
        count in 1u32..100,
        with_src in any::<bool>(),
    ) {
        let kind = sim_kind(tag);
        let src = (kind == SimEventKind::Migration && with_src).then_some(procs.1);
        let ev = Event::Sim { kind, t, proc: procs.0, src, count };
        let text = ev.to_json_line();
        let doc = parse(&text).expect("event line must parse");
        prop_assert_eq!(doc.get("ev").unwrap().as_str(), Some(kind.name()));
        prop_assert_eq!(get_f64(&doc, "t").to_bits(), t.to_bits());
        prop_assert_eq!(get_u64(&doc, "proc"), procs.0 as u64);
        match src {
            Some(s) => prop_assert_eq!(get_u64(&doc, "src"), s as u64),
            None => prop_assert!(doc.get("src").is_none()),
        }
        if count != 1 {
            prop_assert_eq!(get_u64(&doc, "count"), count as u64);
        } else {
            prop_assert!(doc.get("count").is_none());
        }
    }

    #[test]
    fn solver_and_lifecycle_event_lines_round_trip(
        bits in (any::<u64>(), any::<u64>(), any::<u64>()),
        counts in (any::<u32>(), any::<u32>(), any::<u64>()),
        flags in (any::<bool>(), any::<bool>()),
        which in 0u8..4,
    ) {
        let (b0, b1, b2) = bits;
        let (c0, c1, c2) = counts;
        let ev = match which {
            0 => Event::SolverStep {
                accepted: flags.0,
                t: finite(b0),
                h: finite(b1),
                err_norm: finite(b2),
            },
            1 => Event::SolverDone {
                accepted: c0 as u64,
                rejected: c1 as u64,
                min_h: finite(b0),
                max_h: finite(b1),
                max_reject_streak: c2 % 1000,
                converged: flags.1,
                residual: finite(b2),
            },
            2 => Event::Heartbeat {
                t: finite(b0),
                events: c2,
                tasks_in_system: c0 as u64,
            },
            _ => Event::ReplicateDone {
                seed: c2,
                wall_ms: finite(b0),
                events: c1 as u64,
                events_per_sec: finite(b1),
            },
        };
        let line = ev.to_json_line();
        let doc = parse(&line).expect("event line must parse");
        prop_assert_eq!(doc.get("ev").unwrap().as_str(), Some(ev.name()));
        match ev {
            Event::SolverStep { accepted, t, h, err_norm } => {
                prop_assert_eq!(doc.get("accepted").unwrap().as_bool(), Some(accepted));
                prop_assert_eq!(get_f64(&doc, "t").to_bits(), t.to_bits());
                prop_assert_eq!(get_f64(&doc, "h").to_bits(), h.to_bits());
                prop_assert_eq!(get_f64(&doc, "err_norm").to_bits(), err_norm.to_bits());
            }
            Event::SolverDone { accepted, rejected, max_reject_streak, converged, .. } => {
                prop_assert_eq!(get_u64(&doc, "accepted"), accepted);
                prop_assert_eq!(get_u64(&doc, "rejected"), rejected);
                prop_assert_eq!(get_u64(&doc, "max_reject_streak"), max_reject_streak);
                prop_assert_eq!(doc.get("converged").unwrap().as_bool(), Some(converged));
            }
            Event::Heartbeat { t, events, tasks_in_system } => {
                prop_assert_eq!(get_f64(&doc, "t").to_bits(), t.to_bits());
                prop_assert_eq!(get_u64(&doc, "events"), events);
                prop_assert_eq!(get_u64(&doc, "tasks_in_system"), tasks_in_system);
            }
            Event::ReplicateDone { seed, wall_ms, events, .. } => {
                prop_assert_eq!(get_u64(&doc, "seed"), seed);
                prop_assert_eq!(get_f64(&doc, "wall_ms").to_bits(), wall_ms.to_bits());
                prop_assert_eq!(get_u64(&doc, "events"), events);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn nested_documents_round_trip(
        n in 0u64..1000,
        g in -1e6f64..1e6,
        seed in any::<u64>(),
    ) {
        let s = tricky_string(seed, 8);
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("meta").begin_obj().field_str("name", &s).field_u64("n", n);
        j.end_obj();
        j.key("values").begin_arr();
        j.f64_val(g).u64_val(n).str_val(&s);
        j.end_arr();
        j.end_obj();
        let text = j.finish();
        let doc = parse(&text).expect("nested doc must parse");
        let meta = doc.get("meta").unwrap();
        prop_assert_eq!(meta.get("name").unwrap().as_str(), Some(s.as_str()));
        prop_assert_eq!(meta.get("n").unwrap().as_u64(), Some(n));
        match doc.get("values") {
            Some(JsonValue::Arr(xs)) => {
                prop_assert_eq!(xs.len(), 3);
                prop_assert_eq!(xs[0].as_f64().unwrap().to_bits(), g.to_bits());
                prop_assert_eq!(xs[1].as_u64(), Some(n));
                prop_assert_eq!(xs[2].as_str(), Some(s.as_str()));
            }
            other => panic!("values is not an array: {other:?}"),
        }
    }
}
