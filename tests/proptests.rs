//! Property-based tests over the core data structures and wire
//! formats: round-trips, exactness invariants, and parser robustness.

use iiscope::subsystems::netsim::{encode_frame, FrameDecoder};
use iiscope::subsystems::playstore::InstallBin;
use iiscope::subsystems::types::{rng as irng, SeedFork, Usd};
use iiscope::subsystems::wire::http::{Request, Response};
use iiscope::subsystems::wire::tls::{open_records, seal_records, RecordType};
use iiscope::subsystems::wire::Json;
use proptest::prelude::*;

/// Arbitrary JSON value generator (bounded depth).
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        // Finite floats only: JSON has no NaN/Inf.
        (-1e15f64..1e15).prop_map(Json::Float),
        // Whole floats: the serializer's ".0" suffix rule.
        (-1_000_000i64..1_000_000).prop_map(|i| Json::Float(i as f64)),
        // Control characters exercise every escape form.
        "[a-zA-Z0-9 _\\-\\.\"\\\\/\u{00e9}\u{20ac}\u{0}-\u{1f}]{0,20}".prop_map(Json::str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::arr),
            prop::collection::btree_map("[a-z]{1,8}", inner, 0..6)
                .prop_map(|m| Json::Object(m.into_iter().collect())),
        ]
    })
}

/// Reference compact serializer: escapes one character at a time, and
/// appends `.0` to a float literal that has no '.', 'e' or 'E'.
fn reference_compact(value: &Json, out: &mut String) {
    use std::fmt::Write;
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => write!(out, "{i}").unwrap(),
        Json::Float(f) if f.is_finite() => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Json::Float(_) => out.push_str("null"),
        Json::Str(s) => reference_escape(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_compact(item, out);
            }
            out.push(']');
        }
        Json::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_escape(k, out);
                out.push(':');
                reference_compact(v, out);
            }
            out.push('}');
        }
    }
}

fn reference_escape(s: &str, out: &mut String) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

proptest! {
    #[test]
    fn json_round_trips(value in arb_json()) {
        let compact = value.to_string();
        let reparsed = Json::parse(&compact).expect("compact reparse");
        prop_assert!(json_eq(&value, &reparsed), "{compact}");
        let pretty = value.pretty();
        let reparsed = Json::parse(&pretty).expect("pretty reparse");
        prop_assert!(json_eq(&value, &reparsed));
    }

    /// The serializers stay byte-equal to the per-character reference
    /// below, escapes and float suffixes included.
    #[test]
    fn json_serializers_match_reference(value in arb_json()) {
        let mut reference = String::new();
        reference_compact(&value, &mut reference);
        prop_assert_eq!(&value.to_string(), &reference);
        prop_assert_eq!(&value.to_bytes()[..], reference.as_bytes());
    }

    #[test]
    fn json_parser_never_panics(input in "\\PC{0,200}") {
        let _ = Json::parse(&input);
    }

    #[test]
    fn usd_display_parse_round_trips(micros in 0i64..10_000_000_000) {
        let usd = Usd::from_micros(micros);
        let text = usd.to_string();
        prop_assert_eq!(Usd::parse(&text).unwrap(), usd, "{}", text);
    }

    #[test]
    fn usd_split_is_exact(micros in 0i64..1_000_000_000, pct in 0u8..=100) {
        let total = Usd::from_micros(micros);
        let (share, rest) = total.split_percent(pct);
        prop_assert_eq!(share + rest, total);
        prop_assert!(!share.is_negative());
        prop_assert!(!rest.is_negative());
    }

    #[test]
    fn frames_survive_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..6),
        chunk in 1usize..64,
    ) {
        let mut wire = bytes::BytesMut::new();
        for p in &payloads {
            encode_frame(&mut wire, p);
        }
        let mut dec = FrameDecoder::new();
        for c in wire.chunks(chunk) {
            dec.extend(c);
        }
        let frames = dec.drain_frames().unwrap();
        prop_assert_eq!(frames.len(), payloads.len());
        for (f, p) in frames.iter().zip(&payloads) {
            prop_assert_eq!(f.as_ref(), &p[..]);
        }
    }

    #[test]
    fn tls_records_round_trip(key in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 0..5000)) {
        let mut seq = 0;
        let wire = seal_records(key, &mut seq, RecordType::AppData, &payload);
        let mut recv = 0;
        prop_assert_eq!(open_records(key, &mut recv, &wire).unwrap(), payload);
        prop_assert_eq!(seq, recv);
    }

    #[test]
    fn tls_single_bitflip_always_detected(
        key in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1..200),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut seq = 0;
        // Sealed records come back as shared `Bytes`; copy out to a
        // mutable buffer for tampering.
        let mut wire = seal_records(key.max(1), &mut seq, RecordType::AppData, &payload).to_vec();
        // Flip one bit in the body (skip the 3-byte header so the
        // record still frames — header corruption is detected as a
        // framing error instead).
        let idx = 3 + flip_byte.index(wire.len() - 3);
        wire[idx] ^= 1 << flip_bit;
        let mut recv = 0;
        prop_assert!(open_records(key.max(1), &mut recv, &wire).is_err());
    }

    #[test]
    fn http_request_round_trips(
        target in "/[a-z0-9/\\-_]{0,30}",
        body in prop::collection::vec(any::<u8>(), 0..500),
    ) {
        let req = Request::post(target.clone(), body.clone());
        let wire = req.encode();
        let (parsed, used) = Request::parse(&wire).unwrap().unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(parsed.target, target);
        prop_assert_eq!(parsed.body, body);
    }

    #[test]
    fn http_response_parser_never_panics(input in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Response::parse(&input);
        let _ = Request::parse(&input);
    }

    #[test]
    fn install_bins_are_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(InstallBin::for_count(lo) <= InstallBin::for_count(hi));
        prop_assert!(InstallBin::for_count(a).lower_bound() <= a);
    }

    #[test]
    fn seed_fork_paths_are_stable_and_distinct(label in "[a-z]{1,12}", other in "[A-Z]{1,12}") {
        let root = SeedFork::new(99);
        prop_assert_eq!(root.fork(&label).seed(), root.fork(&label).seed());
        prop_assert_ne!(root.fork(&label).seed(), root.fork(&other).seed());
    }

    #[test]
    fn weighted_index_stays_in_bounds(weights in prop::collection::vec(0.0f64..10.0, 1..20), seed in any::<u64>()) {
        let mut rng = SeedFork::new(seed).rng();
        if let Some(i) = irng::weighted_index(&mut rng, &weights) {
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0);
        } else {
            prop_assert!(weights.iter().all(|w| *w <= 0.0));
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming scanner vs the tree-building reference parser.
//
// `JsonScanner` is an independent reimplementation of the grammar (it
// shares no lexer with `Json::parse`), so agreement here is meaningful:
// both parsers must accept the same documents, build the same trees,
// and reject the same garbage with the *same* error text and offset.
// ---------------------------------------------------------------------------

use iiscope::subsystems::monitor::parsers::{parse_wall, parse_wall_streaming, parse_wall_tree};
use iiscope::subsystems::wire::json::ParseError;
use iiscope::subsystems::wire::JsonScanner;

/// Parses one document with the streaming scanner, including the
/// trailing-garbage check (which fires on the event pull *after* the
/// document completes).
fn scan_parse(input: &str) -> Result<Json, ParseError> {
    let mut sc = JsonScanner::new(input);
    let value = sc.parse_value()?;
    match sc.next_event()? {
        None => Ok(value),
        Some(ev) => panic!("event {ev:?} after a complete document"),
    }
}

/// Longest prefix of `s` up to `idx` that ends on a char boundary.
fn truncate_at_char(s: &str, idx: &prop::sample::Index) -> usize {
    if s.is_empty() {
        return 0;
    }
    let mut cut = idx.index(s.len() + 1).min(s.len());
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    cut
}

/// A structurally valid Fyber-dialect wall page with fuzzed field
/// values (the schema reader must cope with any id/title/payout).
fn arb_fyber_wall() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (
            any::<i64>(),
            "[a-zA-Z \"\\\\]{0,12}",
            -1e6f64..1e6,
            "[a-z\\.]{1,15}",
        ),
        0..8,
    )
    .prop_map(|offers| {
        let arr: Vec<Json> = offers
            .into_iter()
            .map(|(id, title, payout, pkg)| {
                Json::obj([
                    ("offer_id", Json::Int(id)),
                    ("title", Json::str(title)),
                    ("payout_usd", Json::Float(payout)),
                    ("package", Json::str(pkg.clone())),
                    (
                        "play_url",
                        Json::str(format!("https://play.iiscope/store/apps/details?id={pkg}")),
                    ),
                ])
            })
            .collect();
        Json::obj([("ofw", Json::obj([("offers", Json::Array(arr))]))]).to_string()
    })
}

proptest! {
    /// Round-tripped documents: the scanner rebuilds exactly the tree
    /// the reference parser builds, compact or pretty.
    #[test]
    fn scanner_matches_reference_on_round_trips(value in arb_json()) {
        for text in [value.to_string(), value.pretty()] {
            let reference = Json::parse(&text).expect("reference parse");
            let streamed = scan_parse(&text).expect("scanner parse");
            prop_assert_eq!(&streamed, &reference, "{}", text);
        }
    }

    /// Adversarial input: on *any* string the two parsers agree on
    /// Ok-ness, agree on the value, and report bit-identical errors
    /// (message and byte offset) — and neither panics.
    #[test]
    fn scanner_matches_reference_on_arbitrary_input(input in "\\PC{0,200}") {
        prop_assert_eq!(scan_parse(&input), Json::parse(&input), "{:?}", input);
    }

    /// The depth cap is honored identically: deep-nested bodies are
    /// rejected cleanly by both parsers, shallow ones accepted by both.
    #[test]
    fn scanner_depth_cap_matches_reference(depth in 1usize..300) {
        let input = "[".repeat(depth) + &"]".repeat(depth);
        let reference = Json::parse(&input);
        prop_assert_eq!(&scan_parse(&input), &reference);
        if depth > iiscope::subsystems::wire::json::MAX_DEPTH + 1 {
            prop_assert!(reference.is_err(), "depth {depth} must trip the cap");
        }
        // Truncated deep nesting (all-open, no close) errors cleanly too.
        let open_only = "[".repeat(depth);
        prop_assert_eq!(scan_parse(&open_only), Json::parse(&open_only));
    }

    /// The schema-directed streaming wall parser against the tree
    /// reference, over valid pages, truncations of valid pages, and
    /// arbitrary garbage, for every IIP dialect:
    ///   * the public `parse_wall` (streaming + fallback) is
    ///     bit-identical to `parse_wall_tree` — values and error text;
    ///   * whenever the pure streaming path succeeds it matches the
    ///     tree result (the fallback never masks a divergence);
    ///   * nothing panics.
    #[test]
    fn wall_parsers_agree_everywhere(
        iip_idx in 0usize..IipId::ALL.len(),
        body in prop_oneof![
            arb_fyber_wall(),
            arb_json().prop_map(|v| v.to_string()),
            "\\PC{0,120}",
        ],
        cut in any::<prop::sample::Index>(),
    ) {
        let iip = IipId::ALL[iip_idx];
        let cut = truncate_at_char(&body, &cut);
        for s in [body.as_str(), &body[..cut]] {
            let fast = parse_wall(iip, s);
            let reference = parse_wall_tree(iip, s);
            match (&fast, &reference) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "{:?}", s),
                (Err(x), Err(y)) => {
                    prop_assert_eq!(x.to_string(), y.to_string(), "{:?}", s)
                }
                _ => prop_assert!(
                    false,
                    "fast path and reference disagree on Ok-ness for {s:?}: {fast:?} vs {reference:?}"
                ),
            }
            if let Ok(page) = parse_wall_streaming(iip, s) {
                let tree = reference.expect("streaming Ok implies tree Ok");
                prop_assert_eq!(page, tree, "{:?}", s);
            }
        }
    }
}

/// Structural equality that treats Int(n) and Float(n.0) as the same
/// number (the serializer may print either form for round floats).
fn json_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && json_eq(va, vb))
        }
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(va, vb)| json_eq(va, vb))
        }
        (x, y) => match (x.as_f64(), y.as_f64()) {
            (Some(fx), Some(fy)) => fx == fy,
            _ => x == y,
        },
    }
}

// ---------------------------------------------------------------------------
// CSV export: RFC-4180 round-trip through an independent parser.
// ---------------------------------------------------------------------------

/// Minimal RFC-4180 parser used only to *check* the exporter: handles
/// quoted fields, doubled quotes, and embedded commas/newlines/CRs.
fn parse_csv(input: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' => {} // exporter never emits bare CR outside quotes
                _ => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

use iiscope::subsystems::monitor::crawler::ProfileSnapshot;
use iiscope::subsystems::monitor::export::{charts_csv, offers_csv, profiles_csv};
use iiscope::subsystems::monitor::parsers::{RawOffer, RewardValue, ScrapedOffer};
use iiscope::subsystems::monitor::Dataset;
use iiscope::subsystems::playstore::engagement::{EngagementLedger, InstallSignals};
use iiscope::subsystems::types::{Country, IipId, SimTime};

proptest! {
    /// Every adversarial string placed in a CSV field must come back
    /// byte-identical through an independent RFC-4180 parser — commas,
    /// quotes, and embedded newlines included.
    #[test]
    fn csv_export_round_trips_adversarial_fields(
        description in "[a-zA-Z0-9 ,\"\n\r\\.\\-]{0,40}",
        affiliate in "[a-z\\.,\"]{1,20}",
        title in "[a-zA-Z ,\"]{1,30}",
    ) {
        let mut ds = Dataset::new();
        ds.add_offers([ScrapedOffer {
            iip: IipId::Fyber,
            raw: RawOffer {
                offer_key: 7,
                description: description.clone(),
                reward: RewardValue::Usd(0.5),
                package: "com.x.y".into(),
                store_url: "https://play.iiscope/x?id=com.x.y".into(),
            },
            seen_at: SimTime::from_days(2),
            affiliate: affiliate.clone(),
            vantage: Country::Us,
        }]);
        ds.add_profile(ProfileSnapshot {
            day: 2,
            package: "com.x.y".into(),
            title: title.clone(),
            genre_id: "TOOLS".into(),
            released_day: 1,
            min_installs: 10,
            developer_id: 1,
            developer_name: "dev".into(),
            developer_country: "US".into(),
            developer_email: "d@x".into(),
            developer_website: String::new(),
            rating: 4.25,
            rating_count: 12,
        });

        let offers = parse_csv(&offers_csv(&ds));
        prop_assert_eq!(offers.len(), 2, "header + 1 data row");
        prop_assert_eq!(offers[0].len(), offers[1].len(), "rectangular");
        prop_assert_eq!(offers[1][4].as_str(), affiliate.as_str());
        prop_assert_eq!(offers[1][6].as_str(), description.as_str());

        let profiles = parse_csv(&profiles_csv(&ds));
        prop_assert_eq!(profiles.len(), 2);
        prop_assert_eq!(profiles[0].len(), profiles[1].len());
        prop_assert_eq!(profiles[1][2].as_str(), title.as_str());
        prop_assert_eq!(profiles[1][10].as_str(), "4.2", "rating printed to 1 decimal");

        let charts = parse_csv(&charts_csv(&ds));
        prop_assert_eq!(charts.len(), 1, "header only — no chart snapshots added");
    }

    /// The ledger's accounting identity: gross = public + filtered, no
    /// matter how installs are recorded (per-event or bulk) or how many
    /// enforcement passes run.
    #[test]
    fn ledger_accounting_identity_holds(
        events in prop::collection::vec((0u64..30, any::<bool>(), any::<bool>()), 0..40),
        bulk in 0u64..1000,
        filter_n in 0u64..60,
    ) {
        let mut l = EngagementLedger::new();
        let mut emulators = 0u64;
        for (day, emulator, rooted) in &events {
            let mut s = InstallSignals::clean(0x0A0B0C00);
            s.emulator = *emulator;
            s.rooted = *rooted;
            if *emulator { emulators += 1; }
            l.record_install(SimTime::from_days(*day), s, "tag");
        }
        l.record_installs_bulk(SimTime::from_days(0), bulk);
        let gross = l.gross_installs();
        prop_assert_eq!(gross, events.len() as u64 + bulk);

        let removed = l.filter_installs(filter_n, |e| e.signals.emulator);
        prop_assert!(removed <= filter_n);
        prop_assert_eq!(removed, filter_n.min(emulators), "removes exactly min(n, matching)");
        prop_assert_eq!(l.gross_installs(), gross, "filtering never changes gross");
        prop_assert_eq!(l.public_installs() + l.filtered_installs(), gross);

        // A second identical pass finds only the leftovers.
        let second = l.filter_installs(filter_n, |e| e.signals.emulator);
        prop_assert_eq!(removed + second, (2 * filter_n).min(emulators));

        // The all-days trailing window agrees with the event count.
        let w = l.trailing(SimTime::from_days(100), 100);
        prop_assert_eq!(w.installs, gross, "day buckets count every install once");
    }

    /// Ratings clamp to 1..=5 stars, so the average always lies in
    /// [1, 5] and the count matches the number of recordings.
    #[test]
    fn rating_average_stays_in_star_range(stars in prop::collection::vec(0u8..=9, 1..50)) {
        let mut l = EngagementLedger::new();
        for s in &stars {
            l.record_rating(*s);
        }
        prop_assert_eq!(l.rating_count(), stars.len() as u64);
        let avg = l.average_rating().expect("ratings exist");
        prop_assert!((1.0..=5.0).contains(&avg), "average {avg} outside star range");
    }
}

use iiscope::subsystems::netsim::{DropReason, FaultPlan, GilbertElliott, OutageWindow, Verdict};
use iiscope::subsystems::types::{SimDuration, SimTime as ChaosTime};

proptest! {
    /// The Gilbert–Elliott constructor must clamp arbitrary rates into
    /// [0, 1] — a plan built from hostile inputs is always a valid
    /// probability model.
    #[test]
    fn gilbert_elliott_rates_always_clamp(
        p_enter in -3.0f64..4.0,
        p_exit in -3.0f64..4.0,
        loss_good in -3.0f64..4.0,
        loss_bad in -3.0f64..4.0,
    ) {
        let ge = GilbertElliott::new(p_enter, p_exit, loss_good, loss_bad);
        for rate in [ge.p_enter(), ge.p_exit(), ge.loss_good(), ge.loss_bad()] {
            prop_assert!((0.0..=1.0).contains(&rate), "rate {rate} escaped [0,1]");
        }
    }

    /// Inside a scheduled outage window *nothing* is delivered — no
    /// seed, payload size or competing fault knob may sneak one
    /// through.
    #[test]
    fn outage_windows_never_deliver(
        seed in any::<u64>(),
        offset_secs in 0u64..86_400,
        len in 0usize..64,
    ) {
        let from = ChaosTime::from_days(10);
        let until = ChaosTime::from_days(11);
        let mut plan = FaultPlan::lossy(0.3, 0.2)
            .with_stall(0.2)
            .with_outage(OutageWindow::new(from, until));
        let mut rng = SeedFork::new(seed).rng();
        let mut payload = bytes::BytesMut::new();
        payload.extend_from_slice(&vec![7u8; len]);
        let now = from + SimDuration::from_secs(offset_secs);
        prop_assert_eq!(
            plan.apply(&mut rng, now, &mut payload),
            Verdict::Dropped(DropReason::Outage)
        );
    }

    /// Determinism root: the same `(seed, plan)` must produce the same
    /// verdict sequence, whatever mix of fault features is armed.
    #[test]
    fn same_seed_and_plan_give_identical_verdicts(
        seed in any::<u64>(),
        drop_chance in 0.0f64..0.5,
        corrupt_chance in 0.0f64..0.5,
        stall_chance in 0.0f64..0.3,
    ) {
        let run = || -> Vec<Verdict> {
            let mut plan = FaultPlan::lossy(drop_chance, corrupt_chance)
                .with_stall(stall_chance)
                .with_burst(GilbertElliott::new(0.1, 0.3, 0.01, 0.5))
                .with_truncation(0.1)
                .with_garbage(0.05);
            let mut rng = SeedFork::new(seed).rng();
            (0..50u64)
                .map(|i| {
                    let mut payload = bytes::BytesMut::new();
                    payload.extend_from_slice(&[i as u8; 16]);
                    plan.apply(&mut rng, ChaosTime::from_secs(i), &mut payload)
                })
                .collect()
        };
        prop_assert_eq!(run(), run());
    }
}

// Symbol interner: round-trip, dedup, and stable first-insertion
// numbering — the invariants the seed-42 oracle leans on when the
// dataset joins on `Sym` instead of `String`.
proptest! {
    /// `resolve(intern(s)) == s` for every string in an arbitrary
    /// insertion multiset, and re-interning is the identity on `Sym`.
    #[test]
    fn interner_round_trips_and_dedups(
        strings in prop::collection::vec("[a-z0-9\\.]{0,24}", 0..64),
    ) {
        use iiscope::subsystems::types::Interner;
        let mut interner = Interner::new();
        let syms: Vec<_> = strings.iter().map(|s| interner.intern(s)).collect();
        for (s, &sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(sym), s.as_str());
            prop_assert_eq!(interner.intern(s), sym);
            prop_assert_eq!(interner.get(s), Some(sym));
        }
        // One symbol per distinct string, nothing more.
        let distinct: std::collections::BTreeSet<&str> =
            strings.iter().map(|s| s.as_str()).collect();
        prop_assert_eq!(interner.len(), distinct.len());
        // The slab holds exactly the distinct strings.
        prop_assert_eq!(
            interner.slab_bytes(),
            distinct.iter().map(|s| s.len()).sum::<usize>()
        );
    }

    /// Numbering is the first-insertion rank — a function of the
    /// first-occurrence sequence alone, never of capacity, duplicate
    /// pattern, or hash layout.
    #[test]
    fn interner_numbering_is_first_insertion_rank(
        strings in prop::collection::vec("[a-z]{0,12}", 0..64),
    ) {
        use iiscope::subsystems::types::Interner;
        let mut interner = Interner::new();
        for s in &strings {
            interner.intern(s);
        }
        // Expected numbering: order-preserving dedup of the input.
        let mut first_occurrence: Vec<&str> = Vec::new();
        for s in &strings {
            if !first_occurrence.contains(&s.as_str()) {
                first_occurrence.push(s);
            }
        }
        for (rank, s) in first_occurrence.iter().enumerate() {
            prop_assert_eq!(interner.get(s).map(|sym| sym.index()), Some(rank));
        }
        // Replaying only the first occurrences (no duplicates, and a
        // different starting capacity) reproduces the same table.
        let mut replay = Interner::with_capacity(first_occurrence.len(), 8);
        for s in &first_occurrence {
            replay.intern(s);
        }
        prop_assert_eq!(&interner, &replay);
        let via_iter: Vec<(u32, &str)> =
            interner.iter().map(|(sym, s)| (sym.0, s)).collect();
        let expected: Vec<(u32, &str)> = first_occurrence
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        prop_assert_eq!(via_iter, expected);
    }
}

// ---------------------------------------------------------------------------
// Snapshot frame codec (checkpointing): round-trips, corruption
// detection, decoding totality.

use iiscope::subsystems::types::frame::{read_all, FrameReader, FrameWriter};

/// Arbitrary record payloads for a frame file (including empty records
/// and an empty file).
fn arb_records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..12)
}

proptest! {
    /// Any sequence of payloads round-trips through the frame file
    /// byte-exactly, in order.
    #[test]
    fn frame_codec_round_trips(records in arb_records()) {
        let mut w = FrameWriter::new();
        for r in &records {
            w.record(r);
        }
        let bytes = w.finish();
        let back = read_all(&bytes).expect("clean file decodes");
        prop_assert_eq!(back.len(), records.len());
        for (got, want) in back.iter().zip(&records) {
            prop_assert_eq!(*got, want.as_slice());
        }
    }

    /// Flipping any single bit anywhere in a frame file is detected:
    /// decoding returns `Err`, never wrong data, never a panic.
    #[test]
    fn frame_codec_detects_any_single_bit_flip(
        records in arb_records(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut w = FrameWriter::new();
        for r in &records {
            w.record(r);
        }
        let mut bytes = w.finish();
        let at = pos.index(bytes.len());
        bytes[at] ^= 1 << bit;
        prop_assert!(
            read_all(&bytes).is_err(),
            "bit {bit} of byte {at} flipped undetected"
        );
    }

    /// Truncating a frame file at any point (torn write) is detected.
    #[test]
    fn frame_codec_detects_any_truncation(
        records in arb_records(),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut w = FrameWriter::new();
        for r in &records {
            w.record(r);
        }
        let bytes = w.finish();
        let at = cut.index(bytes.len()); // 0..len: always a strict prefix
        prop_assert!(read_all(&bytes[..at]).is_err(), "cut at {at} undetected");
    }

    /// Decoding adversarial garbage is total: every outcome is an
    /// orderly `Err` (or a valid decode), never a panic.
    #[test]
    fn frame_codec_decoding_is_total(input in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = read_all(&input);
        let mut reader = match FrameReader::new(&input) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        while let Ok(Some(_)) = reader.next_record() {}
    }
}
