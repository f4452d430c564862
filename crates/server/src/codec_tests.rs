//! The codec equivalence suite: the one-pass request scanner and the
//! response writer, differentially against the tree path they replaced.
//!
//! Three contracts, each with a hand-picked case table and a property:
//!
//! 1. **Tokens.** A number read by the scanner is the `f32` of
//!    `parse::<f64>() as f32`, bit for bit, and a token is accepted iff
//!    the tree path accepts it — over widened `f32`s, exact `f32`
//!    rounding midpoints ± a few `f64` ulps, over-long mantissas, big
//!    exponents, subnormals, overflow and malformed spellings.
//! 2. **Documents.** A body the scan accepts yields the rows and fields
//!    the tree path yields; a body it declines draws the tree path's
//!    error text (`parent_rows` below is the parent commit's validation,
//!    kept verbatim as the reference) — over shuffled and duplicate
//!    keys, whitespace, wrong shapes, truncation at every offset and
//!    non-UTF-8 bytes. Nothing panics.
//! 3. **Responses.** The written body equals `Json::dump()` of the tree
//!    the parent built.
//!
//! Integer fields are the one intended difference: they are read exactly
//! or refused (`integer_tokens_are_exact_or_not_integers`).
//!
//! CI runs this suite at its designed case counts in its own step — the
//! main pass's `PROPTEST_CASES=32` shrinks it.

use crate::http::Request;
use crate::json::{scan_body, Json};
use crate::routes::{read_body, rows_problem, search_body};
use ddc_core::Counters;
use ddc_index::SearchResult;
use ddc_vecs::Neighbor;
use proptest::prelude::*;

/// A small deterministic generator, so one proptest case can draw a few
/// hundred tokens from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A finite `f32` drawn uniformly over bit patterns (so over
    /// exponents), subnormals included.
    fn f32(&mut self) -> f32 {
        loop {
            let x = f32::from_bits(self.next() as u32);
            if x.is_finite() {
                return x;
            }
        }
    }
}

/// The parent's `Parser::number` span: how far the tree path's token
/// runs from `b[0]`.
fn parent_span(b: &[u8]) -> usize {
    let digits = |mut i: usize| {
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let mut i = usize::from(b.first() == Some(&b'-'));
    i = digits(i);
    if b.get(i) == Some(&b'.') {
        i = digits(i + 1);
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        i = digits(i);
    }
    i
}

/// What the parent made of `tok` as a vector component: dispatched to
/// `number` only from `-` or a digit, the token must be the whole
/// element, the standard library judges it, and it must narrow to a
/// finite `f32`.
fn parent_component(tok: &str) -> Option<u32> {
    let b = tok.as_bytes();
    if !matches!(b.first(), Some(b'-' | b'0'..=b'9')) || parent_span(b) != b.len() {
        return None;
    }
    let cast = tok.parse::<f64>().ok()? as f32;
    cast.is_finite().then_some(cast.to_bits())
}

/// What the scanner makes of `tok` as the one component of a row.
fn scanned_component(tok: &str) -> Option<u32> {
    let body = format!("{{\"v\":[{tok}]}}");
    scan_body(body.as_bytes(), "v", false, 1).map(|(flat, _)| flat[0].to_bits())
}

fn assert_token(tok: &str) {
    assert_eq!(
        scanned_component(tok),
        parent_component(tok),
        "token `{tok}`: scanner (left) vs parse::<f64>() as f32 (right)"
    );
}

#[test]
fn token_table_matches_the_reference() {
    for tok in [
        // zeros and signs
        "0",
        "-0",
        "0.0",
        "-0.0",
        "0e0",
        "-0e-5",
        "0e99999999999999999999",
        "1e-400",
        "-1e-400",
        // the f32 range ends
        "1e38",
        "1e39",
        "-1e40",
        "3.4028234e38",
        "3.4028235e38",
        "3.4028235677973366e38",
        "3.4028235677973367e38",
        "340282346638528859811704183484516925440",
        "340282356779733661637539395458142568448",
        "1.17549435e-38",
        "1.1754943e-38",
        "1.1754942e-38",
        "1e-45",
        "1.4e-45",
        "7e-46",
        "7.006492321624085e-46",
        "7.006492321624086e-46",
        // exponents at and past the exact powers of ten
        "1e22",
        "1e23",
        "1e-22",
        "1e-23",
        "123456789e14",
        "123456789e13",
        "0.000000000000000000001",
        "0.0000000000000000000001",
        "1E5",
        "1e+05",
        "1e-05",
        "1.e3",
        "-.5",
        "1.",
        // mantissas at and past 19 and 20 digits
        "9007199254740993",
        "1234567890123456789",
        "12345678901234567890",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "123456789012345678901234567890",
        "0.12345678901234567890123",
        "00000000000000000000001",
        "1.00000000000000000000",
        // 16777217 = 2^24 + 1 is an exact f32 midpoint
        "16777217",
        "16777217.0",
        "16777217.000000000",
        "16777216.99999999999",
        "16777217.00000000001",
        "1.6777217e7",
        "0.16777217e8",
        // 1 + 2^-24, another one, to 19 and 20 digits and one off
        "1.000000059604644775",
        "1.0000000596046447754",
        "1.000000059604644776",
        "1.000000059604644774",
        // not numbers, or not only a number
        "01",
        "1e",
        "1e+",
        "-",
        "-e5",
        ".",
        "-.",
        ".5",
        "+1",
        "1e5e5",
        "1.2.3",
        "1e+-5",
        "0x10",
        "1_000",
        "NaN",
        "nan",
        "inf",
        "Infinity",
        "-Infinity",
        "1f",
        "١",
        "",
    ] {
        assert_token(tok);
    }
    // Not a component at all, whatever the reference thinks of the text.
    for tok in ["null", "true", "\"1\"", "[1]", "{}", "1 2"] {
        assert_eq!(scanned_component(tok), None, "`{tok}`");
    }
}

/// Every decimal spelling this suite gives a value: shortest round-trip
/// and exponent notation of the `f64`, and of the `f32` when it is one.
fn spellings(x: f64, out: &mut Vec<String>) {
    out.push(format!("{x}"));
    out.push(format!("{x:e}"));
    out.push(format!("{x:E}"));
    let narrow = x as f32;
    if f64::from(narrow) == x {
        out.push(format!("{narrow}"));
        out.push(format!("{narrow:e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Widened `f32`s (what a client holding `f32`s sends) and values
    /// around them, in every spelling.
    #[test]
    fn widened_f32_tokens_match_the_reference(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut toks = Vec::new();
        for _ in 0..40 {
            let x = f64::from(rng.f32());
            spellings(x, &mut toks);
            // The same value to 19 and 20 significant digits.
            toks.push(format!("{x:.18e}"));
            toks.push(format!("{x:.19e}"));
        }
        for tok in &toks {
            prop_assert_eq!(scanned_component(tok), parent_component(tok), "token `{}`", tok);
        }
    }

    /// Exact `f32` rounding midpoints, ± 0–2 `f64` ulps, spelled with 17,
    /// 19 and 20 digits: where a twice-rounded fast path goes wrong
    /// unless it defers to the reference.
    #[test]
    fn midpoint_tokens_match_the_reference(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut toks = Vec::new();
        for _ in 0..24 {
            // Midpoint between a normal f32 and its successor: exact in
            // f64 (low 29 mantissa bits = 1 << 28).
            let a = rng.f32().abs().max(f32::MIN_POSITIVE);
            let mid = f64::from_bits(f64::from(a).to_bits() | 1 << 28);
            // Small magnitudes keep |exp10| within the fast path's reach
            // more often; the raw draw covers the rest.
            let scale = rng.pick(&[1.0, 1.0, 1e-3, 1e3, 1e-7, 1e9]);
            let mid = if rng.below(2) == 0 {
                mid
            } else {
                let b = (f64::from(a) * scale) as f32;
                f64::from_bits(f64::from(b.max(f32::MIN_POSITIVE)).to_bits() | 1 << 28)
            };
            for ulps in -2i64..=2 {
                let x = f64::from_bits(mid.to_bits().wrapping_add_signed(ulps));
                let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                spellings(sign * x, &mut toks);
                toks.push(format!("{x:.18e}"));
                toks.push(format!("{x:.19e}"));
                toks.push(format!("{x:.18}"));
            }
        }
        for tok in &toks {
            prop_assert_eq!(scanned_component(tok), parent_component(tok), "token `{}`", tok);
        }
    }

    /// Arbitrary digit strings: any length, any dot, any exponent, and
    /// the occasional malformed tail.
    #[test]
    fn arbitrary_decimal_tokens_match_the_reference(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for _ in 0..200 {
            let mut tok = String::new();
            if rng.below(3) == 0 {
                tok.push('-');
            }
            let longest = rng.pick(&[4, 18, 22, 30]);
            let digits = 1 + rng.below(longest);
            let dot = rng.below(digits + 3);
            for i in 0..digits {
                if i == dot {
                    tok.push('.');
                }
                let zeroish = rng.below(4) == 0;
                tok.push(if zeroish { '0' } else { (b'0' + rng.below(10) as u8) as char });
            }
            match rng.below(6) {
                0 => {}
                1 => tok.push_str(&format!("e{}", rng.below(60))),
                2 => tok.push_str(&format!("e-{}", rng.below(60))),
                3 => tok.push_str(&format!("E+{}", rng.below(25))),
                4 => tok.push_str(&format!("e-{}", 18 + rng.below(8))),
                _ => tok.push_str(rng.pick(&["e", "e+", ".", "e5.", "x", "e99999999999", "-1"])),
            }
            prop_assert_eq!(scanned_component(&tok), parent_component(&tok), "token `{}`", tok);
        }
    }

    /// Integers are exact: every `u64`, spelled plainly, with a zero
    /// fraction or with an exponent, parses to `Int` of that value, and
    /// agrees with `parse::<f64>` when widened.
    #[test]
    fn u64_tokens_parse_exactly(n in any::<u64>(), shift in 0u32..64, zeros in 0u32..5) {
        let n = n >> shift;
        prop_assert_eq!(Json::parse(&n.to_string()).unwrap(), Json::Int(n));
        // Digits are weighed as a u64 mantissa, fraction included.
        if n.checked_mul(10).is_some() {
            prop_assert_eq!(Json::parse(&format!("{n}.0")).unwrap(), Json::Int(n));
        }
        let pow = 10u64.pow(zeros);
        if let Some(scaled) = n.checked_mul(pow) {
            prop_assert_eq!(Json::parse(&format!("{n}e{zeros}")).unwrap(), Json::Int(scaled));
            if scaled.to_string().len() <= 20 {
                prop_assert_eq!(Json::parse(&format!("{scaled}e-{zeros}")).unwrap(), Json::Int(n));
            }
        }
        let widened = Json::Int(n).as_f64().unwrap();
        prop_assert_eq!(widened.to_bits(), n.to_string().parse::<f64>().unwrap().to_bits());
    }
}

#[test]
fn integer_tokens_are_exact_or_not_integers() {
    let int = |text: &str| Json::parse(text).unwrap().as_u64();
    // Through f64 these three read ...808, ...992 and u64::MAX.
    assert_eq!(int("9223372036854775809"), Some(9_223_372_036_854_775_809));
    assert_eq!(int("9007199254740993"), Some(9_007_199_254_740_993));
    assert_eq!(int("18446744073709551616"), None);
    assert_eq!(int("18446744073709551615"), Some(u64::MAX));
    assert_eq!(
        int("10000000000000000000"),
        Some(10_000_000_000_000_000_000)
    );
    assert_eq!(int("1e19"), Some(10_000_000_000_000_000_000));
    assert_eq!(int("1e20"), None);
    // An integer however it is spelled ...
    for (text, n) in [
        ("7", 7),
        ("7.0", 7),
        ("7.000", 7),
        ("7e0", 7),
        ("0.7e1", 7),
        ("70e-1", 7),
        ("7E2", 700),
        ("007", 7),
        ("0", 0),
        ("0.0", 0),
        ("0e-7", 0),
    ] {
        assert_eq!(int(text), Some(n), "`{text}`");
    }
    // ... and nothing else: f64 would have rounded each of these to one.
    for text in [
        "7.5",
        "7e-1",
        "-7",
        "-0",
        "1e-400",
        "1.0000000000000000001",
        "9007199254740992.5",
        "4503599627370496.5",
        "18446744073709551615.5",
    ] {
        assert_eq!(int(text), None, "`{text}`");
    }
    // Only the first 20 significant digits are weighed, so an integer
    // padded past them is refused, not misread.
    assert_eq!(int("7.00000000000000000000"), None);
    // A Num built in code is not an integer to either accessor.
    assert_eq!(Json::Num(10.0).as_usize(), None);
    assert_eq!(Json::Num(10.0).as_u64(), None);
    // Integers print as themselves.
    assert_eq!(
        Json::parse("18446744073709551615").unwrap().dump(),
        "18446744073709551615"
    );
}

// ---- documents ------------------------------------------------------------

/// The parent commit's `finite_query`, verbatim: validates one query
/// array into finite `f32`s of the engine's dimension.
fn parent_finite_query(arr: &[Json], dim: usize, label: &str) -> Result<Vec<f32>, String> {
    let mut out = Vec::with_capacity(arr.len());
    for (i, v) in arr.iter().enumerate() {
        let Some(x) = v.as_f64() else {
            return Err(format!("{label}[{i}] must be a number"));
        };
        let cast = x as f32;
        if !cast.is_finite() {
            return Err(format!(
                "{label}[{i}] ({x}) is not representable as a finite f32"
            ));
        }
        out.push(cast);
    }
    if out.len() != dim {
        return Err(format!(
            "{label} has {} dims but the engine serves {dim}-dimensional vectors",
            out.len()
        ));
    }
    Ok(out)
}

/// The parent commit's vector half of `parse_search` / `upsert`: the
/// body as a tree, then the rows, with its error texts.
fn parent_rows(body: &[u8], key: &str, nested: bool, dim: usize) -> Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let body = Json::parse(text).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    if !nested {
        let arr = body
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`{key}` must be an array of numbers"))?;
        rows.extend(parent_finite_query(arr, dim, key)?);
    } else {
        let queries = body
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`{key}` must be an array of number arrays"))?;
        for (qi, q) in queries.iter().enumerate() {
            let arr = q
                .as_arr()
                .ok_or_else(|| format!("{key}[{qi}] must be an array of numbers"))?;
            rows.extend(parent_finite_query(arr, dim, &format!("{key}[{qi}]"))?);
        }
    }
    Ok(rows)
}

/// The serving path's reading of the same body: rows, or the 400's text.
fn served_rows(body: &[u8], key: &str, nested: bool, dim: usize) -> Result<Vec<f32>, String> {
    served_rows_of(body.to_vec(), key, nested, dim)
}

fn served_rows_of(body: Vec<u8>, key: &str, nested: bool, dim: usize) -> Result<Vec<f32>, String> {
    let req = Request {
        method: "POST".into(),
        path: "/any".into(),
        headers: Vec::new(),
        body,
    };
    let error_of = |resp: crate::http::Response| {
        assert_eq!(resp.status, 400);
        let doc = Json::parse(&resp.body).unwrap();
        doc.get("error").and_then(Json::as_str).unwrap().to_string()
    };
    match read_body(&req, key, nested, dim) {
        Ok((Some(flat), _)) => Ok(flat),
        Ok((None, tree)) => Err(error_of(rows_problem(&tree, key, nested, dim))),
        Err(resp) => Err(error_of(resp)),
    }
}

fn bits(rows: Result<Vec<f32>, String>) -> Result<Vec<u32>, String> {
    rows.map(|r| r.iter().map(|x| x.to_bits()).collect())
}

/// Same verdict, same `f32` bits, same error text — and the other
/// members survive the scan as the tree has them.
fn assert_document(body: &[u8], key: &str, nested: bool, dim: usize) {
    let shown = String::from_utf8_lossy(body);
    let served = bits(served_rows(body, key, nested, dim));
    let parent = bits(parent_rows(body, key, nested, dim));
    assert_eq!(
        served, parent,
        "{key} (nested: {nested}, dim {dim}) of {shown}"
    );
    if let Some((_, rest)) = scan_body(body, key, nested, dim) {
        let tree = Json::parse(std::str::from_utf8(body).unwrap()).unwrap();
        for field in [
            "k", "ef", "nprobe", "id", "filter", "metric", "explain", "junk",
        ] {
            assert_eq!(rest.get(field), tree.get(field), "`{field}` of {shown}");
        }
    }
}

#[test]
fn document_table_matches_the_reference() {
    let q4 = "[0.25, -1e-3, 3, 4.5e1]";
    for (body, key, nested, dim) in [
        // the plain shapes
        (format!(r#"{{"query": {q4}, "k": 3}}"#), "query", false, 4),
        (format!(r#"{{"k":3,"query":{q4}}}"#), "query", false, 4),
        (
            format!(r#"{{"queries": [{q4}, {q4}], "k": 3}}"#),
            "queries",
            true,
            4,
        ),
        (
            format!(r#"{{"id": 7, "vector": {q4}}}"#),
            "vector",
            false,
            4,
        ),
        (
            format!(" \t\r\n{{ \"query\" \n: {q4} \n, \"k\" : 3 }} \n"),
            "query",
            false,
            4,
        ),
        (r#"{"query":[ 1 , 2 ]}"#.into(), "query", false, 2),
        // duplicates: the first wins, whichever is broken
        (
            format!(r#"{{"query": {q4}, "query": "x"}}"#),
            "query",
            false,
            4,
        ),
        (
            format!(r#"{{"query": "x", "query": {q4}}}"#),
            "query",
            false,
            4,
        ),
        (
            format!(r#"{{"query": {q4}, "query": [1e39]}}"#),
            "query",
            false,
            4,
        ),
        (
            format!(r#"{{"query": [1], "query": {q4}}}"#),
            "query",
            false,
            4,
        ),
        (
            format!(r#"{{"k": 1, "query": {q4}, "k": "x"}}"#),
            "query",
            false,
            4,
        ),
        // the wrong shape for the endpoint
        (format!(r#"{{"query": [{q4}]}}"#), "query", false, 4),
        (format!(r#"{{"queries": {q4}}}"#), "queries", true, 4),
        (format!(r#"{{"queries": [{q4}, 5]}}"#), "queries", true, 4),
        (
            format!(r#"{{"queries": [{q4}, null, "x"]}}"#),
            "queries",
            true,
            4,
        ),
        (r#"{"query": {"0": 1}}"#.into(), "query", false, 1),
        (r#"{"query": 5}"#.into(), "query", false, 1),
        (r#"{"query": null}"#.into(), "query", false, 1),
        (r#"{"vector": "[1]"}"#.into(), "vector", false, 1),
        // empty and missing
        ("{}".into(), "query", false, 4),
        (r#"{"k": 3}"#.into(), "queries", true, 4),
        (r#"{"query": []}"#.into(), "query", false, 4),
        (r#"{"queries": []}"#.into(), "queries", true, 4),
        (r#"{"queries": [[]]}"#.into(), "queries", true, 4),
        (r#"{"queries": [ ]  }"#.into(), "queries", true, 4),
        // dimensions
        (r#"{"query": [1, 2]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3, 4, 5]}"#.into(), "query", false, 4),
        (
            format!(r#"{{"queries": [{q4}, [1, 2, 3]]}}"#),
            "queries",
            true,
            4,
        ),
        (
            format!(r#"{{"queries": [[1, 2, 3, 4, 5], {q4}]}}"#),
            "queries",
            true,
            4,
        ),
        // components: the messages http_e2e.rs pins
        (
            r#"{"query": [0.25, 0.25, 0.25, 1e39]}"#.into(),
            "query",
            false,
            4,
        ),
        (
            r#"{"query": [0.25, 0.25, 0.25, -1e40]}"#.into(),
            "query",
            false,
            4,
        ),
        (
            r#"{"query": [0.25, "oops", 0.25, 1e39]}"#.into(),
            "query",
            false,
            4,
        ),
        (r#"{"query": [0.25, null, 0.25]}"#.into(), "query", false, 4),
        (r#"{"query": [1e39, 2]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3, 4, "x"]}"#.into(), "query", false, 4),
        (
            format!(r#"{{"queries": [{q4}, [0.5, 0.5, 1e39, 0.5]]}}"#),
            "queries",
            true,
            4,
        ),
        (r#"{"query": [1, 2, 3, 4e]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3, .5]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3, 01]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3, 4.]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3, -]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3, 1.2.3]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3, 4,]}"#.into(), "query", false, 4),
        (r#"{"query": [1, 2, 3 4]}"#.into(), "query", false, 4),
        (r#"{"query": [,1, 2, 3, 4]}"#.into(), "query", false, 4),
        // not an object, not one document
        ("[1, 2, 3, 4]".into(), "query", false, 4),
        ("null".into(), "query", false, 4),
        ("".into(), "query", false, 4),
        ("   ".into(), "query", false, 4),
        ("not json".into(), "query", false, 4),
        (format!(r#"{{"query": {q4}}} {{}}"#), "query", false, 4),
        (format!(r#"{{"query": {q4}}}x"#), "query", false, 4),
        (format!(r#"{{"query": {q4},}}"#), "query", false, 4),
        (format!(r#"{{"query" {q4}}}"#), "query", false, 4),
        (format!(r#"{{query: {q4}}}"#), "query", false, 4),
        (
            format!(r#"{{"query": {q4}, "junk": tru}}"#),
            "query",
            false,
            4,
        ),
        (
            format!(r#"{{"query": {q4}, "junk": "\ud800"}}"#),
            "query",
            false,
            4,
        ),
        (
            format!(r#"{{"query": {q4}, "junk": "😀\n"}}"#),
            "query",
            false,
            4,
        ),
        (
            format!("{{\"query\": {q4}, \"junk\": \"a\u{1}b\"}}"),
            "query",
            false,
            4,
        ),
    ] {
        assert_document(body.as_bytes(), key, nested, dim);
    }
}

#[test]
fn depth_limit_holds_on_both_paths() {
    for depth in [10, 63, 64, 65, 200] {
        let junk = "[".repeat(depth) + &"]".repeat(depth);
        let body = format!(r#"{{"junk": {junk}, "query": [1, 2]}}"#);
        assert_document(body.as_bytes(), "query", false, 2);
        let body = format!(r#"{{"query": {junk}}}"#);
        assert_document(body.as_bytes(), "query", false, 2);
        let body = format!(r#"{{"queries": [{junk}]}}"#);
        assert_document(body.as_bytes(), "queries", true, 2);
    }
}

#[test]
fn truncation_at_every_offset_matches_the_reference() {
    let body = r#" {"junk": {"a": [true, null, "é\n😀"]}, "queries": [[0.5, -2e-3, 16777217], [1, 2.50, 3E0]], "k": 10, "filter": {"range": [1, 18446744073709551615]}} "#;
    for cut in 0..=body.len() {
        assert_document(&body.as_bytes()[..cut], "queries", true, 3);
    }
}

#[test]
fn non_utf8_bytes_match_the_reference() {
    let body = r#"{"junk": "héllo €", "query": [0.5, 1.5], "metric": "l2"}"#.as_bytes();
    for at in 0..body.len() {
        for bad in [0xFFu8, 0x80, 0xC3, 0xE2, 0xF0, 0xED, 0x00] {
            let mut broken = body.to_vec();
            broken[at] = bad;
            assert_document(&broken, "query", false, 2);
            // Inserted rather than substituted: may split a scalar.
            broken[at] = body[at];
            broken.insert(at, bad);
            assert_document(&broken, "query", false, 2);
        }
    }
}

#[test]
fn megabytes_of_digits_do_not_panic() {
    // 32 MB of mantissa in a component, in an integer field and in an
    // exponent: linear work, the reference's verdict, no panic.
    let digits = "7".repeat(32 << 20);
    let body = format!(r#"{{"query": [1, {digits}]}}"#);
    let err = served_rows_of(body.into_bytes(), "query", false, 2).unwrap_err();
    assert!(
        err.starts_with("query[1] (") && err.contains("finite"),
        "{}",
        &err[..40]
    );
    let body = format!(r#"{{"query": [1, 0.{digits}], "k": {digits}}}"#);
    let (flat, rest) = scan_body(body.as_bytes(), "query", false, 2).unwrap();
    assert_eq!(flat[1].to_bits(), ((7.0f64 / 9.0) as f32).to_bits());
    assert_eq!(rest.get("k").unwrap().as_u64(), None);
    let body = format!(r#"{{"query": [1, 1e-{digits}]}}"#);
    assert_eq!(
        served_rows_of(body.into_bytes(), "query", false, 2),
        Ok(vec![1.0, 0.0])
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random documents: shuffled members, duplicates, odd whitespace,
    /// either endpoint's shape given to either, rows of any length with
    /// the occasional bad component.
    #[test]
    fn arbitrary_documents_match_the_reference(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let dim = 1 + rng.below(5) as usize;
        let ws = |rng: &mut Rng| rng.pick(&["", "", " ", "\n", " \t", "\r\n  "]);
        let row = |rng: &mut Rng| {
            let len = match rng.below(8) {
                0 => rng.below(8) as usize,
                _ => dim,
            };
            let items: Vec<String> = (0..len)
                .map(|_| match rng.below(40) {
                    0 => "null".to_string(),
                    1 => "\"1\"".to_string(),
                    2 => "1e39".to_string(),
                    3 => "[1]".to_string(),
                    4 => "-0".to_string(),
                    5 => "1e".to_string(),
                    6 => format!("{}", rng.next()),
                    7 => format!("{:e}", f64::from(rng.f32())),
                    _ => format!("{}", f64::from(rng.f32())),
                })
                .collect();
            format!("[{}{}{}]", ws(rng), items.join(&format!("{},{}", ws(rng), ws(rng))), ws(rng))
        };
        let rows = |rng: &mut Rng| {
            let n = rng.below(4);
            let items: Vec<String> = (0..n).map(|_| row(rng)).collect();
            format!("[{}]", items.join(", "))
        };
        let (key, nested) = rng.pick(&[("query", false), ("queries", true), ("vector", false)]);
        let mut members = Vec::new();
        for _ in 0..rng.below(3) {
            // Mostly the right shape, sometimes the other endpoint's.
            let value = match (rng.below(6), nested) {
                (0, _) => "7".to_string(),
                (1, true) | (2..=5, false) => row(&mut rng),
                _ => rows(&mut rng),
            };
            members.push(format!("\"{key}\"{}:{}{value}", ws(&mut rng), ws(&mut rng)));
        }
        for _ in 0..rng.below(4) {
            members.push(rng.pick(&[
                r#""k": 10"#,
                r#""k": 18446744073709551616"#,
                r#""ef": 1e2"#,
                r#""id": 4294967296"#,
                r#""filter": {"any_bit": 9223372036854775809}"#,
                r#""filter": {"range": [0, 1.5]}"#,
                r#""explain": true"#,
                r#""metric": "cosine""#,
                r#""junk": [{"a": [null, 1.5e300, "é"]}, -0.0]"#,
                r#""junk": 1."#,
            ]).to_string());
        }
        // Fisher–Yates over the members.
        for i in (1..members.len()).rev() {
            members.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let body = format!("{}{{{}{}}}{}", ws(&mut rng), members.join(","), ws(&mut rng), ws(&mut rng));
        assert_document(body.as_bytes(), key, nested, dim);
    }

    /// The written body is the parent's tree, dumped — hits flat and
    /// under `results`, with and without a trace, including the
    /// non-finite distances the tree prints as `null`.
    #[test]
    fn written_bodies_equal_the_dumped_tree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let n = 1 + rng.below(4) as usize;
        let results: Vec<SearchResult> = (0..n)
            .map(|_| SearchResult {
                neighbors: (0..rng.below(12))
                    .map(|_| Neighbor {
                        id: rng.next() as u32 >> rng.below(32),
                        dist: match rng.below(10) {
                            0 => f32::from_bits(rng.next() as u32), // NaN / inf included
                            1 => 0.0,
                            _ => rng.f32(),
                        },
                    })
                    .collect(),
                counters: Counters {
                    candidates: rng.next() >> 11,
                    pruned: rng.next() >> (11 + rng.below(53)),
                    exact: rng.below(1000),
                    dims_scanned: rng.next() >> 11,
                    dims_full: (1 << 53) - 1,
                },
                elapsed_nanos: rng.next(),
            })
            .collect();
        let (epoch, k) = (rng.next() >> 11, rng.below(500) as usize);
        let trace = Json::obj([
            ("epoch", Json::from(epoch)),
            ("stage_nanos", Json::obj([("parse", Json::from(rng.below(1 << 40)))])),
            ("pruned_rate", Json::Num(rng.below(1000) as f64 / 999.0)),
            ("scan_rate", Json::Num(f64::NAN)),
        ]);
        for batch_shape in [false, true] {
            for trace in [None, Some(&trace)] {
                let written = search_body(epoch, k, &results, batch_shape, trace);
                let tree = parent_search_tree(epoch, k, &results, batch_shape, trace);
                prop_assert_eq!(&written, &tree.dump());
                // And it is a document the repo's own clients can read back.
                prop_assert!(Json::parse(&written).is_ok());
            }
        }
    }
}

/// The parent commit's response tree: `hit_json` and `counters_json` as
/// they were, every integer a `Num` the way `Json::from` built them.
fn parent_search_tree(
    epoch: u64,
    k: usize,
    results: &[SearchResult],
    batch_shape: bool,
    trace: Option<&Json>,
) -> Json {
    let num = |x: u64| Json::Num(x as f64);
    let hit_json = |r: &SearchResult| -> Vec<(String, Json)> {
        let c = &r.counters;
        vec![
            (
                "ids".to_string(),
                Json::Arr(
                    r.ids()
                        .into_iter()
                        .map(|id| Json::Num(f64::from(id)))
                        .collect(),
                ),
            ),
            (
                "distances".to_string(),
                Json::Arr(
                    r.neighbors
                        .iter()
                        .map(|n| Json::Num(f64::from(n.dist)))
                        .collect(),
                ),
            ),
            (
                "counters".to_string(),
                Json::obj([
                    ("candidates", num(c.candidates)),
                    ("pruned", num(c.pruned)),
                    ("exact", num(c.exact)),
                    ("dims_scanned", num(c.dims_scanned)),
                    ("dims_full", num(c.dims_full)),
                ]),
            ),
        ]
    };
    let mut pairs = vec![
        ("epoch".to_string(), num(epoch)),
        ("k".to_string(), num(k as u64)),
    ];
    let mut hits = results.iter().map(hit_json);
    if batch_shape {
        pairs.push((
            "results".to_string(),
            Json::Arr(hits.map(Json::Obj).collect()),
        ));
    } else {
        pairs.extend(hits.next().expect("one result per submitted query"));
    }
    if let Some(trace) = trace {
        pairs.push(("trace".to_string(), trace.clone()));
    }
    Json::Obj(pairs)
}
