//! The point-per-line text encoding.
//!
//! Points travel through the DFS exactly as the paper stores them in
//! HDFS: one point per line, coordinates as space-separated decimal
//! strings. §3.2 sizes reducer memory assuming "the value of a point in
//! each dimension is stored as a string of approximatively 15
//! characters (the number of significant decimal digits of IEEE 754
//! double-precision floating-point format)"; the formatter below emits
//! full round-trip precision, which lands in the same regime.

use gmr_mapreduce::{Error, Result};

/// Formats a point as a space-separated coordinate line.
///
/// Uses the shortest representation that round-trips through `f64`
/// parsing, so `parse_point(&format_point(p)) == p` bit-for-bit for
/// finite coordinates.
pub fn format_point(coords: &[f64]) -> String {
    let mut s = String::with_capacity(coords.len() * 16);
    for (i, c) in coords.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        // `{}` on f64 is the shortest round-trip representation.
        s.push_str(&format!("{c}"));
    }
    s
}

/// Digit budget of the fast path: 19 decimal digits never overflow a
/// `u64`.
const MAX_FAST_DIGITS: usize = 19;

/// Largest mantissa of the fast path: every integer up to `2^53` is an
/// exact double.
const MAX_EXACT_MANTISSA: u64 = 1 << 53;

/// `10^f` for every fraction length of the fast path, all exact doubles
/// (every power of ten up to `10^22` is).
const POW10: [f64; MAX_FAST_DIGITS + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

/// Parses a space-separated coordinate line into a point.
///
/// Fails on empty lines, non-numeric tokens, and non-finite values
/// (NaN/inf never describe a valid data point and would poison every
/// distance computation downstream).
///
/// Tokens are separated exactly as [`str::split_whitespace`] separates
/// them and each is valued exactly as `str::parse::<f64>` values it,
/// down to the error text; the parse is one byte-level pass (DESIGN.md
/// §20). A token of the form
/// `-?digits[.[digits]]` with at most 19 digits whose digit string `m` is
/// at most `2^53` is valued as `m / 10^f` (`f` fraction digits): both
/// operands are exact doubles and IEEE division rounds correctly, so the
/// quotient is the correctly rounded value of the decimal (Clinger's
/// fast path). Every other token goes to `str::parse`, and a line with a
/// non-ASCII byte (which may hold Unicode whitespace) to
/// `split_whitespace`.
pub fn parse_point(line: &str) -> Result<Vec<f64>> {
    parse_into(line, Vec::new())
}

/// Parses a point and checks it has the expected dimensionality.
pub fn parse_point_dim(line: &str, dim: usize) -> Result<Vec<f64>> {
    let p = parse_into(line, Vec::with_capacity(dim))?;
    if p.len() != dim {
        return Err(Error::Corrupt(format!(
            "point has {} coordinates, expected {dim}",
            p.len()
        )));
    }
    Ok(p)
}

/// Appends the coordinates of `line` to `coords` (see [`parse_point`]).
fn parse_into(line: &str, mut coords: Vec<f64>) -> Result<Vec<f64>> {
    let bytes = line.as_bytes();
    let mut i = 0;
    'tokens: loop {
        while i < bytes.len() && is_separator(bytes[i]) {
            i += 1;
        }
        if i == bytes.len() {
            break;
        }
        let start = i;
        if let Some(v) = fast_decimal(bytes, &mut i) {
            coords.push(v);
            continue;
        }
        while i < bytes.len() && !is_separator(bytes[i]) {
            if !bytes[i].is_ascii() {
                // Unicode whitespace may separate tokens from here on.
                // Everything before `start` is ASCII and ends in a
                // separator, so its tokens are split_whitespace's too.
                for tok in line[start..].split_whitespace() {
                    coords.push(parse_token(tok)?);
                }
                break 'tokens;
            }
            i += 1;
        }
        coords.push(parse_token(&line[start..i])?);
    }
    if coords.is_empty() {
        return Err(Error::Corrupt("empty point line".into()));
    }
    Ok(coords)
}

/// The ASCII bytes `split_whitespace` separates on: space and
/// `\t`..=`\r`, which includes the vertical tab `\x0B` that
/// `u8::is_ascii_whitespace` leaves out.
#[inline]
fn is_separator(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Values the token starting at `bytes[*i]` if it is a fast-path decimal
/// (see [`parse_point`]), leaving `*i` at its end. Otherwise returns
/// `None` with `*i` somewhere inside the token.
#[inline]
fn fast_decimal(bytes: &[u8], i: &mut usize) -> Option<f64> {
    let negative = bytes[*i] == b'-';
    let int_start = *i + usize::from(negative);
    let mut mantissa = 0u64;
    let mut end = digits(bytes, int_start, &mut mantissa);
    let int_digits = end - int_start;
    let mut frac_digits = 0;
    if int_digits > 0 && bytes.get(end) == Some(&b'.') {
        let frac_start = end + 1;
        end = digits(bytes, frac_start, &mut mantissa);
        frac_digits = end - frac_start;
    }
    *i = end;
    let exact = int_digits > 0
        && int_digits + frac_digits <= MAX_FAST_DIGITS
        && mantissa <= MAX_EXACT_MANTISSA
        && bytes.get(end).map_or(true, |&b| is_separator(b));
    if !exact {
        return None;
    }
    let v = mantissa as f64 / POW10[frac_digits];
    Some(if negative { -v } else { v })
}

/// Folds the run of ASCII digits starting at `bytes[start]` into
/// `mantissa` (wrapping; the caller bounds the digit count) and returns
/// the index just past it.
#[inline]
fn digits(bytes: &[u8], start: usize, mantissa: &mut u64) -> usize {
    let mut j = start;
    // Eight digits at a time while a whole word of them follows: a
    // digit is a byte 0x30..=0x39, i.e. high nibble 3 before and after
    // adding 6. The three multiplies then fold adjacent digit pairs,
    // pairs of pairs and the two halves into one value below 10^8.
    while let Some(word) = bytes.get(j..j + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        const HIGH: u64 = 0xF0F0_F0F0_F0F0_F0F0;
        if (w & HIGH) | ((w.wrapping_add(0x0606_0606_0606_0606) & HIGH) >> 4)
            != 0x3333_3333_3333_3333
        {
            break;
        }
        let d = w - 0x3030_3030_3030_3030;
        let d = d.wrapping_mul(10).wrapping_add(d >> 8);
        const LOW: u64 = 0x0000_00FF_0000_00FF;
        let eight = ((d & LOW).wrapping_mul(100 + (1_000_000 << 32))
            + ((d >> 16) & LOW).wrapping_mul(1 + (10_000 << 32)))
            >> 32;
        *mantissa = mantissa.wrapping_mul(100_000_000).wrapping_add(eight);
        j += 8;
    }
    while let Some(&b) = bytes.get(j) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(d));
        j += 1;
    }
    j
}

/// Values one token with `str::parse::<f64>`, rejecting non-finite
/// values.
fn parse_token(tok: &str) -> Result<f64> {
    let v: f64 = tok
        .parse()
        .map_err(|e| Error::Corrupt(format!("bad coordinate {tok:?}: {e}")))?;
    if !v.is_finite() {
        return Err(Error::Corrupt(format!("non-finite coordinate {tok:?}")));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use rand::{Rng, RngCore};

    #[test]
    fn format_then_parse_round_trips() {
        let p = vec![1.5, -2.25, 0.0, 1e-300, 12345.6789];
        assert_eq!(parse_point(&format_point(&p)).unwrap(), p);
    }

    #[test]
    fn parse_handles_extra_whitespace() {
        assert_eq!(
            parse_point("  1.0   2.0\t3.0 ").unwrap(),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_point("").is_err());
        assert!(parse_point("   ").is_err());
        assert!(parse_point("1.0 abc").is_err());
        assert!(parse_point("NaN 1.0").is_err());
        assert!(parse_point("inf").is_err());
    }

    #[test]
    fn parse_point_dim_checks_dimension() {
        assert!(parse_point_dim("1 2 3", 3).is_ok());
        assert!(parse_point_dim("1 2 3", 2).is_err());
    }

    #[test]
    fn fast_path_edges_match_std() {
        for line in [
            "-0",
            "-0.000",
            "1.",
            "-1.",
            ".5",
            "-.5",
            "-",
            ".",
            "1..2",
            "1.2.3",
            "--1",
            "+1",
            "1e5",
            "9007199254740992",
            "9007199254740993",
            "0.9007199254740993",
            "-900719925474099.2",
            "0000000000000000001",
            "00000000000000000001",
            "1234567890123456789",
            "12345678901234567890",
            "1\x0B2",
            "1\x1C2",
            "1\u{A0}2",
            "1\u{85}2 3",
            "é 1",
        ] {
            assert_same(line);
        }
    }

    /// The parse every fast path must reproduce: `split_whitespace`,
    /// `str::parse::<f64>` and the finite check.
    fn reference(line: &str) -> Result<Vec<f64>> {
        let mut coords = Vec::new();
        for tok in line.split_whitespace() {
            let v: f64 = tok
                .parse()
                .map_err(|e| Error::Corrupt(format!("bad coordinate {tok:?}: {e}")))?;
            if !v.is_finite() {
                return Err(Error::Corrupt(format!("non-finite coordinate {tok:?}")));
            }
            coords.push(v);
        }
        if coords.is_empty() {
            return Err(Error::Corrupt("empty point line".into()));
        }
        Ok(coords)
    }

    fn bits(r: Result<Vec<f64>>) -> Result<Vec<u64>> {
        r.map(|p| p.iter().map(|c| c.to_bits()).collect())
    }

    /// `parse_point` and `parse_point_dim` agree with [`reference`] bit
    /// for bit and error for error.
    fn assert_same(line: &str) {
        let want = reference(line);
        assert_eq!(bits(parse_point(line)), bits(want.clone()), "line {line:?}");
        let dim = want.as_ref().map_or(3, Vec::len);
        for d in [dim, dim + 1] {
            let want_dim = want.clone().and_then(|p| {
                if p.len() == d {
                    Ok(p)
                } else {
                    Err(Error::Corrupt(format!(
                        "point has {} coordinates, expected {d}",
                        p.len()
                    )))
                }
            });
            assert_eq!(bits(parse_point_dim(line, d)), bits(want_dim), "{line:?}");
        }
    }

    /// Runs `cases` differential checks on lines drawn by `line`.
    fn differential(name: &str, cases: u32, mut line: impl FnMut(&mut TestRng) -> String) {
        let mut rng = proptest::test_rng(name);
        for _ in 0..cases {
            assert_same(&line(&mut rng));
        }
    }

    fn finite(rng: &mut TestRng) -> f64 {
        loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                return v;
            }
        }
    }

    /// Cases per differential generator; the four together run over a
    /// million lines.
    const DIFFERENTIAL_CASES: u32 = 260_000;

    #[test]
    fn differential_formatted_points() {
        differential("formatted", DIFFERENTIAL_CASES, |rng| {
            let dim = rng.random_range(1..8usize);
            let p: Vec<f64> = (0..dim)
                .map(|_| {
                    if rng.random_bool(0.5) {
                        finite(rng)
                    } else {
                        // Data-shaped values on both sides of the fast
                        // path's 2^53 mantissa bound.
                        (rng.random::<f64>() - 0.5) * 10f64.powi(rng.random_range(-3..7i32))
                    }
                })
                .collect();
            format_point(&p)
        });
    }

    #[test]
    fn differential_exponent_forms() {
        differential("exponent", DIFFERENTIAL_CASES, |rng| {
            let v = f64::from_bits(rng.next_u64());
            match rng.random_range(0..3u8) {
                0 => format!("{v:e}"),
                1 => format!("{v:E} {}", finite(rng)),
                _ => format!("{:e}", (rng.random::<f64>() - 0.5) * 1e4),
            }
        });
    }

    #[test]
    fn differential_random_decimals() {
        differential("decimals", DIFFERENTIAL_CASES, |rng| {
            let mut s: Vec<u8> = if rng.random_bool(0.25) {
                // Mantissas next to 2^53.
                let m = (1u64 << 53) as i64 + rng.random_range(-999..1000i64);
                m.to_string().into_bytes()
            } else {
                let n = rng.random_range(1..23usize);
                (0..n).map(|_| b'0' + rng.random_range(0..10u8)).collect()
            };
            for mark in [b'.', b'-'] {
                match rng.random_range(0..4u8) {
                    0 => {}
                    1 if mark == b'-' => s.insert(0, mark),
                    _ => {
                        let at = rng.random_range(0..s.len() + 1);
                        s.insert(at, mark);
                    }
                }
            }
            String::from_utf8(s).unwrap()
        });
    }

    #[test]
    fn differential_adversarial_lines() {
        const ALPHABET: &[char] = &[
            '0', '1', '5', '9', '.', '-', '+', 'e', 'E', ' ', '\t', '\x0B', '\x0C', '\r', '\n',
            '\x1C', '\u{A0}', '\u{85}', '\u{2003}', 'n', 'a', 'i', 'f', 'N', 'I', '_', 'x',
        ];
        differential("adversarial", DIFFERENTIAL_CASES, |rng| {
            let len = rng.random_range(0..24usize);
            (0..len)
                .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
                .collect()
        });
    }

    proptest! {
        #[test]
        fn round_trip_is_exact(
            p in proptest::collection::vec(-1e15..1e15f64, 1..12),
        ) {
            let parsed = parse_point(&format_point(&p)).unwrap();
            prop_assert_eq!(parsed, p);
        }
    }
}
