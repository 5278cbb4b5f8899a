//! Escaping and unescaping of XML character data.

use std::borrow::Cow;

/// Escapes text content: `&`, `<`, `>`.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape::<false>(s)
}

/// Escapes attribute values: `&`, `<`, `>`, `"`, `'`.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape::<true>(s)
}

/// Whether `b` must be escaped: `&`, `<`, `>`, and in attribute values
/// also `"` and `'`.
fn is_special<const ATTR: bool>(b: u8) -> bool {
    matches!(b, b'&' | b'<' | b'>') || (ATTR && matches!(b, b'"' | b'\''))
}

/// Scans `bytes` from `from` for the first byte `stop` accepts and
/// returns its position (`bytes.len()` if there is none), and whether a
/// byte before it was one `note` accepts. Every byte either accepts is
/// ASCII, so a position found is always a UTF-8 boundary.
///
/// Whole 64-byte blocks are folded with a branch-free `|` into one `u8`
/// per predicate, which the compiler turns into vector compares; only
/// the block that holds the stop byte, and the tail shorter than a
/// block, are read byte by byte. Keep the two folds apart: folding both
/// into one `u8` of bit flags compiled to a byte loop that read ~20x
/// slower (release, x86-64 with SSE2).
#[inline(always)]
fn scan(
    bytes: &[u8],
    from: usize,
    stop: impl Fn(u8) -> bool,
    note: impl Fn(u8) -> bool,
) -> (usize, bool) {
    const BLOCK: usize = 64;
    let mut noted = false;
    let mut at = from;
    for block in bytes[from..].chunks_exact(BLOCK) {
        let (mut hit, mut seen) = (0u8, 0u8);
        for &b in block {
            hit |= u8::from(stop(b));
            seen |= u8::from(note(b));
        }
        if hit != 0 {
            break;
        }
        noted |= seen != 0;
        at += BLOCK;
    }
    for (j, &b) in bytes[at..].iter().enumerate() {
        if stop(b) {
            return (at + j, noted);
        }
        noted |= note(b);
    }
    (bytes.len(), noted)
}

/// Finds the first byte at or after `from` that needs escaping.
fn find_special<const ATTR: bool>(bytes: &[u8], from: usize) -> Option<usize> {
    let (at, _) = scan(bytes, from, is_special::<ATTR>, |_| false);
    (at < bytes.len()).then_some(at)
}

/// The end of the character data that starts at `from` (the next `<`, or
/// the end of `bytes`) and whether it holds an `&`, in one scan.
pub(crate) fn text_run(bytes: &[u8], from: usize) -> (usize, bool) {
    scan(bytes, from, |b| b == b'<', |b| b == b'&')
}

fn escape<const ATTR: bool>(s: &str) -> Cow<'_, str> {
    let bytes = s.as_bytes();
    let Some(first) = find_special::<ATTR>(bytes, 0) else {
        return Cow::Borrowed(s);
    };
    let mut out = String::with_capacity(s.len() + 8);
    let mut start = 0;
    let mut i = first;
    loop {
        out.push_str(&s[start..i]);
        match bytes[i] {
            b'&' => out.push_str("&amp;"),
            b'<' => out.push_str("&lt;"),
            b'>' => out.push_str("&gt;"),
            b'"' => out.push_str("&quot;"),
            b'\'' => out.push_str("&apos;"),
            other => unreachable!("find_special returned non-special byte {other}"),
        }
        start = i + 1;
        match find_special::<ATTR>(bytes, start) {
            Some(j) => i = j,
            None => {
                out.push_str(&s[start..]);
                break;
            }
        }
    }
    Cow::Owned(out)
}

/// Resolves the five predefined entities and numeric character references.
///
/// Unknown entities are an error, reported as `Err(entity_name)`.
pub fn unescape(s: &str) -> Result<Cow<'_, str>, String> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos + 1..];
        let end = rest
            .find(';')
            .ok_or_else(|| format!("unterminated entity near '&{rest}'"))?;
        let name = &rest[..end];
        match name {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                if let Some(hex) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                    let cp = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad hex character reference '&{name};'"))?;
                    out.push(
                        char::from_u32(cp)
                            .ok_or_else(|| format!("invalid code point in '&{name};'"))?,
                    );
                } else if let Some(dec) = name.strip_prefix('#') {
                    let cp: u32 = dec
                        .parse()
                        .map_err(|_| format!("bad character reference '&{name};'"))?;
                    out.push(
                        char::from_u32(cp)
                            .ok_or_else(|| format!("invalid code point in '&{name};'"))?,
                    );
                } else {
                    return Err(format!("unknown entity '&{name};'"));
                }
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escaping() {
        assert_eq!(escape_text("plain"), "plain");
        assert!(matches!(escape_text("plain"), Cow::Borrowed(_)));
        assert_eq!(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
        // Quotes untouched in text context.
        assert_eq!(escape_text("\"q\""), "\"q\"");
    }

    #[test]
    fn attr_escaping() {
        assert_eq!(escape_attr("a\"b'c"), "a&quot;b&apos;c");
        assert_eq!(escape_attr("x<y"), "x&lt;y");
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(unescape("a &lt; b &amp; c").unwrap(), "a < b & c");
        assert_eq!(unescape("&quot;&apos;&gt;").unwrap(), "\"'>");
        assert!(matches!(unescape("no entities").unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#65;&#x42;&#x63;").unwrap(), "ABc");
        assert_eq!(unescape("&#x20AC;").unwrap(), "€");
    }

    #[test]
    fn unescape_errors() {
        assert!(unescape("&nbsp;").is_err());
        assert!(unescape("&#xZZ;").is_err());
        assert!(unescape("&#1114112;").is_err()); // beyond char::MAX
        assert!(unescape("&unterminated").is_err());
    }

    /// Escapes one char at a time: the reference the block scan must match.
    fn reference(s: &str, attr: bool) -> String {
        s.chars()
            .map(|c| match c {
                '&' => "&amp;".to_owned(),
                '<' => "&lt;".to_owned(),
                '>' => "&gt;".to_owned(),
                '"' if attr => "&quot;".to_owned(),
                '\'' if attr => "&apos;".to_owned(),
                c => c.to_string(),
            })
            .collect()
    }

    #[test]
    fn byte_scan_chunk_boundaries() {
        // Every special at every offset across two 64-byte blocks and the
        // tail behind them, alone and followed by a second special in the
        // tail, so the scan resumes after a hit.
        let len = 2 * 64 + 37;
        for special in ['&', '<', '>', '"', '\''] {
            for n in 0..len {
                for second in ["", "&"] {
                    let mut s = "x".repeat(n);
                    s.push(special);
                    s.push_str(&"y".repeat(len - 1 - n));
                    s.push_str(second);
                    assert_eq!(
                        escape_text(&s),
                        reference(&s, false),
                        "text, {special} at {n}"
                    );
                    assert_eq!(
                        escape_attr(&s),
                        reference(&s, true),
                        "attr, {special} at {n}"
                    );
                }
            }
        }
        let quoted = format!("{}\"{}'", "q".repeat(64), "r".repeat(70));
        assert!(matches!(escape_text(&quoted), Cow::Borrowed(_)));
        // Multi-byte UTF-8 around specials survives the byte-level scan.
        let s = "héllo <wörld> & “quotes”";
        assert_eq!(
            escape_text(s),
            "héllo &lt;wörld&gt; &amp; “quotes”"
        );
        let clean = "ünïcodé only, no specials, long enough to cross blocks……".repeat(3);
        assert!(matches!(escape_text(&clean), Cow::Borrowed(_)));
        assert!(matches!(escape_attr(&clean), Cow::Borrowed(_)));
        // Multi-byte characters straddling block boundaries, with specials
        // between them.
        let mixed = "é<ü>“&”'\"".repeat(30);
        assert_eq!(escape_text(&mixed), reference(&mixed, false));
        assert_eq!(escape_attr(&mixed), reference(&mixed, true));
    }

    #[test]
    fn roundtrip() {
        let nasty = "a<b>&\"'\u{20AC}";
        assert_eq!(unescape(&escape_attr(nasty)).unwrap(), nasty);
        assert_eq!(unescape(&escape_text(nasty)).unwrap(), nasty);
    }
}
