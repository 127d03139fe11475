//! The `key[:field=value,…]` grammar every spec string shares: the policy,
//! store and autoscale specs (`lalbo3:25`, `tiered:host=8G,origin_bw=2G`,
//! `queue:min=4,max=16`) and the record spec's token list
//! (`ledger,sample=30`). Each parser keeps its own fields and error type;
//! this module is the one place that splits the text.
//!
//! ```
//! use gfaas_sim::spec::{finite, list, split_key, tokens};
//!
//! let (key, args) = split_key("queue:min=4,cadence=2.5").unwrap();
//! assert_eq!(key, "queue");
//! let fields: Vec<_> = tokens(args.unwrap()).collect();
//! assert_eq!(fields, [("min", Some("4")), ("cadence", Some("2.5"))]);
//! assert_eq!(finite("2.5"), Some(2.5));
//! assert_eq!(split_key("Queue"), None);
//! assert_eq!(list("lb,lookahead:k=4,horizon=16"), ["lb", "lookahead:k=4,horizon=16"]);
//! ```

/// Splits a spec into its key and the argument after the first `:`.
/// `None` unless the key is a nonempty `[a-z0-9_-]+` and a `:` is
/// followed by an argument.
pub fn split_key(s: &str) -> Option<(&str, Option<&str>)> {
    let (key, args) = match s.split_once(':') {
        Some((key, args)) => (key, Some(args)),
        None => (s, None),
    };
    let key_ok = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-');
    (key_ok && args != Some("")).then_some((key, args))
}

/// Splits one token at its first `=` into the field and its value.
pub fn token(t: &str) -> (&str, Option<&str>) {
    match t.split_once('=') {
        Some((field, value)) => (field, Some(value)),
        None => (t, None),
    }
}

/// The comma-separated tokens of a spec's argument, each split by [`token`].
pub fn tokens(args: &str) -> impl Iterator<Item = (&str, Option<&str>)> {
    args.split(',').map(token)
}

/// Parses a finite number.
pub fn finite(v: &str) -> Option<f64> {
    v.parse().ok().filter(|v: &f64| v.is_finite())
}

/// Splits a comma-separated list of specs. A piece with an `=` before
/// any `:` is a `field=value` token (no key contains `=`), so it
/// continues the spec before it: `lb,lookahead:k=4,horizon=16` is two
/// specs.
pub fn list(s: &str) -> Vec<&str> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut at = 0;
    for piece in s.split(',') {
        let end = at + piece.len();
        let head = piece.split_once(':').map_or(piece, |(head, _)| head);
        match spans.last_mut() {
            Some(span) if head.contains('=') => span.1 = end,
            _ => spans.push((at, end)),
        }
        at = end + 1;
    }
    spans.into_iter().map(|(from, to)| &s[from..to]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_key_checks_the_key_and_the_argument() {
        assert_eq!(split_key("lru"), Some(("lru", None)));
        assert_eq!(split_key("a-b_9:x:y"), Some(("a-b_9", Some("x:y"))));
        for bad in ["", ":", ":1", "LRU", "lru:", "a b", "k=v", "lalbo3 :25"] {
            assert_eq!(split_key(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn tokens_split_at_the_first_equals() {
        assert_eq!(token("sample"), ("sample", None));
        assert_eq!(token("a=b=c"), ("a", Some("b=c")));
        assert_eq!(token("=1"), ("", Some("1")));
        let all: Vec<_> = tokens("max=8,,wait").collect();
        assert_eq!(all, [("max", Some("8")), ("", None), ("wait", None)]);
    }

    #[test]
    fn finite_rejects_what_is_not_a_finite_number() {
        assert_eq!(finite("-0.5"), Some(-0.5));
        assert_eq!(finite("1e3"), Some(1e3));
        for bad in ["", "x", "inf", "-inf", "NaN", "1e400"] {
            assert_eq!(finite(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn list_keeps_field_tokens_with_their_spec() {
        let cases: [(&str, &[&str]); 8] = [
            ("lb", &["lb"]),
            ("lb,lalb,lalbo3:25", &["lb", "lalb", "lalbo3:25"]),
            (
                "lalbo3,lookahead:k=4,horizon=16",
                &["lalbo3", "lookahead:k=4,horizon=16"],
            ),
            (
                "coalesce:max=8,wait=0.05,lb",
                &["coalesce:max=8,wait=0.05", "lb"],
            ),
            // A bare piece is a new spec, whatever follows it.
            ("tinylfu:0.9,256", &["tinylfu:0.9", "256"]),
            // `=` after the first `:` is the new spec's own argument.
            ("lb,x:a=1", &["lb", "x:a=1"]),
            // Nothing to continue: the piece stands alone (and fails to parse).
            ("k=4,lb", &["k=4", "lb"]),
            ("", &[""]),
        ];
        for (s, want) in cases {
            assert_eq!(list(s), want, "{s:?}");
        }
        assert_eq!(list("a,,b"), ["a", "", "b"]);
    }
}
