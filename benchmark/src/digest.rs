//! Output digests. A digest is FNV-1a over a program's output with its
//! wall-clock fields removed, so two runs of one seed must agree on it,
//! and a change that only speeds the simulator up can be checked for
//! identical simulated statistics against its parent.

/// JSON members that hold wall-clock time in the campaign report.
pub const WALL_CLOCK_KEYS: [&str; 2] = ["elapsed_ms", "scenarios_per_sec"];

/// Marks the one line of `noc-cli campaign` output that holds wall-clock
/// time: `throughput : 259.9 scenarios/sec (4618 ms total)`.
const WALL_CLOCK_LINE: &str = " ms total)";

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Remove every `"key":<scalar>` member named in `keys` from JSON text,
/// and every line of plain text that carries the wall-clock marker.
/// Works on the text, not a parsed tree, so every other byte (digits of
/// every statistic, key order, spacing) stays in the digest.
pub fn scrub(text: &str, keys: &[&str]) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        if !line.contains(WALL_CLOCK_LINE) {
            out.push_str(line);
        }
    }
    for key in keys {
        let needle = format!("\"{key}\":");
        let mut rest = out.as_str();
        let mut kept = String::with_capacity(rest.len());
        while let Some(at) = rest.find(&needle) {
            kept.push_str(&rest[..at]);
            let value = &rest[at + needle.len()..];
            // A scalar ends at the next `,` or `}`; a string value is
            // skipped to its closing quote first.
            let skip = if let Some(body) = value.strip_prefix('"') {
                body.find('"').map_or(value.len(), |q| q + 2)
            } else {
                0
            };
            let end = value[skip..]
                .find([',', '}'])
                .map_or(value.len(), |e| e + skip);
            rest = value[end..].strip_prefix(',').unwrap_or(&value[end..]);
        }
        kept.push_str(rest);
        out = kept;
    }
    out
}

/// Digest of `text` with the wall-clock fields and `extra_keys` removed.
pub fn digest(text: &str, extra_keys: &[&str]) -> u64 {
    let keys: Vec<&str> = WALL_CLOCK_KEYS.iter().chain(extra_keys).copied().collect();
    fnv1a(scrub(text, &keys).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    const REPORT: &str =
        r#"{"seed":1,"elapsed_ms":4618,"scenarios_per_sec":259.85,"modes":[{"survival":0.625}]}"#;
    const STDOUT: &str = "campaign        : 8x8 mesh\n\
        throughput      : 259.9 scenarios/sec (4618 ms total)\n\
        \x20      1        125         0    75           0     62.5%\n";

    #[test]
    fn digest_ignores_the_wall_clock_fields() {
        let slower = REPORT
            .replace("4618", "9000")
            .replace("259.85", "133.333333");
        assert_eq!(digest(REPORT, &[]), digest(&slower, &[]));
        let slower = STDOUT.replace("259.9 scenarios/sec (4618", "80.1 scenarios/sec (15000");
        assert_eq!(digest(STDOUT, &[]), digest(&slower, &[]));
    }

    #[test]
    fn digest_sees_every_other_field() {
        for (from, to) in [("0.625", "0.626"), ("\"seed\":1", "\"seed\":2")] {
            assert_ne!(digest(REPORT, &[]), digest(&REPORT.replace(from, to), &[]));
        }
        assert_ne!(
            digest(STDOUT, &[]),
            digest(&STDOUT.replace("125", "126"), &[])
        );
        assert_ne!(
            digest(STDOUT, &[]),
            digest(&STDOUT.replace("8x8", "4x4"), &[])
        );
    }

    #[test]
    fn scrub_removes_exactly_the_named_members() {
        assert_eq!(
            scrub(REPORT, &WALL_CLOCK_KEYS),
            r#"{"seed":1,"modes":[{"survival":0.625}]}"#
        );
        assert_eq!(
            scrub(r#"{"job":"job-000007","a":1}"#, &["job"]),
            r#"{"a":1}"#
        );
        assert_eq!(
            scrub(r#"{"a":1,"elapsed_ms":5}"#, &WALL_CLOCK_KEYS),
            r#"{"a":1,}"#
        );
    }
}
