//! The replica's stdout records, written and read in one place.
//!
//! A replica prints `COMMIT <round> <hash>` per committed block and one
//! `REPORT {json}` line at a clean exit. The launcher reads both back
//! from another process's stdout — a process it may have SIGKILLed
//! mid-line — so both parsers take any string and return `None` for a
//! torn or foreign line, never panicking.

use crate::observe::FAMILIES;

/// A counter family as the report carries it: `(name, value)` in the
/// order the family's `fields()` lists them, so a counter added to the
/// family shows up in the REPORT line without touching this module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<(String, u64)>);

impl Counters {
    /// The value of counter `name`, `None` if the family has no such field.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.0.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

impl From<Vec<(&str, u64)>> for Counters {
    fn from(fields: Vec<(&str, u64)>) -> Self {
        Counters(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// What a replica prints as its `REPORT` line when it exits cleanly.
/// Each field is the JSON key of the same name: `recovered_round` is
/// the core's last restored round, `halted` means the store failed to
/// persist a step and the replica stopped signing (exit code 3), and
/// `families` are the replica's counter families ([`crate::families`]),
/// each under its key, as `/metrics` serves them.
#[allow(missing_docs)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    pub me: u64,
    pub n: u64,
    pub committed_round: u64,
    pub blocks: u64,
    pub commands: u64,
    pub recovered_round: u64,
    pub halted: bool,
    pub families: Vec<(String, Counters)>,
}

impl RunReport {
    fn numbers_mut(&mut self) -> [(&'static str, &mut u64); 6] {
        [
            ("me", &mut self.me),
            ("n", &mut self.n),
            ("committed_round", &mut self.committed_round),
            ("blocks", &mut self.blocks),
            ("commands", &mut self.commands),
            ("recovered_round", &mut self.recovered_round),
        ]
    }

    /// Counter `field` of family `key`, `None` if either is missing.
    pub fn get(&self, key: &str, field: &str) -> Option<u64> {
        let (_, family) = self.families.iter().find(|(k, _)| k == key)?;
        family.get(field)
    }

    /// The `REPORT {json}` line, without its newline.
    pub fn to_line(&self) -> String {
        // One field list serves both directions; writing reads a copy.
        let numbers = self.clone().numbers_mut().map(|(k, v)| (k, *v));
        let mut line = format!(
            "REPORT {{{},\"halted\":{}",
            join(numbers.into_iter()),
            self.halted
        );
        for (key, family) in &self.families {
            let fields = join(family.0.iter().map(|(k, v)| (k.as_str(), *v)));
            line.push_str(&format!(",\"{key}\":{{{fields}}}"));
        }
        line + "}"
    }

    /// Reads a line [`Self::to_line`] wrote. `None` for any other line,
    /// a torn one included: every number must be there, in its place,
    /// every family known and closed, and the object closed with
    /// nothing after it.
    pub fn parse(line: &str) -> Option<RunReport> {
        let body = line.strip_prefix("REPORT {")?.strip_suffix('}')?;
        let (numbers, rest) = body.split_once(",\"halted\":")?;
        let (halted, mut rest) = rest.split_at(rest.find(',').unwrap_or(rest.len()));
        let mut report = RunReport {
            halted: halted.parse().ok()?,
            ..RunReport::default()
        };
        while !rest.is_empty() {
            let (key, tail) = rest.strip_prefix(",\"")?.split_once("\":{")?;
            let (fields, tail) = tail.split_once('}')?;
            FAMILIES.iter().find(|(known, _, _)| *known == key)?;
            report.families.push((key.into(), split(fields)?.into()));
            rest = tail;
        }
        let numbers = split(numbers)?;
        let mut slots = report.numbers_mut();
        if numbers.len() != slots.len() {
            return None;
        }
        for ((key, slot), (k, v)) in slots.iter_mut().zip(numbers) {
            if *key != k {
                return None;
            }
            **slot = v;
        }
        Some(report)
    }
}

/// `"key":value` pairs, comma-separated.
fn join<'a>(pairs: impl Iterator<Item = (&'a str, u64)>) -> String {
    let pairs: Vec<String> = pairs.map(|(k, v)| format!("\"{k}\":{v}")).collect();
    pairs.join(",")
}

/// What [`join`] wrote, back as `(key, value)`; `None` unless every
/// pair is `"key":<u64>`.
fn split(s: &str) -> Option<Vec<(&str, u64)>> {
    let pairs = s.split(',').filter(|_| !s.is_empty());
    pairs
        .map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.strip_prefix('"')?.strip_suffix('"')?, v.parse().ok()?))
        })
        .collect()
}

/// Reads a `COMMIT <round> <hash>` line. `None` for anything else,
/// including a line a SIGKILL tore mid-hash: only a full 32-byte hex
/// digest is returned.
pub fn parse_commit(line: &str) -> Option<(u64, &str)> {
    let mut parts = line.split_whitespace();
    let (Some("COMMIT"), Some(round), Some(hash), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return None;
    };
    let round = round.parse().ok()?;
    (hash.len() == 64 && hash.bytes().all(|b| b.is_ascii_hexdigit())).then_some((round, hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport {
            halted: true,
            families: vec![
                (
                    "net".into(),
                    vec![("frames_sent", 7), ("decode_errors", 0)].into(),
                ),
                (
                    "storage".into(),
                    vec![("records_appended", 12), ("io_errors", 0)].into(),
                ),
                ("anomalies".into(), Counters::default()),
            ],
            ..RunReport::default()
        };
        for (i, (_, slot)) in r.numbers_mut().into_iter().enumerate() {
            *slot = 1_000 + i as u64;
        }
        r
    }

    #[test]
    fn report_line_round_trips() {
        let r = sample();
        let line = r.to_line();
        assert!(line.starts_with("REPORT {\"me\":1000,"), "{line}");
        assert!(line.contains("\"net\":{\"frames_sent\":7,\"decode_errors\":0}"));
        assert_eq!(RunReport::parse(&line), Some(r.clone()));
        assert_eq!(
            (r.get("net", "frames_sent"), r.get("net", "bytes_sent")),
            (Some(7), None)
        );
        assert_eq!(r.get("pool", "verify_calls"), None);
        let empty = RunReport::default();
        assert_eq!(RunReport::parse(&empty.to_line()), Some(empty));
    }

    #[test]
    fn torn_or_foreign_lines_are_rejected() {
        let line = sample().to_line();
        // Every prefix is what a SIGKILL can leave behind.
        for cut in 0..line.len() {
            assert_eq!(RunReport::parse(&line[..cut]), None, "prefix {cut}");
        }
        let garbage = [
            "REPORT {}".to_string(),
            "REPORT []".to_string(),
            "COMMIT 3 ab".to_string(),
            format!("{line}}}"),
            format!("{line} trailing"),
            line.replace("\"halted\":true", "\"halted\":maybe"),
            line.replace("\"me\":1000", "\"me\":-1"),
            line.replace("\"me\":1000", "\"me\":99999999999999999999999"),
            line.replace("\"net\"", "\"nett\""),
        ];
        for g in garbage {
            assert_eq!(RunReport::parse(&g), None, "{g:?}");
        }
    }

    #[test]
    fn commit_lines_parse_only_whole() {
        let hash = "ab".repeat(32);
        assert_eq!(
            parse_commit(&format!("COMMIT 17 {hash}")),
            Some((17, &*hash))
        );
        for torn in [
            format!("COMMIT 17 {}", &hash[..40]),
            format!("COMMIT x {hash}"),
            format!("COMMIT 17 {hash} extra"),
            format!("COMMIT 17 {}", "zz".repeat(32)),
            "READY 127.0.0.1:1".to_string(),
        ] {
            assert_eq!(parse_commit(&torn), None, "{torn:?}");
        }
    }
}
