//! The Prometheus text-format grammar, checked by hand: metric-name
//! validity, label escaping, HELP/TYPE ordering, histogram bucket
//! monotonicity. `prom_compliance.rs` runs it on fuzzed expositions;
//! the workspace's `tests/net.rs` runs it on the replica's own render,
//! live and simulated, through `#[path]`.

// Each includer calls only part of it.
#![allow(dead_code)]

pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

pub fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse one sample line into `(metric_name, labels, value)`,
/// asserting the grammar along the way.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (name_part, rest) = match line.find('{') {
        Some(i) => {
            let close = line
                .rfind('}')
                .unwrap_or_else(|| panic!("unbalanced braces in sample line: {line:?}"));
            (&line[..i], Some((&line[i + 1..close], &line[close + 1..])))
        }
        None => {
            let sp = line
                .find(' ')
                .unwrap_or_else(|| panic!("no value in sample line: {line:?}"));
            (&line[..sp], None)
        }
    };
    assert!(
        valid_metric_name(name_part),
        "invalid metric name {name_part:?} in line {line:?}"
    );
    let mut labels = Vec::new();
    let value_str = match rest {
        Some((label_block, tail)) => {
            // label_block: name="value",name="value"  (escaped values)
            let mut s = label_block;
            while !s.is_empty() {
                let eq = s
                    .find('=')
                    .unwrap_or_else(|| panic!("no '=' in label block {label_block:?}"));
                let lname = &s[..eq];
                assert!(
                    valid_label_name(lname),
                    "invalid label name {lname:?} in line {line:?}"
                );
                assert_eq!(
                    s.as_bytes().get(eq + 1),
                    Some(&b'"'),
                    "label value not quoted in {line:?}"
                );
                // Walk the escaped value to its closing quote.
                let bytes = s.as_bytes();
                let mut j = eq + 2;
                let mut value = String::new();
                loop {
                    match bytes.get(j) {
                        None => panic!("unterminated label value in {line:?}"),
                        Some(b'"') => break,
                        Some(b'\\') => {
                            let esc = bytes
                                .get(j + 1)
                                .unwrap_or_else(|| panic!("dangling backslash in {line:?}"));
                            assert!(
                                matches!(esc, b'\\' | b'"' | b'n'),
                                "illegal escape \\{} in {line:?}",
                                *esc as char
                            );
                            value.push(*esc as char);
                            j += 2;
                        }
                        Some(&b) => {
                            assert_ne!(b, b'\n', "raw newline in label value: {line:?}");
                            value.push(b as char);
                            j += 1;
                        }
                    }
                }
                labels.push((lname.to_string(), value));
                s = &s[j + 1..];
                if let Some(stripped) = s.strip_prefix(',') {
                    s = stripped;
                } else {
                    assert!(s.is_empty(), "junk after label value in {line:?}");
                }
            }
            tail.trim_start()
        }
        None => {
            let sp = line.find(' ').unwrap();
            &line[sp + 1..]
        }
    };
    let value = match value_str.trim() {
        "+Inf" => f64::INFINITY,
        v => v
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable value {v:?} in line {line:?}")),
    };
    (name_part.to_string(), labels, value)
}

/// Validate a whole exposition: HELP→TYPE→samples ordering per
/// family, names valid everywhere, histogram buckets cumulative and
/// consistent with `_count`.
pub fn validate(text: &str) {
    let mut current: Option<(String, String)> = None; // (family, kind)
    let mut pending_help: Option<String> = None;
    let mut buckets: Vec<f64> = Vec::new(); // cumulative counts in order
    let mut bucket_bounds: Vec<f64> = Vec::new();
    let mut bucket_count: Option<f64> = None;

    let close_family = |buckets: &mut Vec<f64>,
                        bounds: &mut Vec<f64>,
                        count: &mut Option<f64>,
                        family: &Option<(String, String)>| {
        if let Some((name, kind)) = family {
            if kind == "histogram" {
                assert!(!buckets.is_empty(), "histogram {name} rendered no buckets");
                for w in buckets.windows(2) {
                    assert!(
                        w[1] >= w[0],
                        "histogram {name} buckets not monotone: {buckets:?}"
                    );
                }
                for w in bounds.windows(2) {
                    assert!(
                        w[1] > w[0],
                        "histogram {name} bounds not increasing: {bounds:?}"
                    );
                }
                assert_eq!(
                    bounds.last().copied(),
                    Some(f64::INFINITY),
                    "histogram {name} missing +Inf bucket"
                );
                let c = count.unwrap_or_else(|| panic!("histogram {name} missing _count"));
                assert_eq!(
                    buckets.last().copied(),
                    Some(c),
                    "histogram {name}: +Inf bucket != _count"
                );
            }
        }
        buckets.clear();
        bounds.clear();
        *count = None;
    };

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            close_family(
                &mut buckets,
                &mut bucket_bounds,
                &mut bucket_count,
                &current,
            );
            current = None;
            let name = rest.split(' ').next().unwrap_or("");
            assert!(valid_metric_name(name), "invalid HELP name {name:?}");
            let help = &rest[name.len()..];
            assert!(!help.contains('\n'));
            pending_help = Some(name.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind {kind:?}"
            );
            assert_eq!(
                pending_help.take().as_deref(),
                Some(name),
                "TYPE {name} not immediately preceded by its HELP"
            );
            current = Some((name.to_string(), kind.to_string()));
        } else {
            assert!(
                pending_help.is_none(),
                "HELP without TYPE before sample {line:?}"
            );
            let (name, labels, value) = parse_sample(line);
            let (family, kind) = current
                .as_ref()
                .unwrap_or_else(|| panic!("sample {line:?} outside any family"));
            if kind == "histogram" {
                if let Some(stripped) = name.strip_suffix("_bucket") {
                    assert_eq!(stripped, family);
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.clone())
                        .unwrap_or_else(|| panic!("bucket without le: {line:?}"));
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse::<f64>().unwrap()
                    };
                    bucket_bounds.push(bound);
                    buckets.push(value);
                } else if let Some(stripped) = name.strip_suffix("_count") {
                    assert_eq!(stripped, family);
                    bucket_count = Some(value);
                } else if let Some(stripped) = name.strip_suffix("_sum") {
                    assert_eq!(stripped, family);
                } else {
                    panic!("histogram family {family} has stray sample {name}");
                }
            } else {
                assert_eq!(
                    &name, family,
                    "sample name {name} does not match family {family}"
                );
            }
        }
    }
    close_family(
        &mut buckets,
        &mut bucket_bounds,
        &mut bucket_count,
        &current,
    );
    assert!(pending_help.is_none(), "trailing HELP without TYPE");
}
