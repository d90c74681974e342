//! Prometheus **text-format compliance suite** for the exporter:
//! whatever strings callers feed in — counter-set field names, peer
//! labels, free-form help text — the rendered exposition must parse.
//! The hand-rolled validator in `grammar/` checks the grammar and
//! proptest fuzzes the inputs.

mod grammar;

use grammar::{valid_label_name, valid_metric_name, validate};
use icc_telemetry::export::{sanitize_label_name, sanitize_metric_name};
use icc_telemetry::{Histogram, PromSnapshot};
use proptest::prelude::*;

/// Characters deliberately hostile to the exposition format.
const POOL: &[char] = &[
    'a', 'Z', '0', '9', '_', ':', '-', '.', ' ', '"', '\\', '\n', '{', '}', '=', ',', '#', 'é',
    '\t', '/',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..POOL.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| POOL[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Arbitrary metric/label/help strings must always render a
    /// parseable exposition.
    #[test]
    fn fuzzed_exposition_is_compliant(
        name1 in arb_string(),
        name2 in arb_string(),
        label in arb_string(),
        help in arb_string(),
        series_labels in proptest::collection::vec(arb_string(), 0..6),
        counter_v in 0u64..u64::MAX,
        gauge_v in -1_000_000i64..1_000_000,
        observations in proptest::collection::vec(0u64..1_000_000, 0..40),
    ) {
        let mut snap = PromSnapshot::new();
        snap.counter(&name1, &help, counter_v);
        snap.gauge(&format!("{name2}_g"), &help, gauge_v);
        let series_refs: Vec<(&str, u64)> = series_labels
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i as u64 * 37))
            .collect();
        snap.counter_series(&format!("{name1}_s"), &help, &label, &series_refs);
        let mut h = Histogram::new();
        for v in &observations {
            h.observe(*v);
        }
        snap.histogram(&format!("{name2}_h"), &help, &h);
        validate(&snap.render());
    }

    /// Sanitization always produces grammar-valid names and is
    /// idempotent.
    #[test]
    fn sanitization_valid_and_idempotent(s in arb_string()) {
        let m = sanitize_metric_name(&s);
        prop_assert!(valid_metric_name(&m), "metric {m:?} from {s:?}");
        prop_assert_eq!(sanitize_metric_name(&m).as_str(), m.as_str());
        let l = sanitize_label_name(&s);
        prop_assert!(valid_label_name(&l), "label {l:?} from {s:?}");
        prop_assert_eq!(sanitize_label_name(&l).as_str(), l.as_str());
    }
}

#[test]
fn help_type_ordering_is_strict() {
    let mut snap = PromSnapshot::new();
    snap.counter("a_total", "First.", 1);
    snap.counter("b_total", "Second.", 2);
    let text = snap.render();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("# HELP a_total"));
    assert!(lines[1].starts_with("# TYPE a_total"));
    assert_eq!(lines[2], "a_total 1");
    assert!(lines[3].starts_with("# HELP b_total"));
}

#[test]
fn empty_histogram_is_compliant() {
    let mut snap = PromSnapshot::new();
    snap.histogram("empty_h", "Nothing observed.", &Histogram::new());
    validate(&snap.render());
}
