//! Parser robustness for every text input besides policy specs (fuzzed
//! in `policy_equivalence.rs`) and checkpoints (`checkpoint_fuzz.rs`):
//! the store, autoscale and record specs, and the Azure Functions CSV
//! loader. Each must answer arbitrary input with `Ok` or `Err` and never
//! panic; an accepted spec must also print back to itself and build.

use gfaas_core::{AutoscaleSpec, RecordSpec, StoreSpec};
use gfaas_trace::AzureFunctionsDataset;
use proptest::prelude::*;

/// Strings glued from `tokens`: grammar keys, separators, and numbers
/// at the edges of their types, so the fuzz reaches each parser's
/// argument handling rather than dying at the first character.
fn glued(tokens: &'static [&'static str], max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..tokens.len(), 0..max)
        .prop_map(move |ix| ix.iter().map(|&i| tokens[i]).collect())
}

/// Numbers every grammar must survive: zero, negatives, fractions,
/// exponents, infinities, NaN and integers past `u64::MAX`.
const NUMBERS: [&str; 14] = [
    "0",
    "1",
    "7",
    "-1",
    "0.5",
    "1e3",
    "1e400",
    "-0",
    "inf",
    "NaN",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    ".",
];

const STORE_TOKENS: [&str; 30] = [
    "flat",
    "tiered",
    ":",
    ",",
    "=",
    "host",
    "origin_bw",
    "origin_lat",
    "pcie_bw",
    "pcie_lat",
    "prefetch",
    "hot",
    "G",
    "M",
    "K",
    "B",
    "0",
    "1",
    "7",
    "-1",
    "0.5",
    "1e3",
    "1e400",
    "-0",
    "inf",
    "NaN",
    "18446744073709551615",
    "18446744073709551616",
    ".",
    " ",
];

const AUTOSCALE_TOKENS: [&str; 24] = [
    "queue",
    ":",
    ",",
    "=",
    "min",
    "max",
    "up",
    "down",
    "cadence",
    "0",
    "1",
    "7",
    "-1",
    "0.5",
    "1e3",
    "1e400",
    "-0",
    "inf",
    "NaN",
    "18446744073709551615",
    "18446744073709551616",
    ".",
    " ",
    "x",
];

const RECORD_TOKENS: [&str; 16] = [
    "ledger", "perfetto", "trace", "sample", "slo", "all", "off", "none", ",", "=", " ", "0", "-1",
    "1e400", "NaN", "0.25",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn store_spec_parse_is_total(s in glued(&STORE_TOKENS, 14)) {
        if let Ok(spec) = s.parse::<StoreSpec>() {
            prop_assert_eq!(spec.to_string().parse::<StoreSpec>(), Ok(spec.clone()));
            prop_assert!(spec.build().is_ok(), "accepted `{}` must build", s);
        }
    }

    #[test]
    fn autoscale_spec_parse_is_total(s in glued(&AUTOSCALE_TOKENS, 14)) {
        if let Ok(spec) = s.parse::<AutoscaleSpec>() {
            prop_assert_eq!(spec.to_string().parse::<AutoscaleSpec>(), Ok(spec.clone()));
            prop_assert!(spec.build().is_ok(), "accepted `{}` must build", s);
        }
    }

    #[test]
    fn record_spec_parse_is_total(s in glued(&RECORD_TOKENS, 10)) {
        if let Ok(spec) = s.parse::<RecordSpec>() {
            prop_assert_eq!(spec.to_string().parse::<RecordSpec>(), Ok(spec));
        }
    }

    /// Short CSVs over the loader's alphabet: a header that may or may
    /// not name its minute columns, then rows whose counts may be
    /// non-numeric, negative, duplicated or large enough to overflow a
    /// sum. The loader must reject what it cannot read.
    #[test]
    fn azure_csv_loader_is_total(
        header in glued(&["HashFunction", "Trigger", "1", "2", "3", ",", " ", "x"], 10),
        rows in proptest::collection::vec(
            glued(&["f", "g", ",", " ", "\t", "-", "x", "0", "3", "18446744073709551615"], 12),
            0..5,
        ),
    ) {
        let csv = std::iter::once(header).chain(rows).collect::<Vec<_>>().join("\n");
        if let Ok(ds) = AzureFunctionsDataset::read_csv(csv.as_bytes()) {
            prop_assert!(ds.minutes >= 1 && !ds.functions.is_empty());
            for f in &ds.functions {
                prop_assert_eq!(f.per_minute.len(), ds.minutes);
                prop_assert_eq!(f.total, f.per_minute.iter().sum::<u64>());
            }
        }
    }
}

/// The fixed numbers the glued fuzz may not combine: every one, as the
/// value of every numeric field of every grammar.
#[test]
fn every_field_survives_every_edge_number() {
    for n in NUMBERS {
        for field in [
            "host",
            "origin_bw",
            "origin_lat",
            "pcie_bw",
            "pcie_lat",
            "prefetch",
            "hot",
        ] {
            let _ = format!("tiered:{field}={n}").parse::<StoreSpec>();
            let _ = format!("tiered:{field}={n}G").parse::<StoreSpec>();
        }
        for field in ["min", "max", "up", "down", "cadence"] {
            if let Ok(spec) = format!("queue:{field}={n}").parse::<AutoscaleSpec>() {
                assert!(spec.build().is_ok(), "queue:{field}={n}");
            }
        }
        for field in ["sample", "slo"] {
            let _ = format!("{field}={n}").parse::<RecordSpec>();
        }
        let csv = format!("a,1,2\nf,{n},{n}\nf,{n},{n}");
        let _ = AzureFunctionsDataset::read_csv(csv.as_bytes());
    }
}
