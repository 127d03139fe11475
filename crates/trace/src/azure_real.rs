//! Loader for the *real* Azure Functions per-minute dataset format.
//!
//! Shahrad et al.'s public dataset (`invocations_per_function_md.anon.*`)
//! is CSV with hashed identity columns followed by one column per minute
//! of the day:
//!
//! ```text
//! HashOwner,HashApp,HashFunction,Trigger,1,2,3,…,1440
//! a1b2…,c3d4…,e5f6…,http,0,3,1,…,0
//! ```
//!
//! [`AzureFunctionsDataset::read_csv`] parses that shape (any number of
//! minute columns ≥ 1; duplicate function rows are summed), and the
//! dataset then produces:
//!
//! * [`AzureFunctionsDataset::trace`] — a [`Trace`] replaying the top-N
//!   functions' per-minute counts verbatim (counts placed uniformly at
//!   random within their minute, deterministically per seed), with
//!   function popularity ranks mapped onto Table I models exactly like
//!   the synthetic generator ([`crate::interleaved_model_of`]);
//! * [`AzureFunctionsDataset::per_minute_totals`] — the aggregate
//!   per-minute counts, directly usable as a `gfaas-workload`
//!   `Arrival::Replay` process.
//!
//! The `scenarios` runner registers an `azure_real` scenario when a
//! dataset path is supplied (`--azure-data <csv>`), so real-trace replay
//! slots into the same policy × scenario matrix as the synthetic presets.

use std::collections::BTreeMap;
use std::io::{BufRead, Error, ErrorKind, Result};

use gfaas_sim::rng::DetRng;
use gfaas_sim::time::{SimTime, TICKS_PER_SEC};

use crate::azure::interleaved_model_of;
use crate::trace::{Trace, TraceRequest};

/// One function's row: identity plus per-minute invocation counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionRow {
    /// The hashed identity columns, joined with `/` (owner/app/function).
    pub id: String,
    /// Invocations per minute of the capture window.
    pub per_minute: Vec<u64>,
    /// Total invocations over the window.
    pub total: u64,
}

/// A parsed Azure Functions per-minute invocation dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AzureFunctionsDataset {
    /// Functions sorted by total invocations, descending (popularity rank
    /// order; ties break on the identity string for determinism).
    pub functions: Vec<FunctionRow>,
    /// Number of per-minute columns in the capture window.
    pub minutes: usize,
}

fn malformed(lineno: usize, what: impl std::fmt::Display) -> Error {
    Error::new(
        ErrorKind::InvalidData,
        format!("azure csv line {lineno}: {what}"),
    )
}

impl AzureFunctionsDataset {
    /// Parses the dataset from its CSV form. The header row must contain
    /// the identity columns followed by numeric minute columns named
    /// `1..N` (N ≥ 1); every data row needs a count for each minute.
    /// Duplicate function identities (the real dataset splits some
    /// functions across files) are summed. Malformed headers, short rows,
    /// and non-numeric counts produce `InvalidData` errors naming the
    /// offending line.
    pub fn read_csv<R: BufRead>(r: R) -> Result<AzureFunctionsDataset> {
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| malformed(1, "empty file (missing header)"))??;
        let columns: Vec<&str> = header.trim().split(',').collect();
        // Minute columns are the numeric tail `1,2,3,…`; everything before
        // the column literally named "1" is function identity.
        let first_minute = columns
            .iter()
            .position(|c| *c == "1")
            .ok_or_else(|| malformed(1, "no minute column named \"1\" in header"))?;
        if first_minute == 0 {
            return Err(malformed(
                1,
                "no identity columns before the minute columns",
            ));
        }
        let minutes = columns.len() - first_minute;
        for (i, c) in columns[first_minute..].iter().enumerate() {
            if c.parse::<usize>() != Ok(i + 1) {
                return Err(malformed(
                    1,
                    format!("minute columns must be 1..{minutes}, got {c:?}"),
                ));
            }
        }

        let mut functions: Vec<FunctionRow> = Vec::new();
        // The real dataset has tens of thousands of rows; an id → index
        // map keeps duplicate merging near-linear instead of O(rows²).
        // A `BTreeMap` keeps the trace crate free of hash-order state
        // (lookup-only here, but determinism is cheaper to prove without
        // `HashMap` at all — see `gfaas-analyze` rule D1).
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for (i, line) in lines.enumerate() {
            let lineno = i + 2;
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != columns.len() {
                return Err(malformed(
                    lineno,
                    format!("expected {} fields, got {}", columns.len(), fields.len()),
                ));
            }
            let id = fields[..first_minute].join("/");
            let mut per_minute = Vec::with_capacity(minutes);
            for (m, f) in fields[first_minute..].iter().enumerate() {
                let count: u64 = f.trim().parse().map_err(|_| {
                    malformed(lineno, format!("bad count {f:?} for minute {}", m + 1))
                })?;
                per_minute.push(count);
            }
            let overflow = || malformed(lineno, "invocation counts overflow a 64-bit total");
            let sum = |counts: &[u64]| counts.iter().try_fold(0u64, |t, &c| t.checked_add(c));
            match index.get(&id) {
                Some(&at) => {
                    let existing = &mut functions[at];
                    for (a, b) in existing.per_minute.iter_mut().zip(&per_minute) {
                        *a = a.checked_add(*b).ok_or_else(overflow)?;
                    }
                    existing.total = sum(&existing.per_minute).ok_or_else(overflow)?;
                }
                None => {
                    index.insert(id.clone(), functions.len());
                    let total = sum(&per_minute).ok_or_else(overflow)?;
                    functions.push(FunctionRow {
                        id,
                        per_minute,
                        total,
                    });
                }
            }
        }
        if functions.is_empty() {
            return Err(malformed(2, "dataset has no function rows"));
        }
        functions.sort_by(|a, b| b.total.cmp(&a.total).then(a.id.cmp(&b.id)));
        Ok(AzureFunctionsDataset { functions, minutes })
    }

    /// The capture window in seconds.
    pub fn horizon_secs(&self) -> f64 {
        60.0 * self.minutes as f64
    }

    /// Aggregate invocations per minute across the `working_set` most
    /// popular functions (all of them when `working_set` ≥ the function
    /// count) — the shape usable as a `gfaas-workload` `Arrival::Replay`.
    pub fn per_minute_totals(&self, working_set: usize) -> Vec<usize> {
        let mut totals = vec![0usize; self.minutes];
        for f in self.functions.iter().take(working_set) {
            for (t, &c) in totals.iter_mut().zip(&f.per_minute) {
                *t += c as usize;
            }
        }
        totals
    }

    /// Builds the replay [`Trace`]: the `working_set` most popular
    /// functions keep their real per-minute counts, each invocation
    /// placed uniformly at random within its minute (deterministically
    /// per seed, like the synthetic generator's per-minute shuffle), and
    /// popularity rank `r` maps to Table I model
    /// [`interleaved_model_of`]`(r, num_models)`.
    pub fn trace(&self, working_set: usize, num_models: u32, seed: u64) -> Trace {
        let mut rng = DetRng::new(seed ^ 0xa2e5);
        let mut requests = Vec::new();
        for (rank, f) in self.functions.iter().take(working_set).enumerate() {
            let function = rank as u32;
            let model = interleaved_model_of(function, num_models);
            for (minute, &count) in f.per_minute.iter().enumerate() {
                let start = 60.0 * minute as f64;
                for _ in 0..count {
                    let at = start + rng.range_f64(0.0, 60.0);
                    // Floor to the tick so every instant stays inside its
                    // minute (mirrors `gfaas-workload`'s replay sampler).
                    requests.push(TraceRequest {
                        at: SimTime::from_micros((at * TICKS_PER_SEC as f64) as u64),
                        function,
                        model,
                    });
                }
            }
        }
        Trace::new(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const SAMPLE: &str = "\
HashOwner,HashApp,HashFunction,Trigger,1,2,3
o1,a1,hot,http,6,0,3
o2,a2,warm,timer,1,2,1
o3,a3,cold,queue,0,1,0
";

    fn parse(s: &str) -> Result<AzureFunctionsDataset> {
        AzureFunctionsDataset::read_csv(BufReader::new(s.as_bytes()))
    }

    #[test]
    fn parses_and_ranks_by_total() {
        let ds = parse(SAMPLE).unwrap();
        assert_eq!(ds.minutes, 3);
        assert_eq!(ds.horizon_secs(), 180.0);
        let ids: Vec<&str> = ds.functions.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["o1/a1/hot/http", "o2/a2/warm/timer", "o3/a3/cold/queue"]
        );
        assert_eq!(ds.functions[0].total, 9);
        assert_eq!(ds.functions[0].per_minute, vec![6, 0, 3]);
    }

    #[test]
    fn duplicate_rows_are_summed() {
        let dup = "\
HashOwner,HashApp,HashFunction,Trigger,1,2
o1,a1,f,http,1,2
o1,a1,f,http,3,4
";
        let ds = parse(dup).unwrap();
        assert_eq!(ds.functions.len(), 1);
        assert_eq!(ds.functions[0].per_minute, vec![4, 6]);
        assert_eq!(ds.functions[0].total, 10);
    }

    #[test]
    fn per_minute_totals_respect_the_working_set() {
        let ds = parse(SAMPLE).unwrap();
        assert_eq!(ds.per_minute_totals(3), vec![7, 3, 4]);
        assert_eq!(ds.per_minute_totals(1), vec![6, 0, 3]);
        assert_eq!(ds.per_minute_totals(99), vec![7, 3, 4]);
    }

    #[test]
    fn trace_replays_counts_in_rank_order() {
        let ds = parse(SAMPLE).unwrap();
        let t = ds.trace(2, 22, 7);
        assert_eq!(t.len(), 13, "top-2 functions' 9 + 4 invocations");
        assert!(t.is_sorted_by_arrival());
        // Rank 0 (hot) keeps its per-minute shape.
        let hot: Vec<usize> = {
            let mut counts = vec![0usize; 3];
            for r in t.requests().iter().filter(|r| r.function == 0) {
                counts[(r.at.as_secs_f64() / 60.0) as usize] += 1;
            }
            counts
        };
        assert_eq!(hot, vec![6, 0, 3]);
        // Models follow the interleaved mapping.
        assert!(t
            .requests()
            .iter()
            .all(|r| r.model == interleaved_model_of(r.function, 22)));
        // Deterministic per seed.
        assert_eq!(t.requests(), ds.trace(2, 22, 7).requests());
        assert_ne!(t.requests(), ds.trace(2, 22, 8).requests());
    }

    #[test]
    fn committed_sample_dataset_parses_and_replays() {
        // The sanitised per-minute sample shipped with the crate: 24
        // functions x 60 minutes in the real dataset's column format.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/data/azure_functions_sample.csv"
        );
        let file = std::fs::File::open(path).expect("committed sample dataset");
        let ds = AzureFunctionsDataset::read_csv(BufReader::new(file)).unwrap();
        assert_eq!(ds.minutes, 60);
        assert_eq!(ds.functions.len(), 24);
        let total: u64 = ds.functions.iter().map(|f| f.total).sum();
        assert_eq!(total, 3218, "sample volume is pinned");
        assert!(
            ds.functions.windows(2).all(|w| w[0].total >= w[1].total),
            "functions rank by total"
        );
        let t = ds.trace(15, 22, 11);
        assert!(t.is_sorted_by_arrival());
        let top15: u64 = ds
            .per_minute_totals(15)
            .iter()
            .map(|&c| c as u64)
            .sum::<u64>();
        assert_eq!(t.len() as u64, top15);
        assert_eq!(t.requests(), ds.trace(15, 22, 11).requests());
    }

    #[test]
    fn malformed_inputs_name_the_line() {
        let max = u64::MAX;
        let one_row = format!("HashOwner,1,2\no1,{max},1\n");
        let two_rows = format!("HashOwner,1,2\no1,{max},0\no1,1,0\n");
        let cases: [(&str, &str); 7] = [
            ("", "missing header"),
            ("HashOwner,HashApp\n", "no minute column"),
            ("1,2,3\no,a", "no identity columns"),
            ("HashOwner,1,2\no1,5\n", "line 2"),
            ("HashOwner,1,2\no1,5,x\n", "bad count \"x\""),
            (&one_row, "line 2: invocation counts overflow"),
            (&two_rows, "line 3: invocation counts overflow"),
        ];
        for (input, needle) in cases {
            let err = parse(input).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{input:?}");
            assert!(
                err.to_string().contains(needle),
                "{input:?} → {err} (wanted {needle:?})"
            );
        }
        // Header with non-sequential minute columns.
        let err = parse("HashOwner,1,3\no,1,2\n").unwrap_err();
        assert!(err.to_string().contains("minute columns must be"));
        // No data rows at all.
        let err = parse("HashOwner,1,2\n").unwrap_err();
        assert!(err.to_string().contains("no function rows"));
    }
}
