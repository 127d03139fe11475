//! The determinism rule catalogue.
//!
//! Every result this reproduction reports rests on one hard invariant:
//! seeded runs are byte-identical, and the observability/store layers
//! are provably neutral when off. These rules make the patterns that
//! break that invariant visible at lint time instead of bench-diff
//! time. Rules operate on the token stream from [`crate::lexer`] — no
//! parsing, no type information — so each one is a *conservative
//! pattern*: it may flag provably-safe code (waive it with a written
//! reason, see [`crate::engine`]), but safe code that it cannot see is
//! code the next refactor can silently break.
//!
//! | id          | scope                | pattern                                  |
//! |-------------|----------------------|------------------------------------------|
//! | `hash-iter` | deterministic crates | any `HashMap` / `HashSet` use            |
//! | `wall-clock`| all but bench/live   | `Instant` / `SystemTime`                 |
//! | `obs-guard` | gfaas-core           | `ObsEvent::…` outside a recorder guard   |
//! | `no-unsafe` | whole workspace      | the `unsafe` keyword                     |
//! | `float-ord` | deterministic crates | `partial_cmp` calls, `f32`/`f64` map keys|
//! | `snap-mutate`| gfaas-core          | direct writes to journal-managed fields  |

use crate::lexer::{Tok, TokKind};

/// Crates whose simulation output is byte-pinned: report-producing state
/// in these must never depend on hash order, wall clocks, or partial
/// float orderings.
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "sim", "gpu", "store", "workload", "trace"];

/// How a finding counts toward the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported; fails the run only under `--deny-all`.
    Warn,
    /// Always fails the run.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One raw rule hit, before waivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation (the rule id and severity are carried
    /// by the owning [`Rule`]).
    pub message: String,
}

/// A source file prepared for rule checks.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel: &'a str,
    /// Crate short name (`core`, `sim`, …; `gfaas` for the umbrella
    /// package's own `src`/`tests`/`examples`).
    pub krate: &'a str,
    /// Significant tokens: comments stripped, literals kept as opaque
    /// single tokens.
    pub toks: &'a [Tok<'a>],
}

impl FileCtx<'_> {
    fn in_deterministic_crate(&self) -> bool {
        DETERMINISTIC_CRATES.contains(&self.krate)
    }

    fn file_name(&self) -> &str {
        self.rel.rsplit('/').next().unwrap_or(self.rel)
    }
}

/// One lint rule: a conservative token-pattern check with an id, a
/// default severity, and a one-line summary (the rule catalogue printed
/// by `gfaas-lint --rules`).
pub struct Rule {
    /// Stable id, used in diagnostics and waivers.
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary for the catalogue.
    pub summary: &'static str,
    check: fn(&FileCtx<'_>) -> Vec<Finding>,
}

impl Rule {
    /// Runs the rule over one file.
    pub fn check(&self, file: &FileCtx<'_>) -> Vec<Finding> {
        (self.check)(file)
    }
}

/// The rule catalogue, in documentation order.
pub static RULES: &[Rule] = &[
    Rule {
        id: "hash-iter",
        severity: Severity::Error,
        summary: "no HashMap/HashSet in deterministic crates (iteration order is seed-invisible)",
        check: check_hash_iter,
    },
    Rule {
        id: "wall-clock",
        severity: Severity::Error,
        summary: "no Instant::now/SystemTime outside the bench crate, live mode, and examples",
        check: check_wall_clock,
    },
    Rule {
        id: "obs-guard",
        severity: Severity::Error,
        summary:
            "every ObsEvent in gfaas-core must be built inside emit_with(…) or a recorder guard",
        check: check_obs_guard,
    },
    Rule {
        id: "no-unsafe",
        severity: Severity::Error,
        summary: "no unsafe anywhere in the workspace (also forbidden by [workspace.lints])",
        check: check_no_unsafe,
    },
    Rule {
        id: "float-ord",
        severity: Severity::Warn,
        summary: "no partial_cmp / float map keys in deterministic crates (NaN breaks totality)",
        check: check_float_ord,
    },
    Rule {
        id: "snap-mutate",
        severity: Severity::Error,
        summary:
            "no direct mutation of journal-managed cluster state outside the snapshot write API",
        check: check_snap_mutate,
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// D1 — hash collections in deterministic crates. A token scanner
/// cannot prove a map is never iterated, so the rule is conservative:
/// any mention is flagged. `BTreeMap`/`BTreeSet` (or a sorted `Vec`)
/// give the same asymptotics with a stable order; a provably
/// lookup-only map can be waived with that proof as the reason.
fn check_hash_iter(f: &FileCtx<'_>) -> Vec<Finding> {
    if !f.in_deterministic_crate() {
        return Vec::new();
    }
    idents(f, &["HashMap", "HashSet"], |name| {
        format!(
            "{name} in deterministic crate gfaas-{}: hash iteration order varies across \
             runs/platforms; use BTreeMap/BTreeSet or a sorted Vec",
            f.krate
        )
    })
}

/// D2 — wall-clock reads. Virtual time (`SimTime`) is the only clock
/// simulation logic may observe; `Instant`/`SystemTime` are allowed
/// only where real compute is being measured: the bench crate, live
/// mode (`live.rs`), and the umbrella examples.
fn check_wall_clock(f: &FileCtx<'_>) -> Vec<Finding> {
    if f.krate == "bench" || f.file_name() == "live.rs" || f.rel.starts_with("examples/") {
        return Vec::new();
    }
    idents(f, &["Instant", "SystemTime"], |name| {
        format!(
            "{name} outside the bench/live allowlist: simulation logic must read \
             virtual time (SimTime), never the wall clock"
        )
    })
}

/// D3 — the zero-cost recorder invariant: in `gfaas-core`, an
/// `ObsEvent::…` constructor may only appear lexically inside the
/// argument of an `emit_with(…)` call (the builder closure, which runs
/// only when a recorder is attached) or inside a block opened under a
/// recorder guard (`… recorder.is_some() {`,
/// `if let Some(r) = … recorder.as_deref_mut() {`, …), so an unrecorded
/// run never even builds the event. Tracks brace and paren depth; an
/// `emit_with(` covers its parenthesised argument; a guard arms when
/// `recorder` is followed by `.is_some`/`.as_ref`/`.as_mut`/`.as_deref`/
/// `.as_deref_mut`, covers the next `{…}` block, and disarms at `;` (a
/// mere boolean binding is not a guard). An event built outside the
/// closure and moved into it is still flagged.
fn check_obs_guard(f: &FileCtx<'_>) -> Vec<Finding> {
    if f.krate != "core" {
        return Vec::new();
    }
    const GUARD_METHODS: &[&str] = &["is_some", "as_ref", "as_mut", "as_deref", "as_deref_mut"];
    let mut findings = Vec::new();
    let mut depth: u32 = 0;
    let mut guards: Vec<u32> = Vec::new();
    let mut armed = false;
    let mut parens: u32 = 0;
    let mut emit_args: Vec<u32> = Vec::new();
    let toks = f.toks;
    for (i, t) in toks.iter().enumerate() {
        match (t.kind, t.text) {
            (TokKind::Punct, "(") => {
                if i > 0 && toks[i - 1].kind == TokKind::Ident && toks[i - 1].text == "emit_with" {
                    emit_args.push(parens);
                }
                parens += 1;
            }
            (TokKind::Punct, ")") => {
                parens = parens.saturating_sub(1);
                while emit_args.last() == Some(&parens) {
                    emit_args.pop();
                }
            }
            (TokKind::Punct, "{") => {
                if armed {
                    guards.push(depth);
                    armed = false;
                }
                depth += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                while guards.last() == Some(&depth) {
                    guards.pop();
                }
            }
            (TokKind::Punct, ";") => armed = false,
            (TokKind::Ident, "recorder")
                if toks.get(i + 1).is_some_and(|t| t.text == ".")
                    && toks
                        .get(i + 2)
                        .is_some_and(|t| GUARD_METHODS.contains(&t.text)) =>
            {
                armed = true;
            }
            (TokKind::Ident, "ObsEvent") => {
                let pathy = toks.get(i + 1).is_some_and(|t| t.text == ":")
                    && toks.get(i + 2).is_some_and(|t| t.text == ":");
                if pathy && guards.is_empty() && emit_args.is_empty() {
                    findings.push(Finding {
                        line: t.line,
                        message: "ObsEvent constructed outside an emit_with(…) closure or a \
                                  recorder guard: unrecorded runs must not even build the \
                                  event (the zero-cost recorder invariant)"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    findings
}

/// D4a — `unsafe` anywhere in the workspace. Redundant with
/// `[workspace.lints] unsafe_code = "forbid"` by design: the compiler
/// enforces it per-crate, the linter reports it workspace-wide in one
/// sweep with everything else.
fn check_no_unsafe(f: &FileCtx<'_>) -> Vec<Finding> {
    idents(f, &["unsafe"], |_| {
        "unsafe code is forbidden workspace-wide (see [workspace.lints])".to_string()
    })
}

/// D4b — float orderings in deterministic crates: `partial_cmp` calls
/// (NaN makes the order partial; a single NaN silently reorders sim
/// state) and `f32`/`f64` as map/set keys. `total_cmp` is fine and not
/// flagged. `fn partial_cmp` *definitions* (a `PartialOrd` impl
/// delegating to `Ord`) are skipped.
fn check_float_ord(f: &FileCtx<'_>) -> Vec<Finding> {
    if !f.in_deterministic_crate() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let toks = f.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text {
            "partial_cmp" => {
                let is_def = i > 0 && toks[i - 1].text == "fn";
                if !is_def {
                    findings.push(Finding {
                        line: t.line,
                        message: "partial_cmp in a deterministic crate: prove the operands \
                                  finite and waive, or use total_cmp / integer keys"
                            .to_string(),
                    });
                }
            }
            "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet"
                if toks.get(i + 1).is_some_and(|t| t.text == "<")
                    && toks
                        .get(i + 2)
                        .is_some_and(|t| t.text == "f32" || t.text == "f64") =>
            {
                findings.push(Finding {
                    line: t.line,
                    message: format!(
                        "{} keyed by a float in a deterministic crate: float keys are \
                         not totally ordered (NaN) and not stably hashable across \
                         rounding changes",
                        t.text
                    ),
                });
            }
            _ => {}
        }
    }
    findings
}

/// D5 — the PR 10 rollback invariant: every field the `gfaas-snap`
/// journal images (`global_queue`, the per-unit `local_queue` /
/// `in_flight` / `holding`, `local_aggs`, the `units` vector itself)
/// may only be written through the snapshot write API — the `Cluster` /
/// `SchedCtx` methods in `cluster.rs` and `GpuUnit`'s own impl in
/// `gpu_manager.rs` — which keep the aggregate indices and the journal's
/// capture points in sync. A write anywhere else in `gfaas-core`
/// (a scheduler reaching through `ctx`, a new subsystem poking a queue)
/// mutates state the journal believes it owns: rollback still restores
/// bytes, but the bookkeeping the write skipped (aggregates, queue-depth
/// notes) silently diverges. Flags field accesses followed by a mutating
/// method, an assignment, or taken as `&mut` borrows.
fn check_snap_mutate(f: &FileCtx<'_>) -> Vec<Finding> {
    if f.krate != "core" || matches!(f.file_name(), "cluster.rs" | "gpu_manager.rs") {
        return Vec::new();
    }
    const FIELDS: &[&str] = &[
        "global_queue",
        "local_queue",
        "in_flight",
        "holding",
        "local_aggs",
        "units",
    ];
    const MUTATORS: &[&str] = &[
        "push",
        "push_back",
        "push_front",
        "pop",
        "pop_back",
        "pop_front",
        "insert",
        "remove",
        "swap_remove",
        "clear",
        "drain",
        "truncate",
        "retain",
        "extend",
        "append",
        "take",
        "replace",
        "get_or_insert_with",
        "resize",
        "rotate_left",
        "rotate_right",
        "sort",
        "sort_by",
        "sort_by_key",
        "split_off",
        "swap",
    ];
    let toks = f.toks;
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !FIELDS.contains(&t.text) {
            continue;
        }
        // Field accesses only (`x.local_queue`): a local variable that
        // merely shares the name is not journal-managed state.
        if i == 0 || toks[i - 1].text != "." {
            continue;
        }
        let mutated = match toks.get(i + 1).map(|t| t.text) {
            // `….local_queue.push_back(…)` and friends.
            Some(".") => toks.get(i + 2).is_some_and(|m| MUTATORS.contains(&m.text)),
            // `….in_flight = …`; `==` and `=>` are reads, not writes.
            Some("=") => !matches!(toks.get(i + 2).map(|t| t.text), Some("=") | Some(">")),
            _ => false,
        } || mut_borrowed(toks, i);
        // One finding per line: `&mut self.units[j].local_queue` is one
        // write site, not two.
        if mutated && findings.last().is_none_or(|l: &Finding| l.line != t.line) {
            findings.push(Finding {
                line: t.line,
                message: format!(
                    "`{}` is journal-managed cluster state: write it through the \
                     Cluster/SchedCtx snapshot API so the undo journal and the \
                     aggregate indices observe the mutation",
                    t.text
                ),
            });
        }
    }
    findings
}

/// Whether the field access ending at `toks[i]` sits under an `&mut`
/// borrow (`&mut self.units[j].local_queue`): walks back over the path
/// (identifiers, `.`, index brackets) to the borrow site.
fn mut_borrowed(toks: &[Tok<'_>], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        let path_part = t.text == "."
            || t.text == "["
            || t.text == "]"
            || (t.kind == TokKind::Ident && t.text != "mut")
            || t.kind == TokKind::Num;
        if !path_part {
            break;
        }
        j -= 1;
    }
    j >= 2 && toks[j - 1].text == "mut" && toks[j - 2].text == "&"
}

/// Flags every identifier token matching one of `names`, one finding
/// per source line.
fn idents(f: &FileCtx<'_>, names: &[&str], message: impl Fn(&str) -> String) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    for t in f.toks {
        if t.kind == TokKind::Ident && names.contains(&t.text) {
            if findings.last().is_some_and(|l| l.line == t.line) {
                continue; // one finding per line (e.g. `Instant::now` + use)
            }
            findings.push(Finding {
                line: t.line,
                message: message(t.text),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(rule_id: &str, rel: &str, krate: &str, src: &str) -> Vec<u32> {
        let toks: Vec<Tok<'_>> = tokenize(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let ctx = FileCtx {
            rel,
            krate,
            toks: &toks,
        };
        rule(rule_id)
            .expect("known rule")
            .check(&ctx)
            .into_iter()
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn hash_iter_scopes_to_deterministic_crates() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        assert_eq!(
            run("hash-iter", "crates/core/src/x.rs", "core", src),
            [1, 2]
        );
        assert!(run("hash-iter", "crates/faas/src/x.rs", "faas", src).is_empty());
        // Strings and comments never trigger.
        let quiet = "// HashMap\nfn f() { let s = \"HashMap\"; }";
        assert!(run("hash-iter", "crates/sim/src/x.rs", "sim", quiet).is_empty());
    }

    #[test]
    fn wall_clock_allowlists_bench_live_and_examples() {
        let src = "let t = std::time::Instant::now();";
        assert_eq!(
            run("wall-clock", "crates/sim/src/engine.rs", "sim", src),
            [1]
        );
        assert_eq!(
            run("wall-clock", "crates/faas/src/gateway.rs", "faas", src),
            [1]
        );
        assert!(run("wall-clock", "crates/bench/src/lib.rs", "bench", src).is_empty());
        assert!(run("wall-clock", "crates/core/src/live.rs", "core", src).is_empty());
        assert!(run("wall-clock", "examples/demo.rs", "gfaas", src).is_empty());
        assert_eq!(
            run(
                "wall-clock",
                "crates/gpu/src/x.rs",
                "gpu",
                "use std::time::SystemTime;"
            ),
            [1]
        );
    }

    #[test]
    fn obs_guard_accepts_guarded_and_flags_bare_emits() {
        let guarded = r#"
fn f(&mut self) {
    if self.recorder.is_some() {
        self.emit(ObsEvent::Arrival { req: 1 });
    }
    if let Some(r) = self.recorder.as_deref_mut() {
        r.record(now, &ObsEvent::QueueDepth { len: 0 });
    }
}
"#;
        assert!(run("obs-guard", "crates/core/src/cluster.rs", "core", guarded).is_empty());
        let bare = "fn f(&mut self) {\n    self.emit(ObsEvent::Arrival { req: 1 });\n}";
        assert_eq!(
            run("obs-guard", "crates/core/src/cluster.rs", "core", bare),
            [2]
        );
        // A boolean binding is not a guard: the `;` disarms it.
        let binding = "fn f(&mut self) {\n    let on = self.recorder.is_some();\n    if on {\n        self.emit(ObsEvent::Arrival { req: 1 });\n    }\n}";
        assert_eq!(
            run("obs-guard", "crates/core/src/cluster.rs", "core", binding),
            [4]
        );
        // Type positions (`ObsEvent<'_>`) are not constructors.
        let sig = "fn emit(&mut self, ev: ObsEvent<'_>) {}";
        assert!(run("obs-guard", "crates/core/src/cluster.rs", "core", sig).is_empty());
        // Outside gfaas-core the rule is silent (recorders match on events).
        assert!(run("obs-guard", "crates/obs/src/ledger.rs", "obs", bare).is_empty());
    }

    #[test]
    fn obs_guard_accepts_emit_with_closures_only() {
        let closure = r#"
fn f(&mut self) {
    self.emit_with(|_| ObsEvent::Arrival { req: 1 });
    self.cluster.emit_with(|c| {
        let g = c.gpu(0);
        ObsEvent::UnitIdle { gpu: g }
    });
}
"#;
        assert!(run("obs-guard", "crates/core/src/cluster.rs", "core", closure).is_empty());
        // Built before the call and moved in: the event exists even
        // without a recorder.
        let eager = "fn f(&mut self) {\n    let ev = ObsEvent::Arrival { req: 1 };\n    self.emit_with(move |_| ev);\n}";
        assert_eq!(
            run("obs-guard", "crates/core/src/cluster.rs", "core", eager),
            [2]
        );
        // The guarded region closes with the call's parenthesis.
        let after = "fn f(&mut self) {\n    self.emit_with(|_| ObsEvent::Arrival { req: 1 });\n    self.emit(ObsEvent::Completion { req: 1 });\n}";
        assert_eq!(
            run("obs-guard", "crates/core/src/cluster.rs", "core", after),
            [3]
        );
    }

    #[test]
    fn obs_guard_closes_with_the_block() {
        let src = r#"
fn f(&mut self) {
    if self.recorder.is_some() {
        self.emit(ObsEvent::Arrival { req: 1 });
    }
    self.emit(ObsEvent::Completion { req: 1 });
}
"#;
        assert_eq!(
            run("obs-guard", "crates/core/src/cluster.rs", "core", src),
            [6]
        );
    }

    #[test]
    fn no_unsafe_fires_everywhere() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        assert_eq!(
            run("no-unsafe", "crates/bench/src/lib.rs", "bench", src),
            [1]
        );
        assert_eq!(run("no-unsafe", "tests/x.rs", "gfaas", src), [1]);
    }

    #[test]
    fn snap_mutate_flags_writes_but_not_reads() {
        // Mutating method calls, assignments, and &mut borrows fire.
        let push = "fn f(ctx: &mut SchedCtx) { ctx.cluster.units[j].local_queue.push_back(r); }";
        assert_eq!(
            run("snap-mutate", "crates/core/src/scheduler.rs", "core", push),
            [1]
        );
        let assign = "fn f(u: &mut GpuUnit) { u.in_flight = None; }";
        assert_eq!(
            run("snap-mutate", "crates/core/src/batching.rs", "core", assign),
            [1]
        );
        let borrow = "let q = &mut self.units[3].local_queue;";
        assert_eq!(
            run(
                "snap-mutate",
                "crates/core/src/autoscale.rs",
                "core",
                borrow
            ),
            [1]
        );
        // Reads, comparisons, and lookalike locals stay silent.
        let reads = "let n = u.local_queue.len();\nif u.in_flight == None {}\nlet local_queue = VecDeque::new();\nlocal_queue.push_back(r);";
        assert!(run("snap-mutate", "crates/core/src/scheduler.rs", "core", reads).is_empty());
        // The write API itself and other crates are out of scope.
        assert!(run("snap-mutate", "crates/core/src/cluster.rs", "core", push).is_empty());
        assert!(run(
            "snap-mutate",
            "crates/core/src/gpu_manager.rs",
            "core",
            push
        )
        .is_empty());
        assert!(run("snap-mutate", "crates/store/src/lib.rs", "store", push).is_empty());
    }

    #[test]
    fn float_ord_flags_calls_and_float_keys_but_not_defs() {
        let call = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(
            run("float-ord", "crates/sim/src/stats.rs", "sim", call),
            [1]
        );
        let def = "impl PartialOrd for E {\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }\n}";
        assert!(run("float-ord", "crates/sim/src/event.rs", "sim", def).is_empty());
        let key = "let m: BTreeMap<f64, u32> = BTreeMap::new();";
        assert_eq!(run("float-ord", "crates/core/src/x.rs", "core", key), [1]);
        let total = "xs.sort_by(|a, b| a.total_cmp(b));";
        assert!(run("float-ord", "crates/core/src/x.rs", "core", total).is_empty());
        assert!(run("float-ord", "crates/bench/src/lib.rs", "bench", call).is_empty());
    }
}
