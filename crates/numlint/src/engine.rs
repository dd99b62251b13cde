//! Rule-engine plumbing: file classification, test-region detection,
//! `numlint:allow` suppression, diagnostic assembly, and the
//! workspace-level pass that runs the interprocedural rules (PANIC02 /
//! DET03 / SAFE01) over the call graph built from every file's
//! extracted symbols.

use crate::callgraph;
use crate::effects::{self, ChainStep};
use crate::lexer::{self, Lexed, TokKind};
use crate::rules::{self, RULES};
use crate::symbols::{self, FileSymbols, EFF_CLOCK, EFF_GATED_PANIC};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

/// The crates whose public APIs promise `Result`-based error
/// propagation (PR 2); PANIC01/ERR01 apply only to their `src/` trees.
/// `obs` joined in PR 4: telemetry sits below every numeric crate, so a
/// panicking span would abort the very solvers it observes. `serve`
/// joined with the reduction service: a panicking daemon drops every
/// queued job, so its socket and codec paths must propagate errors.
pub const LIBRARY_CRATES: [&str; 8] =
    ["obs", "numkit", "sparsekit", "lti", "circuits", "krylov", "pmtbr", "serve"];

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/<name>/src/**` for one of the workspace crates.
    CrateSrc(String),
    /// Workspace-root `src/**` (the `pmtbr-suite` integration lib).
    RootSrc,
    /// Integration tests (`tests/**` anywhere) — exempt from all rules.
    TestFile,
    /// `examples/**` — exempt from all rules.
    Example,
}

impl FileClass {
    /// Classifies a workspace-relative path (forward slashes).
    pub fn classify(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        if parts.contains(&"tests") {
            return FileClass::TestFile;
        }
        if parts.contains(&"examples") {
            return FileClass::Example;
        }
        if parts.len() >= 3 && parts[0] == "crates" && parts[2] == "src" {
            return FileClass::CrateSrc(parts[1].to_string());
        }
        if parts.first() == Some(&"src") {
            return FileClass::RootSrc;
        }
        // Anything else (build scripts, stray .rs) gets the root-src
        // treatment: workspace-wide rules, no crate-scoped ones.
        FileClass::RootSrc
    }

    /// True if PANIC01/ERR01 apply (the six library crates' src trees).
    pub fn is_library_src(&self) -> bool {
        matches!(self, FileClass::CrateSrc(c) if LIBRARY_CRATES.contains(&c.as_str()))
    }

    /// True if the file belongs to `crates/bench` (DET02 exempt).
    pub fn is_bench(&self) -> bool {
        matches!(self, FileClass::CrateSrc(c) if c == "bench")
    }

    /// True if the file belongs to `crates/obs`, where DET02 exempts
    /// wall-clock reads *inside* `WallClock` items only — the one
    /// sanctioned clock implementation behind the `obs::Clock` trait.
    pub fn is_obs(&self) -> bool {
        matches!(self, FileClass::CrateSrc(c) if c == "obs")
    }

    /// The single type, if any, inside whose items this file's crate
    /// may read the wall clock: `obs::WallClock` (the opt-in trace
    /// clock) and `serve::Deadline` (the submission timeout — timing
    /// that bounds socket waits, never results). DET02 and the DET03
    /// seed extraction share this table, so the structural carve-out
    /// and the transitive one can never disagree.
    pub fn clock_carveout_type(&self) -> Option<&'static str> {
        match self {
            FileClass::CrateSrc(c) if c == "obs" => Some("WallClock"),
            FileClass::CrateSrc(c) if c == "serve" => Some("Deadline"),
            _ => None,
        }
    }

    /// True if FLOAT02 applies (numkit/sparsekit kernel crates).
    pub fn is_kernel_crate(&self) -> bool {
        matches!(self, FileClass::CrateSrc(c) if c == "numkit" || c == "sparsekit")
    }

    /// True if the whole file is test/example code and no rule applies.
    pub fn is_exempt(&self) -> bool {
        matches!(self, FileClass::TestFile | FileClass::Example)
    }
}

/// One finding, positioned in a file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub line: usize,
    pub col: usize,
    pub rule: &'static str,
    pub message: String,
    /// For interprocedural findings (PANIC02/DET03): the witness call
    /// chain from the flagged function's first callee down to the seed
    /// site. Empty for per-file findings.
    pub chain: Vec<ChainStep>,
}

/// Everything rules need to inspect one file.
pub struct FileContext {
    pub class: FileClass,
    pub lexed: Lexed,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items and
    /// `#[test]` functions.
    pub test_regions: Vec<RangeInclusive<usize>>,
    /// Per-line suppressions: (line, rule id). A suppression on line L
    /// silences that rule on L; a comment-only line suppresses the next
    /// code line instead.
    allows: BTreeSet<(usize, String)>,
    /// Lines that hold at least one code token (used to resolve
    /// comment-only allow lines to the following code line).
    code_lines: BTreeSet<usize>,
    /// Malformed suppression comments, reported as LINT00.
    pub bad_allows: Vec<Diagnostic>,
}

impl FileContext {
    /// Lexes `src` and precomputes test regions and suppressions.
    pub fn new(class: FileClass, src: &str) -> FileContext {
        let lexed = lexer::lex(src);
        let test_regions = find_test_regions(&lexed);
        let code_lines: BTreeSet<usize> = lexed.tokens.iter().map(|t| t.line).collect();
        let mut ctx = FileContext {
            class,
            lexed,
            test_regions,
            allows: BTreeSet::new(),
            code_lines,
            bad_allows: Vec::new(),
        };
        ctx.collect_allows();
        ctx
    }

    /// True if `line` falls inside test code.
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&line))
    }

    /// True if `rule` is suppressed on `line`.
    pub fn is_allowed(&self, line: usize, rule: &str) -> bool {
        self.allows.contains(&(line, rule.to_string()))
    }

    /// Parses `numlint:allow(RULE[, RULE…]) reason` comments. The allow
    /// applies to the comment's own line if it holds code, otherwise to
    /// the next line that does.
    fn collect_allows(&mut self) {
        let mut parsed: Vec<(usize, Vec<String>)> = Vec::new();
        for c in &self.lexed.comments {
            // Doc comments (`///`, `//!`, `/** */`) are prose about the
            // tool, not suppressions; only implementation comments that
            // actually open a rule list are suppression attempts.
            if matches!(c.text.as_bytes().first(), Some(b'/' | b'!' | b'*')) {
                continue;
            }
            let Some(at) = c.text.find("numlint:allow(") else { continue };
            let rest = &c.text[at + "numlint:allow".len()..];
            let open = rest.trim_start();
            let valid = (|| {
                let body = open.strip_prefix('(')?;
                let close = body.find(')')?;
                let ids: Vec<String> = body[..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if ids.is_empty() || !ids.iter().all(|id| rules::is_known_rule(id)) {
                    return None;
                }
                // A justification after the closing paren is mandatory:
                // bare allows rot into unreviewable noise.
                let reason = body[close + 1..].trim();
                if reason.is_empty() {
                    return None;
                }
                Some(ids)
            })();
            match valid {
                Some(ids) => parsed.push((c.line, ids)),
                None => self.bad_allows.push(Diagnostic {
                    line: c.line,
                    col: 1,
                    rule: "LINT00",
                    message: format!(
                        "malformed suppression `{}`: expected `numlint:allow(RULE_ID[, …]) reason` \
                         with known rule ids and a non-empty reason",
                        c.text.trim()
                    ),
                    chain: Vec::new(),
                }),
            }
        }
        for (line, ids) in parsed {
            let target = if self.code_lines.contains(&line) {
                line
            } else {
                // Comment-only line: attach to the next code line.
                match self.code_lines.range(line + 1..).next() {
                    Some(&l) => l,
                    None => continue,
                }
            };
            for id in ids {
                self.allows.insert((target, id));
            }
        }
    }

    /// Runs every applicable rule and returns sorted diagnostics with
    /// suppressions and test regions already applied.
    pub fn run(&self) -> Vec<Diagnostic> {
        let mut out: Vec<Diagnostic> = Vec::new();
        if !self.class.is_exempt() {
            for rule in RULES {
                if (rule.applies)(&self.class) {
                    (rule.check)(self, &mut out);
                }
            }
            out.retain(|d| !self.in_test_code(d.line) && !self.is_allowed(d.line, d.rule));
        }
        // Malformed allows are reported even in exempt files — a broken
        // suppression is a tooling bug wherever it lives.
        out.extend(self.bad_allows.iter().cloned());
        out.sort();
        out.dedup();
        out
    }

    /// All (line, rule) suppressions, exported so the workspace pass can
    /// honor `numlint:allow(PANIC02/DET03/SAFE01)` at declaration lines.
    pub fn workspace_allows(&self) -> Vec<(usize, String)> {
        self.allows.iter().cloned().collect()
    }
}

/// The complete analysis of one file: per-file diagnostics plus the
/// extracted symbols the workspace pass consumes. Everything downstream
/// of it (call graph, fixpoint, interprocedural rules) is computed from
/// the analyses of every file at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileAnalysis {
    pub class: FileClass,
    /// Per-file findings, with suppressions and test regions applied.
    pub diags: Vec<Diagnostic>,
    /// Function table and `use` aliases for the workspace call graph.
    pub symbols: FileSymbols,
    /// Every `numlint:allow` target in the file, so workspace rules can
    /// check suppressions at fn-declaration lines.
    pub allows: Vec<(usize, String)>,
    /// True if the file declares `#![forbid(unsafe_code)]` (SAFE01).
    pub has_forbid_unsafe: bool,
}

/// Runs the per-file rules and symbol extraction over one source file.
pub fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let class = FileClass::classify(path);
    let ctx = FileContext::new(class.clone(), src);
    let diags = ctx.run();
    let symbols = if class.is_exempt() {
        FileSymbols::default()
    } else {
        let wallclock = match class.clock_carveout_type() {
            Some(name) => rules::wallclock_extents(&ctx.lexed.tokens, name),
            None => Vec::new(),
        };
        let mut syms = symbols::extract(path, &class, &ctx.lexed, &ctx.test_regions, &wallclock);
        // An allow at the seed line for the matching workspace rule
        // removes the seed itself, so sanctioned sites (deliberate fault
        // injection, clock shims) do not radiate chains into every
        // transitive caller.
        for f in &mut syms.fns {
            f.seeds.retain(|s| {
                let rule = if s.effect == EFF_CLOCK { "DET03" } else { "PANIC02" };
                !ctx.is_allowed(s.line, rule)
            });
        }
        syms
    };
    FileAnalysis {
        has_forbid_unsafe: has_forbid_unsafe(&ctx.lexed),
        allows: ctx.workspace_allows(),
        class,
        diags,
        symbols,
    }
}

/// True if the token stream contains a `forbid(unsafe_code)` attribute
/// body (SAFE01 looks for the crate-root `#![forbid(unsafe_code)]`).
fn has_forbid_unsafe(lexed: &Lexed) -> bool {
    let toks = &lexed.tokens;
    toks.iter().enumerate().any(|(i, t)| {
        t.is_ident("forbid")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("unsafe_code"))
    })
}

/// Crates whose `lib.rs` must pin `#![forbid(unsafe_code)]` (SAFE01):
/// the library crates plus `bench`. Only crates whose `lib.rs` is
/// present in the analyzed set are checked, so partial file sets (the
/// fixture workspaces) never produce missing-crate noise.
const SAFE01_CRATES: [&str; 9] =
    ["obs", "numkit", "sparsekit", "lti", "circuits", "krylov", "pmtbr", "serve", "bench"];

/// Runs the interprocedural rules over the whole analyzed file set:
///
/// - **PANIC02** — a `pub fn … -> Result` in a library crate's `src/`
///   must not *transitively* reach an ungated panic site (`panic!` /
///   `.unwrap()` / `.expect(`) through workspace calls. Direct seeds in
///   the fn's own body are PANIC01/ERR01 territory and not re-reported.
/// - **DET03** — no fn outside `crates/bench` and the `obs::WallClock`
///   carve-out may transitively reach a wall-clock read.
/// - **SAFE01** — each library crate's `lib.rs` carries
///   `#![forbid(unsafe_code)]`.
///
/// Returns `(file, diagnostic)` pairs sorted by path then position.
pub fn workspace_diagnostics(files: &BTreeMap<String, FileAnalysis>) -> Vec<(String, Diagnostic)> {
    let g = callgraph::build(files);
    let eff = effects::fixpoint(&g);
    let allowed = |file: &str, line: usize, rule: &str| {
        files
            .get(file)
            .is_some_and(|fa| fa.allows.iter().any(|(l, r)| *l == line && r == rule))
    };
    let mut out: Vec<(String, Diagnostic)> = Vec::new();
    for (id, f) in g.fns.iter().enumerate() {
        let Some(class) = files.get(&f.file).map(|fa| &fa.class) else { continue };
        let reach = effects::reach_via_calls(&g, &eff, id);
        if class.is_library_src()
            && f.is_pub
            && f.returns_result
            && reach & EFF_GATED_PANIC != 0
            && !allowed(&f.file, f.line, "PANIC02")
        {
            let chain = effects::witness_chain(&g, &eff, id, EFF_GATED_PANIC).unwrap_or_default();
            out.push((
                f.file.clone(),
                Diagnostic {
                    line: f.line,
                    col: f.col,
                    rule: "PANIC02",
                    message: format!(
                        "pub fn `{}` returns Result but can transitively reach a panic site; \
                         propagate a NumError or contain the callee with catch_unwind",
                        f.qual
                    ),
                    chain,
                },
            ));
        }
        if !class.is_bench()
            && !f.in_wallclock
            && reach & EFF_CLOCK != 0
            && !allowed(&f.file, f.line, "DET03")
        {
            let chain = effects::witness_chain(&g, &eff, id, EFF_CLOCK).unwrap_or_default();
            out.push((
                f.file.clone(),
                Diagnostic {
                    line: f.line,
                    col: f.col,
                    rule: "DET03",
                    message: format!(
                        "fn `{}` transitively reads the wall clock; keep timing in \
                         crates/bench or behind obs::WallClock / serve::Deadline",
                        f.qual
                    ),
                    chain,
                },
            ));
        }
    }
    for c in SAFE01_CRATES {
        let lib = format!("crates/{c}/src/lib.rs");
        let Some(fa) = files.get(&lib) else { continue };
        if !fa.has_forbid_unsafe && !allowed(&lib, 1, "SAFE01") {
            out.push((
                lib.clone(),
                Diagnostic {
                    line: 1,
                    col: 1,
                    rule: "SAFE01",
                    message: format!(
                        "crate `{c}` must declare `#![forbid(unsafe_code)]` in its lib.rs"
                    ),
                    chain: Vec::new(),
                },
            ));
        }
    }
    out.sort();
    out
}

/// Finds line ranges of `#[cfg(test)]` items and `#[test]` functions by
/// scanning the token stream and matching braces.
///
/// Heuristic, not a parser: after the attribute we take the next `{` at
/// or below the current nesting level as the item body, unless a `;`
/// intervenes at item level first (e.g. `#[cfg(test)] use …;`), in
/// which case the attribute guards a braceless item and covers only the
/// lines up to that `;`.
fn find_test_regions(lexed: &Lexed) -> Vec<RangeInclusive<usize>> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_test_attribute(toks, i) {
            let attr_line = toks[i].line;
            // Skip past the attribute's closing `]`.
            let mut j = i;
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            // Find the item body `{`, stopping at an item-level `;`.
            let mut k = j + 1;
            let mut brace: Option<usize> = None;
            let mut guard = 0i32;
            while k < toks.len() {
                match &toks[k].kind {
                    TokKind::Punct("{") if guard == 0 => {
                        brace = Some(k);
                        break;
                    }
                    TokKind::Punct(";") if guard == 0 => break,
                    TokKind::Punct("(") | TokKind::Punct("[") => guard += 1,
                    TokKind::Punct(")") | TokKind::Punct("]") => guard -= 1,
                    _ => {}
                }
                k += 1;
            }
            if let Some(open) = brace {
                let mut level = 0i32;
                let mut end = open;
                for (m, t) in toks.iter().enumerate().skip(open) {
                    if t.is_punct("{") {
                        level += 1;
                    } else if t.is_punct("}") {
                        level -= 1;
                        if level == 0 {
                            end = m;
                            break;
                        }
                    }
                }
                regions.push(attr_line..=toks[end].line);
                i = end + 1;
                continue;
            } else if k < toks.len() {
                regions.push(attr_line..=toks[k].line);
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// True if tokens at `i` start `#[test]`, `#[cfg(test)]`, or
/// `#[cfg(all(test, …))]`-style attributes mentioning `test`.
fn is_test_attribute(toks: &[lexer::Token], i: usize) -> bool {
    if !toks[i].is_punct("#") || !toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
        return false;
    }
    let Some(head) = toks.get(i + 2) else { return false };
    if head.is_ident("test") {
        return true;
    }
    if head.is_ident("cfg") {
        // Scan the attribute body for a bare `test` ident.
        let mut depth = 0i32;
        for t in &toks[i + 1..] {
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("test") {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileContext {
        FileContext::new(FileClass::CrateSrc("numkit".into()), src)
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            FileClass::classify("crates/numkit/src/svd.rs"),
            FileClass::CrateSrc("numkit".into())
        );
        assert_eq!(FileClass::classify("crates/lti/tests/adversarial.rs"), FileClass::TestFile);
        assert_eq!(
            FileClass::classify("crates/numlint/tests/fixtures/det01.rs"),
            FileClass::TestFile
        );
        assert_eq!(FileClass::classify("src/lib.rs"), FileClass::RootSrc);
        assert_eq!(FileClass::classify("examples/reduce.rs"), FileClass::Example);
        assert!(FileClass::classify("crates/pmtbr/src/par.rs").is_library_src());
        assert!(!FileClass::classify("crates/bench/src/lib.rs").is_library_src());
        assert!(FileClass::classify("crates/bench/src/lib.rs").is_bench());
        assert!(FileClass::classify("crates/obs/src/clock.rs").is_library_src());
        assert!(FileClass::classify("crates/obs/src/clock.rs").is_obs());
        assert!(!FileClass::classify("crates/numkit/src/par.rs").is_obs());
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let c = ctx(src);
        assert!(!c.in_test_code(1));
        assert!(c.in_test_code(2));
        assert!(c.in_test_code(4));
        assert!(!c.in_test_code(6));
    }

    #[test]
    fn test_regions_cover_test_fn_and_stop_at_semicolon_items() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn live() {}\n#[test]\nfn t() {\n    let x = 1;\n}\nfn live2() {}\n";
        let c = ctx(src);
        // `use` item: region is just the attribute + use lines.
        assert!(c.in_test_code(2));
        assert!(!c.in_test_code(3));
        assert!(c.in_test_code(6));
        assert!(!c.in_test_code(8));
    }

    #[test]
    fn allow_same_line_and_next_line() {
        let src = "let a = x.f(); // numlint:allow(PANIC01) deliberate\n\
                   // numlint:allow(FLOAT01, FLOAT02) exact sentinel check\n\
                   let b = y;\n";
        let c = ctx(src);
        assert!(c.is_allowed(1, "PANIC01"));
        assert!(!c.is_allowed(1, "FLOAT01"));
        assert!(c.is_allowed(3, "FLOAT01"));
        assert!(c.is_allowed(3, "FLOAT02"));
        assert!(c.bad_allows.is_empty());
    }

    #[test]
    fn malformed_allows_reported() {
        let bad = [
            "let a = 1; // numlint:allow(PANIC01)",       // missing reason
            "let a = 1; // numlint:allow(NOSUCH) reason", // unknown rule
            "let a = 1; // numlint:allow() reason",       // no ids
        ];
        for src in bad {
            let c = ctx(src);
            assert_eq!(c.bad_allows.len(), 1, "src: {src}");
            assert_eq!(c.bad_allows[0].rule, "LINT00");
        }
    }

    fn ws(files: &[(&str, &str)]) -> Vec<(String, Diagnostic)> {
        let mut map = BTreeMap::new();
        for (path, src) in files {
            map.insert(path.to_string(), analyze_file(path, src));
        }
        workspace_diagnostics(&map)
    }

    #[test]
    fn panic02_fires_across_crates_with_chain() {
        let d = ws(&[
            (
                "crates/pmtbr/src/pipeline.rs",
                "pub fn run() -> Result<(), E> { numkit::svd::compress(); Ok(()) }\n",
            ),
            (
                "crates/numkit/src/svd.rs",
                "pub fn compress() { jacobi_step(); }\nfn jacobi_step() { x.unwrap(); }\n",
            ),
        ]);
        let p: Vec<_> = d.iter().filter(|(_, d)| d.rule == "PANIC02").collect();
        // Fires on `run` (reaches the panic through calls); `compress`
        // is not Result-returning so PANIC02 skips it.
        assert_eq!(p.len(), 1, "{d:?}");
        assert_eq!(p[0].0, "crates/pmtbr/src/pipeline.rs");
        assert!(!p[0].1.chain.is_empty());
        let rendered = effects::render_chain(&p[0].1.chain);
        assert!(rendered.contains("jacobi_step"), "{rendered}");
    }

    #[test]
    fn panic02_respects_decl_line_allow_and_seed_line_allow() {
        // Decl-line allow.
        let d = ws(&[
            (
                "crates/lti/src/a.rs",
                "// numlint:allow(PANIC02) adversarial probe is pool-contained\n\
                 pub fn top() -> Result<(), E> { crate::b::boom(); Ok(()) }\n",
            ),
            ("crates/lti/src/b.rs", "pub fn boom() { panic!(\"x\"); }\n"),
        ]);
        assert!(d.iter().all(|(_, d)| d.rule != "PANIC02"), "{d:?}");
        // Seed-line allow removes the seed for every caller.
        let d = ws(&[
            (
                "crates/lti/src/a.rs",
                "pub fn top() -> Result<(), E> { crate::b::boom(); Ok(()) }\n",
            ),
            (
                "crates/lti/src/b.rs",
                "pub fn boom() { panic!(\"x\"); // numlint:allow(PANIC01, PANIC02) fault injection\n}\n",
            ),
        ]);
        assert!(d.iter().all(|(_, d)| d.rule != "PANIC02"), "{d:?}");
    }

    #[test]
    fn det03_fires_outside_bench_and_wallclock() {
        let d = ws(&[
            (
                "crates/lti/src/a.rs",
                "pub fn tick() { crate::b::stamp(); }\n",
            ),
            (
                "crates/lti/src/b.rs",
                "pub fn stamp() { let _ = Instant::now(); }\n",
            ),
        ]);
        let det: Vec<_> = d.iter().filter(|(_, d)| d.rule == "DET03").collect();
        assert_eq!(det.len(), 1, "{d:?}");
        assert_eq!(det[0].0, "crates/lti/src/a.rs");
        // The same chain from bench is sanctioned.
        let d = ws(&[
            ("crates/bench/src/lib.rs", "pub fn tick() { lti::b::stamp(); }\n"),
            ("crates/lti/src/b.rs", "pub fn stamp() { let _ = Instant::now(); }\n"),
        ]);
        assert!(d.iter().all(|(f, d)| !(d.rule == "DET03" && f.contains("bench"))), "{d:?}");
    }

    #[test]
    fn safe01_requires_forbid_unsafe_in_present_lib_rs() {
        let d = ws(&[
            ("crates/krylov/src/lib.rs", "pub fn arnoldi() {}\n"),
            ("crates/lti/src/lib.rs", "#![forbid(unsafe_code)]\npub fn sys() {}\n"),
        ]);
        let s: Vec<_> = d.iter().filter(|(_, d)| d.rule == "SAFE01").collect();
        assert_eq!(s.len(), 1, "{d:?}");
        assert_eq!(s[0].0, "crates/krylov/src/lib.rs");
        // Absent crates are not reported.
        assert!(!d.iter().any(|(f, _)| f.contains("numkit")));
    }
}
