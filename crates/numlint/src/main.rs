//! CLI driver: `cargo run -p numlint -- check [flags]`, plus the
//! documentation-consistency pass `numlint doccheck` (see [`numlint::doccheck`]).
//!
//! A `check` run has three stages:
//!
//! 1. **Per-file analysis** — lex, per-file rules, symbol extraction.
//! 2. **Workspace pass** — call graph + effect fixpoint + the
//!    interprocedural rules (PANIC02/DET03/SAFE01), over every file at
//!    once.
//! 3. **Reporting** — every finding, as text (with witness call chains
//!    on their own `chain |` lines) or `--json` (chains as structured
//!    arrays).
//!
//! Exit codes: `0` clean, `2` at least one finding, `1` usage or I/O
//! error. `scripts/check.sh` treats any non-zero status as a gate
//! failure.

use numlint::engine::{analyze_file, workspace_diagnostics, Diagnostic, FileAnalysis};
use numlint::rules::{RULES, WORKSPACE_RULES};
use numlint::walk;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
numlint — in-tree static analysis for the PMTBR workspace

USAGE:
    numlint check [--json] [--root DIR]
    numlint doccheck [--root DIR]
    numlint rules

FLAGS (check):
    --json               One JSON diagnostic per line (machine-readable)
    --root DIR           Workspace root (default: nearest [workspace] above cwd)
";

struct Args {
    json: bool,
    root: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { json: false, root: None };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--root" => {
                let v = it.next().ok_or("--root requires a directory")?;
                args.root = Some(PathBuf::from(v));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Minimal JSON string escaping (zero-dependency by design).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn emit(path: &str, d: &Diagnostic, src_line: Option<&str>, json: bool) {
    if json {
        let chain: Vec<String> = d
            .chain
            .iter()
            .map(|s| {
                format!(
                    "{{\"label\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                    json_escape(&s.label),
                    json_escape(&s.file),
                    s.line
                )
            })
            .collect();
        println!(
            "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\",\"chain\":[{}]}}",
            json_escape(path),
            d.line,
            d.col,
            json_escape(d.rule),
            json_escape(&d.message),
            chain.join(",")
        );
    } else {
        println!("{path}:{}:{} {} {}", d.line, d.col, d.rule, d.message);
        if let Some(text) = src_line {
            println!("    | {}", text.trim_end());
        }
        if !d.chain.is_empty() {
            println!("    chain | {}", numlint::effects::render_chain(&d.chain));
        }
    }
}

fn run_doccheck(argv: &[String]) -> Result<ExitCode, String> {
    let mut root = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a value")?;
                root = Some(PathBuf::from(v));
            }
            other => return Err(format!("unknown doccheck flag `{other}`")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            walk::find_workspace_root(&cwd)
        }
    };
    let findings = numlint::doccheck::run(&root)?;
    for f in &findings {
        if f.line == 0 {
            println!("{} [{}] {}", f.file, f.rule, f.message);
        } else {
            println!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message);
        }
    }
    if findings.is_empty() {
        eprintln!("numlint doccheck: clean");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("numlint doccheck: {} finding(s)", findings.len());
        Ok(ExitCode::from(2))
    }
}

fn run_check(args: &Args) -> Result<ExitCode, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = match &args.root {
        Some(r) => r.clone(),
        None => walk::find_workspace_root(&cwd),
    };
    let files = walk::workspace_rs_files(&root)
        .map_err(|e| format!("walking {}: {e}", root.display()))?;

    // Stage 1: per-file analyses.
    let mut analyses: BTreeMap<String, FileAnalysis> = BTreeMap::new();
    let mut sources: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let full = root.join(rel);
        let src = fs::read_to_string(&full)
            .map_err(|e| format!("reading {}: {e}", full.display()))?;
        let fa = analyze_file(&rel_str, &src);
        sources.insert(rel_str.clone(), src.lines().map(str::to_string).collect());
        analyses.insert(rel_str, fa);
    }

    // Stage 2: the workspace pass over every file's analysis.
    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    for (path, fa) in &analyses {
        findings.extend(fa.diags.iter().cloned().map(|d| (path.clone(), d)));
    }
    findings.extend(workspace_diagnostics(&analyses));
    findings.sort();

    for (path, d) in &findings {
        let line = sources
            .get(path)
            .and_then(|ls| ls.get(d.line.saturating_sub(1)))
            .map(String::as_str);
        emit(path, d, line, args.json);
    }
    if !args.json {
        if findings.is_empty() {
            eprintln!("numlint: clean — {} file(s) checked", files.len());
        } else {
            eprintln!(
                "numlint: {} finding(s) — fix, or `// numlint:allow(RULE) reason`",
                findings.len()
            );
        }
    }
    Ok(if findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("check") => match parse_args(&argv[1..]) {
            Ok(args) => match run_check(&args) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("numlint: error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("numlint: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("doccheck") => match run_doccheck(&argv[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("numlint: error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("rules") => {
            for r in RULES {
                println!("{:8} {}", r.id, r.summary);
            }
            for (id, summary) in WORKSPACE_RULES {
                println!("{id:8} {summary}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
