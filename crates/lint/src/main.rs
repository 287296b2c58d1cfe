//! The `rfly-lint` CLI driver.
//!
//! ```text
//! cargo run -p rfly-lint -- --workspace [--root <dir>] [--json <file|->] [--list-rules]
//! ```
//!
//! Exit codes: 0 = clean, 1 = violations, 2 = usage/IO error.

use std::fmt::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use rfly_lint::{lint_workspace, Finding, RULES};
use rfly_obs::report::json_str;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut root = PathBuf::from(".");
    let mut json_path: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs a path"),
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => return usage("--json needs a path (or `-` for stdout)"),
            },
            "--list-rules" => {
                for (slug, desc) in RULES {
                    println!("{slug:20} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return usage("pass --workspace to scan the workspace");
    }

    let run = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rfly-lint: IO error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_path {
        let text = render_json(&run.findings);
        if path == "-" {
            println!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            eprintln!("rfly-lint: cannot write JSON to {path}: {e}");
            return ExitCode::from(2);
        }
    }

    for f in &run.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    println!(
        "rfly-lint: {} violation(s); {} files",
        run.findings.len(),
        run.files,
    );
    if run.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders findings as a JSON artifact (no external deps, so by hand).
fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"version\": 3,\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i + 1 == findings.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \
             \"message\": {}, \"line_text\": {}}}{sep}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message),
            json_str(&f.line_text),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "rfly-lint: {err}\n\
         usage: rfly-lint --workspace [--root <dir>] [--json <file|->] [--list-rules]"
    );
    ExitCode::from(2)
}
