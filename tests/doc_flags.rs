//! Documented commands name only flags their binary accepts.
//!
//! Every shipped binary and bench harness has a `const USAGE`. All but
//! `trace_report` (whose trace path is positional) and `perf` parse
//! their arguments with `esse::cli::args(USAGE)`, which exits 2 on a
//! `--flag` its `USAGE` does not list; those two reject an unknown flag
//! themselves. So a doc that shows such a flag shows a command that
//! fails. This test reads the command snippets of README.md,
//! EXPERIMENTS.md, DESIGN.md, `docs/*.md` and the verify notes — fenced
//! blocks (backslash continuations joined) and inline code — and the
//! `run:` steps of the CI workflow, and checks every `--flag` that
//! follows `esse_master`, `esse_worker`, `pert`, `pemodel` or
//! `--bin NAME --` against that binary's `const USAGE`. Binaries without
//! a `USAGE` const are skipped.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The shipped binaries a snippet may call by name.
const SHIPPED: [&str; 4] = ["esse_master", "esse_worker", "pert", "pemodel"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The markdown files and the CI workflow whose commands are checked.
fn docs() -> Vec<PathBuf> {
    let mut extra: Vec<PathBuf> = fs::read_dir(root().join("docs"))
        .expect("docs/")
        .map(|e| e.expect("entry").path())
        .collect();
    extra.sort();
    let named = [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ];
    named
        .iter()
        .map(|f| root().join(f))
        .chain(extra.into_iter().filter(|p| p.extension().is_some_and(|x| x == "md")))
        .filter(|p| p.exists())
        .collect()
}

/// The `--flag` a token starts with (after a leading `[`, `(` or quote).
fn flag_of(token: &str) -> Option<String> {
    let name = token.trim_start_matches(['[', '(', '"', '\'']).strip_prefix("--")?;
    let name: String = name
        .chars()
        .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
        .collect();
    name.starts_with(|c: char| c.is_ascii_lowercase()).then(|| format!("--{name}"))
}

/// Every distinct flag in the `const USAGE` literal of `name`'s source,
/// or `None` when the binary has no source here or no `USAGE` const.
fn usage_flags(name: &str) -> Option<BTreeSet<String>> {
    let mut sources = vec![root().join("src/bin").join(format!("{name}.rs"))];
    for entry in fs::read_dir(root().join("crates")).expect("crates/") {
        let krate = entry.expect("crates/ entry").path();
        sources.push(krate.join("src/bin").join(format!("{name}.rs")));
    }
    // A package whose only binary is `src/main.rs` (`--bin perf`).
    sources.push(root().join("crates").join(name).join("src/main.rs"));
    let source = sources.iter().find_map(|p| fs::read_to_string(p).ok())?;
    let usage = &source[source.find("const USAGE")?..];
    let usage = &usage[..usage.find("\";")?];
    Some(usage.split(|c: char| c.is_whitespace() || c == '|').filter_map(flag_of).collect())
}

/// The command snippets of a markdown doc: each line of a fenced block
/// (a trailing `\` joins the next line) and each inline code span.
fn snippets(doc: &str) -> Vec<String> {
    let (mut out, mut fenced, mut joined) = (Vec::new(), false, String::new());
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            out.extend(line.split('`').skip(1).step_by(2).map(str::to_string));
        } else if let Some(head) = line.trim_end().strip_suffix('\\') {
            joined.push_str(head);
            joined.push(' ');
        } else {
            joined.push_str(line);
            out.push(std::mem::take(&mut joined));
        }
    }
    out
}

/// The `run:` steps of a GitHub workflow as fenced blocks for
/// [`snippets`]: an inline `run: CMD`, or the lines of a `run: |` block
/// (those indented deeper than its `run:`).
fn run_blocks(yaml: &str) -> String {
    let (mut out, mut block) = (String::new(), None);
    for line in yaml.lines() {
        let indent = line.len() - line.trim_start().len();
        match block {
            Some(depth) if indent > depth || line.trim().is_empty() => {
                out.push_str(line.trim());
                out.push('\n');
                continue;
            }
            Some(_) => out.push_str("```\n"),
            None => {}
        }
        block = None;
        match line.trim_start().trim_start_matches("- ").strip_prefix("run:").map(str::trim) {
            Some("|") => {
                out.push_str("```\n");
                block = Some(indent);
            }
            Some(cmd) => out.push_str(&format!("```\n{cmd}\n```\n")),
            None => {}
        }
    }
    if block.is_some() {
        out.push_str("```\n");
    }
    out
}

/// `(binary, flag)` for every flag a snippet passes to a binary: after a
/// shipped binary's name, or after the `--` that follows `--bin NAME`,
/// up to a shell separator, a comment or the next command.
fn invocations(snippet: &str) -> Vec<(String, String)> {
    let (mut out, mut binary, mut past_separator) = (Vec::new(), None::<String>, false);
    let mut tokens = snippet.split_whitespace();
    while let Some(token) = tokens.next() {
        let bare = token.trim_end_matches([')', ',', '.', ':', ';']);
        let base = bare.rsplit('/').next().unwrap_or(bare);
        if token.starts_with('#') {
            break;
        } else if matches!(token, "|" | "||" | "&&" | "&" | ";") {
            binary = None;
        } else if token == "--bin" {
            binary = tokens.next().map(str::to_string);
            past_separator = false;
        } else if token == "--" {
            past_separator = true;
        } else if SHIPPED.contains(&base) {
            binary = Some(base.to_string());
            past_separator = true;
        } else if let (Some(bin), true, Some(flag)) = (&binary, past_separator, flag_of(token)) {
            out.push((bin.clone(), flag));
        }
    }
    out
}

#[test]
fn documented_commands_name_only_flags_their_binary_accepts() {
    let mut usages: BTreeMap<String, Option<BTreeSet<String>>> = BTreeMap::new();
    let (mut checked, mut unknown) = (0, Vec::new());
    for doc in docs() {
        let mut text = fs::read_to_string(&doc).expect("read doc");
        if doc.extension().is_some_and(|x| x == "yml") {
            text = run_blocks(&text);
        }
        for (binary, flag) in snippets(&text).iter().flat_map(|s| invocations(s)) {
            let usage = usages.entry(binary.clone()).or_insert_with(|| usage_flags(&binary));
            let Some(usage) = usage else { continue };
            checked += 1;
            if !usage.contains(&flag) {
                let doc = doc.strip_prefix(root()).unwrap_or(&doc).display().to_string();
                unknown.push(format!("{doc}: {binary} {flag}"));
            }
        }
    }
    assert!(checked >= 50, "only {checked} documented flags found: is the scan broken?");
    assert!(unknown.is_empty(), "documented flags the binary rejects:\n{}", unknown.join("\n"));
}

#[test]
fn the_scan_reads_joined_blocks_inline_code_and_cargo_separators() {
    let doc = "run `esse_master --workdir d --bogus` then\n```\n\
               cargo run --bin worker_chaos --offline -- \\\n  --seed 7 | grep x --y # --z\n\
               ./target/release/pert --member 3\n```\n";
    let found: Vec<(String, String)> = snippets(doc).iter().flat_map(|s| invocations(s)).collect();
    let pairs = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter().map(|(b, f)| (b.to_string(), f.to_string())).collect()
    };
    assert_eq!(
        found,
        pairs(&[
            ("esse_master", "--workdir"),
            ("esse_master", "--bogus"),
            ("worker_chaos", "--seed"),
            ("pert", "--member"),
        ])
    );
    let ci = "steps:\n  - run: cargo fmt --check\n  - name: gate\n    run: |\n      \
              cargo run --bin trace_report -- t.jsonl \\\n        --baseline b.json\n  \
              - name: next\n    run: esse_worker --bogus\n";
    let found: Vec<(String, String)> =
        snippets(&run_blocks(ci)).iter().flat_map(|s| invocations(s)).collect();
    assert_eq!(found, pairs(&[("trace_report", "--baseline"), ("esse_worker", "--bogus")]));
    let master = usage_flags("esse_master").expect("esse_master has a USAGE");
    assert!(master.contains("--workdir") && !master.contains("--bogus"));
    assert!(usage_flags("no_such_binary").is_none());
}
