//! EXPERIMENTS.md's generated blocks are `paper_tables`' output: every
//! `<!-- paper_tables ID -->` … `<!-- /paper_tables -->` block in the
//! document must equal, byte for byte, the block the bin prints for
//! section ID, and every section the bin prints must be in the document.

use std::collections::BTreeMap;
use std::process::Command;

/// The generated blocks of `text`, by section id.
fn blocks(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut open: Option<(String, String)> = None;
    for line in text.lines() {
        let id = line.strip_prefix("<!-- paper_tables ").and_then(|r| r.strip_suffix(" -->"));
        if let Some(id) = id {
            assert!(open.is_none(), "block {id} opens inside another block");
            open = Some((id.to_string(), String::new()));
        } else if line == "<!-- /paper_tables -->" {
            let (id, body) = open.take().expect("a closing marker without an opening one");
            assert!(out.insert(id.clone(), body).is_none(), "section {id} appears twice");
        } else if let Some((_, body)) = &mut open {
            body.push_str(line);
            body.push('\n');
        }
    }
    assert!(open.is_none(), "an unclosed block");
    out
}

#[test]
fn experiments_md_holds_the_blocks_paper_tables_prints() {
    // F56 writes its CSV fields under the working directory: run the bin
    // in a scratch directory so the checkout is left as it is.
    let dir = std::env::temp_dir().join(format!("esse-paper-tables-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .current_dir(&dir)
        .output()
        .expect("paper_tables runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "paper_tables failed: {stderr}");
    let printed = blocks(&String::from_utf8(out.stdout).expect("utf-8 output"));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let documented = blocks(&std::fs::read_to_string(path).expect("read EXPERIMENTS.md"));
    let ids = |b: &BTreeMap<String, String>| b.keys().cloned().collect::<Vec<_>>();
    assert_eq!(
        ids(&documented),
        ids(&printed),
        "EXPERIMENTS.md's blocks vs paper_tables' sections"
    );
    let stale: Vec<String> = printed
        .iter()
        .filter(|(id, block)| documented[*id] != **block)
        .map(|(id, block)| format!("section {id} — `paper_tables {id}` prints:\n{block}"))
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md differs from paper_tables in {} section(s); paste the expected \
         block(s) between the section's markers:\n\n{}",
        stale.len(),
        stale.join("\n")
    );
}
