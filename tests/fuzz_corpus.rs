//! Regression corpus replay: every checked-in `.repro` under
//! `tests/corpus/` must pass the full differential invariant harness.
//!
//! Corpus entries are minimal repros of scenarios that once exposed a
//! bug (or hand-curated coverage of a dimension the generator reaches
//! rarely); replaying them on every CI run keeps fixed bugs fixed.
//! Triage workflow: `rogctl fuzz --replay tests/corpus/<name>.repro`
//! re-runs one entry with full violation output.

use std::path::Path;

use rog::fuzz::{check_scenario, Scenario};

#[test]
fn every_corpus_entry_passes_the_harness() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "corpus at {} must not be empty",
        dir.display()
    );

    let mut failures = Vec::new();
    for path in &entries {
        let name = path.file_name().expect("file name").to_string_lossy();
        let text = std::fs::read_to_string(path).expect("readable corpus entry");
        let sc = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("corpus entry {name} does not parse: {e}"));
        // The checked-in text is canonical: writing the parsed scenario
        // back must reproduce it byte-for-byte, so entries cannot
        // silently drift from what `rogctl fuzz` would emit.
        assert_eq!(sc.to_repro(), text, "corpus entry {name} is not canonical");
        let outcome = check_scenario(&sc);
        if !outcome.passed() {
            failures.push(format!("{name}: {:?}", outcome.violations));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus regressions:\n{}",
        failures.join("\n")
    );
}
