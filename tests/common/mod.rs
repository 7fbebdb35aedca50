//! Shared by the integration suites that pin an artifact byte for byte.

use std::path::Path;

/// Compare `got` with `tests/golden/<name>`. On a mismatch, write what
/// was produced to `target/<name>.actual` (for `diff`; copy it over the
/// golden file to re-record after reading the diff) and panic with the
/// first differing line.
pub fn assert_matches_golden(name: &str, got: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden").join(name);
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got == want {
        return;
    }
    let actual = root.join("target").join(format!("{name}.actual"));
    std::fs::create_dir_all(root.join("target")).unwrap();
    std::fs::write(&actual, got).unwrap();
    let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    panic!(
        "output differs from {} (first differing line: {:?}, {} vs {} lines); wrote {}",
        golden.display(),
        line.map(|l| l + 1),
        got.lines().count(),
        want.lines().count(),
        actual.display()
    );
}
