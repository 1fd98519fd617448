//! Byte-pins every figure's smoke-scale output: the `--json` document and
//! the rendered table of `figure <name> --smoke --threads 1 --backend B`
//! against the files under `tests/golden/figures/`. A new figure (or a
//! figure on one more backend) is one more row of `ROWS`.
//!
//! The test only reads and compares. An intentional change re-pins a
//! row by redirecting the binary's own output into that directory:
//!
//! ```text
//! figure fig5 --smoke --threads 1 --backend vcl \
//!     --json tests/golden/figures/fig5-vcl.json > tests/golden/figures/fig5-vcl.txt
//! ```

use std::path::PathBuf;

use failmpi_experiments::cli::Options;
use failmpi_experiments::figures::FIGURES;
use failmpi_experiments::BackendKind::{self, Replica, Ulfm, Vcl};

const ROWS: &[(&str, BackendKind)] = &[
    ("fig5", Vcl),
    ("fig5", Ulfm),
    ("fig5", Replica),
    ("fig6", Vcl),
    ("fig7", Vcl),
    ("fig9", Vcl),
    ("fig11", Vcl),
    ("ablation", Vcl),
    ("delay_sweep", Vcl),
    ("lbh04", Vcl),
];

fn check_golden(file: String, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", "figures", &file]
        .iter()
        .collect();
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(actual, expected, "{file} differs from the golden file");
}

#[test]
fn smoke_figures_match_their_golden_files() {
    for &(name, backend) in ROWS {
        let figure = FIGURES
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no figure `{name}`"));
        let opts = Options {
            smoke: true,
            threads: Some(1),
            backend: Some(backend),
            ..Options::default()
        };
        let (table, json) = (figure.run)(&opts).expect("figure runs");
        check_golden(format!("{name}-{backend}.txt"), &table);
        check_golden(format!("{name}-{backend}.json"), &json.expect("figure has a JSON form"));
    }
}
