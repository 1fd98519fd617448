//! `failmpi-benchmark`: the end-to-end pass (see the crate documentation).

#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    failmpi_benchmark::main(false)
}
