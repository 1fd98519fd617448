//! `failmpi-benchmark-traced`: the same program under the counting
//! allocator, so that the traced pass can report allocations per event.
//! Kept out of the end-to-end binary, whose timings must not pay for it.

#![forbid(unsafe_code)]

#[global_allocator]
static ALLOC: failmpi_obs::CountingAlloc = failmpi_obs::CountingAlloc;

fn main() -> std::process::ExitCode {
    failmpi_benchmark::main(true)
}
