//! The benchmark binary: one workload, one seed, one measured run.
//! `run.py` is the intended entry point; see `README.md`.

fn main() {
    std::process::exit(perfbench::cli_main());
}
