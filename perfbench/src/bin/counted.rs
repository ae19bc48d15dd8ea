//! `perfbench` with the counting allocator installed (see `alloc.rs`).

#[global_allocator]
static ALLOC: perfbench::alloc::Counting = perfbench::alloc::Counting;

fn main() {
    perfbench::alloc::mark_installed();
    std::process::exit(perfbench::cli_main());
}
