//! `dpxbench` binary: see `dpxbench help`.

fn main() {
    // Taken first: a workload child's set-up time starts here.
    let origin = std::time::Instant::now();
    std::process::exit(dpxbench::cli::main(origin));
}
