//! `cornet_bench [--quick] [--only id,…] [--json PATH]`: run the claims
//! table (`cornet_bench::EXPERIMENTS`); exit 1 when a row is red.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cornet_bench::run_cli(&args));
}
