//! `regular-bench <subcommand> ...`; see `regular_bench::cli`.

fn main() -> std::process::ExitCode {
    regular_bench::cli::main(std::env::args().skip(1))
}
