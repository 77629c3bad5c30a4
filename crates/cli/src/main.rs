//! Binary entry point for `dsearch`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dsearch_cli::run(raw) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dsearch: {e}");
            if matches!(e, dsearch_cli::CliError::Usage(_)) {
                eprintln!("\n{}", dsearch_cli::usage());
            }
            ExitCode::FAILURE
        }
    }
}
