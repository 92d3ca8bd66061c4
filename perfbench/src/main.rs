//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <spanner-seq|mpc-sublinear|mpc-apsp|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a metadata line and then, as the last line of standard
//! output, the JSON result. Exits 0 when the run completed (the result
//! says whether it was correct) and 2 on a usage error.

use std::process::ExitCode;

use perfbench::{Config, Scale};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => config.workload = value()?,
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if config.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(config)
}

fn main() -> ExitCode {
    // The benchmark's thread budget: two pool threads unless the caller
    // chose otherwise. Set before the pool's first use, which reads it.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "2");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args).and_then(|config| perfbench::run(&config)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for violation in &outcome.violations {
        eprintln!("perfbench: check failed: {violation}");
    }
    println!("{}", outcome.meta_line());
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
