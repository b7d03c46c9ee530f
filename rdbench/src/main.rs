//! `rdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable report, a detail JSON line (spread of every
//! end-to-end quantity, the per-layer table, digests, environment) and, as
//! the last line, the result object. The detail record, and the Chrome
//! trace of a traced run, are also written under `rdbench/out/`.

use rdbench::workloads::{Size, Workload};
use rdbench::{detail_json, env::Env, result_json, run, text_report, Options};
use std::path::Path;
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed needs an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a non-negative number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::full(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rdbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rdbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let env = Env::capture(bench_dir.parent().unwrap_or(bench_dir));
    let detail = detail_json(&outcome, &env);
    print!("{}", text_report(&outcome));
    println!("{detail}");

    let out_dir = bench_dir.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), &detail))
        .and_then(|()| match &outcome.chrome {
            Some(chrome) => std::fs::write(out_dir.join(format!("{stem}.trace.json")), chrome),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("rdbench: could not write {}: {e}", out_dir.display());
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
