//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`,
//! run from the repository root.
//!
//! Runs one workload, checks its outputs and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A failed check prints no metric and exits with code 1;
//! bad arguments or a forbidden environment variable exit with code 2.

use perfbench::env::{check_pinned, HostInfo};
use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::{workload, Failure, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| check_pinned().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    // Paths are relative to the repository root, where the command runs
    // (as does its `--manifest-path perfbench/Cargo.toml`), so a run reads
    // and writes only inside the checkout it was started in.
    let out_dir = Path::new("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: creating {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let facts = HostInfo::collect(Path::new("crates")).pairs(wl.name, args.seed);
    let fact_line: Vec<String> = facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {} trace={}", fact_line.join(" "), u8::from(args.trace));

    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let outcome = perfbench::run(wl, args.seed, args.seconds, args.trace, out_dir, &facts);
    let rendered = outcome.and_then(|o| {
        for note in &o.notes {
            println!("# {note}");
        }
        println!("# counts {:?}", o.counts);
        let failure = |reason: String| Failure {
            attempted: o.attempted.max(1),
            failed: o.failed.max(1),
            reason,
        };
        if o.failed > 0 {
            return Err(failure(format!("{} operations failed", o.failed)));
        }
        let json = o.metrics.render(spec).map_err(failure)?;
        for &(name, unit) in spec {
            println!(
                "# {name} = {} {unit}",
                o.metrics.get(name).unwrap_or(f64::NAN)
            );
        }
        Ok(result_line(true, o.attempted, 0, &json))
    });
    match rendered {
        Ok(line) => {
            let summary = out_dir.join(format!(
                "result-{}-seed{}-trace{}.txt",
                wl.name,
                args.seed,
                u8::from(args.trace)
            ));
            let _ = std::fs::write(&summary, format!("# {}\n{line}\n", fact_line.join(" ")));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("perfbench: INCORRECT: {}", f.reason);
            println!("# INCORRECT: {}", f.reason);
            println!(
                "{}",
                result_line(false, f.attempted.max(1), f.failed.max(1), "{}")
            );
            ExitCode::from(1)
        }
    }
}
