//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table per workload (median, unit, sample count, quartiles)
//! and, as the last line, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits non-zero, without a result line, when a run cannot complete, and
//! with `"correct": false` when an output check fails.

use perfbench::{canonical, run, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(a)
}

fn main() {
    // Internal: one set-up probe process (see `setup_in_processes`).
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--setup-probe") {
        let seed = argv.get(4).and_then(|s| s.parse().ok()).unwrap_or(1);
        match perfbench::setup_probe(argv.get(2).map_or("", String::as_str), seed) {
            Ok(v) => println!("{v:?}"),
            Err(e) => {
                eprintln!("perfbench: set-up probe: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let prefixed = names.len() > 1;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut json = Vec::new();
    let mut correct = true;
    for name in names {
        let outcome = match run(name, args.seed, args.seconds, args.trace) {
            Ok(o) => o,
            Err(e) => {
                // A failed output check: report it, never drop the sample.
                eprintln!("perfbench: {name}: check failed: {e}");
                correct = false;
                continue;
            }
        };
        let report = match canonical(outcome.report, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(3);
            }
        };
        let pass = if args.trace { "traced" } else { "end-to-end" };
        report.print_table(&format!("{name} seed={} {pass}", args.seed));
        attempted += outcome.attempted;
        failed += outcome.failed;
        // Keys of an `all` run read `<workload>/<metric>`.
        let prefix = if prefixed {
            format!("{name}/")
        } else {
            String::new()
        };
        json.push(report.json_metrics(&prefix));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
