//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints a provenance line, then the
//! result line: one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits non-zero, printing no result, on bad arguments or
//! when the workload cannot be set up.

use perfbench::run::{run, RunConfig, DEFAULT_SEED};
use perfbench::workloads::{Kind, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let kind = Kind::from_name(&name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    Ok(RunConfig::new(kind, seed, seconds, trace))
}

fn main() {
    // Every timed call runs on one thread: per-call fork-join over the two
    // vCPUs of a shared virtual machine made run-to-run spreads several times
    // wider. The library's own frame parallelism (FMCW spectra, beat
    // synthesis) would otherwise fan every `localize` fix out over all cores,
    // so it is pinned to one thread before anything runs. Results are
    // bit-identical at any thread count.
    std::env::set_var("MILBACK_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(res) => {
            for m in &res.metrics {
                eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", res.provenance_json());
            println!("{}", res.result_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
