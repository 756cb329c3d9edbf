//! Wall-clock NEXMark Q5 benchmark.
//!
//! ```text
//! jet-perfbench --workload <q5-open|q5-catchup|q5-cluster-eo|q5-sim>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end figures;
//! with `--trace 1` it times the per-layer lanes, repeats the workload
//! untraced and traced, and reports the per-layer figures. Every run checks
//! the job's output against Q5 computed apart from the engine. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod common;
mod digest;
mod lanes;
mod layers;
mod reference;
mod sim;
mod threaded;
mod workloads;

use common::{result_line, Metrics, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only time this many set-ups and print their seconds (the mode the
    /// benchmark's own child processes run in).
    setups: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut setups = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--setups" => setups = Some(value()?.parse().map_err(|e| format!("--setups: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        setups,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jet-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workloads::Workload::named(&args.workload) else {
        eprintln!(
            "jet-perfbench: unknown workload {} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    if let Some(n) = args.setups {
        workloads::setups_only(w, args.seed, args.seconds, n);
        return;
    }
    let mut metrics = Metrics::default();
    let outcome: Outcome = if args.trace {
        workloads::per_layer(w, args.seed, args.seconds, &mut metrics)
    } else {
        workloads::end_to_end(w, args.seed, args.seconds, &mut metrics)
    };
    for m in &metrics.0 {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome, &metrics));
}
