//! `ddc-benchmark`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ddc-benchmark [run] [--workload NAME] [--seed N] [--seconds S]
//!               [--trace [0|1]] [--smoke] [--out FILE]
//! ddc-benchmark compare A.json B.json
//! ```
//!
//! `run` builds each workload's fixture from the seed, boots `ddc_server`
//! in-process on an ephemeral loopback port, drives it over real HTTP,
//! checks every answer and prints every metric by name with its unit; the
//! last line per workload is the result object the driver reads.

mod compare;
mod host;
mod http;
mod layers;
mod report;
mod run;
mod workload;

#[cfg(test)]
mod tests;

use ddc_server::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ddc-benchmark [run] [--workload NAME] [--seed N] [--seconds S] \
         [--trace [0|1]] [--smoke] [--out FILE]\n       ddc-benchmark compare A.json B.json"
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next()?.clone()),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|&s| s >= 1)?,
            // `--trace` alone, or the driver's `--trace 0|1`.
            "--trace" => {
                args.trace = it.next_if(|v| *v == "0").is_none();
                it.next_if(|v| *v == "1");
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    Some(args)
}

/// Appends this invocation's reports to `path`, so several runs with the
/// same `--out` make one set for `compare`.
fn append(path: &Path, host: &host::Host, reports: &[report::Report]) -> run::Res<()> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)?
            .get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    runs.extend(reports.iter().map(report::Report::to_json));
    let doc = Json::obj([("host", host.to_json()), ("runs", Json::Arr(runs))]);
    std::fs::write(path, doc.dump())?;
    Ok(())
}

fn run(args: &Args) -> run::Res<bool> {
    let mut specs = workload::specs(args.smoke);
    if let Some(name) = &args.workload {
        specs.retain(|s| s.name == name);
        if specs.is_empty() {
            return Err(format!("no workload named `{name}`").into());
        }
    }
    let host = host::Host::probe();
    println!(
        "host: pinned_cpu={:?} nproc={} backend={} rustc=\"{}\" git={}",
        host.pinned_cpu, host.nproc, host.backend, host.rustc, host.git_rev
    );
    let mut reports = Vec::new();
    for spec in &specs {
        println!("-- {}: {}", spec.name, spec.why);
        let report = if args.trace {
            layers::run_traced(spec, args.seed, args.seconds)?
        } else {
            let run = run::run_untraced(spec, args.seed, args.seconds, args.smoke)?;
            // Every one of these repeats exactly for a seed.
            println!("{:?}", run.counts);
            run.report
        };
        report.print();
        reports.push(report);
    }
    if let Some(path) = &args.out {
        append(path, &host, &reports)?;
    }
    Ok(reports.iter().all(report::Report::correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => {
            compare::compare(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("compare") => return usage(),
        first => {
            let rest = if first == Some("run") {
                &argv[1..]
            } else {
                &argv[..]
            };
            match parse(rest) {
                Some(args) => run(&args),
                None => return usage(),
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ddc-benchmark: {e}");
            ExitCode::from(3)
        }
    }
}
