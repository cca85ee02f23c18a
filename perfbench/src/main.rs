//! One benchmark sample: stage a workload's dataset, time the driver's
//! `run` call, check the answer, and print the result as one JSON line.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> [--variant timed|buffered] [--trace]
//! ```
//!
//! Each invocation is one fresh process and one driver run; `run.py`
//! starts many of them and aggregates. With `--trace` the sample also
//! replays each layer's public entry points on the run's own inputs and
//! reports per-layer numbers (see `layers.rs`).

mod check;
mod json;
mod layers;
mod measure;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use json::Obj;
use measure::{peak_rss_mib, Stopwatch};
use workload::{Variant, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    variant: Variant,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    if argv.next().as_deref() != Some("run") {
        return Err("usage: perfbench run --workload <name> --seed <n> \
                    [--variant timed|buffered] [--trace]"
            .into());
    }
    let (mut workload, mut seed, mut variant, mut trace) = (None, None, Variant::Timed, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--variant" => {
                variant = match value()?.as_str() {
                    "timed" => Variant::Timed,
                    "buffered" => Variant::Buffered,
                    other => return Err(format!("unknown variant {other}")),
                }
            }
            "--trace" => trace = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        variant,
        trace,
    })
}

/// Set-ups per sample; the sample reports their median and runs on the
/// last one. Set-up is single-threaded and this machine's CPUs differ in
/// speed, so the set-ups are pinned to each usable CPU in turn: the
/// median then does not depend on which CPU the process started on.
const SETUPS: usize = 4;

fn sample(args: &Args) -> Result<Obj, String> {
    let affinity = measure::Affinity::current();
    let cpus = affinity.as_ref().map_or_else(Vec::new, |a| a.cpus());
    let mut setups = Vec::with_capacity(SETUPS);
    let mut staged = None;
    for i in 0..SETUPS {
        // Free the previous set-up before the next one allocates.
        drop(staged.take());
        if !cpus.is_empty() {
            measure::Affinity::pin(cpus[i % cpus.len()]);
        }
        let setup = Instant::now();
        staged = Some(workload::stage(args.workload, args.seed, args.variant)?);
        setups.push(setup.elapsed().as_secs_f64());
    }
    // The driver's task threads inherit this thread's mask.
    if let Some(a) = &affinity {
        if !a.restore() {
            return Err("cannot restore the CPU affinity after set-up".into());
        }
    }
    let staged = staged.expect("SETUPS is positive");
    let setup_s = median(&mut setups.clone());

    let tracer = args.trace.then(|| Arc::new(trace::Tracer::new()));
    let watch = Stopwatch::start();
    let run_span = tracer.as_ref().map(|t| t.open("engine.run", None));
    let outcome = workload::run(&staged)?;
    if let (Some(t), Some(span)) = (&tracer, run_span) {
        t.close(span);
    }
    let (wall_s, cpu) = watch.stop();
    let peak = peak_rss_mib();

    let verdict = check::check(&staged, &outcome);
    let points = args.workload.points() as f64;
    let mut out = Obj::new();
    out.str("workload", args.workload.name())
        .int("seed", args.seed)
        .str(
            "variant",
            if args.variant == Variant::Timed {
                "timed"
            } else {
                "buffered"
            },
        )
        .num("setup_s", setup_s)
        .nums("setups_s", &setups)
        .num("wall_s", wall_s)
        .num("pts_per_s", points / wall_s)
        .num("cpu_s", cpu.total())
        .num("user_s", cpu.user)
        .num("sys_s", cpu.sys)
        .num("peak_rss_mib", peak)
        .num("sim_s", outcome.sim_s)
        .int("points", args.workload.points() as u64)
        .int("k", outcome.k as u64)
        .int("jobs", outcome.jobs as u64)
        .str("center_hash", &format!("{:016x}", outcome.center_hash()))
        .int("dataset_reads", outcome.dataset_reads)
        .num("distance_ratio", verdict.distance_ratio)
        .bool("at_least_real_k", verdict.at_least_real_k)
        .bool("correct", verdict.problems.is_empty())
        .strs("problems", &verdict.problems)
        .int(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        );
    if let (Some(t), Some(span)) = (&tracer, run_span) {
        let layers = layers::replay(&staged, &outcome, t, span)?;
        out.raw("layers", layers.render());
    }
    Ok(out)
}

/// Median of `values` (mean of the middle two for an even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match sample(&args) {
        Ok(obj) => {
            println!("{}", obj.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
