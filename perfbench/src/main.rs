//! performa end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_scale|blowup_edge|figure_resume|sim_validation> \
//!     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file.ndjson>]
//! ```
//!
//! Run from the repository root. One client thread runs a closed loop of
//! ops through the public APIs of the performa crates; every op is timed
//! from the call into the program until its outputs are read, and every
//! answer is checked outside op timing. The last line of standard output
//! is one JSON object with the run's metrics; the report before it goes
//! to standard error. See `perfbench/README.md`.

mod check;
mod env;
mod figures;
mod report;
mod sim;
mod solver;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use env::{cpu_s, wall_s, Clock};

use report::{median, Metric};
use trace::Tracer;
use workload::{Label, Outputs, Workload};

/// End-to-end metrics of an untraced run, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pass_share", "ratio"),
    ("exact_share", "ratio"),
];

/// Set-ups per run; `setup_s` is their median and the ops use the last.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        match key.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--trace-out" => {
                map.insert(key.as_str(), value.clone());
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        trace_out: map.get("--trace-out").map(PathBuf::from),
    })
}

/// Passes a run of `seconds` makes.
fn passes(w: &impl Workload, seconds: f64) -> usize {
    ((seconds / w.nominal_pass_s()).round() as usize).max(1)
}

/// SplitMix64: the seed's only use is to permute ops and seed replications.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The run's op order: `passes` seed-permuted copies of the pass.
fn schedule(pass_len: usize, passes: usize, seed: u64) -> Vec<usize> {
    let mut state = mix(seed);
    let mut order = Vec::with_capacity(pass_len * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..pass_len).collect();
        for i in (1..pass_len).rev() {
            state = mix(state);
            pass.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order.extend(pass);
    }
    order
}

/// What a run reports.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    #[cfg_attr(not(test), allow(dead_code))]
    placement: report::Placement,
}

/// One op as it ran.
struct Ran {
    op: usize,
    time_s: f64,
    outputs: Option<Outputs>,
    error: Option<String>,
}

fn run<W: Workload>(mut w: W, args: &Args) -> Result<RunResult, String> {
    let clock = W::CLOCK;
    let host_before = env::host_probe_ms();
    // Work timed on the CPU clock runs on the client thread alone. On a
    // shared host each vCPU turns slow and fast as neighbours come and
    // go, independently of the others, so successive set-ups and passes
    // run on each CPU of the process in turn.
    let affinity = match clock {
        Clock::Cpu => env::CpuSet::current(),
        Clock::Wall => None,
    };
    let cpus = affinity.map_or_else(Vec::new, |a| a.cpus());
    let pin = |turn: usize| match cpus.len() {
        0 => Ok(()),
        n => env::CpuSet::only(cpus[turn % n]).apply(),
    };
    let (mut setups_wall, mut setups_cpu) = (Vec::new(), Vec::new());
    for turn in 0..SETUP_REPEATS {
        pin(turn)?;
        let (wall0, cpu0) = (wall_s(), cpu_s());
        w.setup()?;
        setups_wall.push(wall_s() - wall0);
        setups_cpu.push(cpu_s() - cpu0);
    }
    let setup_s = median(match clock {
        Clock::Cpu => &setups_cpu,
        Clock::Wall => &setups_wall,
    });

    let labels: Vec<Label> = w.pass();
    let passes = passes(&w, args.seconds);
    let order = schedule(labels.len(), passes, args.seed);
    let mut tracer = Tracer::new(clock);
    let mut traced_s = Vec::new();
    let mut check_s = Vec::new();
    let mut ran: Vec<Ran> = Vec::with_capacity(order.len());
    let mut worst = 0.0f64;
    let (wall0, cpu0) = (wall_s(), cpu_s());

    for (k, &op) in order.iter().enumerate() {
        if k % labels.len() == 0 {
            pin(k / labels.len())?;
        }
        let seed = mix(args.seed ^ mix(k as u64));
        let started = clock.now();
        let done = w.run(op, seed);
        let time_s = clock.now() - started;
        let checked = clock.now();
        let (outputs, mut error) = match &done {
            Ok(d) => match w.check(op, d) {
                Ok(closeness) => {
                    worst = worst.max(closeness);
                    (Some(w.outputs(d)), None)
                }
                Err(e) => (Some(w.outputs(d)), Some(e)),
            },
            Err(e) => (None, Some(e.clone())),
        };
        check_s.push(clock.now() - checked);
        drop(done);
        if args.trace {
            let started = clock.now();
            let traced = tracer.op(|t| w.run_traced(op, seed, t));
            traced_s.push(clock.now() - started);
            if let Ok(d) = &traced {
                w.count(op, d, &mut tracer);
            }
            let same = match (&outputs, &traced) {
                (Some(a), Ok(d)) => {
                    let b = w.outputs(d);
                    a.degraded == b.degraded
                        && a.values.len() == b.values.len()
                        && a.values
                            .iter()
                            .zip(&b.values)
                            .all(|(x, y)| x.to_bits() == y.to_bits())
                }
                (None, Err(_)) => true,
                _ => false,
            };
            if !same {
                error.get_or_insert_with(|| "traced outputs differ from the untraced op".into());
            }
        }
        ran.push(Ran {
            op,
            time_s,
            outputs,
            error,
        });
    }

    if let Some(a) = affinity {
        a.apply()?;
    }

    // Run-level checks over the ops that passed their own.
    let passed: Vec<(usize, &Outputs)> = ran
        .iter()
        .filter(|r| r.error.is_none())
        .map(|r| (r.op, r.outputs.as_ref().expect("passed ops have outputs")))
        .collect();
    let positions: Vec<usize> = (0..ran.len()).filter(|&i| ran[i].error.is_none()).collect();
    for (i, why) in w.check_run(&passed) {
        ran[positions[i]].error = Some(why);
    }
    let (wall, cpu) = (wall_s() - wall0, cpu_s() - cpu0);
    let host_after = env::host_probe_ms();

    let attempted = ran.len();
    let failed = ran.iter().filter(|r| r.error.is_some()).count();
    let degraded = ran
        .iter()
        .filter(|r| r.outputs.as_ref().is_some_and(|o| o.degraded))
        .count();
    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    for r in ran.iter().filter(|r| r.error.is_some()) {
        let e = r.error.as_ref().expect("filtered");
        *failures
            .entry(format!(
                "{} {}: {e}",
                labels[r.op].class, labels[r.op].config
            ))
            .or_insert(0) += 1;
    }
    for (e, n) in &failures {
        eprintln!("FAILED x{n}: {e}");
    }
    eprintln!(
        "checks: {failed} of {attempted} ops failed; \
         closest passing answer at {worst:.2e} of its tolerance"
    );

    let run_order: Vec<(f64, &Label)> = ran.iter().map(|r| (r.time_s, &labels[r.op])).collect();
    let busy_s: f64 = ran.iter().map(|r| r.time_s).sum();
    let (timed, ops_per_s) = if W::FASTEST_PER_CONFIG {
        // The ops of one configuration are one deterministic computation,
        // run at seed-permuted places spread over the run and on each CPU
        // in turn; each op's latency is the fastest of those runs. A slow
        // spell of the host has to cover all of them to move it, while a
        // change to the program moves every one.
        let mut fastest: BTreeMap<(&str, &str), f64> = BTreeMap::new();
        for r in &ran {
            let op = &labels[r.op];
            let t = fastest
                .entry((op.class, op.config.as_str()))
                .or_insert(f64::INFINITY);
            *t = t.min(r.time_s);
        }
        let best: Vec<f64> = labels
            .iter()
            .map(|op| fastest[&(op.class, op.config.as_str())])
            .collect();
        let rate = labels.len() as f64 / best.iter().sum::<f64>();
        (best.into_iter().zip(&labels).collect(), rate)
    } else {
        // Every op is the same call, or a new replication, so each pass
        // is a sample of the whole workload: the run reports its fastest
        // pass, which a slow spell of the host has to cover every pass
        // to move.
        let busy = |pass: &[(f64, &Label)]| pass.iter().map(|r| r.0).sum::<f64>();
        let fastest = run_order
            .chunks(labels.len())
            .min_by(|a, b| busy(a).total_cmp(&busy(b)))
            .expect("a run makes at least one pass");
        (fastest.to_vec(), fastest.len() as f64 / busy(fastest))
    };
    let placement = report::placement(&timed);
    eprint!(
        "{}",
        report::class_table("every run of every op", &run_order)
    );
    let heading = if W::FASTEST_PER_CONFIG {
        "each op at its configuration's fastest run"
    } else {
        "the fastest pass"
    };
    eprint!("{}", report::class_table(heading, &timed));
    eprint!("{}", placement.render());
    eprintln!(
        "host.probe_ms before={host_before:.3} after={host_after:.3}; timed on the {} clock; \
         ops phase: {wall:.3} s wall, {cpu:.3} s CPU; set-ups: {setups_wall:.3?} s wall, \
         {setups_cpu:.3?} s CPU; passes={passes}",
        clock.name(),
    );

    let metrics = if args.trace {
        let mut m = report::per_layer(&tracer, &traced_s, busy_s);
        for (name, v) in w.traced_setup()? {
            report::set(&mut m, name, v);
        }
        report::set(&mut m, "bench.check_ms", median(&check_s) * 1e3);
        report::set(&mut m, "host.probe_ms", (host_before + host_after) / 2.0);
        let agg = performa_obs::agg::Aggregate::from_records(tracer.records());
        eprint!("{}", agg.render_tree());
        if let Some(path) = &args.trace_out {
            let text: String = tracer
                .records()
                .iter()
                .map(|r| performa_obs::ndjson::to_json_line(r) + "\n")
                .collect();
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        m
    } else {
        let values = [
            setup_s,
            placement.median.s * 1e3,
            placement.tail.s * 1e3,
            ops_per_s,
            env::peak_rss_mb(),
            (attempted - failed) as f64 / attempted as f64,
            (attempted - degraded) as f64 / attempted as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, v, unit))
            .collect()
    };
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        placement,
    })
}

fn run_named(args: &Args) -> Result<RunResult, String> {
    let work = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    match args.workload.as_str() {
        "paper_scale" => run(solver::PaperScale::new(), args),
        "blowup_edge" => run(solver::BlowupEdge::new(), args),
        "figure_resume" => run(figures::FigureResume::new(work), args),
        "sim_validation" => sim::SimValidation::new().and_then(|w| run(w, args)),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = env::refuse_overrides() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    eprintln!("{}", env::record());
    match run_named(&args) {
        Ok(r) => {
            println!(
                "{}",
                report::json(r.correct, r.attempted, r.failed, &r.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
