//! End-to-end and per-layer benchmark of the fault-injection campaign.
//!
//! ```text
//! cargo run --release --manifest-path campaignbench/Cargo.toml -- \
//!     --workload <e2_observed|fleet_paper> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the default-seed gate reads the
//! committed `results/`). With `--trace 0` a run repeats timed
//! campaigns for `--seconds` (at least one per input of the run) and
//! prints the end-to-end metrics; with `--trace 1` it runs the traced
//! layer pass instead and prints the per-layer metrics. Every campaign
//! passes the output gate ([`gate`]) before its figures count; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `DESIGN.md` next to this crate
//! records why each workload and metric was chosen.

#![warn(missing_docs)]

pub mod gate;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod tracer;
pub mod workloads;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gate::Tally;
use measure::{median, Metrics};
use workloads::{Env, Workload};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed ([`inputs::DEFAULT_SEED`] = the paper's inputs).
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Per-layer (traced) instead of end-to-end metrics.
    pub trace: bool,
    /// Scaled-down grid, for the benchmark's own tests.
    pub smoke: bool,
}

/// Usage text for a malformed command line.
pub const USAGE: &str = "usage: campaignbench --workload <e2_observed|fleet_paper> \
                         --seed <n> --seconds <s> --trace <0|1> [--smoke]";

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = inputs::DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.0..=600.0).contains(&seconds) {
                        return Err("--seconds must be within 0..=600".to_owned());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
        })
    }
}

/// A finished run: the failure tally and the metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            self.metrics.to_json()
        )
    }
}

/// Prints a failed result and exits: for failures after which the run
/// cannot finish (an invalid input, a fleet that lost a worker).
pub fn fail_fast(tally: &Tally) -> ! {
    let outcome = Outcome {
        tally: Tally {
            attempted: tally.attempted,
            failed: tally.failed.max(1),
        },
        metrics: Metrics::default(),
    };
    println!("{}", outcome.to_json());
    std::process::exit(1);
}

/// Longest a run may go without finishing a campaign or a layer-pass
/// step. The longest such step takes about 20 s on a 2-core host; a
/// run that goes longer is stalled (a campaign that never returns, see
/// `DESIGN.md`, "Findings"), and is failed rather than left to hang.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// Fails a run that stops making progress: a thread that ends the
/// process with a failed result once [`STALL_LIMIT`] passes without
/// [`Watchdog::progress`].
struct Watchdog {
    start: Instant,
    last_ms: AtomicU64,
}

impl Watchdog {
    fn spawn(work: PathBuf) -> Arc<Watchdog> {
        let dog = Arc::new(Watchdog {
            start: Instant::now(),
            last_ms: AtomicU64::new(0),
        });
        let watched = Arc::clone(&dog);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_secs(1));
            let idle_ms = watched.now_ms() - watched.last_ms.load(Ordering::Relaxed);
            if u128::from(idle_ms) > STALL_LIMIT.as_millis() {
                eprintln!(
                    "campaignbench: CHECK FAILED: no campaign finished for {} s: the run is stalled",
                    idle_ms / 1000
                );
                let _ = std::fs::remove_dir_all(&work);
                fail_fast(&Tally {
                    attempted: 1,
                    failed: 1,
                });
            }
        });
        dog
    }

    fn now_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Marks a finished step.
    fn progress(&self) {
        self.last_ms.store(self.now_ms(), Ordering::Relaxed);
    }
}

/// Runs the benchmark.
pub fn run(args: &Args) -> Outcome {
    let root = PathBuf::from(".bench_work");
    let work = root.join(std::process::id().to_string());
    let smoke = args.smoke.then_some(inputs::SMOKE);
    let mut env = Env::new(args.seed, smoke, work.clone());
    let mut tally = Tally::default();
    let dog = Watchdog::spawn(work.clone());
    let metrics = if args.trace {
        traced(args.workload, &mut env, args.seconds, &dog, &mut tally)
    } else {
        end_to_end(args.workload, &mut env, args.seconds, &dog, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    Outcome { tally, metrics }
}

fn setup_or_fail(workload: Workload, env: &Env, k: usize, tally: &mut Tally) -> inputs::Inputs {
    match workloads::setup(workload, env, k) {
        Ok(inputs) => inputs,
        Err(violation) => {
            tally.attempt(1);
            tally.check(false, 1, || {
                format!("input {k} failed golden validation: {violation}")
            });
            fail_fast(tally)
        }
    }
}

/// Timed campaigns, cycling through the run's inputs, until every
/// input ran once and `seconds` are used up. A campaign is not started
/// when the typical campaign so far would end more than half its own
/// length past `seconds`, so a run lasts close to `seconds` whatever a
/// campaign takes.
fn end_to_end(
    workload: Workload,
    env: &mut Env,
    seconds: f64,
    dog: &Watchdog,
    tally: &mut Tally,
) -> Metrics {
    let inputs_per_run = workload.inputs_per_run();
    let mut walls = vec![Vec::new(); inputs_per_run];
    let mut cpus = vec![Vec::new(); inputs_per_run];
    let mut trials = vec![0u64; inputs_per_run];
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut cycles = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < inputs_per_run || start.elapsed().as_secs_f64() + median(&cycles) / 2.0 < seconds {
        let cycle_start = Instant::now();
        let k = i % inputs_per_run;
        let mut input_setups = Vec::new();
        let mut inputs = None;
        for _ in 0..workload.setups_per_campaign() {
            let setup_start = Instant::now();
            inputs = Some(setup_or_fail(workload, env, k, tally));
            input_setups.push(setup_start.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("at least one set-up");
        if let Err(e) = measure::reset_peak_rss() {
            tally.check(false, 1, || e);
            fail_fast(tally);
        }
        let (inner_setup_s, campaign) = workloads::run(workload, env, &inputs, false, tally);
        let peak_mb = measure::peak_rss_mb();
        dog.progress();
        peaks.push(peak_mb);
        setups.extend(input_setups.iter().map(|s| s + inner_setup_s));
        walls[k].push(campaign.wall_s);
        cpus[k].push(campaign.cpu_s);
        trials[k] = campaign.trials;
        gate_campaign(workload, env, k, &inputs, &campaign, tally);
        eprintln!(
            "campaignbench: {} input {k}: {} trials in {:.3} s ({:.3} s CPU, peak {peak_mb:.1} MiB)",
            workload.name(),
            campaign.trials,
            campaign.wall_s,
            campaign.cpu_s
        );
        // A one-off check (the fleet's untimed reference campaign)
        // does not count towards the typical campaign.
        if i >= inputs_per_run {
            cycles.push(cycle_start.elapsed().as_secs_f64());
        }
        i += 1;
    }
    let wall: f64 = walls.iter().map(|w| median(w)).sum();
    let mut m = Metrics::default();
    m.put(
        "trials_per_s",
        trials.iter().sum::<u64>() as f64 / wall,
        "1/s",
    );
    m.put("setup_s", median(&setups), "s");
    let cpu: f64 = cpus.iter().map(|c| median(c)).sum();
    m.put("cpu_s", cpu / inputs_per_run as f64, "s");
    m.put("peak_rss_mb", median(&peaks), "MiB");
    m
}

/// The per-campaign output gate, run after the campaign's figures are
/// taken.
fn gate_campaign(
    workload: Workload,
    env: &mut Env,
    k: usize,
    inputs: &inputs::Inputs,
    campaign: &workloads::Campaign,
    tally: &mut Tally,
) {
    match workload {
        Workload::E2Observed => {
            if inputs.paper {
                gate::paper_e2(&campaign.e2, tally);
            }
            let path = campaign
                .journal
                .as_ref()
                .expect("e2_observed keeps a journal");
            let journal = fic::Journal::load(path).expect("load the campaign journal");
            gate::oracle_records(&inputs.protocol, &inputs.e2, &journal.records, tally);
        }
        Workload::FleetPaper => workloads::fleet_gate(env, k, inputs, campaign, tally),
    }
}

/// The layer pass: an untraced and a traced campaign on the run's
/// first input, then the tracer passes, repeated while the typical
/// round still ends within half its length of `seconds` (at least
/// once); each metric is the median over the repetitions.
fn traced(
    workload: Workload,
    env: &mut Env,
    seconds: f64,
    dog: &Watchdog,
    tally: &mut Tally,
) -> Metrics {
    let inputs = setup_or_fail(workload, env, 0, tally);
    let start = Instant::now();
    let mut rounds: Vec<Metrics> = Vec::new();
    let mut lengths = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() + median(&lengths) / 2.0 < seconds {
        let round_start = Instant::now();
        let (_, plain) = workloads::run(workload, env, &inputs, false, tally);
        gate_campaign(workload, env, 0, &inputs, &plain, tally);
        dog.progress();
        let (_, observed) = workloads::run(workload, env, &inputs, true, tally);
        gate_campaign(workload, env, 0, &inputs, &observed, tally);
        dog.progress();
        let observation = layers::Observation {
            workload,
            inputs: &inputs,
            untraced_wall_s: plain.wall_s,
            traced: &observed,
        };
        rounds.push(layers::measure(&observation, tally));
        dog.progress();
        lengths.push(round_start.elapsed().as_secs_f64());
    }
    let mut m = Metrics::default();
    for &(name, unit) in layers::PER_LAYER {
        let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name)).collect();
        m.put(name, median(&values), unit);
    }
    m
}
