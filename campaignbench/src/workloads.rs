//! The two campaign workloads, each run exactly as a user runs it:
//! the default `CampaignRunner`, or an in-process fleet server with
//! two loopback workers.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fic::fleet::wire::{read_frame, write_frame};
use fic::fleet::{
    CampaignSpec, Command, FleetError, FlightLog, Response, ServerOptions, WorkerOptions,
    WIRE_VERSION,
};
use fic::journal::JournalTelemetry;
use fic::telemetry::{Registry, TelemetrySnapshot};
use fic::{
    AttributionAggregate, CampaignRunner, ConvergenceAggregate, E1Report, E2Report, Journal,
    JournalWriter, Server,
};

use crate::gate::{self, Tally};
use crate::inputs::{self, Inputs, Smoke, WORKERS};
use crate::measure::cpu_seconds;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seeded E2 set with telemetry, attribution and a journal,
    /// then the journal read path checked against the live folds.
    E2Observed,
    /// E1 and E2 through an in-process fleet server and two loopback
    /// workers; its E1 half, where every flip is live, carries the
    /// tick loop and the settle detector.
    FleetPaper,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::E2Observed, Workload::FleetPaper];

    /// The workload's name on the command line.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::E2Observed => "e2_observed",
            Workload::FleetPaper => "fleet_paper",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct inputs one run cycles through. A run measures every one
    /// of them at least once and reports per-input medians, so a run
    /// averages over several grids and, for E2, over every one of the
    /// fixed error samples.
    pub const fn inputs_per_run(self) -> usize {
        match self {
            Workload::E2Observed => inputs::E2_SAMPLES,
            Workload::FleetPaper => 2,
        }
    }

    /// Set-ups timed before each campaign. `setup_s` is the median of
    /// every set-up of the run, and a set-up is fast or slow with the
    /// host of the moment, so each workload takes about 40 samples
    /// spread over the whole run rather than a burst at its start.
    pub const fn setups_per_campaign(self) -> usize {
        match self {
            Workload::E2Observed => 1,
            Workload::FleetPaper => 6,
        }
    }

    /// The fleet server only knows the paper's E2 error numbers.
    const fn fixed_e2(self) -> bool {
        matches!(self, Workload::FleetPaper)
    }
}

/// What one timed campaign produced.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Trials completed (executed plus pruned).
    pub trials: u64,
    /// Wall seconds from the first campaign call to verified reports.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// The folded E1 report (empty for `e2_observed`).
    pub e1: E1Report,
    /// The folded E2 report.
    pub e2: E2Report,
    /// The campaign journal, when the workload keeps one.
    pub journal: Option<PathBuf>,
    /// Campaign telemetry (empty unless traced or observed).
    pub telemetry: TelemetrySnapshot,
    /// The fleet flight log of a traced fleet run.
    pub flight: Option<FlightLog>,
    /// Where the fleet server finalized its artefacts.
    pub out_dir: Option<PathBuf>,
}

/// Per-run state shared by every campaign of the run.
#[derive(Debug)]
pub struct Env {
    /// Benchmark seed.
    pub seed: u64,
    /// Scaled-down protocol for the benchmark's own tests.
    pub smoke: Option<Smoke>,
    /// Scratch directory for journals and fleet artefacts.
    pub work: PathBuf,
    runs: usize,
    references: HashMap<usize, (E1Report, E2Report)>,
}

impl Env {
    /// A run's environment; `work` is created on first use.
    pub fn new(seed: u64, smoke: Option<Smoke>, work: PathBuf) -> Self {
        Env {
            seed,
            smoke,
            work,
            runs: 0,
            references: HashMap::new(),
        }
    }

    /// An empty directory for the next campaign; earlier campaigns'
    /// files are gone by then (each is checked before the next starts).
    fn fresh_dir(&mut self, stem: &str) -> PathBuf {
        self.runs += 1;
        let _ = std::fs::remove_dir_all(&self.work);
        let dir = self.work.join(format!("{stem}-{}", self.runs));
        std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
        dir
    }
}

/// Set-up of campaign input `k`: generates the inputs and runs golden
/// validation (every grid case fault-free, no detection, no failure).
///
/// # Errors
///
/// A golden-run violation: the seed produced an invalid test case.
pub fn setup(workload: Workload, env: &Env, k: usize) -> Result<Inputs, String> {
    let inputs = inputs::inputs(env.seed, k, workload.fixed_e2(), env.smoke);
    fic::golden::validate_fault_free(&inputs.protocol).map_err(|v| v.to_string())?;
    Ok(inputs)
}

/// Trials one campaign of `workload` runs.
fn expected_trials(workload: Workload, inputs: &Inputs) -> u64 {
    let cases = inputs.protocol.cases_per_error() as u64;
    let e1 = inputs.e1.len() as u64 * cases;
    let e2 = inputs.e2.len() as u64 * cases;
    match workload {
        Workload::E2Observed => e2,
        Workload::FleetPaper => e1 + e2,
    }
}

/// Runs one timed campaign. Returns the set-up seconds spent inside
/// the workload (fleet bind and worker registration; 0 otherwise) and
/// the campaign. `traced` attaches the telemetry registry (and, for
/// the fleet, the flight recorder).
pub fn run(
    workload: Workload,
    env: &mut Env,
    inputs: &Inputs,
    traced: bool,
    tally: &mut Tally,
) -> (f64, Campaign) {
    let expected = expected_trials(workload, inputs);
    tally.attempt(expected);
    let (setup_s, campaign) = match workload {
        Workload::E2Observed => (0.0, e2_observed(env, inputs, tally)),
        Workload::FleetPaper => fleet_paper(env, inputs, traced, tally),
    };
    tally.check(
        campaign.trials == expected,
        expected.abs_diff(campaign.trials),
        || {
            format!(
                "{}: {} of {expected} trials completed",
                workload.name(),
                campaign.trials
            )
        },
    );
    (setup_s, campaign)
}

fn e2_observed(env: &mut Env, inputs: &Inputs, tally: &mut Tally) -> Campaign {
    let dir = env.fresh_dir("e2_observed");
    let path = dir.join("campaign.jsonl");
    let protocol = &inputs.protocol;
    let registry = Arc::new(Registry::new());
    let runner = CampaignRunner::new(protocol.clone())
        .with_telemetry(Arc::clone(&registry))
        .with_attribution(true);

    let cpu = cpu_seconds();
    let start = Instant::now();
    let mut writer = JournalWriter::create(&path, protocol)
        .expect("create the campaign journal")
        .with_telemetry(JournalTelemetry::register(&registry));
    let e2 = runner
        .run_e2_journaled(&inputs.e2, &mut writer)
        .expect("journal the E2 campaign");
    writer.finish().expect("sync the campaign journal");
    let live_attribution = runner
        .attribution()
        .expect("attribution is enabled")
        .snapshot();
    let live_convergence = ConvergenceAggregate::from_reports(&E1Report::new(), &e2);

    // The read path, checked against the live folds.
    let journal = Journal::load(&path).expect("load the campaign journal");
    let (replayed_e1, replayed_e2) = journal.replay().expect("replay the campaign journal");
    let journal_attribution =
        fic::attribution::aggregate_journal(&journal).expect("fold the journal's attribution");
    let journal_convergence = ConvergenceAggregate::from_reports(&replayed_e1, &replayed_e2);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu;

    let n = e2.trials() as u64;
    tally.check(replayed_e1.trials() == 0 && replayed_e2 == e2, n, || {
        "Journal::replay disagrees with the live E2 report".to_owned()
    });
    tally.check(journal_convergence == live_convergence, n, || {
        "convergence view of the journal disagrees with the live one".to_owned()
    });
    // `aggregate_journal` maps E2 error numbers through the paper's E2
    // sample, so it re-derives the live fold only for that sample; for
    // other samples the journal's persisted attribution lines are the
    // record to check against.
    let reference = if inputs.e2_seed == fic::error_set::E2_SEED {
        journal_attribution
    } else {
        fold_persisted(&journal)
    };
    tally.check(reference == live_attribution, n, || {
        "journal attribution disagrees with the live aggregate".to_owned()
    });
    Campaign {
        trials: n,
        wall_s,
        cpu_s,
        e1: E1Report::new(),
        e2,
        journal: Some(path),
        telemetry: registry.snapshot(),
        flight: None,
        out_dir: None,
    }
}

/// Folds a journal's persisted attribution lines, first occurrence of
/// each trial key winning.
fn fold_persisted(journal: &Journal) -> AttributionAggregate {
    let mut seen = HashSet::new();
    let mut aggregate = AttributionAggregate::new();
    for event in &journal.attribution {
        if seen.insert(event.key()) {
            aggregate.record(event);
        }
    }
    aggregate
}

/// One worker's registration handshake, as `run_worker` opens it: the
/// part of fleet set-up a worker pays before its first lease.
fn register_probe(addr: SocketAddr) -> Result<(), FleetError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &Command::Register {
            wire_version: WIRE_VERSION,
            worker: "setup-probe".to_owned(),
        },
    )?;
    match read_frame::<_, Response>(&mut stream)? {
        Some(Response::Registered { worker_id, .. }) => {
            write_frame(&mut stream, &Command::Shutdown { worker_id })?;
            Ok(())
        }
        Some(Response::Refused { kind, message }) => Err(FleetError::Refused(kind, message)),
        other => Err(FleetError::Protocol(format!(
            "expected Registered, got {other:?}"
        ))),
    }
}

fn fleet_paper(env: &mut Env, inputs: &Inputs, traced: bool, tally: &mut Tally) -> (f64, Campaign) {
    let dir = env.fresh_dir("fleet_paper");
    let options = ServerOptions {
        listen: "127.0.0.1:0".to_owned(),
        out_dir: dir.join("out"),
        journal_dir: Some(dir.join("journal")),
        once: true,
        flight_recorder: traced,
        ..ServerOptions::default()
    };
    let spec = CampaignSpec {
        name: "paper".to_owned(),
        protocol: inputs.protocol.clone(),
        e1_numbers: inputs.e1.iter().map(|e| e.number).collect(),
        e2_numbers: inputs.e2.iter().map(|e| e.number).collect(),
    };

    let setup = Instant::now();
    let server = Server::bind(options, vec![spec]).expect("bind the fleet server");
    let addr = server.local_addr().expect("fleet server address");
    std::thread::scope(|scope| {
        let server = scope.spawn(move || server.run());
        tally.attempt(1);
        let probe = register_probe(addr);
        tally.check(probe.is_ok(), 1, || {
            format!("registration refused: {probe:?}")
        });
        let setup_s = setup.elapsed().as_secs_f64();

        let cpu = cpu_seconds();
        let start = Instant::now();
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let options = WorkerOptions {
                    connect: addr.to_string(),
                    name: format!("bench-{w}"),
                    threads: 1,
                    ..WorkerOptions::default()
                };
                scope.spawn(move || fic::fleet::run_worker(&options))
            })
            .collect();
        for worker in workers {
            let outcome = worker.join().expect("fleet worker thread panicked");
            tally.attempt(1);
            if let Err(e) = &outcome {
                // A failed worker leaves slices leased until their TTL
                // and the `once` server waiting: report and stop.
                tally.check(false, 1, || format!("fleet worker failed: {e}"));
                crate::fail_fast(tally);
            }
        }
        let summary = server
            .join()
            .expect("fleet server thread panicked")
            .expect("fleet server run");
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu;

        let outcome = summary
            .campaigns
            .into_iter()
            .next()
            .expect("one campaign was queued");
        let flight = traced.then(|| read_flight_log(&outcome.out_dir));
        let campaign = Campaign {
            trials: (outcome.e1_report.trials() + outcome.e2_report.trials()) as u64,
            wall_s,
            cpu_s,
            e1: outcome.e1_report,
            e2: outcome.e2_report,
            journal: Some(outcome.journal_path),
            telemetry: outcome.telemetry,
            flight,
            out_dir: Some(outcome.out_dir),
        };
        (setup_s, campaign)
    })
}

fn read_flight_log(out_dir: &Path) -> FlightLog {
    let path = out_dir.join("trace").join("flight_log.json");
    let text = std::fs::read_to_string(&path).expect("read the fleet flight log");
    serde_json::from_str(&text).expect("parse the fleet flight log")
}

/// The fleet's reports and finalized tables must equal the
/// single-process reports for the same inputs (input `k` of the run),
/// and the runner's E1 fast path the replay oracle.
pub fn fleet_gate(
    env: &mut Env,
    k: usize,
    inputs: &Inputs,
    campaign: &Campaign,
    tally: &mut Tally,
) {
    let (e1, e2) = (&campaign.e1, &campaign.e2);
    let out_dir = campaign
        .out_dir
        .as_deref()
        .expect("the fleet finalizes artefacts");
    let cases = inputs.protocol.cases_per_error();
    let written = |name: &str| std::fs::read_to_string(out_dir.join(name)).unwrap_or_default();
    let rendered = [
        ("table6.txt", fic::tables::render_table6(&inputs.e1, cases)),
        ("table7.txt", fic::tables::render_table7(e1)),
        ("table8.txt", fic::tables::render_table8(e1)),
        ("table9.txt", fic::tables::render_table9(e2)),
    ];
    let n = (e1.trials() + e2.trials()) as u64;
    for (name, text) in &rendered {
        tally.check(written(name) == *text, n, || {
            format!("fleet artefact {name} differs from its report")
        });
    }
    gate::oracle_e1(&inputs.protocol, &inputs.e1, tally);
    if inputs.paper {
        gate::paper_e1(e1, &inputs.e1, cases, tally);
        gate::paper_e2(e2, tally);
        return;
    }
    // Untimed, once per input of the run.
    let (ref_e1, ref_e2) = env.references.entry(k).or_insert_with(|| {
        let runner = CampaignRunner::new(inputs.protocol.clone());
        (runner.run_e1(&inputs.e1), runner.run_e2(&inputs.e2))
    });
    tally.check(e1 == ref_e1 && e2 == ref_e2, n, || {
        "fleet reports differ from the single-process reports".to_owned()
    });
}
