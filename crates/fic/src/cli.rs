//! Minimal shared argument parsing for the table/figure binaries.
//!
//! Flags understood by every binary:
//!
//! * `--scale <n>` — use an `n × n` test-case grid instead of the
//!   paper's 5 × 5;
//! * `--observation <ms>` — shorten the 40 s observation window;
//! * `--workers <n>` — worker threads (default: all cores);
//! * `--out <dir>` — artefact directory (default `results/`);
//! * `--load <file>` — render from a previously saved JSON report
//!   instead of re-running the campaign;
//! * `--journal <file>` — stream every completed trial to a crash-safe
//!   JSONL journal;
//! * `--resume` — replay the journal named by `--journal` and run only
//!   the missing trials;
//! * `--from-journal <file>` — rebuild the reports from a journal
//!   instead of running any trials;
//! * `--check-golden` — after the campaign, compare the reports against
//!   the committed goldens (exit 1 on divergence);
//! * `--refresh-golden` — write the campaign's artefacts into the
//!   golden directory;
//! * `--golden-dir <dir>` — golden directory (default `results/golden`);
//! * `--trace` — enable the differential trace oracle: on a golden-run
//!   or golden-table failure, dump a minimal reproducer bundle
//!   (`fic::trace::ReproBundle`) for the offending ⟨error, case⟩;
//! * `--repro-dir <dir>` — where reproducer bundles go (default
//!   `results/repro`);
//! * `--no-checkpoint` — disable checkpointed trial execution (prefix
//!   forking and steady-state fast-forward) and replay every trial from
//!   t = 0. Results are bit-identical either way; this is the slow
//!   cross-check and benchmark baseline;
//! * `--no-analytic-settle` — restrict settle proofs to exact state
//!   recurrence, disabling the analytic absorbing-band relaxation
//!   (`arrestor::settle`). Results are bit-identical either way; trials
//!   whose pressures are still creeping toward their fixed point run
//!   longer;
//! * `--no-prune` — execute statically-inert errors (`fic::prune`)
//!   instead of sharing their test case's reference trial. Results are
//!   bit-identical either way; this is the differential cross-check
//!   for the dominance-prune pass;
//! * `--shard k/n` — run only shard `k` of `n` (1-based) of the trial
//!   grid: a deterministic slice recorded in the journal header.
//!   Combine shard journals with `merge_journals`;
//! * `--telemetry-jsonl <file>` — append periodic machine-readable
//!   progress snapshots (one JSON object per line) to `file`;
//! * `--no-telemetry` — disable the metrics registry, the live
//!   progress line and the end-of-campaign telemetry report;
//! * `--attribution` — record one assertion-level attribution event
//!   per trial (first-firing assertion, signal class, latency split),
//!   fold them into `<out>/attribution/<producer>.json`, and append
//!   them to the journal when one is attached;
//! * `--no-attribution` — explicitly disable attribution (the
//!   default; the pair of flags exists so scripts can be explicit);
//! * `--profile` — count every assertion check per EA during the run,
//!   sample per-check wall clock afterwards, and write the
//!   schema-versioned cost profile to `<out>/profile/` (see
//!   `fic::profile`); never changes a result bit;
//! * `--metrics-file <path>` — additionally write the end-of-campaign
//!   telemetry snapshot as Prometheus text exposition format 0.0.4
//!   (the same body the fleet server serves on `/metrics`);
//! * `--convergence-jsonl <file>` — enable the coverage-convergence
//!   monitor (`fic::convergence`) and append periodic per-cell
//!   Wilson-CI snapshot lines to `file`; also writes the final report
//!   under `<out>/convergence/`; never changes a result bit;
//! * `--precision-report` — enable the convergence monitor and print
//!   the advisory end-of-campaign precision summary (per-cell interval
//!   half-widths and trials-remaining forecast) on stderr; also writes
//!   the report under `<out>/convergence/`.

use std::path::PathBuf;
use std::sync::Arc;

use crate::attribution;
use crate::campaign::{AttributionSink, CampaignRunner, ConvergenceSink, ProgressOptions};
use crate::convergence;
use crate::profile;
use crate::protocol::Protocol;
use crate::telemetry;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Grid scale override (`n × n`).
    pub scale: Option<usize>,
    /// Observation-window override, ms.
    pub observation_ms: Option<u64>,
    /// Worker-thread override.
    pub workers: Option<usize>,
    /// Artefact output directory.
    pub out_dir: PathBuf,
    /// Load a saved report instead of running.
    pub load: Option<PathBuf>,
    /// Stream completed trials to this journal file.
    pub journal: Option<PathBuf>,
    /// Replay the `--journal` file and run only missing trials.
    pub resume: bool,
    /// Rebuild reports from a completed journal; no trials run.
    pub from_journal: Option<PathBuf>,
    /// Compare the results against the committed goldens.
    pub check_golden: bool,
    /// Overwrite the committed goldens with the current results.
    pub refresh_golden: bool,
    /// Where the golden artefacts live.
    pub golden_dir: PathBuf,
    /// Dump differential-oracle reproducer bundles on failure.
    pub trace: bool,
    /// Where reproducer bundles are written.
    pub repro_dir: PathBuf,
    /// Replay every trial from t = 0 instead of forking cached
    /// fault-free prefixes.
    pub no_checkpoint: bool,
    /// Restrict settle proofs to exact recurrence (no analytic
    /// absorbing band).
    pub no_analytic_settle: bool,
    /// Execute statically-inert errors instead of pruning them.
    pub no_prune: bool,
    /// Run only this deterministic slice of the trial grid:
    /// `(index, count)`, 1-based, from `--shard k/n`.
    pub shard: Option<(usize, usize)>,
    /// Append machine-readable progress snapshots to this JSONL file.
    pub telemetry_jsonl: Option<PathBuf>,
    /// Disable telemetry collection, progress and reports entirely.
    pub no_telemetry: bool,
    /// Record assertion-level attribution events and write the
    /// aggregate report under `<out>/attribution/`.
    pub attribution: bool,
    /// Count per-EA assertion checks and write the cost profile under
    /// `<out>/profile/`.
    pub profile: bool,
    /// Also write the telemetry snapshot as Prometheus text exposition
    /// to this file.
    pub metrics_file: Option<PathBuf>,
    /// Stream periodic coverage-convergence snapshots (per-cell Wilson
    /// CIs) to this JSONL file; implies the convergence monitor.
    pub convergence_jsonl: Option<PathBuf>,
    /// Print the advisory precision forecast at the end of the run;
    /// implies the convergence monitor.
    pub precision_report: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: None,
            observation_ms: None,
            workers: None,
            out_dir: PathBuf::from("results"),
            load: None,
            journal: None,
            resume: false,
            from_journal: None,
            check_golden: false,
            refresh_golden: false,
            golden_dir: PathBuf::from("results/golden"),
            trace: false,
            repro_dir: PathBuf::from("results/repro"),
            no_checkpoint: false,
            no_analytic_settle: false,
            no_prune: false,
            shard: None,
            telemetry_jsonl: None,
            no_telemetry: false,
            attribution: false,
            profile: false,
            metrics_file: None,
            convergence_jsonl: None,
            precision_report: false,
        }
    }
}

impl CliOptions {
    /// Parses `std::env::args`; exits with a usage message on bad input.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args) {
            Ok(options) => options,
            Err(message) => {
                eprintln!("{message}");
                eprintln!(
                    "usage: [--scale n] [--observation ms] [--workers n] [--out dir] \
                     [--load file] [--journal file] [--resume] [--from-journal file] \
                     [--check-golden] [--refresh-golden] [--golden-dir dir] \
                     [--trace] [--repro-dir dir] [--no-checkpoint] \
                     [--no-analytic-settle] [--no-prune] [--shard k/n] \
                     [--telemetry-jsonl file] [--no-telemetry] \
                     [--attribution] [--no-attribution] \
                     [--profile] [--metrics-file path] \
                     [--convergence-jsonl file] [--precision-report]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument list.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = CliOptions::default();
        let mut no_attribution = false;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--scale" => {
                    options.scale = Some(
                        value("--scale")?
                            .parse()
                            .map_err(|e| format!("--scale: {e}"))?,
                    );
                }
                "--observation" => {
                    options.observation_ms = Some(
                        value("--observation")?
                            .parse()
                            .map_err(|e| format!("--observation: {e}"))?,
                    );
                }
                "--workers" => {
                    options.workers = Some(
                        value("--workers")?
                            .parse()
                            .map_err(|e| format!("--workers: {e}"))?,
                    );
                }
                "--out" => options.out_dir = PathBuf::from(value("--out")?),
                "--load" => options.load = Some(PathBuf::from(value("--load")?)),
                "--journal" => options.journal = Some(PathBuf::from(value("--journal")?)),
                "--resume" => options.resume = true,
                "--from-journal" => {
                    options.from_journal = Some(PathBuf::from(value("--from-journal")?));
                }
                "--check-golden" => options.check_golden = true,
                "--refresh-golden" => options.refresh_golden = true,
                "--golden-dir" => options.golden_dir = PathBuf::from(value("--golden-dir")?),
                "--trace" => options.trace = true,
                "--repro-dir" => options.repro_dir = PathBuf::from(value("--repro-dir")?),
                "--no-checkpoint" => options.no_checkpoint = true,
                "--no-analytic-settle" => options.no_analytic_settle = true,
                "--no-prune" => options.no_prune = true,
                "--shard" => options.shard = Some(parse_shard(&value("--shard")?)?),
                "--telemetry-jsonl" => {
                    options.telemetry_jsonl = Some(PathBuf::from(value("--telemetry-jsonl")?));
                }
                "--no-telemetry" => options.no_telemetry = true,
                "--attribution" => options.attribution = true,
                "--no-attribution" => no_attribution = true,
                "--profile" => options.profile = true,
                "--metrics-file" => {
                    options.metrics_file = Some(PathBuf::from(value("--metrics-file")?));
                }
                "--convergence-jsonl" => {
                    options.convergence_jsonl = Some(PathBuf::from(value("--convergence-jsonl")?));
                }
                "--precision-report" => options.precision_report = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if options.resume && options.journal.is_none() {
            return Err("--resume needs --journal <file>".to_owned());
        }
        if options.no_telemetry && options.telemetry_jsonl.is_some() {
            return Err("--no-telemetry contradicts --telemetry-jsonl".to_owned());
        }
        if options.from_journal.is_some() && (options.journal.is_some() || options.resume) {
            return Err("--from-journal replays a finished journal; it cannot be \
                 combined with --journal/--resume"
                .to_owned());
        }
        if options.attribution && no_attribution {
            return Err("--attribution contradicts --no-attribution".to_owned());
        }
        if options.no_telemetry && options.metrics_file.is_some() {
            return Err("--no-telemetry contradicts --metrics-file".to_owned());
        }
        if no_attribution {
            options.attribution = false;
        }
        Ok(options)
    }

    /// Builds the protocol these options describe.
    pub fn protocol(&self) -> Protocol {
        let mut protocol = match self.scale {
            Some(n) => Protocol::scaled(n, simenv::spec::OBSERVATION_MS),
            None => Protocol::paper(),
        };
        if let Some(ms) = self.observation_ms {
            protocol.observation_ms = ms;
        }
        if let Some(w) = self.workers {
            protocol.workers = w;
        }
        protocol
    }

    /// A fresh metrics registry, or `None` under `--no-telemetry`.
    pub fn registry(&self) -> Option<Arc<telemetry::Registry>> {
        (!self.no_telemetry).then(|| Arc::new(telemetry::Registry::new()))
    }

    /// A campaign runner configured from these options: checkpointing,
    /// shard slice, and (when `registry` is given) metrics plus live
    /// progress with the optional `--telemetry-jsonl` stream.
    pub fn runner(&self, registry: Option<&Arc<telemetry::Registry>>) -> CampaignRunner {
        let mut runner = CampaignRunner::new(self.protocol())
            .with_checkpointing(!self.no_checkpoint)
            .with_analytic_settle(!self.no_analytic_settle)
            .with_pruning(!self.no_prune)
            .with_attribution(self.attribution);
        if self.profile {
            runner = runner.with_profile(Arc::new(profile::ProfileRecorder::new()));
        }
        if self.convergence_enabled() {
            let mut sink = ConvergenceSink::new();
            if let Some(path) = &self.convergence_jsonl {
                match std::fs::File::create(path) {
                    Ok(file) => sink = sink.with_stream(file, 0),
                    Err(e) => {
                        eprintln!("failed to open convergence stream {}: {e}", path.display())
                    }
                }
            }
            runner = runner.with_convergence(Arc::new(sink));
        }
        if let Some((index, count)) = self.shard {
            runner = runner.with_shard(index, count);
        }
        if let Some(registry) = registry {
            runner = runner
                .with_telemetry(Arc::clone(registry))
                .with_progress(ProgressOptions {
                    live: true,
                    stream_path: self.telemetry_jsonl.clone(),
                    stream_every: 0,
                });
        }
        runner
    }

    /// End-of-campaign telemetry emission: prints the human summary on
    /// stderr and writes the schema-versioned report under
    /// `<out>/telemetry/` (labelled by `producer`, with the shard
    /// suffixed so parallel shard runs never clobber each other).
    pub fn emit_telemetry(&self, producer: &str, registry: &telemetry::Registry) {
        let snapshot = registry.snapshot();
        eprint!("{}", telemetry::render_summary(&snapshot));
        if let Some(path) = &self.metrics_file {
            match std::fs::write(path, snapshot.to_prometheus()) {
                Ok(()) => eprintln!("metrics exposition written to {}", path.display()),
                Err(e) => eprintln!("failed to write metrics exposition: {e}"),
            }
        }
        let run =
            telemetry::RunMetadata::for_run(&self.protocol(), !self.no_checkpoint, self.shard);
        let report = telemetry::TelemetryReport::assemble(producer, run, snapshot);
        let label = match self.shard {
            Some((index, count)) => format!("{producer}-shard-{index}-of-{count}"),
            None => producer.to_owned(),
        };
        match telemetry::write_report(&self.out_dir.join("telemetry"), &label, &report) {
            Ok(path) => eprintln!("telemetry report written to {}", path.display()),
            Err(e) => eprintln!("failed to write telemetry report: {e}"),
        }
    }

    /// End-of-campaign attribution emission: prints the league table
    /// and coverage decomposition on stderr and writes the
    /// schema-versioned report under `<out>/attribution/` (shard
    /// suffixed, like telemetry).
    pub fn emit_attribution(&self, producer: &str, sink: &AttributionSink) {
        let aggregate = sink.snapshot();
        eprint!("{}", attribution::render_league(&aggregate));
        let run =
            telemetry::RunMetadata::for_run(&self.protocol(), !self.no_checkpoint, self.shard);
        let report = attribution::AttributionReport::assemble(producer, run, aggregate);
        eprint!(
            "{}",
            attribution::render_decomposition(&report.decomposition)
        );
        let label = match self.shard {
            Some((index, count)) => format!("{producer}-shard-{index}-of-{count}"),
            None => producer.to_owned(),
        };
        match attribution::write_report(&self.out_dir.join("attribution"), &label, &report) {
            Ok(path) => eprintln!("attribution report written to {}", path.display()),
            Err(e) => eprintln!("failed to write attribution report: {e}"),
        }
    }

    /// End-of-campaign profile emission: samples per-check wall clock,
    /// prints the cost league table on stderr and writes the
    /// schema-versioned report under `<out>/profile/` (shard suffixed,
    /// like telemetry).
    pub fn emit_profile(&self, producer: &str, recorder: &profile::ProfileRecorder) {
        let wall = profile::sample_wall_ns();
        let run =
            telemetry::RunMetadata::for_run(&self.protocol(), !self.no_checkpoint, self.shard);
        let report = profile::ProfileReport::assemble(producer, run, recorder, Some(wall));
        eprint!("{}", profile::render_league(&report));
        let label = match self.shard {
            Some((index, count)) => format!("{producer}-shard-{index}-of-{count}"),
            None => producer.to_owned(),
        };
        match profile::write_report(&self.out_dir.join("profile"), &label, &report) {
            Ok(path) => eprintln!("profile report written to {}", path.display()),
            Err(e) => eprintln!("failed to write profile report: {e}"),
        }
    }

    /// Whether either convergence flag switched the monitor on.
    pub fn convergence_enabled(&self) -> bool {
        self.convergence_jsonl.is_some() || self.precision_report
    }

    /// End-of-campaign convergence emission: flushes a final snapshot
    /// line to the `--convergence-jsonl` stream, prints the advisory
    /// precision forecast under `--precision-report`, and writes the
    /// schema-versioned report under `<out>/convergence/` (shard
    /// suffixed, like telemetry).
    pub fn emit_convergence(&self, producer: &str, sink: &ConvergenceSink) {
        sink.flush_stream();
        let aggregate = sink.snapshot();
        let run =
            telemetry::RunMetadata::for_run(&self.protocol(), !self.no_checkpoint, self.shard);
        let report =
            convergence::ConvergenceReport::assemble(producer, run, aggregate, sink.delta());
        if self.precision_report {
            eprint!(
                "{}",
                convergence::render_coverage(&aggregate.coverage(producer, sink.delta()))
            );
        }
        let label = match self.shard {
            Some((index, count)) => format!("{producer}-shard-{index}-of-{count}"),
            None => producer.to_owned(),
        };
        match convergence::write_report(&self.out_dir.join("convergence"), &label, &report) {
            Ok(path) => eprintln!("convergence report written to {}", path.display()),
            Err(e) => eprintln!("failed to write convergence report: {e}"),
        }
    }
}

/// Parses a `k/n` shard spec (1-based, `1 ≤ k ≤ n`).
fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let (index, count) = spec
        .split_once('/')
        .ok_or_else(|| format!("--shard: `{spec}` is not of the form k/n"))?;
    let index: usize = index
        .parse()
        .map_err(|e| format!("--shard index `{index}`: {e}"))?;
    let count: usize = count
        .parse()
        .map_err(|e| format!("--shard count `{count}`: {e}"))?;
    if count == 0 || index == 0 || index > count {
        return Err(format!(
            "--shard: index must satisfy 1 ≤ k ≤ n, got {index}/{count}"
        ));
    }
    Ok((index, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_to_paper_protocol() {
        let options = CliOptions::parse(&[]).unwrap();
        let protocol = options.protocol();
        assert_eq!(protocol.cases_per_error(), 25);
        assert_eq!(protocol.observation_ms, 40_000);
        assert_eq!(options.out_dir, PathBuf::from("results"));
        assert_eq!(options.golden_dir, PathBuf::from("results/golden"));
        assert!(!options.resume && !options.check_golden && !options.refresh_golden);
        assert!(options.journal.is_none() && options.from_journal.is_none());
        assert!(!options.trace);
        assert_eq!(options.repro_dir, PathBuf::from("results/repro"));
        assert!(!options.no_checkpoint);
    }

    #[test]
    fn parses_trace_flags() {
        let options = CliOptions::parse(&args(&["--trace", "--repro-dir", "/tmp/repro"])).unwrap();
        assert!(options.trace);
        assert_eq!(options.repro_dir, PathBuf::from("/tmp/repro"));
        assert!(CliOptions::parse(&args(&["--repro-dir"])).is_err());
    }

    #[test]
    fn parses_no_checkpoint() {
        let options = CliOptions::parse(&args(&["--no-checkpoint"])).unwrap();
        assert!(options.no_checkpoint);
    }

    #[test]
    fn parses_settle_and_prune_escape_hatches() {
        let options = CliOptions::parse(&[]).unwrap();
        assert!(!options.no_analytic_settle && !options.no_prune);
        let runner = options.runner(None);
        assert!(runner.analytic_settle());
        assert!(runner.pruning());

        let options = CliOptions::parse(&args(&["--no-analytic-settle", "--no-prune"])).unwrap();
        assert!(options.no_analytic_settle && options.no_prune);
        let runner = options.runner(None);
        assert!(!runner.analytic_settle());
        assert!(!runner.pruning());
    }

    /// Every flag documented in the README's flag tables must be one
    /// that *some* parser knows — `fic::cli` for the table/figure
    /// binaries, or the fleet server/worker parsers for theirs — so
    /// the drift this PR fixes stays fixed.
    #[test]
    fn readme_documents_only_known_flags() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the repo root");
        // A parser "knows" a flag unless it rejects both the
        // with-value and the bare form as an unknown flag.
        fn unknown<T>(r: &Result<T, String>) -> bool {
            r.as_ref().err().is_some_and(|e| e.contains("unknown flag"))
        }
        let mut checked = 0;
        for line in readme.lines() {
            let Some(rest) = line.strip_prefix("| `--") else {
                continue;
            };
            let flag: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '-')
                .collect();
            let flag = format!("--{flag}");
            // A plausible value for flags that take one; harmless
            // trailing junk is an "unknown flag" error for those that
            // don't, so probe both shapes.
            let value = if flag == "--shard" { "1/2" } else { "1" };
            let with_value = args(&[&flag, value]);
            let bare = args(&[&flag]);
            let cli_knows =
                !(unknown(&CliOptions::parse(&with_value)) && unknown(&CliOptions::parse(&bare)));
            let server_knows = !(unknown(&crate::fleet::ServerOptions::parse(&with_value))
                && unknown(&crate::fleet::ServerOptions::parse(&bare)));
            let worker_knows = !(unknown(&crate::fleet::WorkerOptions::parse(&with_value))
                && unknown(&crate::fleet::WorkerOptions::parse(&bare)));
            assert!(
                cli_knows || server_knows || worker_knows,
                "README documents `{flag}`, which no fic parser accepts"
            );
            checked += 1;
        }
        assert!(checked >= 20, "README flag table went missing ({checked})");
    }

    /// The reverse direction: every flag literal one of the parsers
    /// matches on must be documented (backticked) in the README, so a
    /// new flag cannot land without a row in a flag table. Flag
    /// literals are extracted from the parser sources up to their
    /// `#[cfg(test)]` modules — tests probe deliberately-unknown flags.
    #[test]
    fn readme_documents_every_parser_flag() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the repo root");
        // Flags the README documents: every `` `--name `` occurrence,
        // captured until the first non-flag character (rows write
        // operands as `` `--scale <n>` ``).
        let documented: std::collections::BTreeSet<String> = readme
            .match_indices("`--")
            .map(|(at, _)| {
                readme[at + 1..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '-')
                    .collect()
            })
            .collect();
        // Flags the parsers accept: every string literal of the shape
        // `"--name"` before the test module. The opener is assembled at
        // runtime so this test's own source text never matches itself.
        let opener = format!("{}--", '"');
        let sources = [
            ("cli.rs", include_str!("cli.rs")),
            ("fleet/server.rs", include_str!("fleet/server.rs")),
            ("fleet/worker.rs", include_str!("fleet/worker.rs")),
        ];
        let mut accepted = 0;
        for (file, source) in sources {
            let parser = source.split("#[cfg(test)]").next().unwrap();
            for (at, _) in parser.match_indices(&opener) {
                let name: String = parser[at + opener.len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '-')
                    .collect();
                if name.is_empty() || !parser[at + opener.len() + name.len()..].starts_with('"') {
                    continue;
                }
                let flag = format!("--{name}");
                assert!(
                    documented.contains(&flag),
                    "{file} accepts `{flag}` but the README does not document it"
                );
                accepted += 1;
            }
        }
        assert!(accepted >= 30, "flag extraction went missing ({accepted})");
    }

    #[test]
    fn parses_overrides() {
        let options = CliOptions::parse(&args(&[
            "--scale",
            "2",
            "--observation",
            "5000",
            "--workers",
            "3",
            "--out",
            "/tmp/x",
        ]))
        .unwrap();
        let protocol = options.protocol();
        assert_eq!(protocol.cases_per_error(), 4);
        assert_eq!(protocol.observation_ms, 5_000);
        assert_eq!(protocol.workers, 3);
        assert_eq!(options.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn parses_journal_and_golden_flags() {
        let options = CliOptions::parse(&args(&[
            "--journal",
            "results/campaign.jsonl",
            "--resume",
            "--check-golden",
            "--golden-dir",
            "results/golden-alt",
        ]))
        .unwrap();
        assert_eq!(
            options.journal,
            Some(PathBuf::from("results/campaign.jsonl"))
        );
        assert!(options.resume);
        assert!(options.check_golden);
        assert_eq!(options.golden_dir, PathBuf::from("results/golden-alt"));

        let options =
            CliOptions::parse(&args(&["--from-journal", "x.jsonl", "--refresh-golden"])).unwrap();
        assert_eq!(options.from_journal, Some(PathBuf::from("x.jsonl")));
        assert!(options.refresh_golden);
    }

    #[test]
    fn parses_shard_and_telemetry_flags() {
        let options = CliOptions::parse(&args(&[
            "--shard",
            "2/4",
            "--telemetry-jsonl",
            "/tmp/progress.jsonl",
        ]))
        .unwrap();
        assert_eq!(options.shard, Some((2, 4)));
        assert_eq!(
            options.telemetry_jsonl,
            Some(PathBuf::from("/tmp/progress.jsonl"))
        );
        assert!(!options.no_telemetry);
        let options = CliOptions::parse(&args(&["--no-telemetry"])).unwrap();
        assert!(options.no_telemetry);
    }

    #[test]
    fn rejects_bad_shards() {
        for bad in ["0/4", "5/4", "2", "a/b", "1/0", "/3"] {
            assert!(
                CliOptions::parse(&args(&["--shard", bad])).is_err(),
                "accepted --shard {bad}"
            );
        }
        assert!(
            CliOptions::parse(&args(&["--no-telemetry", "--telemetry-jsonl", "x.jsonl"])).is_err()
        );
    }

    #[test]
    fn parses_attribution_flags() {
        assert!(!CliOptions::parse(&[]).unwrap().attribution);
        assert!(
            CliOptions::parse(&args(&["--attribution"]))
                .unwrap()
                .attribution
        );
        assert!(
            !CliOptions::parse(&args(&["--no-attribution"]))
                .unwrap()
                .attribution
        );
        assert!(CliOptions::parse(&args(&["--attribution", "--no-attribution"])).is_err());
    }

    #[test]
    fn parses_profile_and_metrics_flags() {
        let options = CliOptions::parse(&[]).unwrap();
        assert!(!options.profile && options.metrics_file.is_none());
        assert!(options.runner(None).profile().is_none());

        let options =
            CliOptions::parse(&args(&["--profile", "--metrics-file", "/tmp/m.prom"])).unwrap();
        assert!(options.profile);
        assert_eq!(options.metrics_file, Some(PathBuf::from("/tmp/m.prom")));
        assert!(options.runner(None).profile().is_some());

        assert!(CliOptions::parse(&args(&["--metrics-file"])).is_err());
        assert!(CliOptions::parse(&args(&["--no-telemetry", "--metrics-file", "x"])).is_err());
    }

    #[test]
    fn parses_convergence_flags() {
        let options = CliOptions::parse(&[]).unwrap();
        assert!(options.convergence_jsonl.is_none() && !options.precision_report);
        assert!(!options.convergence_enabled());
        assert!(options.runner(None).convergence().is_none());

        let options = CliOptions::parse(&args(&[
            "--convergence-jsonl",
            "/tmp/conv.jsonl",
            "--precision-report",
        ]))
        .unwrap();
        assert_eq!(
            options.convergence_jsonl,
            Some(PathBuf::from("/tmp/conv.jsonl"))
        );
        assert!(options.precision_report && options.convergence_enabled());

        let options = CliOptions::parse(&args(&["--precision-report"])).unwrap();
        assert!(options.convergence_enabled());
        assert!(options.runner(None).convergence().is_some());

        assert!(CliOptions::parse(&args(&["--convergence-jsonl"])).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(CliOptions::parse(&args(&["--bogus"])).is_err());
        assert!(CliOptions::parse(&args(&["--scale"])).is_err());
        assert!(CliOptions::parse(&args(&["--scale", "two"])).is_err());
    }

    #[test]
    fn rejects_inconsistent_journal_flags() {
        assert!(CliOptions::parse(&args(&["--resume"])).is_err());
        assert!(CliOptions::parse(&args(&[
            "--from-journal",
            "a.jsonl",
            "--journal",
            "b.jsonl"
        ]))
        .is_err());
        assert!(CliOptions::parse(&args(&["--from-journal", "a.jsonl", "--resume"])).is_err());
    }
}
