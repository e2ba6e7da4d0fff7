//! The traced layer pass: per-layer counts and self times, and the
//! closure check that adds them up to the campaign's wall time.
//!
//! Counts come from the traced campaign (its `telemetry::Registry`, and
//! for the fleet the flight recorder); unit costs come from the
//! benchmark driving the same trials through public calls
//! ([`crate::tracer`]) and timing the read path, the journal, the
//! folds and the wire frames itself.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use arrestor::{EaId, EaSet, RunConfig, System};
use fic::fleet::wire::{decode_payload, encode_frame};
use fic::fleet::{Command, FlightLog, FrameBuffer, SpanKind};
use fic::journal::JournalTelemetry;
use fic::telemetry::{self, Registry, TelemetrySnapshot};
use fic::{
    CampaignKind, CampaignRunner, ConvergenceAggregate, E1Report, E2Report, Journal, JournalWriter,
    Protocol, TrialRecord,
};

use crate::gate::Tally;
use crate::inputs::{Inputs, WORKERS};
use crate::measure::{median, quantile, ratio, Metrics};
use crate::tracer::{self, Pass, Spans};
use crate::workloads::{Campaign, Workload};

/// `campaign.unexplained_s` (the magnitude of wall minus explained
/// time) within this share of the campaign's wall time counts as
/// closed. A residual outside it is printed as a finding; it never
/// fails the run.
pub const CLOSURE_TOLERANCE: f64 = 0.15;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("arrestor.sim_ms", "count"),
    ("arrestor.tick_ns", "ns"),
    ("arrestor.host_ns_per_sim_ms", "ns"),
    ("ea_core.checks", "count"),
    ("ea_core.check_ns", "ns"),
    ("memsim.injections", "count"),
    ("memsim.inject_ns", "ns"),
    ("simenv.plant_step_ns", "ns"),
    ("checkpoint.forks", "count"),
    ("checkpoint.fork_us", "us"),
    ("checkpoint.prefix_build_ms", "ms"),
    ("settle.captures", "count"),
    ("settle.capture_ns", "ns"),
    ("settle.sim_ms_per_trial", "ms"),
    ("settle.settled_ratio", "ratio"),
    ("settle.analytic_stops", "count"),
    ("settle.stop_ms_mean", "ms"),
    ("prune.pruned_ratio", "ratio"),
    ("prune.classify_ns", "ns"),
    ("prune.reference_trials", "count"),
    ("campaign.trials", "count"),
    ("campaign.wall_s", "s"),
    ("campaign.trial_us_p50", "us"),
    ("campaign.trial_us_p99", "us"),
    ("campaign.queue_wait_us_p50", "us"),
    ("campaign.explained_s", "s"),
    ("campaign.unexplained_s", "s"),
    ("fold.record_ns", "ns"),
    ("attribution.aggregate_ms", "ms"),
    ("convergence.from_reports_ms", "ms"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("journal.append_us", "us"),
    ("journal.sync_us_p50", "us"),
    ("journal.sync_us_p99", "us"),
    ("journal.load_ms", "ms"),
    ("journal.replay_ms", "ms"),
    ("fleet.slices", "count"),
    ("fleet.lease_wait_ms_p50", "ms"),
    ("fleet.lease_wait_ms_p90", "ms"),
    ("fleet.execute_ms_p50", "ms"),
    ("fleet.execute_ms_p90", "ms"),
    ("fleet.fold_ms_p50", "ms"),
    ("fleet.fold_ms_p90", "ms"),
    ("fleet.frame_bytes", "bytes"),
    ("fleet.frame_encode_us", "us"),
    ("fleet.frame_decode_us", "us"),
    ("fleet.worker_idle_s", "s"),
    ("fleet.reassigned", "count"),
    ("trace.overhead_ratio", "ratio"),
];

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The campaigns one layer-pass round measures against: the untraced
/// campaign's wall time and the traced campaign's outputs.
pub struct Observation<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its inputs.
    pub inputs: &'a Inputs,
    /// Wall seconds of the untraced campaign.
    pub untraced_wall_s: f64,
    /// The traced campaign.
    pub traced: &'a Campaign,
}

/// Measures every per-layer metric once. Adds a failure to `tally`
/// whenever the tracer drifts from the runner.
pub fn measure(obs: &Observation<'_>, tally: &mut Tally) -> Metrics {
    let protocol = &obs.inputs.protocol;
    let mut jobs: Vec<(CampaignKind, Vec<memsim::BitFlip>)> = Vec::new();
    if obs.workload != Workload::E2Observed {
        jobs.push((
            CampaignKind::E1,
            obs.inputs.e1.iter().map(|e| e.flip).collect(),
        ));
    }
    jobs.push((
        CampaignKind::E2,
        obs.inputs.e2.iter().map(|e| e.flip).collect(),
    ));

    // Tracer passes: untraced first, then traced, on the same trials.
    let mut untraced_s = 0.0;
    let mut spans = Spans::default();
    let mut traced_s = 0.0;
    let mut record_ns = 0u64;
    let mut folded = 0u64;
    for (kind, flips) in &jobs {
        untraced_s += tracer::drive::<false>(protocol, flips, WORKERS).wall_s;
        let pass = tracer::drive::<true>(protocol, flips, WORKERS);
        traced_s += pass.wall_s;
        let (ns, n) = fold_and_check(obs, *kind, &pass, tally);
        record_ns += ns;
        folded += n;
        check_shapes(protocol, flips, &pass, tally);
        spans.merge(pass.spans);
    }
    check_counts(&obs.traced.telemetry, &spans, tally);

    let mut m = Metrics::default();
    let (check_ns, plant_step_ns) = unit_microbench(protocol);
    let executed = spans.executed as f64;
    let attempted = (spans.executed + spans.pruned) as f64;
    let ns_per = |total: u64, n: u64| ratio(total as f64, n as f64);

    m.put("arrestor.sim_ms", spans.ticks as f64, "count");
    m.put("arrestor.tick_ns", ns_per(spans.tick_ns, spans.ticks), "ns");
    m.put(
        "arrestor.host_ns_per_sim_ms",
        ratio(
            obs.untraced_wall_s * 1e9 * WORKERS as f64,
            spans.ticks as f64,
        ),
        "ns",
    );
    m.put("ea_core.checks", spans.ea_checks as f64, "count");
    m.put("ea_core.check_ns", check_ns, "ns");
    m.put("memsim.injections", spans.injections as f64, "count");
    m.put(
        "memsim.inject_ns",
        ns_per(spans.inject_ns, spans.injections),
        "ns",
    );
    m.put("simenv.plant_step_ns", plant_step_ns, "ns");
    m.put("checkpoint.forks", spans.forks as f64, "count");
    m.put(
        "checkpoint.fork_us",
        ns_per(spans.fork_ns, spans.forks) / 1e3,
        "us",
    );
    m.put(
        "checkpoint.prefix_build_ms",
        spans.prefix_ns as f64 / 1e6,
        "ms",
    );
    m.put("settle.captures", spans.captures as f64, "count");
    m.put(
        "settle.capture_ns",
        ns_per(spans.check_ns, spans.captures),
        "ns",
    );
    m.put(
        "settle.sim_ms_per_trial",
        ratio(spans.executed_sim_ms as f64, executed),
        "ms",
    );
    m.put(
        "settle.settled_ratio",
        ratio(spans.settled as f64, executed),
        "ratio",
    );
    m.put(
        "settle.analytic_stops",
        spans.analytic_stops as f64,
        "count",
    );
    m.put(
        "settle.stop_ms_mean",
        ratio(spans.stop_ms_sum as f64, spans.settled as f64),
        "ms",
    );
    m.put(
        "prune.pruned_ratio",
        ratio(spans.pruned as f64, attempted),
        "ratio",
    );
    m.put(
        "prune.classify_ns",
        ns_per(spans.classify_ns, spans.classified),
        "ns",
    );
    m.put("prune.reference_trials", spans.references as f64, "count");
    m.put("campaign.trials", obs.traced.trials as f64, "count");
    m.put("campaign.wall_s", obs.untraced_wall_s, "s");
    m.put(
        "campaign.trial_us_p50",
        quantile(&spans.trial_us, 0.5),
        "us",
    );
    m.put(
        "campaign.trial_us_p99",
        quantile(&spans.trial_us, 0.99),
        "us",
    );
    m.put(
        "campaign.queue_wait_us_p50",
        median(&spans.queue_wait_us),
        "us",
    );
    m.put("fold.record_ns", ns_per(record_ns, folded), "ns");

    // Observer folds and the journal, where the workload has them.
    let mut serial_ns = 0.0;
    let mut parallel_ns = spans.spanned_ns() as f64 + record_ns as f64;
    let started = Instant::now();
    let convergence = ConvergenceAggregate::from_reports(&obs.traced.e1, &obs.traced.e2);
    let from_reports_ms = ms_since(started);
    black_box(convergence);
    m.put("convergence.from_reports_ms", from_reports_ms, "ms");
    let journal = match &obs.traced.journal {
        Some(path) => journal_layer(path, tally),
        None => JournalUnits::default(),
    };
    m.put("attribution.aggregate_ms", journal.aggregate_ms, "ms");
    m.put("journal.appends", journal.appends as f64, "count");
    m.put("journal.bytes", journal.bytes as f64, "bytes");
    m.put("journal.append_us", median(&journal.append_us), "us");
    m.put("journal.sync_us_p50", quantile(&journal.sync_us, 0.5), "us");
    m.put(
        "journal.sync_us_p99",
        quantile(&journal.sync_us, 0.99),
        "us",
    );
    m.put("journal.load_ms", journal.load_ms, "ms");
    m.put("journal.replay_ms", journal.replay_ms, "ms");
    parallel_ns +=
        (journal.append_us.iter().sum::<f64>() + journal.sync_us.iter().sum::<f64>()) * 1e3;
    if obs.workload == Workload::E2Observed {
        // The workload reads its journal back after the campaign, on
        // one thread.
        serial_ns +=
            (journal.load_ms + journal.replay_ms + journal.aggregate_ms + from_reports_ms) * 1e6;
    }

    let fleet = match (&obs.traced.flight, &obs.traced.journal) {
        (Some(log), Some(path)) => fleet_layer(log, path, obs.inputs, tally),
        _ => FleetUnits::default(),
    };
    m.put("fleet.slices", fleet.slices as f64, "count");
    m.put(
        "fleet.lease_wait_ms_p50",
        quantile(&fleet.lease_wait_ms, 0.5),
        "ms",
    );
    m.put(
        "fleet.lease_wait_ms_p90",
        quantile(&fleet.lease_wait_ms, 0.9),
        "ms",
    );
    m.put(
        "fleet.execute_ms_p50",
        quantile(&fleet.execute_ms, 0.5),
        "ms",
    );
    m.put(
        "fleet.execute_ms_p90",
        quantile(&fleet.execute_ms, 0.9),
        "ms",
    );
    m.put("fleet.fold_ms_p50", quantile(&fleet.fold_ms, 0.5), "ms");
    m.put("fleet.fold_ms_p90", quantile(&fleet.fold_ms, 0.9), "ms");
    m.put("fleet.frame_bytes", fleet.frame_bytes as f64, "bytes");
    m.put(
        "fleet.frame_encode_us",
        ratio(fleet.encode_us, fleet.frames as f64),
        "us",
    );
    m.put(
        "fleet.frame_decode_us",
        ratio(fleet.decode_us, fleet.frames as f64),
        "us",
    );
    m.put("fleet.worker_idle_s", fleet.worker_idle_s, "s");
    m.put("fleet.reassigned", fleet.reassigned as f64, "count");
    parallel_ns += (fleet.encode_us + fleet.decode_us) * 1e3;

    // Closure: worker-side layer time shared over the workers, plus the
    // serial read path, against the untraced campaign.
    let explained_s = (parallel_ns / WORKERS as f64 + serial_ns) / 1e9;
    // The residual is signed on stderr; the metric is its magnitude,
    // so over-counting cannot read as an improvement.
    let residual_s = obs.untraced_wall_s - explained_s;
    m.put("campaign.explained_s", explained_s, "s");
    m.put("campaign.unexplained_s", residual_s.abs(), "s");
    if residual_s.abs() > CLOSURE_TOLERANCE * obs.untraced_wall_s {
        eprintln!(
            "campaignbench: finding: {} layer closure is open: wall minus explained is \
             {residual_s:+.3} s of a {:.3} s campaign (tolerance {:.0} %)",
            obs.workload.name(),
            obs.untraced_wall_s,
            CLOSURE_TOLERANCE * 100.0
        );
    }
    m.put(
        "trace.overhead_ratio",
        ratio(traced_s - untraced_s, untraced_s),
        "ratio",
    );
    m
}

/// Folds the tracer's trials into a report (timed per record) and
/// checks the report equals the campaign's.
fn fold_and_check(
    obs: &Observation<'_>,
    kind: CampaignKind,
    pass: &Pass,
    tally: &mut Tally,
) -> (u64, u64) {
    let n = pass.trials.len() as u64;
    let started = Instant::now();
    let same = match kind {
        CampaignKind::E1 => {
            let mut report = E1Report::new();
            for (ei, _, trial) in &pass.trials {
                report.record(&obs.inputs.e1[*ei], trial);
            }
            report == obs.traced.e1
        }
        CampaignKind::E2 => {
            let mut report = E2Report::new();
            for (ei, _, trial) in &pass.trials {
                report.record(&obs.inputs.e2[*ei], trial);
            }
            report == obs.traced.e2
        }
    };
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    tally.check(same, n, || {
        format!(
            "layer-pass {} report differs from the campaign's",
            kind.label()
        )
    });
    (ns, n)
}

/// The tracer's execution shape must equal
/// `run_trial_checkpointed_observed_with`'s on a fixed sample.
fn check_shapes(protocol: &Protocol, flips: &[memsim::BitFlip], pass: &Pass, tally: &mut Tally) {
    let cases = protocol.grid.cases();
    let mut prefixes = BTreeMap::new();
    let step = (pass.shapes.len() / 16).max(1);
    let mut sample: Vec<_> = pass.shapes.clone();
    sample.sort_unstable_by_key(|s| (s.1, s.0));
    for &(ei, ci, shape) in sample.iter().step_by(step) {
        let prefix = prefixes
            .entry(ci)
            .or_insert_with(|| fic::fault_free_prefix(protocol, cases[ci]));
        let (_, exec) = fic::experiment::run_trial_checkpointed_observed_with(
            protocol,
            flips[ei],
            cases[ci],
            prefix,
            tracer::ANALYTIC_SETTLE,
        );
        let theirs = tracer::Shape {
            simulated_ms: exec.simulated_ms,
            settle_captures: exec.settle_captures,
            settle_stop_ms: exec.settle_stop_ms,
        };
        tally.check(theirs == shape, 1, || {
            format!("layer pass drifted from the runner on error {ei} case {ci}: {shape:?} vs {theirs:?}")
        });
    }
}

/// The tracer's counts must equal the traced campaign's telemetry.
fn check_counts(t: &TelemetrySnapshot, s: &Spans, tally: &mut Tally) {
    let captures = t
        .histograms
        .get("campaign.settle.captures")
        .map_or(0, |h| h.sum);
    let pairs = [
        (
            "campaign.window_ms.simulated",
            t.counter("campaign.window_ms.simulated"),
            s.executed_sim_ms,
        ),
        ("campaign.settle.captures", captures, s.executed_captures),
        (
            "campaign.trials.settled",
            t.counter("campaign.trials.settled"),
            s.settled,
        ),
        (
            "campaign.settle.analytic.stops",
            t.counter("campaign.settle.analytic.stops"),
            s.analytic_stops,
        ),
        (
            "campaign.prune.trials",
            t.counter("campaign.prune.trials"),
            s.pruned,
        ),
        (
            "campaign.prune.references",
            t.counter("campaign.prune.references"),
            s.references,
        ),
    ];
    for (name, campaign, driven) in pairs {
        tally.check(campaign == driven, 1, || {
            format!("layer pass counts {driven} for {name}, the campaign {campaign}")
        });
    }
}

/// Unit costs the tick loop hides: one assertion check
/// (`Detectors::check`) and one plant step (`Plant::step`), each
/// replayed from a fault-free run of every grid case.
fn unit_microbench(protocol: &Protocol) -> (f64, f64) {
    const TICKS: u64 = 3_000;
    let mut check_ns = Vec::new();
    let mut step_ns = Vec::new();
    for case in protocol.grid.cases() {
        let config = RunConfig {
            observation_ms: protocol.observation_ms,
            ..RunConfig::default()
        };
        let mut system = System::new(case, config);
        let monitored = system.master().signals().monitored();
        let mut checks: Vec<(EaId, u16, u64)> = Vec::new();
        let mut pressures: Vec<(f64, f64)> = Vec::new();
        let mut before = system.master().detectors().check_counts();
        while system.time_ms() < TICKS.min(protocol.observation_ms) {
            system.tick();
            let after = system.master().detectors().check_counts();
            let ram = system.master().memory().app();
            for ea in EaId::ALL {
                for _ in before[ea.index()]..after[ea.index()] {
                    let value = ram.read_u16(monitored[ea.index()].1).unwrap_or(0);
                    checks.push((ea, value, system.time_ms()));
                }
            }
            before = after;
            let state = system.plant_state();
            pressures.push((state.pressure_master_bar, state.pressure_slave_bar));
        }
        let mut detectors = arrestor::build_detectors(EaSet::ALL);
        let started = Instant::now();
        for &(ea, value, at) in &checks {
            black_box(detectors.check(ea, black_box(value), at));
        }
        check_ns.push(started.elapsed().as_nanos() as f64 / checks.len().max(1) as f64);
        let mut plant = simenv::Plant::new(case);
        let started = Instant::now();
        for &(master, slave) in &pressures {
            black_box(plant.step(black_box(master), slave));
        }
        step_ns.push(started.elapsed().as_nanos() as f64 / pressures.len().max(1) as f64);
    }
    (median(&check_ns), median(&step_ns))
}

#[derive(Debug, Default)]
struct JournalUnits {
    appends: u64,
    bytes: u64,
    append_us: Vec<f64>,
    sync_us: Vec<f64>,
    load_ms: f64,
    replay_ms: f64,
    aggregate_ms: f64,
}

/// Times the journal's read path on the campaign's journal, then its
/// write path by appending the same lines, in the same order, to a
/// fresh journal next to it. An append that triggered a batch `fsync`
/// (the writer's flush histogram ticked) is a sync sample.
fn journal_layer(path: &Path, tally: &mut Tally) -> JournalUnits {
    let mut units = JournalUnits::default();
    let started = Instant::now();
    let journal = Journal::load(path).expect("load the campaign journal");
    units.load_ms = ms_since(started);
    let started = Instant::now();
    let replayed = journal.replay();
    units.replay_ms = ms_since(started);
    tally.check(replayed.is_ok(), 1, || {
        format!("journal replay failed: {replayed:?}")
    });
    let started = Instant::now();
    let aggregate = fic::attribution::aggregate_journal(&journal);
    units.aggregate_ms = ms_since(started);
    tally.check(aggregate.is_ok(), 1, || {
        "journal attribution fold failed".to_owned()
    });

    let copy = path.with_extension("rewrite.jsonl");
    let registry = Registry::new();
    let flushes = registry.histogram("journal.flush_latency_us", &telemetry::span_bounds_us());
    let mut writer = JournalWriter::create(&copy, &journal.header.protocol)
        .expect("create the scratch journal")
        .with_telemetry(JournalTelemetry::register(&registry));
    let time = |units: &mut JournalUnits, append: &mut dyn FnMut() -> std::io::Result<()>| {
        let synced = flushes.count();
        let started = Instant::now();
        append().expect("append to the scratch journal");
        let us = started.elapsed().as_secs_f64() * 1e6;
        if flushes.count() > synced {
            units.sync_us.push(us);
        } else {
            units.append_us.push(us);
        }
    };
    for (i, r) in journal.records.iter().enumerate() {
        time(&mut units, &mut || {
            writer.append(r.campaign, r.error_number, r.case_index, &r.trial)
        });
        if let Some(event) = journal.attribution.get(i) {
            time(&mut units, &mut || writer.append_attribution(event));
        }
    }
    writer.finish().expect("sync the scratch journal");
    let written = registry.snapshot();
    units.appends = written.counter("journal.appends");
    units.bytes = written.counter("journal.bytes_written");
    let _ = std::fs::remove_file(&copy);
    units
}

#[derive(Debug, Default)]
struct FleetUnits {
    slices: u64,
    lease_wait_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    fold_ms: Vec<f64>,
    frames: u64,
    frame_bytes: u64,
    encode_us: f64,
    decode_us: f64,
    worker_idle_s: f64,
    reassigned: u64,
}

/// Slice lifecycle from the flight log (Enqueued → Leased → Submitted
/// → Folded, on the server's millisecond clock), and the wire cost of
/// each slice's result frame rebuilt from the fleet journal and the
/// slice's telemetry ([`slice_telemetry`]).
fn fleet_layer(
    log: &FlightLog,
    journal_path: &Path,
    inputs: &Inputs,
    tally: &mut Tally,
) -> FleetUnits {
    let mut units = FleetUnits::default();
    let mut by_slice: BTreeMap<u64, BTreeMap<SpanKind, u64>> = BTreeMap::new();
    let mut first_lease = u64::MAX;
    let mut last_fold = 0;
    for event in &log.events {
        if event.kind == SpanKind::Reassigned {
            units.reassigned += 1;
        }
        // The first occurrence of each transition wins.
        by_slice
            .entry(event.slice_id)
            .or_default()
            .entry(event.kind)
            .or_insert(event.at_ms);
        match event.kind {
            SpanKind::Leased => first_lease = first_lease.min(event.at_ms),
            SpanKind::Folded => last_fold = last_fold.max(event.at_ms),
            _ => {}
        }
    }
    let mut busy_ms = 0.0;
    for marks in by_slice.values() {
        let at = |k: SpanKind| marks.get(&k).copied();
        if let (Some(q), Some(l), Some(s), Some(f)) = (
            at(SpanKind::Enqueued),
            at(SpanKind::Leased),
            at(SpanKind::Submitted),
            at(SpanKind::Folded),
        ) {
            units.lease_wait_ms.push(l.saturating_sub(q) as f64);
            units.execute_ms.push(s.saturating_sub(l) as f64);
            units.fold_ms.push(f.saturating_sub(s) as f64);
            busy_ms += s.saturating_sub(l) as f64;
        }
    }
    units.slices = by_slice.len() as u64;
    tally.check(units.execute_ms.len() == by_slice.len(), 1, || {
        "flight log has slices without a complete lifecycle".to_owned()
    });
    let span_ms = last_fold.saturating_sub(first_lease) as f64;
    units.worker_idle_s = (span_ms * WORKERS as f64 - busy_ms).max(0.0) / 1e3;

    let journal = Journal::load(journal_path).expect("load the fleet journal");
    let mut slices: BTreeMap<(&str, usize), Vec<TrialRecord>> = BTreeMap::new();
    for record in journal.records {
        slices
            .entry((record.campaign.label(), record.case_index))
            .or_default()
            .push(record);
    }
    let slices: Vec<Vec<TrialRecord>> = slices.into_values().collect();
    tally.check(slices.len() as u64 == units.slices, 1, || {
        format!(
            "fleet journal has {} slices, the flight log {}",
            slices.len(),
            units.slices
        )
    });
    let snapshots = slice_telemetry(&slices, inputs, tally);
    for (slice_id, (records, telemetry)) in slices.into_iter().zip(snapshots).enumerate() {
        let command = Command::SliceResult {
            worker_id: 1,
            slice_id: slice_id as u64,
            records,
            telemetry,
        };
        let started = Instant::now();
        let frame = encode_frame(&command);
        units.encode_us += started.elapsed().as_secs_f64() * 1e6;
        units.frames += 1;
        units.frame_bytes += frame.len() as u64;
        let started = Instant::now();
        let mut buffer = FrameBuffer::new();
        buffer.extend(&frame);
        let decoded = buffer
            .next_payload()
            .ok()
            .flatten()
            .and_then(|payload| decode_payload::<Command>(&payload).ok());
        units.decode_us += started.elapsed().as_secs_f64() * 1e6;
        tally.check(decoded.as_ref() == Some(&command), 1, || {
            "a slice result frame did not round-trip".to_owned()
        });
    }
    units
}

/// The telemetry snapshot each slice's worker sends with its result:
/// the slice's trials run again, untimed, the way a fleet worker runs
/// them (a default runner on one thread with its own registry). The
/// rerun's trials must equal the journal's, so the frames carry what
/// the fleet computed.
fn slice_telemetry(
    slices: &[Vec<TrialRecord>],
    inputs: &Inputs,
    tally: &mut Tally,
) -> Vec<TelemetrySnapshot> {
    let mut protocol = inputs.protocol.clone();
    protocol.workers = 1;
    let rerun = |records: &[TrialRecord]| -> (bool, TelemetrySnapshot) {
        let registry = Arc::new(Registry::new());
        let runner = CampaignRunner::new(protocol.clone()).with_telemetry(Arc::clone(&registry));
        let case = records[0].case_index;
        let pairs: Vec<(usize, usize)> = (0..records.len()).map(|i| (i, case)).collect();
        let numbers = || records.iter().map(|r| r.error_number);
        let trials = match records[0].campaign {
            CampaignKind::E1 => numbers()
                .map(|n| inputs.e1.iter().find(|e| e.number == n).copied())
                .collect::<Option<Vec<_>>>()
                .map(|errors| runner.run_e1_pairs(&errors, &pairs)),
            CampaignKind::E2 => numbers()
                .map(|n| inputs.e2.iter().find(|e| e.number == n).copied())
                .collect::<Option<Vec<_>>>()
                .map(|errors| runner.run_e2_pairs(&errors, &pairs)),
        }
        .unwrap_or_default();
        let same = trials.len() == records.len()
            && trials.iter().zip(records).all(|(t, r)| t.2 == r.trial);
        (same, registry.snapshot())
    };
    // Two threads, as the fleet had two workers.
    let mut results: Vec<(usize, (bool, TelemetrySnapshot))> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let rerun = &rerun;
                scope.spawn(move || {
                    slices
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % WORKERS == w)
                        .map(|(i, records)| (i, rerun(records)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("slice rerun thread panicked"))
            .collect()
    });
    results.sort_by_key(|(i, _)| *i);
    results
        .into_iter()
        .map(|(_, (same, snapshot))| {
            tally.check(same, 1, || {
                "a fleet slice's journaled trials differ from a worker-style rerun".to_owned()
            });
            snapshot
        })
        .collect()
}
