//! Checkpointed trial execution must be a pure optimisation: forking
//! trials from a cached fault-free prefix and fast-forwarding settled
//! runs may change wall clock only, never a bit of any result.
//!
//! Three layers of evidence:
//!
//! * per-trial: [`run_trial_checkpointed`] equals [`run_trial`] across
//!   error classes chosen to stress every matching rule of the settle
//!   detector (mscnt errors shift the clock, stack errors corrupt CALC
//!   locals or hang the node, signal errors perturb the plant);
//! * per-campaign: checkpointed and replay campaigns render Tables 6–9
//!   byte-identically, journal the same record lines, and both match
//!   the committed fixtures in `tests/fixtures/` — the same files the
//!   snapshot suite pins;
//! * per-tick: a trace recorded across a snapshot/resume boundary shows
//!   zero divergence against a straight recorded run under the
//!   differential oracle of `fic::trace`.

use std::path::PathBuf;

use ea_repro::arrestor::{RunConfig, System};
use ea_repro::fic::journal::JournalWriter;
use ea_repro::fic::{
    error_set, fault_free_prefix, fault_free_prefix_recorded, run_trial, run_trial_checkpointed,
    run_trial_checkpointed_recorded, run_trial_recorded, tables, trace, CampaignRunner, Protocol,
};
use ea_repro::memsim::{BitFlip, Region, STACK_BYTES};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()))
}

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ea-repro-checkpoint-test-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("campaign.jsonl")
}

fn journal_lines(path: &PathBuf) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect()
}

/// The snapshot campaign of `tests/table_snapshots.rs`.
fn snapshot_protocol() -> Protocol {
    let mut protocol = Protocol::scaled(2, 1_500);
    protocol.workers = 1;
    protocol
}

#[test]
fn per_trial_equality_across_error_classes() {
    let protocol = Protocol::scaled(1, 12_000);
    let case = protocol.grid.cases()[0];
    let prefix = fault_free_prefix(&protocol, case);

    let e1 = error_set::e1();
    let mut flips: Vec<(String, BitFlip)> = [16, 32, 48, 81, 88, 96, 112]
        .iter()
        .map(|&k| (format!("S{k}"), e1[k - 1].flip))
        .collect();
    // Stack errors: a dead byte, a CALC-locals byte, and the ISR
    // context at the top (hangs the node).
    flips.push(("stack-dead".to_owned(), BitFlip::new(Region::Stack, 10, 3)));
    flips.push((
        "stack-top".to_owned(),
        BitFlip::new(Region::Stack, STACK_BYTES - 4, 0),
    ));
    for e2 in error_set::e2().iter().step_by(40) {
        flips.push((format!("E2-{}", e2.number), e2.flip));
    }

    for (label, flip) in flips {
        let slow = run_trial(&protocol, flip, case);
        let fast = run_trial_checkpointed(&protocol, flip, case, &prefix);
        assert_eq!(slow, fast, "{label}: checkpointed trial diverged");
    }
}

#[test]
fn per_trial_equality_with_long_window_fast_forward() {
    // A window long past arrest (the paper case arrests well before
    // 30 s), so the settle detector genuinely fast-forwards — including
    // for mscnt errors, whose recurrence needs the clock-offset
    // matching rule.
    let protocol = Protocol::scaled(1, 30_000);
    let case = protocol.grid.cases()[0];
    let prefix = fault_free_prefix(&protocol, case);
    let e1 = error_set::e1();
    for k in [81, 96, 112] {
        let flip = e1[k - 1].flip;
        let slow = run_trial(&protocol, flip, case);
        let fast = run_trial_checkpointed(&protocol, flip, case, &prefix);
        assert_eq!(slow, fast, "S{k}: fast-forwarded trial diverged");
    }
}

#[test]
fn recorded_checkpointed_trials_reconstruct_exact_readouts() {
    // Readout-compatible checkpointing: with periodic plant capture
    // enabled, the settle detector stays on, and a settled run
    // reconstructs its remaining samples from the proven recurrence.
    // Both the trial and the complete sample series must be
    // bit-identical to a full straight replay. The window runs long
    // past arrest so the fast-forward genuinely engages, and the error
    // mix covers clock errors (translation rules), a node-hanging
    // stack error (FrozenHung is skipped in readout mode), and inert
    // flips.
    let protocol = Protocol::scaled(1, 30_000);
    let case = protocol.grid.cases()[0];
    let record_every_ms = 100;
    let prefix = fault_free_prefix_recorded(&protocol, case, record_every_ms);

    let e1 = error_set::e1();
    let mut flips: Vec<(String, BitFlip)> = [16, 81, 96, 112]
        .iter()
        .map(|&k| (format!("S{k}"), e1[k - 1].flip))
        .collect();
    flips.push(("stack-dead".to_owned(), BitFlip::new(Region::Stack, 10, 3)));
    flips.push((
        "stack-top".to_owned(),
        BitFlip::new(Region::Stack, STACK_BYTES - 4, 0),
    ));

    for (label, flip) in flips {
        let (slow_trial, slow_readout) = run_trial_recorded(&protocol, flip, case, record_every_ms);
        let (fast_trial, fast_readout) =
            run_trial_checkpointed_recorded(&protocol, flip, case, &prefix);
        assert_eq!(slow_trial, fast_trial, "{label}: recorded trial diverged");
        let slow_samples = slow_readout.samples();
        let fast_samples = fast_readout.samples();
        assert_eq!(
            slow_samples.len(),
            fast_samples.len(),
            "{label}: sample counts diverged"
        );
        for (a, b) in slow_samples.iter().zip(fast_samples) {
            assert_eq!(a.time_ms, b.time_ms, "{label}: sample grid diverged");
            for (field, x, y) in [
                ("distance_m", a.distance_m, b.distance_m),
                ("velocity_ms", a.velocity_ms, b.velocity_ms),
                ("retardation_ms2", a.retardation_ms2, b.retardation_ms2),
                ("cable_force_n", a.cable_force_n, b.cable_force_n),
                (
                    "pressure_master_bar",
                    a.pressure_master_bar,
                    b.pressure_master_bar,
                ),
                (
                    "pressure_slave_bar",
                    a.pressure_slave_bar,
                    b.pressure_slave_bar,
                ),
            ] {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: {field} diverged at t = {} ms",
                    a.time_ms
                );
            }
            assert_eq!(a.arrested, b.arrested, "{label}: arrested flag diverged");
        }
    }
}

#[test]
fn checkpointed_tables_match_replay_and_committed_fixtures() {
    let protocol = snapshot_protocol();
    let e1_errors: Vec<_> = error_set::e1()
        .into_iter()
        .filter(|e| e.signal_bit == 0 || e.signal_bit == 15)
        .collect();
    let e2_errors: Vec<_> = error_set::e2().into_iter().step_by(25).collect();

    let fast = CampaignRunner::new(protocol.clone());
    let slow = fast.clone().with_checkpointing(false);

    // Both runs journal at one worker. Replay does not group pending
    // trials by case, so the append order differs between the paths;
    // the record lines themselves must not.
    let fast_path = temp_journal("fast");
    let slow_path = temp_journal("slow");
    let mut fast_journal = JournalWriter::create(&fast_path, &protocol).unwrap();
    let mut slow_journal = JournalWriter::create(&slow_path, &protocol).unwrap();

    let e1_fast = fast
        .run_e1_journaled(&e1_errors, &mut fast_journal)
        .unwrap();
    let e1_slow = slow
        .run_e1_journaled(&e1_errors, &mut slow_journal)
        .unwrap();
    assert_eq!(e1_fast, e1_slow, "E1 reports diverged");
    let e2_fast = fast
        .run_e2_journaled(&e2_errors, &mut fast_journal)
        .unwrap();
    let e2_slow = slow
        .run_e2_journaled(&e2_errors, &mut slow_journal)
        .unwrap();
    assert_eq!(e2_fast, e2_slow, "E2 reports diverged");

    fast_journal.finish().unwrap();
    slow_journal.finish().unwrap();
    let fast_lines = journal_lines(&fast_path);
    let slow_lines = journal_lines(&slow_path);
    assert_eq!(fast_lines[0], slow_lines[0], "journal headers diverged");
    let sorted = |lines: &[String]| {
        let mut records = lines[1..].to_vec();
        records.sort_unstable();
        records
    };
    assert_eq!(
        sorted(&fast_lines),
        sorted(&slow_lines),
        "checkpointed journal records diverged from replay"
    );
    assert_eq!(
        fast_lines.len() - 1,
        (e1_errors.len() + e2_errors.len()) * protocol.cases_per_error(),
        "one journal record per trial"
    );

    for (name, rendered) in [
        (
            "table6.txt",
            tables::render_table6(&e1_errors, protocol.cases_per_error()),
        ),
        ("table7.txt", tables::render_table7(&e1_fast)),
        ("table8.txt", tables::render_table8(&e1_fast)),
        ("table9.txt", tables::render_table9(&e2_fast)),
    ] {
        assert_eq!(
            fixture(name),
            rendered,
            "checkpointed {name} differs from the committed fixture"
        );
    }
}

#[test]
fn trace_across_snapshot_boundary_shows_zero_divergence() {
    // The oracle's view of snapshot/resume: record a fault-free run
    // straight through, and another whose state was frozen mid-flight
    // and resumed from the snapshot. Bit-identical per-tick traces.
    let protocol = Protocol::scaled(1, 4_000);
    let case = protocol.grid.cases()[0];
    let straight = trace::record_reference(&protocol, case);

    let config = RunConfig {
        observation_ms: protocol.observation_ms,
        trace: true,
        ..RunConfig::default()
    };
    let mut system = System::new(case, config);
    while system.time_ms() < 1_000 {
        system.tick();
    }
    let snapshot = system.checkpoint();
    drop(system);
    let forked = snapshot.resume().run_to_completion();
    let forked_trace = forked.trace.expect("tracing was enabled");

    let diff = trace::diff(&straight, &forked_trace);
    assert!(
        !diff.diverged(),
        "snapshot/resume perturbed the simulation: {:?}",
        diff.first
    );
}
