//! The output gate: every campaign's results are checked before its
//! figures count. Each failed check adds to the run's failure tally.

use std::path::Path;

use fic::{tables, CampaignRunner, E1Error, E1Report, E2Error, E2Report, Protocol, TrialRecord};

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: trials run plus fleet commands sent.
    pub attempted: u64,
    /// Operations that were missing, errored, disagreed with their
    /// reference, or were refused.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failed check worth `n` operations.
    pub fn check(&mut self, ok: bool, n: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += n.max(1);
            eprintln!("campaignbench: CHECK FAILED: {}", what());
        }
    }
}

fn committed(name: &str) -> String {
    let path = Path::new("results").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| format!("<unreadable {}: {e}>", path.display()))
}

/// Default seed only: the E1 report and Tables 6–8 must be byte-equal
/// to the committed artefacts.
pub fn paper_e1(report: &E1Report, errors: &[E1Error], cases: usize, tally: &mut Tally) {
    let n = report.trials() as u64;
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    tally.check(json == committed("e1.json"), n, || {
        "E1 report differs from results/e1.json".to_owned()
    });
    for (name, text) in [
        ("table6.txt", tables::render_table6(errors, cases)),
        ("table7.txt", tables::render_table7(report)),
        ("table8.txt", tables::render_table8(report)),
    ] {
        tally.check(text == committed(name), n, || {
            format!("rendered {name} differs from results/{name}")
        });
    }
}

/// Default seed only: the E2 report and Table 9 must be byte-equal to
/// the committed artefacts.
pub fn paper_e2(report: &E2Report, tally: &mut Tally) {
    let n = report.trials() as u64;
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    tally.check(json == committed("e2.json"), n, || {
        "E2 report differs from results/e2.json".to_owned()
    });
    tally.check(
        tables::render_table9(report) == committed("table9.txt"),
        n,
        || "rendered table9.txt differs from results/table9.txt".to_owned(),
    );
}

/// A fixed, seed-independent sample of ⟨error, case⟩ pairs spread over
/// the grid.
fn sample_pairs(errors: usize, cases: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count.min(errors * cases))
        .map(|j| ((j * 37 + 5) % errors, (j * 11 + 3) % cases))
        .collect()
}

/// The runner's fast path against the replay oracle `fic::run_trial`
/// on a fixed sample of E1 pairs.
pub fn oracle_e1(protocol: &Protocol, errors: &[E1Error], tally: &mut Tally) {
    let cases = protocol.grid.cases();
    let pairs = sample_pairs(errors.len(), cases.len(), 24);
    let fast = CampaignRunner::new(protocol.clone()).run_e1_pairs(errors, &pairs);
    tally.check(fast.len() == pairs.len(), pairs.len() as u64, || {
        "run_e1_pairs lost trials".to_owned()
    });
    for (ei, ci, trial) in fast {
        let oracle = fic::run_trial(protocol, errors[ei].flip, cases[ci]);
        tally.check(trial == oracle, 1, || {
            format!(
                "E1 S{} case {ci} differs from the replay oracle",
                errors[ei].number
            )
        });
    }
}

/// Journaled E2 records against the replay oracle on a fixed sample.
pub fn oracle_records(
    protocol: &Protocol,
    errors: &[E2Error],
    records: &[TrialRecord],
    tally: &mut Tally,
) {
    let cases = protocol.grid.cases();
    let step = (records.len() / 24).max(1);
    for record in records.iter().step_by(step) {
        let Some(error) = errors.iter().find(|e| e.number == record.error_number) else {
            tally.check(false, 1, || {
                format!("journal names unknown E2 error {}", record.error_number)
            });
            continue;
        };
        let oracle = fic::run_trial(protocol, error.flip, cases[record.case_index]);
        tally.check(record.trial == oracle, 1, || {
            format!(
                "E2 error {} case {} differs from the replay oracle",
                record.error_number, record.case_index
            )
        });
    }
}
