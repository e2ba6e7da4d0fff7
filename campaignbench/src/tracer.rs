//! The layer pass's trial tracer: the campaign's trials driven through
//! the layers' public calls from the benchmark's own code, with a span
//! around each call.
//!
//! A trial is the runner's checkpointed scalar trial: fork the case's
//! fault-free prefix (`fault_free_prefix`, `Snapshot::resume`), build a
//! `SettleDetector`, then tick with an injection every period until the
//! detector proves the outputs final or the window ends. Statically
//! inert errors (`InertMap::classify`) share one reference trial per
//! case, as the runner prunes them.
//!
//! `Instant::now` costs about a third of a tick, so the tick loop is
//! never spanned per tick: one span covers the loop, and the
//! injections and the settle checks that do work (the detector's
//! `next_check_ms` gate says which) are child spans. Tick self time is
//! the loop span minus its children, about two clock reads per
//! 20-tick injection period.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use arrestor::{SettleDetector, SettleProof, Snapshot};
use fic::{InertMap, Protocol, Trial};
use memsim::BitFlip;
use simenv::TestCase;

/// Settle proofs may use the analytic absorbing band, as under the
/// runner's default configuration.
pub const ANALYTIC_SETTLE: bool = true;

/// Span totals (ns) and work counts of one tracer pass, summed over
/// its threads.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// `fault_free_prefix` calls and their time.
    pub prefixes: u64,
    /// Total prefix-build time, ns.
    pub prefix_ns: u64,
    /// `Snapshot::resume` calls (executed plus reference trials).
    pub forks: u64,
    /// Total fork time, ns.
    pub fork_ns: u64,
    /// Total `SettleDetector::new` time, ns.
    pub settle_new_ns: u64,
    /// Ticks simulated (executed plus reference trials).
    pub ticks: u64,
    /// Tick-loop self time (loop span minus child spans), ns.
    pub tick_ns: u64,
    /// `System::inject` calls.
    pub injections: u64,
    /// Total injection time, ns.
    pub inject_ns: u64,
    /// Fingerprint captures those checks took (all trials).
    pub captures: u64,
    /// Total time of working settle checks, ns.
    pub check_ns: u64,
    /// Total `System::finish` plus trial assembly time, ns.
    pub finish_ns: u64,
    /// `InertMap::classify` calls.
    pub classified: u64,
    /// Total classification time, ns.
    pub classify_ns: u64,
    /// Trials executed (not pruned).
    pub executed: u64,
    /// Executed trials the settle detector stopped early.
    pub settled: u64,
    /// Executed trials stopped by an analytic-band proof.
    pub analytic_stops: u64,
    /// Sum of the stop instants of settled executed trials, ms.
    pub stop_ms_sum: u64,
    /// Window simulated by executed trials, ms.
    pub executed_sim_ms: u64,
    /// Captures taken by executed trials.
    pub executed_captures: u64,
    /// Trials pruned as statically inert.
    pub pruned: u64,
    /// Reference trials run for pruned errors (one per case).
    pub references: u64,
    /// Assertion checks over executed trials' whole timelines
    /// (`TrialExecution::ea_checks`, prefix included).
    pub ea_checks: u64,
    /// Wall time of each executed trial, µs.
    pub trial_us: Vec<f64>,
    /// Time each worker waited for its next case, µs.
    pub queue_wait_us: Vec<f64>,
}

impl Spans {
    /// Adds another pass's spans and counts.
    pub fn merge(&mut self, o: Spans) {
        self.prefixes += o.prefixes;
        self.prefix_ns += o.prefix_ns;
        self.forks += o.forks;
        self.fork_ns += o.fork_ns;
        self.settle_new_ns += o.settle_new_ns;
        self.ticks += o.ticks;
        self.tick_ns += o.tick_ns;
        self.injections += o.injections;
        self.inject_ns += o.inject_ns;
        self.captures += o.captures;
        self.check_ns += o.check_ns;
        self.finish_ns += o.finish_ns;
        self.classified += o.classified;
        self.classify_ns += o.classify_ns;
        self.executed += o.executed;
        self.settled += o.settled;
        self.analytic_stops += o.analytic_stops;
        self.stop_ms_sum += o.stop_ms_sum;
        self.executed_sim_ms += o.executed_sim_ms;
        self.executed_captures += o.executed_captures;
        self.pruned += o.pruned;
        self.references += o.references;
        self.ea_checks += o.ea_checks;
        self.trial_us.extend(o.trial_us);
        self.queue_wait_us.extend(o.queue_wait_us);
    }

    /// Total spanned time, ns: the worker-side cost the closure check
    /// adds up.
    pub fn spanned_ns(&self) -> u64 {
        self.prefix_ns
            + self.fork_ns
            + self.settle_new_ns
            + self.tick_ns
            + self.inject_ns
            + self.check_ns
            + self.finish_ns
            + self.classify_ns
    }
}

/// Execution shape of one executed trial, compared against
/// `run_trial_checkpointed_observed_with`'s `TrialExecution`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Window simulated after the fork, ms.
    pub simulated_ms: u64,
    /// Fingerprint captures.
    pub settle_captures: u64,
    /// Early-stop instant, ms.
    pub settle_stop_ms: Option<u64>,
}

/// Everything one tracer pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Spans and counts (zero times when untraced).
    pub spans: Spans,
    /// Every trial as ⟨error index, case index, trial⟩.
    pub trials: Vec<(usize, usize, Trial)>,
    /// Execution shape of every executed trial, keyed like `trials`.
    pub shapes: Vec<(usize, usize, Shape)>,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
}

/// Drives every ⟨flip, case⟩ trial of `protocol`'s grid on `workers`
/// threads pulling whole test cases from a shared queue (case-major,
/// as the runner orders them). With `TRACED` false the same calls run
/// without clock reads, which gives the tracing overhead.
pub fn drive<const TRACED: bool>(protocol: &Protocol, flips: &[BitFlip], workers: usize) -> Pass {
    let cases = protocol.grid.cases();
    let queue = Mutex::new((0..cases.len()).collect::<VecDeque<usize>>());
    let inert = InertMap::new();
    let start = Instant::now();
    let parts: Vec<Pass> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut part = Pass::default();
                    loop {
                        let waiting = clock::<TRACED>();
                        let next = queue.lock().expect("queue lock").pop_front();
                        let Some(ci) = next else { break };
                        if let Some(waiting) = waiting {
                            part.spans
                                .queue_wait_us
                                .push(waiting.elapsed().as_secs_f64() * 1e6);
                        }
                        run_case::<TRACED>(protocol, flips, ci, cases[ci], &inert, &mut part);
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tracer thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    for part in parts {
        pass.spans.merge(part.spans);
        pass.trials.extend(part.trials);
        pass.shapes.extend(part.shapes);
    }
    pass
}

/// A span start: a clock read only when tracing.
#[inline(always)]
fn clock<const TRACED: bool>() -> Option<Instant> {
    TRACED.then(Instant::now)
}

/// Nanoseconds since a span start; 0 when untraced.
#[inline(always)]
fn nanos(start: Option<Instant>) -> u64 {
    start.map_or(0, |s| {
        u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

fn run_case<const TRACED: bool>(
    protocol: &Protocol,
    flips: &[BitFlip],
    ci: usize,
    case: TestCase,
    inert: &InertMap,
    part: &mut Pass,
) {
    let spans = &mut part.spans;
    let started = clock::<TRACED>();
    let prefix = fic::fault_free_prefix(protocol, case);
    spans.prefix_ns += nanos(started);
    spans.prefixes += 1;
    let mut reference: Option<Trial> = None;
    for (ei, &flip) in flips.iter().enumerate() {
        let started = clock::<TRACED>();
        let class = inert.classify(flip);
        spans.classify_ns += nanos(started);
        spans.classified += 1;
        let trial = if class.is_some() {
            spans.pruned += 1;
            if reference.is_none() {
                spans.references += 1;
                reference = Some(drive_trial::<TRACED>(protocol, None, &prefix, spans).0);
            }
            reference.clone().expect("built above")
        } else {
            let started = clock::<TRACED>();
            let (trial, shape) = drive_trial::<TRACED>(protocol, Some(flip), &prefix, spans);
            if let Some(started) = started {
                spans.trial_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            spans.executed += 1;
            spans.executed_sim_ms += shape.simulated_ms;
            spans.executed_captures += shape.settle_captures;
            if let Some(stop) = shape.settle_stop_ms {
                spans.settled += 1;
                spans.stop_ms_sum += stop;
            }
            part.shapes.push((ei, ci, shape));
            trial
        };
        part.trials.push((ei, ci, trial));
    }
}

fn drive_trial<const TRACED: bool>(
    protocol: &Protocol,
    flip: Option<BitFlip>,
    prefix: &Snapshot,
    spans: &mut Spans,
) -> (Trial, Shape) {
    let period = protocol.injection_period_ms.max(1);
    let started = clock::<TRACED>();
    let mut system = prefix.resume();
    spans.fork_ns += nanos(started);
    spans.forks += 1;
    let started = clock::<TRACED>();
    let mut settle = SettleDetector::new(&system, flip, period).with_analytic(ANALYTIC_SETTLE);
    spans.settle_new_ns += nanos(started);

    let resumed_at = system.time_ms();
    let mut settle_stop_ms = None;
    let mut children_ns = 0;
    let loop_start = clock::<TRACED>();
    while system.time_ms() < protocol.observation_ms {
        let t = system.time_ms();
        // Below `next_check_ms` a check is a side-effect-free `false`,
        // so skipping it changes nothing.
        if t >= settle.next_check_ms() {
            let started = clock::<TRACED>();
            let done = settle.check(&system);
            let ns = nanos(started);
            spans.check_ns += ns;
            children_ns += ns;
            if done {
                settle_stop_ms = Some(t);
                break;
            }
        }
        if let Some(flip) = flip {
            if t > 0 && t.is_multiple_of(period) {
                let started = clock::<TRACED>();
                system.inject(flip);
                let ns = nanos(started);
                spans.inject_ns += ns;
                children_ns += ns;
                spans.injections += 1;
            }
        }
        system.tick();
    }
    spans.tick_ns += nanos(loop_start).saturating_sub(children_ns);
    let simulated_ms = system.time_ms() - resumed_at;
    spans.ticks += simulated_ms;
    spans.captures += settle.captures();
    if flip.is_some() {
        if settle.proof() == Some(SettleProof::AnalyticBand) {
            spans.analytic_stops += 1;
        }
        spans.ea_checks += system
            .master()
            .detectors()
            .check_counts()
            .iter()
            .sum::<u64>();
    }
    let shape = Shape {
        simulated_ms,
        settle_captures: settle.captures(),
        settle_stop_ms,
    };

    let started = clock::<TRACED>();
    let outcome = system.finish();
    let mut per_ea_first_ms = [None; 7];
    for event in &outcome.detections {
        let idx = event.monitor.0;
        if idx < 7 && per_ea_first_ms[idx].is_none() {
            per_ea_first_ms[idx] = Some(event.at);
        }
    }
    let trial = Trial {
        failed: outcome.verdict.failed(),
        per_ea_first_ms,
        first_injection_ms: period,
        final_distance_m: outcome.verdict.final_distance_m,
    };
    spans.finish_ns += nanos(started);
    (trial, shape)
}
