//! The complete experiment target: master + slave nodes closed over the
//! environment simulator.

use ea_core::{DetectionEvent, Millis};
use memsim::BitFlip;
use simenv::{Constraints, FailureMonitor, Plant, PlantState, Readout, TestCase, Verdict};

use crate::detectors::EaSet;
use crate::node::{MasterNode, SensorFrame, SlaveNode};

/// Configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which assertions are enabled (logging only; behaviour-neutral
    /// unless `recovery` is set).
    pub version: EaSet,
    /// Observation window, ms (paper: 40 000).
    pub observation_ms: Millis,
    /// Plant readout decimation, ms (0 = no capture).
    pub record_every_ms: u64,
    /// Failure-classification constraints.
    pub constraints: Constraints,
    /// When set, detections repair the signal in place (recovery
    /// write-back). `None` reproduces the paper's detection-only
    /// experiment.
    pub recovery: Option<ea_core::RecoveryStrategy>,
    /// When set, continuous rate bounds are scaled to this percentage
    /// of their derived values (parameter-calibration sweeps).
    pub rate_scale_percent: Option<u16>,
    /// When set, every tick appends a [`crate::trace::TickRecord`] to
    /// the run's [`crate::trace::Trace`] (returned in
    /// [`RunOutcome::trace`]). Disabled recording costs one `Option`
    /// check per tick and allocates nothing.
    pub trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            version: EaSet::ALL,
            observation_ms: simenv::spec::OBSERVATION_MS,
            record_every_ms: 0,
            constraints: Constraints::default(),
            recovery: None,
            rate_scale_percent: None,
            trace: false,
        }
    }
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Failure classification of the arrestment.
    pub verdict: Verdict,
    /// All raised detections, time-ordered.
    pub detections: Vec<DetectionEvent>,
    /// Timestamp of the first detection, ms.
    pub first_detection_ms: Option<Millis>,
    /// Ticks simulated.
    pub duration_ms: Millis,
    /// Captured plant readout (empty unless configured).
    pub readout: Readout,
    /// Per-tick trace (present only with [`RunConfig::trace`]).
    pub trace: Option<crate::trace::Trace>,
}

/// Master node + slave node + plant, stepped together at 1 ms.
#[derive(Debug, Clone)]
pub struct System {
    plant: Plant,
    master: MasterNode,
    slave: SlaveNode,
    failmon: FailureMonitor,
    readout: Readout,
    config: RunConfig,
    case: TestCase,
    time_ms: Millis,
    master_valve_pu: u16,
    slave_valve_pu: u16,
    cmds_stable_since_ms: Millis,
    trace: Option<crate::trace::Trace>,
}

impl System {
    /// A system at the engagement instant of `case`.
    pub fn new(case: TestCase, config: RunConfig) -> Self {
        let mass_cfg = (case.mass_kg / 100.0).round() as u16;
        let master = match (config.recovery, config.rate_scale_percent) {
            (Some(strategy), _) => MasterNode::with_recovery(mass_cfg, config.version, strategy),
            (None, Some(scale)) => MasterNode::with_detectors(
                mass_cfg,
                crate::instrument::build_detectors_scaled(config.version, scale),
            ),
            (None, None) => MasterNode::new(mass_cfg, config.version),
        };
        let trace = config.trace.then(|| {
            crate::trace::Trace::with_capacity(usize::try_from(config.observation_ms).unwrap_or(0))
        });
        System {
            plant: Plant::new(case),
            master,
            slave: SlaveNode::new(),
            failmon: FailureMonitor::new(),
            readout: Readout::new(config.record_every_ms),
            config,
            case,
            time_ms: 0,
            master_valve_pu: 0,
            slave_valve_pu: 0,
            cmds_stable_since_ms: 0,
            trace,
        }
    }

    /// Current simulation time, ms.
    pub const fn time_ms(&self) -> Millis {
        self.time_ms
    }

    /// The plant's current state.
    pub fn plant_state(&self) -> PlantState {
        self.plant.state()
    }

    /// The master node (signals, detectors, memory).
    pub fn master(&self) -> &MasterNode {
        &self.master
    }

    /// The test case this system was engaged with.
    pub const fn case(&self) -> TestCase {
        self.case
    }

    /// The run configuration.
    pub const fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Freezes the complete simulation state into a resumable
    /// [`crate::checkpoint::Snapshot`].
    pub fn checkpoint(&self) -> crate::checkpoint::Snapshot {
        crate::checkpoint::Snapshot::of(self)
    }

    pub(crate) const fn failmon(&self) -> &FailureMonitor {
        &self.failmon
    }

    pub(crate) const fn slave(&self) -> &SlaveNode {
        &self.slave
    }

    pub(crate) const fn valve_commands_pu(&self) -> (u16, u16) {
        (self.master_valve_pu, self.slave_valve_pu)
    }

    /// The instant (ms) since which the valve-command pair has been
    /// constant: [`System::tick`] stamps the current time whenever
    /// a tick produces a different `(master_pu, slave_pu)` pair than the
    /// previous one. The analytic settle proof
    /// ([`crate::settle`]) needs command constancy over a whole
    /// capture interval, not just equality at its endpoints.
    pub(crate) const fn cmds_stable_since_ms(&self) -> Millis {
        self.cmds_stable_since_ms
    }

    /// Injects one SWIFI bit flip into the master's memory.
    pub fn inject(&mut self, flip: BitFlip) {
        self.master.inject(flip);
    }

    /// Reconstructs the periodic readout samples a settled run would
    /// have captured up to `until_ms`, by replaying the last
    /// `recurrence_ms / record_every_ms` samples cyclically with
    /// patched timestamps.
    ///
    /// Sound only after a [`crate::checkpoint::SettleDetector`] proof:
    /// `recurrence_ms` must be the distance returned by
    /// [`crate::checkpoint::SettleDetector::recurrence_ms`] for *this*
    /// system at its current instant, which makes the plant-state
    /// sequence exactly periodic from here on. A no-op when readout
    /// capture is disabled.
    pub fn backfill_readout(&mut self, recurrence_ms: u64, until_ms: u64) {
        self.readout.extend_periodic(recurrence_ms, until_ms);
    }

    /// Advances the whole system by one millisecond.
    pub fn tick(&mut self) {
        self.time_ms += 1;

        // Sensors sample the plant at the start of the tick; one frame
        // feeds both nodes and the trace recorder.
        let sensors = self.plant.sensor_readout();
        let previous = (self.master_valve_pu, self.slave_valve_pu);
        self.master_valve_pu = self.master.tick(
            SensorFrame {
                pulse_total: sensors.pulse_total,
                pressure_units: sensors.pressure_master_units,
            },
            self.time_ms,
        );
        let incoming = self.master.take_comm();
        self.slave_valve_pu = self.slave.tick(sensors.pressure_slave_units, incoming);
        if (self.master_valve_pu, self.slave_valve_pu) != previous {
            self.cmds_stable_since_ms = self.time_ms;
        }

        let state = self.plant.step(
            f64::from(self.master_valve_pu) / simenv::spec::PRESSURE_UNITS_PER_BAR,
            f64::from(self.slave_valve_pu) / simenv::spec::PRESSURE_UNITS_PER_BAR,
        );
        self.failmon.observe(&state);
        self.readout.offer(&state);

        if let Some(trace) = &mut self.trace {
            trace.push(crate::trace::TickRecord {
                t_ms: self.time_ms,
                signals: self.master.snapshot(),
                master_valve_pu: self.master_valve_pu,
                slave_valve_pu: self.slave_valve_pu,
                slave_set_value: self.slave.set_value(),
                sensor_pulse_total: sensors.pulse_total,
                sensor_pressure_units: sensors.pressure_master_units,
                hung: self.master.hung(),
                calc_halted: self.master.calc_halted(),
                plant: state,
            });
        }
    }

    /// Whether any assertion has fired so far.
    pub fn detected(&self) -> bool {
        !self.master.detectors().events().is_empty()
    }

    /// Whether the arrestment outcome is already decided: the aircraft
    /// has stopped, the node has hung with the aircraft still rolling
    /// (inevitably an overrun), or a constraint is already breached.
    pub fn outcome_decided(&self) -> bool {
        let state = self.plant.state();
        if state.arrested {
            return true;
        }
        self.failmon
            .verdict(&self.config.constraints, self.case)
            .causes
            .iter()
            .any(|c| {
                *c != simenv::FailureCause::Overrun
                    || state.distance_m >= self.config.constraints.runway_m
            })
    }

    /// Runs the remaining window without injections and returns the
    /// outcome.
    pub fn run_to_completion(mut self) -> RunOutcome {
        while self.time_ms < self.config.observation_ms {
            self.tick();
        }
        self.finish()
    }

    /// Finalises the run: classifies the (possibly still rolling)
    /// arrestment and collects the detection log.
    pub fn finish(self) -> RunOutcome {
        let verdict = self.failmon.verdict(&self.config.constraints, self.case);
        let detections: Vec<DetectionEvent> = self.master.detectors().events().to_vec();
        let first_detection_ms = detections.first().map(|e| e.at);
        RunOutcome {
            verdict,
            detections,
            first_detection_ms,
            duration_ms: self.time_ms,
            readout: self.readout,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_arrestment_succeeds_without_detection() {
        let system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
        let outcome = system.run_to_completion();
        assert!(!outcome.verdict.failed(), "verdict: {:?}", outcome.verdict);
        assert!(outcome.verdict.arrested);
        assert!(outcome.verdict.final_distance_m < 335.0);
        assert!(
            outcome.detections.is_empty(),
            "fault-free run raised {:?}",
            outcome.detections.first()
        );
    }

    #[test]
    fn heaviest_fastest_case_still_stops_in_time() {
        let system = System::new(TestCase::new(20_000.0, 70.0), RunConfig::default());
        let outcome = system.run_to_completion();
        assert!(!outcome.verdict.failed(), "verdict: {:?}", outcome.verdict);
        assert!(outcome.verdict.final_distance_m < 335.0);
        assert!(outcome.detections.is_empty());
    }

    #[test]
    fn lightest_slowest_case_is_gentle() {
        let system = System::new(TestCase::new(8_000.0, 40.0), RunConfig::default());
        let outcome = system.run_to_completion();
        assert!(!outcome.verdict.failed(), "verdict: {:?}", outcome.verdict);
        assert!(outcome.verdict.peak_retardation_g < 1.0);
        assert!(outcome.detections.is_empty());
    }

    #[test]
    fn injected_msb_set_value_error_is_detected() {
        let mut system = System::new(TestCase::new(12_000.0, 55.0), RunConfig::default());
        let set_addr = system.master().signals().set_value.addr();
        // Let the arrestment develop, then corrupt SetValue's MSB every
        // 20 ms like the FIC does.
        while system.time_ms() < 10_000 {
            if system.time_ms() >= 20 && system.time_ms().is_multiple_of(20) {
                system.inject(BitFlip::new(memsim::Region::AppRam, set_addr + 1, 7));
            }
            system.tick();
        }
        assert!(system.detected());
    }

    #[test]
    fn readout_capture_when_configured() {
        let config = RunConfig {
            record_every_ms: 1_000,
            observation_ms: 5_000,
            ..RunConfig::default()
        };
        let system = System::new(TestCase::new(12_000.0, 55.0), config);
        let outcome = system.run_to_completion();
        assert_eq!(outcome.readout.samples().len(), 5);
        assert_eq!(outcome.duration_ms, 5_000);
    }
}
