//! The four workloads and the inputs each one generates from `--seed`.
//!
//! Every input is simulated by `lion-sim` with a scenario seed derived
//! from the run seed, so one seed always yields the same traces, feeds
//! and planted phase centers. The program under test only ever sees the
//! generated reads; the planted phase center is kept for scoring.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use lion::core::LocalizerConfig;
use lion::geom::{LineSegment, Point3, Vec3};
use lion::sim::{Antenna, Environment, NoiseModel, PhaseTrace, SampleSource, ScenarioBuilder, Tag};
use lion::stream::{Cadence, StreamConfig, StreamRead};

/// Tag speed on the slide in the paper's rig (m/s).
const TAG_SPEED: f64 = 0.1;
/// Reader sampling rate in the paper's rig (Hz).
const READ_RATE: f64 = 100.0;
/// Planted phase-center displacement of the fig16 rig's antenna (m): the
/// paper's 2–3 cm, in the plane the 2D solve recovers.
const RIG_DISPLACEMENT: (f64, f64) = (0.021, -0.012);

// Input counts are set so that the accuracy percentiles, which are exact
// for one seed, vary across seeds by well under 8% of their median.

/// Traces per depth on `envelope_solve`.
const ENVELOPE_TRACES_PER_DEPTH: usize = 512;
/// Traces per depth on `long_track`.
const LONG_TRACES_PER_DEPTH: usize = 768;
/// Traces swept on `adaptive_sweep`.
const SWEEP_TRACES: usize = 1024;
/// Portals along the conveyor line on `portal_stream`.
pub const PORTALS: usize = 12;
/// Independent belt passes per portal on `portal_stream`.
const PORTAL_PASSES: usize = 40;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-trace solves inside the paper's operating envelope.
    EnvelopeSolve,
    /// Full-trace solves on the 1.5 m track, outside the envelope.
    LongTrack,
    /// Conveyor-portal feeds pushed read by read through the stream.
    PortalStream,
    /// The 6×6 adaptive sweep fanned out through the engine.
    AdaptiveSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::EnvelopeSolve,
        Workload::LongTrack,
        Workload::PortalStream,
        Workload::AdaptiveSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnvelopeSolve => "envelope_solve",
            Workload::LongTrack => "long_track",
            Workload::PortalStream => "portal_stream",
            Workload::AdaptiveSweep => "adaptive_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One simulated tag pass and the antenna it was read by.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// The whole pass in time order: what a batch solve consumes.
    pub measurements: Vec<(Point3, f64)>,
    /// A portal feed's reads as delivered, reordered and thinned. Empty
    /// for a rig pass, which a stream reads in order (see
    /// [`Input::stream_reads`]); not storing those halves the memory.
    pub reads: Vec<StreamRead>,
    /// The planted phase center every estimate is scored against.
    pub truth: Point3,
    /// The batch localizer configuration for this pass.
    pub config: LocalizerConfig,
}

impl Input {
    /// The reads a stream receives for this pass: the portal feed, or the
    /// rig pass in order at the rig's read rate (the times the simulator
    /// stamped).
    pub fn stream_reads(&self) -> Cow<'_, [StreamRead]> {
        if !self.reads.is_empty() {
            return Cow::Borrowed(&self.reads);
        }
        let reads = self.measurements.iter().enumerate();
        Cow::Owned(
            reads
                .map(|(i, &(position, phase))| StreamRead {
                    time: i as f64 / READ_RATE,
                    position,
                    phase,
                    ..StreamRead::default()
                })
                .collect(),
        )
    }
}

/// Seed of scenario `index` in family `family` under run seed `seed`
/// (SplitMix64 finalizer, so neighbouring seeds share nothing).
fn derive_seed(seed: u64, family: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(family.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fig16 rig: indoor multipath, a narrow beam (gain exponent 6)
/// facing the track from `depth`, and a planted displacement.
fn rig_pass(depth: f64, half_track: f64, seed: u64, scan_ns: &mut Vec<u64>) -> Input {
    let physical = Point3::new(0.0, depth, 0.0);
    let antenna = Antenna::builder(physical)
        .gain_exponent(6.0)
        .boresight(Vec3::new(0.0, -1.0, 0.0))
        .phase_center_displacement(RIG_DISPLACEMENT.0, RIG_DISPLACEMENT.1, 0.0)
        .build();
    let truth = antenna.phase_center();
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("E51").with_phase_offset(1.3))
        .environment(Environment::indoor_lab())
        .noise(NoiseModel::indoor_default())
        .seed(seed)
        .build()
        .expect("antenna and tag are set");
    let track = LineSegment::along_x(-half_track, half_track, 0.0, 0.0).expect("valid track");
    let start = Instant::now();
    let trace = scenario
        .scan(&track, TAG_SPEED, READ_RATE)
        .expect("valid scan");
    scan_ns.push(elapsed_ns(start));
    Input {
        measurements: trace.to_measurements(),
        reads: Vec::new(),
        truth,
        config: LocalizerConfig {
            side_hint: Some(physical),
            ..LocalizerConfig::default()
        },
    }
}

/// One conveyor portal as in `examples/conveyor_stream.rs`: ±0.45 m of
/// belt at 0.25 m/s read at 120 Hz, delivered up to 6 reads out of order
/// with 10% lost.
fn portal_pass(x_offset: f64, seed: u64, scan_ns: &mut Vec<u64>) -> Input {
    let antenna = Antenna::builder(Point3::new(x_offset, 0.8, 0.0))
        .phase_center_displacement(0.013, -0.008, 0.0)
        .build();
    let truth = antenna.phase_center();
    let track =
        LineSegment::along_x(x_offset - 0.45, x_offset + 0.45, 0.0, 0.0).expect("valid track");
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("E51-fleet"))
        .noise(NoiseModel::paper_default())
        .seed(seed)
        .build()
        .expect("antenna and tag are set");
    let start = Instant::now();
    let trace: PhaseTrace = scenario.scan(&track, 0.25, 120.0).expect("valid scan");
    scan_ns.push(elapsed_ns(start));
    let reads = SampleSource::replay(&trace)
        .with_shuffle(6, seed)
        .with_drop_probability(0.10, seed)
        .map(StreamRead::from)
        .collect();
    Input {
        measurements: trace.to_measurements(),
        reads,
        truth,
        config: LocalizerConfig::default(),
    }
}

/// The portal stream configuration: window 320, first solve at 48 reads,
/// a re-solve every 25 accepted reads, default (replay) resolve mode.
/// Traced runs stream the other workloads' passes through it too.
pub fn stream_config() -> StreamConfig {
    StreamConfig::builder()
        .window_capacity(320)
        .min_window_len(48)
        .cadence(Cadence::EveryReads(25))
        .build()
        .expect("valid stream config")
}

/// Generates `workload`'s tag passes for `seed`; per-scan simulation
/// times (ns) are appended to `scan_ns`.
pub fn generate(workload: Workload, seed: u64, scan_ns: &mut Vec<u64>) -> Vec<Input> {
    let family = Workload::ALL
        .iter()
        .position(|&w| w == workload)
        .expect("listed") as u64;
    let mut index = 0u64;
    let mut next_seed = || {
        index += 1;
        derive_seed(seed, family, index)
    };
    let mut passes = Vec::new();
    match workload {
        Workload::EnvelopeSolve => {
            for depth in [0.5, 0.8] {
                for _ in 0..ENVELOPE_TRACES_PER_DEPTH {
                    passes.push(rig_pass(depth, 0.4, next_seed(), scan_ns));
                }
            }
        }
        Workload::LongTrack => {
            for depth in [0.3, 0.5, 0.8] {
                for _ in 0..LONG_TRACES_PER_DEPTH {
                    passes.push(rig_pass(depth, 0.75, next_seed(), scan_ns));
                }
            }
        }
        Workload::AdaptiveSweep => {
            for _ in 0..SWEEP_TRACES {
                passes.push(rig_pass(0.8, 0.75, next_seed(), scan_ns));
            }
        }
        Workload::PortalStream => {
            for _ in 0..PORTAL_PASSES {
                for portal in 0..PORTALS {
                    passes.push(portal_pass(0.6 * portal as f64, next_seed(), scan_ns));
                }
            }
        }
    }
    passes
}

/// A hash of every bit of `passes`, for checking that set-ups repeat
/// without keeping two copies of the inputs.
pub fn fingerprint(passes: &[Input]) -> u64 {
    let mut h = DefaultHasher::new();
    for pass in passes {
        let t = pass.truth;
        [t.x, t.y, t.z].map(f64::to_bits).hash(&mut h);
        for &(p, phase) in &pass.measurements {
            [p.x, p.y, p.z, phase].map(f64::to_bits).hash(&mut h);
        }
        for r in &pass.reads {
            let p = r.position;
            [r.time, p.x, p.y, p.z, r.phase, r.rssi_dbm, r.frequency_hz]
                .map(f64::to_bits)
                .hash(&mut h);
        }
    }
    h.finish()
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_generates_identical_inputs_twice() {
        for workload in Workload::ALL {
            let a = generate(workload, 7, &mut Vec::new());
            let b = generate(workload, 7, &mut Vec::new());
            assert!(a == b, "{} inputs differ for one seed", workload.name());
            let c = generate(workload, 8, &mut Vec::new());
            assert!(a != c, "{} inputs ignore the seed", workload.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn derived_seeds_differ_across_families_and_indices() {
        assert_ne!(derive_seed(1, 0, 1), derive_seed(1, 1, 1));
        assert_ne!(derive_seed(1, 0, 1), derive_seed(1, 0, 2));
        assert_ne!(derive_seed(1, 0, 1), derive_seed(2, 0, 1));
    }
}
