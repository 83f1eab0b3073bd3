//! Deterministic "property" tests for the workload machinery.
//!
//! Ports the old (never compiled) proptest suite to the workspace PRNG:
//! every run explores the same cases, and a failure names its case.

use std::sync::Arc;

use supersim_des::Rng;
use supersim_netbase::{AppSignal, Phase, TerminalId};
use supersim_workload::{
    Application, BernoulliProcess, BitComplement, BlastApp, BlastConfig, Neighbor,
    RandomPermutation, SizeDistribution, Terminal, TerminalAction, Tornado, TrafficPattern,
    Transpose, UniformRandom,
};

/// What one Blast terminal did over warm-up and generation.
#[derive(Default)]
struct Tally {
    sampled: u64,
    unsampled: u64,
    ready: bool,
    complete: bool,
}

impl Tally {
    fn apply(&mut self, actions: Vec<TerminalAction>) {
        for a in actions {
            match a {
                TerminalAction::Send(spec) if spec.sample => self.sampled += 1,
                TerminalAction::Send(_) => self.unsampled += 1,
                TerminalAction::Signal(AppSignal::Ready) => self.ready = true,
                TerminalAction::Signal(AppSignal::Complete) => self.complete = true,
                _ => {}
            }
        }
    }

    /// Wakes `t` until `done` holds (bounded), returning the last tick.
    fn drive(
        &mut self,
        t: &mut dyn Terminal,
        mut now: u64,
        rng: &mut Rng,
        done: fn(&Tally) -> bool,
    ) -> u64 {
        for _ in 0..1_000_000 {
            if done(self) {
                break;
            }
            let Some(wake) = t.next_wake() else { break };
            now = wake;
            self.apply(t.wake(now, rng));
        }
        now
    }
}

/// Runs one Blast terminal through warm-up until ready, then through
/// generation until complete.
fn drive_blast(load: f64, size: u32, warmup: u64, count: u64, seed: u64) -> Tally {
    let app = BlastApp::new(BlastConfig {
        pattern: Arc::new(UniformRandom::new(16)),
        load,
        sizes: SizeDistribution::Fixed(size),
        warmup_ticks: warmup,
        sample_messages: Some(count),
        sample_ticks: None,
        sources: None,
    });
    let mut rng = Rng::new(seed);
    let mut t = app.create_terminal(TerminalId(3));
    let mut tally = Tally::default();
    tally.apply(t.enter_phase(Phase::Warming, 0, &mut rng));
    let now = tally.drive(t.as_mut(), 0, &mut rng, |t| t.ready);
    tally.apply(t.enter_phase(Phase::Generating, now, &mut rng));
    tally.drive(t.as_mut(), now, &mut rng, |t| t.complete);
    tally
}

#[test]
fn blast_samples_exactly_its_count() {
    // Any load / size / warm-up combination: exactly `sample_messages`
    // sampled messages before completion.
    let mut rng = Rng::new(0xB1A5);
    for case in 0..64 {
        let load = rng.gen_range(0.05f64..1.0);
        let size = rng.gen_range(1u32..8);
        let warmup = rng.gen_range(0u64..300);
        let count = rng.gen_range(1u64..40);
        let tally = drive_blast(load, size, warmup, count, rng.gen_u64());
        let case = format!("case {case}: load {load:.3} size {size} warmup {warmup}");
        assert!(tally.ready, "{case}: never became ready");
        assert!(tally.complete, "{case}: never completed");
        assert_eq!(tally.sampled, count, "{case}");
    }
}

#[test]
fn blast_warmup_traffic_is_never_sampled() {
    // A long warm-up at high load sends traffic, none of it sampled:
    // with 5 sampled messages, only the generating phase may sample.
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let app = BlastApp::new(BlastConfig {
            pattern: Arc::new(UniformRandom::new(16)),
            load: 0.9,
            sizes: SizeDistribution::Fixed(1),
            warmup_ticks: 500,
            sample_messages: Some(5),
            sample_ticks: None,
            sources: None,
        });
        let mut t = app.create_terminal(TerminalId(3));
        let mut warming = Tally::default();
        warming.apply(t.enter_phase(Phase::Warming, 0, &mut rng));
        warming.drive(t.as_mut(), 0, &mut rng, |t| t.ready);
        assert!(warming.ready, "seed {seed}");
        assert!(warming.unsampled > 0, "seed {seed}: no warm-up traffic");
        assert_eq!(warming.sampled, 0, "seed {seed}: warm-up traffic sampled");
    }
}

#[test]
fn patterns_stay_in_range() {
    let patterns: Vec<Arc<dyn TrafficPattern>> = vec![
        Arc::new(UniformRandom::new(64)),
        Arc::new(BitComplement::new(64)),
        Arc::new(Tornado::new(vec![8, 8], 1)),
        Arc::new(Transpose::new(64)),
        Arc::new(Neighbor::new(64, 5)),
        Arc::new(RandomPermutation::new(64, 9)),
    ];
    let mut rng = Rng::new(0x9A77);
    for src in 0..64 {
        for _ in 0..8 {
            for p in &patterns {
                let d = p.dest(TerminalId(src), &mut rng);
                assert!(d.0 < 64, "{} sent {src} to {}", p.name(), d.0);
            }
            // Self-exclusion where guaranteed.
            assert_ne!(patterns[0].dest(TerminalId(src), &mut rng).0, src);
            assert_ne!(patterns[5].dest(TerminalId(src), &mut rng).0, src);
        }
    }
}

#[test]
fn bernoulli_mean_gap_tracks_its_rate() {
    // Gaps are at least one tick and average 1/p within sampling error.
    let mut rng = Rng::new(0x6A9);
    for case in 0..100 {
        let p = rng.gen_range(0.01f64..0.9);
        let mut process = BernoulliProcess::new(p);
        let n = 4000;
        let mut total = 0u64;
        for _ in 0..n {
            let gap = process.next_gap(&mut rng);
            assert!(gap >= 1, "case {case}: p {p}");
            total += gap;
        }
        let mean = total as f64 / n as f64;
        let expect = 1.0 / p;
        assert!(
            (mean - expect).abs() < expect * 0.25 + 0.1,
            "case {case}: mean gap {mean} vs expected {expect}"
        );
    }
}
