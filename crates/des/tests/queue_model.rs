//! Randomized cross-check of the calendar [`EventQueue`] against a
//! reference `BinaryHeap` model (the seed implementation's semantics:
//! ordered by `(time, seq)`, FIFO for equal times).
//!
//! These tests replace the old proptest suite for the queue with
//! deterministic in-tree generators driven by the workspace PRNG: every
//! run explores the same interleavings, and a failure reproduces from the
//! printed seed alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use supersim_des::wire::{get_varint, put_varint, WireCodec};
use supersim_des::{ComponentId, EventQueue, EventStamp, Generation, Rng, Tick, Time};

/// The reference model: earliest `(time, seq)` first.
#[derive(Default)]
struct RefModel {
    heap: BinaryHeap<Reverse<(Time, u64, u32)>>,
    next_seq: u64,
}

impl RefModel {
    fn push(&mut self, time: Time, payload: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, payload)));
    }

    fn pop(&mut self) -> Option<(Time, u32)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, payload))| (time, payload))
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((time, _, _))| *time)
    }
}

/// Drives one randomized interleaving of pushes and pops against both
/// implementations and asserts identical behavior throughout.
///
/// `tick_span` controls how far pushes scatter past the current floor:
/// small spans stay inside the ring, large spans exercise the overflow
/// heap, horizon-advance refill, and adaptive growth.
fn cross_check(seed: u64, horizon: usize, tick_span: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let mut calendar = EventQueue::with_horizon(horizon);
    let mut model = RefModel::default();
    let target = ComponentId::from_index(0);
    // Both queues forbid scheduling before the last popped time.
    let mut floor = Time::at(0);
    let mut payload = 0u32;

    for op in 0..ops {
        let push = calendar.is_empty() || rng.gen_bool(0.55);
        if push {
            // Equal times are common on purpose: FIFO is the hard part.
            let tick = floor.tick() + rng.gen_range(0..tick_span);
            let eps = rng.gen_range(0u8..3);
            let time = Time::new(tick, eps).max(floor);
            calendar.push(target, time, payload);
            model.push(time, payload);
            payload += 1;
        } else {
            let got = calendar.pop().expect("calendar non-empty");
            let want = model.pop().expect("model out of sync");
            assert_eq!(
                (got.time, got.payload),
                want,
                "divergence at op {op} (seed {seed}, horizon {horizon}, span {tick_span})"
            );
            floor = got.time;
        }
        assert_eq!(
            calendar.len(),
            model.heap.len(),
            "length divergence at op {op}"
        );
        assert_eq!(
            calendar.peek_time(),
            model.peek_time(),
            "peek divergence at op {op}"
        );
    }
    // Drain: the full remaining order must match.
    while let Some(want) = model.pop() {
        let got = calendar.pop().expect("calendar drained early");
        assert_eq!(
            (got.time, got.payload),
            want,
            "drain divergence (seed {seed})"
        );
    }
    assert!(calendar.is_empty());
}

#[test]
fn near_future_interleavings_match_reference() {
    // Everything lands inside the ring: pure bucket/FIFO behavior.
    for seed in 0..8 {
        cross_check(seed, 64, 48, 2_000);
    }
}

#[test]
fn far_future_interleavings_match_reference() {
    // Most pushes overshoot the 64-tick horizon: overflow heap, drain on
    // horizon advance, and adaptive growth all participate.
    for seed in 100..108 {
        cross_check(seed, 64, 5_000, 2_000);
    }
}

#[test]
fn mixed_span_interleavings_match_reference() {
    // A mix of ring-local and overflow traffic across several horizons.
    for seed in 200..206 {
        cross_check(seed, 128, 400, 3_000);
    }
}

#[test]
fn equal_time_bursts_stay_fifo() {
    // Heavy equal-(tick, epsilon) contention: pop order must be exactly
    // enqueue order within each time, across ring and overflow paths.
    let mut rng = Rng::new(42);
    let mut q = EventQueue::with_horizon(64);
    let target = ComponentId::from_index(0);
    let mut pushed: Vec<(Time, u32)> = Vec::new();
    for i in 0..4_000u32 {
        // Only 8 distinct ticks and 2 epsilons → long FIFO chains; half
        // the ticks lie beyond the horizon at push time.
        let time = Time::new(rng.gen_range(0u64..8) * 20, rng.gen_range(0u8..2));
        q.push(target, time, i);
        pushed.push((time, i));
    }
    // Expected order: stable sort by time keeps enqueue order for ties.
    pushed.sort_by_key(|&(time, _)| time);
    for (i, &(time, payload)) in pushed.iter().enumerate() {
        let got = q.pop().expect("queue drained early");
        assert_eq!((got.time, got.payload), (time, payload), "at pop {i}");
    }
    assert!(q.is_empty());
}

#[test]
fn batch_interface_matches_pop_sequence() {
    // take_batch must yield exactly the events pop() would, in the same
    // order, grouped by equal (tick, epsilon).
    let build = |seed: u64| {
        let mut rng = Rng::new(seed);
        let mut q = EventQueue::with_horizon(64);
        let target = ComponentId::from_index(0);
        for i in 0..1_000u32 {
            let time = Time::new(rng.gen_range(0u64..300), rng.gen_range(0u8..2));
            q.push(target, time, i);
        }
        q
    };
    for seed in 0..4 {
        let mut by_pop = build(seed);
        let mut by_batch = build(seed);
        let mut batch = Vec::new();
        loop {
            let n = by_batch.take_batch(&mut batch);
            if n == 0 {
                break;
            }
            for entry in batch.iter() {
                let single = by_pop.pop().expect("pop queue drained early");
                assert_eq!((single.time, single.payload), (entry.time, entry.payload));
                // Every event in one batch shares the batch time.
                assert_eq!(entry.time, batch[0].time);
            }
        }
        assert!(by_pop.is_empty());
    }
}

/// Drives the queue's generation interface and a `BinaryHeap<(Time,
/// EventStamp)>` through the life of an engine run: mixed-epsilon ticks,
/// pushes at the running generation's own time, spills past the horizon
/// and their migration back, horizon growth, and save/load round trips in
/// the middle of it all.
///
/// Every event's payload is its stamp, and each source stamps its sends
/// with its own ascending counter, so the per-source enqueue-order
/// invariant the cheap key rests on holds here as it does in the engines;
/// each drained generation must equal the reference in full stamp order.
fn generations_match_reference(seed: u64) {
    const SOURCES: u32 = 7;
    let mut rng = Rng::new(seed);
    let mut queue: EventQueue<EventStamp> = EventQueue::with_horizon(64);
    let mut reference: BinaryHeap<Reverse<(Time, EventStamp)>> = BinaryHeap::new();
    let mut seqs = [0u64; SOURCES as usize];
    let mut generation = Generation::new();
    let mut schedule = |queue: &mut EventQueue<EventStamp>,
                        reference: &mut BinaryHeap<Reverse<(Time, EventStamp)>>,
                        src: u32,
                        time: Time| {
        // One source is the engine's external scheduler.
        let stamp = EventStamp {
            src: if src == 0 { u32::MAX } else { src },
            seq: seqs[src as usize],
        };
        seqs[src as usize] += 1;
        queue.push(ComponentId::from_index(src as usize), time, stamp);
        reference.push(Reverse((time, stamp)));
    };
    for src in 0..SOURCES {
        for _ in 0..20 {
            let time = Time::new(rng.gen_range(0u64..40), rng.gen_range(0u8..3));
            schedule(&mut queue, &mut reference, src, time);
        }
    }
    let (mut reloads, mut generations) = (0, 0);
    while let Some(&Reverse((now, _))) = reference.peek() {
        assert_eq!(queue.peek_time(), Some(now), "seed {seed}");
        assert_eq!(queue.len(), reference.len(), "seed {seed}");
        if generations % 37 == 5 {
            // A quiescent point: the restored queue must carry on alike.
            let mut bytes = Vec::new();
            queue.save(&mut bytes, EventStamp::encode);
            let mut buf = &bytes[..];
            queue = EventQueue::load(&mut buf, EventStamp::decode).expect("own encoding loads");
            assert!(buf.is_empty());
            let mut again = Vec::new();
            queue.save(&mut again, EventStamp::encode);
            assert_eq!(bytes, again, "save is a fixed point of load (seed {seed})");
            reloads += 1;
        }
        // A limit below the generation's tick takes nothing.
        if now.tick() > 0 {
            let early = queue.take_generation_until(now.tick() - 1, &mut generation, |s| s.src);
            assert_eq!(early, None);
            assert!(generation.is_empty());
        }
        let took = queue.take_generation_until(Tick::MAX, &mut generation, |s| s.src);
        assert_eq!(took, Some(now), "seed {seed}");
        let mut want = Vec::new();
        while reference.peek().is_some_and(|r| r.0 .0 == now) {
            want.push(reference.pop().expect("peeked").0 .1);
        }
        let got: Vec<EventStamp> = generation.pending().copied().collect();
        assert_eq!(got, want, "generation {generations} at {now} (seed {seed})");
        assert_eq!(generation.len(), want.len());
        generations += 1;

        for (done, entry) in generation.by_ref().enumerate() {
            assert_eq!((entry.time, entry.payload), (now, want[done]));
            // The handler of this event sends a few more.
            for _ in 0..rng.gen_range(0u32..3) {
                let time = match rng.gen_range(0u32..20) {
                    0..=2 => now,
                    3..=5 => Time::new(now.tick(), rng.gen_range(now.epsilon()..4)),
                    6..=15 => Time::new(now.tick() + rng.gen_range(1u64..8), rng.gen_range(0u8..3)),
                    16..=18 => Time::new(now.tick() + rng.gen_range(8u64..400), 0),
                    _ => Time::at(now.tick() + 5_000),
                };
                // Keep the pending set from dying out or exploding.
                if reference.len() + want.len() < 3_000 {
                    schedule(&mut queue, &mut reference, rng.gen_range(0..SOURCES), time);
                }
            }
        }
        if generations > 4_000 {
            break;
        }
    }
    assert!(queue.horizon_resizes() > 0 && queue.overflow_spills() > 0);
    assert!(reloads > 10 && generations > 500);
}

#[test]
fn generations_match_reference_in_stamp_order() {
    for seed in 300..306 {
        generations_match_reference(seed);
    }
}

/// A fixed script over the whole interface a checkpoint can follow:
/// mixed-epsilon buckets, spills and growth, single pops out of the middle
/// of a bucket, a batch taken, far stragglers left in the overflow.
fn scripted_queue() -> EventQueue<u32> {
    let mut rng = Rng::new(0xC0FFEE);
    let mut q = EventQueue::with_horizon(64);
    let mut payload = 0u32;
    let mut push = |q: &mut EventQueue<u32>, rng: &mut Rng, floor: u64, span: u64| {
        let time = Time::new(floor + rng.gen_range(0..span), rng.gen_range(0u8..3));
        q.push(
            ComponentId::from_index(rng.gen_range(0usize..5)),
            time,
            payload,
        );
        payload += 1;
    };
    for _ in 0..400 {
        push(&mut q, &mut rng, 0, 300);
    }
    let mut floor = 0;
    for _ in 0..50 {
        floor = q.pop().expect("scripted queue is not empty").time.tick();
    }
    let mut batch = Vec::new();
    while q.take_batch(&mut batch) < 3 {}
    let time = batch[0].time;
    for _ in 0..2 {
        q.push(ComponentId::from_index(1), time, 9_000);
    }
    for _ in 0..100 {
        push(&mut q, &mut rng, floor.max(time.tick()), 200);
    }
    q.push(ComponentId::from_index(0), Time::at(1_000_000), 9_001);
    q.push(ComponentId::from_index(0), Time::new(1_000_000, 1), 9_002);
    q
}

fn encode_u32(payload: &u32, out: &mut Vec<u8>) {
    put_varint(out, u64::from(*payload));
}

fn decode_u32(buf: &mut &[u8]) -> Option<u32> {
    u32::try_from(get_varint(buf)?).ok()
}

/// FNV-1a, enough to pin a byte string without carrying it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn save_bytes_are_the_format_older_checkpoints_use() {
    // Length and hash of `scripted_queue().save(..)`. The script lost its
    // partial requeue with the queue's requeue method; these values come
    // from running the rewritten script at commit e571659, the last with
    // the queue storage the old pin (2403 bytes, 0x34e3_f2f7_5b65_8c96)
    // tied to the slab-and-list queue of commit b8910f6. The same pushes
    // must keep serializing to the same bytes, event for event.
    const LEN: usize = 2388;
    const HASH: u64 = 0x1546_66fa_bf1d_3d78;
    let q = scripted_queue();
    let mut bytes = Vec::new();
    q.save(&mut bytes, encode_u32);
    assert_eq!((bytes.len(), fnv1a(&bytes)), (LEN, HASH));

    // And such bytes load into a queue that drains like the original.
    let mut buf = &bytes[..];
    let mut loaded = EventQueue::load(&mut buf, decode_u32).expect("checkpoint loads");
    assert!(buf.is_empty());
    let mut original = q;
    assert_eq!(loaded.len(), original.len());
    assert_eq!(loaded.high_water_mark(), original.high_water_mark());
    assert_eq!(loaded.total_enqueued(), original.total_enqueued());
    assert_eq!(loaded.horizon(), original.horizon());
    while let Some(want) = original.pop() {
        let got = loaded.pop().expect("loaded queue drained early");
        assert_eq!(
            (got.time, got.target, got.payload),
            (want.time, want.target, want.payload)
        );
    }
    assert!(loaded.is_empty());
}
