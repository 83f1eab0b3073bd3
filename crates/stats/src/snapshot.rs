//! [`WireCodec`] for the state-holding statistics primitives: counters,
//! gauges, histograms, window aggregates, samplers and sample records.
//! One encoding each, inside the components' snapshots: they carry
//! observability state across a resume byte-identically, and from each
//! worker process to the parent, which restores the workers' final shard
//! blobs and reads the report from them.
//!
//! All decoders are total: malformed input yields `None`, never a panic.

use supersim_des::wire::{get_len, get_str, put_each, put_str, WireCodec};
use supersim_des::{wire_enum, wire_overlay, wire_struct};

use crate::metrics::{Counter, Gauge, Histogram, HIST_BUCKETS};
use crate::record::{RecordKind, SampleRecord};
use crate::timeseries::{intern_series, ComponentSampler, WindowAggregate, WindowSample};

wire_struct!(Counter { value });
wire_struct!(Gauge { value, max } if |g| g.max >= g.value);

/// Non-zero buckets as `(index, count)` pairs, then the count and sum
/// totals: a latency histogram fills a handful of its 64 buckets.
impl WireCodec for Histogram {
    fn encode(&self, out: &mut Vec<u8>) {
        let nonzero = self.buckets().iter().enumerate().filter(|&(_, &c)| c > 0);
        nonzero.clone().count().encode(out);
        for (i, c) in nonzero {
            (i, *c).encode(out);
        }
        (self.count(), self.sum()).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let mut counts = [0u64; HIST_BUCKETS];
        for _ in 0..get_len(buf)? {
            let (i, c) = <(usize, u64)>::decode(buf)?;
            let slot = counts.get_mut(i)?;
            if c == 0 || *slot != 0 {
                return None;
            }
            *slot = c;
        }
        let (count, sum) = WireCodec::decode(buf)?;
        Some(Histogram::from_log2_counts(&counts, count, sum))
    }
}

wire_struct!(WindowAggregate { hist, max });

/// `(series, value)` lists. Series names are `&'static str` in memory;
/// they travel as strings and are re-interned on decode.
fn put_named<T: WireCodec>(out: &mut Vec<u8>, entries: &[(&'static str, T)]) {
    put_each(out, entries, |(name, value), o| {
        put_str(o, name);
        value.encode(o);
    });
}

/// Reads a list written by [`put_named`] at its decoded length, reserved
/// once and bounded by the input as `Vec::decode` bounds it.
fn get_named<T: WireCodec, C: From<Vec<(&'static str, T)>>>(buf: &mut &[u8]) -> Option<C> {
    let len = get_len(buf)?;
    let mut entries = Vec::with_capacity(len.min(buf.len() / size_of::<(&str, T)>()));
    for _ in 0..len {
        entries.push((intern_series(&get_str(buf)?), T::decode(buf)?));
    }
    Some(entries.into())
}

impl WireCodec for WindowSample {
    fn encode(&self, out: &mut Vec<u8>) {
        self.edge.encode(out);
        put_named(out, &self.scalars);
        put_named(out, &self.dists);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(WindowSample {
            edge: u64::decode(buf)?,
            scalars: get_named(buf)?,
            dists: get_named(buf)?,
        })
    }
}

/// Closed windows, the eviction count, and the **pending** window's
/// accumulated distributions, so a mid-window checkpoint resumes with the
/// in-progress observations intact.
impl WireCodec for ComponentSampler {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.capacity, self.evicted).encode(out);
        self.windows.encode(out);
        put_named(out, &self.pending);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (capacity, evicted) = WireCodec::decode(buf)?;
        let sampler = ComponentSampler {
            capacity,
            evicted,
            windows: WireCodec::decode(buf)?,
            pending: get_named(buf)?,
        };
        (capacity != 0 && sampler.windows.len() <= capacity).then_some(sampler)
    }
}

// A sampler is an armed plane of its owner's snapshot, restored whole.
wire_overlay!(value ComponentSampler);

wire_enum!(RecordKind {
    Packet = 0,
    Message = 1,
    Transaction = 2,
});

wire_struct!(SampleRecord {
    kind,
    app,
    src,
    dst,
    send,
    recv,
    hops,
    size,
});

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_des::wire::testing::check_codec;
    use supersim_des::Rng;

    #[test]
    fn hist_round_trips() {
        let mut h = Histogram::new();
        for v in [0, 1, 5, 5, 900, u64::MAX] {
            h.record(v);
        }
        let mut out = Vec::new();
        h.encode(&mut out);
        let got = Histogram::decode(&mut out.as_slice()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn hist_rejects_repeated_empty_and_out_of_range_buckets() {
        let past_end = [1, HIST_BUCKETS as u8, 1, 1, 1];
        for bad in [&[2, 5, 1, 5, 1, 2, 2][..], &[1, 5, 0, 0, 0], &past_end] {
            assert_eq!(Histogram::decode(&mut &*bad), None, "{bad:?}");
        }
    }

    #[test]
    fn sampler_round_trips_with_pending() {
        let mut s = ComponentSampler::new(4);
        s.record("lat", 10);
        s.record("lat", 30);
        s.close(100, vec![(intern_series("flits"), 7)]);
        s.record("lat", 99); // pending, mid-window
        let mut out = Vec::new();
        s.encode(&mut out);
        let got = ComponentSampler::decode(&mut out.as_slice()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got.pending.len(), 1);
        assert_eq!(got.pending[0].1.max(), Some(99));
        // Bit-identical re-encode.
        let mut out2 = Vec::new();
        got.encode(&mut out2);
        assert_eq!(out, out2);
    }

    /// A window's scalars decoded from inside a blob, as a checkpoint or
    /// a worker's final state holds them, are reserved at exactly their
    /// length, not grown by doubling.
    #[test]
    fn decoded_windows_hold_exactly_their_entries() {
        let scalars = ["a", "b", "c", "d", "e"].map(|n| (intern_series(n), 1));
        let mut s = ComponentSampler::new(2);
        s.record("lat", 10);
        s.close(100, scalars.to_vec());
        let mut out = Vec::new();
        s.encode(&mut out);
        out.resize(out.len() + 4096, 0);
        let got = ComponentSampler::decode(&mut out.as_slice()).unwrap();
        let window = got.windows().next().expect("one window");
        assert_eq!(window.scalars, scalars);
        assert_eq!(window.scalars.capacity(), scalars.len());
    }

    #[test]
    fn sampler_rejects_zero_capacity_and_overfull_rings() {
        // capacity 0; then capacity 1 holding two (empty) windows; then
        // a hostile worker's ring claiming 2^62 capacity and 2^62
        // retained windows, which must be rejected, not allocated.
        let mut hostile = Vec::new();
        (1u64 << 62, 0u64, 1u64 << 62).encode(&mut hostile);
        for bad in [
            &[0, 0, 0, 0][..],
            &[1, 0, 2, 5, 0, 0, 6, 0, 0, 0],
            hostile.as_slice(),
        ] {
            assert!(ComponentSampler::decode(&mut &*bad).is_none(), "{bad:?}");
        }
    }

    fn rand_hist(rng: &mut Rng) -> Histogram {
        let mut h = Histogram::new();
        for _ in 0..rng.gen_u64() % 12 {
            h.record(rng.gen_u64() >> (rng.gen_u64() % 64));
        }
        h
    }

    fn rand_aggregate(rng: &mut Rng) -> WindowAggregate {
        let mut agg = WindowAggregate::new();
        for _ in 0..rng.gen_u64() % 6 {
            agg.record(rng.gen_u64() >> 40);
        }
        agg
    }

    fn rand_window(rng: &mut Rng, edge: u64) -> WindowSample {
        WindowSample {
            edge,
            scalars: (0..rng.gen_u64() % 3)
                .map(|s| (intern_series(&format!("scalar_{s}")), rng.gen_u64() >> 8))
                .collect(),
            dists: (0..rng.gen_u64() % 3)
                .map(|d| (intern_series(&format!("dist_{d}")), rand_aggregate(rng)))
                .collect(),
        }
    }

    fn rand_record(rng: &mut Rng) -> SampleRecord {
        SampleRecord {
            kind: [
                RecordKind::Packet,
                RecordKind::Message,
                RecordKind::Transaction,
            ][(rng.gen_u64() % 3) as usize],
            app: rng.gen_u64() as u8,
            src: rng.gen_u64() as u32,
            dst: rng.gen_u64() as u32,
            send: rng.gen_u64() >> 16,
            recv: rng.gen_u64() >> 16,
            hops: rng.gen_u64() as u16,
            size: rng.gen_u64() as u32,
        }
    }

    /// One row per `WireCodec` type this crate defines.
    #[test]
    fn every_stats_codec_is_total() {
        check_codec(1, 20, |r| Counter {
            value: r.gen_u64() >> 20,
        });
        check_codec(2, 20, |r| {
            let mut g = Gauge::new();
            g.set(r.gen_u64() >> 40);
            g.set(r.gen_u64() >> 44);
            g
        });
        check_codec(3, 40, rand_hist);
        check_codec(4, 40, rand_aggregate);
        check_codec(5, 40, |r| rand_window(r, 100));
        check_codec(6, 40, |r| {
            let mut s = ComponentSampler::new(1 + (r.gen_u64() as usize % 4));
            for w in 0..r.gen_u64() % 6 {
                let window = rand_window(r, (w + 1) * 100);
                for (name, agg) in &window.dists {
                    s.record(name, agg.max().unwrap_or(0));
                }
                s.close(window.edge, window.scalars);
            }
            s.record("lat", r.gen_u64() >> 50); // mid-window
            s
        });
        check_codec(7, 20, |r| rand_record(r).kind);
        check_codec(8, 40, rand_record);
    }
}
