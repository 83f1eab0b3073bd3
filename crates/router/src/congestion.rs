//! Congestion sensors (paper §VI-A and §VI-B).
//!
//! A [`CongestionSensor`] turns credit and occupancy bookkeeping into the
//! congestion values that routing engines read through
//! [`CongestionView`](supersim_topology::CongestionView). Two orthogonal
//! configuration axes reproduce the six credit-accounting styles of case
//! study B:
//!
//! - [`CongestionSource`]: count occupancy of the router's own **output**
//!   queues, of the **downstream** buffers (credits in use), or **both**;
//! - [`CongestionGranularity`]: report values per **VC** or aggregated per
//!   **port**.
//!
//! Case study A's latent congestion detection is modeled by
//! [`DelayedValue`]: every sensor reading is published into a small history
//! and queries are answered *as of `now - delay`*, reproducing the 1–32 ns
//! propagation latency between the point of calculation and the routing
//! engines.

use std::collections::VecDeque;

use supersim_des::wire::{Overlay, WireCodec};
use supersim_des::{wire_overlay, Tick};
use supersim_netbase::{Port, Vc};
use supersim_topology::CongestionView;

/// A scalar whose reads are delayed by a fixed latency.
///
/// # Example
///
/// ```
/// use supersim_router::DelayedValue;
///
/// let mut v = DelayedValue::new(10, 0.0);
/// v.set(100, 5.0);
/// assert_eq!(v.get(105), 0.0); // change not yet visible
/// assert_eq!(v.get(110), 5.0); // visible after 10 ticks
/// ```
#[derive(Debug, Clone)]
pub struct DelayedValue {
    delay: Tick,
    /// Committed history: `(tick, value)` pairs, ticks strictly increasing.
    history: VecDeque<(Tick, f64)>,
    current: f64,
}

impl DelayedValue {
    /// Creates a delayed value with the given propagation delay and
    /// initial value (visible from time 0).
    pub fn new(delay: Tick, initial: f64) -> Self {
        DelayedValue {
            delay,
            history: VecDeque::new(),
            current: initial,
        }
    }

    /// The configured delay in ticks.
    pub fn delay(&self) -> Tick {
        self.delay
    }

    /// Records a new value taking effect at `tick`.
    ///
    /// Ticks must be non-decreasing across calls; a same-tick update
    /// replaces the previous one.
    pub fn set(&mut self, tick: Tick, value: f64) {
        if self.delay == 0 {
            self.current = value;
            return;
        }
        if let Some(back) = self.history.back_mut() {
            debug_assert!(back.0 <= tick, "delayed value updated out of order");
            if back.0 == tick {
                back.1 = value;
                return;
            }
        }
        self.history.push_back((tick, value));
        // Prune history older than the delay horizon, keeping at least one
        // entry at or before the horizon as the visible value.
        while self.history.len() >= 2 && self.history[1].0 + self.delay <= tick {
            let (t, v) = self.history.pop_front().expect("len >= 2");
            debug_assert!(t + self.delay <= tick);
            self.current = v;
        }
    }

    /// Reads the value as seen at `tick`: the newest update made at or
    /// before `tick - delay`.
    pub fn get(&self, tick: Tick) -> f64 {
        if self.delay == 0 {
            return self.current;
        }
        let horizon = match tick.checked_sub(self.delay) {
            Some(h) => h,
            None => return self.current,
        };
        let mut value = self.current;
        for &(t, v) in &self.history {
            if t <= horizon {
                value = v;
            } else {
                break;
            }
        }
        value
    }
}

// The committed history and the horizon value; the delay is
// configuration, and history ticks must be strictly increasing.
wire_overlay!(DelayedValue { history, current }
    if |v| v.history.iter().is_sorted_by(|a, b| a.0 < b.0));

/// Which buffers the sensor counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionSource {
    /// Occupancy of the router's own output queues.
    Output,
    /// Credits in use for the downstream (next hop) buffers.
    Downstream,
    /// Sum of both.
    Both,
}

/// At which granularity congestion is reported to routing engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionGranularity {
    /// Per (port, VC): a VC query reads its own counter; a port query
    /// averages the port's VCs.
    Vc,
    /// Per port: VC queries all read the port aggregate.
    Port,
}

impl CongestionSource {
    /// Parses `"output"`, `"downstream"`, or `"both"`.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "output" => Some(CongestionSource::Output),
            "downstream" => Some(CongestionSource::Downstream),
            "both" => Some(CongestionSource::Both),
            _ => None,
        }
    }
}

impl CongestionGranularity {
    /// Parses `"vc"` or `"port"`.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "vc" => Some(CongestionGranularity::Vc),
            "port" => Some(CongestionGranularity::Port),
            _ => None,
        }
    }
}

/// Sensor configuration.
#[derive(Debug, Clone, Copy)]
pub struct SensorConfig {
    /// What to count.
    pub source: CongestionSource,
    /// How to report it.
    pub granularity: CongestionGranularity,
    /// Propagation latency from the point of calculation to the routing
    /// engines, in ticks.
    pub delay: Tick,
}

/// Tracks occupancy counts and serves delayed, style-configured congestion
/// values.
///
/// The owning router calls [`CongestionSensor::add`]/[`CongestionSensor::remove`]
/// as flits enter and leave the counted buffers; routing engines read
/// through the [`CongestionView`] implementation. Values are occupancy in
/// flits (not normalized): adaptive algorithms only compare them.
#[derive(Debug)]
pub struct CongestionSensor {
    config: SensorConfig,
    ports: u32,
    vcs: u32,
    /// Output-queue occupancy per (port, vc), flattened.
    output: Vec<u32>,
    /// Downstream credits in use per (port, vc), flattened.
    downstream: Vec<u32>,
    /// Delayed per-(port,vc) view; empty with zero delay, where a read
    /// is the counters themselves.
    vc_values: Vec<DelayedValue>,
    /// Delayed per-port aggregate view; empty with zero delay.
    port_values: Vec<DelayedValue>,
}

impl CongestionSensor {
    /// Creates a sensor for `ports` × `vcs` outputs.
    pub fn new(ports: u32, vcs: u32, config: SensorConfig) -> Self {
        let n = (ports * vcs) as usize;
        // A zero-delay value is its latest count: store only the counts.
        let delayed = |len: usize| {
            let len = if config.delay == 0 { 0 } else { len };
            vec![DelayedValue::new(config.delay, 0.0); len]
        };
        CongestionSensor {
            config,
            ports,
            vcs,
            output: vec![0; n],
            downstream: vec![0; n],
            vc_values: delayed(n),
            port_values: delayed(ports as usize),
        }
    }

    /// The sensor configuration.
    pub fn config(&self) -> SensorConfig {
        self.config
    }

    #[inline]
    fn idx(&self, port: Port, vc: Vc) -> usize {
        (port * self.vcs + vc) as usize
    }

    /// Records a flit entering the counted buffer of `source` kind.
    pub fn add(&mut self, tick: Tick, source: CongestionSource, port: Port, vc: Vc) {
        let i = self.idx(port, vc);
        match source {
            CongestionSource::Output => self.output[i] += 1,
            CongestionSource::Downstream => self.downstream[i] += 1,
            CongestionSource::Both => unreachable!("add() takes a concrete source"),
        }
        self.publish(tick, port, vc);
    }

    /// Records a flit leaving the counted buffer of `source` kind.
    ///
    /// # Panics
    ///
    /// Panics if the counter would go negative — a bookkeeping bug in the
    /// owning router.
    pub fn remove(&mut self, tick: Tick, source: CongestionSource, port: Port, vc: Vc) {
        let i = self.idx(port, vc);
        let counter = match source {
            CongestionSource::Output => &mut self.output[i],
            CongestionSource::Downstream => &mut self.downstream[i],
            CongestionSource::Both => unreachable!("remove() takes a concrete source"),
        };
        *counter = counter
            .checked_sub(1)
            .expect("congestion counter underflow");
        self.publish(tick, port, vc);
    }

    /// The instantaneous (undelayed) counted value for one (port, vc).
    pub fn instantaneous(&self, port: Port, vc: Vc) -> u32 {
        let i = self.idx(port, vc);
        match self.config.source {
            CongestionSource::Output => self.output[i],
            CongestionSource::Downstream => self.downstream[i],
            CongestionSource::Both => self.output[i] + self.downstream[i],
        }
    }

    /// The instantaneous counted value summed over `port`'s VCs.
    fn port_total(&self, port: Port) -> u32 {
        (0..self.vcs).map(|v| self.instantaneous(port, v)).sum()
    }

    fn publish(&mut self, tick: Tick, port: Port, vc: Vc) {
        if self.config.delay == 0 {
            return;
        }
        let value = self.instantaneous(port, vc) as f64;
        let i = self.idx(port, vc);
        self.vc_values[i].set(tick, value);
        let port_total = self.port_total(port);
        self.port_values[port as usize].set(tick, port_total as f64);
    }

    /// The counts a zero-delay sensor's values hold, in save order:
    /// every (port, VC), then every port.
    fn counted_values(&self) -> impl Iterator<Item = u32> + '_ {
        let keys = (0..self.ports).flat_map(move |p| (0..self.vcs).map(move |v| (p, v)));
        keys.map(|(p, v)| self.instantaneous(p, v))
            .chain((0..self.ports).map(|p| self.port_total(p)))
    }

    /// Serializes the sensor's dynamic state: raw occupancy counters and
    /// every delayed value. Shape (ports × vcs, delay) is configuration.
    /// A zero-delay sensor writes the values it would hold, so the bytes
    /// do not depend on whether they are stored.
    pub fn save(&self, out: &mut Vec<u8>) {
        self.output.len().encode(out);
        for c in self.output.iter().chain(self.downstream.iter()) {
            c.encode(out);
        }
        if self.config.delay == 0 {
            for c in self.counted_values() {
                DelayedValue::new(0, c as f64).save(out);
            }
        }
        for v in self.vc_values.iter().chain(self.port_values.iter()) {
            v.save(out);
        }
    }

    /// Overlays saved state onto this sensor. Total: `None` on malformed
    /// input or a shape mismatch with the built structure; a zero-delay
    /// sensor's values must be the restored counts with no history.
    pub fn load(&mut self, buf: &mut &[u8]) -> Option<()> {
        if usize::decode(buf)? != self.output.len() {
            return None;
        }
        for c in self.output.iter_mut().chain(self.downstream.iter_mut()) {
            *c = u32::decode(buf)?;
        }
        if self.config.delay == 0 {
            let mut saved = DelayedValue::new(0, 0.0);
            for c in self.counted_values() {
                saved.load(buf)?;
                if !saved.history.is_empty() || saved.current != c as f64 {
                    return None;
                }
            }
        }
        for v in self.vc_values.iter_mut().chain(self.port_values.iter_mut()) {
            v.load(buf)?;
        }
        Some(())
    }

    /// A [`CongestionView`] of this sensor as of time `tick`.
    pub fn view_at(&self, tick: Tick) -> SensorView<'_> {
        SensorView { sensor: self, tick }
    }
}

/// A borrowed, time-bound view of a [`CongestionSensor`], implementing the
/// routing-facing [`CongestionView`] trait.
#[derive(Debug, Clone, Copy)]
pub struct SensorView<'a> {
    sensor: &'a CongestionSensor,
    tick: Tick,
}

impl CongestionView for SensorView<'_> {
    fn vc_congestion(&self, port: Port, vc: Vc) -> f64 {
        let s = self.sensor;
        match s.config.granularity {
            CongestionGranularity::Vc if s.config.delay == 0 => s.instantaneous(port, vc) as f64,
            CongestionGranularity::Vc => s.vc_values[s.idx(port, vc)].get(self.tick),
            CongestionGranularity::Port => {
                // Port-based accounting: every VC sees the port aggregate,
                // normalized per VC so magnitudes stay comparable.
                self.port_congestion(port) / s.vcs as f64
            }
        }
    }

    fn port_congestion(&self, port: Port) -> f64 {
        let s = self.sensor;
        if s.config.delay == 0 {
            return s.port_total(port) as f64;
        }
        s.port_values[port as usize].get(self.tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delayed_value_basic() {
        let mut v = DelayedValue::new(5, 1.0);
        assert_eq!(v.get(0), 1.0);
        v.set(10, 2.0);
        assert_eq!(v.get(10), 1.0);
        assert_eq!(v.get(14), 1.0);
        assert_eq!(v.get(15), 2.0);
        assert_eq!(v.get(100), 2.0);
    }

    #[test]
    fn delayed_value_zero_delay_is_instant() {
        let mut v = DelayedValue::new(0, 0.0);
        v.set(3, 9.0);
        assert_eq!(v.get(3), 9.0);
    }

    #[test]
    fn delayed_value_multiple_updates() {
        let mut v = DelayedValue::new(4, 0.0);
        v.set(10, 1.0);
        v.set(12, 2.0);
        v.set(14, 3.0);
        assert_eq!(v.get(13), 0.0);
        assert_eq!(v.get(14), 1.0);
        assert_eq!(v.get(16), 2.0);
        assert_eq!(v.get(18), 3.0);
    }

    #[test]
    fn delayed_value_same_tick_update_replaces() {
        let mut v = DelayedValue::new(2, 0.0);
        v.set(5, 1.0);
        v.set(5, 7.0);
        assert_eq!(v.get(7), 7.0);
    }

    #[test]
    fn delayed_value_history_is_pruned() {
        let mut v = DelayedValue::new(3, 0.0);
        for t in 0..1000 {
            v.set(t, t as f64);
        }
        assert!(v.history.len() < 10, "history grew unbounded");
        assert_eq!(v.get(1000), 997.0);
    }

    fn sensor(source: CongestionSource, gran: CongestionGranularity) -> CongestionSensor {
        CongestionSensor::new(
            2,
            2,
            SensorConfig {
                source,
                granularity: gran,
                delay: 0,
            },
        )
    }

    #[test]
    fn output_source_counts_output_only() {
        let mut s = sensor(CongestionSource::Output, CongestionGranularity::Vc);
        s.add(0, CongestionSource::Output, 1, 0);
        s.add(0, CongestionSource::Downstream, 1, 0);
        let view = s.view_at(0);
        assert_eq!(view.vc_congestion(1, 0), 1.0);
        assert_eq!(view.vc_congestion(1, 1), 0.0);
    }

    #[test]
    fn both_source_sums() {
        let mut s = sensor(CongestionSource::Both, CongestionGranularity::Vc);
        s.add(0, CongestionSource::Output, 0, 1);
        s.add(0, CongestionSource::Downstream, 0, 1);
        assert_eq!(s.view_at(0).vc_congestion(0, 1), 2.0);
    }

    #[test]
    fn port_granularity_aggregates_vcs() {
        let mut s = sensor(CongestionSource::Output, CongestionGranularity::Port);
        s.add(0, CongestionSource::Output, 0, 0);
        s.add(0, CongestionSource::Output, 0, 1);
        s.add(0, CongestionSource::Output, 0, 1);
        let view = s.view_at(0);
        // Both VCs see the port aggregate (3) normalized by 2 VCs.
        assert_eq!(view.vc_congestion(0, 0), 1.5);
        assert_eq!(view.vc_congestion(0, 1), 1.5);
        assert_eq!(view.port_congestion(0), 3.0);
    }

    #[test]
    fn vc_granularity_separates_vcs() {
        let mut s = sensor(CongestionSource::Output, CongestionGranularity::Vc);
        s.add(0, CongestionSource::Output, 0, 1);
        let view = s.view_at(0);
        assert_eq!(view.vc_congestion(0, 0), 0.0);
        assert_eq!(view.vc_congestion(0, 1), 1.0);
        assert_eq!(view.port_congestion(0), 1.0);
    }

    #[test]
    fn remove_decrements() {
        let mut s = sensor(CongestionSource::Downstream, CongestionGranularity::Vc);
        s.add(0, CongestionSource::Downstream, 1, 1);
        s.remove(1, CongestionSource::Downstream, 1, 1);
        assert_eq!(s.view_at(1).vc_congestion(1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn counter_underflow_panics() {
        let mut s = sensor(CongestionSource::Output, CongestionGranularity::Vc);
        s.remove(0, CongestionSource::Output, 0, 0);
    }

    #[test]
    fn delayed_sensor_reports_stale_values() {
        let mut s = CongestionSensor::new(
            1,
            1,
            SensorConfig {
                source: CongestionSource::Output,
                granularity: CongestionGranularity::Vc,
                delay: 8,
            },
        );
        s.add(100, CongestionSource::Output, 0, 0);
        // At tick 104 the routing engines still see the old value.
        assert_eq!(s.view_at(104).vc_congestion(0, 0), 0.0);
        assert_eq!(s.view_at(108).vc_congestion(0, 0), 1.0);
        assert_eq!(s.view_at(104).port_congestion(0), 0.0);
    }

    /// The stored zero-delay sensor this one replaced: a
    /// [`DelayedValue`] per (port, VC) and per port, set on every count
    /// change.
    struct StoredZeroDelay {
        vcs: u32,
        vc_values: Vec<DelayedValue>,
        port_values: Vec<DelayedValue>,
    }

    impl StoredZeroDelay {
        fn new(ports: u32, vcs: u32) -> Self {
            let values = |n| (0..n).map(|_| DelayedValue::new(0, 0.0)).collect();
            StoredZeroDelay {
                vcs,
                vc_values: values(ports * vcs),
                port_values: values(ports),
            }
        }

        fn publish(&mut self, counts: &CongestionSensor, tick: Tick, port: Port, vc: Vc) {
            let value = counts.instantaneous(port, vc) as f64;
            self.vc_values[(port * self.vcs + vc) as usize].set(tick, value);
            let total: u32 = (0..self.vcs).map(|v| counts.instantaneous(port, v)).sum();
            self.port_values[port as usize].set(tick, total as f64);
        }

        fn vc_congestion(
            &self,
            gran: CongestionGranularity,
            tick: Tick,
            port: Port,
            vc: Vc,
        ) -> f64 {
            match gran {
                CongestionGranularity::Vc => {
                    self.vc_values[(port * self.vcs + vc) as usize].get(tick)
                }
                CongestionGranularity::Port => {
                    self.port_values[port as usize].get(tick) / self.vcs as f64
                }
            }
        }

        fn save(&self, counts: &CongestionSensor, out: &mut Vec<u8>) {
            counts.output.len().encode(out);
            for c in counts.output.iter().chain(counts.downstream.iter()) {
                c.encode(out);
            }
            for v in self.vc_values.iter().chain(self.port_values.iter()) {
                v.save(out);
            }
        }
    }

    #[test]
    fn zero_delay_sensor_matches_stored_delayed_values() {
        use supersim_des::Rng;
        let sources = [
            CongestionSource::Output,
            CongestionSource::Downstream,
            CongestionSource::Both,
        ];
        let grans = [CongestionGranularity::Vc, CongestionGranularity::Port];
        let mut rng = Rng::new(0x5E_2507);
        for source in sources {
            for gran in grans {
                let (ports, vcs) = (1 + rng.gen_below(6) as u32, 1 + rng.gen_below(4) as u32);
                let mut s = CongestionSensor::new(
                    ports,
                    vcs,
                    SensorConfig {
                        source,
                        granularity: gran,
                        delay: 0,
                    },
                );
                assert!(s.vc_values.is_empty() && s.port_values.is_empty());
                let mut stored = StoredZeroDelay::new(ports, vcs);
                for step in 0..400u64 {
                    let tick = step / 3;
                    let (port, vc) = (
                        rng.gen_below(ports.into()) as u32,
                        rng.gen_below(vcs.into()) as u32,
                    );
                    let kind = if rng.gen_bool(0.5) {
                        CongestionSource::Output
                    } else {
                        CongestionSource::Downstream
                    };
                    let held = match kind {
                        CongestionSource::Output => s.output[s.idx(port, vc)],
                        _ => s.downstream[s.idx(port, vc)],
                    };
                    if held > 0 && rng.gen_bool(0.45) {
                        s.remove(tick, kind, port, vc);
                    } else {
                        s.add(tick, kind, port, vc);
                    }
                    stored.publish(&s, tick, port, vc);
                    let view = s.view_at(tick);
                    for p in 0..ports {
                        assert_eq!(
                            view.port_congestion(p),
                            stored.port_values[p as usize].get(tick),
                            "{source:?}/{gran:?} port {p} at step {step}"
                        );
                        for v in 0..vcs {
                            assert_eq!(
                                view.vc_congestion(p, v),
                                stored.vc_congestion(gran, tick, p, v),
                                "{source:?}/{gran:?} ({p}, {v}) at step {step}"
                            );
                        }
                    }
                    if step % 40 == 0 {
                        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
                        s.save(&mut ours);
                        stored.save(&s, &mut theirs);
                        assert_eq!(ours, theirs, "{source:?}/{gran:?} bytes at step {step}");
                        let mut back = CongestionSensor::new(ports, vcs, s.config);
                        assert_eq!(back.load(&mut ours.as_slice()), Some(()));
                        assert_eq!(
                            (back.output, back.downstream),
                            (s.output.clone(), s.downstream.clone())
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_delay_load_rejects_values_that_disagree_with_the_counts() {
        let mut s = sensor(CongestionSource::Output, CongestionGranularity::Vc);
        s.add(0, CongestionSource::Output, 1, 1);
        let mut bytes = Vec::new();
        s.save(&mut bytes);
        let mut bad = bytes.clone();
        // The last value written is port 1's aggregate, 1.0: make it 2.0.
        let at = bad.len() - 8;
        bad[at..].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        let mut back = sensor(CongestionSource::Output, CongestionGranularity::Vc);
        assert_eq!(back.load(&mut bad.as_slice()), None);
        assert_eq!(back.load(&mut bytes.as_slice()), Some(()));
    }

    #[test]
    fn style_names_parse() {
        assert_eq!(
            CongestionSource::from_name("output"),
            Some(CongestionSource::Output)
        );
        assert_eq!(
            CongestionSource::from_name("downstream"),
            Some(CongestionSource::Downstream)
        );
        assert_eq!(
            CongestionSource::from_name("both"),
            Some(CongestionSource::Both)
        );
        assert_eq!(CongestionSource::from_name("x"), None);
        assert_eq!(
            CongestionGranularity::from_name("vc"),
            Some(CongestionGranularity::Vc)
        );
        assert_eq!(
            CongestionGranularity::from_name("port"),
            Some(CongestionGranularity::Port)
        );
        assert_eq!(CongestionGranularity::from_name("x"), None);
    }
}
