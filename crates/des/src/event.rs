//! The event queue (paper §III-A, Figure 1): a two-level calendar queue.
//!
//! Events are ordered by their [`Time`] (tick first, then epsilon). Events
//! with identical times are executed in the order they were enqueued, which
//! keeps simulations deterministic.
//!
//! # Why a calendar queue
//!
//! A flit-level simulation schedules almost everything a handful of ticks
//! into the future: channel traversals at fixed channel latencies, credit
//! returns, and clock edges at fixed periods. A global `BinaryHeap` pays an
//! `O(log n)` comparator-heavy sift on every one of those operations and
//! needs an explicit sequence number on every event just to keep equal-time
//! pops FIFO. This queue instead keeps a **ring of per-tick buckets**
//! covering a near-future horizon: pushes within the horizon are `O(1)`,
//! pops take the front of the current bucket, and FIFO order for equal
//! `(tick, epsilon)` events is structural — bucket insertion order *is*
//! enqueue order, no tie-break needed. Events beyond the horizon go to a
//! small overflow `BinaryHeap` (they are rare: long warmup timers,
//! far-future monitors) and drain into the ring as the horizon advances
//! past them. An occupancy bitmap (one bit per bucket) lets the queue skip
//! runs of empty ticks a word at a time.
//!
//! # Storage: pooled contiguous chunks
//!
//! A large network keeps thousands of events in one tick's bucket, and the
//! executor takes them a whole `(tick, epsilon)` *generation* at a time, so
//! a bucket is laid out for streaming: a chain of **chunks**, each a header
//! followed by a contiguous run of event slots, all in one shared arena
//! (`Vec<Slot<E>>`). The bucket implies the tick, so a slot holds only
//! epsilon, target and payload. A push appends to the bucket's tail chunk;
//! a drain walks the chain front to back, once. The bucket's smallest
//! epsilon is kept up to date in its tail chunk's header, which every push
//! writes anyway, so neither [`EventQueue::peek_time`] nor a drain scans
//! for it, and a bucket proper is two 4-byte chunk ids.
//!
//! There is **no per-bucket allocation**: chunks come from per-size free
//! lists threaded through their headers and go back when drained, most
//! recently drained first, so steady-state traffic keeps writing into the
//! slots it has just read. A bucket's first chunk holds [`MIN_CHUNK`]
//! events and each further chunk doubles up to [`MAX_CHUNK`], so a bucket
//! of thousands is a few dozen long sequential runs. A bucket's *only*
//! event has no chunk at all: it is one bare slot, so a workload that
//! scatters one event per tick over many ticks pays one slot per event
//! and nothing per tick but the 8-byte bucket.
//!
//! # Generations
//!
//! [`EventQueue::take_generation_until`] drains the earliest generation
//! into a [`Generation`], ordered for dispatch by a caller-supplied 32-bit
//! source id with ties broken by enqueue position. It makes two passes. The
//! first walks the bucket, reads each event's source into an 8-byte key
//! and moves only the events of *later* epsilons, to a fresh chain. Only
//! the keys are sorted. The second moves each event once, from its slot
//! straight to its place in dispatch order, so that dispatching is popping
//! a vector. The engines use this with the event stamp's source (see the
//! `engine` module for why that equals full stamp order).
//! [`EventQueue::take_batch`] is the same drain in plain enqueue order, and
//! [`EventQueue::pop`] takes single events in place.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::component::ComponentId;
use crate::time::{Epsilon, Tick, Time};
use crate::wire::{get_len, WireCodec};

/// One scheduled event: when to run, who runs it, and its payload.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// Execution time of the event.
    pub time: Time,
    /// The component that will execute the event.
    pub target: ComponentId,
    /// Component-specific payload.
    pub payload: E,
}

/// An event parked beyond the ring horizon, waiting in the overflow heap.
///
/// Only overflow events need an explicit FIFO sequence number: ring
/// buckets get FIFO from insertion order.
#[derive(Debug)]
struct OverflowEntry<E> {
    time: Time,
    seq: u64,
    target: ComponentId,
    payload: E,
}

impl<E> PartialEq for OverflowEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for OverflowEntry<E> {}

impl<E> PartialOrd for OverflowEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for OverflowEntry<E> {
    /// Reverse ordering so that the `BinaryHeap` (a max-heap) presents the
    /// *earliest* event at its head.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Default near-future horizon in ticks (must be a power of two).
///
/// Flit, credit, and clock events land within a few ticks of `now`; 4096
/// ticks of headroom keeps even long channel pipelines and slow clocks in
/// the O(1) ring while costing only 32 KiB of bucket headers.
const DEFAULT_HORIZON: usize = 4096;

/// Upper bound for adaptive horizon growth (2^20 buckets = 8 MiB of
/// bucket headers). Workloads spread wider than this keep using the
/// overflow heap beyond the ring.
const MAX_HORIZON: usize = 1 << 20;

/// Sentinel chunk id: "no chunk".
const NIL: u32 = u32::MAX;

/// Events in a bucket's first chunk (a power of two, at least 2).
const MIN_CHUNK: usize = 2;

/// Events in the largest chunk (a power of two, at most 128).
const MAX_CHUNK: usize = 64;

/// Largest chunk size class: class `k` holds `MIN_CHUNK << k` events.
const MAX_CLASS: u8 = (MAX_CHUNK / MIN_CHUNK).trailing_zeros() as u8;

/// The class of a lone event slot: a bucket's only event, stored without
/// a header.
const LONE: u8 = MAX_CLASS + 1;

// A lone event moves into a first-size chunk when a second joins it.
const _: () = assert!(MIN_CHUNK >= 2 && MAX_CHUNK <= 128);

/// One arena slot. A chunk is a header slot followed by its event slots.
#[derive(Debug)]
enum Slot<E> {
    /// An event slot that was consumed or never written.
    Vacant,
    /// The first slot of a chunk, describing the event slots after it; or
    /// a released lone slot, for its free-list link.
    Chunk(Chunk),
    /// A pending ring event of its bucket's tick.
    Event {
        epsilon: Epsilon,
        target: ComponentId,
        payload: E,
    },
}

/// A chunk header. The chunk's id is the arena index of this header; its
/// `capacity()` event slots follow, of which `[read, len)` may still hold
/// events. `next` links the bucket's chain, or the free list of the
/// chunk's class.
///
/// A bucket holding a single event is that event's slot alone, with no
/// header: the chunk id names the event slot itself and
/// [`ChunkPool::chunk`] makes up the header of a full one-slot chunk of
/// class [`LONE`]. One event per tick therefore costs one slot and no
/// more work than writing it; the second event of a tick moves the first
/// into a real chunk.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    next: u32,
    len: u8,
    read: u8,
    class: u8,
    /// In the tail chunk of a bucket: the smallest epsilon among the
    /// bucket's events. Kept here, in the slot every push writes anyway,
    /// so that a bucket stays 8 bytes and a wide ring stays in cache.
    min_epsilon: Epsilon,
}

impl Chunk {
    #[inline]
    fn capacity(&self) -> usize {
        MIN_CHUNK << self.class
    }

    /// Arena indices of the event slots of chunk `id` (whose header this
    /// is) not yet passed by the read cursor.
    #[inline]
    fn unread(&self, id: u32) -> std::ops::Range<usize> {
        if self.class == LONE {
            return id as usize..id as usize + 1;
        }
        let first = id as usize + 1;
        first + self.read as usize..first + self.len as usize
    }
}

/// A bucket: its chunk chain (`NIL`/`NIL` when empty). The slot under the
/// head chunk's read cursor holds an event.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// The slot arena shared by every bucket.
#[derive(Debug)]
struct ChunkPool<E> {
    slots: Vec<Slot<E>>,
    /// Head of the free-chunk chain per size class (`NIL` when exhausted).
    free: [u32; LONE as usize + 1],
}

impl<E> ChunkPool<E> {
    fn new() -> Self {
        ChunkPool {
            slots: Vec::new(),
            free: [NIL; LONE as usize + 1],
        }
    }

    /// The header of chunk `id`.
    #[inline]
    fn chunk(&self, id: u32) -> Chunk {
        match self.slots[id as usize] {
            Slot::Chunk(chunk) => chunk,
            Slot::Event { epsilon, .. } => Chunk {
                next: NIL,
                len: 1,
                read: 0,
                class: LONE,
                min_epsilon: epsilon,
            },
            Slot::Vacant => unreachable!("chunk id names a vacant slot"),
        }
    }

    /// The header of chunk `id`, which is not a lone event.
    #[inline]
    fn chunk_mut(&mut self, id: u32) -> &mut Chunk {
        match &mut self.slots[id as usize] {
            Slot::Chunk(chunk) => chunk,
            _ => unreachable!("chunk id names an event slot"),
        }
    }

    /// The smallest epsilon among the events of `bucket` (non-empty).
    #[inline]
    fn min_epsilon(&self, bucket: &Bucket) -> Epsilon {
        self.chunk(bucket.tail).min_epsilon
    }

    /// Puts chunk `id`, which holds no event any more, on the free list of
    /// its class and returns the chunk that followed it.
    #[inline]
    fn release(&mut self, id: u32) -> u32 {
        let (class, next) = match self.slots[id as usize] {
            Slot::Chunk(chunk) => (chunk.class, chunk.next),
            Slot::Vacant => (LONE, NIL),
            Slot::Event { .. } => unreachable!("released chunk holds an event"),
        };
        self.slots[id as usize] = Slot::Chunk(Chunk {
            next: self.free[class as usize],
            len: 0,
            read: 0,
            class,
            min_epsilon: Epsilon::MAX,
        });
        self.free[class as usize] = id;
        next
    }

    /// Takes the most recently released chunk of `class`, if there is any,
    /// off its free list and returns its id as an arena index.
    #[inline]
    fn reuse(&mut self, class: u8) -> Option<usize> {
        let id = self.free[class as usize];
        if id == NIL {
            return None;
        }
        self.free[class as usize] = self.chunk(id).next;
        Some(id as usize)
    }

    /// Appends one event to the tail of `bucket`'s chain.
    #[inline]
    fn append(&mut self, bucket: &mut Bucket, epsilon: Epsilon, target: ComponentId, payload: E) {
        let event = Slot::Event {
            epsilon,
            target,
            payload,
        };
        if bucket.tail == NIL {
            let id = match self.reuse(LONE) {
                Some(id) => {
                    self.slots[id] = event;
                    id
                }
                None => {
                    self.slots.push(event);
                    self.slots.len() - 1
                }
            };
            assert!(id < NIL as usize, "event arena exhausted u32 index space");
            *bucket = Bucket {
                head: id as u32,
                tail: id as u32,
            };
            return;
        }
        if let Slot::Chunk(tail) = &mut self.slots[bucket.tail as usize] {
            if (tail.len as usize) < tail.capacity() {
                tail.min_epsilon = tail.min_epsilon.min(epsilon);
                tail.len += 1;
                let at = bucket.tail as usize + tail.len as usize;
                self.slots[at] = event;
                return;
            }
        }
        self.append_chunk(bucket, epsilon, event);
    }

    /// Appends `event` to `bucket`, whose tail is a full chunk or a lone
    /// event: behind a chunk goes a new one, one size up; a lone event
    /// moves into a first-size chunk and `event` joins it there.
    fn append_chunk(&mut self, bucket: &mut Bucket, epsilon: Epsilon, event: Slot<E>) {
        let tail = self.chunk(bucket.tail);
        let min_epsilon = tail.min_epsilon.min(epsilon);
        if tail.class == LONE {
            self.give_header(bucket);
            let tail = self.chunk_mut(bucket.tail);
            tail.min_epsilon = min_epsilon;
            tail.len = 2;
            self.slots[bucket.tail as usize + 2] = event;
        } else {
            self.link_chunk(bucket, (tail.class + 1).min(MAX_CLASS), min_epsilon, event);
        }
    }

    /// Links a chunk of `class` holding just `event` behind `bucket`'s
    /// chain, which is empty or ends in a chunk; the bucket's minimum
    /// moves on to it as `min_epsilon`. The chunk is the most recently
    /// released one of its class if there is any, and newly carved arena
    /// slots otherwise.
    fn link_chunk(&mut self, bucket: &mut Bucket, class: u8, min_epsilon: Epsilon, event: Slot<E>) {
        let header = Slot::Chunk(Chunk {
            next: NIL,
            len: 1,
            read: 0,
            class,
            min_epsilon,
        });
        let id = match self.reuse(class) {
            Some(id) => {
                self.slots[id] = header;
                self.slots[id + 1] = event;
                id
            }
            None => {
                let id = self.slots.len();
                let end = id + 1 + (MIN_CHUNK << class);
                assert!(end <= NIL as usize, "event arena exhausted u32 index space");
                self.slots.reserve(end - id);
                self.slots.push(header);
                self.slots.push(event);
                self.slots.resize_with(end, || Slot::Vacant);
                id
            }
        } as u32;
        if bucket.tail == NIL {
            bucket.head = id;
        } else {
            self.chunk_mut(bucket.tail).next = id;
        }
        bucket.tail = id;
    }

    /// Makes `bucket`'s tail a chunk with a header if it is a lone event.
    fn give_header(&mut self, bucket: &mut Bucket) {
        let tail = self.chunk(bucket.tail);
        if tail.class == LONE {
            let lone = std::mem::replace(&mut self.slots[bucket.tail as usize], Slot::Vacant);
            self.release(bucket.tail);
            *bucket = Bucket::EMPTY;
            self.link_chunk(bucket, 0, tail.min_epsilon, lone);
        }
    }

    /// Calls `f` on every event of `bucket`, in enqueue order.
    fn for_each_event(&self, bucket: &Bucket, mut f: impl FnMut(Epsilon, ComponentId, &E)) {
        let mut id = bucket.head;
        while id != NIL {
            let chunk = self.chunk(id);
            for slot in &self.slots[chunk.unread(id)] {
                if let Slot::Event {
                    epsilon,
                    target,
                    payload,
                } = slot
                {
                    f(*epsilon, *target, payload);
                }
            }
            id = chunk.next;
        }
    }

    /// Epsilon of the event in slot `at`, if it holds one.
    #[inline]
    fn epsilon_at(&self, at: usize) -> Option<Epsilon> {
        match &self.slots[at] {
            Slot::Event { epsilon, .. } => Some(*epsilon),
            _ => None,
        }
    }

    /// Moves the event out of slot `at`, leaving it vacant.
    #[inline]
    fn take_at(&mut self, at: usize) -> (ComponentId, E) {
        match std::mem::replace(&mut self.slots[at], Slot::Vacant) {
            Slot::Event {
                target, payload, ..
            } => (target, payload),
            _ => unreachable!("slot checked to hold an event"),
        }
    }

    /// First pass of a drain: reports every minimum-epsilon event of
    /// `bucket` (non-empty) to `found`, in enqueue order, as its arena
    /// index and payload, and leaves those events where they are. The
    /// events of later epsilons move, in order, to a fresh chain that
    /// becomes the bucket's. Returns the old chain; once the caller has
    /// taken the reported events out it holds nothing and must be
    /// [released](ChunkPool::release_chain).
    ///
    /// One front-to-back walk: every slot is read once, and only survivors
    /// are copied.
    fn split_min(&mut self, bucket: &mut Bucket, mut found: impl FnMut(usize, &E)) -> u32 {
        let min_epsilon = self.min_epsilon(bucket);
        let chain = std::mem::replace(bucket, Bucket::EMPTY).head;
        let mut id = chain;
        while id != NIL {
            let chunk = self.chunk(id);
            for at in chunk.unread(id) {
                match &self.slots[at] {
                    Slot::Event {
                        epsilon, payload, ..
                    } if *epsilon == min_epsilon => found(at, payload),
                    Slot::Event { .. } => {
                        if let Slot::Event {
                            epsilon,
                            target,
                            payload,
                        } = std::mem::replace(&mut self.slots[at], Slot::Vacant)
                        {
                            self.append(bucket, epsilon, target, payload);
                        }
                    }
                    _ => {}
                }
            }
            id = chunk.next;
        }
        chain
    }

    /// Releases the chain starting at `id`.
    fn release_chain(&mut self, mut id: u32) {
        while id != NIL {
            id = self.release(id);
        }
    }

    /// Removes the first minimum-epsilon event of `bucket` (non-empty) and
    /// returns it with its epsilon.
    ///
    /// `O(1)` while the event under the head read cursor carries the
    /// minimum, as it always does in a bucket of one epsilon. Otherwise the
    /// events of later epsilons before it are stepped over, it leaves a
    /// vacant slot in the middle of the chain, and the bucket is walked
    /// once more to see whether the minimum moved.
    fn pop_min(&mut self, bucket: &mut Bucket) -> (Epsilon, ComponentId, E) {
        let head = self.chunk(bucket.head);
        if head.next == NIL && head.read + 1 == head.len {
            // The bucket's only event, a lone slot or the last one left in
            // a chunk: nothing to step over and no minimum to keep.
            let (target, payload) = self.take_at(head.unread(bucket.head).start);
            self.release(bucket.head);
            *bucket = Bucket::EMPTY;
            return (head.min_epsilon, target, payload);
        }
        let epsilon = self.min_epsilon(bucket);
        let mut id = bucket.head;
        let (at, at_front) = 'find: loop {
            assert!(id != NIL, "bucket minimum out of sync");
            let chunk = self.chunk(id);
            let unread = chunk.unread(id);
            for at in unread.clone() {
                if self.epsilon_at(at) == Some(epsilon) {
                    break 'find (at, id == bucket.head && at == unread.start);
                }
            }
            id = chunk.next;
        };
        let (target, payload) = self.take_at(at);
        if at_front {
            self.skip_vacant(bucket);
        }
        if bucket.head != NIL {
            let front = self.chunk(bucket.head).unread(bucket.head).start;
            if self.epsilon_at(front) != Some(epsilon) {
                let mut rest_epsilon = Epsilon::MAX;
                self.for_each_event(bucket, |other, _, _| rest_epsilon = rest_epsilon.min(other));
                self.chunk_mut(bucket.tail).min_epsilon = rest_epsilon;
            }
        }
        (epsilon, target, payload)
    }

    /// Moves the head read cursor of `bucket` to its first event,
    /// releasing the chunks it leaves; empties the bucket if none is left.
    fn skip_vacant(&mut self, bucket: &mut Bucket) {
        while bucket.head != NIL {
            let mut chunk = self.chunk(bucket.head);
            while chunk.read < chunk.len
                && self.epsilon_at(chunk.unread(bucket.head).start).is_none()
            {
                chunk.read += 1;
            }
            if chunk.read < chunk.len {
                self.chunk_mut(bucket.head).read = chunk.read;
                return;
            }
            bucket.head = self.release(bucket.head);
        }
        *bucket = Bucket::EMPTY;
    }
}

/// One drained `(tick, epsilon)` generation, ordered for dispatch.
///
/// Filled by [`EventQueue::take_generation_until`]; iterating yields the
/// events in ascending `(source id, enqueue position)`. An engine runs a
/// generation, once taken, to its end.
#[derive(Debug)]
pub struct Generation<E> {
    /// The events not yet dispatched, the next one last: dispatching is a
    /// `pop`.
    entries: Vec<EventEntry<E>>,
    /// `source << 32 | enqueue position`, one per drained event.
    keys: Vec<u64>,
    /// The other buffer of the key sort.
    scratch: Vec<u64>,
    /// Arena index of the drained event at each enqueue position.
    found: Vec<u32>,
}

/// Generations below this size are ordered by a comparison sort: a radix
/// pass costs a 256-entry histogram whatever the size.
const RADIX_MIN: usize = 64;

/// Sorts `keys`, whose low halves already ascend, by their high halves:
/// a stable byte-wise radix sort over the bytes in which any two keys
/// differ (two passes for a network of up to 65 536 components), using
/// `scratch` as the second buffer.
fn sort_keys(keys: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    if keys.len() < RADIX_MIN {
        keys.sort_unstable();
        return;
    }
    let (all, any) = keys
        .iter()
        .fold((u64::MAX, 0), |(all, any), &key| (all & key, any | key));
    let varying = (all ^ any) >> 32;
    scratch.resize(keys.len(), 0);
    for shift in [32, 40, 48, 56] {
        if (varying >> (shift - 32)) & 0xFF == 0 {
            continue;
        }
        let digit = |key: u64| (key >> shift) as u8 as usize;
        let mut starts = [0usize; 256];
        for &key in keys.iter() {
            starts[digit(key)] += 1;
        }
        let mut total = 0;
        for start in &mut starts {
            total += std::mem::replace(start, total);
        }
        for &key in keys.iter() {
            scratch[starts[digit(key)]] = key;
            starts[digit(key)] += 1;
        }
        std::mem::swap(keys, scratch);
    }
}

impl<E> Generation<E> {
    /// An empty generation buffer; reuse one across drains.
    pub fn new() -> Self {
        Generation {
            entries: Vec::new(),
            keys: Vec::new(),
            scratch: Vec::new(),
            found: Vec::new(),
        }
    }

    /// Number of events the last drain produced, dispatched or not.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the last drain produced no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The payloads not yet dispatched, in dispatch order.
    pub fn pending(&self) -> impl Iterator<Item = &E> {
        self.entries.iter().rev().map(|entry| &entry.payload)
    }
}

impl<E> Default for Generation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Iterator for Generation<E> {
    type Item = EventEntry<E>;

    #[inline]
    fn next(&mut self) -> Option<EventEntry<E>> {
        self.entries.pop()
    }
}

/// The simulator's global event queue: per-tick ring buckets over a
/// near-future horizon, backed by an overflow heap for far-future events.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Backing store for all ring events.
    pool: ChunkPool<E>,
    /// `buckets[t & mask]` holds the events for tick `t`, for `t` in
    /// `[cur_tick, cur_tick + horizon)`, in enqueue order.
    buckets: Box<[Bucket]>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupancy: Box<[u64]>,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: usize,
    /// The earliest tick the ring can currently hold (the cursor).
    cur_tick: u64,
    /// Events currently stored in ring buckets.
    ring_len: usize,
    /// Far-future events, ordered by `(time, seq)`.
    overflow: BinaryHeap<OverflowEntry<E>>,
    /// FIFO tie-break for overflow events only.
    overflow_seq: u64,
    /// Lifetime count of pushes (explicit — not derived from any seq).
    total_enqueued: u64,
    /// Largest `len()` ever observed.
    max_len: usize,
    /// Lifetime count of pushes that landed in the overflow heap.
    overflow_spills: u64,
    /// Lifetime count of horizon doublings performed by `maybe_grow`.
    horizon_resizes: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default near-future horizon.
    pub fn new() -> Self {
        Self::with_horizon(DEFAULT_HORIZON)
    }

    /// Creates an empty queue whose ring covers `horizon` ticks.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` is a power of two of at least 64.
    pub fn with_horizon(horizon: usize) -> Self {
        assert!(
            horizon >= 64 && horizon.is_power_of_two(),
            "horizon must be a power of two >= 64, got {horizon}"
        );
        EventQueue {
            pool: ChunkPool::new(),
            buckets: vec![Bucket::EMPTY; horizon].into_boxed_slice(),
            occupancy: vec![0u64; horizon / 64].into_boxed_slice(),
            mask: horizon - 1,
            cur_tick: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
            total_enqueued: 0,
            max_len: 0,
            overflow_spills: 0,
            horizon_resizes: 0,
        }
    }

    /// The number of ticks the ring covers.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn set_occupied(&mut self, idx: usize) {
        self.occupancy[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn clear_occupied(&mut self, idx: usize) {
        self.occupancy[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// Appends an event whose tick lies within the horizon to its bucket.
    #[inline]
    fn link_back(&mut self, time: Time, target: ComponentId, payload: E) {
        let idx = time.tick() as usize & self.mask;
        if self.buckets[idx].head == NIL {
            self.set_occupied(idx);
        }
        self.pool
            .append(&mut self.buckets[idx], time.epsilon(), target, payload);
        self.ring_len += 1;
    }

    /// Enqueues an event for `target` at `time`.
    ///
    /// Callers must not schedule before the time of the last popped event
    /// (the simulator enforces this with its not-into-the-past assertion).
    #[inline]
    pub fn push(&mut self, target: ComponentId, time: Time, payload: E) {
        debug_assert!(
            time.tick() >= self.cur_tick,
            "push at tick {} behind queue cursor {}",
            time.tick(),
            self.cur_tick
        );
        self.total_enqueued += 1;
        if time.tick().wrapping_sub(self.cur_tick) <= self.mask as u64 {
            self.link_back(time, target, payload);
        } else {
            let seq = self.overflow_seq;
            self.overflow_seq += 1;
            self.overflow_spills += 1;
            self.overflow.push(OverflowEntry {
                time,
                seq,
                target,
                payload,
            });
            self.maybe_grow();
        }
        let len = self.len();
        if len > self.max_len {
            self.max_len = len;
        }
    }

    /// Adaptive resize: when the overflow heap holds more than a quarter
    /// as many events as the ring has buckets — i.e. the workload's
    /// scheduling span outgrew the horizon — double the horizon (moving
    /// each bucket to its new index and pulling in the overflow events
    /// that now fit), as a classic calendar queue adapts its bucket count.
    /// Growth is amortized `O(1)` per push and only triggered when the
    /// nearest overflow event would actually fit the doubled horizon, so a
    /// few far-future stragglers (timeouts, monitors) never inflate the
    /// ring.
    fn maybe_grow(&mut self) {
        while self.overflow.len() > self.buckets.len() / 4
            && self.buckets.len() < MAX_HORIZON
            && self
                .overflow
                .peek()
                .is_some_and(|head| head.time.tick() - self.cur_tick <= 2 * self.mask as u64 + 1)
        {
            self.horizon_resizes += 1;
            let old_mask = self.mask;
            let new_horizon = self.buckets.len() * 2;
            let old_buckets = std::mem::replace(
                &mut self.buckets,
                vec![Bucket::EMPTY; new_horizon].into_boxed_slice(),
            );
            self.occupancy = vec![0u64; new_horizon / 64].into_boxed_slice();
            self.mask = new_horizon - 1;
            // A bucket holds exactly one tick's events and no slot names
            // its tick, so each chain moves whole to the bucket of the one
            // tick in `[cur_tick, cur_tick + old horizon)` it stood for.
            for off in 0..old_buckets.len() {
                let tick = self.cur_tick.wrapping_add(off as u64);
                let bucket = old_buckets[tick as usize & old_mask];
                if bucket.head != NIL {
                    let idx = tick as usize & self.mask;
                    self.buckets[idx] = bucket;
                    self.set_occupied(idx);
                }
            }
            // Pull in overflow events that the wider horizon now covers.
            self.advance_to(self.cur_tick);
        }
    }

    /// Advances the cursor to `tick`, moving overflow events that have
    /// entered the horizon into their ring buckets.
    fn advance_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.cur_tick);
        self.cur_tick = tick;
        let horizon = self.mask as u64;
        while let Some(head) = self.overflow.peek() {
            if head.time.tick() - self.cur_tick > horizon {
                break;
            }
            let OverflowEntry {
                time,
                target,
                payload,
                ..
            } = self.overflow.pop().expect("peeked overflow entry vanished");
            self.link_back(time, target, payload);
        }
    }

    /// Moves the cursor forward to the tick of the earliest pending event
    /// and returns its bucket index, or `None` if the queue is empty.
    fn seek(&mut self) -> Option<usize> {
        let tick = self.next_tick()?;
        // An empty ring means the event is still parked in the overflow.
        if tick != self.cur_tick || self.ring_len == 0 {
            self.advance_to(tick);
        }
        Some(tick as usize & self.mask)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    ///
    /// Equal-`(tick, epsilon)` events pop in enqueue order (FIFO).
    #[inline]
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let idx = self.seek()?;
        let (epsilon, target, payload) = self.pool.pop_min(&mut self.buckets[idx]);
        if self.buckets[idx].head == NIL {
            self.clear_occupied(idx);
        }
        self.ring_len -= 1;
        Some(EventEntry {
            time: Time::new(self.cur_tick, epsilon),
            target,
            payload,
        })
    }

    /// Tick of the earliest pending event without moving the cursor.
    ///
    /// One occupancy-bitmap scan when the ring is non-empty, one heap peek
    /// otherwise.
    fn next_tick(&self) -> Option<Tick> {
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.time.tick());
        }
        let horizon = self.horizon();
        let mut tick = self.cur_tick;
        let mut scanned = 0usize;
        loop {
            let idx = tick as usize & self.mask;
            // Examine the remainder of this bitmap word in one load.
            let bit = idx & 63;
            let word = self.occupancy[idx >> 6] >> bit;
            if word != 0 {
                return Some(tick + word.trailing_zeros() as u64);
            }
            let step = 64 - bit;
            tick += step as u64;
            scanned += step;
            debug_assert!(scanned <= horizon + 64, "occupancy bitmap out of sync");
        }
    }

    /// Finds the earliest generation, if its tick is at most `tick_limit`,
    /// moves the cursor to it and returns its bucket index and time.
    fn seek_until(&mut self, tick_limit: Tick) -> Option<(usize, Time)> {
        let tick = self.next_tick()?;
        if tick > tick_limit {
            return None;
        }
        self.advance_to(tick);
        let idx = tick as usize & self.mask;
        Some((
            idx,
            Time::new(tick, self.pool.min_epsilon(&self.buckets[idx])),
        ))
    }

    /// Second pass of a drain of bucket `idx`: moves the events `found`
    /// names out of `chain` into `out`, in that order, and releases the
    /// chain.
    fn extract(
        &mut self,
        idx: usize,
        chain: u32,
        time: Time,
        found: impl ExactSizeIterator<Item = usize>,
        out: &mut Vec<EventEntry<E>>,
    ) {
        debug_assert!(found.len() > 0, "scanned tick had no events");
        if self.buckets[idx].head == NIL {
            self.clear_occupied(idx);
        }
        self.ring_len -= found.len();
        out.extend(found.map(|at| {
            let (target, payload) = self.pool.take_at(at);
            EventEntry {
                time,
                target,
                payload,
            }
        }));
        self.pool.release_chain(chain);
    }

    /// Drains the earliest same-`(tick, epsilon)` batch into `out`
    /// (cleared first) — but only if its tick is at most `tick_limit` —
    /// and returns the batch time.
    ///
    /// Returns `None` (leaving the queue untouched, cursor included) when
    /// the queue is empty or the next event lies beyond `tick_limit`;
    /// disambiguate with [`EventQueue::is_empty`]. Not advancing the
    /// cursor on the limit path matters: after a paused run, the engine
    /// may legally schedule events earlier than the event the scan found.
    ///
    /// Everything in one batch is ready simultaneously, so a caller can
    /// process the whole slice without consulting the queue again. Events
    /// scheduled *during* that at the same `(tick, epsilon)` land behind
    /// the batch and form the next one, preserving global FIFO order.
    pub fn take_batch_until(
        &mut self,
        tick_limit: Tick,
        out: &mut Vec<EventEntry<E>>,
    ) -> Option<Time> {
        out.clear();
        let (idx, time) = self.seek_until(tick_limit)?;
        let mut found = Vec::new();
        let chain = self
            .pool
            .split_min(&mut self.buckets[idx], |at, _| found.push(at));
        self.extract(idx, chain, time, found.into_iter(), out);
        Some(time)
    }

    /// Drains **all** events at the earliest `(tick, epsilon)` into `out`
    /// (cleared first), in FIFO order, and returns how many there were.
    pub fn take_batch(&mut self, out: &mut Vec<EventEntry<E>>) -> usize {
        self.take_batch_until(Tick::MAX, out);
        out.len()
    }

    /// Drains the batch [`EventQueue::take_batch_until`] would into
    /// `generation` (replacing its contents) and orders it for dispatch:
    /// ascending `source_of(payload)`, and enqueue order among events of
    /// one source. Returns the generation time, or `None` exactly when
    /// `take_batch_until` would.
    ///
    /// This is the executor's hot-path interface. One bitmap scan serves
    /// peek, limit check and extraction. A first pass over the bucket
    /// reads each event's source into an 8-byte key `source << 32 |
    /// enqueue position` and moves nothing but the later epsilons' events;
    /// only the keys are sorted; a second pass then moves each event once,
    /// from its slot straight to its place in dispatch order.
    pub fn take_generation_until(
        &mut self,
        tick_limit: Tick,
        generation: &mut Generation<E>,
        source_of: impl Fn(&E) -> u32,
    ) -> Option<Time> {
        let Generation {
            entries,
            keys,
            scratch,
            found,
        } = generation;
        entries.clear();
        keys.clear();
        found.clear();
        let (idx, time) = self.seek_until(tick_limit)?;
        let chain = self.pool.split_min(&mut self.buckets[idx], |at, payload| {
            keys.push((source_of(payload) as u64) << 32 | found.len() as u64);
            found.push(at as u32);
        });
        assert!(
            found.len() as u64 <= 1 << 32,
            "generation exceeds the 32-bit position space"
        );
        sort_keys(keys, scratch);
        let order = keys
            .iter()
            .rev()
            .map(|&key| found[key as u32 as usize] as usize);
        self.extract(idx, chain, time, order, entries);
        Some(time)
    }

    /// The time of the earliest pending event, if any.
    ///
    /// Does not advance the cursor past empty buckets; cost is bounded by
    /// one occupancy-bitmap scan.
    pub fn peek_time(&self) -> Option<Time> {
        if self.ring_len == 0 {
            return self.overflow.peek().map(|e| e.time);
        }
        let tick = self.next_tick().expect("ring non-empty");
        let bucket = &self.buckets[tick as usize & self.mask];
        Some(Time::new(tick, self.pool.min_epsilon(bucket)))
    }

    /// Number of pending events (ring + overflow).
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pending events currently parked beyond the ring horizon.
    #[inline]
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Largest number of events ever pending at once, across both levels.
    #[inline]
    pub fn high_water_mark(&self) -> usize {
        self.max_len
    }

    /// Total number of events ever enqueued.
    #[inline]
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }

    /// Lifetime count of pushes that missed the ring and parked in the
    /// overflow heap.
    #[inline]
    pub fn overflow_spills(&self) -> u64 {
        self.overflow_spills
    }

    /// Lifetime count of adaptive horizon doublings.
    #[inline]
    pub fn horizon_resizes(&self) -> u64 {
        self.horizon_resizes
    }

    /// Serializes the queue — pending events *and* lifetime counters —
    /// into `out`, encoding each payload with `enc`.
    ///
    /// Enumeration is non-destructive and deterministic: ring buckets in
    /// cursor order (each bucket front to back, i.e. enqueue order), then
    /// overflow events sorted by `(time, seq)`. [`EventQueue::load`]
    /// re-pushes events in exactly this order against the saved horizon
    /// and cursor, which reproduces bucket placement and per-bucket FIFO
    /// order, so the restored queue pops the identical event sequence.
    pub fn save<F>(&self, out: &mut Vec<u8>, mut enc: F)
    where
        F: FnMut(&E, &mut Vec<u8>),
    {
        (self.horizon(), self.cur_tick, self.ring_len).encode(out);
        for off in 0..self.horizon() as u64 {
            let tick = self.cur_tick.wrapping_add(off);
            let bucket = &self.buckets[tick as usize & self.mask];
            self.pool
                .for_each_event(bucket, |epsilon, target, payload| {
                    (Time::new(tick, epsilon), target).encode(out);
                    enc(payload, out);
                });
        }
        let mut parked: Vec<&OverflowEntry<E>> = self.overflow.iter().collect();
        parked.sort_by_key(|e| (e.time, e.seq));
        parked.len().encode(out);
        for e in parked {
            (e.time, e.target).encode(out);
            enc(&e.payload, out);
        }
        (self.overflow_seq, self.total_enqueued, self.max_len).encode(out);
        (self.overflow_spills, self.horizon_resizes).encode(out);
    }

    /// Rebuilds a queue from a [`EventQueue::save`] encoding, decoding
    /// each payload with `dec`. Total: malformed input yields `None`.
    pub fn load<F>(buf: &mut &[u8], mut dec: F) -> Option<Self>
    where
        F: FnMut(&mut &[u8]) -> Option<E>,
    {
        let (horizon, cur_tick) = <(usize, Tick)>::decode(buf)?;
        if horizon < 64 || !horizon.is_power_of_two() || horizon > MAX_HORIZON {
            return None;
        }
        let mut q = Self::with_horizon(horizon);
        q.cur_tick = cur_tick;
        let ring = get_len(buf)?;
        let read_event = |buf: &mut &[u8], dec: &mut F| {
            let (time, target) = <(Time, ComponentId)>::decode(buf)?;
            let payload = dec(buf)?;
            if time.tick() < cur_tick {
                return None; // behind the saved cursor: corrupt
            }
            Some((time, target, payload))
        };
        for _ in 0..ring {
            let (time, target, payload) = read_event(buf, &mut dec)?;
            // A saved ring event must still land in the ring.
            if time.tick() - cur_tick > q.mask as u64 {
                return None;
            }
            q.push(target, time, payload);
        }
        for _ in 0..get_len(buf)? {
            let (time, target, payload) = read_event(buf, &mut dec)?;
            let seq = q.overflow_seq;
            q.overflow_seq += 1;
            q.overflow.push(OverflowEntry {
                time,
                seq,
                target,
                payload,
            });
        }
        // Counters are lifetime totals, not derivable from the pending
        // set; overwrite whatever the re-pushes accumulated.
        q.overflow_seq = u64::decode(buf)?.max(q.overflow_seq);
        (q.total_enqueued, q.max_len) = WireCodec::decode(buf)?;
        (q.overflow_spills, q.horizon_resizes) = WireCodec::decode(buf)?;
        Some(q)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> ComponentId {
        ComponentId::from_index(i)
    }

    /// The network's event is at most 40 bytes, 8-aligned (pinned in
    /// `supersim-netbase`); stamped, it must fill one 64-byte queue slot
    /// and an 80-byte generation entry, not spill into a second line.
    #[test]
    fn a_network_event_fills_one_cache_line_slot() {
        use crate::engine::Stamped;
        use std::mem::size_of;
        type NetworkEvent = [u64; 5];
        assert!(size_of::<Slot<Stamped<NetworkEvent>>>() <= 64);
        assert!(size_of::<EventEntry<Stamped<NetworkEvent>>>() <= 80);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::at(5), "c");
        q.push(id(0), Time::at(1), "a");
        q.push(id(0), Time::new(1, 1), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(id(0), Time::at(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expect: Vec<i32> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn bookkeeping() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(id(0), Time::at(0), ());
        q.push(id(0), Time::at(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water_mark(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.high_water_mark(), 2);
        assert_eq!(q.total_enqueued(), 2);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::at(9), ());
        q.push(id(0), Time::at(3), ());
        assert_eq!(q.peek_time(), Some(Time::at(3)));
    }

    #[test]
    fn peek_time_includes_epsilon() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::new(4, 2), ());
        q.push(id(0), Time::new(4, 1), ());
        assert_eq!(q.peek_time(), Some(Time::new(4, 1)));
    }

    #[test]
    fn far_future_events_go_to_overflow_and_come_back() {
        let mut q = EventQueue::with_horizon(64);
        q.push(id(0), Time::at(1_000_000), "far");
        q.push(id(0), Time::at(2), "near");
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().payload, "near");
        assert_eq!(q.pop().unwrap().payload, "far");
        assert_eq!(q.overflow_len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_preserves_fifo_for_equal_times() {
        let mut q = EventQueue::with_horizon(64);
        for i in 0..10 {
            q.push(id(0), Time::at(500), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expect: Vec<i32> = (0..10).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn fifo_across_overflow_drain_and_direct_push() {
        let mut q = EventQueue::with_horizon(64);
        // "early" is pushed while tick 100 is beyond the horizon...
        q.push(id(0), Time::at(100), "early");
        // ...advance the cursor by draining a near event at tick 90...
        q.push(id(0), Time::at(90), "bridge");
        assert_eq!(q.pop().unwrap().payload, "bridge");
        // ...now tick 100 is within the horizon; push lands behind "early".
        q.push(id(0), Time::at(100), "late");
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.pop().unwrap().payload, "late");
    }

    #[test]
    fn ring_wraps_around_many_horizons() {
        let mut q = EventQueue::with_horizon(64);
        let mut popped = Vec::new();
        let mut t = 0u64;
        for round in 0..10 {
            // Pushes spread over several wraps of the 64-tick ring.
            q.push(id(0), Time::at(t + 3), (round, 0));
            q.push(id(0), Time::at(t + 61), (round, 1));
            q.push(id(0), Time::at(t + 130), (round, 2));
            while let Some(e) = q.pop() {
                popped.push((e.time, e.payload));
                t = e.time.tick();
            }
        }
        let mut sorted = popped.clone();
        sorted.sort_by_key(|&(time, _)| time);
        assert_eq!(popped, sorted, "pop order must be time order");
        assert_eq!(popped.len(), 30);
    }

    #[test]
    fn take_batch_returns_whole_equal_time_slice() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::at(5), 0);
        q.push(id(1), Time::at(5), 1);
        q.push(id(2), Time::new(5, 1), 2);
        q.push(id(3), Time::at(6), 3);
        let mut batch = Vec::new();
        assert_eq!(q.take_batch(&mut batch), 2);
        assert_eq!(
            batch.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, 2);
        assert_eq!(batch[0].time, Time::new(5, 1));
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, 3);
        assert_eq!(q.take_batch(&mut batch), 0);
        assert!(batch.is_empty());
    }

    #[test]
    fn len_spans_both_levels() {
        let mut q = EventQueue::with_horizon(64);
        q.push(id(0), Time::at(1), ());
        q.push(id(0), Time::at(10_000), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.high_water_mark(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn sparse_times_cross_bitmap_words() {
        let mut q = EventQueue::with_horizon(256);
        // One event per bitmap word, none in the first.
        for &t in &[70u64, 140, 200, 255] {
            q.push(id(0), Time::at(t), t);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![70, 140, 200, 255]);
    }

    #[test]
    fn chunks_are_reused() {
        // Steady-state traffic must not grow the arena without bound.
        let mut q = EventQueue::with_horizon(64);
        q.push(id(0), Time::at(0), 0u64);
        for t in 0..10_000u64 {
            let e = q.pop().expect("event");
            q.push(id(0), Time::at(t + 1), e.payload + 1);
        }
        assert!(
            q.pool.slots.len() <= 2,
            "arena grew to {} slots for 1 pending event",
            q.pool.slots.len()
        );
    }

    #[test]
    fn thin_buckets_take_small_chunks_and_fat_ones_long_runs() {
        // One event per tick costs one slot each...
        let mut q = EventQueue::with_horizon(1024);
        for t in 0..1000u64 {
            q.push(id(0), Time::at(t), t);
        }
        assert_eq!(q.pool.slots.len(), 1000);
        // ...a second event moves the first into a first-size chunk, and
        // its slot is the next lone event's.
        q.push(id(0), Time::at(7), 0);
        q.push(id(0), Time::at(1000), 0);
        assert_eq!(q.pool.slots.len(), 1000 + 1 + MIN_CHUNK);
        // ...while one fat bucket doubles its way up to the largest size.
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(id(0), Time::at(3), i);
        }
        let sizes: Vec<usize> = q
            .pool
            .slots
            .iter()
            .filter_map(|slot| match slot {
                Slot::Chunk(chunk) if chunk.class != LONE => Some(chunk.capacity()),
                _ => None,
            })
            .collect();
        assert_eq!(&sizes[..7], &[2, 4, 8, 16, 32, 64, 64]);
        assert!(q.pool.slots.len() < 10_000 + 1 + sizes.len() + 2 * MAX_CHUNK);
        // Draining returns every chunk; refilling carves nothing new.
        let mut batch = Vec::new();
        assert_eq!(q.take_batch(&mut batch), 10_000);
        let carved = q.pool.slots.len();
        for i in 0..10_000u64 {
            q.push(id(0), Time::at(9), i);
        }
        assert_eq!(q.pool.slots.len(), carved);
    }

    #[test]
    fn drain_compacts_survivors_across_chunks() {
        // Interleave three epsilons over many chunks; each drain must keep
        // the later epsilons' enqueue order and release what it empties.
        let mut q = EventQueue::new();
        let mut want: [Vec<u32>; 3] = Default::default();
        for i in 0..1000u32 {
            let eps = (i * 7 % 3) as u8;
            q.push(id(0), Time::new(2, eps), i);
            want[eps as usize].push(i);
        }
        let mut batch = Vec::new();
        let mut left = 1000;
        for (eps, want) in want.iter().enumerate() {
            assert_eq!(q.peek_time(), Some(Time::new(2, eps as u8)));
            assert_eq!(q.take_batch(&mut batch), want.len());
            let got: Vec<u32> = batch.iter().map(|e| e.payload).collect();
            assert_eq!(&got, want);
            left -= want.len();
            assert_eq!(q.len(), left);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pop_takes_the_minimum_epsilon_from_the_middle() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::new(1, 2), "c1");
        q.push(id(0), Time::new(1, 0), "a1");
        q.push(id(0), Time::new(1, 1), "b1");
        q.push(id(0), Time::new(1, 0), "a2");
        q.push(id(0), Time::new(1, 2), "c2");
        assert_eq!(q.pop().unwrap().payload, "a1");
        assert_eq!(q.peek_time(), Some(Time::new(1, 0)));
        assert_eq!(q.pop().unwrap().payload, "a2");
        // The minimum moved on: recounted from the survivors.
        assert_eq!(q.peek_time(), Some(Time::new(1, 1)));
        // A push below the current minimum takes over.
        q.push(id(0), Time::new(1, 0), "a3");
        assert_eq!(q.pop().unwrap().payload, "a3");
        let mut batch = Vec::new();
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, "b1");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["c1", "c2"]);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn growth_moves_whole_buckets() {
        let mut q = EventQueue::with_horizon(64);
        // Ring events at wrapped bucket indices, then enough overflow
        // traffic just past the horizon to force a doubling.
        q.push(id(0), Time::at(50), 0u32);
        assert_eq!(q.pop().unwrap().payload, 0);
        for i in 0..5u32 {
            q.push(id(0), Time::new(50 + 60, (i % 2) as u8), 100 + i);
            q.push(id(0), Time::at(51), 200 + i);
        }
        for i in 0..20u32 {
            q.push(id(0), Time::at(50 + 64 + u64::from(i)), 300 + i);
        }
        assert!(q.horizon_resizes() >= 1);
        assert_eq!(q.overflow_len(), 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let mut want: Vec<u32> = (200..205).collect();
        want.extend([100, 102, 104, 101, 103]);
        want.extend(300..320);
        assert_eq!(order, want);
    }

    #[test]
    fn a_lone_event_gets_a_chunk_when_another_joins_it() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::new(5, 1), "b");
        assert_eq!(q.pool.slots.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::new(5, 1)));
        q.push(id(0), Time::new(5, 0), "a");
        assert_eq!(q.peek_time(), Some(Time::at(5)));
        // Draining "a" leaves "b" on its own again.
        let mut batch = Vec::new();
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(q.peek_time(), Some(Time::new(5, 1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["b"]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn key_sort_is_a_stable_sort_by_source() {
        // Sizes on both sides of the radix threshold; sources that differ
        // in one, two and (with the external source) all four bytes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for (n, sources) in [(5, 3), (63, 200), (64, 200), (1000, 70_000), (3000, 40)] {
            let mut keys: Vec<u64> = (0..n as u64)
                .map(|position| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let source = match x % (sources + 1) {
                        s if s == sources && n == 1000 => u64::from(u32::MAX),
                        s => s,
                    };
                    source << 32 | position
                })
                .collect();
            let mut want = keys.clone();
            want.sort_unstable();
            sort_keys(&mut keys, &mut Vec::new());
            assert_eq!(keys, want, "n = {n}");
        }
    }

    #[test]
    fn generation_orders_by_source_then_enqueue_position() {
        let mut q = EventQueue::new();
        // (source, serial): one source's events are enqueued in order.
        let pushed = [(7u32, 0u32), (2, 0), (7, 1), (u32::MAX, 0), (2, 1), (0, 0)];
        for &p in &pushed {
            q.push(id(p.0 as usize % 3), Time::at(4), p);
        }
        q.push(id(0), Time::new(4, 1), (1, 0));
        let mut generation = Generation::new();
        let t = q.take_generation_until(Tick::MAX, &mut generation, |p| p.0);
        assert_eq!(t, Some(Time::at(4)));
        assert_eq!(generation.len(), 6);
        let mut want = pushed.to_vec();
        want.sort();
        assert_eq!(generation.pending().copied().collect::<Vec<_>>(), want);
        let dispatched: Vec<_> = generation.by_ref().map(|e| e.payload).collect();
        assert_eq!(dispatched, want);
        assert_eq!(q.len(), 1);
        // Beyond the limit nothing moves, cursor included.
        assert_eq!(q.take_generation_until(3, &mut generation, |p| p.0), None);
        assert!(generation.is_empty());
        assert_eq!(q.peek_time(), Some(Time::new(4, 1)));
    }

    #[test]
    fn mixed_epsilon_bucket_survives_partial_drain() {
        let mut q = EventQueue::new();
        q.push(id(0), Time::new(3, 1), "b1");
        q.push(id(0), Time::new(3, 0), "a1");
        q.push(id(0), Time::new(3, 2), "c1");
        q.push(id(0), Time::new(3, 1), "b2");
        let mut batch = Vec::new();
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, "a1");
        assert_eq!(q.take_batch(&mut batch), 2);
        assert_eq!(
            batch.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec!["b1", "b2"]
        );
        assert_eq!(q.take_batch(&mut batch), 1);
        assert_eq!(batch[0].payload, "c1");
        assert!(q.is_empty());
    }
}
