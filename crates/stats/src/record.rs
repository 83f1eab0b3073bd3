//! The sample log: one record per sampled packet, message, or transaction.
//!
//! During the sampling window SuperSim logs network transaction information
//! to a verbose format that the SSParse tool consumes. [`SampleLog`] is the
//! in-memory form, the records' wire encoding; [`SampleLog::to_text`] /
//! [`SampleLog::parse`] define the log's one on-disk format, the SSParse
//! text the tools crate reads.

use std::fmt;

use supersim_config::push_uint;
use supersim_des::wire::EncodedLog;

/// What a [`SampleRecord`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// Head-flit injection to tail-flit ejection of one packet.
    Packet,
    /// Creation of a message to ejection of the last flit of its last
    /// packet.
    Message,
    /// A request/response pair measured by an application.
    Transaction,
}

impl RecordKind {
    /// Short lowercase name used in the log text format and filters.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Packet => "packet",
            RecordKind::Message => "message",
            RecordKind::Transaction => "transaction",
        }
    }

    /// Parses a [`RecordKind::name`] string.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "packet" => Some(RecordKind::Packet),
            "message" => Some(RecordKind::Message),
            "transaction" => Some(RecordKind::Transaction),
            _ => None,
        }
    }
}

/// One sampled network transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRecord {
    /// What was measured.
    pub kind: RecordKind,
    /// Application that generated the traffic.
    pub app: u8,
    /// Source terminal index.
    pub src: u32,
    /// Destination terminal index.
    pub dst: u32,
    /// Tick the measurement started (e.g. head-flit injection).
    pub send: u64,
    /// Tick the measurement ended (e.g. tail-flit ejection).
    pub recv: u64,
    /// Router hops traversed (0 for kinds where it is not meaningful).
    pub hops: u16,
    /// Size in flits.
    pub size: u32,
}

impl SampleRecord {
    /// End-to-end latency in ticks.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `recv < send`, which indicates a modeling
    /// bug upstream.
    #[inline]
    pub fn latency(&self) -> u64 {
        debug_assert!(self.recv >= self.send, "record ends before it starts");
        self.recv - self.send
    }

    fn parse_line(line: &str) -> Option<SampleRecord> {
        let mut it = line.split_ascii_whitespace();
        let kind = RecordKind::from_name(it.next()?)?;
        let rec = SampleRecord {
            kind,
            app: it.next()?.parse().ok()?,
            src: it.next()?.parse().ok()?,
            dst: it.next()?.parse().ok()?,
            send: it.next()?.parse().ok()?,
            recv: it.next()?.parse().ok()?,
            hops: it.next()?.parse().ok()?,
            size: it.next()?.parse().ok()?,
        };
        if it.next().is_some() {
            return None;
        }
        Some(rec)
    }
}

/// An append-only collection of [`SampleRecord`]s, kept in their wire
/// encoding ([`EncodedLog`], a few bytes per varint field) as a list of
/// segments: each interface's log becomes one segment at the end of a
/// run, moved rather than decoded, and records decode only as they are
/// iterated. Segment boundaries are not observable: two logs holding the
/// same records in the same order are equal however they were built.
///
/// # Example
///
/// ```
/// use supersim_stats::{RecordKind, SampleLog, SampleRecord};
///
/// let mut log = SampleLog::new();
/// log.push(SampleRecord {
///     kind: RecordKind::Packet, app: 0, src: 1, dst: 2,
///     send: 100, recv: 150, hops: 3, size: 4,
/// });
/// let text = log.to_text();
/// let back = SampleLog::parse(&text).unwrap();
/// assert_eq!(back.records(), log.records());
/// ```
#[derive(Clone, Default)]
pub struct SampleLog {
    segments: Vec<EncodedLog<SampleRecord>>,
}

impl SampleLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        SampleLog {
            segments: Vec::new(),
        }
    }

    /// Appends one record.
    pub fn push(&mut self, record: SampleRecord) {
        if self.segments.is_empty() {
            self.segments.push(EncodedLog::new());
        }
        let last = self.segments.len() - 1;
        self.segments[last].push(record);
    }

    /// Appends an encoded log's records, in order, by taking ownership of
    /// its bytes: nothing is decoded or copied.
    pub fn append(&mut self, segment: EncodedLog<SampleRecord>) {
        if !segment.is_empty() {
            self.segments.push(segment);
        }
    }

    /// All records, in insertion order.
    pub fn records(&self) -> Records<'_> {
        Records {
            segments: &self.segments,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records of one kind.
    pub fn of_kind(&self, kind: RecordKind) -> impl Iterator<Item = SampleRecord> + '_ {
        self.records().iter().filter(move |r| r.kind == kind)
    }

    /// Serializes to the SSParse text format: a `#` header line followed by
    /// one whitespace-separated record per line.
    pub fn to_text(&self) -> String {
        const HEADER: &str = "# kind app src dst send recv hops size\n";
        // A record line runs ~30 bytes on the shipped networks. Reserving
        // high is cheaper than regrowing: pages past the end are never
        // written.
        let mut out = String::with_capacity(HEADER.len() + 40 * self.len());
        out.push_str(HEADER);
        for r in self.records().iter() {
            out.push_str(r.kind.name());
            for v in [
                u64::from(r.app),
                u64::from(r.src),
                u64::from(r.dst),
                r.send,
                r.recv,
                u64::from(r.hops),
                u64::from(r.size),
            ] {
                out.push(' ');
                push_uint(&mut out, v);
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`SampleLog::to_text`].
    ///
    /// # Errors
    ///
    /// Returns the 1-based line number of the first malformed line.
    pub fn parse(text: &str) -> Result<SampleLog, usize> {
        let mut log = SampleLog::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match SampleRecord::parse_line(line) {
                Some(rec) => log.push(rec),
                None => return Err(i + 1),
            }
        }
        Ok(log)
    }
}

impl PartialEq for SampleLog {
    fn eq(&self, other: &Self) -> bool {
        self.records() == other.records()
    }
}

impl fmt::Debug for SampleLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SampleLog")
            .field("records", &self.records())
            .finish()
    }
}

impl FromIterator<SampleRecord> for SampleLog {
    fn from_iter<I: IntoIterator<Item = SampleRecord>>(iter: I) -> Self {
        let mut log = SampleLog::new();
        log.extend(iter);
        log
    }
}

impl Extend<SampleRecord> for SampleLog {
    fn extend<I: IntoIterator<Item = SampleRecord>>(&mut self, iter: I) {
        for record in iter {
            self.push(record);
        }
    }
}

/// The records of a [`SampleLog`], in insertion order: a view that
/// decodes each record as it is iterated.
#[derive(Clone, Copy)]
pub struct Records<'a> {
    segments: &'a [EncodedLog<SampleRecord>],
}

impl<'a> Records<'a> {
    /// Decodes the records in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = SampleRecord> + 'a {
        self.segments.iter().flat_map(EncodedLog::iter)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.segments.iter().map(EncodedLog::len).sum()
    }

    /// Whether the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for Records<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Records<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind, send: u64, recv: u64) -> SampleRecord {
        SampleRecord {
            kind,
            app: 1,
            src: 2,
            dst: 3,
            send,
            recv,
            hops: 4,
            size: 5,
        }
    }

    #[test]
    fn latency() {
        assert_eq!(rec(RecordKind::Packet, 10, 35).latency(), 25);
    }

    #[test]
    fn text_round_trip() {
        let log: SampleLog = vec![
            rec(RecordKind::Packet, 1, 2),
            rec(RecordKind::Message, 3, 9),
            rec(RecordKind::Transaction, 5, 50),
        ]
        .into_iter()
        .collect();
        let text = log.to_text();
        assert!(text.starts_with('#'));
        let back = SampleLog::parse(&text).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn text_is_the_formatted_fields() {
        let mut rng = supersim_des::Rng::new(0x7E47);
        let mut wide = || rng.gen_u64() >> (rng.gen_u64() % 64);
        let kinds = [
            RecordKind::Packet,
            RecordKind::Message,
            RecordKind::Transaction,
        ];
        let extremes = SampleRecord {
            kind: RecordKind::Transaction,
            app: u8::MAX,
            src: 0,
            dst: u32::MAX,
            send: 0,
            recv: u64::MAX,
            hops: u16::MAX,
            size: u32::MAX,
        };
        let random = (0..500).map(|i| SampleRecord {
            kind: kinds[i % 3],
            app: wide() as u8,
            src: wide() as u32,
            dst: wide() as u32,
            send: wide(),
            recv: wide(),
            hops: wide() as u16,
            size: wide() as u32,
        });
        let mut log = SampleLog::new();
        let mut want = String::from("# kind app src dst send recv hops size\n");
        for r in std::iter::once(extremes).chain(random) {
            want.push_str(&format!(
                "{} {} {} {} {} {} {} {}\n",
                r.kind.name(),
                r.app,
                r.src,
                r.dst,
                r.send,
                r.recv,
                r.hops,
                r.size
            ));
            log.push(r);
        }
        assert_eq!(log.to_text(), want);
        assert_eq!(
            SampleLog::new().to_text(),
            "# kind app src dst send recv hops size\n"
        );
    }

    /// A log built from encoded segments, empty ones included, reads as
    /// the same records pushed one by one.
    #[test]
    fn segments_read_as_one_log() {
        let kinds = [
            RecordKind::Packet,
            RecordKind::Message,
            RecordKind::Transaction,
        ];
        let records: Vec<SampleRecord> = (0..50u64)
            .map(|i| SampleRecord {
                app: (i % 4) as u8,
                ..rec(kinds[i as usize % 3], i, i * i)
            })
            .collect();
        let mut segmented = SampleLog::new();
        segmented.append(EncodedLog::new());
        assert_eq!(segmented, SampleLog::new());
        let mut rest = records.as_slice();
        for len in [0, 3, 0, 1, 20, 0, 25] {
            let (head, tail) = rest.split_at(len);
            let mut segment = EncodedLog::new();
            head.iter().for_each(|&r| segment.push(r));
            segmented.append(segment);
            rest = tail;
        }
        // A push after the segments continues the same order.
        segmented.push(rest[0]);
        let mut pushed = SampleLog::new();
        records.iter().for_each(|&r| pushed.push(r));

        assert_eq!(segmented, pushed);
        assert_eq!(segmented.len(), records.len());
        assert!(segmented.records().iter().eq(records.iter().copied()));
        for kind in kinds {
            assert!(segmented.of_kind(kind).eq(pushed.of_kind(kind)));
            assert!(segmented.of_kind(kind).all(|r| r.kind == kind));
        }
        assert_eq!(segmented.to_text(), pushed.to_text());
        pushed.push(rest[0]);
        assert_ne!(segmented, pushed);
    }

    #[test]
    fn parse_reports_bad_line() {
        let err = SampleLog::parse("# header\npacket 0 0 0 1 2 0 1\nbogus line\n").unwrap_err();
        assert_eq!(err, 3);
        // Too many fields is also malformed.
        assert!(SampleLog::parse("packet 0 0 0 1 2 0 1 9\n").is_err());
        // Unknown kind.
        assert!(SampleLog::parse("flow 0 0 0 1 2 0 1\n").is_err());
    }

    #[test]
    fn parse_skips_blank_and_comment_lines() {
        let log = SampleLog::parse("\n# c\n  \npacket 0 1 2 3 4 5 6\n").unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records().iter().next().map(|r| r.dst), Some(2));
    }

    #[test]
    fn kind_filtering() {
        let log: SampleLog = vec![
            rec(RecordKind::Packet, 1, 2),
            rec(RecordKind::Packet, 1, 3),
            rec(RecordKind::Message, 1, 4),
        ]
        .into_iter()
        .collect();
        assert_eq!(log.of_kind(RecordKind::Packet).count(), 2);
        assert_eq!(log.of_kind(RecordKind::Transaction).count(), 0);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            RecordKind::Packet,
            RecordKind::Message,
            RecordKind::Transaction,
        ] {
            assert_eq!(RecordKind::from_name(k.name()), Some(k));
        }
        assert_eq!(RecordKind::from_name("nope"), None);
    }
}
