//! Binary `.hpt` trace framing: varint/delta encoding of the exact
//! same version-pinned [`TraceEvent`] schema as the JSONL format.
//!
//! JSONL stays the interchange format; the binary framing exists so
//! multi-GB traces stay cheap to store and verify. The layout is pinned
//! by a magic header plus [`SCHEMA_VERSION`], and the wire-layout items
//! of this module (`Tag`, `encode_event`, `decode_event`) are
//! fingerprinted by `cargo xtask lint` alongside the wire types in
//! `hotpotato_sim::event` — changing the byte layout without bumping the
//! schema version fails lint.
//!
//! Layout: the file starts with [`MAGIC`] followed by the schema
//! version as a varint. Each event is one tag byte (`Tag`) followed
//! by its payload. Integers are LEB128 varints; signed values are
//! zigzag-coded; step clocks (`t`) are zigzag deltas against the
//! previous clock-carrying event; strings are a varint length plus
//! UTF-8 bytes; arrays are a varint count plus elements; `move` lines
//! pack direction and kind into a single byte. Decoding is as strict as
//! JSONL parsing: a bad tag, a truncated payload, or a wrong version is
//! a hard error carrying the exact byte offset and event index.

use crate::schema::{Meta, Snapshot, StatsLine, Trace, TraceEvent, SCHEMA_VERSION};
use hotpotato_sim::ExitKind;
use leveled_net::{Direction, EdgeId};

/// Magic header of a `.hpt` binary trace. The non-ASCII lead byte keeps
/// binary traces from ever sniffing as JSONL text.
pub const MAGIC: [u8; 4] = [0x89, b'H', b'P', b'T'];

/// A binary decode failure, attributed to the exact byte offset where
/// the failing read started and the 0-based index of the event being
/// decoded (so `event i` corresponds to JSONL line `i + 1`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinaryError {
    /// Byte offset into the input where decoding failed.
    pub offset: usize,
    /// 0-based index of the event being decoded when the error hit.
    pub event: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "binary trace error at byte {} (event {}): {}",
            self.offset, self.event, self.msg
        )
    }
}

impl std::error::Error for BinaryError {}

/// Event tag bytes of the `.hpt` framing, in [`TraceEvent`] variant
/// order. Part of the fingerprinted wire layout: renumbering or adding
/// a tag requires a [`SCHEMA_VERSION`] bump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    /// Envelope meta line.
    Meta = 0,
    /// Edge crossing.
    Move = 1,
    /// Trivial delivery.
    Trivial = 2,
    /// Absorption.
    Deliver = 3,
    /// Streaming arrival.
    Arrival = 4,
    /// Streaming drop.
    Drop = 5,
    /// Step summary.
    Step = 6,
    /// Frontier-set assignment.
    Sets = 7,
    /// Phase open.
    PhaseStart = 8,
    /// Phase close.
    PhaseEnd = 9,
    /// Frontier announcement.
    Frontier = 10,
    /// Congestion audit.
    Congestion = 11,
    /// Section timing.
    Section = 12,
    /// Envelope stats line.
    Stats = 13,
    /// Phase-entry checkpoint.
    Snapshot = 14,
}

fn zigzag_enc(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[allow(clippy::cast_possible_wrap)]
fn zigzag_dec(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encoder state: the output buffer plus the delta-coding clock.
struct Enc {
    buf: Vec<u8>,
    last_t: u64,
}

impl Enc {
    fn vu(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    fn vi(&mut self, v: i64) {
        self.vu(zigzag_enc(v));
    }

    /// Zigzag delta against the previous clock-carrying event.
    #[allow(clippy::cast_possible_wrap)]
    fn dt(&mut self, t: u64) {
        self.vi(t.wrapping_sub(self.last_t) as i64);
        self.last_t = t;
    }

    fn string(&mut self, s: &str) {
        self.vu(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn arr_u32(&mut self, arr: &[u32]) {
        self.vu(arr.len() as u64);
        for &v in arr {
            self.vu(u64::from(v));
        }
    }

    /// `None` encodes as 0, `Some(v)` as `v + 1`.
    fn arr_opt_u64(&mut self, arr: &[Option<u64>]) {
        self.vu(arr.len() as u64);
        for v in arr {
            match v {
                None => self.vu(0),
                Some(v) => self.vu(v + 1),
            }
        }
    }
}

fn dir_bit(dir: Direction) -> u8 {
    match dir {
        Direction::Forward => 0,
        Direction::Backward => 1,
    }
}

fn kind_code(kind: ExitKind) -> u8 {
    match kind {
        ExitKind::Advance => 0,
        ExitKind::Deflect { safe: true } => 1,
        ExitKind::Deflect { safe: false } => 2,
        ExitKind::Oscillate => 3,
        ExitKind::Inject => 4,
    }
}

/// Encodes one event: tag byte plus payload. Field order here *is* the
/// wire layout — this function is covered by the schema fingerprint.
fn encode_event(enc: &mut Enc, ev: &TraceEvent) {
    match ev {
        TraceEvent::Meta(m) => {
            enc.buf.push(Tag::Meta as u8);
            enc.string(&m.topo);
            enc.string(&m.workload);
            enc.string(&m.algo);
            enc.vu(m.seed);
            enc.string(&m.arrival);
            enc.vu(m.packets);
            enc.vu(m.levels);
            enc.vu(m.congestion);
            enc.vu(m.dilation);
        }
        TraceEvent::Move {
            t,
            pkt,
            edge,
            dir,
            kind,
        } => {
            enc.buf.push(Tag::Move as u8);
            enc.buf.push(dir_bit(*dir) | (kind_code(*kind) << 1));
            enc.dt(*t);
            enc.vu(u64::from(*pkt));
            enc.vu(u64::from(edge.0));
        }
        TraceEvent::Trivial { t, pkt } => {
            enc.buf.push(Tag::Trivial as u8);
            enc.dt(*t);
            enc.vu(u64::from(*pkt));
        }
        TraceEvent::Deliver { t, pkt } => {
            enc.buf.push(Tag::Deliver as u8);
            enc.dt(*t);
            enc.vu(u64::from(*pkt));
        }
        TraceEvent::Arrival { t, pkt } => {
            enc.buf.push(Tag::Arrival as u8);
            enc.dt(*t);
            enc.vu(u64::from(*pkt));
        }
        TraceEvent::Drop { t, pkt } => {
            enc.buf.push(Tag::Drop as u8);
            enc.dt(*t);
            enc.vu(u64::from(*pkt));
        }
        TraceEvent::Step {
            t,
            moved,
            absorbed,
            injected,
            deflections,
            fallback,
            oscillations,
            active,
        } => {
            enc.buf.push(Tag::Step as u8);
            enc.dt(*t);
            enc.vu(u64::from(*moved));
            enc.vu(u64::from(*absorbed));
            enc.vu(u64::from(*injected));
            enc.vu(u64::from(*deflections));
            enc.vu(u64::from(*fallback));
            enc.vu(u64::from(*oscillations));
            enc.vu(u64::from(*active));
        }
        TraceEvent::Sets { num_sets, sets } => {
            enc.buf.push(Tag::Sets as u8);
            enc.vu(u64::from(*num_sets));
            enc.arr_u32(sets);
        }
        TraceEvent::PhaseStart { phase, t } => {
            enc.buf.push(Tag::PhaseStart as u8);
            enc.vu(*phase);
            enc.dt(*t);
        }
        TraceEvent::PhaseEnd { phase, t } => {
            enc.buf.push(Tag::PhaseEnd as u8);
            enc.vu(*phase);
            enc.dt(*t);
        }
        TraceEvent::Frontier {
            phase,
            set,
            frontier,
        } => {
            enc.buf.push(Tag::Frontier as u8);
            enc.vu(*phase);
            enc.vu(u64::from(*set));
            enc.vi(*frontier);
        }
        TraceEvent::Congestion {
            phase,
            set,
            congestion,
            initial,
        } => {
            enc.buf.push(Tag::Congestion as u8);
            enc.vu(*phase);
            enc.vu(u64::from(*set));
            enc.vu(u64::from(*congestion));
            enc.vu(u64::from(*initial));
        }
        TraceEvent::Section { section, nanos } => {
            enc.buf.push(Tag::Section as u8);
            enc.string(section);
            enc.vu(*nanos);
        }
        TraceEvent::Snapshot(s) => {
            enc.buf.push(Tag::Snapshot as u8);
            enc.vu(s.phase);
            enc.dt(s.t);
            enc.arr_u32(&s.state);
            enc.arr_u32(&s.nodes);
            enc.arr_u32(&s.prev_forward);
            enc.vu(s.moves);
            enc.vu(s.forward);
            enc.vu(s.backward);
            enc.vu(s.deflections);
            enc.vu(s.oscillations);
            enc.vu(s.trivial);
            enc.vu(u64::from(s.num_sets));
        }
        TraceEvent::Stats(s) => {
            enc.buf.push(Tag::Stats as u8);
            enc.vu(s.steps);
            enc.arr_opt_u64(&s.injected_at);
            enc.arr_opt_u64(&s.delivered_at);
            enc.arr_u32(&s.deflections);
        }
    }
}

/// Decoder state: a strict cursor attributing failures to byte offsets
/// and event indices.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    event: usize,
    last_t: u64,
}

impl Dec<'_> {
    fn fail(&self, msg: impl Into<String>) -> BinaryError {
        BinaryError {
            offset: self.pos,
            event: self.event,
            msg: msg.into(),
        }
    }

    fn byte(&mut self) -> Result<u8, BinaryError> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(self.fail("unexpected end of input"));
        };
        self.pos += 1;
        Ok(b)
    }

    fn vu(&mut self) -> Result<u64, BinaryError> {
        let start = self.pos;
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(BinaryError {
                    offset: start,
                    event: self.event,
                    msg: "varint overflows u64".into(),
                });
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    fn vi(&mut self) -> Result<i64, BinaryError> {
        Ok(zigzag_dec(self.vu()?))
    }

    /// Resolves a zigzag clock delta against the running clock.
    fn dt(&mut self) -> Result<u64, BinaryError> {
        let start = self.pos;
        let d = self.vi()?;
        let t = self.last_t.wrapping_add(d as u64);
        if d > 0 && t < self.last_t || d < 0 && t > self.last_t {
            return Err(BinaryError {
                offset: start,
                event: self.event,
                msg: "clock delta out of range".into(),
            });
        }
        self.last_t = t;
        Ok(t)
    }

    fn vu32(&mut self) -> Result<u32, BinaryError> {
        let start = self.pos;
        u32::try_from(self.vu()?).map_err(|_| BinaryError {
            offset: start,
            event: self.event,
            msg: "value overflows u32".into(),
        })
    }

    /// A varint element count, sanity-bounded by the bytes remaining
    /// (each element takes at least one byte) so corrupt counts cannot
    /// trigger huge allocations.
    fn count(&mut self) -> Result<usize, BinaryError> {
        let start = self.pos;
        let n = self.vu()?;
        let remaining = self.bytes.len() - self.pos;
        if n > remaining as u64 {
            return Err(BinaryError {
                offset: start,
                event: self.event,
                msg: format!("array count {n} exceeds remaining input ({remaining} bytes)"),
            });
        }
        Ok(n as usize)
    }

    fn string(&mut self) -> Result<String, BinaryError> {
        let len = self.count()?;
        let start = self.pos;
        let bytes = &self.bytes[start..start + len];
        self.pos += len;
        String::from_utf8(bytes.to_vec()).map_err(|_| BinaryError {
            offset: start,
            event: self.event,
            msg: "string is not valid UTF-8".into(),
        })
    }

    fn arr_u32(&mut self) -> Result<Vec<u32>, BinaryError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.vu32()?);
        }
        Ok(out)
    }

    fn arr_opt_u64(&mut self) -> Result<Vec<Option<u64>>, BinaryError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let v = self.vu()?;
            out.push(if v == 0 { None } else { Some(v - 1) });
        }
        Ok(out)
    }
}

/// Decodes one event at the cursor. The match on the tag byte mirrors
/// [`encode_event`] field for field; both are covered by the schema
/// fingerprint.
fn decode_event(dec: &mut Dec<'_>) -> Result<TraceEvent, BinaryError> {
    let tag_at = dec.pos;
    let tag = dec.byte()?;
    let ev = match tag {
        0 => TraceEvent::Meta(Box::new(Meta {
            schema: SCHEMA_VERSION,
            topo: dec.string()?,
            workload: dec.string()?,
            algo: dec.string()?,
            seed: dec.vu()?,
            arrival: dec.string()?,
            packets: dec.vu()?,
            levels: dec.vu()?,
            congestion: dec.vu()?,
            dilation: dec.vu()?,
        })),
        1 => {
            let packed = dec.byte()?;
            let dir = if packed & 1 == 0 {
                Direction::Forward
            } else {
                Direction::Backward
            };
            let kind = match packed >> 1 {
                0 => ExitKind::Advance,
                1 => ExitKind::Deflect { safe: true },
                2 => ExitKind::Deflect { safe: false },
                3 => ExitKind::Oscillate,
                4 => ExitKind::Inject,
                other => {
                    return Err(BinaryError {
                        offset: tag_at + 1,
                        event: dec.event,
                        msg: format!("unknown move kind code {other}"),
                    })
                }
            };
            TraceEvent::Move {
                t: dec.dt()?,
                pkt: dec.vu32()?,
                edge: EdgeId(dec.vu32()?),
                dir,
                kind,
            }
        }
        2 => TraceEvent::Trivial {
            t: dec.dt()?,
            pkt: dec.vu32()?,
        },
        3 => TraceEvent::Deliver {
            t: dec.dt()?,
            pkt: dec.vu32()?,
        },
        4 => TraceEvent::Arrival {
            t: dec.dt()?,
            pkt: dec.vu32()?,
        },
        5 => TraceEvent::Drop {
            t: dec.dt()?,
            pkt: dec.vu32()?,
        },
        6 => TraceEvent::Step {
            t: dec.dt()?,
            moved: dec.vu32()?,
            absorbed: dec.vu32()?,
            injected: dec.vu32()?,
            deflections: dec.vu32()?,
            fallback: dec.vu32()?,
            oscillations: dec.vu32()?,
            active: dec.vu32()?,
        },
        7 => TraceEvent::Sets {
            num_sets: dec.vu32()?,
            sets: dec.arr_u32()?,
        },
        8 => TraceEvent::PhaseStart {
            phase: dec.vu()?,
            t: dec.dt()?,
        },
        9 => TraceEvent::PhaseEnd {
            phase: dec.vu()?,
            t: dec.dt()?,
        },
        10 => TraceEvent::Frontier {
            phase: dec.vu()?,
            set: dec.vu32()?,
            frontier: dec.vi()?,
        },
        11 => TraceEvent::Congestion {
            phase: dec.vu()?,
            set: dec.vu32()?,
            congestion: dec.vu32()?,
            initial: dec.vu32()?,
        },
        12 => TraceEvent::Section {
            section: dec.string()?,
            nanos: dec.vu()?,
        },
        13 => TraceEvent::Stats(Box::new(StatsLine {
            steps: dec.vu()?,
            injected_at: dec.arr_opt_u64()?,
            delivered_at: dec.arr_opt_u64()?,
            deflections: dec.arr_u32()?,
        })),
        14 => TraceEvent::Snapshot(Box::new(Snapshot {
            phase: dec.vu()?,
            t: dec.dt()?,
            state: dec.arr_u32()?,
            nodes: dec.arr_u32()?,
            prev_forward: dec.arr_u32()?,
            moves: dec.vu()?,
            forward: dec.vu()?,
            backward: dec.vu()?,
            deflections: dec.vu()?,
            oscillations: dec.vu()?,
            trivial: dec.vu()?,
            num_sets: dec.vu32()?,
        })),
        other => {
            return Err(BinaryError {
                offset: tag_at,
                event: dec.event,
                msg: format!("unknown event tag {other}"),
            })
        }
    };
    Ok(ev)
}

/// `true` if `bytes` starts with the `.hpt` magic header (format
/// sniffing for `trace convert`/`verify`/`analyze` inputs).
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Encodes a parsed trace into the `.hpt` binary framing.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut enc = Enc {
        // Moves dominate and take ~6 bytes each.
        buf: Vec::with_capacity(MAGIC.len() + 10 + 8 * trace.events.len()),
        last_t: 0,
    };
    enc.buf.extend_from_slice(&MAGIC);
    enc.vu(SCHEMA_VERSION);
    for ev in &trace.events {
        encode_event(&mut enc, ev);
    }
    enc.buf
}

/// Decodes a `.hpt` binary trace, strictly: bad magic, a version other
/// than [`SCHEMA_VERSION`], unknown tags, and truncated payloads are
/// all hard errors with exact byte-offset + event-index attribution.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, BinaryError> {
    if !is_binary(bytes) {
        return Err(BinaryError {
            offset: 0,
            event: 0,
            msg: "not a .hpt binary trace (bad magic)".into(),
        });
    }
    let mut dec = Dec {
        bytes,
        pos: MAGIC.len(),
        event: 0,
        last_t: 0,
    };
    let version = dec.vu()?;
    if version != SCHEMA_VERSION {
        return Err(BinaryError {
            offset: MAGIC.len(),
            event: 0,
            msg: format!("unsupported trace schema {version} (this build reads {SCHEMA_VERSION})"),
        });
    }
    let mut events = Vec::new();
    while dec.pos < dec.bytes.len() {
        events.push(decode_event(&mut dec)?);
        dec.event += 1;
    }
    Ok(Trace { events })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut enc = Enc {
                buf: Vec::new(),
                last_t: 0,
            };
            enc.vu(v);
            let mut dec = Dec {
                bytes: &enc.buf,
                pos: 0,
                event: 0,
                last_t: 0,
            };
            assert_eq!(dec.vu().unwrap(), v);
            assert_eq!(dec.pos, enc.buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_dec(zigzag_enc(v)), v);
        }
    }

    #[test]
    fn magic_sniff_rejects_text() {
        assert!(!is_binary(b"{\"ev\":\"step\"}"));
        assert!(!is_binary(b""));
        let empty = encode_trace(&Trace { events: Vec::new() });
        assert!(is_binary(&empty));
        assert!(decode_trace(&empty).unwrap().events.is_empty());
    }

    #[test]
    fn wrong_version_is_rejected_with_offset() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(1); // schema 1
        let e = decode_trace(&bytes).unwrap_err();
        assert_eq!(e.offset, MAGIC.len());
        assert!(e.msg.contains("unsupported trace schema 1"), "{e}");
    }

    #[test]
    fn corrupt_count_is_bounded() {
        let mut bytes = encode_trace(&Trace { events: Vec::new() });
        bytes.push(Tag::Sets as u8);
        bytes.push(1); // num_sets
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0x7f]); // huge count
        let e = decode_trace(&bytes).unwrap_err();
        assert!(e.msg.contains("exceeds remaining input"), "{e}");
        assert_eq!(e.event, 0);
    }
}
