//! Length-prefixed frames for the socket transport.
//!
//! Wire layout of one frame:
//!
//! ```text
//! [u32 len (LE)] [u8 kind] [body...]     len = 1 + body.len()
//! ```
//!
//! Bodies reuse the workspace's hand-rolled [`Codec`] format. Decoding is
//! total: every malformed, truncated or hostile input comes back as a
//! [`FrameError`] — a corrupt peer must never be able to panic (or OOM)
//! the process reading from it.

use std::fmt;
use std::io::{self, Read, Write};

use crate::codec::{decode_exact, Codec};

/// Magic prefix of the frames that open a connection
/// ([`Frame::JoinReq`], [`Frame::JoinHello`]), guarding against a
/// stranger (or a different protocol) dialing the port.
pub const HELLO_MAGIC: u32 = 0x4450_5831; // "DPX1"

/// Hard ceiling on one frame's body, bounding the allocation a hostile
/// length prefix can provoke.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Bytes a frame with `body` bytes of payload occupies on the wire.
#[inline]
pub fn framed_len(body: usize) -> usize {
    4 + 1 + body
}

/// Bytes a [`Frame::Data`] carries ahead of its payload: the length
/// prefix, the kind byte and the `u16` source place.
pub(crate) const DATA_HEADER: usize = 4 + 1 + 2;

/// Turns `wire` — [`DATA_HEADER`] reserved bytes followed by a payload
/// encoded in place — into the [`Frame::Data`] from `src` that carries
/// that payload: the same bytes as its [`Frame::to_wire`], without a
/// second buffer.
pub(crate) fn seal_data(wire: &mut [u8], src: u16) {
    let body_len = (wire.len() - 4) as u32;
    wire[..4].copy_from_slice(&body_len.to_le_bytes());
    wire[4] = KIND_DATA;
    wire[5..DATA_HEADER].copy_from_slice(&src.to_le_bytes());
}

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes read timeouts, surfaced as
    /// `WouldBlock`/`TimedOut`, and mid-frame EOF as `UnexpectedEof`).
    Io(io::Error),
    /// The peer closed the connection on a frame boundary.
    Closed,
    /// The length prefix is zero or exceeds [`MAX_BODY`].
    BadLength(usize),
    /// The kind byte names no known frame.
    BadKind(u8),
    /// The body did not decode as the advertised kind.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Closed => write!(f, "connection closed by peer"),
            FrameError::BadLength(n) => write!(f, "bad frame length {n} (max {MAX_BODY})"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Malformed(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// One unit of the socket protocol.
///
/// `JoinReq`/`JoinAccept`/`JoinReject` are the admission exchange with
/// place 0 and `JoinHello` the member intro: every place, founder or
/// later joiner, enters the mesh through them. `Data`/`Heartbeat`/`Bye`
/// are the steady state and `Leave` a graceful departure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Dialer → place 0: ask to be admitted. A founding place names the
    /// id its launcher gave it and the founding place count (both
    /// cross-checked); a probe names `places: 0` and no id (`place` is
    /// ignored) and is given a free slot past the founders.
    JoinReq {
        /// The id asked for (founders only).
        place: u16,
        /// The founding place count the dialer believes in; 0 for a
        /// probe.
        places: u16,
        /// The dialer's own listen address, where later members dial it.
        addr: String,
    },
    /// Place 0 → dialer: admission granted. Carries the place id, the
    /// mesh capacity (so every member sizes its tables identically), and
    /// the listen address of every member admitted so far ("" for a
    /// slot not yet or no longer held) — exactly the places the new
    /// member dials.
    JoinAccept {
        /// The admitted place's id.
        place: u16,
        /// Total place capacity of the mesh.
        capacity: u16,
        /// `addrs[p]` is member `p`'s listen address ("" if none).
        addrs: Vec<String>,
    },
    /// Place 0 → dialer: admission refused, and why.
    JoinReject {
        /// Why the request was refused.
        reason: String,
    },
    /// Admitted place → member: first frame on a dial to a member named
    /// in the accept, identifying the dialer.
    JoinHello {
        /// The dialer's place id.
        place: u16,
    },
    /// An application payload from `src`, opaque to the transport.
    Data {
        /// Originating place.
        src: u16,
        /// Encoded message bytes.
        payload: Vec<u8>,
    },
    /// Keep-alive written by an idle writer; resets the peer's silence
    /// timer.
    Heartbeat,
    /// Graceful goodbye; the reader exits without declaring the peer
    /// dead.
    Bye,
    /// A draining place's sign-off: it handed its state over and is
    /// leaving the roster *voluntarily*. Readers remove it from the
    /// roster without marking it dead — the opposite of a crash.
    Leave {
        /// The departing place.
        place: u16,
    },
}

const KIND_JOIN_REQ: u8 = 0;
const KIND_JOIN_ACCEPT: u8 = 1;
const KIND_JOIN_REJECT: u8 = 2;
const KIND_JOIN_HELLO: u8 = 3;
const KIND_DATA: u8 = 4;
const KIND_HEARTBEAT: u8 = 5;
const KIND_BYE: u8 = 6;
const KIND_LEAVE: u8 = 7;

impl Frame {
    /// Encodes the frame to its full wire representation, length prefix
    /// included.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut buf = vec![0u8; 4]; // length patched below
        match self {
            Frame::Data { src, payload } => {
                buf.push(KIND_DATA);
                src.encode(&mut buf);
                buf.extend_from_slice(payload);
            }
            Frame::Heartbeat => buf.push(KIND_HEARTBEAT),
            Frame::Bye => buf.push(KIND_BYE),
            Frame::JoinReq {
                place,
                places,
                addr,
            } => {
                buf.push(KIND_JOIN_REQ);
                HELLO_MAGIC.encode(&mut buf);
                place.encode(&mut buf);
                places.encode(&mut buf);
                addr.encode(&mut buf);
            }
            Frame::JoinAccept {
                place,
                capacity,
                addrs,
            } => {
                buf.push(KIND_JOIN_ACCEPT);
                place.encode(&mut buf);
                capacity.encode(&mut buf);
                addrs.encode(&mut buf);
            }
            Frame::JoinReject { reason } => {
                buf.push(KIND_JOIN_REJECT);
                reason.encode(&mut buf);
            }
            Frame::JoinHello { place } => {
                buf.push(KIND_JOIN_HELLO);
                HELLO_MAGIC.encode(&mut buf);
                place.encode(&mut buf);
            }
            Frame::Leave { place } => {
                buf.push(KIND_LEAVE);
                place.encode(&mut buf);
            }
        }
        let body_len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&body_len.to_le_bytes());
        buf
    }

    /// Decodes a frame body (kind byte + fields, no length prefix).
    pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let (&kind, mut rest) = body
            .split_first()
            .ok_or(FrameError::Malformed("empty body"))?;
        match kind {
            KIND_DATA => {
                let src =
                    u16::decode(&mut rest).ok_or(FrameError::Malformed("data: truncated src"))?;
                Ok(Frame::Data {
                    src,
                    payload: rest.to_vec(),
                })
            }
            KIND_HEARTBEAT => empty(rest, Frame::Heartbeat, "heartbeat: trailing bytes"),
            KIND_BYE => empty(rest, Frame::Bye, "bye: trailing bytes"),
            KIND_JOIN_REQ => {
                magic(&mut rest, "join req: bad magic")?;
                let rec: (u16, u16, String) =
                    decode_exact(rest).ok_or(FrameError::Malformed("join req: bad fields"))?;
                let (place, places, addr) = rec;
                Ok(Frame::JoinReq {
                    place,
                    places,
                    addr,
                })
            }
            KIND_JOIN_ACCEPT => {
                let rec: (u16, u16, Vec<String>) =
                    decode_exact(rest).ok_or(FrameError::Malformed("join accept: bad fields"))?;
                let (place, capacity, addrs) = rec;
                Ok(Frame::JoinAccept {
                    place,
                    capacity,
                    addrs,
                })
            }
            KIND_JOIN_REJECT => {
                let reason: String =
                    decode_exact(rest).ok_or(FrameError::Malformed("join reject: bad reason"))?;
                Ok(Frame::JoinReject { reason })
            }
            KIND_JOIN_HELLO => {
                magic(&mut rest, "join hello: bad magic")?;
                let place: u16 =
                    decode_exact(rest).ok_or(FrameError::Malformed("join hello: bad place"))?;
                Ok(Frame::JoinHello { place })
            }
            KIND_LEAVE => {
                let place: u16 =
                    decode_exact(rest).ok_or(FrameError::Malformed("leave: bad place"))?;
                Ok(Frame::Leave { place })
            }
            other => Err(FrameError::BadKind(other)),
        }
    }
}

/// Takes [`HELLO_MAGIC`] off the front of `rest`; `bad` is the error
/// when it is missing or wrong.
fn magic(rest: &mut &[u8], bad: &'static str) -> Result<(), FrameError> {
    match u32::decode(rest) {
        Some(HELLO_MAGIC) => Ok(()),
        _ => Err(FrameError::Malformed(bad)),
    }
}

/// `frame`, a kind without a body, if `rest` is empty; `trailing`
/// names the kind in the error otherwise.
fn empty(rest: &[u8], frame: Frame, trailing: &'static str) -> Result<Frame, FrameError> {
    if rest.is_empty() {
        Ok(frame)
    } else {
        Err(FrameError::Malformed(trailing))
    }
}

/// Writes one frame to `w` (no flush; callers batch or flush as needed).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.to_wire())
}

/// Reads one frame from `r`.
///
/// EOF *before the first length byte* is a clean [`FrameError::Closed`];
/// EOF inside a frame is an [`FrameError::Io`] with `UnexpectedEof`. The
/// body allocation is bounded by [`MAX_BODY`] regardless of what the peer
/// claims.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_BODY {
        return Err(FrameError::BadLength(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    if let [KIND_DATA, lo, hi, ..] = body[..] {
        // The payload keeps the body's buffer instead of a copy of it.
        body.drain(..DATA_HEADER - 4);
        return Ok(Frame::Data {
            src: u16::from_le_bytes([lo, hi]),
            payload: body,
        });
    }
    Frame::decode_body(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: &Frame) {
        let wire = f.to_wire();
        assert_eq!(framed_len(wire.len() - 5), wire.len());
        let mut cursor = &wire[..];
        let back = read_frame(&mut cursor).unwrap();
        assert_eq!(&back, f);
        assert!(cursor.is_empty(), "frame fully consumed");
    }

    #[test]
    fn all_kinds_round_trip() {
        round_trip(&Frame::Data {
            src: 5,
            payload: vec![1, 2, 3, 255, 0],
        });
        round_trip(&Frame::Data {
            src: 0,
            payload: Vec::new(),
        });
        round_trip(&Frame::Heartbeat);
        round_trip(&Frame::Bye);
        round_trip(&Frame::JoinReq {
            place: 3,
            places: 8,
            addr: "127.0.0.1:4821".into(),
        });
        round_trip(&Frame::JoinReq {
            place: 0,
            places: 0,
            addr: "127.0.0.1:9000".into(),
        });
        round_trip(&Frame::JoinAccept {
            place: 4,
            capacity: 6,
            addrs: vec!["127.0.0.1:1".into(), String::new(), "127.0.0.1:3".into()],
        });
        round_trip(&Frame::JoinReject {
            reason: "mesh at capacity".into(),
        });
        round_trip(&Frame::JoinHello { place: 4 });
        round_trip(&Frame::Leave { place: 4 });
    }

    #[test]
    fn join_frames_reject_bad_magic_and_truncation() {
        let mut body = vec![KIND_JOIN_REQ];
        0xdead_beefu32.encode(&mut body);
        3u16.encode(&mut body);
        8u16.encode(&mut body);
        String::from("x").encode(&mut body);
        assert!(matches!(
            Frame::decode_body(&body),
            Err(FrameError::Malformed("join req: bad magic"))
        ));
        let wire = Frame::JoinAccept {
            place: 1,
            capacity: 2,
            addrs: vec!["a".into()],
        }
        .to_wire();
        // Truncate inside the address vector: the body decode must fail
        // cleanly rather than panic.
        assert!(matches!(
            Frame::decode_body(&wire[5..wire.len() - 1]),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            Frame::decode_body(&[KIND_LEAVE]),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn a_sealed_buffer_is_the_data_frame() {
        for payload in [Vec::new(), vec![7], (0..=255).collect::<Vec<u8>>()] {
            let mut wire = vec![0; DATA_HEADER];
            wire.extend_from_slice(&payload);
            seal_data(&mut wire, 0x1234);
            let frame = Frame::Data {
                src: 0x1234,
                payload,
            };
            assert_eq!(wire, frame.to_wire());
            assert_eq!(read_frame(&mut &wire[..]).unwrap(), frame);
        }
    }

    #[test]
    fn eof_on_boundary_is_closed() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Err(FrameError::Closed)));
    }

    #[test]
    fn eof_inside_header_is_io() {
        let mut short: &[u8] = &[5, 0];
        assert!(matches!(read_frame(&mut short), Err(FrameError::Io(_))));
    }

    #[test]
    fn eof_inside_body_is_io() {
        let wire = Frame::Data {
            src: 1,
            payload: vec![9; 32],
        }
        .to_wire();
        let mut truncated = &wire[..wire.len() - 1];
        assert!(matches!(read_frame(&mut truncated), Err(FrameError::Io(_))));
    }

    #[test]
    fn hostile_length_is_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.push(KIND_DATA);
        let mut cursor = &wire[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::BadLength(_))
        ));
        let mut zero: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut zero),
            Err(FrameError::BadLength(0))
        ));
    }

    #[test]
    fn bad_kind_and_bad_magic_are_errors() {
        assert!(matches!(
            Frame::decode_body(&[42]),
            Err(FrameError::BadKind(42))
        ));
        let mut body = vec![KIND_JOIN_HELLO];
        0xdead_beefu32.encode(&mut body);
        3u16.encode(&mut body);
        assert!(matches!(
            Frame::decode_body(&body),
            Err(FrameError::Malformed("join hello: bad magic"))
        ));
    }

    #[test]
    fn trailing_bytes_on_bodyless_frames_are_rejected() {
        assert!(matches!(
            Frame::decode_body(&[KIND_HEARTBEAT, 0]),
            Err(FrameError::Malformed("heartbeat: trailing bytes"))
        ));
        assert!(matches!(
            Frame::decode_body(&[KIND_BYE, 0]),
            Err(FrameError::Malformed("bye: trailing bytes"))
        ));
    }
}
