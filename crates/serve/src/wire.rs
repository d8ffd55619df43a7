//! Length- and FNV-checksummed binary framing for the campaign server.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! +-------+-----------+-----------+------------------+
//! | magic | len (u32) | crc (u64) | payload (len B)  |
//! | NVS1  | LE        | LE        | UTF-8 message    |
//! +-------+-----------+-----------+------------------+
//! ```
//!
//! where `crc` is the FNV-1a-64 hash of the payload bytes — the same
//! checksum the [`nightvision::checkpoint`] layer frames its journal
//! records with, so one hostile-input story covers both surfaces. The
//! decoder is total: every malformed input (truncated header, bad magic,
//! oversized length, checksum mismatch, non-UTF-8 payload) maps to a
//! typed [`WireError`], never a panic, and a reader with a socket
//! timeout can never hang on a short frame.

use std::io::{Read, Write};

use nightvision::checkpoint::fnv1a64;

/// Frame preamble: protocol name + version.
pub const MAGIC: [u8; 4] = *b"NVS1";

/// Largest accepted payload. Large enough for any message the protocol
/// defines, small enough that a hostile length field cannot balloon the
/// server's memory.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Everything that can go wrong reading or decoding a frame. Typed so a
/// server can count, log and answer hostility instead of dying of it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes the section needed.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The frame did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The length field exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The hostile length.
        len: u64,
        /// The enforced maximum.
        max: u64,
    },
    /// The payload hash does not match the header checksum.
    ChecksumMismatch {
        /// Checksum announced by the frame header.
        announced: u64,
        /// FNV-1a-64 of the payload actually received.
        computed: u64,
    },
    /// The payload is not valid UTF-8.
    NotUtf8,
    /// The payload framed fine but is not a well-formed message.
    BadMessage {
        /// What the parser rejected.
        detail: String,
    },
    /// An I/O error (including read timeouts) from the transport.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Truncated { expected, got } => {
                write!(f, "frame truncated: needed {expected} bytes, got {got}")
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            WireError::ChecksumMismatch {
                announced,
                computed,
            } => write!(
                f,
                "payload checksum {computed:#018x} does not match announced {announced:#018x}"
            ),
            WireError::NotUtf8 => write!(f, "payload is not UTF-8"),
            WireError::BadMessage { detail } => write!(f, "malformed message: {detail}"),
            WireError::Io(kind) => write!(f, "transport error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> Self {
        WireError::Io(err.kind())
    }
}

/// Whether the error indicates a hostile or damaged peer (as opposed to
/// a clean close or a transport hiccup) — servers drop the connection on
/// these after answering with a typed error.
pub fn is_protocol_violation(err: &WireError) -> bool {
    matches!(
        err,
        WireError::Truncated { .. }
            | WireError::BadMagic { .. }
            | WireError::Oversized { .. }
            | WireError::ChecksumMismatch { .. }
            | WireError::NotUtf8
            | WireError::BadMessage { .. }
    )
}

/// Encodes `payload` as one frame.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — outbound messages are
/// ours, and an oversized one is a bug, not input.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "outbound frame of {} bytes exceeds MAX_PAYLOAD",
        payload.len()
    );
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(16 + bytes.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Writes one frame. A single `write_all` so a concurrent reader never
/// observes a half-written frame from this process (kills mid-write are
/// the peer's [`WireError::Truncated`] to absorb).
pub fn write_frame(writer: &mut impl Write, payload: &str) -> std::io::Result<()> {
    writer.write_all(&encode_frame(payload))?;
    writer.flush()
}

/// Reads exactly `buf.len()` bytes; `Truncated` on a mid-section EOF.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), WireError> {
    let mut got = 0;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    expected: buf.len(),
                    got,
                })
            }
            Ok(n) => got += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err.into()),
        }
    }
    Ok(())
}

/// Reads and validates one frame, returning the payload.
///
/// A clean EOF *before any byte* of the frame is [`WireError::Closed`]
/// (the peer hung up between messages); an EOF anywhere inside the frame
/// is [`WireError::Truncated`].
///
/// # Errors
///
/// Every way a frame can be malformed maps to its [`WireError`] variant;
/// the decoder never panics on wire input.
pub fn read_frame(reader: &mut impl Read) -> Result<String, WireError> {
    let mut magic = [0u8; 4];
    let mut got = 0;
    while got < magic.len() {
        match reader.read(&mut magic[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Truncated {
                    expected: magic.len(),
                    got,
                })
            }
            Ok(n) => got += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err.into()),
        }
    }
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }

    let mut len_buf = [0u8; 4];
    fill(reader, &mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len: len as u64,
            max: MAX_PAYLOAD as u64,
        });
    }

    let mut crc_buf = [0u8; 8];
    fill(reader, &mut crc_buf)?;
    let announced = u64::from_le_bytes(crc_buf);

    let mut payload = vec![0u8; len];
    fill(reader, &mut payload)?;
    let computed = fnv1a64(&payload);
    if computed != announced {
        return Err(WireError::ChecksumMismatch {
            announced,
            computed,
        });
    }
    String::from_utf8(payload).map_err(|_| WireError::NotUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    /// A reader that hands out one byte per `read`.
    struct Trickle(Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let len = buf.len().min(1);
            self.0.read(&mut buf[..len])
        }
    }

    #[test]
    fn roundtrip() {
        let frame = encode_frame("hello, campaign");
        let payload = read_frame(&mut Cursor::new(frame)).unwrap();
        assert_eq!(payload, "hello, campaign");
    }

    #[test]
    fn buffered_reads_reassemble_one_byte_reads() {
        // Back-to-back frames delivered one byte per `read` come out
        // whole and in order, then as a clean close.
        let payloads = ["first", "", "a longer third payload", "{\"re\": \"pong\"}"];
        let bytes = payloads.iter().flat_map(|p| encode_frame(p)).collect();
        let mut reader = BufReader::new(Trickle(Cursor::new(bytes)));
        for payload in payloads {
            assert_eq!(read_frame(&mut reader).unwrap(), payload);
        }
        assert_eq!(read_frame(&mut reader), Err(WireError::Closed));
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        assert_eq!(
            read_frame(&mut Cursor::new(Vec::new())),
            Err(WireError::Closed)
        );
    }

    #[test]
    fn mid_magic_eof_is_truncation_not_close() {
        let err = read_frame(&mut Cursor::new(b"NV".to_vec())).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                expected: 4,
                got: 2
            }
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = encode_frame("x");
        frame[0] = b'X';
        let err = read_frame(&mut Cursor::new(frame)).unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
    }

    #[test]
    fn oversized_length_is_refused_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        let err = read_frame(&mut Cursor::new(frame)).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let mut frame = encode_frame("payload under test");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let err = read_frame(&mut Cursor::new(frame)).unwrap_err();
        assert!(matches!(err, WireError::ChecksumMismatch { .. }));
    }

    #[test]
    fn non_utf8_payload_is_typed() {
        let bytes = [0xffu8, 0xfe, 0x01];
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
        frame.extend_from_slice(&bytes);
        let err = read_frame(&mut Cursor::new(frame)).unwrap_err();
        assert_eq!(err, WireError::NotUtf8);
    }
}
