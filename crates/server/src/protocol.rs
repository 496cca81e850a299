//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is a 4-byte little-endian payload length followed by the
//! payload. Client → server payloads are UTF-8 statement text (SQL, a
//! `\`-prefixed meta command, or the bare word `METRICS` — a scrape
//! request answered with Prometheus text). Server → client payloads carry
//! a one-byte tag followed by UTF-8 text:
//!
//! | tag | meaning |
//! |-----|---------|
//! | `R` | result: rendered statement output |
//! | `E` | error: the statement failed; text is the engine error |
//! | `B` | bye: the server is closing this connection (quit acknowledged, or capacity refused) |
//!
//! Frames are capped at [`MAX_FRAME`] bytes in both directions: a reader
//! that sees a larger length declared knows the stream is garbage (not a
//! huge frame) and drops the connection rather than allocating.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload, both directions (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Rendered statement output.
    Result(String),
    /// The statement failed.
    Error(String),
    /// The server is closing this connection.
    Bye(String),
}

impl Response {
    fn tag(&self) -> u8 {
        match self {
            Response::Result(_) => b'R',
            Response::Error(_) => b'E',
            Response::Bye(_) => b'B',
        }
    }

    fn text(&self) -> &str {
        match self {
            Response::Result(t) | Response::Error(t) | Response::Bye(t) => t,
        }
    }

    /// Serialize as a tagged payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let text = self.text().as_bytes();
        let mut out = Vec::with_capacity(1 + text.len());
        out.push(self.tag());
        out.extend_from_slice(text);
        out
    }

    /// Parse a tagged payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let (tag, rest) = payload
            .split_first()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response frame"))?;
        let text = std::str::from_utf8(rest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .to_string();
        match tag {
            b'R' => Ok(Response::Result(text)),
            b'E' => Ok(Response::Error(text)),
            b'B' => Ok(Response::Bye(text)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown response tag 0x{other:02x}"),
            )),
        }
    }
}

/// Write one length-prefixed frame with a single `write_all`: prefix and
/// payload leave in one segment, so a peer waiting on the whole frame is
/// never held up by Nagle's algorithm between the two halves.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. A declared length over [`MAX_FRAME`]
/// is a protocol violation, reported before any allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer declared a {len}-byte frame (cap {MAX_FRAME})"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"SELECT 1").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"SELECT 1");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err()); // EOF
    }

    #[test]
    fn response_roundtrip() {
        for resp in [
            Response::Result("| a |\n".into()),
            Response::Error("unknown table 'x'".into()),
            Response::Bye("goodbye".into()),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &buf[..];
        let e = read_frame(&mut r).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A sink that records each `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [&b"SELECT 1"[..], b"", &[b'y'; MAX_FRAME]] {
            let mut sink = CountingWriter::default();
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.writes.len(), 1, "prefix and payload in one write");
            let mut r = &sink.writes[0][..];
            assert_eq!(read_frame(&mut r).unwrap(), payload);
        }
    }

    #[test]
    fn oversized_writes_are_refused() {
        let huge = vec![b'x'; MAX_FRAME + 1];
        let mut sink = CountingWriter::default();
        assert!(write_frame(&mut sink, &huge).is_err());
        assert!(sink.writes.is_empty(), "nothing must hit the wire");
    }

    #[test]
    fn garbage_tags_are_rejected() {
        assert!(Response::decode(b"").is_err());
        assert!(Response::decode(b"Zoops").is_err());
        assert!(Response::decode(&[b'R', 0xff, 0xfe]).is_err()); // invalid UTF-8
    }
}
