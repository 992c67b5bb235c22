//! Splits a pipelined HTTP/1.1 response byte stream into replies.
//!
//! Reads on a pipelined connection end anywhere: one read may carry
//! half a head, or several whole replies and the start of the next.
//! The splitter accumulates bytes and yields complete replies in order;
//! only `Content-Length` framing is supported, as the server sends.

use std::fmt;

/// Largest head accepted before the stream is declared malformed.
const MAX_HEAD: usize = 64 * 1024;

/// A complete reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes, kept only when asked for.
    pub body: Option<Vec<u8>>,
}

/// A stream that is not a sequence of well-formed replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitError(pub String);

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed reply stream: {}", self.0)
    }
}

impl std::error::Error for SplitError {}

/// Accumulates response bytes and splits them into replies.
#[derive(Debug, Default)]
pub struct ReplySplitter {
    buf: Vec<u8>,
    start: usize,
}

impl ReplySplitter {
    /// Append bytes read from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a reply.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete reply, if the buffer holds one. `keep_body`
    /// copies its body out.
    ///
    /// # Errors
    ///
    /// A head without a status code or with an unparseable
    /// `Content-Length`, or one longer than 64 KiB.
    pub fn next_reply(&mut self, keep_body: bool) -> Result<Option<Reply>, SplitError> {
        let data = &self.buf[self.start..];
        let Some(head_len) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            if data.len() > MAX_HEAD {
                return Err(SplitError("head longer than 64 KiB".into()));
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&data[..head_len])
            .map_err(|_| SplitError("non-UTF-8 head".into()))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| SplitError(format!("bad status line in {head:?}")))?;
        let mut body_len = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    body_len = value
                        .trim()
                        .parse()
                        .map_err(|_| SplitError(format!("bad content-length {value:?}")))?;
                }
            }
        }
        let total = head_len + 4 + body_len;
        if data.len() < total {
            return Ok(None);
        }
        let body = keep_body.then(|| data[head_len + 4..total].to_vec());
        self.start += total;
        Ok(Some(Reply { status, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\ncontent-length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn drain(splitter: &mut ReplySplitter) -> Vec<Reply> {
        let mut out = Vec::new();
        while let Some(r) = splitter.next_reply(true).expect("well formed") {
            out.push(r);
        }
        out
    }

    #[test]
    fn coalesced_reads_yield_every_reply_in_order() {
        let mut stream = reply(200, r#"{"a":1}"#);
        stream.extend(reply(412, ""));
        stream.extend(reply(201, r#"{"volume":{"id":7}}"#));
        let mut s = ReplySplitter::default();
        s.push(&stream);
        let got = drain(&mut s);
        assert_eq!(
            got.iter().map(|r| r.status).collect::<Vec<_>>(),
            [200, 412, 201]
        );
        assert_eq!(got[2].body.as_deref(), Some(&br#"{"volume":{"id":7}}"#[..]));
        assert_eq!(got[1].body.as_deref(), Some(&b""[..]));
        assert_eq!(s.pending_bytes(), 0);
    }

    #[test]
    fn split_reads_yield_nothing_until_a_reply_completes() {
        let mut stream = reply(200, r#"{"long":"body text"}"#);
        stream.extend(reply(404, "{}"));
        // Feed one byte at a time: every cut point, heads and bodies.
        let mut s = ReplySplitter::default();
        let mut got = Vec::new();
        for byte in &stream {
            s.push(std::slice::from_ref(byte));
            got.extend(drain(&mut s));
        }
        assert_eq!(got.iter().map(|r| r.status).collect::<Vec<_>>(), [200, 404]);
        assert_eq!(
            got[0].body.as_deref(),
            Some(&br#"{"long":"body text"}"#[..])
        );
        // Cut inside the second head, then complete it.
        let first = reply(204, "").len();
        let mut two = reply(204, "");
        two.extend(reply(200, "[1]"));
        let mut s = ReplySplitter::default();
        s.push(&two[..first + 5]);
        assert_eq!(drain(&mut s).len(), 1);
        s.push(&two[first + 5..]);
        assert_eq!(drain(&mut s)[0].status, 200);
    }

    #[test]
    fn malformed_heads_are_errors() {
        let mut s = ReplySplitter::default();
        s.push(b"HTTP/1.1 abc\r\n\r\n");
        assert!(s.next_reply(false).is_err());
        let mut s = ReplySplitter::default();
        s.push(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n");
        assert!(s.next_reply(false).is_err());
    }
}
