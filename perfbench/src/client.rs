//! A minimal keep-alive HTTP/1.1 client owned by the benchmark, so the
//! client's own cost stays fixed while the server changes. Responses are
//! framed by `Content-Length`, which the server always sends; a
//! `Connection: close` answer makes the next request reconnect.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    out: Vec<u8>,
    buf: Vec<u8>,
    body_start: usize,
    /// Connections opened after the first (the server closes a
    /// connection after a fixed number of requests).
    pub reconnects: u64,
    connected_once: bool,
}

impl Client {
    /// A client for `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            out: Vec::with_capacity(512),
            buf: Vec::with_capacity(64 * 1024),
            body_start: 0,
            reconnects: 0,
            connected_once: false,
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(120)))?;
            if self.connected_once {
                self.reconnects += 1;
            }
            self.connected_once = true;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Sends one request and reads the whole response; returns the status.
    /// The body stays readable through [`Self::body`] until the next call.
    ///
    /// # Errors
    ///
    /// Socket errors and malformed framing.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> std::io::Result<u16> {
        self.out.clear();
        let _ = write!(
            self.out,
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.out.extend_from_slice(body);
        let out = std::mem::take(&mut self.out);
        let sent = self.stream().and_then(|s| s.write_all(&out));
        self.out = out;
        if let Err(e) = sent {
            self.stream = None;
            return Err(e);
        }
        match self.read_response() {
            Ok(status) => Ok(status),
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn read_response(&mut self) -> std::io::Result<u16> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
        self.buf.clear();
        let stream = self.stream.as_mut().expect("request connected");
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let mut len = 0usize;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| bad("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
        while self.buf.len() < head_end + len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        self.body_start = head_end;
        self.buf.truncate(head_end + len);
        if close {
            self.stream = None;
        }
        Ok(status)
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    /// Closes the connection (the server's worker sees EOF and moves on).
    pub fn close(&mut self) {
        self.stream = None;
    }
}

/// The first position of `needle` in `hay`. Jumps between occurrences of
/// the needle's last byte — the `:` that ends a JSON key, the `\n` that
/// ends a header line — so finding a field near the head of a response
/// costs a few comparisons, not one per byte.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let last = *needle.last()?;
    let mut from = needle.len() - 1;
    while let Some(p) = hay.get(from..)?.iter().position(|&b| b == last) {
        let end = from + p + 1;
        if hay[..end].ends_with(needle) {
            return Some(end - needle.len());
        }
        from = end;
    }
    None
}

/// The raw text of a top-level field in a flat JSON response body, e.g.
/// `field(body, "cover")` → `Some(b"0.25")`; arrays come back with their
/// brackets. A response's only array (`order`) is its last field but the
/// `cache` tag, so an array's end is found from the back of the body and
/// a large answer is never scanned twice.
pub fn field<'a>(body: &'a [u8], name: &str) -> Option<&'a [u8]> {
    let mut key = Vec::with_capacity(name.len() + 3);
    key.push(b'"');
    key.extend_from_slice(name.as_bytes());
    key.extend_from_slice(b"\":");
    let start = find(body, &key)? + key.len();
    let rest = &body[start..];
    let end = if rest.first() == Some(&b'[') {
        rest.iter().rposition(|&b| b == b']')? + 1
    } else if rest.first() == Some(&b'"') {
        rest[1..].iter().position(|&b| b == b'"')? + 2
    } else {
        rest.iter()
            .position(|&b| b == b',' || b == b'}')
            .unwrap_or(rest.len())
    };
    Some(&rest[..end])
}

/// A field parsed as a number.
pub fn field_num<T: std::str::FromStr>(body: &[u8], name: &str) -> Option<T> {
    std::str::from_utf8(field(body, name)?).ok()?.parse().ok()
}

/// The `cache` tag of a solve-family response (`hit`, `prefix`, `warm`,
/// `miss`, `coalesced`), read from the end of the body where the server
/// puts it.
pub fn cache_tag(body: &[u8]) -> Option<&str> {
    const KEY: &[u8] = b"\"cache\":\"";
    let at = body.windows(KEY.len()).rposition(|w| w == KEY)? + KEY.len();
    let rest = &body[at..];
    let len = rest.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&rest[..len]).ok()
}

/// An FNV-1a-style hash over four interleaved 8-byte lanes, so hashing a
/// 250 KB answer is not one long multiply chain in the client.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [0xcbf2_9ce4_8422_2325u64; 4];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane ^= i as u64;
    }
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("eight bytes"));
            *lane = lane.wrapping_mul(PRIME);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in blocks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_a_solve_body() {
        let body = br#"{"generation":3,"algorithm":"lazy","variant":"normalized","k":2,"cover":0.5,"order":[4,7],"cache":"prefix"}"#;
        assert_eq!(field(body, "cover"), Some(&b"0.5"[..]));
        assert_eq!(field(body, "order"), Some(&b"[4,7]"[..]));
        assert_eq!(field_num::<u64>(body, "generation"), Some(3));
        assert_eq!(cache_tag(body), Some("prefix"));
        let cover = br#"{"generation":3,"algorithm":"lazy","variant":"normalized","k":2,"cover":0.5,"cache":"hit"}"#;
        assert_eq!(find(cover, b"\"k\":"), Some(58));
        assert_eq!(find(cover, b"\"kk\":"), None);
        assert_eq!(field(cover, "order"), None);
        assert_eq!(cache_tag(cover), Some("hit"));
    }

    #[test]
    fn hash_sees_every_byte() {
        let a: Vec<u8> = (0..100u8).collect();
        for i in 0..a.len() {
            let mut b = a.clone();
            b[i] ^= 1;
            assert_ne!(hash_bytes(&a), hash_bytes(&b), "byte {i}");
        }
        assert_ne!(hash_bytes(&a[..64]), hash_bytes(&a[..65]));
    }
}
