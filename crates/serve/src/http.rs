//! HTTP/1.1 framing: request parsing and response writing over any
//! `Read`/`Write` pair.
//!
//! This is a deliberately small, dependency-free subset of HTTP/1.1 —
//! enough for the job API and nothing else:
//!
//! * request line + headers + `Content-Length` bodies (no chunked
//!   transfer encoding, no trailers, no upgrades);
//! * keep-alive by default, honoring `Connection: close` and HTTP/1.0
//!   semantics;
//! * hard limits on header and body sizes, so a hostile peer cannot
//!   balloon memory.

use std::io::{BufRead, Write};

/// Upper bound on the request line plus all headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The decoded path component of the target (no query string).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw `(name, value)` header pairs, in order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when this request asks the connection to close afterwards
    /// (`Connection: close`, or an HTTP/1.0 request without keep-alive).
    pub close: bool,
}

impl Request {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The connection closed cleanly before a request started.
    Eof,
    /// The peer sent something that is not HTTP/1.x.
    Malformed(String),
    /// The head section exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeded the server's body limit.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured limit it exceeded.
        limit: usize,
    },
    /// The request used a transfer mechanism this server does not speak
    /// (e.g. `Transfer-Encoding: chunked`).
    Unsupported(String),
    /// The socket failed mid-request.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Eof => write!(f, "connection closed"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::Unsupported(m) => write!(f, "unsupported request: {m}"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Reads one request from `reader`. `max_body` bounds the accepted
/// `Content-Length`. Returns [`HttpError::Eof`] on a clean close before
/// the first byte of a request.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let mut head_bytes = 0usize;
    let request_line = read_line(reader, &mut head_bytes)?;
    if request_line.is_empty() {
        return Err(HttpError::Eof);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no target".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let http10 = version == "HTTP/1.0";

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(HttpError::Unsupported("transfer-encoding".into()));
    }
    let content_length = match header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length: {v}")))?,
    };
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;

    let close = match header("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => true,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
        _ => http10,
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    let path = percent_decode(raw_path);
    let query = raw_query.map(parse_query).unwrap_or_default();

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        close,
    })
}

fn read_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(String::new());
                }
                return Err(HttpError::Malformed("truncated header line".into()));
            }
            Ok(_) => {
                *head_bytes += 1;
                if *head_bytes > MAX_HEAD_BYTES {
                    return Err(HttpError::HeadTooLarge);
                }
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header".into()));
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Decodes `k=v&k2=v2` with percent-escapes and `+`-as-space.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| std::str::from_utf8(h).ok()) {
                    Some(h) => match u8::from_str_radix(h, 16) {
                        Ok(b) => {
                            out.push(b);
                            i += 3;
                        }
                        Err(_) => {
                            out.push(b'%');
                            i += 1;
                        }
                    },
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the framing set the writer adds.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: &crate::json::Json) -> Self {
        Self::new(status)
            .with_header("content-type", "application/json")
            .with_body(body.encode().into_bytes())
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(status)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }
}

/// Writes `response` in wire format. `close` controls the `Connection`
/// header (the caller decides connection lifetime).
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    close: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\n",
        response.status,
        reason_phrase(response.status)
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n", response.body.len()));
    head.push_str(if close {
        "connection: close\r\n"
    } else {
        "connection: keep-alive\r\n"
    });
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

/// The standard reason phrase for the status codes this API uses.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /jobs?limit=5&offset=2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query_param("limit"), Some("5"));
        assert_eq!(req.query_param("offset"), Some("2"));
        assert!(!req.close);
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn honors_connection_close_and_http10() {
        assert!(
            parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .close
        );
        assert!(parse("GET / HTTP/1.0\r\n\r\n").unwrap().close);
        assert!(
            !parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .close
        );
    }

    #[test]
    fn rejects_oversized_bodies_and_chunked() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ncontent-length: 9999\r\n\r\n"),
            Err(HttpError::BodyTooLarge { .. })
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(HttpError::Unsupported(_))
        ));
    }

    #[test]
    fn clean_eof_is_typed() {
        assert!(matches!(parse(""), Err(HttpError::Eof)));
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let req = parse("GET /jobs%2F1?q=a%20b+c HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/jobs/1");
        assert_eq!(req.query_param("q"), Some("a b c"));
    }

    #[test]
    fn response_wire_format_is_framed() {
        let mut out = Vec::new();
        let resp = Response::text(200, "hi");
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }
}
