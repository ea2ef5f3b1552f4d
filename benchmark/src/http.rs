//! One HTTP/1.1 request per connection, as `noc-serviced` serves them:
//! `Connection: close`, body read to end of stream.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Status code and body of a response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Send one request to `addr` (`127.0.0.1:PORT`) and read the reply.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
    })
}

fn parse_response(raw: &str) -> Option<Response> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status = head
        .lines()
        .next()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(Response {
        status,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw = "HTTP/1.1 201 Created\r\nContent-Length: 19\r\n\r\n{\"id\":\"job-000001\"}";
        assert_eq!(
            parse_response(raw),
            Some(Response {
                status: 201,
                body: "{\"id\":\"job-000001\"}".into()
            })
        );
        assert_eq!(parse_response("garbage"), None);
    }
}
