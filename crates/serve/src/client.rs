//! Gateway client: what `patternlets submit` (and the benches) speak.
//!
//! Thin wrappers over the HTTP substrate returning `String` errors —
//! these surface directly on a CLI, so they are written for humans, not
//! for matching.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use crate::http::{http_exchange, read_response_with};
use crate::json::{escape, Json};

/// Environment variable the CLI consults for the gateway address when
/// `--addr` is not given.
pub const ENV_GATEWAY: &str = "PMSERVE_ADDR";

/// What to submit.
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Patternlet catalog name.
    pub patternlet: String,
    /// World size.
    pub np: usize,
    /// Directive toggle.
    pub on: bool,
    /// Wire-chaos value (empty = daemon default).
    pub chaos: String,
    /// Worker-death retry budget (`None` = daemon default).
    pub retries: Option<u32>,
    /// Capture an execution trace (served at `GET /jobs/:id/trace` and
    /// analyzed at `GET /jobs/:id/analysis`).
    pub trace: bool,
}

impl SubmitSpec {
    /// The `POST /jobs` body.
    pub fn to_json(&self) -> String {
        let mut doc = format!(
            "{{\"patternlet\": \"{}\", \"np\": {}, \"on\": {}",
            escape(&self.patternlet),
            self.np,
            self.on
        );
        if !self.chaos.is_empty() {
            doc.push_str(&format!(", \"chaos\": \"{}\"", escape(&self.chaos)));
        }
        if let Some(r) = self.retries {
            doc.push_str(&format!(", \"retries\": {r}"));
        }
        if self.trace {
            doc.push_str(", \"trace\": true");
        }
        doc.push('}');
        doc
    }
}

/// A job's status document, decoded.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// `queued` / `running` / `completed` / `failed`.
    pub status: String,
    /// Failure reason, when failed.
    pub error: Option<String>,
    /// Output lines captured so far.
    pub lines: u64,
}

impl JobStatus {
    /// Terminal?
    pub fn is_terminal(&self) -> bool {
        self.status == "completed" || self.status == "failed"
    }
}

fn gateway_error(status: u16, body: &str) -> String {
    let detail = Json::parse(body)
        .and_then(|j| j.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| body.trim().to_string());
    format!("gateway answered {status}: {detail}")
}

/// Submit a job; returns its id.
pub fn submit(addr: &str, spec: &SubmitSpec) -> Result<u64, String> {
    let (status, body) = http_exchange(addr, "POST", "/jobs", Some(&spec.to_json()))
        .map_err(|e| format!("cannot reach pmserve at {addr}: {e}"))?;
    if status != 202 {
        return Err(gateway_error(status, &body));
    }
    Json::parse(&body)
        .and_then(|j| j.get("job").and_then(Json::as_u64))
        .ok_or_else(|| format!("malformed submit reply: {body}"))
}

/// One status poll.
pub fn status(addr: &str, job: u64) -> Result<JobStatus, String> {
    let (status, body) = http_exchange(addr, "GET", &format!("/jobs/{job}"), None)
        .map_err(|e| format!("cannot reach pmserve at {addr}: {e}"))?;
    if status != 200 {
        return Err(gateway_error(status, &body));
    }
    let doc = Json::parse(&body).ok_or_else(|| format!("malformed status reply: {body}"))?;
    Ok(JobStatus {
        status: doc
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        error: doc.get("error").and_then(Json::as_str).map(str::to_string),
        lines: doc.get("lines").and_then(Json::as_u64).unwrap_or(0),
    })
}

/// Poll until the job reaches a terminal phase.
pub fn wait(addr: &str, job: u64, poll: Duration) -> Result<JobStatus, String> {
    loop {
        let s = status(addr, job)?;
        if s.is_terminal() {
            return Ok(s);
        }
        std::thread::sleep(poll);
    }
}

/// Stream `GET /jobs/:id/output` into `out`, chunk by chunk, live until
/// the job ends. (This is the long-poll path; it blocks for the job's
/// duration.)
pub fn stream_output(addr: &str, job: u64, out: &mut impl Write) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot reach pmserve at {addr}: {e}"))?;
    write!(
        stream,
        "GET /jobs/{job}/output HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("request write: {e}"))?;
    let mut refusal = Vec::new();
    let status = read_response_with(&mut stream, |status, piece| {
        if status != 200 {
            refusal.extend_from_slice(piece);
            return Ok(());
        }
        out.write_all(piece)?;
        out.flush()
    })
    .map_err(|e| format!("stream read: {e}"))?;
    if status != 200 {
        return Err(gateway_error(status, &String::from_utf8_lossy(&refusal)));
    }
    Ok(())
}

/// Ask the daemon to drain and exit.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let (status, body) = http_exchange(addr, "POST", "/shutdown", None)
        .map_err(|e| format!("cannot reach pmserve at {addr}: {e}"))?;
    if status == 200 {
        Ok(())
    } else {
        Err(gateway_error(status, &body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_spec_renders_minimal_and_full_bodies() {
        let minimal = SubmitSpec {
            patternlet: "broadcast".into(),
            np: 4,
            on: false,
            chaos: String::new(),
            retries: None,
            trace: false,
        };
        let j = Json::parse(&minimal.to_json()).unwrap();
        assert_eq!(j.get("np").unwrap().as_u64(), Some(4));
        assert!(j.get("chaos").is_none());
        assert!(j.get("retries").is_none());
        assert!(j.get("trace").is_none());

        let full = SubmitSpec {
            patternlet: "reduction".into(),
            np: 2,
            on: true,
            chaos: "drop=0.01,seed=7".into(),
            retries: Some(2),
            trace: true,
        };
        let j = Json::parse(&full.to_json()).unwrap();
        assert_eq!(j.get("on").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("chaos").unwrap().as_str(), Some("drop=0.01,seed=7"));
        assert_eq!(j.get("retries").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("trace").unwrap().as_bool(), Some(true));
    }
}
