//! Minimal closed-loop client of the job server: one fresh connection
//! per job, the chunked JSON-lines stream decoded as it arrives so the
//! arrival of `job.accepted` and `job.done` can be timed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serve::json::{self, Json, JsonBuf};

use crate::workload::Pwc;

/// One scenario of a job: its stimulus and step count.
#[derive(Debug, Clone, Copy)]
pub struct JobScenario {
    /// Stimulus parameters (sent as `"kind": "pwc"`).
    pub stim: Pwc,
    /// Steps.
    pub steps: usize,
}

/// Request body of a sweep job.
pub fn job_body(module: &str, dt: f64, lane_width: usize, scenarios: &[JobScenario]) -> String {
    let mut b = JsonBuf::new();
    b.begin_obj()
        .str_field("module", module)
        .f64_field("dt", dt)
        .str_field("output", "V(out)")
        .u64_field("lane_width", lane_width as u64);
    b.begin_arr("scenarios");
    for (i, sc) in scenarios.iter().enumerate() {
        b.begin_obj()
            .str_field("name", &format!("s{i}"))
            .u64_field("steps", sc.steps as u64)
            .key("stim");
        b.begin_obj()
            .str_field("kind", "pwc")
            .u64_field("seed", sc.stim.seed)
            .u64_field("segments", sc.stim.segments as u64)
            .f64_field("hold", sc.stim.hold)
            .f64_field("lo", 0.0)
            .f64_field("hi", 1.0)
            .end_obj();
        b.end_obj();
    }
    b.end_arr();
    b.end_obj();
    b.into_string()
}

/// What the client saw of one job.
#[derive(Debug)]
pub struct JobReply {
    /// HTTP status.
    pub status: u16,
    /// Decoded records, in stream order.
    pub records: Vec<Json>,
    /// Seconds from request write to the `job.accepted` record.
    pub accept_s: f64,
    /// Seconds from request write to the `job.done` record.
    pub done_s: f64,
    /// Body bytes received.
    pub bytes: usize,
}

impl JobReply {
    /// The `cache` verdict of `job.accepted`, if the job was accepted.
    pub fn cache_verdict(&self) -> Option<&str> {
        self.records.first()?.get("cache")?.as_str()
    }

    /// Whether the job completed with every scenario healthy: status
    /// 200, no typed error record, and a `job.done` whose `ok` equals
    /// `scenarios`.
    pub fn healthy(&self, scenarios: usize) -> bool {
        let typed = |r: &Json| r.get("type").and_then(Json::as_str).map(str::to_string);
        let done_ok = self
            .records
            .last()
            .filter(|r| typed(r).as_deref() == Some("job.done"))
            .and_then(|r| r.get("ok"))
            .and_then(Json::as_u64);
        let scenario_ok = self
            .records
            .iter()
            .filter(|r| typed(r).as_deref() == Some("scenario"))
            .all(|r| r.get("status").and_then(Json::as_str) == Some("ok"));
        self.status == 200 && scenario_ok && done_ok == Some(scenarios as u64)
    }

    /// Waveform of scenario record `i`.
    pub fn waveform(&self, i: usize) -> Option<Vec<f64>> {
        let rec = self.records.get(1 + i)?;
        if rec.get("index").and_then(Json::as_u64) != Some(i as u64) {
            return None;
        }
        rec.get("waveform")?
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect()
    }
}

/// POSTs `body` on a fresh connection and reads the whole reply;
/// `on_sent` runs once the request is written.
///
/// # Errors
///
/// Socket errors and malformed replies, as text.
pub fn post_job(addr: SocketAddr, body: &str, on_sent: impl FnOnce()) -> Result<JobReply, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let start = Instant::now();
    s.write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    on_sent();
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line)
        .map_err(|e| format!("status line: {e}"))?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or(format!("bad status line {line:?}"))?;
    let mut chunked = false;
    loop {
        line.clear();
        r.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        let lower = h.to_ascii_lowercase();
        if lower.starts_with("transfer-encoding") && lower.contains("chunked") {
            chunked = true;
        }
    }
    let mut reply = JobReply {
        status,
        records: Vec::new(),
        accept_s: 0.0,
        done_s: 0.0,
        bytes: 0,
    };
    // Records are only split and classified while the stream is timed;
    // JSON decoding waits until the job is done, so client-side parsing
    // never shows in the latencies.
    let mut pending = String::new();
    let mut lines: Vec<String> = Vec::new();
    let mut take_lines = |text: &str, reply: &mut JobReply| {
        pending.push_str(text);
        while let Some(nl) = pending.find('\n') {
            let rec: String = pending.drain(..=nl).collect();
            let rec = rec.trim();
            if rec.is_empty() {
                continue;
            }
            let now = start.elapsed().as_secs_f64();
            if rec.starts_with("{\"type\":\"job.accepted\"") {
                reply.accept_s = now;
            } else if rec.starts_with("{\"type\":\"job.done\"") {
                reply.done_s = now;
            }
            lines.push(rec.to_string());
        }
    };
    if chunked {
        loop {
            line.clear();
            r.read_line(&mut line)
                .map_err(|e| format!("chunk size: {e}"))?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| format!("bad chunk size {line:?}"))?;
            if size == 0 {
                break;
            }
            let mut buf = vec![0u8; size + 2];
            r.read_exact(&mut buf).map_err(|e| format!("chunk: {e}"))?;
            reply.bytes += size;
            let text = std::str::from_utf8(&buf[..size]).map_err(|e| e.to_string())?;
            take_lines(text, &mut reply);
        }
    } else {
        let mut rest = String::new();
        r.read_to_string(&mut rest)
            .map_err(|e| format!("body: {e}"))?;
        reply.bytes += rest.len();
        take_lines(&rest, &mut reply);
        take_lines("\n", &mut reply);
    }
    if reply.done_s == 0.0 {
        reply.done_s = start.elapsed().as_secs_f64();
    }
    reply.records = lines
        .iter()
        .map(|l| json::parse(l).map_err(|e| format!("record: {e:?}")))
        .collect::<Result<_, _>>()?;
    Ok(reply)
}
