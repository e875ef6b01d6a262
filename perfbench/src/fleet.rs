//! The `fleet` workload's processes and its one client connection: a
//! `ringlab serve` daemon and two `ringlab worker --connect` workers (this
//! binary re-invoked in its `ringlab` mode, which is the `ringlab` entry
//! point itself), driven over HTTP.

use ring_experiments::SweepSpec;
use serde::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Workers of the fleet, each running one job: together the box's two
/// cores, as for the in-process workloads.
pub const WORKERS: usize = 2;

const START_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Fleet {
    base: PathBuf,
    addr: String,
    /// The daemon first, then the workers.
    children: Vec<Child>,
}

fn spawn_ringlab(args: &[&str], log: &Path) -> Result<Child, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let log =
        std::fs::File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
    Command::new(exe)
        .arg("ringlab")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot start `ringlab {}`: {e}", args.join(" ")))
}

fn wait_timeout(child: &mut Child, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Ok(Some(_)) = child.try_wait() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

impl Fleet {
    /// Starts the daemon and the workers under `base` and waits until every
    /// worker has registered.
    pub fn start(base: &Path) -> Result<Fleet, String> {
        std::fs::create_dir_all(base)
            .map_err(|e| format!("cannot create {}: {e}", base.display()))?;
        let data = base.join("data");
        let data_arg = data.to_string_lossy().into_owned();
        let daemon = spawn_ringlab(
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--data-dir",
                &data_arg,
                "--jobs",
                "1",
            ],
            &base.join("daemon.log"),
        )?;
        let mut fleet = Fleet {
            base: base.to_path_buf(),
            addr: String::new(),
            children: vec![daemon],
        };
        let deadline = Instant::now() + START_TIMEOUT;
        let endpoint = data.join("endpoint");
        loop {
            if let Ok(addr) = std::fs::read_to_string(&endpoint) {
                if !addr.trim().is_empty() {
                    fleet.addr = addr.trim().to_string();
                    break;
                }
            }
            fleet.check_alive()?;
            if Instant::now() > deadline {
                return Err(fleet.failure("the daemon published no endpoint"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for i in 0..WORKERS {
            let worker = spawn_ringlab(
                &["worker", "--connect", &fleet.addr],
                &base.join(format!("worker-{i}.log")),
            )?;
            fleet.children.push(worker);
        }
        loop {
            let (status, body) = http(&fleet.addr, "GET", "/v1/workers", "")?;
            let idle = parse_json(&body).ok().and_then(|v| {
                v.get("workers").and_then(Value::as_array).map(|ws| {
                    ws.iter()
                        .filter(|w| w.get("state").and_then(Value::as_str) == Some("idle"))
                        .count()
                })
            });
            if status == 200 && idle == Some(WORKERS) {
                return Ok(fleet);
            }
            fleet.check_alive()?;
            if Instant::now() > deadline {
                return Err(fleet.failure("the workers did not register"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn check_alive(&mut self) -> Result<(), String> {
        for i in 0..self.children.len() {
            if let Ok(Some(status)) = self.children[i].try_wait() {
                return Err(self.failure(&format!("process {i} of the fleet exited ({status})")));
            }
        }
        Ok(())
    }

    fn failure(&self, what: &str) -> String {
        let log = std::fs::read_to_string(self.base.join("daemon.log")).unwrap_or_default();
        format!("{what}; daemon log:\n{log}")
    }

    /// The run directory of daemon run `id`.
    pub fn run_dir(&self, id: u64) -> PathBuf {
        self.base
            .join("data")
            .join("runs")
            .join(format!("run-{id:04}"))
    }

    /// `POST /v1/runs` with the `tables` spec; returns the run id.
    pub fn submit(&self, spec: &SweepSpec) -> Result<u64, String> {
        let list = |xs: Vec<u64>| Value::Array(xs.into_iter().map(Value::Uint).collect());
        let body = Value::Object(vec![
            ("subcommand".into(), Value::Str("sweep".into())),
            (
                "sizes".into(),
                list(spec.sizes.iter().map(|&n| n as u64).collect()),
            ),
            (
                "universe_factors".into(),
                list(spec.universe_factors.clone()),
            ),
            ("reps".into(), Value::Uint(spec.repetitions)),
            ("seed".into(), Value::Uint(spec.seed)),
            ("structure_store".into(), Value::Bool(true)),
            ("shards".into(), Value::Uint(WORKERS as u64)),
        ]);
        let body = serde_json::to_string(&body).expect("serializable spec");
        let (status, reply) = http(&self.addr, "POST", "/v1/runs", &body)?;
        if status != 202 {
            return Err(format!(
                "POST /v1/runs answered {status}: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        parse_json(&reply)?
            .get("run")
            .and_then(Value::as_u64)
            .ok_or_else(|| "POST /v1/runs returned no run id".to_string())
    }

    /// Reads `GET /v1/runs/<id>/results` to the end. Returns the JSONL
    /// bytes and the instant the first complete record arrived.
    pub fn results(&self, id: u64) -> Result<(Vec<u8>, Option<Instant>), String> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        write!(
            stream,
            "GET /v1/runs/{id}/results HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        )
        .map_err(|e| format!("send: {e}"))?;
        let mut raw = Vec::new();
        let mut body_start = None;
        let mut first = None;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                break;
            }
            raw.extend_from_slice(&chunk[..n]);
            if body_start.is_none() {
                body_start = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
            }
            if let (Some(start), None) = (body_start, first) {
                if raw[start..].contains(&b'\n') {
                    first = Some(Instant::now());
                }
            }
        }
        let start = body_start.ok_or("the results response has no head")?;
        let head = String::from_utf8_lossy(&raw[..start]);
        if !head.starts_with("HTTP/1.1 200") {
            return Err(format!(
                "GET results answered `{}`",
                head.lines().next().unwrap_or("")
            ));
        }
        Ok((raw[start..].to_vec(), first))
    }

    /// Waits until daemon run `id` has merged (`status: complete`).
    pub fn wait_complete(&self, id: u64) -> Result<(), String> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let (_, body) = http(&self.addr, "GET", &format!("/v1/runs/{id}"), "")?;
            match parse_json(&body)?.get("status").and_then(Value::as_str) {
                Some("complete") => return Ok(()),
                Some("failed") => return Err(format!("daemon run {id} failed")),
                _ if Instant::now() > deadline => {
                    return Err(format!("daemon run {id} did not complete"))
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Peak resident memory of the daemon and the workers, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .map(|c| crate::report::peak_rss_mb(c.id()))
            .sum()
    }

    /// Asks the daemon to shut down (it dismisses the workers) and waits
    /// for every process; kills whatever does not exit in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = http(&self.addr, "POST", "/v1/shutdown", "");
        let mut clean = asked.is_ok();
        for child in &mut self.children {
            if !wait_timeout(child, EXIT_TIMEOUT) {
                clean = false;
                child.kill().ok();
                child.wait().ok();
            }
        }
        self.children.clear();
        if clean {
            Ok(())
        } else {
            Err("the fleet did not shut down cleanly".into())
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

fn parse_json(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("malformed JSON response: {e}"))
}

/// One request on its own connection (the daemon answers with
/// `Connection: close`); returns the status code and the body.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let start = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no head"))?;
    let status = std::str::from_utf8(&raw[..start])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok((status, raw[start + 4..].to_vec()))
}
