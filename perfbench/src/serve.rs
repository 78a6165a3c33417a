//! The `serve_mixed` workload: an in-process `orion_serve::Server` on
//! loopback, a base grid pre-simulated into its cache, and closed-loop
//! clients that each wait for a summary line before sending the next
//! grid.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use orion_exp::record::{parse_flat_object, JsonVal};
use orion_exp::{
    run_spec, CellRecord, CellRunner, EngineOptions, ExperimentSpec, ResultCache, Supervision,
    CACHE_FILE,
};
use orion_serve::{ServeConfig, ServeOutcome, Server, ShutdownHandle};

use crate::check::is_failure;
use crate::specs;
use crate::trace::Tracer;

/// Server worker slots.
pub const WORKERS: usize = 2;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// A running server over a cache holding the pre-simulated base grid.
pub struct Daemon {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<io::Result<ServeOutcome>>,
    /// Base-grid record lines by cell key, as set-up produced them.
    pub base_lines: BTreeMap<String, String>,
    /// The base seeds.
    pub base_seeds: BTreeSet<u64>,
    /// Base cells set-up simulated that failed.
    pub base_failures: usize,
    /// Milliseconds `ResultCache::open` took on the filled cache.
    pub cache_open_ms: f64,
}

impl Daemon {
    /// Pre-simulates the base grid into `dir/cache` (emptied first),
    /// then binds the server over it and starts it on its own thread.
    /// With `trace_copy`, the filled cache is also copied there before
    /// the server opens it.
    pub fn start(seed: u64, dir: &Path, trace_copy: Option<&Path>) -> io::Result<Daemon> {
        match fs::remove_dir_all(dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let cache = dir.join("cache");
        fs::create_dir_all(&cache)?;
        let spec = ExperimentSpec::parse(&specs::serve_base(seed))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let opts = EngineOptions {
            threads: WORKERS,
            cache_dir: Some(cache.clone()),
            ..EngineOptions::default()
        };
        let (records, _) = run_spec(&spec, &opts)?;
        let base_failures = records.iter().filter(|r| is_failure(r)).count();
        let base_lines = records
            .iter()
            .map(|r| (r.cell.clone(), r.to_json_line()))
            .collect();
        let opened = Instant::now();
        drop(ResultCache::open(&cache)?);
        let cache_open_ms = opened.elapsed().as_secs_f64() * 1e3;
        if let Some(copy) = trace_copy {
            fs::create_dir_all(copy)?;
            fs::copy(cache.join(CACHE_FILE), copy.join(CACHE_FILE))?;
        }
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: Some(cache),
            workers: WORKERS,
            ..ServeConfig::default()
        })?;
        let addr = server.local_addr()?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            shutdown,
            thread,
            base_lines,
            base_seeds: specs::serve_base_seeds(seed).into_iter().collect(),
            base_failures,
            cache_open_ms,
        })
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains the server and waits for its thread.
    pub fn stop(self) -> io::Result<ServeOutcome> {
        self.shutdown.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("the server thread panicked"))?
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Request index (its new seed column derives from it).
    pub index: u64,
    /// When the request was fully written.
    pub written: Instant,
    /// When the response head was read.
    pub head: Instant,
    /// When the first record line was read.
    pub first_record: Option<Instant>,
    /// When the summary line was read (or the response ended).
    pub done: Instant,
    /// HTTP status.
    pub status: u16,
    /// Flits delivered over the streamed records.
    pub flits: u64,
    /// Why the response fails its checks, if it does.
    pub error: Option<String>,
}

impl Exchange {
    /// Request written to summary read, in seconds.
    pub fn latency_s(&self) -> f64 {
        self.done.duration_since(self.written).as_secs_f64()
    }
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// The lines of a chunked body, each with the time it was read.
fn read_chunked_lines(reader: &mut impl BufRead) -> io::Result<Vec<(String, Instant)>> {
    let mut lines = Vec::new();
    let mut pending = Vec::new();
    loop {
        let size = read_line(reader)?;
        let size = usize::from_str_radix(size.trim(), 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            return Ok(lines);
        }
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk)?;
        pending.extend_from_slice(&chunk[..size]);
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..nl]).into_owned();
            lines.push((text, Instant::now()));
        }
    }
}

/// What a client checks each response against.
pub struct Expect<'a> {
    /// Base-grid record lines by cell key.
    pub base_lines: &'a BTreeMap<String, String>,
    /// The base seeds.
    pub base_seeds: &'a BTreeSet<u64>,
}

/// Sends request `index` and reads the whole response, checking it.
pub fn exchange(
    addr: SocketAddr,
    seed: u64,
    index: u64,
    client: usize,
    expect: &Expect,
) -> Exchange {
    let body = specs::serve_request(seed, index);
    let started = Instant::now();
    let mut ex = Exchange {
        index,
        written: started,
        head: started,
        first_record: None,
        done: started,
        status: 0,
        flits: 0,
        error: None,
    };
    if let Err(e) = exchange_io(addr, &body, client, expect, &mut ex) {
        ex.error.get_or_insert(format!("I/O: {e}"));
        ex.done = Instant::now();
    }
    ex
}

fn exchange_io(
    addr: SocketAddr,
    body: &str,
    client: usize,
    expect: &Expect,
    ex: &mut Exchange,
) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "POST /v1/experiment HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/toml\r\n\
         Content-Length: {}\r\nX-Orion-Client: bench-{client}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    ex.written = Instant::now();
    let mut reader = BufReader::new(stream);
    let status_line = read_line(&mut reader)?;
    ex.status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut chunked = false;
    loop {
        let header = read_line(&mut reader)?;
        if header.is_empty() {
            break;
        }
        chunked |= header.eq_ignore_ascii_case("transfer-encoding: chunked");
    }
    ex.head = Instant::now();
    if ex.status != 200 || !chunked {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        ex.done = Instant::now();
        ex.error = Some(format!("HTTP {}: {}", ex.status, rest.trim()));
        return Ok(());
    }
    let lines = read_chunked_lines(&mut reader)?;
    ex.done = lines.last().map_or_else(Instant::now, |(_, at)| *at);
    ex.error = check_stream(&lines, expect, ex);
    Ok(())
}

/// Checks a response body: a header, one valid record per cell (base
/// cells byte-identical to set-up's), and a `complete` summary whose
/// `streamed` equals `cells`.
fn check_stream(lines: &[(String, Instant)], expect: &Expect, ex: &mut Exchange) -> Option<String> {
    let mut records = 0usize;
    let mut summary = None;
    for (line, at) in lines {
        let Some(obj) = parse_flat_object(line) else {
            return Some(format!("unparseable line {line}"));
        };
        match obj.get("type").and_then(JsonVal::as_str) {
            Some("header") => {}
            Some("summary") => summary = Some(obj),
            Some(other) => return Some(format!("unexpected line type {other}")),
            None => {
                ex.first_record.get_or_insert(*at);
                records += 1;
                let Some(record) = CellRecord::from_json_line(line) else {
                    return Some(format!("unparseable record {line}"));
                };
                if is_failure(&record) {
                    return Some(format!(
                        "cell {} failed: {}",
                        record.cell, record.cell_outcome
                    ));
                }
                ex.flits += record.flits_delivered;
                if expect.base_seeds.contains(&record.seed)
                    && expect.base_lines.get(&record.cell) != Some(line)
                {
                    return Some(format!(
                        "cached record {} differs from set-up's",
                        record.cell
                    ));
                }
            }
        }
    }
    let Some(summary) = summary else {
        return Some("stream ended without a summary".to_string());
    };
    let field = |k: &str| summary.get(k).and_then(JsonVal::as_u64);
    let status = summary.get("status").and_then(JsonVal::as_str);
    if status != Some("complete")
        || field("streamed") != field("cells")
        || field("cells") != Some(specs::SERVE_REQUEST_CELLS as u64)
        || records != specs::SERVE_REQUEST_CELLS
    {
        return Some(format!("incomplete stream: {status:?}, {records} records"));
    }
    None
}

/// Runs `CLIENTS` closed-loop clients, each until it has made
/// `per_client` requests or `deadline` has passed. Client `c` sends
/// indices `first + c`, `first + c + CLIENTS`, ...; `after` runs on the
/// client's thread after each exchange.
pub fn closed_loop<F>(
    addr: SocketAddr,
    seed: u64,
    first: u64,
    (per_client, deadline): (usize, Instant),
    expect: &Expect,
    after: F,
) -> Vec<Exchange>
where
    F: Fn(&Exchange, usize) + Sync,
{
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let after = &after;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut index = first + c as u64;
                    while done.len() < per_client && Instant::now() < deadline {
                        let ex = exchange(addr, seed, index, c, expect);
                        after(&ex, c);
                        done.push(ex);
                        index += CLIENTS as u64;
                    }
                    done
                })
            })
            .collect();
        let mut all: Vec<Exchange> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("a client thread panicked"))
            .collect();
        all.sort_by_key(|e| e.index);
        all
    })
}

/// The traced side of a request: the spans of the exchange itself,
/// then the same request re-issued through `ExperimentSpec::parse`
/// and `CellRunner::run` on a runner over a copy of the base cache.
pub fn trace_exchange(ex: &Exchange, seed: u64, runner: &CellRunner, tr: &mut Tracer) {
    let op = ex.index;
    let root = tr.record("serve.request", None, op, ex.written, ex.done);
    tr.record("serve.ttfb", Some(root), op, ex.written, ex.head);
    tr.record("serve.stream", Some(root), op, ex.head, ex.done);
    if let Some(first) = ex.first_record {
        tr.sample(
            "serve.first_record_ns",
            first.duration_since(ex.written).as_nanos() as f64,
        );
    }
    let body = specs::serve_request(seed, ex.index);
    let s = tr.begin("exp.spec_parse", None, op);
    let spec = ExperimentSpec::parse(&body);
    tr.end(s);
    let Ok(spec) = spec else { return };
    let sup = Supervision::default();
    for cell in spec.expand() {
        let s = tr.begin("exp.cell", None, op);
        let record = runner.run(&cell, &sup);
        tr.end_as(
            s,
            if record.cached {
                "exp.cell_hit"
            } else {
                "exp.cell_miss"
            },
        );
        tr.sample("exp.cache_lookups", 1.0);
        if record.cached {
            tr.sample("exp.cache_hits", 1.0);
        }
    }
}
