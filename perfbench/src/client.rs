//! The server under test as a child process, and a blocking
//! line-protocol client for it.

use revkb_server::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Flags every workload's server runs with; `durable-mix` adds
/// `--data-dir` (fresh per server), `--wal-sync always` and the
/// default snapshot cadence.
pub const BASE_FLAGS: &[&str] = &[
    "--listen",
    "127.0.0.1:0",
    "--io",
    "evloop",
    "--threads",
    "2",
    "--queue",
    "64",
    "--cache-cap",
    "64",
    "--deadline-ms",
    "120000",
];

pub const DURABLE_FLAGS: &[&str] = &["--wal-sync", "always", "--snapshot-every", "8"];

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which
/// is 100 on every supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

pub struct ServerProc {
    child: Child,
    /// Held open so a late write to stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    data_dir: Option<PathBuf>,
}

impl ServerProc {
    /// Start `revkb-server` (built next to this binary) and wait for
    /// its `listening ADDR` line. `data_dir` must not exist yet; it is
    /// removed again when the server stops.
    pub fn spawn(data_dir: Option<PathBuf>) -> io::Result<ServerProc> {
        let exe = std::env::current_exe()?.with_file_name("revkb-server");
        let mut cmd = Command::new(exe);
        cmd.args(BASE_FLAGS);
        if let Some(dir) = &data_dir {
            cmd.arg("--data-dir").arg(dir).args(DURABLE_FLAGS);
        }
        // Pin the configuration: no inherited REVKB_* knob may change it.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("REVKB_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server did not announce its address: {line:?}"
            )));
        };
        Ok(ServerProc {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
            data_dir,
        })
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = self.proc_file("status")?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// User plus system CPU time consumed so far, in ms.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok((ticks(11)? + ticks(12)?) * 1000.0 / TICKS_PER_SEC)
    }

    /// Ask the server to shut down and wait for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = Conn::connect(&self.addr).and_then(|mut c| c.call("{\"cmd\":\"shutdown\"}"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.child.try_wait()?.is_some() {
                break;
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                self.child.wait()?;
                return Err(io::Error::other("server ignored shutdown; killed"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        asked.map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One client connection: a request line out, a response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Send one request line and read its response; returns the parsed
    /// response and the round-trip time in ns.
    pub fn call(&mut self, line: &str) -> io::Result<(Json, u64)> {
        let start = Instant::now();
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.buf.clear();
        let n = self.reader.read_line(&mut self.buf)?;
        let ns = start.elapsed().as_nanos() as u64;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let json = Json::parse(self.buf.trim_end())
            .map_err(|e| io::Error::other(format!("unparsable response: {e}")))?;
        Ok((json, ns))
    }
}
