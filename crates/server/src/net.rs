//! Line-oriented TCP serving of a [`SharedDatabase`] on a fixed
//! worker pool.
//!
//! One statement per line in, a small tagged-line response out:
//!
//! ```text
//! client: CREATE TABLE t (a INT, b TEXT)
//! server: OK 0
//! client: INSERT INTO t VALUES (1, 'x'), (2, 'y')
//! server: OK 2
//! client: SELECT v.a, v.b FROM t v
//! server: COLS v.a\tv.b
//! server: ROW 1\t'x'
//! server: ROW 2\t'y'
//! server: OK 2
//! client: SELECT nonsense
//! server: ERR SQL syntax error: ...
//! ```
//!
//! # Threading model
//!
//! The server no longer spawns a thread per connection. Three kinds of
//! thread cooperate over a shared connection table:
//!
//! - An **acceptor** takes new connections off the listener, wraps each
//!   in a [`ServerSession`], and parks it in the table. An idle
//!   connection is just a nonblocking socket plus session state — it
//!   costs no thread.
//! - A **dispatcher** sweeps the table, draining readable sockets into
//!   per-connection input buffers. The moment a buffer holds a complete
//!   line, the connection is checked out of the table and queued.
//! - A fixed pool of **workers** (`max(available_parallelism, 8)`)
//!   takes queued connections, executes every buffered statement in
//!   arrival order, writes the responses, and parks the connection
//!   back. A connection is owned by at most one worker at a time, so
//!   statements on one connection never reorder or interleave — while
//!   statements on *different* connections run on as many workers (and
//!   through the statement latch's read side, for snapshot SELECTs) as
//!   the machine allows.
//!
//! `BEGIN` / `COMMIT` / `ROLLBACK` work per connection (each
//! connection is one [`ServerSession`]); disconnecting mid-transaction
//! rolls it back, because dropping the checked-out connection drops its
//! session. The protocol carries no typing — it exists so N clients can
//! hammer one database over sockets (and so the coupling layer could
//! sit on the far side of a wire, as in the paper's front-end/DBMS
//! split), not as a competitor to real drivers. The [`Client`] helper
//! speaks the same protocol for tests, benchmarks and examples.

use crate::{ServerSession, SharedDatabase};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the acceptor and dispatcher doze when nothing is readable.
/// Short enough that statement latency stays well under a millisecond
/// of queueing on an idle server, long enough not to spin a core.
const SWEEP_IDLE: Duration = Duration::from_micros(500);

/// Most unterminated input one connection may buffer. A peer past it
/// with no newline gets one `ERR` line, best effort, and is dropped,
/// which rolls its open transaction back.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One parked connection: a nonblocking socket, its session, and the
/// bytes read so far that do not yet form a complete line.
struct Conn {
    /// Declared before `stream`, so a dropped connection rolls its
    /// transaction back before the peer sees EOF.
    session: ServerSession,
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// The peer half-closed (EOF): execute what is buffered, then drop.
    eof: bool,
}

/// A connection-table slot. `Busy` marks a connection checked out by
/// the queue or a worker: the slot cannot be reused until the worker
/// parks the connection back (or drops it, making the slot `Vacant`).
enum Slot {
    Vacant,
    Idle(Conn),
    Busy,
}

/// State shared by the acceptor, the dispatcher, and the workers.
struct PoolShared {
    shutdown: AtomicBool,
    /// The connection table. Slots are reused after a disconnect.
    conns: Mutex<Vec<Slot>>,
    /// Connections with at least one complete line buffered, in the
    /// order the dispatcher found them.
    jobs: Mutex<VecDeque<(usize, Conn)>>,
    jobs_ready: Condvar,
}

/// A running TCP server. Dropping (or [`Server::stop`]) shuts the
/// acceptor, dispatcher and worker pool down; statements already
/// executing finish, parked connections are dropped (rolling back any
/// open transaction).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves sessions of `db` on a fixed worker pool sized
    /// `max(available_parallelism, 8)`.
    pub fn start(db: SharedDatabase, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(PoolShared {
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            jobs: Mutex::new(VecDeque::new()),
            jobs_ready: Condvar::new(),
        });
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(8);
        let mut threads = Vec::with_capacity(workers + 2);
        let accept_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(&accept_shared, &listener, &db);
        }));
        let dispatch_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            dispatch_loop(&dispatch_shared);
        }));
        for _ in 0..workers {
            let worker_shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                worker_loop(&worker_shared);
            }));
        }
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins every thread.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.jobs_ready.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // Parked sessions roll their transactions back on drop.
        lock(&self.shared.conns).clear();
        lock(&self.shared.jobs).clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Accepts connections and parks them in the table (reusing vacant
/// slots) until shutdown.
fn accept_loop(shared: &PoolShared, listener: &TcpListener, db: &SharedDatabase) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Statement/response exchanges are small and
                // latency-sensitive; never wait out Nagle's algorithm.
                let _ = stream.set_nodelay(true);
                let conn = Conn {
                    session: db.session(),
                    stream,
                    inbuf: Vec::new(),
                    eof: false,
                };
                let mut conns = lock(&shared.conns);
                match conns.iter_mut().find(|s| matches!(s, Slot::Vacant)) {
                    Some(slot) => *slot = Slot::Idle(conn),
                    None => conns.push(Slot::Idle(conn)),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(SWEEP_IDLE);
            }
            Err(_) => break,
        }
    }
}

/// Sweeps the connection table: drains readable sockets into their
/// input buffers and hands every connection holding a complete line to
/// the worker queue.
fn dispatch_loop(shared: &PoolShared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut ready = Vec::new();
        {
            let mut conns = lock(&shared.conns);
            for (idx, slot) in conns.iter_mut().enumerate() {
                let Slot::Idle(conn) = slot else { continue };
                let alive = drain_socket(conn);
                if conn.inbuf.contains(&b'\n') {
                    let Slot::Idle(conn) = std::mem::replace(slot, Slot::Busy) else {
                        unreachable!()
                    };
                    ready.push((idx, conn));
                } else if conn.inbuf.len() > MAX_LINE_BYTES {
                    let err = format!("ERR statement exceeds {MAX_LINE_BYTES} bytes\n");
                    let _ = conn.stream.write_all(err.as_bytes());
                    *slot = Slot::Vacant;
                } else if !alive || conn.eof {
                    // Nothing runnable and the peer is gone.
                    *slot = Slot::Vacant;
                }
            }
        }
        let progressed = !ready.is_empty();
        if progressed {
            let mut jobs = lock(&shared.jobs);
            for job in ready {
                jobs.push_back(job);
            }
            drop(jobs);
            shared.jobs_ready.notify_all();
        } else {
            std::thread::sleep(SWEEP_IDLE);
        }
    }
}

/// Nonblocking read of everything the socket has, stopping once the
/// buffer passes [`MAX_LINE_BYTES`]; returns `false` on a connection
/// error. EOF sets `conn.eof` instead so already-buffered statements
/// still run.
fn drain_socket(conn: &mut Conn) -> bool {
    let mut buf = [0u8; 4096];
    while conn.inbuf.len() <= MAX_LINE_BYTES {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                return true;
            }
            Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Takes queued connections, executes their buffered statements, and
/// parks them back (or drops them on disconnect).
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut jobs = lock(&shared.jobs);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                jobs = shared
                    .jobs_ready
                    .wait(jobs)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some((idx, mut conn)) = job else { return };
        let alive = serve_buffered(&mut conn, shared) && !conn.eof;
        let mut conns = lock(&shared.conns);
        conns[idx] = if alive {
            Slot::Idle(conn)
        } else {
            Slot::Vacant
        };
    }
}

/// Executes every complete line buffered on `conn`, in order, writing
/// each response before starting the next statement. Returns `false`
/// when the connection is no longer usable.
fn serve_buffered(conn: &mut Conn, shared: &PoolShared) -> bool {
    while let Some(pos) = conn.inbuf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.inbuf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line);
        let sql = line.trim();
        if sql.is_empty() {
            continue;
        }
        let mut response = Vec::new();
        match conn.session.execute(sql) {
            Ok(result) => {
                if result.columns.is_empty() {
                    let _ = writeln!(response, "OK {}", result.affected);
                } else {
                    let cols: Vec<String> = result.columns.iter().map(|c| escape_cell(c)).collect();
                    let _ = writeln!(response, "COLS {}", cols.join("\t"));
                    for row in &result.rows {
                        let cells: Vec<String> =
                            row.iter().map(|d| escape_cell(&d.to_string())).collect();
                        let _ = writeln!(response, "ROW {}", cells.join("\t"));
                    }
                    let _ = writeln!(response, "OK {}", result.rows.len());
                }
            }
            Err(e) => {
                let msg = e.to_string().replace(['\r', '\n'], " ");
                let _ = writeln!(response, "ERR {msg}");
            }
        }
        if write_all_nonblocking(&mut conn.stream, &response, shared).is_err() {
            return false;
        }
    }
    true
}

/// `write_all` over a nonblocking socket: spins (with a short doze) on
/// `WouldBlock` until the peer drains its receive window, giving up at
/// shutdown so a stalled client cannot wedge [`Server::stop`].
fn write_all_nonblocking(
    stream: &mut TcpStream,
    mut buf: &[u8],
    shared: &PoolShared,
) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                std::thread::sleep(SWEEP_IDLE);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Escapes one cell for the tab/newline-framed wire: text datums may
/// contain both framing characters.
fn escape_cell(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape_cell`].
fn unescape_cell(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// A statement's outcome as the wire carries it: stringly-typed rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Affected row count for DML/DDL, result row count for queries.
    pub affected: usize,
}

/// Frames one statement as a protocol line and hands it to `w` in one
/// `write_all`: on an unbuffered `TCP_NODELAY` stream, `writeln!` would
/// issue the text and its newline as two writes — two segments.
fn write_statement(w: &mut impl Write, sql: &str) -> io::Result<()> {
    let mut line = sql.replace(['\r', '\n'], " ");
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// A blocking client for the line protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one statement; `Ok(Err(msg))` is a server-side error
    /// (syntax, constraint, conflict, rolled-back transaction).
    pub fn execute(&mut self, sql: &str) -> io::Result<Result<WireResult, String>> {
        write_statement(&mut self.writer, sql)?;
        let mut result = WireResult::default();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if let Some(rest) = line.strip_prefix("OK ") {
                // A corrupt count must surface, not silently read as 0
                // affected rows.
                result.affected = rest.trim().parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed OK line from server: {line}"),
                    )
                })?;
                return Ok(Ok(result));
            } else if let Some(rest) = line.strip_prefix("ERR ") {
                return Ok(Err(rest.to_owned()));
            } else if let Some(rest) = line.strip_prefix("COLS ") {
                result.columns = rest.split('\t').map(unescape_cell).collect();
            } else if let Some(rest) = line.strip_prefix("ROW ") {
                result
                    .rows
                    .push(rest.split('\t').map(unescape_cell).collect());
            } else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected protocol line: {line}"),
                ));
            }
        }
    }

    /// Issues `STATS` and parses the `counter`/`value` rows into a
    /// name → value map (counter names arrive quoted on the wire; the
    /// quotes are stripped here). Any malformed row — wrong width,
    /// unquoted name, non-numeric value — is an
    /// [`io::ErrorKind::InvalidData`] error, and a server-side `ERR`
    /// response surfaces as [`io::ErrorKind::Other`].
    pub fn stats(&mut self) -> io::Result<std::collections::BTreeMap<String, u64>> {
        let result = self
            .execute("STATS")?
            .map_err(|e| io::Error::other(format!("STATS failed: {e}")))?;
        let mut map = std::collections::BTreeMap::new();
        for row in &result.rows {
            let malformed = || {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed STATS row: {row:?}"),
                )
            };
            let [name, value] = row.as_slice() else {
                return Err(malformed());
            };
            let name = name
                .strip_prefix('\'')
                .and_then(|n| n.strip_suffix('\''))
                .ok_or_else(malformed)?;
            let value: u64 = value.parse().map_err(|_| malformed())?;
            map.insert(name.to_owned(), value);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_escaping_round_trips() {
        for s in ["plain", "a\tb", "a\nb\r\\c", "\\t is not a tab", ""] {
            assert_eq!(unescape_cell(&escape_cell(s)), s, "{s:?}");
            assert!(!escape_cell(s).contains(['\t', '\n', '\r']));
        }
    }

    #[test]
    fn a_statement_goes_out_in_one_write() {
        /// Records the size of every `write` call.
        struct CountingWriter(Vec<usize>);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter(Vec::new());
        write_statement(&mut w, "SELECT v.a\nFROM t v").unwrap();
        assert_eq!(w.0, ["SELECT v.a FROM t v\n".len()]);
    }

    #[test]
    fn malformed_ok_line_is_a_protocol_error_not_zero_rows() {
        let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind a TCP socket in this environment");
            return;
        };
        let addr = listener.local_addr().unwrap();
        // A fake server that acknowledges any statement with a count
        // that is not a number.
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut writer = stream;
            writeln!(writer, "OK not-a-number").unwrap();
            writer.flush().unwrap();
        });
        let mut c = Client::connect(addr).unwrap();
        let err = c.execute("SELECT 1").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("malformed OK line"), "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn datums_with_framing_characters_survive_the_wire() {
        let Ok(server) = Server::start(SharedDatabase::paged(16).unwrap(), "127.0.0.1:0") else {
            eprintln!("skipping: cannot bind a TCP socket in this environment");
            return;
        };
        let db_side = server.addr();
        let mut c = Client::connect(db_side).unwrap();
        c.execute("CREATE TABLE t (a INT, b TEXT)")
            .unwrap()
            .unwrap();
        // A tab inside a quoted literal is legal on one protocol line.
        c.execute("INSERT INTO t VALUES (1, 'x\ty')")
            .unwrap()
            .unwrap();
        let r = c.execute("SELECT v.b FROM t v").unwrap().unwrap();
        assert_eq!(r.rows, vec![vec!["'x\ty'".to_owned()]]);
        server.stop();
    }

    #[test]
    fn an_unterminated_line_past_the_cap_is_refused_and_dropped() {
        let Ok(server) = Server::start(SharedDatabase::paged(16).unwrap(), "127.0.0.1:0") else {
            eprintln!("skipping: cannot bind a TCP socket in this environment");
            return;
        };
        let mut c = Client::connect(server.addr()).unwrap();
        c.execute("CREATE TABLE t (a INT)").unwrap().unwrap();
        // The peer opens a transaction, writes a row, then sends one
        // byte more than the cap with no newline.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(b"BEGIN\nINSERT INTO t VALUES (1)\n").unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("OK"), "{line:?}");
        }
        raw.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
        // One ERR line, then EOF.
        let mut reply = String::new();
        reader.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("ERR "), "{reply:?}");
        assert_eq!(reply.lines().count(), 1, "{reply:?}");
        // Another client still gets answers, and the dropped
        // connection's transaction rolled back and released its table
        // lock (a bare DELETE takes the table X).
        let r = c.execute("SELECT v.a FROM t v").unwrap().unwrap();
        assert!(r.rows.is_empty(), "{r:?}");
        c.execute("DELETE FROM t").unwrap().unwrap();
        server.stop();
    }

    #[test]
    fn tcp_round_trip_with_transactions() {
        let Ok(server) = Server::start(SharedDatabase::paged(16).unwrap(), "127.0.0.1:0") else {
            eprintln!("skipping: cannot bind a TCP socket in this environment");
            return;
        };
        let mut c1 = Client::connect(server.addr()).unwrap();
        let mut c2 = Client::connect(server.addr()).unwrap();
        c1.execute("CREATE TABLE t (a INT, b TEXT)")
            .unwrap()
            .unwrap();
        let r = c1
            .execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap()
            .unwrap();
        assert_eq!(r.affected, 2);
        // Client 2 sees committed data over its own connection.
        let r = c2.execute("SELECT v.a, v.b FROM t v").unwrap().unwrap();
        assert_eq!(r.columns, ["v.a", "v.b"]);
        assert_eq!(
            r.rows,
            vec![
                vec!["1".to_owned(), "'x'".to_owned()],
                vec!["2".to_owned(), "'y'".to_owned()],
            ]
        );
        // Transactions work per connection; a rollback leaves no trace.
        c2.execute("BEGIN").unwrap().unwrap();
        c2.execute("INSERT INTO t VALUES (3, 'z')")
            .unwrap()
            .unwrap();
        c2.execute("ROLLBACK").unwrap().unwrap();
        let r = c1.execute("SELECT v.a FROM t v").unwrap().unwrap();
        assert_eq!(r.affected, 2);
        // Errors come back as ERR lines, not broken connections.
        let err = c1.execute("SELECT garbage").unwrap().unwrap_err();
        assert!(err.contains("syntax"), "{err}");
        server.stop();
    }
}
