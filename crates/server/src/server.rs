//! The TCP server: thread-per-connection over a bounded session pool.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use evopt_common::{EvoptError, Result};
use evopt_core::Strategy;
use evopt_engine::{Database, Session};

use crate::metrics::ServerMetrics;
use crate::protocol::{read_frame, write_frame, Response};
use crate::render;

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Connections served concurrently; one engine session each. A
    /// connection arriving when every slot is taken is refused with a
    /// `Bye` frame (never queued).
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_sessions: 32 }
    }
}

/// A running server. Dropping the handle shuts the listener down and joins
/// the accept thread; connections already being served finish their
/// current statement and then fail on their next read.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's connection counters — the same numbers a `METRICS`
    /// scrape renders as `evopt_server_*` families.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Stop accepting, wake the listener, and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve connections over `db`
/// until the returned handle is shut down or dropped.
pub fn serve(db: Arc<Database>, addr: &str, config: ServerConfig) -> Result<ServerHandle> {
    let listener =
        TcpListener::bind(addr).map_err(|e| EvoptError::Io(format!("bind {addr}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| EvoptError::Io(e.to_string()))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(ServerMetrics::default());
    let max = config.max_sessions.max(1);
    let accept = std::thread::spawn({
        let shutdown = Arc::clone(&shutdown);
        let metrics = Arc::clone(&metrics);
        let active = Arc::new(AtomicUsize::new(0));
        move || loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
            };
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Every response is one frame the client waits for whole;
            // refused connections get their `Bye` unbuffered too. A socket
            // that rejects the option still works, only slower.
            let _ = stream.set_nodelay(true);
            // Claim a session slot, or refuse: a full server answers
            // immediately instead of letting the connection hang.
            let claimed = active
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < max).then_some(n + 1)
                })
                .is_ok();
            if !claimed {
                metrics.connections_refused.inc();
                let mut stream = stream;
                let refuse = Response::Bye(format!("server at capacity ({max} sessions)"));
                let _ = write_frame(&mut stream, &refuse.encode());
                continue;
            }
            metrics.connections.inc();
            metrics
                .active_sessions
                .set(active.load(Ordering::SeqCst) as u64);
            let session = db.session();
            let active = Arc::clone(&active);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                serve_conn(&session, stream, &metrics);
                let remaining = active.fetch_sub(1, Ordering::SeqCst) - 1;
                metrics.active_sessions.set(remaining as u64);
            });
        }
    });
    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
        metrics,
    })
}

/// One connection's request loop: read a statement frame, execute it on
/// this connection's session, write the tagged response. Exits on client
/// disconnect, any write failure, or a `Bye` (quit or protocol error).
fn serve_conn(session: &Session, mut stream: TcpStream, metrics: &ServerMetrics) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => return, // disconnect or protocol violation
        };
        metrics.frames.inc();
        metrics.bytes_in.add(payload.len() as u64 + 4);
        let response = match std::str::from_utf8(&payload) {
            Ok(text) => respond_on(session, text, Some(metrics)),
            Err(_) => Response::Error("request is not UTF-8".into()),
        };
        let bye = matches!(response, Response::Bye(_));
        let encoded = response.encode();
        metrics.bytes_out.add(encoded.len() as u64 + 4);
        if write_frame(&mut stream, &encoded).is_err() || bye {
            return;
        }
    }
}

/// Execute one line of input — SQL or a `\` meta command — on a session
/// and produce the wire response. Shared by the server and the local REPL
/// so both speak identically. (The REPL has no listener, so its scrapes
/// carry engine + session families only; see [`respond_on`].)
pub fn respond(session: &Session, line: &str) -> Response {
    respond_on(session, line, None)
}

/// [`respond`] with an optional listener: when serving a connection the
/// `METRICS` frame / `\metrics` command prepends the `evopt_server_*`
/// families to the engine + session scrape.
fn respond_on(session: &Session, line: &str, server: Option<&ServerMetrics>) -> Response {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Response::Result(String::new());
    }
    // Bare `METRICS` frame: the scrape entry point for tooling that isn't
    // a SQL client (a Prometheus exporter sidecar sends exactly this).
    if trimmed == "METRICS" {
        return metrics_response(session, server);
    }
    // Bare `TOPWAITS` frame: the contention summary for tooling (same
    // rendering as `\top-waits`).
    if trimmed == "TOPWAITS" {
        return top_waits_response(session);
    }
    if let Some(meta) = trimmed.strip_prefix('\\') {
        return meta_command(session, meta, server);
    }
    match session.execute(trimmed) {
        Ok(result) => Response::Result(render::render(&result)),
        Err(e) => Response::Error(e.to_string()),
    }
}

/// One scrape: server families (when serving), then the instance-wide
/// engine families, then this session's counters labeled `session="id"`.
fn metrics_response(session: &Session, server: Option<&ServerMetrics>) -> Response {
    let mut text = match server {
        Some(m) => m.render_prometheus(),
        None => String::new(),
    };
    text.push_str(&session.metrics_text());
    Response::Result(text)
}

/// Render the instance-wide contention histograms (the wait points the
/// rank table in `crates/common/src/lockorder.rs` declares), ranked by
/// total wait time. Quantile columns are bucket upper bounds — the best a
/// fixed-bucket histogram can report.
fn top_waits_response(session: &Session) -> Response {
    let snap = session.database().metrics_snapshot();
    let mut families = [
        ("evopt_commit_lock_wait_us", snap.commit_lock_wait_us),
        ("evopt_wal_sync_wait_us", snap.wal_sync_wait_us),
        ("evopt_pool_miss_io_us", snap.pool_miss_io_us),
        ("evopt_pool_load_wait_us", snap.pool_load_wait_us),
        ("evopt_snapshot_acquire_us", snap.snapshot_acquire_us),
    ];
    families.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then(a.0.cmp(b.0)));

    let bound = |b: Option<f64>| match b {
        None => "-".to_string(),
        Some(v) if v.is_infinite() => "+Inf".to_string(),
        Some(v) => format!("<={v:.0}"),
    };
    let mut out = format!(
        "  {:<28} {:>8} {:>12} {:>9} {:>9}\n",
        "family", "waits", "total_us", "p50_us", "max_us"
    );
    for (name, h) in &families {
        out.push_str(&format!(
            "  {:<28} {:>8} {:>12} {:>9} {:>9}\n",
            name,
            h.count,
            h.sum,
            bound(h.quantile_bound(0.5)),
            bound(h.max_bound()),
        ));
    }
    Response::Result(out.trim_end().to_string())
}

const HELP: &str = "  SQL:   CREATE TABLE / CREATE [UNIQUE|CLUSTERED] INDEX / INSERT /\n\
     \x20        SELECT / DELETE / UPDATE / ANALYZE / DROP TABLE /\n\
     \x20        EXPLAIN [ANALYZE] SELECT ...   (terminate with ';')\n\
     \x20 \\tables             list tables, row counts, indexes\n\
     \x20 \\strategy <name>    system-r | bushy-dp | dpccp | greedy |\n\
     \x20                     goo | quickpick | syntactic\n\
     \x20 \\metrics            server + engine + session metrics (Prometheus text)\n\
     \x20 \\top-waits          contention histograms ranked by total wait\n\
     \x20 \\q                  quit";

fn meta_command(session: &Session, cmd: &str, server: Option<&ServerMetrics>) -> Response {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        "q" | "quit" | "exit" => Response::Bye("goodbye".into()),
        "help" | "?" => Response::Result(HELP.into()),
        "tables" => {
            let mut out = String::new();
            for t in session.database().catalog().tables() {
                let indexes: Vec<String> = t.indexes().iter().map(|i| i.name.clone()).collect();
                out.push_str(&format!(
                    "  {} — {} rows, {} pages, indexes: [{}]\n",
                    t.name,
                    t.heap.tuple_count(),
                    t.heap.page_count(),
                    indexes.join(", ")
                ));
            }
            Response::Result(out.trim_end().to_string())
        }
        "strategy" => match parts.next().and_then(parse_strategy) {
            Some(s) => {
                session.set_strategy(s);
                Response::Result(format!("strategy: {}", s.name()))
            }
            None => Response::Error("unknown strategy (see \\help)".into()),
        },
        "metrics" => metrics_response(session, server),
        "top-waits" => top_waits_response(session),
        other => Response::Error(format!("unknown command '\\{other}' (see \\help)")),
    }
}

/// Parse a strategy name as accepted by `\strategy`.
pub fn parse_strategy(name: &str) -> Option<Strategy> {
    Some(match name {
        "system-r" => Strategy::SystemR,
        "bushy-dp" => Strategy::BushyDp,
        "dpccp" => Strategy::DpCcp,
        "greedy" => Strategy::Greedy,
        "goo" => Strategy::Goo,
        "quickpick" => Strategy::QuickPick {
            samples: 16,
            seed: 1,
        },
        "syntactic" => Strategy::Syntactic,
        _ => return None,
    })
}
