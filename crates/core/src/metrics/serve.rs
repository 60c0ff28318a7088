//! A minimal blocking HTTP scrape listener for the metrics hub.
//!
//! std-only by design (one `TcpListener`, one accept thread): flashr
//! takes no HTTP dependency for the sake of a scrape endpoint. The
//! listener answers `GET /metrics` with the Prometheus text exposition
//! and `GET /healthz` with `ok`; everything else is a 404. One request
//! per connection, `Connection: close` — exactly the shape Prometheus'
//! scraper (or `curl`) sends.
//!
//! Enabled by setting `FLASHR_METRICS_ADDR` (e.g. `127.0.0.1:9189`, or
//! port `0` to let the OS pick); [`claim_metrics_addr`] hands the value
//! to the first context that asks, so two contexts in one process don't
//! fight over the port.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Render callback handed to the server; returns the exposition body.
pub type RenderFn = Arc<dyn Fn() -> String + Send + Sync>;

static CLAIMED: AtomicBool = AtomicBool::new(false);

/// Claim the `FLASHR_METRICS_ADDR` bind address for this process. The
/// first caller gets it; later callers (a second `FlashCtx`) get `None`
/// so only one listener binds the configured port. The claim is
/// released when the claiming context drops ([`release_metrics_addr`]),
/// so sequentially-created contexts each get a listener.
pub fn claim_metrics_addr() -> Option<String> {
    let addr = crate::env::metrics_addr()?;
    if CLAIMED.swap(true, Ordering::SeqCst) {
        return None;
    }
    Some(addr)
}

/// Return the address claim after the claiming listener has shut down.
pub(crate) fn release_metrics_addr() {
    CLAIMED.store(false, Ordering::SeqCst);
}

/// The scrape listener: a bound socket plus its accept thread. Dropping
/// the server shuts the thread down.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and serve `render()` on `GET /metrics`. `addr` may
    /// use port 0; the actual bound address is [`MetricsServer::addr`].
    pub fn start(addr: &str, render: RenderFn) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("flashr-metrics".to_string())
            .spawn(move || accept_loop(listener, render, stop2))?;
        Ok(MetricsServer { addr: bound, stop, thread: Some(thread) })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsServer({})", self.addr)
    }
}

fn accept_loop(listener: TcpListener, render: RenderFn, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Serve inline: scrapes are rare (seconds apart) and the body is
        // small, so one thread is plenty and keeps the footprint fixed.
        let _ = serve_one(stream, &render);
    }
}

/// Read one request head, answer it, close. Returns Err only on socket
/// trouble; malformed requests get a 400/404 response instead.
fn serve_one(mut stream: TcpStream, render: &RenderFn) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let line = std::str::from_utf8(&head)
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, ctype, body) = match (method, path.split('?').next().unwrap_or(path)) {
        ("GET", "/metrics") => ("200 OK", "text/plain; version=0.0.4; charset=utf-8", render()),
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        ("GET", _) => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
        _ => ("400 Bad Request", "text/plain; charset=utf-8", "bad request\n".to_string()),
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let render: RenderFn = Arc::new(|| "# TYPE t counter\nt 1\n".to_string());
        let srv = MetricsServer::start("127.0.0.1:0", render).expect("bind");
        let m = get(srv.addr(), "/metrics");
        assert!(m.starts_with("HTTP/1.1 200 OK\r\n"), "{m}");
        assert!(m.contains("text/plain; version=0.0.4"), "{m}");
        assert!(m.ends_with("# TYPE t counter\nt 1\n"), "{m}");
        let h = get(srv.addr(), "/healthz");
        assert!(h.starts_with("HTTP/1.1 200 OK\r\n"), "{h}");
        let nf = get(srv.addr(), "/nope");
        assert!(nf.starts_with("HTTP/1.1 404"), "{nf}");
        drop(srv); // join must not hang
    }

    #[test]
    fn port_zero_resolves_to_a_real_port() {
        let render: RenderFn = Arc::new(String::new);
        let srv = MetricsServer::start("127.0.0.1:0", render).expect("bind");
        assert_ne!(srv.addr().port(), 0);
    }
}
