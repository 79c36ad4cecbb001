//! The metrics endpoint: a tiny blocking HTTP/1.1 listener over
//! [`std::net::TcpListener`] — zero dependencies, one named thread,
//! one connection at a time. That is deliberate: a scrape every second
//! from one Prometheus (or one `repro top`) is the design load, and a
//! single-threaded accept loop cannot amplify into anything that
//! perturbs the sweep workers it is observing.
//!
//! Lifecycle: [`MetricsServer::start`] binds (port 0 picks a free port,
//! see [`MetricsServer::local_addr`]), flips the [`crate::live`] gate on,
//! and serves `GET /metrics` until [`MetricsServer::shutdown`] or process
//! exit. Shutdown sets a flag and self-connects to unblock `accept`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::expo;
use crate::http::{self, Response};
use crate::live::{self, LiveRegistry};

/// A running exposition endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` and serves `registry` on a background thread. Flips
    /// the live-telemetry gate on so instrumentation sites start feeding
    /// the cells. `addr` may name port 0 to pick any free port.
    pub fn start(addr: SocketAddr, registry: &'static LiveRegistry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        live::set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fbmpk-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // A stuck scraper must not wedge the endpoint.
                    let _ = stream.set_read_timeout(Some(http::IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(http::IO_TIMEOUT));
                    let _ = serve_one(stream, registry);
                }
            })
            .expect("spawn metrics thread");
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (the resolved port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Does not flip the
    /// live gate back off: cells may still have other consumers (an
    /// in-process dashboard) and stale `true` only costs the counters.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock accept() with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handles one connection through the shared [`http`] reader: route,
/// respond, close (`Connection: close` — scrapers reconnect per poll).
/// Every failure mode gets a typed answer before the close: an oversized
/// head is 413, a request that never completes (EOF or read timeout
/// before the header terminator) or has a broken request line is 400 —
/// never a silently dropped connection the client has to time out
/// against.
fn serve_one(mut stream: TcpStream, registry: &LiveRegistry) -> std::io::Result<()> {
    let response = match http::read_request(&mut stream) {
        Ok(request) => match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/metrics") => Response::text(200, expo::render(&registry.snapshot()))
                .with_content_type(expo::CONTENT_TYPE),
            ("GET", "/") => Response::text(200, "fbmpk metrics endpoint; scrape /metrics\n"),
            ("GET", _) => Response::text(404, "not found\n"),
            _ => Response::text(405, "GET only\n"),
        },
        Err(e) => match e.response() {
            Some(rejection) => rejection,
            // The peer vanished; there is no one to respond to.
            None => return Ok(()),
        },
    };
    response.write(&mut stream)
}

/// Fetches `http://addr/metrics` and returns the body — the scraper half
/// used by `repro top` and the smoke tests. A non-200 answer is an error.
pub fn scrape(addr: SocketAddr, timeout: Duration) -> std::io::Result<String> {
    let response = http::request(addr, "GET", "/metrics", &[], "", timeout)?;
    if response.status != 200 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("scrape failed: HTTP {}", response.status),
        ));
    }
    Ok(response.body)
}

/// Starts the process-global endpoint on `addr` exactly once and leaks it
/// for process lifetime (plans come and go; the endpoint stays). Returns
/// the bound address, or the first call's address on later calls.
pub fn ensure_global(addr: SocketAddr) -> std::io::Result<SocketAddr> {
    use std::sync::OnceLock;
    static GLOBAL: OnceLock<std::io::Result<SocketAddr>> = OnceLock::new();
    let res = GLOBAL.get_or_init(|| {
        let server = MetricsServer::start(addr, live::global())?;
        let bound = server.local_addr();
        // Deliberate leak: serve until process exit.
        std::mem::forget(server);
        eprintln!("fbmpk: serving metrics on {bound}");
        Ok(bound)
    });
    match res {
        Ok(a) => Ok(*a),
        Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A fresh endpoint over its own registry on an ephemeral port.
    fn endpoint(reg: &'static std::sync::OnceLock<LiveRegistry>) -> MetricsServer {
        MetricsServer::start("127.0.0.1:0".parse().unwrap(), reg.get_or_init(LiveRegistry::new))
            .expect("bind")
    }

    #[test]
    fn serve_and_scrape() {
        static REG: std::sync::OnceLock<LiveRegistry> = std::sync::OnceLock::new();
        let mut server = endpoint(&REG);
        REG.get().unwrap().counter("fbmpk_serve_test_total", "t", 1).add(0, 42);
        let addr = server.local_addr();
        let body = scrape(addr, Duration::from_secs(5)).expect("scrape");
        let doc = expo::parse(&body).expect("valid exposition");
        assert_eq!(doc.value("fbmpk_serve_test_total", &[]), Some(42.0));
        let r = http::request(addr, "GET", "/metrics", &[], "", Duration::from_secs(5)).unwrap();
        assert_eq!(r.header("content-type"), Some(expo::CONTENT_TYPE));
        server.shutdown();
    }

    #[test]
    fn unknown_path_is_404() {
        static REG: std::sync::OnceLock<LiveRegistry> = std::sync::OnceLock::new();
        let server = endpoint(&REG);
        let r = http::request(server.local_addr(), "GET", "/nope", &[], "", Duration::from_secs(5))
            .unwrap();
        assert_eq!(r.status, 404, "{}", r.body);
    }

    /// Sends raw bytes (optionally closing the write side early) and
    /// returns the raw response — the server may reject mid-request, so
    /// the client half tolerates transport errors.
    fn send_raw(addr: SocketAddr, raw: &[u8], close_write: bool) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(raw);
        if close_write {
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    }

    #[test]
    fn malformed_requests_get_a_typed_400() {
        static REG: std::sync::OnceLock<LiveRegistry> = std::sync::OnceLock::new();
        let server = endpoint(&REG);
        let addr = server.local_addr();
        // Garbage request line: answered, not dropped.
        let r = send_raw(addr, b"not http at all\r\n\r\n", false);
        assert!(r.starts_with("HTTP/1.1 400"), "{r}");
        // Incomplete head, then EOF: still a typed 400.
        let r = send_raw(addr, b"GET /metrics HTTP/1.1\r\n", true);
        assert!(r.starts_with("HTTP/1.1 400"), "{r}");
    }

    #[test]
    fn oversized_head_gets_413() {
        static REG: std::sync::OnceLock<LiveRegistry> = std::sync::OnceLock::new();
        let server = endpoint(&REG);
        let huge = vec![b'A'; http::MAX_HEAD_BYTES];
        let r = send_raw(server.local_addr(), &huge, true);
        assert!(r.starts_with("HTTP/1.1 413"), "{r}");
    }
}
