//! The TCP front end of `fannet listen` (DESIGN.md §13).
//!
//! A hand-rolled `std::net` listener — the workspace is offline, so
//! there is no async runtime to reach for, and none is needed: one
//! reader thread per connection feeding the shared bounded queue scales
//! to the handful-to-hundreds of operator connections this server is
//! for, while the queue bound (not the thread count) is what limits
//! memory under load.
//!
//! Two polling choices make the graceful drain work without `poll(2)`:
//!
//! * the listener is non-blocking and the accept loop sleeps briefly on
//!   `WouldBlock`, so it can notice the shutdown flag (set by a
//!   `shutdown` request on any connection, or by SIGINT/SIGTERM via
//!   [`crate::signal`]) within [`ACCEPT_POLL`];
//! * every accepted socket gets a read timeout of [`READ_POLL`], so a
//!   reader blocked on an idle client re-checks the flag instead of
//!   sleeping forever.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fannet_engine::Engine;

use crate::session::{Session, SessionConfig};

/// How long the accept loop sleeps when no connection is pending.
pub const ACCEPT_POLL: Duration = Duration::from_millis(50);
/// Read timeout armed on every accepted socket (the shutdown-flag poll
/// interval of an idle connection).
pub const READ_POLL: Duration = Duration::from_millis(100);

/// Binds `addr` and serves JSONL connections until a `shutdown` request
/// or `external_stop` (typically [`crate::signal::triggered`]) asks for
/// the drain. `ready` runs once with the bound address, before the
/// first accept — the hook tests use to learn an OS-assigned port.
///
/// # Errors
///
/// Returns the bind/configuration error if the listener cannot start;
/// per-connection failures after that are contained, never returned.
pub fn serve_tcp<A: ToSocketAddrs>(
    engine: Arc<Engine>,
    config: &SessionConfig,
    addr: A,
    external_stop: impl Fn() -> bool,
    ready: impl FnOnce(SocketAddr),
) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    ready(listener.local_addr()?);

    let session = Session::new(engine, config);
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if external_stop() {
            session.request_shutdown();
        }
        if session.shutdown_requested() {
            break;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                // The reader polls the shutdown flag on every timeout;
                // the writer is an independent clone so responses flow
                // while the reader blocks.
                if stream.set_read_timeout(Some(READ_POLL)).is_err() {
                    continue;
                }
                // Each response is one complete line written at once;
                // holding it back for coalescing only adds latency.
                let _ = stream.set_nodelay(true);
                let Ok(writer) = stream.try_clone() else {
                    continue;
                };
                let conn = session.open_connection(&peer.to_string(), Box::new(writer));
                let shared = Arc::clone(&session.shared);
                readers.push(std::thread::spawn(move || {
                    crate::session::run_connection_reader(&shared, &conn, stream);
                }));
                readers.retain(|reader| !reader.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // A failed accept (e.g. a connection reset before we got to
            // it) must not take the listener down.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Drain: stop accepting (done — the loop exited), wait for the
    // readers (each notices the flag within READ_POLL), then let every
    // submitted request finish and deliver its response.
    for reader in readers {
        let _ = reader.join();
    }
    session.drain();
    Ok(())
}
