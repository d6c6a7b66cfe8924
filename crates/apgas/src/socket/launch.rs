//! Spawning places on the local machine: one OS process each
//! ([`launch_places`]) or one thread each ([`local_mesh`]).
//!
//! `dpx10 run --backend sockets` turns one invocation into `N` place
//! processes: the launcher binds a bootstrap listener, re-executes its
//! own binary `N - 1` times with `DPX10_PLACE`/`DPX10_PLACES`/
//! `DPX10_COORD` in the environment and the *same* argument vector, then
//! becomes place 0 itself. A child sees `DPX10_PLACE` set, rebuilds the
//! identical workload from the identical arguments, and joins the mesh
//! as a worker.

use std::io;
use std::net::TcpListener;
use std::process::{Child, Command, ExitStatus, Stdio};

use super::SocketConfig;
use crate::place::PlaceId;

/// The spawned worker processes of a socket run.
///
/// Dropping the handle does **not** kill the children — after a clean
/// run they exit by themselves; call [`kill_all`](Self::kill_all) for
/// abnormal teardown.
#[derive(Debug)]
pub struct PlaceChildren {
    children: Vec<Child>,
}

impl PlaceChildren {
    /// Waits for every child and returns the exit statuses.
    pub fn wait_all(&mut self) -> io::Result<Vec<ExitStatus>> {
        self.children.iter_mut().map(Child::wait).collect()
    }

    /// Kills any child still running (used when the coordinator errors
    /// out and the run is being abandoned).
    pub fn kill_all(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Binds the bootstrap listener and spawns `places - 1` worker processes
/// re-running the current executable with `args`.
///
/// Each child's pid is announced on stderr as
/// `dpx10: place <p> pid <pid>` — fault-injection harnesses parse these
/// lines to aim their `SIGKILL`.
///
/// `DPX10_MAX_PLACES` (when greater than `places`) raises the mesh
/// capacity: every member keeps its listener open after formation, and
/// the coordinator announces its address on stderr so `dpx10 join` can
/// dial into the running mesh. Children learn the capacity from their
/// admission. A malformed value is refused before any child starts.
pub fn launch_places(places: u16, args: &[String]) -> io::Result<(SocketConfig, PlaceChildren)> {
    if places == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cannot launch zero places",
        ));
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let coord_addr = listener.local_addr()?.to_string();
    let max_places = super::capacity_from_env(places)?;
    if max_places > places {
        eprintln!("dpx10: coordinator {coord_addr} accepting joins (capacity {max_places})");
    }
    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(places.saturating_sub(1) as usize);
    for place in 1..places {
        match Command::new(&exe)
            .args(args)
            .env("DPX10_PLACE", place.to_string())
            .env("DPX10_PLACES", places.to_string())
            .env("DPX10_COORD", &coord_addr)
            .stdin(Stdio::null())
            .spawn()
        {
            Ok(child) => {
                eprintln!("dpx10: place {place} pid {}", child.id());
                children.push(child);
            }
            Err(e) => {
                // Partial launch: reap what we started, then fail.
                let mut started = PlaceChildren { children };
                started.kill_all();
                return Err(e);
            }
        }
    }
    let mut cfg = SocketConfig::coordinator(listener, places);
    cfg.max_places = max_places;
    Ok((cfg, PlaceChildren { children }))
}

/// Runs a whole `places`-place mesh inside this process over real TCP:
/// binds a loopback bootstrap listener, runs `place` for places
/// `1..places` on scoped threads and for the coordinator on the calling
/// thread, and joins them all.
///
/// `place` is what one place does with its [`SocketConfig`] — build an
/// engine or server, run it — under the engines' contract: the
/// coordinator returns `Ok(Some(result))`, every worker `Ok(None)`.
/// Anything else (an error, a panic, a worker holding a result, a
/// coordinator without one) is an `Err` naming the place.
pub fn local_mesh<T, E, F>(places: u16, place: F) -> Result<T, String>
where
    F: Fn(SocketConfig) -> Result<Option<T>, E> + Sync,
    T: Send,
    E: std::fmt::Display + Send,
{
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?
        .to_string();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..places)
            .map(|p| {
                let (place, addr) = (&place, addr.clone());
                scope.spawn(move || place(SocketConfig::worker(PlaceId(p), places, addr)))
            })
            .collect();
        let outcome = place(SocketConfig::coordinator(listener, places));
        let mut failure = None;
        for (p, worker) in (1..places).zip(workers) {
            let problem = match worker.join() {
                Ok(Ok(None)) => continue,
                Ok(Ok(Some(_))) => "returned a result".to_string(),
                Ok(Err(e)) => format!("failed: {e}"),
                Err(_) => "panicked".to_string(),
            };
            failure.get_or_insert(format!("worker place {p} {problem}"));
        }
        let result = outcome
            .map_err(|e| format!("coordinator failed: {e}"))?
            .ok_or("coordinator returned no result")?;
        failure.map_or(Ok(result), Err)
    })
}
