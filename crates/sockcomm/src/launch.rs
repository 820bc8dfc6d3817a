//! Rendezvous launcher and child-rank runtime.
//!
//! A sockets world is `p` OS processes plus the launcher that forked them.
//! Because a closure cannot cross `exec`, the entry point travels by
//! *name*: the launcher re-execs its own binary with `SOCKCOMM_*`
//! environment variables, and the child binary calls [`child_rank`] with
//! the same entry name early in `main` — on a match the call never
//! returns (it runs the rank and exits the process); otherwise it is a
//! no-op and the binary continues as a normal parent.
//!
//! ## Rendezvous protocol
//!
//! 1. Launcher binds a control listener (UDS socket in a scratch dir, or
//!    TCP on loopback), spawns `p` children with rank/size/entry/address
//!    in the environment.
//! 2. Each child connects to the control address, sends `Hello(rank)`,
//!    binds its own data listener, and sends `Addr(listen address)`.
//! 3. The launcher answers each child with `Params` (encoded entry
//!    parameters) and `Table` (every rank's data address).
//! 4. Children build the data mesh: rank `j` connects to every rank
//!    `i < j` (introducing itself with `Hello`), accepts from every rank
//!    `> j`. One reader thread per peer then feeds decoded `Data` frames
//!    into the rank's bounded mailbox.
//! 5. Each child runs the entry function and ships `Result` back on the
//!    control connection; the launcher collects `p` results.
//!
//! ## Teardown and peer death
//!
//! Clean teardown is a close barrier: a rank sends `Goodbye` on every
//! data link after its entry function returns, and closes nothing until it
//! has *received* a goodbye from every peer. EOF after goodbye is normal;
//! EOF (or `ECONNRESET`, or a failed write) without one means the peer
//! process died — the observing rank records which one, aborts its own
//! collectives, and reports the dead rank to the launcher, which kills the
//! remaining children and surfaces [`SockError::PeerDeath`] naming the
//! dead rank. Nothing waits forever on a corpse.

use crate::comm::SockComm;
use crate::frame::{read_data_frame, read_frame, write_frame, Frame, FrameKind};
use crate::net::{connect, Listener, Stream, Transport};
use crate::universe::{PeerLink, SockUniverse};
use comm::mailbox::Envelope;
use comm::raw::Group;
use comm::Wire;
use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Environment variable carrying the child's world rank.
pub const ENV_RANK: &str = "SOCKCOMM_RANK";
const ENV_SIZE: &str = "SOCKCOMM_SIZE";
const ENV_ENTRY: &str = "SOCKCOMM_ENTRY";
const ENV_CTL: &str = "SOCKCOMM_CTL";
const ENV_TRANSPORT: &str = "SOCKCOMM_TRANSPORT";
const ENV_DIR: &str = "SOCKCOMM_DIR";
const ENV_CORES: &str = "SOCKCOMM_CORES";
const ENV_BUDGET: &str = "SOCKCOMM_BUDGET";

/// What a rank ships back in its `Result` frame: the entry's result, its
/// messages and bytes sent, its wall seconds and its peak reservation.
type RankResult<R> = (R, u64, u64, f64, u64);

/// Exit code a child uses after reporting an abort.
const ABORT_EXIT: i32 = 101;

/// How a sockets world can fail.
#[derive(Debug)]
pub enum SockError {
    /// A rank process died mid-run (killed, crashed, or exited without
    /// completing the protocol). `dead` is its world rank.
    PeerDeath {
        /// World rank of the process that died.
        dead: usize,
        /// What was observed (who reported it, what the socket said).
        detail: String,
    },
    /// A rank's entry function panicked (the rank itself reported before
    /// exiting, so this is a *logic* failure, not a dead process).
    Panic {
        /// World rank that panicked.
        rank: usize,
        /// The panic message.
        detail: String,
    },
    /// The world never got off the ground (spawn failure, rendezvous
    /// timeout, bad configuration).
    Launch(String),
}

impl std::fmt::Display for SockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PeerDeath { dead, detail } => {
                write!(f, "rank {dead} died mid-run: {detail}")
            }
            Self::Panic { rank, detail } => write!(f, "rank {rank} panicked: {detail}"),
            Self::Launch(msg) => write!(f, "launch failed: {msg}"),
        }
    }
}

impl std::error::Error for SockError {}

/// What a completed sockets world returns.
#[derive(Debug)]
pub struct SockReport<R> {
    /// Per-rank results of the entry function, indexed by world rank.
    pub results: Vec<R>,
    /// Launcher-measured wall seconds from spawn to last result (includes
    /// process startup and rendezvous — see EXPERIMENTS.md).
    pub wall_s: f64,
    /// Each rank's own wall seconds from mesh-up to result.
    pub per_rank_wall: Vec<f64>,
    /// Total point-to-point messages sent across all ranks.
    pub messages: u64,
    /// Total encoded payload bytes sent across all ranks.
    pub bytes: u64,
    /// The per-rank memory budget and each rank's peak reservation.
    pub memory: telemetry::MemoryReport,
}

/// Builder + launcher for a process-per-rank world.
pub struct SocketWorld {
    size: usize,
    transport: Transport,
    cores_per_node: usize,
    memory_budget: Option<usize>,
    child_args: Option<Vec<String>>,
    launch_timeout: Duration,
}

static WORLD_SEQ: AtomicU64 = AtomicU64::new(0);

impl SocketWorld {
    /// A world of `size` rank processes over Unix-domain sockets.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world size must be at least 1");
        Self {
            size,
            transport: Transport::Uds,
            cores_per_node: size.max(1),
            memory_budget: None,
            child_args: None,
            launch_timeout: Duration::from_secs(60),
        }
    }

    /// Select the socket family (default: Unix-domain).
    pub fn transport(mut self, t: Transport) -> Self {
        self.transport = t;
        self
    }

    /// Cores per simulated node (shapes `Communicator::node`; default:
    /// all ranks on one node).
    pub fn cores_per_node(mut self, c: usize) -> Self {
        assert!(c > 0, "cores_per_node must be at least 1");
        self.cores_per_node = c;
        self
    }

    /// Enforce a per-rank memory budget in bytes (see [`comm::Budget`]),
    /// held by each rank process for itself.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Arguments passed to re-exec'd rank processes. Default: the
    /// launcher's own arguments (`std::env::args().skip(1)`), which is
    /// right for binaries that call [`child_rank`] at the top of `main`.
    /// Libtest-harness test binaries must override this to route children
    /// into a dispatch `#[test]` (e.g. `["sockcomm_child_entry",
    /// "--exact", "--nocapture"]`).
    pub fn child_args<S: Into<String>>(mut self, args: impl IntoIterator<Item = S>) -> Self {
        self.child_args = Some(args.into_iter().map(Into::into).collect());
        self
    }

    /// Rendezvous deadline (default 60 s): how long the launcher waits for
    /// children to come up before declaring a launch failure.
    pub fn launch_timeout(mut self, d: Duration) -> Self {
        self.launch_timeout = d;
        self
    }

    /// Launch the world: fork `size` rank processes re-execing the current
    /// binary, rendezvous, run the [`child_rank`] entry named `entry` with
    /// `params` on every rank, and collect the per-rank results.
    pub fn run<P: Wire, R: Wire>(
        &self,
        entry: &str,
        params: &P,
    ) -> Result<SockReport<R>, SockError> {
        assert!(
            std::env::var_os(ENV_RANK).is_none(),
            "SocketWorld::run reached inside a sockcomm child process: no child_rank call \
             matched entry {:?} before parent code ran — this would fork-bomb. Check that the \
             binary calls child_rank with the same entry name before launching worlds.",
            std::env::var(ENV_ENTRY).unwrap_or_default()
        );
        let dir = std::env::temp_dir().join(format!(
            "sockcomm-{}-{}",
            std::process::id(),
            WORLD_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let result = self.run_in_dir(entry, params, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn run_in_dir<P: Wire, R: Wire>(
        &self,
        entry: &str,
        params: &P,
        dir: &Path,
    ) -> Result<SockReport<R>, SockError> {
        let p = self.size;
        let launch_err = |msg: String| SockError::Launch(msg);
        std::fs::create_dir_all(dir)
            .map_err(|e| launch_err(format!("scratch dir {}: {e}", dir.display())))?;
        let ctl_listener = Listener::bind(self.transport, &dir.join("ctl.sock"))
            .map_err(|e| launch_err(format!("bind control listener: {e}")))?;
        let ctl_addr = ctl_listener
            .addr_string()
            .map_err(|e| launch_err(format!("control listener address: {e}")))?;

        let exe = std::env::current_exe().map_err(|e| launch_err(format!("current_exe: {e}")))?;
        let args: Vec<String> = self
            .child_args
            .clone()
            .unwrap_or_else(|| std::env::args().skip(1).collect());

        let start = Instant::now();
        let children: RefCell<Vec<(usize, Child)>> = RefCell::new(Vec::with_capacity(p));
        let kill_all = |children: &RefCell<Vec<(usize, Child)>>| {
            for (_, child) in children.borrow_mut().iter_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
        };
        for rank in 0..p {
            let spawned = Command::new(&exe)
                .args(&args)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, p.to_string())
                .env(ENV_ENTRY, entry)
                .env(ENV_CTL, &ctl_addr)
                .env(ENV_TRANSPORT, self.transport.as_str())
                .env(ENV_DIR, dir)
                .env(ENV_CORES, self.cores_per_node.to_string())
                .env(
                    ENV_BUDGET,
                    self.memory_budget.unwrap_or(usize::MAX).to_string(),
                )
                .stdin(Stdio::null())
                // A rank has no stdout: what it reports travels home in its
                // `Result` frame, and its diagnostics go to stderr. A test
                // harness re-exec'd as a rank prints its banner (`running 1
                // test`) before `child_rank` takes over; that goes nowhere.
                .stdout(Stdio::null())
                .spawn();
            match spawned {
                Ok(child) => children.borrow_mut().push((rank, child)),
                Err(e) => {
                    kill_all(&children);
                    return Err(launch_err(format!("spawn rank {rank}: {e}")));
                }
            }
        }

        // A child that exits during rendezvous (e.g. its binary never
        // reaches a matching child_rank call) must become a diagnostic,
        // not a hang.
        let give_up = || -> Option<String> {
            for (rank, child) in children.borrow_mut().iter_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Some(format!(
                        "rank {rank} process exited during rendezvous ({status}); does the \
                         binary reach a matching child_rank({entry:?}) call?"
                    ));
                }
            }
            None
        };

        // Collect the control connection + data address of every rank.
        let mut ctl_streams: Vec<Option<Stream>> = (0..p).map(|_| None).collect();
        let mut data_addrs: Vec<String> = vec![String::new(); p];
        for _ in 0..p {
            let outcome = (|| -> io::Result<(usize, Stream, String)> {
                let mut stream = ctl_listener.accept_deadline(self.launch_timeout, &give_up)?;
                stream.set_read_timeout(Some(self.launch_timeout))?;
                let hello = read_frame(&mut stream)?
                    .ok_or_else(|| io::Error::other("control connection closed before hello"))?;
                if hello.kind != FrameKind::Hello {
                    return Err(io::Error::other(format!(
                        "expected hello on control connection, got {:?}",
                        hello.kind
                    )));
                }
                let rank = hello.src as usize;
                let addr_frame = read_frame(&mut stream)?
                    .ok_or_else(|| io::Error::other("control connection closed before addr"))?;
                if addr_frame.kind != FrameKind::Addr {
                    return Err(io::Error::other(format!(
                        "expected addr on control connection, got {:?}",
                        addr_frame.kind
                    )));
                }
                let addr = String::from_utf8(addr_frame.payload)
                    .map_err(|e| io::Error::other(format!("bad addr payload: {e}")))?;
                Ok((rank, stream, addr))
            })();
            match outcome {
                Ok((rank, stream, addr)) => {
                    if rank >= p || ctl_streams[rank].is_some() {
                        kill_all(&children);
                        return Err(launch_err(format!("bogus or duplicate hello rank {rank}")));
                    }
                    ctl_streams[rank] = Some(stream);
                    data_addrs[rank] = addr;
                }
                Err(e) => {
                    kill_all(&children);
                    return Err(launch_err(format!("rendezvous: {e}")));
                }
            }
        }

        // Ship params + the full address table to every rank.
        let mut params_bytes = Vec::new();
        params.put(&mut params_bytes);
        let mut table_bytes = Vec::new();
        data_addrs.to_vec().put(&mut table_bytes);
        for (rank, slot) in ctl_streams.iter_mut().enumerate() {
            let stream = slot.as_mut().expect("all control connections collected");
            let sent = write_frame(
                stream,
                &Frame::control(FrameKind::Params, rank as u32, params_bytes.clone()),
            )
            .and_then(|()| {
                write_frame(
                    stream,
                    &Frame::control(FrameKind::Table, rank as u32, table_bytes.clone()),
                )
            });
            if let Err(e) = sent {
                kill_all(&children);
                return Err(launch_err(format!("sending params to rank {rank}: {e}")));
            }
        }

        // One reader thread per control connection feeds a single event
        // queue; the launcher then just waits for p results or the first
        // sign of death.
        enum CtlEvent {
            Frame(usize, Frame),
            Closed(usize, String),
        }
        let (tx, rx) = mpsc::channel::<CtlEvent>();
        let mut reader_handles = Vec::with_capacity(p);
        for (rank, slot) in ctl_streams.iter_mut().enumerate() {
            let mut stream = slot.take().expect("all control connections collected");
            // Result frames arrive whenever the rank finishes: no deadline.
            if let Err(e) = stream.set_read_timeout(None) {
                kill_all(&children);
                return Err(launch_err(format!("clearing control timeout: {e}")));
            }
            let tx = tx.clone();
            reader_handles.push(std::thread::spawn(move || loop {
                match read_frame(&mut stream) {
                    Ok(Some(frame)) => {
                        if tx.send(CtlEvent::Frame(rank, frame)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => {
                        let _ = tx.send(CtlEvent::Closed(rank, "exited".to_string()));
                        return;
                    }
                    Err(e) => {
                        let _ = tx.send(CtlEvent::Closed(rank, e.to_string()));
                        return;
                    }
                }
            }));
        }
        drop(tx);

        let mut results: Vec<Option<RankResult<R>>> = (0..p).map(|_| None).collect();
        let mut done = 0usize;
        let failure: Option<SockError> = loop {
            if done == p {
                break None;
            }
            match rx.recv() {
                Ok(CtlEvent::Frame(rank, frame)) => match frame.kind {
                    FrameKind::Result => {
                        let mut src = &frame.payload[..];
                        match RankResult::<R>::get(&mut src) {
                            Some(tuple) if results[rank].is_none() => {
                                results[rank] = Some(tuple);
                                done += 1;
                            }
                            _ => {
                                break Some(launch_err(format!(
                                    "undecodable or duplicate result from rank {rank}"
                                )))
                            }
                        }
                    }
                    FrameKind::Abort => {
                        let mut src = &frame.payload[..];
                        break Some(match <(Option<u64>, String)>::get(&mut src) {
                            Some((Some(dead), detail)) => SockError::PeerDeath {
                                dead: dead as usize,
                                detail,
                            },
                            Some((None, detail)) => SockError::Panic { rank, detail },
                            None => launch_err(format!("undecodable abort from rank {rank}")),
                        });
                    }
                    other => {
                        break Some(launch_err(format!(
                            "unexpected {other:?} frame on control connection from rank {rank}"
                        )))
                    }
                },
                Ok(CtlEvent::Closed(rank, detail)) => {
                    if results[rank].is_none() {
                        break Some(SockError::PeerDeath {
                            dead: rank,
                            detail: format!(
                                "control connection lost before a result arrived ({detail})"
                            ),
                        });
                    }
                    // EOF after this rank's result: normal exit.
                }
                Err(_) => {
                    break Some(launch_err(
                        "all control connections lost before completion".to_string(),
                    ))
                }
            }
        };

        if let Some(err) = failure {
            // An abort report can race the corpse's own control-EOF: a rank
            // observing a *cascade* shutdown may name the wrong peer. The
            // processes themselves are ground truth — prefer a child that
            // exited without delivering a result (and not via the orderly
            // abort exit) as the dead rank.
            let err = if matches!(err, SockError::PeerDeath { .. } | SockError::Panic { .. }) {
                std::thread::sleep(Duration::from_millis(50));
                let mut corpse = None;
                for (rank, child) in children.borrow_mut().iter_mut() {
                    if results[*rank].is_some() {
                        continue;
                    }
                    if let Ok(Some(status)) = child.try_wait() {
                        if status.code() != Some(ABORT_EXIT) {
                            corpse = Some((*rank, status));
                            break;
                        }
                    }
                }
                match corpse {
                    Some((rank, status)) => SockError::PeerDeath {
                        dead: rank,
                        detail: format!("process exited mid-run ({status})"),
                    },
                    None => err,
                }
            } else {
                err
            };
            kill_all(&children);
            for h in reader_handles {
                let _ = h.join();
            }
            return Err(err);
        }

        let wall_s = start.elapsed().as_secs_f64();
        for (_, child) in children.borrow_mut().iter_mut() {
            let _ = child.wait();
        }
        for h in reader_handles {
            let _ = h.join();
        }
        let mut out_results = Vec::with_capacity(p);
        let mut per_rank_wall = Vec::with_capacity(p);
        let mut high_water = Vec::with_capacity(p);
        let (mut messages, mut bytes) = (0u64, 0u64);
        for slot in results {
            let (r, m, b, w, h) = slot.expect("all results collected");
            out_results.push(r);
            per_rank_wall.push(w);
            messages += m;
            bytes += b;
            high_water.push(h);
        }
        Ok(SockReport {
            results: out_results,
            wall_s,
            per_rank_wall,
            messages,
            bytes,
            memory: telemetry::MemoryReport {
                budget: self.memory_budget.map(|b| b as u64),
                max_high_water: high_water.iter().copied().max().unwrap_or(0),
                per_rank_high_water: high_water,
            },
        })
    }
}

/// Child-rank environment, parsed from `SOCKCOMM_*`.
struct ChildEnv {
    rank: usize,
    size: usize,
    entry: String,
    ctl_addr: String,
    transport: Transport,
    dir: PathBuf,
    cores_per_node: usize,
    memory_budget: usize,
}

fn child_env() -> Option<ChildEnv> {
    let rank = std::env::var(ENV_RANK).ok()?;
    let parse = |key: &str| -> Option<String> { std::env::var(key).ok() };
    Some(ChildEnv {
        rank: rank.parse().ok()?,
        size: parse(ENV_SIZE)?.parse().ok()?,
        entry: parse(ENV_ENTRY)?,
        ctl_addr: parse(ENV_CTL)?,
        transport: Transport::parse(&parse(ENV_TRANSPORT)?)?,
        dir: PathBuf::from(parse(ENV_DIR)?),
        cores_per_node: parse(ENV_CORES)?.parse().ok()?,
        memory_budget: parse(ENV_BUDGET)?.parse().ok()?,
    })
}

/// Run `entry` if this process is a sockcomm child spawned for it;
/// otherwise do nothing.
///
/// Call this (once per entry name the binary supports) near the top of
/// `main`, before any expensive parent work. When the process was spawned
/// by [`SocketWorld::run`] with a matching entry name, this function
/// joins the rendezvous, runs `f` as one rank of the world, ships the
/// result to the launcher, and **exits the process** — it only returns
/// when this process is not a child for `entry`.
pub fn child_rank<P: Wire, R: Wire>(entry: &str, f: impl FnOnce(&SockComm, P) -> R) {
    let Some(env) = child_env() else {
        return;
    };
    if env.entry != entry {
        return;
    }
    let rank = env.rank;
    match run_child(&env, f) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("sockcomm rank {rank}: rendezvous failed: {e}");
            std::process::exit(ABORT_EXIT);
        }
    }
}

/// Read the expected rendezvous frame kind or fail with context.
fn expect_frame(stream: &mut Stream, want: FrameKind) -> io::Result<Frame> {
    let frame = read_frame(stream)?
        .ok_or_else(|| io::Error::other(format!("connection closed waiting for {want:?}")))?;
    if frame.kind != want {
        return Err(io::Error::other(format!(
            "expected {want:?}, got {:?}",
            frame.kind
        )));
    }
    Ok(frame)
}

fn run_child<P: Wire, R: Wire>(
    env: &ChildEnv,
    f: impl FnOnce(&SockComm, P) -> R,
) -> io::Result<()> {
    let me = env.rank;
    let p = env.size;
    let timeout = Duration::from_secs(60);

    // Control connection: introduce ourselves, publish our data address.
    let mut ctl = connect(env.transport, &env.ctl_addr, timeout)?;
    write_frame(
        &mut ctl,
        &Frame::control(FrameKind::Hello, me as u32, Vec::new()),
    )?;
    let data_listener = Listener::bind(env.transport, &env.dir.join(format!("d{me}.sock")))?;
    let data_addr = data_listener.addr_string()?;
    write_frame(
        &mut ctl,
        &Frame::control(FrameKind::Addr, me as u32, data_addr.into_bytes()),
    )?;

    ctl.set_read_timeout(Some(timeout))?;
    let params_frame = expect_frame(&mut ctl, FrameKind::Params)?;
    let table_frame = expect_frame(&mut ctl, FrameKind::Table)?;
    ctl.set_read_timeout(None)?;
    let params = {
        let mut src = &params_frame.payload[..];
        P::get(&mut src).ok_or_else(|| io::Error::other("undecodable params payload"))?
    };
    let table: Vec<String> = {
        let mut src = &table_frame.payload[..];
        Vec::<String>::get(&mut src).ok_or_else(|| io::Error::other("undecodable addr table"))?
    };
    if table.len() != p {
        return Err(io::Error::other("address table size mismatch"));
    }

    // Data mesh: connect down, accept up. Each link is one stream; the
    // write half goes into the universe, a read-half clone into a reader
    // thread.
    let mut links: Vec<Option<PeerLink>> = (0..p).map(|_| None).collect();
    let mut read_halves: Vec<(usize, Stream)> = Vec::with_capacity(p.saturating_sub(1));
    for peer in 0..me {
        let mut stream = connect(env.transport, &table[peer], timeout)?;
        write_frame(
            &mut stream,
            &Frame::control(FrameKind::Hello, me as u32, Vec::new()),
        )?;
        read_halves.push((peer, stream.try_clone()?));
        links[peer] = Some(PeerLink::new(stream)?);
    }
    for _ in me + 1..p {
        let mut stream = data_listener.accept_deadline(timeout, &|| None)?;
        stream.set_read_timeout(Some(timeout))?;
        let hello = expect_frame(&mut stream, FrameKind::Hello)?;
        stream.set_read_timeout(None)?;
        let peer = hello.src as usize;
        if peer <= me || peer >= p || links[peer].is_some() {
            return Err(io::Error::other(format!("bogus hello from peer {peer}")));
        }
        read_halves.push((peer, stream.try_clone()?));
        links[peer] = Some(PeerLink::new(stream)?);
    }

    let uni = Arc::new(SockUniverse::new(
        p,
        me,
        env.cores_per_node,
        env.memory_budget,
        links,
    ));
    let mut readers = Vec::with_capacity(read_halves.len());
    for (peer, stream) in read_halves {
        let uni = Arc::clone(&uni);
        readers.push(std::thread::spawn(move || reader_loop(stream, peer, uni)));
    }

    let members: Arc<[usize]> = (0..p).collect();
    let comm = SockComm::new(Arc::clone(&uni), Group::new(0, members, me));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm, params)));

    match outcome {
        Ok(result) => {
            // Close barrier: goodbye everyone, then wait for everyone's
            // goodbye before touching the sockets.
            let mut teardown_ok = true;
            for peer in (0..p).filter(|&w| w != me) {
                if let Err(e) = uni.send_goodbye(peer) {
                    uni.peer_died(peer, format!("goodbye send failed: {e}"));
                    teardown_ok = false;
                    break;
                }
            }
            if teardown_ok && uni.wait_goodbyes() {
                for r in readers {
                    let _ = r.join();
                }
                let wall = uni.start.elapsed().as_secs_f64();
                let mut payload = Vec::new();
                let high_water = uni.budget.high_water(me) as u64;
                let (messages, bytes) = (uni.recorder.messages(), uni.recorder.bytes());
                (result, messages, bytes, wall, high_water).put(&mut payload);
                write_frame(
                    &mut ctl,
                    &Frame::control(FrameKind::Result, me as u32, payload),
                )?;
                Ok(())
            } else {
                abort_and_exit(&uni, &mut ctl, me, "world aborted during teardown");
            }
        }
        Err(panic_payload) => {
            let detail = if panic_payload.is::<comm::Aborted>() {
                "aborted while a collective or receive was in flight".to_string()
            } else if let Some(s) = panic_payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = panic_payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "rank panicked (non-string payload)".to_string()
            };
            abort_and_exit(&uni, &mut ctl, me, &detail);
        }
    }
}

/// Report an abort to the launcher (naming the dead peer if one was
/// observed), print the diagnostic, and exit. Never returns.
fn abort_and_exit(uni: &Arc<SockUniverse>, ctl: &mut Stream, me: usize, detail: &str) -> ! {
    uni.abort();
    let (dead, message) = match uni.dead_peer() {
        Some(dp) => (
            Some(dp.rank as u64),
            format!("peer rank {} died: {} ({detail})", dp.rank, dp.detail),
        ),
        None => (None, detail.to_string()),
    };
    uni.shutdown_links();
    let mut payload = Vec::new();
    (dead, message.clone()).put(&mut payload);
    let _ = write_frame(ctl, &Frame::control(FrameKind::Abort, me as u32, payload));
    eprintln!("sockcomm rank {me}: {message}");
    std::process::exit(ABORT_EXIT);
}

/// Per-peer socket reader: reads frames and feeds the rank's mailbox
/// until the peer says goodbye (clean) or the connection dies (peer
/// death). Runs on its own thread; a full mailbox blocks it, which is the
/// backpressure path.
fn reader_loop(mut stream: Stream, peer: usize, uni: Arc<SockUniverse>) {
    loop {
        match read_data_frame(&mut stream) {
            Ok(Some(frame)) if frame.kind == FrameKind::Data => {
                // The link, not the header, says who is talking: a frame
                // naming another source would be filed under that rank's
                // matching key (or, for a rank outside the world, panic
                // the receive that opens it).
                if frame.src as usize != peer {
                    uni.peer_died(
                        peer,
                        format!(
                            "data frame claims src {} on the link to rank {peer}",
                            frame.src
                        ),
                    );
                    return;
                }
                let bytes = frame.payload.len();
                let delivered = uni.mailbox.push(
                    Envelope {
                        ctx: frame.ctx,
                        src: frame.src as usize,
                        tag: frame.tag,
                        data: Box::new(frame.payload),
                        bytes,
                    },
                    &uni.aborted,
                );
                if !delivered {
                    return; // world aborted while we were blocked
                }
            }
            Ok(Some(frame)) if frame.kind == FrameKind::Goodbye => {
                uni.note_goodbye();
                return;
            }
            Ok(Some(frame)) => {
                uni.peer_died(
                    peer,
                    format!("unexpected {:?} frame on data connection", frame.kind),
                );
                return;
            }
            Ok(None) => {
                if !uni.is_aborted() {
                    uni.peer_died(peer, "connection closed (EOF) without goodbye".to_string());
                }
                return;
            }
            Err(e) => {
                if !uni.is_aborted() {
                    uni.peer_died(peer, format!("connection error: {e}"));
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::mailbox::SrcSel;
    use comm::wire::Payload;
    use comm::Communicator;
    use std::os::unix::net::UnixStream;

    const CTX: u64 = 0;
    const TAG: u64 = 77;

    /// What rank 0 of a 3-rank world makes of `frames` arriving on its link
    /// to rank 2: the universe after the reader thread has returned.
    fn read_on_link_to_rank_2(frames: &[Frame]) -> Arc<SockUniverse> {
        let (mut tx, rx) = UnixStream::pair().expect("socketpair");
        let uni = Arc::new(SockUniverse::new(
            3,
            0,
            1,
            usize::MAX,
            vec![None, None, None],
        ));
        let reader = {
            let uni = Arc::clone(&uni);
            std::thread::spawn(move || reader_loop(Stream::Uds(rx), 2, uni))
        };
        for frame in frames {
            // The reader hangs up at a protocol error; what follows it on
            // the link may then fail to send.
            if write_frame(&mut tx, frame).is_err() {
                break;
            }
        }
        drop(tx);
        reader.join().expect("reader thread");
        uni
    }

    fn data_frame(src: u32) -> Frame {
        Frame {
            kind: FrameKind::Data,
            ctx: CTX,
            src,
            tag: TAG,
            payload: vec![1, 2, 3],
        }
    }

    #[test]
    fn data_frame_is_filed_under_the_link_it_arrived_on() {
        let goodbye = Frame::control(FrameKind::Goodbye, 2, Vec::new());
        let uni = read_on_link_to_rank_2(&[data_frame(2), goodbye]);
        assert!(uni.dead_peer().is_none());
        let env = uni
            .mailbox
            .try_take(CTX, SrcSel::Exact(2), TAG)
            .expect("delivered under rank 2");
        assert_eq!(env.bytes, 3);
    }

    /// What a rank's receive makes of a chunk its reader thread read: `u64`s
    /// and 16-byte pairs of them (the shape of a key/tag record) are the
    /// payload buffer itself; `u32`s (alignment 4) are decoded by a copy.
    #[test]
    fn a_chunk_of_aligned_pods_is_received_in_the_payload_buffer() {
        let keys: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let bytes = u64::as_wire_bytes(&keys).expect("pod").to_vec();
        let chunk = |tag| Frame {
            kind: FrameKind::Data,
            ctx: CTX,
            src: 2,
            tag,
            payload: bytes.clone(),
        };
        let goodbye = Frame::control(FrameKind::Goodbye, 2, Vec::new());
        let uni = read_on_link_to_rank_2(&[chunk(1), chunk(2), chunk(3), goodbye]);
        let comm = SockComm::new(Arc::clone(&uni), Group::new(CTX, (0..3).collect(), 0));
        // Where the reader thread put a chunk's bytes (the envelope goes
        // back for the receive under test).
        let payload_at = |tag| {
            let env = uni
                .mailbox
                .try_take(CTX, SrcSel::Exact(2), tag)
                .expect("delivered");
            let at = env.data.downcast_ref::<Payload>().expect("a payload");
            let at = at.as_bytes().as_ptr();
            assert!(uni.mailbox.push(env, &uni.aborted));
            at
        };

        let at = payload_at(1);
        let got: Vec<u64> = comm.recv_vec_raw(2, 1);
        assert_eq!((got.as_ptr().cast::<u8>(), &got), (at, &keys));
        let at = payload_at(2);
        let (src, pairs) = comm.recv_run_raw::<[u64; 2]>(&[2], 2);
        assert_eq!((src, pairs.as_ptr().cast::<u8>()), (2, at));
        assert_eq!(pairs.as_flattened(), &keys[..]);
        let at = payload_at(3);
        let halves: Vec<u32> = comm.recv_vec_raw(2, 3);
        assert_ne!(halves.as_ptr().cast::<u8>(), at);
        assert_eq!(Some(halves), u32::get_vec(&bytes));
    }

    #[test]
    fn data_frame_naming_another_source_is_a_protocol_error_of_the_link() {
        // src = 1: would be matched as rank 1's message. src = 9: outside
        // the world, would panic the receive that opens it.
        for claimed in [1u32, 9] {
            let uni = read_on_link_to_rank_2(&[data_frame(claimed), data_frame(2)]);
            let dead = uni.dead_peer().expect("the link's peer is blamed");
            assert_eq!(dead.rank, 2);
            assert!(
                dead.detail
                    .contains(&format!("data frame claims src {claimed}")),
                "{}",
                dead.detail
            );
            assert!(uni.is_aborted());
            assert!(
                uni.mailbox.try_take(CTX, SrcSel::Any, TAG).is_none(),
                "nothing from a link in protocol error may be delivered"
            );
        }
    }
}
