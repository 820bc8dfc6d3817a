//! Transport selection: TCP on loopback or Unix-domain sockets, behind one
//! `Stream`/`Listener` pair so the rest of the backend is transport-blind.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Which socket family a world runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Unix-domain sockets in the world's scratch directory (the default:
    /// lowest latency, no port allocation, self-cleaning with the dir).
    Uds,
    /// TCP on 127.0.0.1 with kernel-assigned ports (exercises the code
    /// path a multi-host deployment would use).
    Tcp,
}

impl Transport {
    /// Parse a CLI/env spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uds" | "unix" => Some(Self::Uds),
            "tcp" => Some(Self::Tcp),
            _ => None,
        }
    }

    /// The spelling [`Transport::parse`] accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Uds => "uds",
            Self::Tcp => "tcp",
        }
    }
}

/// A connected byte stream of either family.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Uds(UnixStream),
}

impl Stream {
    /// Clone the handle (shares the underlying socket).
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
        })
    }

    /// Shut down both directions; any blocked reader on the socket (local
    /// or remote) sees EOF.
    pub fn shutdown(&self) {
        // Best-effort: the socket may already be gone.
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Bound (or unbound, with `None`) how long reads may block. Used only
    /// during rendezvous, where a silent peer should become an error.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Uds(s) => s.set_read_timeout(d),
        }
    }

    /// Disable Nagle batching on TCP (no-op for UDS): the collectives are
    /// latency-bound ping-pongs, not throughput streams.
    pub fn tune(&self) {
        if let Stream::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }

    /// One `writev`: a frame's prefix and payload leave in a single call
    /// without being assembled into one buffer first.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Uds(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// A listening socket of either family.
pub enum Listener {
    /// TCP listener on loopback.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Uds(UnixListener),
}

impl Listener {
    /// Bind a listener: a kernel-assigned loopback port for TCP, or the
    /// given path for UDS.
    pub fn bind(transport: Transport, uds_path: &Path) -> io::Result<Listener> {
        Ok(match transport {
            Transport::Tcp => Listener::Tcp(TcpListener::bind("127.0.0.1:0")?),
            Transport::Uds => Listener::Uds(UnixListener::bind(uds_path)?),
        })
    }

    /// The address string a peer passes to [`connect`]: `host:port` for
    /// TCP, the socket path for UDS.
    pub fn addr_string(&self) -> io::Result<String> {
        Ok(match self {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            Listener::Uds(l) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "unnamed unix socket")
                })?;
                path.to_string_lossy().into_owned()
            }
        })
    }

    /// Accept one connection, polling with a deadline so a dead peer (or a
    /// child that never came up) turns into an error instead of a hang.
    /// `give_up` is polled between attempts for early abort.
    pub fn accept_deadline(
        &self,
        timeout: Duration,
        give_up: &dyn Fn() -> Option<String>,
    ) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Uds(l) => l.set_nonblocking(true)?,
        }
        let deadline = Instant::now() + timeout;
        loop {
            let got = match self {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
            };
            match got {
                Ok(stream) => {
                    match &stream {
                        Stream::Tcp(s) => s.set_nonblocking(false)?,
                        Stream::Uds(s) => s.set_nonblocking(false)?,
                    }
                    stream.tune();
                    return Ok(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Some(why) = give_up() {
                        return Err(io::Error::other(why));
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out waiting for a peer connection",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Connect to a peer address produced by [`Listener::addr_string`],
/// retrying briefly (the peer may still be binding).
pub fn connect(transport: Transport, addr: &str, timeout: Duration) -> io::Result<Stream> {
    let deadline = Instant::now() + timeout;
    loop {
        let got = match transport {
            Transport::Tcp => TcpStream::connect(addr).map(Stream::Tcp),
            Transport::Uds => UnixStream::connect(addr).map(Stream::Uds),
        };
        match got {
            Ok(stream) => {
                stream.tune();
                return Ok(stream);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}
