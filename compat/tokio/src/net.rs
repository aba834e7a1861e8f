//! TCP types backed by blocking `std::net` sockets — safe on the
//! thread-per-task executor because a blocked `poll` only parks its own
//! task's thread.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

/// Async-looking TCP listener over `std::net::TcpListener`.
pub struct TcpListener {
    inner: std::net::TcpListener,
}

impl TcpListener {
    /// Binds to `addr`.
    pub async fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
        Ok(TcpListener {
            inner: std::net::TcpListener::bind(addr)?,
        })
    }

    /// Accepts one inbound connection (blocks this task's thread).
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, addr) = self.inner.accept()?;
        Ok((TcpStream { inner: stream }, addr))
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

/// Async-looking TCP stream over `std::net::TcpStream`.
pub struct TcpStream {
    pub(crate) inner: std::net::TcpStream,
}

impl TcpStream {
    /// Connects to `addr` (blocks this task's thread).
    pub async fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
        Ok(TcpStream {
            inner: std::net::TcpStream::connect(addr)?,
        })
    }

    /// Sets `TCP_NODELAY`: with it on, a write is sent at once instead
    /// of waiting (Nagle) for the previous segment's acknowledgement.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.inner.set_nodelay(nodelay)
    }
}
