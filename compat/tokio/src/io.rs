//! `AsyncReadExt` / `AsyncWriteExt` for the blocking-socket
//! [`TcpStream`].

use crate::net::TcpStream;
use std::future::Future;
use std::io::{self, Read as _, Write as _};

/// Read extension methods (the subset the workspace uses).
pub trait AsyncReadExt {
    /// Reads exactly `buf.len()` bytes.
    fn read_exact<'a>(
        &'a mut self,
        buf: &'a mut [u8],
    ) -> impl Future<Output = io::Result<usize>> + 'a;
}

/// Write extension methods (the subset the workspace uses).
pub trait AsyncWriteExt {
    /// Writes all of `buf`.
    fn write_all<'a>(&'a mut self, buf: &'a [u8]) -> impl Future<Output = io::Result<()>> + 'a;
}

impl AsyncReadExt for TcpStream {
    async fn read_exact<'a>(&'a mut self, buf: &'a mut [u8]) -> io::Result<usize> {
        self.inner.read_exact(buf)?;
        Ok(buf.len())
    }
}

impl AsyncWriteExt for TcpStream {
    async fn write_all<'a>(&'a mut self, buf: &'a [u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
}
