//! The wire-protocol client: one statement out, one response back.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{read_frame, write_frame, Response};

/// A blocking client connection. Not thread-safe by design — the protocol
/// is strict request/response, so share a [`Client`] behind a lock or open
/// one per thread.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect with `TCP_NODELAY` set: each request is one small frame
    /// that the server must see whole before it answers, so there is
    /// nothing to gain from Nagle's algorithm holding it back.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Whether `TCP_NODELAY` is set on the connection.
    pub fn nodelay(&self) -> io::Result<bool> {
        self.stream.nodelay()
    }

    /// Send one statement (SQL or `\` meta command) and read its response.
    pub fn request(&mut self, statement: &str) -> io::Result<Response> {
        write_frame(&mut self.stream, statement.as_bytes())?;
        let payload = read_frame(&mut self.stream)?;
        Response::decode(&payload)
    }
}
