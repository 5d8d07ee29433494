//! Framed byte transports between the campaign coordinator and its worker
//! processes: one [`Transport`] trait over localhost TCP, child-process
//! stdio, and an in-process byte pipe, all carrying the same
//! length-prefixed binary frames.
//!
//! The framing is deliberately minimal — a little-endian `u32` length
//! prefix and the payload, nothing else — because payload structure,
//! versioning and integrity belong to the codec layer
//! ([`super::codec`]). Frames are size-capped ([`MAX_FRAME_LEN`]) so a
//! corrupt or hostile prefix cannot trigger an unbounded allocation.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;

/// Hard cap on a single frame's payload size (64 MiB). Campaign payloads
/// are far smaller — a lease is tens of bytes, a lease result a few KiB —
/// so anything near the cap indicates corruption. [`read_frame`] rejects a
/// prefix past the cap before reading any payload.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The starting size of [`read_frame`]'s payload buffer (64 KiB).
const FRAME_READ_START: usize = 64 << 10;

/// Writes one length-prefixed frame (`u32` little-endian length, then the
/// payload) and flushes, so a frame is visible to the peer as soon as the
/// call returns.
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidInput` if the payload
/// exceeds [`MAX_FRAME_LEN`].
pub fn write_frame(writer: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds the size cap",
        ));
    }
    let len = payload.len() as u32;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean
/// end-of-stream (the peer closed between frames); end-of-stream *inside*
/// a frame is an `UnexpectedEof` error — a torn frame is never silently
/// shortened. The payload buffer starts at no more than 64 KiB and grows
/// as bytes arrive, so a length prefix alone cannot make it allocate the
/// whole frame.
///
/// # Errors
///
/// Returns the underlying I/O error, `UnexpectedEof` on a torn frame, or
/// `InvalidData` if the prefix exceeds [`MAX_FRAME_LEN`].
pub fn read_frame(reader: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "frame length prefix torn by end of stream",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length prefix exceeds the size cap",
        ));
    }
    let mut payload = Vec::with_capacity(len.min(FRAME_READ_START));
    reader.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "frame payload torn by end of stream",
        ));
    }
    Ok(Some(payload))
}

/// A bidirectional byte channel to one peer, splittable into independently
/// owned write and read halves (the coordinator reads each worker from a
/// dedicated pump thread while its driver thread writes leases).
pub trait Transport: Send {
    /// A short human-readable peer label for diagnostics.
    fn label(&self) -> String;

    /// Splits the transport into its write and read halves. Dropping the
    /// write half signals end-of-stream to the peer, even while the read
    /// half is still blocked in a read — except over this process's own
    /// stdio ([`StdioTransport`]), which ends when the process exits.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (e.g. a failed socket clone).
    fn split(self: Box<Self>) -> io::Result<(Box<dyn Write + Send>, Box<dyn Read + Send>)>;
}

/// A [`Transport`] over a TCP stream — the cross-host wiring. The stream is
/// set to `TCP_NODELAY` (frames are small and latency-sensitive).
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
}

impl TcpTransport {
    /// Connects to a listening peer (the worker side of a TCP wiring, or
    /// the coordinator connecting to pre-started workers).
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpTransport> {
        TcpTransport::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an accepted or connected stream.
    ///
    /// # Errors
    ///
    /// Returns the error from configuring the socket.
    pub fn from_stream(stream: TcpStream) -> io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_owned());
        Ok(TcpTransport {
            stream,
            peer: format!("tcp:{peer}"),
        })
    }
}

impl Transport for TcpTransport {
    fn label(&self) -> String {
        self.peer.clone()
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn Write + Send>, Box<dyn Read + Send>)> {
        let reader = self.stream.try_clone()?;
        Ok((Box::new(TcpWriter(self.stream)), Box::new(reader)))
    }
}

/// The write half of a [`TcpTransport`]. Both halves share one socket, so
/// dropping this half shuts the socket's sending side down: the peer reads
/// end-of-stream although the read half (a worker's reader thread, a
/// coordinator's pump) may still be blocked in a read.
#[derive(Debug)]
struct TcpWriter(TcpStream);

impl Write for TcpWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Drop for TcpWriter {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Write);
    }
}

/// A [`Transport`] over a spawned child process's stdio — the coordinator
/// side of the `dtpm-worker` subprocess wiring. The read half owns the
/// [`Child`]: when it is dropped (the pump thread exits on end-of-stream)
/// the child is killed if still running and always reaped, so no worker
/// outlives its coordinator as a zombie.
#[derive(Debug)]
pub struct ChildTransport {
    child: Child,
    label: String,
}

impl ChildTransport {
    /// Spawns `command` with piped stdin/stdout (stderr is inherited, so
    /// worker diagnostics reach the coordinator's terminal) and wraps the
    /// pipes as a transport.
    ///
    /// # Errors
    ///
    /// Returns the spawn error.
    pub fn spawn(command: &mut Command) -> io::Result<ChildTransport> {
        let child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let label = format!("child:{}", child.id());
        Ok(ChildTransport { child, label })
    }
}

/// The read half of a [`ChildTransport`]: reads the child's stdout and
/// owns the child's lifecycle.
#[derive(Debug)]
struct ChildReader {
    stdout: ChildStdout,
    child: Child,
}

impl Read for ChildReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stdout.read(buf)
    }
}

impl Drop for ChildReader {
    fn drop(&mut self) {
        // Kill is best-effort (the child has usually exited already —
        // dropping the write half closed its stdin); wait always reaps.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Transport for ChildTransport {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn split(mut self: Box<Self>) -> io::Result<(Box<dyn Write + Send>, Box<dyn Read + Send>)> {
        let stdin: ChildStdin = self
            .child
            .stdin
            .take()
            .ok_or_else(|| io::Error::other("child stdin was not piped"))?;
        let stdout: ChildStdout = self
            .child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("child stdout was not piped"))?;
        Ok((
            Box::new(stdin),
            Box::new(ChildReader {
                stdout,
                child: self.child,
            }),
        ))
    }
}

/// A [`Transport`] over this process's own stdin/stdout — the worker side
/// of the subprocess wiring (`dtpm-worker` run as a child of a
/// coordinator).
#[derive(Debug, Default)]
pub struct StdioTransport;

impl StdioTransport {
    /// The process-stdio transport.
    pub fn new() -> StdioTransport {
        StdioTransport
    }
}

impl Transport for StdioTransport {
    fn label(&self) -> String {
        "stdio".to_owned()
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn Write + Send>, Box<dyn Read + Send>)> {
        Ok((Box::new(io::stdout()), Box::new(io::stdin())))
    }
}

/// The write half of a [`MemoryTransport`]: each `write` ships its bytes
/// as one message on the channel.
#[derive(Debug)]
struct PipeWriter {
    tx: mpsc::Sender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer pipe closed"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The read half of a [`MemoryTransport`]: a byte stream over the
/// channel's message chunks (a sender hang-up is a clean end-of-stream).
#[derive(Debug)]
struct PipeReader {
    rx: mpsc::Receiver<Vec<u8>>,
    chunk: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.pos >= self.chunk.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.chunk = chunk;
                    self.pos = 0;
                }
                Err(mpsc::RecvError) => return Ok(0),
            }
        }
        let n = (self.chunk.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// An in-process [`Transport`]: a pair of byte pipes over `mpsc` channels.
/// The test and bench wiring — a "worker process" is then just a thread
/// running [`super::worker::serve`], with exactly the frame/codec path of
/// the real transports and none of the process management.
#[derive(Debug)]
pub struct MemoryTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    label: String,
}

impl MemoryTransport {
    /// A connected pair of endpoints: whatever one writes, the other reads.
    /// Dropping either endpoint's write half ends the other's read stream.
    pub fn pair() -> (MemoryTransport, MemoryTransport) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (
            MemoryTransport {
                tx: a_tx,
                rx: a_rx,
                label: "memory:a".to_owned(),
            },
            MemoryTransport {
                tx: b_tx,
                rx: b_rx,
                label: "memory:b".to_owned(),
            },
        )
    }
}

impl Transport for MemoryTransport {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn Write + Send>, Box<dyn Read + Send>)> {
        Ok((
            Box::new(PipeWriter { tx: self.tx }),
            Box::new(PipeReader {
                rx: self.rx,
                chunk: Vec::new(),
                pos: 0,
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_memory_pair() {
        let (a, b) = MemoryTransport::pair();
        let (mut a_tx, mut a_rx) = Box::new(a).split().expect("split");
        let (mut b_tx, mut b_rx) = Box::new(b).split().expect("split");
        write_frame(&mut a_tx, b"hello").expect("write");
        write_frame(&mut a_tx, &[]).expect("empty frame");
        assert_eq!(
            read_frame(&mut b_rx).expect("read"),
            Some(b"hello".to_vec())
        );
        assert_eq!(read_frame(&mut b_rx).expect("read"), Some(Vec::new()));
        write_frame(&mut b_tx, &[7u8; 1000]).expect("write back");
        assert_eq!(read_frame(&mut a_rx).expect("read"), Some(vec![7u8; 1000]));
        // Dropping the write half is a clean end-of-stream for the peer.
        drop(a_tx);
        assert_eq!(read_frame(&mut b_rx).expect("eof"), None);
    }

    /// Serves `bytes`, then end of stream, recording the largest buffer a
    /// read was handed.
    struct LargestRead {
        bytes: Vec<u8>,
        largest: usize,
    }

    impl Read for LargestRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn torn_and_oversized_frames_are_rejected() {
        // A torn length prefix.
        let mut short: &[u8] = &[1, 0];
        assert_eq!(
            read_frame(&mut short).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // A torn payload.
        let mut torn: &[u8] = &[5, 0, 0, 0, b'a', b'b'];
        assert_eq!(
            read_frame(&mut torn).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // A prefix at the cap followed by end of stream is a torn frame, and
        // the reader is never handed more than the starting buffer.
        let mut at_cap = LargestRead {
            bytes: (MAX_FRAME_LEN as u32).to_le_bytes().to_vec(),
            largest: 0,
        };
        assert_eq!(
            read_frame(&mut at_cap).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert!(at_cap.largest <= FRAME_READ_START, "{}", at_cap.largest);
        // A prefix past the cap never allocates.
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut huge: &[u8] = &huge;
        assert_eq!(
            read_frame(&mut huge).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Clean EOF between frames is None, not an error.
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty).expect("clean eof"), None);
        // Writer-side cap.
        let mut sink = Vec::new();
        let oversized = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(&mut sink, &oversized).is_err());
    }

    #[test]
    fn tcp_transport_round_trips_on_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let transport = TcpTransport::from_stream(stream).expect("wrap");
            let (mut tx, mut rx) = Box::new(transport).split().expect("split");
            let frame = read_frame(&mut rx).expect("read").expect("frame");
            write_frame(&mut tx, &frame).expect("echo");
            // Hang up by dropping the write half alone; the read half lives
            // on until the thread is joined.
            rx
        });
        let client = TcpTransport::connect(addr).expect("connect");
        assert!(client.label().starts_with("tcp:"));
        let (mut tx, mut rx) = Box::new(client).split().expect("split");
        write_frame(&mut tx, b"ping").expect("write");
        assert_eq!(read_frame(&mut rx).expect("read"), Some(b"ping".to_vec()));
        assert_eq!(read_frame(&mut rx).expect("a clean end"), None);
        server.join().expect("server thread");
    }
}
