//! The frame transport and the listener every peer of the wire protocol
//! shares.
//!
//! [`crate::client::StorageClient`], the storage server's connection
//! threads and the `fidr route` front tier's all move frames through a
//! [`FrameConn`]: the stream, its [`FramedCodec`] and the one read
//! buffer. It is generic over `Read + Write`, so a test can drive it
//! with a scripted in-memory stream instead of a socket. The crate-private
//! `Listener` is the half the two servers share: the non-blocking accept
//! loop, the conns-limit drain, and the joining of every thread it
//! started.
//!
//! [`Recv::Idle`] means the stream's read timed out (after 25 ms on an
//! accepted socket) or would block, with no whole frame buffered: the
//! peer is between requests, or part-way through sending one — a partial
//! frame stays buffered across it. It is when a connection thread looks
//! at its listener's shutdown flag and does idle-time maintenance.

use crate::client::ClientError;
use fidr_nic::protocol::Message;
use fidr_nic::FramedCodec;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an accepted connection blocks in `read` before
/// [`FrameConn::recv`] reports [`Recv::Idle`]; bounds how long a drain
/// waits for a quiet peer.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Accept-loop poll interval (the listener runs non-blocking so the
/// loop can notice shutdown and connection-limit drain).
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// What one [`FrameConn::recv`] call saw.
#[derive(Debug, PartialEq, Eq)]
pub enum Recv {
    /// The next whole frame.
    Frame(Message),
    /// The read timed out or would block before a frame completed.
    Idle,
    /// The peer closed the stream at a frame boundary.
    Closed,
}

/// One end of a wire-protocol connection: a stream, the codec that
/// reassembles its frames, and the buffer reads land in.
pub struct FrameConn<S> {
    stream: S,
    codec: FramedCodec,
    buf: Vec<u8>,
}

impl<S: Read + Write> FrameConn<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        FrameConn {
            stream,
            codec: FramedCodec::new(),
            buf: vec![0u8; 64 * 1024],
        }
    }

    /// Bytes read off the stream so far.
    pub fn rx_bytes(&self) -> u64 {
        self.codec.stats().bytes_fed
    }

    /// Returns the next buffered frame, reading from the stream only
    /// when none is complete. `Interrupted` reads are retried.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] for a frame that can never decode (as
    /// soon as its header is in, before any body),
    /// [`ClientError::Disconnected`] for EOF inside a frame, and
    /// [`ClientError::Io`] for any other read failure. All are final.
    pub fn recv(&mut self) -> Result<Recv, ClientError> {
        loop {
            if let Some(msg) = self.codec.next_frame()? {
                return Ok(Recv::Frame(msg));
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) if self.codec.pending_bytes() == 0 => return Ok(Recv::Closed),
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => self.codec.feed(&self.buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(Recv::Idle)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Encodes `msg` and writes the whole frame; returns its length.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the message does not encode (an
    /// over-bound payload) — nothing is written — or [`ClientError::Io`].
    pub fn send(&mut self, msg: &Message) -> Result<usize, ClientError> {
        let frame = msg.encode()?;
        self.stream.write_all(&frame)?;
        Ok(frame.len())
    }
}

impl FrameConn<TcpStream> {
    /// Wraps a socket a [`Listener`] accepted: no-delay, and a
    /// [`READ_TIMEOUT`] so a quiet peer shows up as [`Recv::Idle`].
    pub(crate) fn accepted(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(FrameConn::new(stream))
    }
}

/// A listener's shutdown flag and connection counts, shared with the
/// threads serving its connections.
#[derive(Debug, Default)]
pub(crate) struct ListenState {
    /// Set to stop accepting; a connection thread leaves at its next
    /// [`Recv::Idle`].
    pub(crate) shutdown: AtomicBool,
    /// Connections accepted so far.
    pub(crate) accepted: AtomicU64,
    /// Connections whose thread is still running.
    pub(crate) active: AtomicU64,
}

/// A bound TCP listener and its accept thread, which in turn owns the
/// connection threads. Dropping it stops and joins them all.
pub(crate) struct Listener {
    addr: SocketAddr,
    state: Arc<ListenState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` and accepts until `state.shutdown` is set — or, with
    /// a `conns_limit`, until that many connections were accepted *and*
    /// all of them finished. Each connection runs `on_conn` on a thread
    /// of its own; `on_idle` runs on every accept poll that found nobody
    /// waiting.
    pub(crate) fn spawn(
        addr: SocketAddr,
        conns_limit: Option<u64>,
        state: Arc<ListenState>,
        on_idle: impl Fn() + Send + 'static,
        on_conn: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || {
            let (state, on_conn) = (&*accept_state, &on_conn);
            // Scoped: this thread ends only after every connection
            // thread it started has.
            std::thread::scope(|scope| {
                while !state.shutdown.load(Ordering::Relaxed) {
                    let accepted = state.accepted.load(Ordering::Relaxed);
                    if conns_limit.is_some_and(|limit| accepted >= limit) {
                        // Past the limit: drain instead of accepting more.
                        if state.active.load(Ordering::Relaxed) == 0 {
                            break;
                        }
                        std::thread::sleep(ACCEPT_POLL);
                        continue;
                    }
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            state.accepted.fetch_add(1, Ordering::Relaxed);
                            state.active.fetch_add(1, Ordering::Relaxed);
                            scope.spawn(move || {
                                on_conn(stream);
                                state.active.fetch_sub(1, Ordering::Relaxed);
                            });
                        }
                        Err(e) => {
                            // Anything but "nobody waiting" is transient
                            // (a peer reset mid-handshake), never fatal.
                            if e.kind() == ErrorKind::WouldBlock {
                                on_idle();
                            }
                            std::thread::sleep(ACCEPT_POLL);
                        }
                    }
                }
                // Lingering connections (and anyone else watching the
                // flag) leave once the accept loop has.
                state.shutdown.store(true, Ordering::Relaxed);
            });
        });
        Ok(Listener {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// The actually bound address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the accept loop and every connection thread to end,
    /// which leaves `shutdown` set. Set it first unless a conns-limit
    /// drain is what is being waited for.
    pub(crate) fn join(&mut self) {
        if let Some(accept) = self.accept_thread.take() {
            accept.join().expect("listener thread panicked");
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        // A dropped handle must not leak the accept loop or strand
        // connection threads blocked on reads.
        self.state.shutdown.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fidr_chunk::Lba;
    use fidr_nic::protocol::{ProtocolError, HEADER_BYTES, MAX_PAYLOAD_BYTES};
    use std::collections::VecDeque;

    /// One scripted `read` outcome.
    enum Step {
        Bytes(Vec<u8>),
        Fail(ErrorKind),
    }

    /// An in-memory peer: each `read` plays the next step (EOF once the
    /// script runs out); writes are captured.
    struct Script {
        steps: VecDeque<Step>,
        written: Vec<u8>,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Step::Bytes(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Step::Fail(kind)) => Err(kind.into()),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn scripted(steps: Vec<Step>) -> FrameConn<Script> {
        FrameConn::new(Script {
            steps: steps.into(),
            written: Vec::new(),
        })
    }

    fn three_frames() -> (Vec<Message>, Vec<u8>) {
        let msgs = vec![
            Message::Write {
                lba: Lba(1),
                data: Bytes::from(vec![7u8; 300]),
            },
            Message::Delete { lba: Lba(2) },
            Message::ReadReply {
                lba: Lba(3),
                data: Bytes::from(vec![9u8; 100]),
            },
        ];
        let wire = msgs.iter().flat_map(|m| m.encode().unwrap()).collect();
        (msgs, wire)
    }

    #[test]
    fn a_stream_split_anywhere_yields_the_same_frames_and_idles_are_not_errors() {
        let (msgs, wire) = three_frames();
        for cut in 1..wire.len() {
            // Two slices with a timeout between them and an interrupted
            // read inside the second: the partial frame must survive both.
            let mut conn = scripted(vec![
                Step::Bytes(wire[..cut].to_vec()),
                Step::Fail(if cut % 2 == 0 {
                    ErrorKind::WouldBlock
                } else {
                    ErrorKind::TimedOut
                }),
                Step::Fail(ErrorKind::Interrupted),
                Step::Bytes(wire[cut..].to_vec()),
            ]);
            let (mut got, mut idles) = (Vec::new(), 0);
            loop {
                match conn.recv().expect("a split stream is not an error") {
                    Recv::Frame(msg) => got.push(msg),
                    Recv::Idle => idles += 1,
                    Recv::Closed => break,
                }
            }
            assert_eq!(got, msgs, "cut={cut}");
            assert_eq!(idles, 1, "cut={cut}: one timeout, one idle");
            assert_eq!(conn.rx_bytes(), wire.len() as u64);
        }
    }

    #[test]
    fn eof_is_closed_at_a_frame_boundary_and_an_error_inside_a_frame() {
        let (_, wire) = three_frames();
        let mut conn = scripted(vec![Step::Bytes(wire.clone())]);
        for _ in 0..3 {
            assert!(matches!(conn.recv().unwrap(), Recv::Frame(_)));
        }
        assert_eq!(conn.recv().unwrap(), Recv::Closed);

        let mut conn = scripted(vec![Step::Bytes(wire[..wire.len() - 1].to_vec())]);
        for _ in 0..2 {
            assert!(matches!(conn.recv().unwrap(), Recv::Frame(_)));
        }
        assert!(matches!(conn.recv(), Err(ClientError::Disconnected)));
    }

    #[test]
    fn a_frame_that_can_never_decode_fails_on_its_header_before_the_body() {
        let header = |opcode: u8, declared: u32| {
            let mut h = vec![opcode];
            h.extend_from_slice(&0u64.to_le_bytes());
            h.extend_from_slice(&declared.to_le_bytes());
            assert_eq!(h.len(), HEADER_BYTES);
            h
        };
        let cases = [
            (header(0xee, 0), ProtocolError::BadOpcode(0xee)),
            (
                header(0x01, u32::MAX),
                ProtocolError::PayloadTooLarge {
                    len: u64::from(u32::MAX),
                },
            ),
            // A Read carries no payload: declaring one is refused, not
            // buffered.
            (
                header(0x02, 1 << 20),
                ProtocolError::UnexpectedPayload {
                    opcode: 0x02,
                    len: 1 << 20,
                },
            ),
        ];
        for (head, want) in cases {
            let mut conn = scripted(vec![Step::Bytes(head), Step::Bytes(vec![0u8; 512])]);
            match conn.recv() {
                Err(ClientError::Protocol(got)) => assert_eq!(got, want),
                other => panic!("expected {want:?}, got {other:?}"),
            }
            assert_eq!(conn.stream.steps.len(), 1, "the body was never read");
        }
    }

    #[test]
    fn send_writes_one_whole_frame_and_an_over_bound_payload_writes_nothing() {
        let mut conn = scripted(Vec::new());
        let msg = Message::Read { lba: Lba(5) };
        assert_eq!(conn.send(&msg).unwrap(), HEADER_BYTES);
        assert_eq!(conn.stream.written, msg.encode().unwrap());

        let mut conn = scripted(Vec::new());
        let huge = Message::Write {
            lba: Lba(0),
            data: Bytes::from(vec![0u8; MAX_PAYLOAD_BYTES + 1]),
        };
        assert!(matches!(
            conn.send(&huge),
            Err(ClientError::Protocol(ProtocolError::PayloadTooLarge { .. }))
        ));
        assert!(conn.stream.written.is_empty());
    }
}
