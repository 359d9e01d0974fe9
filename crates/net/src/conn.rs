//! Per-connection output state and the connection handshake.
//!
//! A node's sends are encoded on the reactor thread that runs the node,
//! straight onto the [`OutRing`] of the connection that carries them; the
//! same thread drains it to the socket. The ring is **bounded** in the
//! sense that matters: it never blocks the reactor, but once it holds
//! [`RING_HIGH`] bytes the reactor stops dispatching to the sending node
//! (and so stops reading that node's sockets) until the ring drains below
//! half — backpressure that reaches the remote senders through TCP flow
//! control instead of an unbounded queue.
//!
//! Frames are drained with vectored writes: the reactor stitches up to
//! [`MAX_IOVS`] queued frames into one `writev`, so a replication burst
//! costs one syscall, while a lone heartbeat still leaves immediately.

use contrarian_runtime::frame::encode_frame;
use contrarian_types::codec::{from_bytes, to_bytes, CodecError, Reader, Wire};
use contrarian_types::Addr;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

/// Byte budget of one connection's outbound ring. Crossing it pauses the
/// sending node; the reactor resumes it once the ring drains below half.
pub const RING_HIGH: usize = 4 << 20;

/// Max frames stitched into one vectored write.
pub const MAX_IOVS: usize = 64;

/// What one drain pass against the socket produced.
pub struct DrainOutcome {
    /// Frames fully handed to the kernel.
    pub frames: u64,
    /// Bytes handed to the kernel (including length prefixes).
    pub bytes: u64,
    /// The socket would block: the reactor must wait for writability.
    pub would_block: bool,
}

/// One connection's queue of encoded outbound frames. Owned by the
/// reactor thread that owns the socket; nothing else touches it.
#[derive(Default)]
pub struct OutRing {
    frames: VecDeque<Vec<u8>>,
    /// Bytes queued across all frames (first frame counted in full even if
    /// partially written — the budget is an order-of-magnitude brake, not
    /// an accounting ledger).
    bytes: usize,
    /// How much of the front frame has already been written.
    head_off: usize,
}

impl OutRing {
    /// Queues one encoded frame. Never blocks; the caller checks
    /// [`OutRing::over_budget`] and pauses the producer.
    pub fn push(&mut self, frame: Vec<u8>) {
        self.bytes += frame.len();
        self.frames.push_back(frame);
    }

    /// At or past [`RING_HIGH`]: the producer must pause.
    pub fn over_budget(&self) -> bool {
        self.bytes >= RING_HIGH
    }

    /// Drained below half the budget: a paused producer may resume.
    pub fn below_resume_mark(&self) -> bool {
        self.bytes < RING_HIGH / 2
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Writes as much queued data to `w` as the socket accepts, vectored.
    pub fn drain_to(&mut self, w: &mut impl Write) -> io::Result<DrainOutcome> {
        let mut out = DrainOutcome {
            frames: 0,
            bytes: 0,
            would_block: false,
        };
        while !self.frames.is_empty() {
            let mut iovs: Vec<IoSlice<'_>> = Vec::with_capacity(self.frames.len().min(MAX_IOVS));
            for (i, f) in self.frames.iter().take(MAX_IOVS).enumerate() {
                let s = if i == 0 { &f[self.head_off..] } else { &f[..] };
                iovs.push(IoSlice::new(s));
            }
            let n = match w.write_vectored(&iovs) {
                Ok(0) => {
                    // A zero-length vectored write with data queued means
                    // the peer is gone.
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ));
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    out.would_block = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            out.bytes += n as u64;
            // Advance the ring past the written bytes.
            let mut left = n;
            while left > 0 {
                let head_len = self
                    .frames
                    .front()
                    .expect("bytes written beyond ring")
                    .len()
                    - self.head_off;
                if left >= head_len {
                    left -= head_len;
                    let f = self.frames.pop_front().unwrap();
                    self.bytes -= f.len();
                    self.head_off = 0;
                    out.frames += 1;
                } else {
                    self.head_off += left;
                    left = 0;
                }
            }
        }
        Ok(out)
    }
}

/// The hello handshake: the first frame on every initiated connection,
/// identifying both endpoints so the acceptor can (a) route replies back
/// over the same socket and (b) sanity-check the dial.
const HELLO_MAGIC: u32 = 0x434e_5231; // "CNR1"

pub struct Hello {
    pub from: Addr,
    pub to: Addr,
}

impl Wire for Hello {
    const MIN_WIRE_SIZE: usize = 4 + 4 + 4;

    fn encode(&self, out: &mut Vec<u8>) {
        HELLO_MAGIC.encode(out);
        self.from.encode(out);
        self.to.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let magic = u32::decode(r)?;
        if magic != HELLO_MAGIC {
            return Err(CodecError::BadTag {
                what: "hello magic",
                tag: (magic & 0xff) as u8,
            });
        }
        Ok(Hello {
            from: Addr::decode(r)?,
            to: Addr::decode(r)?,
        })
    }
}

/// Encodes the hello as a ready-to-queue frame.
pub fn hello_frame(from: Addr, to: Addr) -> Vec<u8> {
    encode_frame(&to_bytes(&Hello { from, to }))
}

/// Decodes a hello payload.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, CodecError> {
    from_bytes::<Hello>(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{DcId, PartitionId};

    #[test]
    fn ring_drains_frames_in_order_vectored() {
        let mut ring = OutRing::default();
        ring.push(encode_frame(b"alpha"));
        ring.push(encode_frame(b"beta"));
        ring.push(encode_frame(b"gamma"));
        let mut sink = Vec::new();
        let out = ring.drain_to(&mut sink).unwrap();
        assert_eq!(out.frames, 3);
        assert_eq!(out.bytes as usize, sink.len());
        assert!(ring.is_empty() && !out.would_block);

        let mut want = Vec::new();
        for p in [&b"alpha"[..], b"beta", b"gamma"] {
            want.extend_from_slice(&encode_frame(p));
        }
        assert_eq!(sink, want, "drain preserves FIFO frame order");
    }

    /// A writer that accepts a fixed number of bytes, then blocks.
    struct Throttled {
        cap: usize,
        got: Vec<u8>,
    }
    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.cap == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap);
            self.cap -= n;
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_mid_frame() {
        let mut ring = OutRing::default();
        ring.push(encode_frame(&[7u8; 100]));
        ring.push(encode_frame(&[8u8; 100]));
        let mut w = Throttled {
            cap: 50,
            got: Vec::new(),
        };
        let out = ring.drain_to(&mut w).unwrap();
        assert_eq!(out.frames, 0, "first frame only half written");
        assert!(out.would_block && !ring.is_empty());

        w.cap = 10_000;
        let out = ring.drain_to(&mut w).unwrap();
        assert_eq!(out.frames, 2);
        assert!(ring.is_empty());
        let mut want = encode_frame(&[7u8; 100]);
        want.extend_from_slice(&encode_frame(&[8u8; 100]));
        assert_eq!(w.got, want, "no bytes lost or duplicated across the stall");
    }

    /// Pushing never blocks; crossing the budget raises the pause signal,
    /// and only a drain below half the budget clears it.
    #[test]
    fn budget_signals_pause_and_resume_with_hysteresis() {
        let mut ring = OutRing::default();
        ring.push(encode_frame(&vec![0u8; RING_HIGH / 4]));
        assert!(!ring.over_budget());
        for _ in 0..3 {
            ring.push(encode_frame(&vec![1u8; RING_HIGH / 4]));
        }
        assert!(ring.over_budget(), "four quarters reach the budget");
        ring.push(encode_frame(b"late"));
        let mut w = Throttled {
            cap: RING_HIGH / 4 + 4,
            got: Vec::new(),
        };
        ring.drain_to(&mut w).unwrap();
        assert!(!ring.over_budget() && !ring.below_resume_mark());
        w.cap = RING_HIGH;
        ring.drain_to(&mut w).unwrap();
        assert!(ring.below_resume_mark());
        assert!(
            w.got.ends_with(&encode_frame(b"late")),
            "FIFO across the pause"
        );
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_magic() {
        let from = Addr::client(DcId(1), 9);
        let to = Addr::server(DcId(0), PartitionId(3));
        let frame = hello_frame(from, to);
        // Strip the length prefix to get the payload back.
        let payload = &frame[4..];
        let h = decode_hello(payload).unwrap();
        assert_eq!((h.from, h.to), (from, to));

        let mut corrupt = payload.to_vec();
        corrupt[0] ^= 0xff;
        assert!(decode_hello(&corrupt).is_err(), "magic must be checked");
    }
}
