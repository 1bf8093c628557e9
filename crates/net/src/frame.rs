//! The wire format: length-prefixed, checksummed frames over a TCP stream.
//!
//! Every frame is `u32` little-endian body length, then a `u32` CRC-32
//! covering **the length prefix and the body**, then the body: one kind
//! byte followed by the kind's fields. Integers are little-endian;
//! strings and payloads are length-prefixed byte runs. The payload bytes
//! inside an [`Frame::Env`] are exactly the [`patternlets_mp::Datatype`]
//! encoding the in-process backend already uses — the network layer
//! never re-encodes application data, it just moves the same bytes
//! across a socket instead of across a thread boundary.
//!
//! Folding the length prefix into the checksum matters for framing: a
//! flipped length byte misdirects the reader to a wrong frame boundary,
//! and a body-only CRC would report that as damage to the *next* frame
//! (or, for an inflated length, leave the reader waiting on bytes that
//! never come). With the prefix covered, the mismatch is pinned to the
//! frame that was actually corrupted.
//!
//! Decoding is strict: truncated bodies, trailing garbage, over-long
//! frames, checksum mismatches, and unknown kind bytes are all rejected
//! with [`Error::Codec`](patternlets_core::Error::Codec) rather than
//! guessed at. A CRC mismatch (error message prefixed [`CRC_MISMATCH`])
//! means the *stream* is untrustworthy, not just the frame: the fabric
//! reacts by tearing the connection down and resuming from the send ring
//! rather than decoding garbage.
//!
//! Two readers take frames off a stream. [`StreamFrames`] is the peer
//! link's: a non-blocking parser that buffers whatever a socket holds and
//! checks and decodes each complete record in place, as [`decode_frame`],
//! the shm link's decoder, does. [`read_frame`] is the blocking one the
//! handshakes (`Hello`, `Resume`, rendezvous, `pmserve`'s worker
//! connections) use, and it is timeout-aware: on a socket armed with a
//! read timeout, silence *between* frames is reported as [`IDLE_TIMEOUT`]
//! (the caller decides whether to keep waiting) while silence *inside* a
//! frame is [`MID_FRAME_STALL`], so a stalled peer cannot pin a handshake
//! on a `read_exact` that never returns. Every reader, the shm link's
//! `RingFrames` too, checks a record's header with one function
//! (`body_len`) and grows its buffer by one rule (`grow`), so none sizes
//! anything by a length a peer claims: each holds at most its first
//! buffer, or twice the bytes that arrived. The property tests in
//! `tests/wire_codec.rs` fuzz both directions, and
//! `crates/net/tests/stream_frames.rs` holds the parser to `read_frame`'s
//! answers, and both to that bound, on hostile input.

use std::borrow::Cow;
use std::io::{Read, Write};

use patternlets_core::{crc32, crc32_extend, Error, Result};

/// Error-message prefix for checksum failures, so the transport can tell
/// "corrupt stream" apart from "malformed frame" without a new error type.
pub const CRC_MISMATCH: &str = "frame crc mismatch";

/// Error-message prefix for a read timeout that fired with *no* bytes of
/// the next frame read. The stream is idle, not damaged: the fabric's
/// reader keeps waiting (peer liveness is the heartbeat layer's verdict,
/// not this one's), while handshake waits treat it as "no reply".
pub const IDLE_TIMEOUT: &str = "idle between frames";

/// Error-message prefix for a read timeout that fired *inside* a frame —
/// the peer went silent mid-record. The rest of the frame may never
/// arrive, so the stream cannot be resynchronized in place; the fabric
/// reacts exactly as it does to a CRC mismatch: tear down and resume.
pub const MID_FRAME_STALL: &str = "peer stalled mid-frame";

/// Upper bound on one frame's body, protecting the reader from garbage
/// length prefixes (64 MiB is far above any patternlet payload).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// One message of the peer-to-peer (and rendezvous) protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: who is dialing, for which world epoch.
    Hello {
        /// World-creation ordinal the connection belongs to.
        epoch: u64,
        /// The dialing process's world rank.
        rank: u64,
    },
    /// One application envelope, fields mirroring
    /// [`patternlets_mp::Envelope`] plus the chaos displacement count.
    Env {
        /// Communicator id the message travels on.
        comm_id: u64,
        /// Sender, in the communicator's local numbering.
        src: u64,
        /// Message tag (negative = runtime-internal).
        tag: i32,
        /// Element type name: decoded as the `&'static str` of a built-in
        /// [`patternlets_mp::Datatype`] without allocating, owned for any
        /// other (the peer mesh interns those).
        type_name: Cow<'static, str>,
        /// Element count.
        count: u64,
        /// Per-sender sequence number (receiver dedup).
        seq: u64,
        /// Synchronous-send handshake flag.
        needs_ack: bool,
        /// Chaos reordering: deliver ahead of up to this many queued
        /// envelopes from other senders.
        overtake: u32,
        /// The `Datatype`-encoded payload.
        payload: Vec<u8>,
    },
    /// The sending rank's body returned normally; a subsequent EOF on
    /// this connection is a clean exit, not a failure.
    Finish {
        /// The finished world rank.
        rank: u64,
    },
    /// The sending process announces a failed rank (fault-plan kill or
    /// panic) so every peer converges on the same membership verdict.
    Failed {
        /// The failed world rank.
        rank: u64,
    },
    /// One contribution to a message-free agreement round
    /// (`Comm::agree`/`Comm::shrink`).
    Agree {
        /// Communicator id of the round.
        comm_id: u64,
        /// Agreement kind (agree vs shrink).
        kind: u8,
        /// Agreement sequence number on that communicator.
        seq: u64,
        /// Contributing world rank.
        rank: u64,
        /// Contributed value.
        value: u64,
    },
    /// Heartbeat; refreshes the peer's liveness clock and piggybacks the
    /// sender's cumulative count of *sequenced* frames received on this
    /// peer connection, so the receiver can prune its send ring (every
    /// frame up to `seen` can never need replaying).
    Ping {
        /// Sequenced frames the sender has received from this peer so far.
        seen: u64,
    },
    /// Worker → rendezvous: my listener is up at `addr` for `epoch`.
    Register {
        /// World-creation ordinal being rendezvoused.
        epoch: u64,
        /// Registering world rank.
        rank: u64,
        /// World size — the rendezvous completes after `np` registrations.
        np: u64,
        /// The registrant's listener address (`host:port`).
        addr: String,
    },
    /// Rendezvous → worker: every member's listener address, rank order.
    Table {
        /// Listener addresses indexed by world rank.
        addrs: Vec<String>,
    },
    /// Reconnect handshake, both directions: "this is rank `rank`
    /// re-dialing for `epoch`; I have received `recv_seq` sequenced frames
    /// from you — replay everything after that." The acceptor answers
    /// with its own `Resume` before either side resumes traffic.
    Resume {
        /// World-creation ordinal the connection belongs to.
        epoch: u64,
        /// The sending process's world rank.
        rank: u64,
        /// Sequenced frames the sender had received before the cut.
        recv_seq: u64,
    },
    /// Worker → daemon: join `pmserve`'s elastic pool. The connection
    /// this arrives on becomes the worker's long-lived control channel;
    /// its EOF is how the daemon learns the worker left (or died).
    WorkerHello {
        /// The worker's OS process id, for the `/workers` view.
        pid: u64,
        /// The worker's host, for the `/workers` view and (eventually)
        /// placement-aware scheduling; workers on the daemon's own host
        /// are candidates for the shared-memory fabric.
        host: String,
    },
    /// Daemon → worker: run one rank of a queued job. The worker plays
    /// world rank `rank` of an `np`-rank world; every world the
    /// patternlet builds rendezvouses (through the daemon's shared
    /// [`RendezvousCore`](crate::rendezvous::RendezvousCore)) inside the
    /// job's private epoch block starting at `epoch_base`.
    JobAssign {
        /// Daemon-assigned job id.
        job: u64,
        /// Registry name of the patternlet to run (`family/program`).
        patternlet: String,
        /// World size of the job.
        np: u64,
        /// The rank this worker plays.
        rank: u64,
        /// First epoch of the job's private rendezvous block.
        epoch_base: u64,
        /// Directive toggle (`--on`).
        on: bool,
        /// Wire-chaos plan in `PMRUN_NET_CHAOS` env-value form; empty =
        /// chaos off.
        chaos: String,
        /// Capture an execution trace: the worker runs the patternlet
        /// under a [`patternlets_trace::Tracer`] and ships the Chrome
        /// export back as a [`Frame::JobTrace`] before `JobDone`.
        trace: bool,
    },
    /// Worker → daemon: one line of a job's captured stdout, streamed as
    /// it is emitted so gateway clients can watch live.
    JobLine {
        /// The job the line belongs to.
        job: u64,
        /// Emitting world rank.
        rank: u64,
        /// The text, without a trailing newline.
        line: String,
    },
    /// Rank → launcher: one rank's metrics snapshot, cumulative over the
    /// job (the launcher keeps the latest): from a `pmserve` worker when
    /// the rank ends, from a `pmrun` rank (job 0) on a cadence.
    JobMetrics {
        /// The job the snapshot belongs to.
        job: u64,
        /// The reporting world rank.
        rank: u64,
        /// `patternlets_metrics::wire::encode` output.
        payload: Vec<u8>,
    },
    /// Worker → daemon: this worker's rank of the job terminated.
    JobDone {
        /// The finished job.
        job: u64,
        /// The finished world rank.
        rank: u64,
        /// Did the rank body complete without error?
        ok: bool,
        /// Failure description when `!ok` (panic message, `RankFailed`
        /// rank, unknown-patternlet complaint); empty on success.
        error: String,
    },
    /// Daemon → worker: the daemon is draining; finish up and exit.
    /// Also `pmrun` → its own rendezvous listener, once every rank has
    /// exited: the last connection the listener will take reports from.
    Shutdown,
    /// Clock-offset probe, sent to rank 0 right after the peer mesh is
    /// established: `t0` is the prober's wall clock (Unix ns) at send.
    /// Rank 0 answers with [`Frame::ClockReply`]; the prober combines
    /// the echoed `t0`, its own receive time `t1`, and the replier's
    /// clock `s` into the RTT-midpoint offset estimate `s − (t0+t1)/2`.
    ClockProbe {
        /// The prober's wall clock (Unix ns) when the probe left.
        t0: u64,
    },
    /// Reply to a [`Frame::ClockProbe`]: echoes the probe's `t0` (so a
    /// late reply can't close the wrong sample) plus the replier's own
    /// wall clock at the moment it handled the probe.
    ClockReply {
        /// The probe's `t0`, echoed verbatim.
        t0: u64,
        /// The replier's wall clock (Unix ns) when it saw the probe.
        server_ns: u64,
    },
    /// Rank → launcher: one rank's Chrome-trace export for a traced job,
    /// sent after the rank body finishes (under `pmserve`, before
    /// `JobDone`). The launcher merges all ranks' exports with
    /// `patternlets_trace::chrome::merge_chrome_json`: `pmserve` serves
    /// the result at `GET /jobs/:id/trace`, `pmrun --trace` writes it.
    JobTrace {
        /// The job the trace belongs to.
        job: u64,
        /// The reporting world rank.
        rank: u64,
        /// `to_chrome_json_with_base` output (UTF-8 JSON).
        json: String,
    },
}

impl Frame {
    /// Is this frame *sequenced* — counted by both ends of a peer
    /// connection and replayed from the send ring across a reconnect?
    ///
    /// Sequenced frames carry world state that must arrive exactly once
    /// in order ([`Frame::Env`], [`Frame::Finish`], [`Frame::Failed`],
    /// [`Frame::Agree`]). Everything else is connection plumbing
    /// (handshakes, heartbeats, rendezvous, metrics) that is regenerated
    /// rather than replayed, so it stays outside the sequence space —
    /// both sides must agree exactly on this classification or resume
    /// counts drift.
    pub fn is_sequenced(&self) -> bool {
        matches!(
            self,
            Frame::Env { .. } | Frame::Finish { .. } | Frame::Failed { .. } | Frame::Agree { .. }
        )
    }
}

/// `TYPE_NAME`s of the built-in [`patternlets_mp::Datatype`] impls: an
/// `Env` frame naming one of these decodes to the static name.
const KNOWN_TYPE_NAMES: &[&str] = &[
    "i32",
    "i64",
    "u32",
    "u64",
    "f32",
    "f64",
    "u8",
    "bool",
    "usize",
    "String",
    "(T, usize)",
];

const KIND_HELLO: u8 = 0;
const KIND_ENV: u8 = 1;
const KIND_FINISH: u8 = 2;
const KIND_FAILED: u8 = 3;
const KIND_AGREE: u8 = 4;
const KIND_PING: u8 = 5;
const KIND_REGISTER: u8 = 6;
const KIND_TABLE: u8 = 7;
// Kind 8 is retired: a new kind reusing it would misread older builds' frames.
const KIND_RESUME: u8 = 9;
const KIND_WORKER_HELLO: u8 = 10;
const KIND_JOB_ASSIGN: u8 = 11;
const KIND_JOB_LINE: u8 = 12;
const KIND_JOB_METRICS: u8 = 13;
const KIND_JOB_DONE: u8 = 14;
const KIND_SHUTDOWN: u8 = 15;
const KIND_CLOCK_PROBE: u8 = 16;
const KIND_CLOCK_REPLY: u8 = 17;
const KIND_JOB_TRACE: u8 = 18;

/// Builds one wire record in a single buffer: an 8-byte header slot
/// (length prefix, then a CRC placeholder), then the body. [`finish`]
/// patches both header fields in place, so the record is never copied;
/// [`finish_head`] does the same for the head of a record whose body
/// ends in a payload that stays where it is.
///
/// [`finish`]: RecordWriter::finish
/// [`finish_head`]: RecordWriter::finish_head
struct RecordWriter(Vec<u8>);

impl RecordWriter {
    /// A writer whose buffer holds a `body_len`-byte body without
    /// growing.
    fn with_body_capacity(body_len: usize) -> Self {
        let mut buf = Vec::with_capacity(8 + body_len);
        buf.extend_from_slice(&[0; 8]);
        RecordWriter(buf)
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// Patch the length prefix and the CRC over `length ++ body`.
    fn finish(self) -> Vec<u8> {
        self.finish_head(&[])
    }

    /// Patch the header of a record whose body is these bytes followed by
    /// `payload`, and return these bytes, the record's head: the length
    /// counts both, and the CRC covers `length ++ body ++ payload`. The
    /// payload is read, not copied.
    fn finish_head(self, payload: &[u8]) -> Vec<u8> {
        let mut head = self.0;
        let len_bytes = ((head.len() - 8 + payload.len()) as u32).to_le_bytes();
        let crc = crc32_extend(frame_crc(&len_bytes, &head[8..]), payload);
        head[..4].copy_from_slice(&len_bytes);
        head[4..8].copy_from_slice(&crc.to_le_bytes());
        head
    }
}

/// The fields of a [`Frame::Env`] other than its payload, borrowed: the
/// peer mesh writes an outgoing envelope's record straight from the
/// envelope, as the [`head`](EnvHeader::head) followed by the payload,
/// without first copying the payload into a `Frame` or a record buffer.
pub(crate) struct EnvHeader<'a> {
    pub comm_id: u64,
    pub src: u64,
    pub tag: i32,
    pub type_name: &'a str,
    pub count: u64,
    pub seq: u64,
    pub needs_ack: bool,
    pub overtake: u32,
}

impl EnvHeader<'_> {
    /// Body bytes besides the type name and the payload: kind, the
    /// fixed-width fields, and the two length prefixes.
    const FIXED_BODY: usize = 1 + 8 + 8 + 4 + 4 + 8 + 8 + 1 + 4 + 4;

    /// The head of this envelope's wire record carrying `payload`: the
    /// length prefix, the CRC, and the body up to and including the
    /// payload's length. `head ++ payload` is the whole record, byte for
    /// byte what [`encode_frame`] writes; the CRC is computed over the
    /// payload where it lies. The buffer has `room` bytes of capacity to
    /// spare: `encode_frame` appends the payload there, and the peer mesh,
    /// which hands head and payload to the link apart, asks for none.
    pub(crate) fn head(&self, payload: &[u8], room: usize) -> Vec<u8> {
        let mut w =
            RecordWriter::with_body_capacity(Self::FIXED_BODY + self.type_name.len() + room);
        w.u8(KIND_ENV);
        w.u64(self.comm_id);
        w.u64(self.src);
        w.i32(self.tag);
        w.string(self.type_name);
        w.u64(self.count);
        w.u64(self.seq);
        w.u8(u8::from(self.needs_ack));
        w.u32(self.overtake);
        w.u32(payload.len() as u32);
        debug_assert_eq!(
            w.0.len() + room,
            w.0.capacity(),
            "Env heads are exactly sized"
        );
        w.finish_head(payload)
    }

    /// This envelope's whole wire record carrying `payload`, in one
    /// exactly sized buffer.
    pub(crate) fn record(&self, payload: &[u8]) -> Vec<u8> {
        let mut record = self.head(payload, payload.len());
        record.extend_from_slice(payload);
        record
    }
}

struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(Error::Codec(format!(
                "frame truncated: wanted {n} more bytes, {} left",
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }
    fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| Error::Codec("non-UTF8 string field".into()))
    }
    /// A type name: a built-in one borrowed as its static, any other
    /// owned.
    fn type_name(&mut self) -> Result<Cow<'static, str>> {
        let len = self.u32()? as usize;
        let name = std::str::from_utf8(self.take(len)?)
            .map_err(|_| Error::Codec("non-UTF8 string field".into()))?;
        Ok(
            match KNOWN_TYPE_NAMES.iter().find(|&&known| known == name) {
                Some(&known) => Cow::Borrowed(known),
                None => Cow::Owned(name.to_owned()),
            },
        )
    }
    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Encode `frame` as one length-prefixed wire record.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = RecordWriter::with_body_capacity(32);
    match frame {
        Frame::Hello { epoch, rank } => {
            w.u8(KIND_HELLO);
            w.u64(*epoch);
            w.u64(*rank);
        }
        Frame::Env {
            comm_id,
            src,
            tag,
            type_name,
            count,
            seq,
            needs_ack,
            overtake,
            payload,
        } => {
            return EnvHeader {
                comm_id: *comm_id,
                src: *src,
                tag: *tag,
                type_name,
                count: *count,
                seq: *seq,
                needs_ack: *needs_ack,
                overtake: *overtake,
            }
            .record(payload);
        }
        Frame::Finish { rank } => {
            w.u8(KIND_FINISH);
            w.u64(*rank);
        }
        Frame::Failed { rank } => {
            w.u8(KIND_FAILED);
            w.u64(*rank);
        }
        Frame::Agree {
            comm_id,
            kind,
            seq,
            rank,
            value,
        } => {
            w.u8(KIND_AGREE);
            w.u64(*comm_id);
            w.u8(*kind);
            w.u64(*seq);
            w.u64(*rank);
            w.u64(*value);
        }
        Frame::Ping { seen } => {
            w.u8(KIND_PING);
            w.u64(*seen);
        }
        Frame::Register {
            epoch,
            rank,
            np,
            addr,
        } => {
            w.u8(KIND_REGISTER);
            w.u64(*epoch);
            w.u64(*rank);
            w.u64(*np);
            w.string(addr);
        }
        Frame::Table { addrs } => {
            w.u8(KIND_TABLE);
            w.u32(addrs.len() as u32);
            for addr in addrs {
                w.string(addr);
            }
        }
        Frame::Resume {
            epoch,
            rank,
            recv_seq,
        } => {
            w.u8(KIND_RESUME);
            w.u64(*epoch);
            w.u64(*rank);
            w.u64(*recv_seq);
        }
        Frame::WorkerHello { pid, host } => {
            w.u8(KIND_WORKER_HELLO);
            w.u64(*pid);
            w.string(host);
        }
        Frame::JobAssign {
            job,
            patternlet,
            np,
            rank,
            epoch_base,
            on,
            chaos,
            trace,
        } => {
            w.u8(KIND_JOB_ASSIGN);
            w.u64(*job);
            w.string(patternlet);
            w.u64(*np);
            w.u64(*rank);
            w.u64(*epoch_base);
            w.u8(u8::from(*on));
            w.string(chaos);
            w.u8(u8::from(*trace));
        }
        Frame::JobLine { job, rank, line } => {
            w.u8(KIND_JOB_LINE);
            w.u64(*job);
            w.u64(*rank);
            w.string(line);
        }
        Frame::JobMetrics { job, rank, payload } => {
            w.u8(KIND_JOB_METRICS);
            w.u64(*job);
            w.u64(*rank);
            w.bytes(payload);
        }
        Frame::JobDone {
            job,
            rank,
            ok,
            error,
        } => {
            w.u8(KIND_JOB_DONE);
            w.u64(*job);
            w.u64(*rank);
            w.u8(u8::from(*ok));
            w.string(error);
        }
        Frame::Shutdown => {
            w.u8(KIND_SHUTDOWN);
        }
        Frame::ClockProbe { t0 } => {
            w.u8(KIND_CLOCK_PROBE);
            w.u64(*t0);
        }
        Frame::ClockReply { t0, server_ns } => {
            w.u8(KIND_CLOCK_REPLY);
            w.u64(*t0);
            w.u64(*server_ns);
        }
        Frame::JobTrace { job, rank, json } => {
            w.u8(KIND_JOB_TRACE);
            w.u64(*job);
            w.u64(*rank);
            w.string(json);
        }
    }
    w.finish()
}

/// The frame checksum: CRC-32 over the length prefix, continued over the
/// body, without materializing their concatenation.
fn frame_crc(len_bytes: &[u8; 4], body: &[u8]) -> u32 {
    crc32_extend(crc32(len_bytes), body)
}

/// Decode one frame body (without the length prefix). Strict: truncated
/// fields, trailing bytes, and unknown kinds are [`Error::Codec`].
pub fn decode_body(body: &[u8]) -> Result<Frame> {
    let mut r = BodyReader { buf: body, pos: 0 };
    let frame = match r.u8()? {
        KIND_HELLO => Frame::Hello {
            epoch: r.u64()?,
            rank: r.u64()?,
        },
        KIND_ENV => Frame::Env {
            comm_id: r.u64()?,
            src: r.u64()?,
            tag: r.i32()?,
            type_name: r.type_name()?,
            count: r.u64()?,
            seq: r.u64()?,
            needs_ack: match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(Error::Codec(format!("bad needs_ack byte {other}"))),
            },
            overtake: r.u32()?,
            payload: r.bytes()?,
        },
        KIND_FINISH => Frame::Finish { rank: r.u64()? },
        KIND_FAILED => Frame::Failed { rank: r.u64()? },
        KIND_AGREE => Frame::Agree {
            comm_id: r.u64()?,
            kind: r.u8()?,
            seq: r.u64()?,
            rank: r.u64()?,
            value: r.u64()?,
        },
        KIND_PING => Frame::Ping { seen: r.u64()? },
        KIND_REGISTER => Frame::Register {
            epoch: r.u64()?,
            rank: r.u64()?,
            np: r.u64()?,
            addr: r.string()?,
        },
        KIND_TABLE => {
            // Each address takes its 4-byte length prefix at least: a
            // count the body cannot hold sizes nothing.
            let n = r.u32()? as usize;
            if n > body.len() / 4 {
                return Err(Error::Codec(format!("absurd table length {n}")));
            }
            let mut addrs = Vec::with_capacity(n);
            for _ in 0..n {
                addrs.push(r.string()?);
            }
            Frame::Table { addrs }
        }
        KIND_RESUME => Frame::Resume {
            epoch: r.u64()?,
            rank: r.u64()?,
            recv_seq: r.u64()?,
        },
        KIND_WORKER_HELLO => Frame::WorkerHello {
            pid: r.u64()?,
            host: r.string()?,
        },
        KIND_JOB_ASSIGN => Frame::JobAssign {
            job: r.u64()?,
            patternlet: r.string()?,
            np: r.u64()?,
            rank: r.u64()?,
            epoch_base: r.u64()?,
            on: match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(Error::Codec(format!("bad on byte {other}"))),
            },
            chaos: r.string()?,
            trace: match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(Error::Codec(format!("bad trace byte {other}"))),
            },
        },
        KIND_JOB_LINE => Frame::JobLine {
            job: r.u64()?,
            rank: r.u64()?,
            line: r.string()?,
        },
        KIND_JOB_METRICS => Frame::JobMetrics {
            job: r.u64()?,
            rank: r.u64()?,
            payload: r.bytes()?,
        },
        KIND_JOB_DONE => Frame::JobDone {
            job: r.u64()?,
            rank: r.u64()?,
            ok: match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(Error::Codec(format!("bad ok byte {other}"))),
            },
            error: r.string()?,
        },
        KIND_SHUTDOWN => Frame::Shutdown,
        KIND_CLOCK_PROBE => Frame::ClockProbe { t0: r.u64()? },
        KIND_CLOCK_REPLY => Frame::ClockReply {
            t0: r.u64()?,
            server_ns: r.u64()?,
        },
        KIND_JOB_TRACE => Frame::JobTrace {
            job: r.u64()?,
            rank: r.u64()?,
            json: r.string()?,
        },
        other => return Err(Error::Codec(format!("unknown frame kind {other}"))),
    };
    r.finish()?;
    Ok(frame)
}

fn check_crc(expected: u32, len_bytes: &[u8; 4], body: &[u8]) -> Result<()> {
    let actual = frame_crc(len_bytes, body);
    if actual != expected {
        return Err(Error::Codec(format!(
            "{CRC_MISMATCH}: header says {expected:#010x}, length+body hash to {actual:#010x}"
        )));
    }
    Ok(())
}

/// Decode one complete wire record (length prefix + CRC + body), as
/// written by [`encode_frame`]: the shm link's path, in place in the
/// ring. The blocking streaming path is [`read_frame`].
pub fn decode_frame(record: &[u8]) -> Result<Frame> {
    let Some(head) = record.first_chunk() else {
        return Err(Error::Codec("record shorter than its header".into()));
    };
    let len = body_len(head)?;
    if record.len() - 8 != len {
        return Err(Error::Codec(format!(
            "length prefix says {len} but {} body bytes present",
            record.len() - 8
        )));
    }
    decode_record(head, &record[8..])
}

/// The body length a record's header claims: the one check every frame
/// reader makes before anything is sized by a length that came from a
/// peer. Over [`MAX_FRAME_LEN`] is an error.
pub(crate) fn body_len(head: &[u8; 8]) -> Result<usize> {
    let len = u32::from_le_bytes(head[..4].try_into().expect("4")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(Error::Codec(format!("frame length {len} exceeds cap")));
    }
    Ok(len)
}

/// The one growth rule of every frame reader. `buf` is room for a record
/// of `want` bytes, of which `filled` have arrived; once they fill it, it
/// doubles — to `first` bytes at least — but never past `want`. A claimed
/// length thus sizes nothing: a reader holds at most `first` bytes, or
/// twice the bytes that arrived.
pub(crate) fn grow(buf: &mut Vec<u8>, filled: usize, first: usize, want: usize) {
    if filled == buf.len() && filled < want {
        buf.resize((2 * filled).max(first).min(want), 0);
    }
}

/// Check and decode one record whose 8-byte header (length prefix, CRC)
/// and body have been read apart; the length is the caller's to match.
pub(crate) fn decode_record(head: &[u8; 8], body: &[u8]) -> Result<Frame> {
    check_record(head, body)?;
    decode_body(body)
}

/// Check a record's body against the CRC its header carries.
fn check_record(head: &[u8; 8], body: &[u8]) -> Result<()> {
    let crc = u32::from_le_bytes(head[4..8].try_into().expect("4"));
    check_crc(crc, head[..4].try_into().expect("4"), body)
}

/// Did a read on a socket with a timeout time out?
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one frame from `r`. Returns `Ok(None)` on clean EOF (no bytes at
/// all); a mid-frame EOF, a checksum mismatch, or any I/O error is
/// [`Error::Codec`]. On a reader armed with a read timeout, a timeout
/// before any byte of the next frame is an [`IDLE_TIMEOUT`] error and a
/// timeout after one is a [`MID_FRAME_STALL`] error — the caller picks
/// which of those tears the stream down. It never reads past its own
/// frame, so a handshake's socket can be handed on afterwards. Its body
/// buffer obeys the bound every reader does (`body_len`, `grow`): at most
/// 64 KiB, or twice the bytes that arrived, whatever the header claims.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    let mut head = [0u8; 8];
    let mut got = 0;
    while got < 8 {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(Error::Codec("EOF inside frame header".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && got == 0 => {
                return Err(Error::Codec(format!("{IDLE_TIMEOUT}: {e}")))
            }
            Err(e) if is_timeout(&e) => {
                return Err(Error::Codec(format!(
                    "{MID_FRAME_STALL}: {got}/8 header bytes then silence: {e}"
                )))
            }
            Err(e) => return Err(Error::Codec(format!("read error: {e}"))),
        }
    }
    let len = body_len(&head)?;
    let mut body = Vec::new();
    let mut at = 0;
    while at < len {
        grow(&mut body, at, STREAM_BUF_BASE, len);
        match r.read(&mut body[at..]) {
            Ok(0) => {
                return Err(Error::Codec(format!(
                    "EOF inside frame body: {at}/{len} bytes arrived"
                )))
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return Err(Error::Codec(format!(
                    "{MID_FRAME_STALL}: {at}/{len} body bytes then silence: {e}"
                )))
            }
            Err(e) => return Err(Error::Codec(format!("read error: {e}"))),
        }
    }
    decode_record(&head, &body).map(Some)
}

/// Bytes a frame reader's buffer starts with: a [`StreamFrames`] buffer's
/// size, to which it returns once it empties after a record larger than
/// [`StreamFrames::SHRINK_ABOVE`], and the most [`read_frame`] holds
/// before the bytes that arrived say more.
const STREAM_BUF_BASE: usize = 64 << 10;

/// A non-blocking frame parser over a byte stream: the TCP link's read
/// side. [`fill`](StreamFrames::fill) reads whatever one `read` call
/// yields into a buffer, and [`next_frame`](StreamFrames::next_frame)
/// checks and decodes each complete record in place as
/// [`decode_frame`] does — the frames and errors are exactly those
/// [`read_frame`] gives for the same bytes. Like every frame reader, it
/// checks the peer's length prefix with `body_len` before anything is
/// sized by it and grows by `grow`: past its 64 KiB start, only when it
/// is full of bytes that arrived, so it never holds more than twice what
/// arrived, whatever length a record claims.
#[derive(Default)]
pub struct StreamFrames {
    /// Received bytes live in `buf[start..end]`; the rest is room.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl StreamFrames {
    /// A buffer grown past this is given back once it empties.
    pub const SHRINK_ABOVE: usize = 16 * STREAM_BUF_BASE;

    /// An empty parser; it allocates on its first [`fill`](Self::fill).
    pub fn new() -> StreamFrames {
        StreamFrames::default()
    }

    /// Received bytes not yet decoded: part of a record, when
    /// [`next_frame`](Self::next_frame) has run dry.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Bytes of buffer held.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Free buffer after the received bytes. Nonzero right after a
    /// [`fill`](Self::fill) means the read came up short: the source had
    /// no more for now.
    pub fn room(&self) -> usize {
        self.buf.len() - self.end
    }

    /// One `read` from `src` into the buffer: `Ok(0)` is end of stream,
    /// and a `WouldBlock` error an empty non-blocking socket. Call it once
    /// [`next_frame`](Self::next_frame) has run dry.
    pub fn fill(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > Self::SHRINK_ABOVE {
                self.buf = Vec::new();
            }
        }
        if self.end == self.buf.len() {
            // Full: slide the undecoded bytes to the front, and if they
            // fill it still, grow it towards the record they begin, whose
            // header `next_frame` found whole and within the cap.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            let want = self.buf.first_chunk().and_then(|head| body_len(head).ok());
            let want = want.map_or(STREAM_BUF_BASE, |len| 8 + len);
            grow(&mut self.buf, self.end, STREAM_BUF_BASE, want);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next frame whose every byte has arrived, or `Ok(None)` until
    /// more do. An error means the stream cannot be trusted again: a
    /// checksum mismatch (prefixed [`CRC_MISMATCH`]), a length over
    /// [`MAX_FRAME_LEN`], or a body that does not decode.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        self.next_body()?.map(decode_body).transpose()
    }

    /// The body of the next record whose every byte has arrived and whose
    /// checksum holds, or `Ok(None)` until more do — what
    /// [`next_frame`](Self::next_frame) decodes. An error here means the
    /// bytes were damaged on their way: a checksum mismatch or a length
    /// over [`MAX_FRAME_LEN`]. A body that passes and then does not
    /// decode came as its sender wrote it.
    pub(crate) fn next_body(&mut self) -> Result<Option<&[u8]>> {
        let queued = &self.buf[self.start..self.end];
        let Some(head) = queued.first_chunk() else {
            return Ok(None);
        };
        let len = body_len(head)?;
        if queued.len() < 8 + len {
            return Ok(None);
        }
        check_record(head, &queued[8..8 + len])?;
        let body = self.start + 8..self.start + 8 + len;
        self.start = body.end;
        Ok(Some(&self.buf[body]))
    }

    /// What an end of stream here means: `Ok` between records, else the
    /// error [`read_frame`] reports for a stream torn mid-record.
    pub fn at_eof(&self) -> Result<()> {
        let queued = &self.buf[self.start..self.end];
        match queued.len() {
            0 => Ok(()),
            1..=7 => Err(Error::Codec("EOF inside frame header".into())),
            n => {
                let len = u32::from_le_bytes(queued[..4].try_into().expect("4"));
                Err(Error::Codec(format!(
                    "EOF inside frame body: {}/{len} bytes arrived",
                    n - 8
                )))
            }
        }
    }
}

/// Write one frame to `w` (single `write_all`, so concurrent writers
/// guarded by a lock never interleave records).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let wire = encode_frame(&frame);
        assert_eq!(decode_frame(&wire).unwrap(), frame);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF after");
    }

    #[test]
    fn built_in_type_names_decode_as_their_statics() {
        for (name, built_in) in [("u8", true), ("(T, usize)", true), ("custom::T", false)] {
            let wire = encode_frame(&Frame::Env {
                comm_id: 0,
                src: 0,
                tag: 0,
                type_name: name.to_string().into(),
                count: 0,
                seq: 0,
                needs_ack: false,
                overtake: 0,
                payload: Vec::new(),
            });
            let Frame::Env { type_name, .. } = decode_frame(&wire).unwrap() else {
                panic!("an Env record decodes to an Env frame");
            };
            assert_eq!(type_name, name);
            assert_eq!(matches!(type_name, Cow::Borrowed(_)), built_in, "{name}");
        }
    }

    #[test]
    fn every_kind_round_trips() {
        roundtrip(Frame::Hello { epoch: 3, rank: 1 });
        roundtrip(Frame::Env {
            comm_id: 7,
            src: 2,
            tag: -42,
            type_name: "i64".into(),
            count: 4,
            seq: 99,
            needs_ack: true,
            overtake: 2,
            payload: vec![1, 2, 3, 4],
        });
        roundtrip(Frame::Finish { rank: 0 });
        roundtrip(Frame::Failed { rank: 3 });
        roundtrip(Frame::Agree {
            comm_id: 1,
            kind: 1,
            seq: 0,
            rank: 2,
            value: u64::MAX,
        });
        roundtrip(Frame::Ping { seen: 12 });
        roundtrip(Frame::Resume {
            epoch: 2,
            rank: 1,
            recv_seq: 740,
        });
        roundtrip(Frame::Register {
            epoch: 0,
            rank: 3,
            np: 4,
            addr: "127.0.0.1:4096".into(),
        });
        roundtrip(Frame::Table {
            addrs: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
        });
        roundtrip(Frame::WorkerHello {
            pid: 4242,
            host: "node-a.example".into(),
        });
        roundtrip(Frame::JobAssign {
            job: 17,
            patternlet: "mpi/broadcast".into(),
            np: 4,
            rank: 2,
            epoch_base: 17 << 20,
            on: true,
            chaos: "7".into(),
            trace: true,
        });
        roundtrip(Frame::JobLine {
            job: 17,
            rank: 2,
            line: "2 of 4: héllo".into(),
        });
        roundtrip(Frame::JobMetrics {
            job: 17,
            rank: 0,
            payload: vec![1, 0, 0],
        });
        roundtrip(Frame::JobDone {
            job: 17,
            rank: 3,
            ok: false,
            error: "rank 1 failed".into(),
        });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::ClockProbe { t0: 1_700_000_000 });
        roundtrip(Frame::ClockReply {
            t0: 1_700_000_000,
            server_ns: 1_700_000_042,
        });
        roundtrip(Frame::JobTrace {
            job: 17,
            rank: 1,
            json: "{\"traceEvents\":[]}".into(),
        });
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One record of every kind, byte for byte as the two-buffer encoder
    /// wrote it (length, CRC, body): the one-buffer writer must not move
    /// a byte, or records from older builds would stop verifying.
    #[test]
    fn golden_records_are_unchanged() {
        let golden = [
            (
                Frame::Hello { epoch: 3, rank: 1 },
                "1100000095e058700003000000000000000100000000000000",
            ),
            (
                Frame::Env {
                    comm_id: 7,
                    src: 2,
                    tag: -42,
                    type_name: "i64".into(),
                    count: 1,
                    seq: 99,
                    needs_ack: true,
                    overtake: 2,
                    payload: vec![1, 2, 3, 4, 5, 6, 7, 8],
                },
                "3d0000004b7823f40107000000000000000200000000000000d6ffffff030000006936340100\
                 00000000000063000000000000000102000000080000000102030405060708",
            ),
            (
                Frame::Finish { rank: 5 },
                "09000000886af7ee020500000000000000",
            ),
            (
                Frame::Failed { rank: 3 },
                "090000004c77e33f030300000000000000",
            ),
            (
                Frame::Agree {
                    comm_id: 1,
                    kind: 1,
                    seq: 4,
                    rank: 2,
                    value: u64::MAX,
                },
                "22000000c1793d430401000000000000000104000000000000000200000000000000\
                 ffffffffffffffff",
            ),
            (
                Frame::Ping { seen: 12 },
                "090000006a1cd995050c00000000000000",
            ),
            (
                Frame::Register {
                    epoch: 0,
                    rank: 3,
                    np: 4,
                    addr: "127.0.0.1:4096".into(),
                },
                "2b0000002f5e9695060000000000000000030000000000000004000000000000000e000000\
                 3132372e302e302e313a34303936",
            ),
            (
                Frame::Table {
                    addrs: vec!["a:1".into(), "b:2".into()],
                },
                "13000000eda2246d070200000003000000613a3103000000623a32",
            ),
            (
                Frame::Resume {
                    epoch: 2,
                    rank: 1,
                    recv_seq: 740,
                },
                "190000003030912e0902000000000000000100000000000000e402000000000000",
            ),
            (
                Frame::WorkerHello {
                    pid: 4242,
                    host: "node-a".into(),
                },
                "1300000069542a2e0a9210000000000000060000006e6f64652d61",
            ),
            (
                Frame::JobAssign {
                    job: 17,
                    patternlet: "mpi/broadcast".into(),
                    np: 4,
                    rank: 2,
                    epoch_base: 17 << 20,
                    on: true,
                    chaos: "7".into(),
                    trace: true,
                },
                "3900000034393b6f0b11000000000000000d0000006d70692f62726f616463617374040000\
                 00000000000200000000000000000010010000000001010000003701",
            ),
            (
                Frame::JobLine {
                    job: 17,
                    rank: 2,
                    line: "2 of 4".into(),
                },
                "1b000000cd0c7a160c110000000000000002000000000000000600000032206f662034",
            ),
            (
                Frame::JobMetrics {
                    job: 17,
                    rank: 0,
                    payload: vec![1, 0, 0],
                },
                "18000000259585060d1100000000000000000000000000000003000000010000",
            ),
            (
                Frame::JobDone {
                    job: 17,
                    rank: 3,
                    ok: false,
                    error: "rank 1 failed".into(),
                },
                "23000000e72ad3ba0e11000000000000000300000000000000000d00000072616e6b203120\
                 6661696c6564",
            ),
            (Frame::Shutdown, "010000003cc3fd6b0f"),
            (
                Frame::ClockProbe { t0: 1_700_000_000 },
                "0900000012bde03d1000f1536500000000",
            ),
            (
                Frame::ClockReply {
                    t0: 1_700_000_000,
                    server_ns: 1_700_000_042,
                },
                "11000000a4bd2ccd1100f15365000000002af1536500000000",
            ),
            (
                Frame::JobTrace {
                    job: 17,
                    rank: 1,
                    json: "{}".into(),
                },
                "17000000852958f61211000000000000000100000000000000020000007b7d",
            ),
        ];
        for (frame, want) in golden {
            assert_eq!(hex(&encode_frame(&frame)), want, "{frame:?}");
        }
    }

    #[test]
    fn a_64_kib_env_record_keeps_its_length_and_crc() {
        let payload: Vec<u8> = (0..64usize << 10)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8)
            .collect();
        let frame = Frame::Env {
            comm_id: 0,
            src: 0,
            tag: 1,
            type_name: "u8".into(),
            count: payload.len() as u64,
            seq: 1,
            needs_ack: false,
            overtake: 0,
            payload,
        };
        let wire = encode_frame(&frame);
        assert_eq!(wire.len(), 65_596);
        assert_eq!(hex(&wire[4..8]), "74406b1a");
        assert_eq!(wire.capacity(), wire.len(), "written once, exactly sized");
        assert_eq!(decode_frame(&wire).unwrap(), frame);
    }

    /// The reference an `Env` head and its payload must match: the record
    /// as one buffer, its body written whole and its CRC taken over it in
    /// one pass, as `RecordWriter` writes every other kind.
    fn one_buffer_env(h: &EnvHeader, payload: &[u8]) -> Vec<u8> {
        let mut w = RecordWriter::with_body_capacity(
            EnvHeader::FIXED_BODY + h.type_name.len() + payload.len(),
        );
        w.u8(KIND_ENV);
        w.u64(h.comm_id);
        w.u64(h.src);
        w.i32(h.tag);
        w.string(h.type_name);
        w.u64(h.count);
        w.u64(h.seq);
        w.u8(u8::from(h.needs_ack));
        w.u32(h.overtake);
        w.bytes(payload);
        w.finish()
    }

    #[test]
    fn an_env_head_and_its_payload_are_the_one_buffer_record() {
        for type_name in ["u8", "custom::Matrix<f64>"] {
            for len in [0, 1, 8, 4 << 10, 64 << 10] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
                let h = EnvHeader {
                    comm_id: 3,
                    src: 1,
                    tag: -7,
                    type_name,
                    count: len as u64,
                    seq: 41,
                    needs_ack: len % 2 == 1,
                    overtake: 2,
                };
                let record = [h.head(&payload, 0), payload.clone()].concat();
                assert_eq!(record, one_buffer_env(&h, &payload), "{type_name}, {len} B");
                let frame = Frame::Env {
                    comm_id: 3,
                    src: 1,
                    tag: -7,
                    type_name: type_name.into(),
                    count: len as u64,
                    seq: 41,
                    needs_ack: len % 2 == 1,
                    overtake: 2,
                    payload,
                };
                assert_eq!(encode_frame(&frame), record, "{type_name}, {len} B");
                assert_eq!(
                    decode_frame(&record).unwrap(),
                    frame,
                    "{type_name}, {len} B"
                );
            }
        }
    }

    #[test]
    fn job_control_frames_are_unsequenced() {
        // The job-control plane must never enter the resume sequence
        // space: it is regenerated (or moot) after a reconnect.
        for frame in [
            Frame::WorkerHello {
                pid: 1,
                host: "h".into(),
            },
            Frame::JobAssign {
                job: 1,
                patternlet: "x".into(),
                np: 1,
                rank: 0,
                epoch_base: 0,
                on: false,
                chaos: String::new(),
                trace: false,
            },
            Frame::JobLine {
                job: 1,
                rank: 0,
                line: "l".into(),
            },
            Frame::JobMetrics {
                job: 1,
                rank: 0,
                payload: vec![],
            },
            Frame::JobDone {
                job: 1,
                rank: 0,
                ok: true,
                error: String::new(),
            },
            Frame::Shutdown,
            Frame::JobTrace {
                job: 1,
                rank: 0,
                json: String::new(),
            },
        ] {
            assert!(!frame.is_sequenced(), "{frame:?}");
        }
    }

    #[test]
    fn clock_frames_are_unsequenced() {
        // Clock probes are connection plumbing: regenerated per establish,
        // never replayed — replayed probes would poison offset estimates.
        assert!(!Frame::ClockProbe { t0: 1 }.is_sequenced());
        assert!(!Frame::ClockReply {
            t0: 1,
            server_ns: 2
        }
        .is_sequenced());
    }

    #[test]
    fn truncated_metrics_frames_are_rejected() {
        let reports = [
            Frame::JobMetrics {
                job: 3,
                rank: 1,
                payload: vec![9; 12],
            },
            Frame::JobTrace {
                job: 3,
                rank: 1,
                json: "{\"traceEvents\":[]}".into(),
            },
        ];
        for frame in reports {
            let wire = encode_frame(&frame);
            for cut in 0..wire.len() {
                assert!(
                    decode_frame(&wire[..cut]).is_err(),
                    "cut at {cut} of {frame:?} must be rejected"
                );
            }
        }
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let wire = encode_frame(&Frame::Env {
            comm_id: 7,
            src: 2,
            tag: 5,
            type_name: "String".into(),
            count: 1,
            seq: 0,
            needs_ack: false,
            overtake: 0,
            payload: "héllo".as_bytes().to_vec(),
        });
        // Chop the record anywhere: never a panic, never a wrong decode.
        for cut in 0..wire.len() {
            assert!(
                decode_frame(&wire[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut wire = encode_frame(&Frame::Ping { seen: 0 });
        wire.extend_from_slice(&[0, 0, 0]);
        assert!(decode_frame(&wire).is_err());
        // Also when the garbage is inside the declared body length.
        let mut body = vec![super::KIND_PING];
        body.extend_from_slice(&[0; 8]);
        body.push(0xFF);
        assert!(decode_body(&body).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_caught_by_the_crc() {
        let wire = encode_frame(&Frame::Env {
            comm_id: 7,
            src: 2,
            tag: 5,
            type_name: "i64".into(),
            count: 1,
            seq: 3,
            needs_ack: false,
            overtake: 0,
            payload: vec![0xAB; 16],
        });
        // Flip every bit of the record — header included. Body and CRC
        // flips must be rejected as *checksum* errors; length-prefix flips
        // must be rejected too (as a length mismatch or a checksum error,
        // both of which tear the stream down), never decoded.
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut corrupt = wire.clone();
                corrupt[byte] ^= 1 << bit;
                let err = decode_frame(&corrupt).unwrap_err();
                if byte >= 4 {
                    assert!(
                        err.to_string().contains(CRC_MISMATCH),
                        "flip at {byte}:{bit} gave {err}"
                    );
                }
            }
        }
    }

    /// An `Env` record carrying `len` payload bytes, long enough for its
    /// CRC to take the carry-less-multiply fold in `patternlets_core::crc`.
    fn env_record(len: usize) -> Vec<u8> {
        encode_frame(&Frame::Env {
            comm_id: 7,
            src: 2,
            tag: 5,
            type_name: "u8".into(),
            count: len as u64,
            seq: 3,
            needs_ack: false,
            overtake: 0,
            payload: (0..len)
                .map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8)
                .collect(),
        })
    }

    /// Flip each `(byte, bit)` of `wire` in turn; every flip must be
    /// rejected as a checksum error.
    fn assert_flips_fail_the_crc(wire: &[u8], flips: impl IntoIterator<Item = (usize, u32)>) {
        let mut corrupt = wire.to_vec();
        for (byte, bit) in flips {
            corrupt[byte] ^= 1 << bit;
            let err = decode_frame(&corrupt).unwrap_err();
            assert!(
                err.to_string().contains(CRC_MISMATCH),
                "flip at {byte}:{bit} of a {}-byte record gave {err}",
                wire.len()
            );
            corrupt[byte] ^= 1 << bit;
        }
    }

    fn every_bit(bytes: std::ops::Range<usize>) -> impl Iterator<Item = (usize, u32)> {
        bytes.flat_map(|byte| (0..8).map(move |bit| (byte, bit)))
    }

    #[test]
    fn every_bit_flip_in_a_4_kib_record_is_caught_by_the_crc() {
        let wire = env_record(4 << 10);
        // CRC and body; length-prefix flips are covered above.
        assert_flips_fail_the_crc(&wire, every_bit(4..wire.len()));
    }

    #[test]
    fn sampled_bit_flips_in_a_64_kib_record_are_caught_by_the_crc() {
        let wire = env_record(64 << 10);
        // One bit in every 64-byte block of the body (a different byte
        // and bit in each), every bit of the CRC, and every bit of the
        // last 15 bytes, which the tables finish after the fold.
        let blocks = (8..wire.len())
            .step_by(64)
            .enumerate()
            .map(|(i, start)| ((start + i * 13 % 64).min(wire.len() - 1), i as u32 % 8));
        let flips = blocks
            .chain(every_bit(4..8))
            .chain(every_bit(wire.len() - 15..wire.len()));
        assert_flips_fail_the_crc(&wire, flips);
    }

    /// A corrupted *length prefix* must be caught on the frame that was
    /// corrupted — the stream reader must not misframe and either swallow
    /// the next record or hand back its bytes as a bogus decode.
    #[test]
    fn flipped_length_prefix_is_caught_at_this_frames_boundary() {
        let first = encode_frame(&Frame::Env {
            comm_id: 1,
            src: 0,
            tag: 9,
            type_name: "u64".into(),
            count: 2,
            seq: 0,
            needs_ack: false,
            overtake: 0,
            payload: vec![0x5A; 24],
        });
        let second = encode_frame(&Frame::Ping { seen: 3 });
        for bit in 0..8 {
            let mut stream = first.clone();
            stream[0] ^= 1 << bit; // length low byte: shrink or grow
            stream.extend_from_slice(&second);
            let mut cursor = std::io::Cursor::new(stream);
            let err = read_frame(&mut cursor).unwrap_err();
            assert!(
                err.to_string().contains(CRC_MISMATCH) || err.to_string().contains("EOF"),
                "flip of length bit {bit} gave {err}"
            );
        }
    }

    /// A reader whose underlying stream times out: some bytes arrive,
    /// then every further read reports `WouldBlock` — the in-memory
    /// stand-in for a socket with `set_read_timeout` and a stalled peer.
    struct StallAfter {
        data: Vec<u8>,
        at: usize,
    }

    impl Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at >= self.data.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "stalled",
                ));
            }
            let n = buf.len().min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_between_frames_is_idle_not_fatal() {
        let mut idle = StallAfter {
            data: Vec::new(),
            at: 0,
        };
        let err = read_frame(&mut idle).unwrap_err();
        assert!(err.to_string().contains(IDLE_TIMEOUT), "{err}");
        assert!(!err.to_string().contains(MID_FRAME_STALL), "{err}");
    }

    #[test]
    fn stall_inside_header_or_body_is_reported_as_a_stall() {
        let wire = encode_frame(&Frame::Env {
            comm_id: 3,
            src: 1,
            tag: 0,
            type_name: "u8".into(),
            count: 8,
            seq: 1,
            needs_ack: false,
            overtake: 0,
            payload: vec![7; 8],
        });
        // Cut anywhere mid-record: the read must return promptly with a
        // stall verdict instead of blocking on the missing tail forever.
        for cut in 1..wire.len() {
            let mut stalled = StallAfter {
                data: wire[..cut].to_vec(),
                at: 0,
            };
            let err = read_frame(&mut stalled).unwrap_err();
            assert!(
                err.to_string().contains(MID_FRAME_STALL),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn sequenced_classification_is_stable() {
        assert!(Frame::Finish { rank: 0 }.is_sequenced());
        assert!(Frame::Failed { rank: 0 }.is_sequenced());
        assert!(!Frame::Ping { seen: 0 }.is_sequenced());
        assert!(!Frame::Hello { epoch: 0, rank: 0 }.is_sequenced());
        assert!(!Frame::Resume {
            epoch: 0,
            rank: 0,
            recv_seq: 0
        }
        .is_sequenced());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(matches!(decode_body(&[200]), Err(Error::Codec(_))));
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.push(0);
        assert!(decode_frame(&wire).is_err());
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor).is_err());
    }
}
