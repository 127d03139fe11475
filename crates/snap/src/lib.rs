//! Versioned simulation state: the per-pin write sets behind snapshot,
//! rollback and speculative what-if scheduling, and the codec behind
//! trace checkpoints.
//!
//! The cluster driver owns a large bundle of mutable state — per-GPU
//! queues, residency lists, in-flight slots, the event heap, RNG streams,
//! metric accumulators. Re-running a trace to answer "what if the
//! scheduler had placed this request elsewhere?" costs a full replay;
//! this crate makes forking cheap instead. A fork should cost what it
//! touches, not what the cluster holds, so nothing here copies the
//! whole state:
//!
//! * [`PinStack`] — the live pins. A pin ([`SnapId`]) owns one frame of
//!   fixed-size state its owner records when the pin opens (scalars,
//!   RNG, a handful of pending events, policy blobs). Rolling back to a
//!   pin closes every younger one and keeps the pin open, so one pin
//!   serves any number of candidate rollbacks; committing a pin closes it
//!   and every older one. Frames are recycled.
//! * [`PinnedVec`] — a fixed-length vector whose only mutable access,
//!   [`PinnedVec::write`], saves an element's pre-image into the
//!   innermost pin the first time that pin sees it written (an
//!   allocation-free [`PreImage::save_from`] into a pooled slot).
//!   Rollback swaps each image back.
//! * [`PinnedDeque`] — an unbounded queue that logs the positional
//!   inverse of each mutation under a pin (`push_back` → pop back,
//!   `remove(i)` → reinsert at `i`, …) and replays the log backwards on
//!   rollback, plus a running sum of a per-element [`Weighted`] value.
//!
//! Both containers implement [`WriteSet`]: the owner opens, rolls back,
//! releases and commits their write sets in step with its [`PinStack`].
//! Writes always go to the innermost pin and rollbacks undo innermost
//! first, so nested pins need no merge step. The shape follows the
//! transaction-local write sets of software transactional memory: a
//! transaction keeps what it changed over an untouched base, and abort
//! drops the write set.
//!
//! Separately, for persistence:
//!
//! * [`Enc`] / [`Dec`] — the length-checked little-endian codec every
//!   component uses to serialise its slice of the cluster, both for a
//!   pin's policy blobs and for on-disk checkpoints.
//! * [`write_header`] / [`read_header`] — the `GFSNAP01` checkpoint
//!   envelope: magic, format version, and FNV-1a digests of the cluster
//!   config and the trace, so a warm start refuses to resume against a
//!   world it was not captured in.
//!
//! What the state *is* stays the cluster's business — this crate is
//! deliberately ignorant of GPUs and schedulers. It only promises that
//! whatever a pin covers comes back bit-for-bit.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

use gfaas_sim::time::{SimDuration, SimTime};

/// Checkpoint file magic: `GFSNAP` plus a two-digit envelope generation.
pub const MAGIC: [u8; 8] = *b"GFSNAP01";

/// Checkpoint image format version. Bump on any layout change; restore
/// rejects mismatches rather than misinterpreting bytes.
pub const VERSION: u32 = 3;

/// Why a checkpoint or blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value did.
    Truncated,
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The image was written by a different format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expect: u32,
    },
    /// The checkpoint was captured under a different cluster config.
    ConfigMismatch,
    /// The checkpoint was captured against a different trace.
    TraceMismatch,
    /// Decoding finished with unread bytes left over.
    TrailingBytes(usize),
    /// A decoded value is structurally impossible (bad enum tag, bad
    /// UTF-8, count overflow, …).
    Corrupt(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "checkpoint truncated"),
            SnapError::BadMagic => write!(f, "not a gfaas checkpoint (bad magic)"),
            SnapError::Version { found, expect } => {
                write!(f, "checkpoint format v{found}, this build reads v{expect}")
            }
            SnapError::ConfigMismatch => {
                write!(
                    f,
                    "checkpoint was captured under a different cluster config"
                )
            }
            SnapError::TraceMismatch => {
                write!(f, "checkpoint was captured against a different trace")
            }
            SnapError::TrailingBytes(n) => {
                write!(f, "checkpoint has {n} trailing bytes after the image")
            }
            SnapError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// The little-endian encoder. Infallible: encoding only appends to an
/// owned buffer. Every multi-byte integer is little-endian; floats travel
/// as their IEEE-754 bit patterns so restore is bit-exact; lengths are
/// `u64` so images are portable across pointer widths.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// An encoder with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the encoder, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes with no length prefix (magic, digests).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (images are pointer-width portable).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact restore).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a [`SimTime`] as its microsecond tick count.
    pub fn put_time(&mut self, t: SimTime) {
        self.put_u64(t.as_micros());
    }

    /// Appends a [`SimDuration`] as its microsecond tick count.
    pub fn put_dur(&mut self, d: SimDuration) {
        self.put_u64(d.as_micros());
    }
}

/// The checked decoder over an encoded image. Every getter returns
/// [`SnapError::Truncated`] rather than reading past the end.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Reads an `f64` from its stored bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than `0`/`1` is corruption.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag out of range")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("string is not UTF-8"))
    }

    /// Reads a [`SimTime`] from its microsecond tick count.
    pub fn time(&mut self) -> Result<SimTime, SnapError> {
        Ok(SimTime::from_micros(self.u64()?))
    }

    /// Reads a [`SimDuration`] from its microsecond tick count.
    pub fn dur(&mut self) -> Result<SimDuration, SnapError> {
        Ok(SimDuration::from_micros(self.u64()?))
    }

    /// Asserts the image was consumed exactly; leftovers mean the writer
    /// and reader disagree about the layout.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Content digests
// ---------------------------------------------------------------------------

/// Incremental FNV-1a (64-bit) — the checkpoint envelope's content
/// digest. Not cryptographic; it only needs to make "wrong config" and
/// "wrong trace" overwhelmingly unlikely to collide by accident.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty digest.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a little-endian `u64` into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// One-shot FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Writes the checkpoint envelope: magic, format version, config digest,
/// trace digest, trace length. The body of the image follows.
pub fn write_header(enc: &mut Enc, config_hash: u64, trace_hash: u64, trace_len: usize) {
    enc.put_raw(&MAGIC);
    enc.put_u32(VERSION);
    enc.put_u64(config_hash);
    enc.put_u64(trace_hash);
    enc.put_usize(trace_len);
}

/// Validates the checkpoint envelope against the world the caller is
/// restoring into. On success the decoder is positioned at the image
/// body.
pub fn read_header(
    dec: &mut Dec<'_>,
    config_hash: u64,
    trace_hash: u64,
    trace_len: usize,
) -> Result<(), SnapError> {
    if dec.take(8)? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let found = dec.u32()?;
    if found != VERSION {
        return Err(SnapError::Version {
            found,
            expect: VERSION,
        });
    }
    if dec.u64()? != config_hash {
        return Err(SnapError::ConfigMismatch);
    }
    if dec.u64()? != trace_hash || dec.usize()? != trace_len {
        return Err(SnapError::TraceMismatch);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pins and write sets
// ---------------------------------------------------------------------------

/// Handle to a pin in a [`PinStack`]. Ids are issued in strictly
/// increasing order within one stack and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapId(u64);

impl SnapId {
    /// The raw id, for logs and telemetry.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SnapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snap#{}", self.0)
    }
}

/// Cumulative pin activity, for telemetry and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Pins opened over the stack's lifetime.
    pub snapshots: u64,
    /// Rollbacks performed (including retiring rollbacks of forks).
    pub rollbacks: u64,
    /// Commits performed.
    pub commits: u64,
}

/// The stack of live pins.
///
/// Each pin owns one caller-defined frame `F` holding whatever small,
/// fixed-size state the owner records when the pin opens; the owner's
/// unbounded state lives in [`PinnedVec`] / [`PinnedDeque`] containers,
/// which record their own per-pin write sets under the same frame index.
/// Frames are recycled: a closed frame's buffers serve the next pin, so
/// a steady stream of forks allocates nothing.
///
/// Pins nest like transactions. Rolling back to a pin closes every
/// younger one and keeps the pin itself open, so one pin serves any
/// number of rollbacks. Committing a pin closes it together with every
/// older one.
#[derive(Debug)]
pub struct PinStack<F> {
    frames: Vec<(SnapId, F)>,
    spare: Vec<F>,
    next: u64,
    stats: JournalStats,
}

impl<F: Default> Default for PinStack<F> {
    fn default() -> Self {
        PinStack {
            frames: Vec::new(),
            spare: Vec::new(),
            next: 0,
            stats: JournalStats::default(),
        }
    }
}

impl<F: Default> PinStack<F> {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a new innermost pin. Returns its id and its frame, which is
    /// recycled from a closed pin when one is available (the caller
    /// overwrites every field it records).
    pub fn push(&mut self) -> (SnapId, &mut F) {
        let id = SnapId(self.next);
        self.next += 1;
        self.stats.snapshots += 1;
        let frame = self.spare.pop().unwrap_or_default();
        self.frames.push((id, frame));
        (id, &mut self.frames.last_mut().expect("just pushed").1)
    }

    /// Position of the live pin `id`, innermost last; `None` when `id`
    /// was never issued or is closed.
    pub fn find(&self, id: SnapId) -> Option<usize> {
        self.frames.iter().rposition(|(fid, _)| *fid == id)
    }

    /// The frame of the pin at position `at`.
    pub fn frame_mut(&mut self, at: usize) -> &mut F {
        &mut self.frames[at].1
    }

    /// The frames of the pins at positions `at..`, oldest first.
    pub fn frames_from_mut(&mut self, at: usize) -> impl DoubleEndedIterator<Item = &mut F> {
        self.frames[at..].iter_mut().map(|(_, f)| f)
    }

    /// The innermost pin's frame, if any pin is live.
    pub fn top_mut(&mut self) -> Option<&mut F> {
        self.frames.last_mut().map(|(_, f)| f)
    }

    /// Records a rollback to the pin at `at`: closes every younger pin
    /// and, with `retire`, the pin itself.
    pub fn rolled_back(&mut self, at: usize, retire: bool) {
        let keep = if retire { at } else { at + 1 };
        while self.frames.len() > keep {
            let (_, frame) = self.frames.pop().expect("len > keep");
            self.spare.push(frame);
        }
        self.stats.rollbacks += 1;
    }

    /// Records a commit of the pin at `at`: closes it and every older pin.
    pub fn committed(&mut self, at: usize) {
        self.spare
            .extend(self.frames.drain(..=at).map(|(_, frame)| frame));
        self.stats.commits += 1;
    }

    /// Live pins.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }
}

/// A container that keeps one write set per live pin, addressed by the
/// pin's position in the owner's [`PinStack`].
pub trait WriteSet {
    /// Opens a write set for the new innermost pin `id`: later writes
    /// save their pre-images into it.
    fn pin(&mut self, id: SnapId);
    /// Undoes every write since the pin at `at` opened, innermost first,
    /// and closes the younger pins' write sets. The pin at `at` stays
    /// open with an empty write set.
    fn rollback(&mut self, at: usize);
    /// Closes the pins at `at..`, whose write sets must be empty (a
    /// rollback to `at` just ran).
    fn release(&mut self, at: usize);
    /// Closes the pins at `..=at`, keeping the current contents.
    fn commit(&mut self, at: usize);
}

/// An element a [`PinnedVec`] can save a pre-image of.
pub trait PreImage: Clone {
    /// Overwrites `self` with `src`'s mutable state, reusing `self`'s
    /// buffers so a warm pool saves without allocating. `self` is always
    /// an earlier image of the same element, so state that never changes
    /// after construction (ids, static specs) may be skipped.
    fn save_from(&mut self, src: &Self);
}

/// Sentinel for "no pin": never a live pin's raw id.
const UNPINNED: u64 = u64::MAX;

/// One saved pre-image: the element index, the pin that had saved it
/// before this one (restored on undo), and the arena slot holding the
/// image.
#[derive(Debug, Clone, Copy)]
struct Saved {
    index: usize,
    prev: u64,
    slot: usize,
}

/// A fixed-length vector with a per-pin write set.
///
/// Reads go through `Deref<Target = [T]>`; the only mutable access is
/// [`PinnedVec::write`], which saves the element's pre-image the first
/// time each live pin sees it written, into a pooled arena slot.
/// Rollback then swaps each saved image back in place. With no live pin
/// a write costs one predictable branch.
#[derive(Debug)]
pub struct PinnedVec<T> {
    items: Vec<T>,
    /// Raw id of the pin that last saved each element.
    saved_in: Vec<u64>,
    log: Vec<Saved>,
    /// Per live pin: raw id and the log length when it opened.
    frames: Vec<(u64, usize)>,
    /// Raw id of the innermost live pin, or [`UNPINNED`].
    top: u64,
    /// Image arena; it grows to the largest write set seen and is then
    /// reused.
    slots: Vec<T>,
    /// Free arena slots per element index: a slot only ever holds images
    /// of one element, so [`PreImage::save_from`] may skip its immutable
    /// identity.
    free: Vec<Vec<usize>>,
}

impl<T: PreImage> PinnedVec<T> {
    /// Wraps `items` with no pin live.
    pub fn new(items: Vec<T>) -> Self {
        let n = items.len();
        PinnedVec {
            items,
            saved_in: vec![UNPINNED; n],
            log: Vec::new(),
            frames: Vec::new(),
            top: UNPINNED,
            slots: Vec::new(),
            free: vec![Vec::new(); n],
        }
    }

    /// Mutable access to element `i`, saving its pre-image into the
    /// innermost pin's write set on the pin's first write to it.
    #[inline]
    pub fn write(&mut self, i: usize) -> &mut T {
        if self.top != UNPINNED && self.saved_in[i] != self.top {
            self.save(i);
        }
        &mut self.items[i]
    }

    #[cold]
    #[inline(never)]
    fn save(&mut self, i: usize) {
        let slot = match self.free[i].pop() {
            Some(slot) => {
                self.slots[slot].save_from(&self.items[i]);
                slot
            }
            None => {
                self.slots.push(self.items[i].clone());
                self.slots.len() - 1
            }
        };
        self.log.push(Saved {
            index: i,
            prev: self.saved_in[i],
            slot,
        });
        self.saved_in[i] = self.top;
    }

    fn undo_to(&mut self, mark: usize) {
        while self.log.len() > mark {
            let s = self.log.pop().expect("len > mark");
            std::mem::swap(&mut self.items[s.index], &mut self.slots[s.slot]);
            self.saved_in[s.index] = s.prev;
            self.free[s.index].push(s.slot);
        }
    }

    fn retop(&mut self) {
        self.top = self.frames.last().map_or(UNPINNED, |f| f.0);
    }
}

impl<T: PreImage> WriteSet for PinnedVec<T> {
    fn pin(&mut self, id: SnapId) {
        self.frames.push((id.0, self.log.len()));
        self.top = id.0;
    }

    fn rollback(&mut self, at: usize) {
        self.undo_to(self.frames[at].1);
        self.frames.truncate(at + 1);
        self.retop();
    }

    fn release(&mut self, at: usize) {
        debug_assert_eq!(self.log.len(), self.frames[at].1, "release after rollback");
        self.frames.truncate(at);
        self.retop();
    }

    fn commit(&mut self, at: usize) {
        let upto = self.frames.get(at + 1).map_or(self.log.len(), |f| f.1);
        for s in self.log.drain(..upto) {
            self.free[s.index].push(s.slot);
        }
        self.frames.drain(..=at);
        for f in &mut self.frames {
            f.1 -= upto;
        }
        self.retop();
    }
}

impl<T> std::ops::Deref for PinnedVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

/// The inverse of one logged [`PinnedDeque`] mutation.
#[derive(Debug)]
enum Undo<T> {
    PopBack,
    PopFront,
    Insert(usize, T),
    /// `len` elements from `start` were updated; their old values are the
    /// last `len` entries of [`PinnedDeque::saved`].
    SetRun(usize, usize),
    Replace(VecDeque<T>),
}

/// An element whose weight a [`PinnedDeque`] sums incrementally.
pub trait Weighted {
    /// The element's weight. It must not change while the element is
    /// queued: [`PinnedDeque::update`] asserts that in debug builds.
    fn weight(&self) -> u128;
}

/// A double-ended queue with a per-pin log of positional inverse
/// records, plus a running sum of a per-element weight.
///
/// The queue is unbounded, so a pin never copies it: each mutation
/// under a live pin logs its inverse (`push_back` → pop back,
/// `remove(i)` → reinsert at `i`, …), and rollback replays the log
/// backwards. An in-place [`PinnedDeque::update`] logs the element's
/// old value only on the innermost pin's first update of it, so a
/// scheduler re-scanning the queue head (and bumping counters there)
/// logs each element once. Reads go through
/// `Deref<Target = VecDeque<T>>`; the logged methods are the only
/// mutable access.
#[derive(Debug)]
pub struct PinnedDeque<T> {
    items: VecDeque<T>,
    sum: u128,
    log: Vec<Undo<T>>,
    /// Old values of updated runs, in log order (see [`Undo::SetRun`]).
    saved: Vec<T>,
    /// Per live pin: the log length when it opened.
    frames: Vec<usize>,
    /// Positions whose old value the innermost pin has already logged
    /// through an update. Kept exact across removals and pushes, and
    /// reset whenever the innermost pin changes.
    updated: Range<usize>,
}

impl<T: Copy + Weighted> Default for PinnedDeque<T> {
    fn default() -> Self {
        PinnedDeque {
            items: VecDeque::new(),
            sum: 0,
            log: Vec::new(),
            saved: Vec::new(),
            frames: Vec::new(),
            updated: 0..0,
        }
    }
}

impl<T: Copy + Weighted> PinnedDeque<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Σ `weight` over the queued elements, maintained incrementally.
    pub fn weight_sum(&self) -> u128 {
        self.sum
    }

    #[inline]
    fn pinned(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Appends `x` at the back.
    pub fn push_back(&mut self, x: T) {
        if self.pinned() {
            self.log.push(Undo::PopBack);
        }
        self.sum += x.weight();
        self.items.push_back(x);
    }

    /// Prepends `x` at the front.
    pub fn push_front(&mut self, x: T) {
        if self.pinned() {
            self.log.push(Undo::PopFront);
            self.updated = self.updated.start + 1..self.updated.end + 1;
        }
        self.sum += x.weight();
        self.items.push_front(x);
    }

    /// Removes and returns the element at `i`, if any.
    pub fn remove(&mut self, i: usize) -> Option<T> {
        let x = self.items.remove(i)?;
        self.sum -= x.weight();
        if self.pinned() {
            self.log.push(Undo::Insert(i, x));
            let u = &mut self.updated;
            if i < u.end {
                if i < u.start {
                    u.start -= 1;
                }
                u.end -= 1;
            }
        }
        Some(x)
    }

    /// Applies `f` in place to every element in `range`; `f` must
    /// preserve each element's weight.
    ///
    /// # Panics
    /// If `range` is out of bounds.
    #[inline]
    pub fn update(&mut self, range: Range<usize>, mut f: impl FnMut(&mut T)) {
        if self.pinned() {
            return self.update_logged(range, f);
        }
        for x in self.items.range_mut(range) {
            Self::apply(x, &mut f);
        }
    }

    /// [`PinnedDeque::update`] under a live pin, kept out of line so the
    /// unpinned path stays a plain loop.
    #[cold]
    #[inline(never)]
    fn update_logged(&mut self, range: Range<usize>, mut f: impl FnMut(&mut T)) {
        // Log the parts of `range` the innermost pin has not logged yet:
        // the run before the logged range and the run after it.
        let u = self.updated.clone();
        for run in [
            range.start..range.end.min(u.start),
            range.start.max(u.end)..range.end,
        ] {
            if run.start < run.end {
                self.log.push(Undo::SetRun(run.start, run.len()));
                self.saved.extend(self.items.range(run).copied());
            }
        }
        let joined = u.start < u.end && range.start <= u.end && u.start <= range.end;
        self.updated = if joined {
            range.start.min(u.start)..range.end.max(u.end)
        } else {
            range.clone()
        };
        for x in self.items.range_mut(range) {
            Self::apply(x, &mut f);
        }
    }

    /// Runs an update, asserting in debug builds that it kept the weight.
    #[inline]
    fn apply(x: &mut T, f: impl FnOnce(&mut T)) {
        #[cfg(debug_assertions)]
        let weight = x.weight();
        f(x);
        #[cfg(debug_assertions)]
        assert_eq!(weight, x.weight(), "update changed the weight");
    }

    /// Replaces the whole contents (a checkpoint restore).
    pub fn replace(&mut self, items: VecDeque<T>) {
        let old = std::mem::replace(&mut self.items, items);
        self.sum = self.items.iter().map(T::weight).sum();
        if self.pinned() {
            self.log.push(Undo::Replace(old));
            self.updated = 0..0;
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.log.len() > mark {
            match self.log.pop().expect("len > mark") {
                Undo::PopBack => {
                    let x = self.items.pop_back().expect("logged push");
                    self.sum -= x.weight();
                }
                Undo::PopFront => {
                    let x = self.items.pop_front().expect("logged push");
                    self.sum -= x.weight();
                }
                Undo::Insert(i, x) => {
                    self.items.insert(i, x);
                    self.sum += x.weight();
                }
                Undo::SetRun(start, len) => {
                    let base = self.saved.len() - len;
                    let old = &self.saved[base..];
                    for (x, &v) in self.items.range_mut(start..start + len).zip(old) {
                        *x = v;
                    }
                    self.saved.truncate(base);
                }
                Undo::Replace(old) => {
                    self.items = old;
                    self.sum = self.items.iter().map(T::weight).sum();
                }
            }
        }
        self.updated = 0..0;
    }
}

impl<T: Copy + Weighted> WriteSet for PinnedDeque<T> {
    fn pin(&mut self, _id: SnapId) {
        self.frames.push(self.log.len());
        self.updated = 0..0;
    }

    fn rollback(&mut self, at: usize) {
        self.undo_to(self.frames[at]);
        self.frames.truncate(at + 1);
    }

    fn release(&mut self, at: usize) {
        debug_assert_eq!(self.log.len(), self.frames[at], "release after rollback");
        self.frames.truncate(at);
        self.updated = 0..0;
    }

    fn commit(&mut self, at: usize) {
        let upto = self.frames.get(at + 1).copied().unwrap_or(self.log.len());
        let values: usize = self.log[..upto]
            .iter()
            .map(|u| match u {
                Undo::SetRun(_, len) => *len,
                _ => 0,
            })
            .sum();
        self.saved.drain(..values);
        self.log.drain(..upto);
        self.frames.drain(..=at);
        for f in &mut self.frames {
            *f -= upto;
        }
        self.updated = 0..0;
    }
}

impl<T> std::ops::Deref for PinnedDeque<T> {
    type Target = VecDeque<T>;

    fn deref(&self) -> &VecDeque<T> {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_primitive() {
        let mut e = Enc::new();
        e.put_u8(0xab);
        e.put_u16(0xbeef);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 7);
        e.put_u128(u128::MAX / 3);
        e.put_usize(123_456);
        e.put_f64(-0.1);
        e.put_bool(true);
        e.put_bool(false);
        e.put_bytes(b"blob");
        e.put_str("héllo");
        e.put_time(SimTime::from_micros(42));
        e.put_dur(SimDuration::from_micros(7));
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 7);
        assert_eq!(d.u128().unwrap(), u128::MAX / 3);
        assert_eq!(d.usize().unwrap(), 123_456);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.bytes().unwrap(), b"blob");
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.time().unwrap(), SimTime::from_micros(42));
        assert_eq!(d.dur().unwrap(), SimDuration::from_micros(7));
        d.finish().unwrap();
    }

    #[test]
    fn nan_bits_survive_the_float_round_trip() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut e = Enc::new();
        e.put_f64(weird);
        let bytes = e.into_bytes();
        let got = Dec::new(&bytes).f64().unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn decoder_reports_truncation_not_panic() {
        let mut e = Enc::new();
        e.put_u32(7);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64(), Err(SnapError::Truncated));
        // A bad length prefix on a byte string is also just truncation.
        let mut e = Enc::new();
        e.put_usize(1_000_000);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).bytes(), Err(SnapError::Truncated));
    }

    #[test]
    fn decoder_flags_corrupt_tags_and_leftovers() {
        let mut d = Dec::new(&[3]);
        assert_eq!(d.bool(), Err(SnapError::Corrupt("bool tag out of range")));
        let mut e = Enc::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        d.u8().unwrap();
        assert_eq!(d.finish(), Err(SnapError::TrailingBytes(1)));
    }

    #[test]
    fn header_round_trips_and_rejects_mismatches() {
        let mut e = Enc::new();
        write_header(&mut e, 0x1111, 0x2222, 640);
        e.put_u8(0xfe); // image body
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        read_header(&mut d, 0x1111, 0x2222, 640).unwrap();
        assert_eq!(d.u8().unwrap(), 0xfe);
        d.finish().unwrap();

        let mut d = Dec::new(&bytes);
        assert_eq!(
            read_header(&mut d, 0x9999, 0x2222, 640),
            Err(SnapError::ConfigMismatch)
        );
        let mut d = Dec::new(&bytes);
        assert_eq!(
            read_header(&mut d, 0x1111, 0x9999, 640),
            Err(SnapError::TraceMismatch)
        );
        let mut d = Dec::new(&bytes);
        assert_eq!(
            read_header(&mut d, 0x1111, 0x2222, 641),
            Err(SnapError::TraceMismatch)
        );
        assert_eq!(
            read_header(&mut Dec::new(b"NOTSNAP0rest"), 0, 0, 0),
            Err(SnapError::BadMagic)
        );

        let mut e = Enc::new();
        e.put_raw(&MAGIC);
        e.put_u32(VERSION + 1);
        e.put_u64(0);
        e.put_u64(0);
        e.put_usize(0);
        let bytes = e.into_bytes();
        assert_eq!(
            read_header(&mut Dec::new(&bytes), 0, 0, 0),
            Err(SnapError::Version {
                found: VERSION + 1,
                expect: VERSION
            })
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut inc = Fnv1a::new();
        inc.write(b"foo");
        inc.write(b"bar");
        assert_eq!(inc.finish(), fnv1a(b"foobar"));
    }

    /// A test element: a value plus a buffer that must be reused.
    #[derive(Debug, Clone, PartialEq)]
    struct Cell {
        v: u32,
        buf: Vec<u32>,
    }

    impl PreImage for Cell {
        fn save_from(&mut self, src: &Self) {
            self.v = src.v;
            self.buf.clone_from(&src.buf);
        }
    }

    fn cells(n: u32) -> PinnedVec<Cell> {
        PinnedVec::new((0..n).map(|v| Cell { v, buf: vec![v; 3] }).collect())
    }

    fn values(c: &PinnedVec<Cell>) -> Vec<u32> {
        c.iter().map(|x| x.v).collect()
    }

    /// A queued test element: a weight plus a field updates may change.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Item {
        w: u64,
        visits: u32,
    }

    impl Item {
        fn new(w: u64) -> Self {
            Item { w, visits: 0 }
        }
    }

    impl Weighted for Item {
        fn weight(&self) -> u128 {
            u128::from(self.w)
        }
    }

    /// A whole-state copy of a [`World`]: cells, queue, weight sum.
    type State = (Vec<Cell>, Vec<Item>, u128);

    /// A pin stack plus two containers, driven together the way an owner
    /// drives its state.
    struct World {
        pins: PinStack<u32>,
        cells: PinnedVec<Cell>,
        queue: PinnedDeque<Item>,
    }

    impl World {
        fn new() -> Self {
            World {
                pins: PinStack::new(),
                cells: cells(4),
                queue: PinnedDeque::new(),
            }
        }

        fn snapshot(&mut self) -> SnapId {
            let (id, _) = self.pins.push();
            self.cells.pin(id);
            self.queue.pin(id);
            id
        }

        fn rollback(&mut self, id: SnapId, retire: bool) -> bool {
            let Some(at) = self.pins.find(id) else {
                return false;
            };
            self.cells.rollback(at);
            self.queue.rollback(at);
            if retire {
                self.cells.release(at);
                self.queue.release(at);
            }
            self.pins.rolled_back(at, retire);
            true
        }

        fn commit(&mut self, id: SnapId) -> bool {
            let Some(at) = self.pins.find(id) else {
                return false;
            };
            self.cells.commit(at);
            self.queue.commit(at);
            self.pins.committed(at);
            true
        }

        fn state(&self) -> State {
            (
                self.cells.to_vec(),
                self.queue.iter().copied().collect(),
                self.queue.weight_sum(),
            )
        }

        fn scribble(&mut self, k: u32) {
            self.cells.write((k % 4) as usize).v += 100;
            self.cells.write(((k + 1) % 4) as usize).buf.push(k);
            self.queue.push_back(Item::new(u64::from(k) * 10));
            if self.queue.len() > 2 {
                self.queue.remove(1);
            }
            self.queue.push_front(Item::new(7));
            self.queue.update(0..1, |x| x.visits += 1);
        }
    }

    #[test]
    fn journal_snapshot_rollback_commit_semantics() {
        let mut w = World::new();
        assert_eq!(w.pins.depth(), 0);
        let s0 = w.state();
        let a = w.snapshot();
        w.scribble(1);
        let s1 = w.state();
        let b = w.snapshot();
        w.scribble(2);
        assert_eq!(w.pins.depth(), 2);

        // Rolling back keeps the pin, so the same snapshot serves several
        // candidate explorations.
        assert!(w.rollback(b, false));
        assert_eq!(w.state(), s1);
        w.scribble(3);
        assert!(w.rollback(b, false));
        assert_eq!(w.state(), s1);
        assert_eq!(w.pins.depth(), 2);

        // Rolling back to an older pin closes the younger one.
        w.scribble(4);
        assert!(w.rollback(a, false));
        assert_eq!(w.state(), s0);
        assert_eq!(w.pins.depth(), 1);
        assert!(!w.rollback(b, false), "b was closed by the rollback to a");

        // Commit closes the pin; the id is dead afterwards.
        w.scribble(5);
        let s5 = w.state();
        assert!(w.commit(a));
        assert_eq!(w.pins.depth(), 0);
        assert_eq!(w.state(), s5, "commit keeps the current contents");
        assert!(!w.commit(a));
        assert!(!w.rollback(a, false));

        let s = w.pins.stats();
        assert_eq!((s.snapshots, s.rollbacks, s.commits), (2, 3, 1));
    }

    #[test]
    fn journal_commit_retires_older_frames_too() {
        let mut w = World::new();
        let a = w.snapshot();
        w.scribble(1);
        let b = w.snapshot();
        w.scribble(2);
        let s2 = w.state();
        let c = w.snapshot();
        w.scribble(3);
        // Committing the middle pin closes it and a; c's write set alone
        // still restores its instant — no merge step needed.
        assert!(w.commit(b));
        assert_eq!(w.pins.depth(), 1, "a and b retired, c still pinned");
        assert!(!w.rollback(a, false));
        assert!(w.rollback(c, false));
        assert_eq!(w.state(), s2);
    }

    #[test]
    fn journal_take_restores_and_retires_without_touching_older_frames() {
        let mut w = World::new();
        let s0 = w.state();
        let user = w.snapshot();
        w.scribble(1);
        let s1 = w.state();
        let fork = w.snapshot();
        w.scribble(2);
        // A retiring rollback restores the fork's instant and closes only
        // the fork — the older (user-held) pin survives, unlike a commit.
        assert!(w.rollback(fork, true));
        assert_eq!(w.state(), s1);
        assert_eq!(w.pins.depth(), 1);
        assert!(!w.rollback(fork, true), "retired pins are dead");
        w.scribble(3);
        assert!(w.rollback(user, false), "older pin untouched");
        assert_eq!(w.state(), s0);
        // A retiring rollback also closes younger pins.
        let p = w.snapshot();
        w.scribble(4);
        let q = w.snapshot();
        w.scribble(5);
        assert!(w.rollback(p, true));
        assert!(!w.rollback(q, false), "q was closed by retiring p");
        assert_eq!(w.state(), s0);
        let s = w.pins.stats();
        // Failed rollbacks are not counted.
        assert_eq!((s.snapshots, s.rollbacks), (4, 3));
    }

    #[test]
    fn journal_ids_are_never_reused() {
        let mut w = World::new();
        let a = w.snapshot();
        assert!(w.commit(a));
        let b = w.snapshot();
        assert_ne!(a, b);
        assert!(a < b, "ids are strictly increasing");
        assert_eq!(format!("{b}"), "snap#1");
    }

    #[test]
    fn pinned_vec_saves_each_element_once_per_pin_and_recycles_images() {
        let mut c = cells(3);
        // Unpinned writes log nothing.
        c.write(0).v = 9;
        assert!(c.log.is_empty());
        let mut pins: PinStack<()> = PinStack::new();
        let (a, _) = pins.push();
        c.pin(a);
        for _ in 0..5 {
            c.write(1).v += 1;
        }
        assert_eq!(c.log.len(), 1, "first write saves, later ones do not");
        let (b, _) = pins.push();
        c.pin(b);
        c.write(1).buf.push(42);
        c.write(2).v = 0;
        assert_eq!(c.log.len(), 3, "the inner pin saves its own pre-images");
        c.rollback(1);
        assert_eq!(values(&c), vec![9, 6, 2]);
        assert_eq!(c[1].buf, vec![1, 1, 1]);
        c.write(1).v = 0;
        assert_eq!(c.log.len(), 2, "after a rollback the pin saves again");
        c.rollback(0);
        assert_eq!(values(&c), vec![9, 1, 2]);
        // Images went back to their element's pool and are reused.
        assert_eq!(c.free[1].len(), 2);
        c.write(1).v = 5;
        assert_eq!(c.free[1].len(), 1);
        assert_eq!(c.slots.len(), 3, "the arena grew to the largest write set");
        c.rollback(0);
        c.release(0);
        c.write(1).v = 8;
        assert!(c.log.is_empty(), "no pin live, no logging");
    }

    #[test]
    fn pinned_deque_keeps_the_weight_sum_through_undo() {
        let mut q: PinnedDeque<Item> = PinnedDeque::new();
        for w in [5, 6, 7] {
            q.push_back(Item::new(w));
        }
        let before: Vec<Item> = q.iter().copied().collect();
        assert!(q.log.is_empty(), "unpinned mutations log nothing");
        q.pin(SnapId(0));
        q.remove(1);
        q.push_front(Item::new(1));
        q.update(1..3, |x| x.visits = 9);
        q.replace([3, 4].map(Item::new).into_iter().collect());
        q.push_back(Item::new(2));
        assert_eq!(q.weight_sum(), 9);
        q.pin(SnapId(1));
        q.update(0..2, |x| x.visits += 1);
        q.rollback(0);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), before);
        assert_eq!(q.weight_sum(), 18);
        q.release(0);
        q.push_back(Item::new(1));
        assert!(q.log.is_empty());
    }

    /// Random mutations under randomly nested pins, checked against
    /// whole-state copies taken at each pin.
    #[test]
    fn write_sets_match_full_copies_under_random_nesting() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for _case in 0..200 {
            let mut w = World::new();
            let mut copies: Vec<(SnapId, State)> = Vec::new();
            for step in 0..120u64 {
                match next(10) {
                    0 => {
                        let state = w.state();
                        copies.push((w.snapshot(), state));
                    }
                    1 | 2 if !copies.is_empty() => {
                        let at = next(copies.len() as u64) as usize;
                        let retire = next(2) == 0;
                        assert!(w.rollback(copies[at].0, retire));
                        assert_eq!(w.state(), copies[at].1, "rollback at step {step}");
                        copies.truncate(if retire { at } else { at + 1 });
                    }
                    3 if !copies.is_empty() => {
                        let at = next(copies.len() as u64) as usize;
                        assert!(w.commit(copies[at].0));
                        copies.drain(..=at);
                    }
                    4 => w.queue.push_back(Item::new(next(50))),
                    5 => w.queue.push_front(Item::new(next(50))),
                    6 if !w.queue.is_empty() => {
                        let i = next(w.queue.len() as u64) as usize;
                        w.queue.remove(i);
                    }
                    7 | 8 if !w.queue.is_empty() => {
                        // Mostly re-scan a short head, like an O3 pass.
                        let n = (w.queue.len() as u64).min(4);
                        let i = next(n) as usize;
                        let end = i + 1 + next((w.queue.len() - i) as u64) as usize;
                        w.queue.update(i..end, |x| x.visits += 1);
                    }
                    _ => {
                        let i = next(4) as usize;
                        w.cells.write(i).v += 1;
                        w.cells.write(i).buf.push(step as u32);
                    }
                }
                let sum: u128 = w.queue.iter().map(Weighted::weight).sum();
                assert_eq!(w.queue.weight_sum(), sum);
            }
            assert_eq!(w.pins.depth(), copies.len());
        }
    }
}
