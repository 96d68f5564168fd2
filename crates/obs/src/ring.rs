//! Lock-free bounded trace recorder.
//!
//! [`RingRecorder`] is a fixed-capacity array of event slots claimed with
//! a single `fetch_add` — emission is wait-free, allocation-free, and
//! safe to call from any number of emitting threads. When the buffer is
//! full, new events are **dropped** (drop-newest) and counted, never
//! silently lost: the golden-trace suite and `cargo xtask trace` assert
//! `dropped() == 0`, so capacity problems surface as test failures
//! instead of truncated artifacts.
//!
//! Each slot is `3 + MAX_FIELDS` plain `AtomicU64` words
//! (`[marker, time_bits, tag, payload...]`); the marker (sequence + 1)
//! is written last with `Release` ordering so a drain never observes a
//! half-written slot. Everything is safe Rust — the workspace denies
//! `unsafe_code`.

use crate::event::{TraceEvent, TraceRecord, MAX_FIELDS};
use crate::TraceSink;

// Under `--features loom` every atomic becomes a model-checked loom
// atomic, and the `loom_ring` tests explore all emit/drain
// interleavings of the marker handshake below.
#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Words per slot: marker, time bits, tag, payload.
const SLOT_WORDS: usize = 3 + MAX_FIELDS;

/// Default capacity (events) of a recorder.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Fixed-capacity, wait-free trace recorder (see module docs).
pub struct RingRecorder {
    words: Vec<AtomicU64>,
    head: AtomicU64,
    dropped: AtomicU64,
    capacity: u64,
}

impl RingRecorder {
    /// Creates a recorder holding up to `capacity` events.
    pub fn with_capacity(capacity: usize) -> RingRecorder {
        let capacity = capacity.max(1);
        RingRecorder {
            words: (0..capacity * SLOT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            capacity: capacity as u64,
        }
    }

    /// Creates a recorder with [`DEFAULT_CAPACITY`].
    pub fn new() -> RingRecorder {
        RingRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// Number of events recorded (excluding dropped ones).
    pub fn len(&self) -> usize {
        // lint: l9-ok(Acquire: pairs with emit's AcqRel claim so len observes every completed claim)
        self.head.load(Ordering::Acquire).min(self.capacity) as usize
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        // lint: l9-ok(Acquire: pairs with the AcqRel counter bump so the dropped count is current once emission quiesces)
        self.dropped.load(Ordering::Acquire)
    }

    /// Drains all recorded events in sequence order and resets the
    /// recorder (including the dropped counter) for reuse.
    ///
    /// Must be called after emission has quiesced (e.g. after a
    /// simulation run returns); concurrent emitters during a drain may
    /// have their events skipped.
    pub fn drain(&self) -> Vec<TraceRecord> {
        // lint: l9-ok(AcqRel: acquires all prior claims and publishes the reset head to later emitters)
        let n = self.head.swap(0, Ordering::AcqRel).min(self.capacity);
        // lint: l9-ok(Release: publishes the counter reset together with the drained state)
        self.dropped.store(0, Ordering::Release);
        let mut out = Vec::with_capacity(n as usize);
        for slot in 0..n as usize {
            let base = slot * SLOT_WORDS;
            // lint: l9-ok(Acquire: pairs with the emitter's Release marker store, so the slot words read below are fully written)
            let marker = self.words[base].swap(0, Ordering::Acquire);
            if marker == 0 {
                // Emitter claimed the slot but had not finished writing.
                continue;
            }
            // lint: l9-ok(Acquire: slot reads stay ordered after the marker Acquire handshake above)
            let t = f64::from_bits(self.words[base + 1].load(Ordering::Acquire));
            // lint: l9-ok(Acquire: slot reads stay ordered after the marker Acquire handshake above)
            let tag = self.words[base + 2].load(Ordering::Acquire);
            let mut payload = [0u64; MAX_FIELDS];
            for (i, word) in payload.iter_mut().enumerate() {
                // lint: l9-ok(Acquire: slot reads stay ordered after the marker Acquire handshake above)
                *word = self.words[base + 3 + i].load(Ordering::Acquire);
            }
            if let Some(ev) = TraceEvent::decode(tag, &payload) {
                out.push(TraceRecord {
                    seq: marker - 1,
                    t,
                    ev,
                });
            }
        }
        out
    }
}

impl Default for RingRecorder {
    fn default() -> RingRecorder {
        RingRecorder::new()
    }
}

impl TraceSink for RingRecorder {
    fn emit(&self, t: f64, ev: &TraceEvent) {
        // lint: l9-ok(AcqRel: the claim hands out unique indices and orders this emitter's slot writes after it)
        let claim = self.head.fetch_add(1, Ordering::AcqRel);
        if claim >= self.capacity {
            // lint: l9-ok(AcqRel: counter bump pairs with dropped's Acquire load)
            self.dropped.fetch_add(1, Ordering::AcqRel);
            return;
        }
        let base = claim as usize * SLOT_WORDS;
        let (tag, payload, _) = ev.encode();
        // lint: l9-ok(Release: slot words must be visible before the marker store publishes the slot)
        self.words[base + 1].store(t.to_bits(), Ordering::Release);
        // lint: l9-ok(Release: slot words must be visible before the marker store publishes the slot)
        self.words[base + 2].store(tag, Ordering::Release);
        for (i, word) in payload.iter().enumerate() {
            // lint: l9-ok(Release: slot words must be visible before the marker store publishes the slot)
            self.words[base + 3 + i].store(*word, Ordering::Release);
        }
        // Marker last: a drain only reads slots whose marker is set.
        // lint: l9-ok(Release: the marker is written last, a drain only trusts slots whose marker is set)
        self.words[base].store(claim + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_in_sequence_order() {
        let ring = RingRecorder::with_capacity(16);
        for i in 0..5u64 {
            ring.emit(i as f64 * 0.5, &TraceEvent::Admit { task: i });
        }
        assert_eq!(ring.len(), 5);
        let recs = ring.drain();
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.t, i as f64 * 0.5);
            assert_eq!(r.ev, TraceEvent::Admit { task: i as u64 });
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let ring = RingRecorder::with_capacity(3);
        for i in 0..5u64 {
            ring.emit(0.0, &TraceEvent::Admit { task: i });
        }
        assert_eq!(ring.dropped(), 2);
        let recs = ring.drain();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].ev, TraceEvent::Admit { task: 2 });
        // Drain resets both the buffer and the dropped counter.
        assert_eq!(ring.dropped(), 0);
        ring.emit(1.0, &TraceEvent::Admit { task: 9 });
        let recs = ring.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ev, TraceEvent::Admit { task: 9 });
    }

    #[test]
    fn concurrent_emission_loses_nothing() {
        let ring = Arc::new(RingRecorder::with_capacity(4096));
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..256u64 {
                        ring.emit(
                            0.0,
                            &TraceEvent::Admit {
                                task: thread * 1000 + i,
                            },
                        );
                    }
                });
            }
        });
        let recs = ring.drain();
        assert_eq!(recs.len(), 1024);
        assert_eq!(ring.dropped(), 0);
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..1024).collect::<Vec<u64>>());
    }
}
