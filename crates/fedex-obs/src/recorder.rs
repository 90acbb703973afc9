//! Always-on flight recorder: a bounded ring buffer of recent request
//! events.
//!
//! Writers claim a monotonically increasing sequence number with one
//! relaxed `fetch_add` and then write `slots[seq % capacity]` under that
//! slot's own lock, so concurrent writers only contend when they hash to
//! the same slot. An event is only overwritten by a *newer* sequence
//! number, which keeps the dump invariant simple even when two laps race
//! on the same slot: after `n >= capacity` total events, a dump holds
//! exactly `capacity` events, all from the final lap
//! (`seq >= n - capacity`), in strictly increasing sequence order.
//!
//! Readers ([`FlightRecorder::dump`]) take each slot's read lock
//! briefly; they never block the `fetch_add` fast path and hold no
//! global lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};
use std::time::Instant;

/// One recorded request event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (0-based, dense across all events ever
    /// recorded, including those since evicted from the ring).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_micros: u64,
    /// Trace id of the request this event belongs to (0 = none).
    pub trace_id: u64,
    /// Event kind: `admit`, `dispatch`, `stage`, `finish`, `error`,
    /// `reject`, or `expired`.
    pub kind: &'static str,
    /// Wire command (`explain`, `register`, ...).
    pub cmd: String,
    /// Session the request addressed (may be empty).
    pub session: String,
    /// Kind-specific detail: stage name, reject code, queue class, ...
    pub detail: String,
    /// Incident id (`inc-…`) for `error` events; empty otherwise.
    pub incident: String,
    /// Duration in microseconds where meaningful (stage/finish/error
    /// events), else 0.
    pub micros: u64,
}

/// Bounded lock-light ring buffer of [`Event`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[RwLock<Option<Event>>]>,
    head: AtomicU64,
    epoch: Instant,
}

/// Default ring capacity: enough for several thousand requests' worth of
/// admit/dispatch/stage/finish events.
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let n = capacity.max(1);
        let slots: Vec<RwLock<Option<Event>>> = (0..n).map(|_| RwLock::new(None)).collect();
        FlightRecorder {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Microseconds elapsed since the recorder epoch (the timebase of
    /// [`Event::at_micros`]).
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Record one event. `seq` and `at_micros` in `ev` are overwritten
    /// by the recorder; callers fill the rest.
    pub fn record(&self, mut ev: Event) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        ev.seq = seq;
        ev.at_micros = self.now_micros();
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        // `into_inner` on poison: recording must survive panicking
        // request handlers elsewhere in the process.
        let mut guard = slot.write().unwrap_or_else(PoisonError::into_inner);
        let stale = guard.as_ref().is_none_or(|old| old.seq < seq);
        if stale {
            *guard = Some(ev);
        }
    }

    /// Convenience constructor + record.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        trace_id: u64,
        kind: &'static str,
        cmd: &str,
        session: &str,
        detail: &str,
        incident: &str,
        micros: u64,
    ) {
        self.record(Event {
            seq: 0,
            at_micros: 0,
            trace_id,
            kind,
            cmd: cmd.to_string(),
            session: session.to_string(),
            detail: detail.to_string(),
            incident: incident.to_string(),
            micros,
        });
    }

    /// All events currently in the ring, in increasing sequence order.
    pub fn dump(&self) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let guard = slot.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(ev) = guard.as_ref() {
                out.push(ev.clone());
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events whose trace id matches `trace_id`, oldest first.
    pub fn events_for_trace(&self, trace_id: u64) -> Vec<Event> {
        let mut out = self.dump();
        out.retain(|e| e.trace_id == trace_id);
        out
    }

    /// The full timeline of the request that produced `incident`: looks
    /// up the error event carrying the incident id, then returns every
    /// ring event sharing its trace id (or just the error event itself
    /// when it has no trace id). Empty if the incident has been evicted.
    pub fn events_for_incident(&self, incident: &str) -> Vec<Event> {
        let all = self.dump();
        let Some(hit) = all.iter().find(|e| e.incident == incident) else {
            return Vec::new();
        };
        if hit.trace_id == 0 {
            return vec![hit.clone()];
        }
        let tid = hit.trace_id;
        all.into_iter().filter(|e| e.trace_id == tid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, kind: &'static str) -> Event {
        Event {
            seq: 0,
            at_micros: 0,
            trace_id: trace,
            kind,
            cmd: "explain".into(),
            session: "s".into(),
            detail: String::new(),
            incident: String::new(),
            micros: 0,
        }
    }

    #[test]
    fn dump_is_ordered_and_bounded() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..20 {
            r.record(ev(i, "admit"));
        }
        let d = r.dump();
        assert_eq!(d.len(), 8);
        assert!(d.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(d.iter().all(|e| e.seq >= 12), "only the last lap remains");
        assert_eq!(r.recorded(), 20);
    }

    #[test]
    fn incident_lookup_returns_the_whole_trace() {
        let r = FlightRecorder::with_capacity(32);
        r.push(7, "admit", "explain", "s", "heavy", "", 0);
        r.push(8, "admit", "explain", "s", "heavy", "", 0);
        r.push(7, "dispatch", "explain", "s", "", "", 0);
        r.push(7, "error", "explain", "s", "panic", "inc-00000001", 123);
        let tl = r.events_for_incident("inc-00000001");
        assert_eq!(tl.len(), 3);
        assert!(tl.iter().all(|e| e.trace_id == 7));
        assert!(r.events_for_incident("inc-ffffffff").is_empty());
    }
}
