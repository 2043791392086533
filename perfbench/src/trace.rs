//! The harness's own clock and span recorder.
//!
//! Spans are recorded from outside the program, around the calls the
//! benchmark makes into each layer's public functions. They are kept in
//! memory as `(layer, start, end)` intervals and reduced to self times
//! when the pass ends: a layer's self time is its spans' duration minus
//! the part of that interval its child spans cover.

use std::sync::Mutex;
use std::time::Instant;

/// A monotonic clock with a fixed origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Clock { origin: now() }
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self) -> u64 {
        u64::try_from(now().duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

fn now() -> Instant {
    // detlint-allow(wall-clock): the benchmark measures host time from outside the program; no reading reaches a result
    Instant::now()
}

/// Seconds between two clock readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    start: u64,
    end: u64,
}

/// Records harness spans; shared with worker threads by reference.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(clock: Clock) -> Self {
        Tracer {
            clock,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.clock.ns();
        let out = f();
        let end = self.clock.ns();
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .push(Span { layer, start, end });
        out
    }

    fn of(&self, layer: &str) -> Vec<(u64, u64)> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.start, s.end))
            .collect()
    }

    /// Spans recorded for `layer`.
    pub fn count(&self, layer: &str) -> u64 {
        self.of(layer).len() as u64
    }

    /// Summed duration of `layer`'s spans, seconds.
    pub fn total_s(&self, layer: &str) -> f64 {
        self.of(layer)
            .iter()
            .fold(0.0, |acc, &(s, e)| acc + secs(s, e))
    }

    /// Wall time during which at least one `layer` span was open,
    /// seconds: the part of a parent interval that this (possibly
    /// concurrent) child layer covers.
    pub fn covered_s(&self, layer: &str) -> f64 {
        let mut spans = self.of(layer);
        spans.sort_unstable();
        let mut covered = 0u64;
        let mut open: Option<(u64, u64)> = None;
        for (s, e) in spans {
            open = match open {
                Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
                Some((os, oe)) => {
                    covered += oe - os;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((os, oe)) = open {
            covered += oe - os;
        }
        covered as f64 / 1e9
    }

    /// First start and last end of `layer`'s spans.
    pub fn extent(&self, layer: &str) -> Option<(u64, u64)> {
        let spans = self.of(layer);
        let start = spans.iter().map(|&(s, _)| s).min()?;
        let end = spans.iter().map(|&(_, e)| e).max()?;
        Some((start, end))
    }
}

/// Runs `f`, inside a span of `layer` when a tracer is attached.
pub fn timed<R>(tracer: Option<&Tracer>, layer: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.time(layer, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps() {
        let t = Tracer::new(Clock::new());
        {
            let mut spans = t.spans.lock().unwrap();
            for (start, end) in [(0, 10), (5, 20), (30, 40), (40, 45), (50, 50)] {
                spans.push(Span {
                    layer: "x",
                    start,
                    end,
                });
            }
        }
        assert!((t.covered_s("x") - 35e-9).abs() < 1e-15);
        assert!((t.total_s("x") - 40e-9).abs() < 1e-15);
        assert_eq!(t.count("x"), 5);
        assert_eq!(t.extent("x"), Some((0, 50)));
    }
}
