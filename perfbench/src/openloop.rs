//! The fixed-rate schedule of the open-loop wire load generator.
//!
//! Request `i` of a step is due at `start + i / rate`. The sender never
//! sends a request before its due time, and every latency is measured from
//! the due time rather than from the actual send, so a stall that delays
//! later sends is charged to those requests (coordinated omission).

use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    interval_ns: f64,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        assert!(rate_per_s > 0.0, "the offered rate must be positive");
        Schedule {
            start,
            interval_ns: 1e9 / rate_per_s,
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.interval_ns) as u64)
    }

    /// One past the last request index (below `limit`) already due at
    /// `now`: the sender may send exactly the requests `< due_through`.
    pub fn due_through(&self, now: Instant, limit: u64) -> u64 {
        if now < self.start {
            return 0;
        }
        let elapsed = now.duration_since(self.start).as_nanos() as f64;
        let mut n = ((elapsed / self.interval_ns) as u64)
            .saturating_add(1)
            .min(limit);
        // Correct the float division's rounding against `due` itself: never
        // admit a request due after `now`, never hold back one due by then.
        while n > 0 && self.due(n - 1) > now {
            n -= 1;
        }
        while n < limit && self.due(n) <= now {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_request_is_admitted_before_its_due_time() {
        let start = Instant::now();
        for rate in [1.0, 999.0, 50_000.0, 333_333.0, 1_250_000.0] {
            let s = Schedule::new(start, rate);
            let mut last = 0;
            for k in 0..20_000u64 {
                let now = start + Duration::from_nanos(k * 7_919 + k * k % 1_013);
                let n = s.due_through(now, u64::MAX);
                assert!(n >= last, "admission must be monotone in time");
                if n > 0 {
                    assert!(s.due(n - 1) <= now, "rate {rate}: request {} early", n - 1);
                }
                assert!(s.due(n) > now, "rate {rate}: request {n} due but held back");
                last = n;
            }
        }
    }

    #[test]
    fn nothing_is_due_before_the_start_and_the_limit_caps_admission() {
        let start = Instant::now() + Duration::from_millis(5);
        let s = Schedule::new(start, 1000.0);
        assert_eq!(s.due_through(Instant::now(), 10), 0);
        assert_eq!(s.due_through(start + Duration::from_secs(5), 10), 10);
    }
}
