//! Timing helpers for the harness binaries.

use std::time::{Duration, Instant};

/// Times one closure invocation.
pub fn time<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_and_returns() {
        let (d, v) = time(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(4));
    }
}
