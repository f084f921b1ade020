//! Simulation time.
//!
//! All simulation time is kept in integer **nanoseconds** since the start of
//! the simulation. Integer time makes event ordering exact and keeps the
//! simulator deterministic across platforms; nanosecond granularity is fine
//! enough for PCIe/memory latencies (tens of ns) while `u64` still covers
//! ~584 years of simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulation time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" deadline.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier` (zero if `earlier` is later).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Duration from whole seconds.
    #[cfg(test)]
    #[inline]
    pub(crate) const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// Whether the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by a non-negative float, rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "negative scale");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// The time needed to move `bytes` bytes at `bytes_per_sec`.
    ///
    /// This is the workhorse for serialisation delays of links, PCIe and the
    /// memory bus. Rounds up so that back-to-back transmissions never exceed
    /// the nominal rate.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> SimDuration {
        debug_assert!(bytes_per_sec > 0.0, "non-positive rate");
        let ns = (bytes as f64) * NANOS_PER_SEC as f64 / bytes_per_sec;
        // Integer ceiling: `f64::ceil` is a libm call on baseline x86-64,
        // and this runs for every link/PCIe/memory-bus transmission. The
        // truncate-and-bump form is exact for every non-negative value
        // (above 2^53 doubles are integral, so the bump never fires) and
        // saturates like the `as` cast does.
        let trunc = ns as u64;
        SimDuration(trunc.saturating_add(((trunc as f64) < ns) as u64))
    }
}

/// Timestamp granularity for the event queue and the latency terms that
/// feed it.
///
/// All simulation arithmetic stays in exact nanoseconds; a `Resolution`
/// only controls the *grid* that event dispatch instants (and the
/// serialisation/grant boundaries that produce them) are rounded **up**
/// to. At [`Resolution::EXACT`] (1 ns, the default) every rounding is the
/// identity and behaviour is bit-for-bit unchanged. At a coarse
/// resolution (64 ns by default in the coarse-time scenarios) events with
/// nearby timestamps land on the same grid instant, so the timing wheel's
/// slot-drain batching genuinely fans out.
///
/// Resolutions are powers of two so quantisation is a shift/mask, and so
/// the hierarchical wheel's slot widths stay power-of-two aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// log2 of the grid step in nanoseconds.
    shift: u32,
}

impl Default for Resolution {
    fn default() -> Self {
        Resolution::EXACT
    }
}

impl Resolution {
    /// Exact 1 ns resolution: every quantisation is the identity.
    pub const EXACT: Resolution = Resolution { shift: 0 };

    /// A resolution of `ns` nanoseconds. `ns` must be a power of two
    /// (1, 2, 4, … 65536); returns `None` otherwise.
    pub const fn from_nanos(ns: u64) -> Option<Resolution> {
        if ns == 0 || !ns.is_power_of_two() || ns > 65_536 {
            return None;
        }
        Some(Resolution {
            shift: ns.trailing_zeros(),
        })
    }

    /// The grid step in nanoseconds.
    #[inline]
    pub const fn nanos(self) -> u64 {
        1 << self.shift
    }

    /// log2 of the grid step.
    #[inline]
    pub(crate) const fn shift(self) -> u32 {
        self.shift
    }

    /// Whether this is the exact 1 ns grid (all quantisation a no-op).
    #[inline]
    pub const fn is_exact(self) -> bool {
        self.shift == 0
    }

    /// Round a time **up** to the grid. Rounding up (never down) keeps
    /// every quantised latency conservative: a transfer can finish late
    /// by at most one grid step, never early.
    #[inline]
    pub const fn ceil_time(self, t: SimTime) -> SimTime {
        let mask = (1u64 << self.shift) - 1;
        SimTime(t.0.saturating_add(mask) & !mask)
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.nanos())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        SimDuration(self.0.wrapping_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        SimDuration(self.0.wrapping_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        self.0 = self.0.wrapping_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= NANOS_PER_SEC {
        write!(f, "{:.3}s", ns as f64 / NANOS_PER_SEC as f64)
    } else if ns >= NANOS_PER_MILLI {
        write!(f, "{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
    } else if ns >= NANOS_PER_MICRO {
        write!(f, "{:.3}us", ns as f64 / NANOS_PER_MICRO as f64)
    } else {
        write!(f, "{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrip() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(5);
        assert_eq!((t + d).as_nanos(), 15_000);
        assert_eq!((t - d).as_nanos(), 5_000);
        assert_eq!(((t + d) - t).as_nanos(), 5_000);
        assert_eq!((d + d).as_nanos(), 10_000);
        assert_eq!((d * 3).as_nanos(), 15_000);
        assert_eq!((d / 5).as_nanos(), 1_000);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(200);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 100);
    }

    #[test]
    fn for_bytes_rounds_up() {
        // 1 byte at 1 GB/s = 1 ns exactly.
        assert_eq!(SimDuration::for_bytes(1, 1e9).as_nanos(), 1);
        // 4096 bytes at 12.5 GB/s (100 Gbps) = 327.68 ns -> 328.
        assert_eq!(SimDuration::for_bytes(4096, 12.5e9).as_nanos(), 328);
        // Zero bytes takes zero time.
        assert_eq!(SimDuration::for_bytes(0, 1e9).as_nanos(), 0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(1.25).as_nanos(), 13); // 12.5 rounds to 13 (round half away)
        assert_eq!(d.mul_f64(0.0).as_nanos(), 0);
    }

    #[test]
    fn resolution_construction() {
        assert!(Resolution::EXACT.is_exact());
        assert_eq!(Resolution::EXACT.nanos(), 1);
        assert_eq!(Resolution::default(), Resolution::EXACT);
        let r = Resolution::from_nanos(64).unwrap();
        assert_eq!(r.nanos(), 64);
        assert_eq!(r.shift(), 6);
        assert!(!r.is_exact());
        // Non-powers-of-two and degenerate steps are rejected.
        assert!(Resolution::from_nanos(0).is_none());
        assert!(Resolution::from_nanos(3).is_none());
        assert!(Resolution::from_nanos(100).is_none());
        assert!(Resolution::from_nanos(1 << 17).is_none());
        assert!(Resolution::from_nanos(1).is_some());
        assert!(Resolution::from_nanos(65_536).is_some());
    }

    #[test]
    fn resolution_rounds_up_to_grid() {
        let r = Resolution::from_nanos(64).unwrap();
        assert_eq!(r.ceil_time(SimTime::from_nanos(0)).as_nanos(), 0);
        assert_eq!(r.ceil_time(SimTime::from_nanos(1)).as_nanos(), 64);
        assert_eq!(r.ceil_time(SimTime::from_nanos(64)).as_nanos(), 64);
        assert_eq!(r.ceil_time(SimTime::from_nanos(65)).as_nanos(), 128);
        // Exact resolution is the identity everywhere.
        for ns in [0u64, 1, 63, 64, 12345] {
            assert_eq!(
                Resolution::EXACT
                    .ceil_time(SimTime::from_nanos(ns))
                    .as_nanos(),
                ns
            );
        }
        // Saturates instead of wrapping near the top of the range:
        // u64::MAX rounded down to the 64 ns grid.
        assert_eq!(r.ceil_time(SimTime::MAX).as_nanos(), !63);
    }
}
