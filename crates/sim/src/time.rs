//! Simulated time and clock domains.
//!
//! All simulated time is kept in integer **nanoseconds** (`u64`), which is
//! fine-grained enough to distinguish every clock edge in the system
//! (fastest clock modeled: the 166 MHz application processor, ~6 ns period)
//! while leaving headroom for ~584 simulated years before overflow.
//!
//! Components that are naturally synchronous (the 66 MHz memory bus, the
//! NIU's internal IBus) use a [`Clock`] to convert between their cycle count
//! and absolute time, always rounding *up* to the next edge: an event that
//! becomes visible between edges is acted on at the following edge, exactly
//! as in the hardware.

/// Nanoseconds per microsecond.
pub const NS_PER_US: u64 = 1_000;
/// Nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// A point in simulated time, in nanoseconds since simulation start.
///
/// `Time` is a transparent newtype over `u64`. Forward arithmetic
/// ([`Time::plus`], `+`, `+=`) is *checked in debug builds*: it panics on
/// overflow there, because overflowing 584 years of headroom is always a
/// simulator bug — usually arithmetic on [`Time::NEVER`]. Release builds
/// wrap. The one deliberate exception is [`Time::since`], which
/// **saturates** to zero when the "earlier" time is actually later:
/// interval accounting (occupancy, latency clipping) relies on that to
/// clip intervals that straddle a measurement boundary instead of
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Simulation origin.
    pub const ZERO: Time = Time(0);
    /// A time later than any the simulator will reach; used as "never".
    pub const NEVER: Time = Time(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * NS_PER_US)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn ns(self) -> u64 {
        self.0
    }

    /// This time expressed in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / NS_PER_US as f64
    }

    /// Saturating difference `self - earlier` (zero if `earlier` is
    /// later). The saturation is intentional — see the type-level docs.
    #[inline]
    pub fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// `self + ns`, the workhorse of event scheduling. Panics on overflow
    /// in debug builds (scheduling an event relative to [`Time::NEVER`]
    /// is a bug); wraps in release.
    #[inline]
    pub const fn plus(self, ns: u64) -> Time {
        debug_assert!(
            self.0.checked_add(ns).is_some(),
            "Time overflow (arithmetic on Time::NEVER?)"
        );
        Time(self.0.wrapping_add(ns))
    }

    /// The larger of two times.
    #[inline]
    pub fn max_of(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl core::ops::Add<u64> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: u64) -> Time {
        self.plus(rhs)
    }
}

impl core::ops::AddAssign<u64> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        *self = self.plus(rhs);
    }
}

impl core::fmt::Display for Time {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "never")
        } else if self.0 >= NS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A fixed-frequency clock domain.
///
/// Frequencies in this machine do not divide 1 ns evenly (66 MHz is a
/// 15.1515… ns period), so a clock is stored as a rational
/// `period = num/den` ns and edge times are computed exactly: edge *k* is
/// at `k * num / den` ns (truncated), which keeps long simulations free of
/// cumulative drift. The product is formed in 64 bits whenever it fits —
/// every edge a run reaches in its first ~37 simulated years at 66 MHz —
/// and in 128 bits otherwise, so both forms give the same result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    /// Period numerator in nanoseconds.
    num: u64,
    /// Period denominator.
    den: u64,
}

impl Clock {
    /// A clock from a frequency in MHz. `Clock::from_mhz(66)` has period
    /// 1000/66 ns.
    pub const fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0);
        Clock {
            num: 1000,
            den: mhz,
        }
    }

    /// A clock with an integral period in nanoseconds.
    pub const fn from_period_ns(ns: u64) -> Self {
        assert!(ns > 0);
        Clock { num: ns, den: 1 }
    }

    /// Absolute time of clock edge `k` (edge 0 is at time 0).
    #[inline]
    pub fn edge(self, k: u64) -> Time {
        Time(mul_div(k, self.num, self.den, false))
    }

    /// Index of the first edge at or after `t`.
    #[inline]
    pub fn edge_at_or_after(self, t: Time) -> u64 {
        mul_div(t.0, self.den, self.num, true)
    }

    /// Time of the first edge at or after `t`.
    #[inline]
    pub fn align_up(self, t: Time) -> Time {
        self.edge(self.edge_at_or_after(t))
    }

    /// Time of the first edge strictly after `t`.
    #[inline]
    pub fn next_edge_after(self, t: Time) -> Time {
        let k = self.edge_at_or_after(t);
        if self.edge(k) > t {
            self.edge(k)
        } else {
            self.edge(k + 1)
        }
    }

    /// Duration of `cycles` whole cycles, rounded up to a whole ns.
    #[inline]
    pub fn cycles(self, cycles: u64) -> u64 {
        (cycles as u128 * self.num as u128).div_ceil(self.den as u128) as u64
    }

    /// Number of whole cycles elapsed in `ns` nanoseconds (floor).
    #[inline]
    pub fn cycles_in(self, ns: u64) -> u64 {
        ((ns as u128 * self.den as u128) / self.num as u128) as u64
    }
}

/// `a * b / c`, rounded down or (`ceil`) up and truncated to 64 bits.
/// The run loops convert an edge on every executed cycle, so the product
/// stays in 64 bits whenever it fits; a 128-bit division is a library
/// call on most hosts.
#[inline]
fn mul_div(a: u64, b: u64, c: u64, ceil: bool) -> u64 {
    match a.checked_mul(b) {
        Some(p) if ceil => p.div_ceil(c),
        Some(p) => p / c,
        None if ceil => (a as u128 * b as u128).div_ceil(c as u128) as u64,
        None => (a as u128 * b as u128 / c as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 128-bit formulas the 64-bit fast path must reproduce.
    fn edge_u128(c: Clock, k: u64) -> Time {
        Time(((k as u128 * c.num as u128) / c.den as u128) as u64)
    }

    fn edge_at_or_after_u128(c: Clock, t: Time) -> u64 {
        (t.0 as u128 * c.den as u128).div_ceil(c.num as u128) as u64
    }

    /// Clocks of every shape the machine builds: fractional periods
    /// (`from_mhz`) and integral ones.
    fn clocks() -> [Clock; 6] {
        [
            Clock::from_mhz(66),
            Clock::from_mhz(166),
            Clock::from_mhz(1),
            Clock::from_mhz(u64::MAX),
            Clock::from_period_ns(15),
            Clock::from_period_ns(u64::MAX),
        ]
    }

    #[test]
    fn edges_match_the_128_bit_formula_beside_the_overflow_boundary() {
        for c in clocks() {
            // The largest k (and t) whose product with num (den) fits.
            let k_max = u64::MAX / c.num;
            let t_max = u64::MAX / c.den;
            let near = |m: u64| [0, 1, 2, m.saturating_sub(1), m, m.saturating_add(1)];
            for k in near(k_max).into_iter().chain([u64::MAX - 1, u64::MAX]) {
                assert_eq!(c.edge(k), edge_u128(c, k), "{c:?} edge({k})");
            }
            for t in near(t_max).into_iter().chain([u64::MAX - 1, u64::MAX]) {
                let t = Time(t);
                assert_eq!(
                    c.edge_at_or_after(t),
                    edge_at_or_after_u128(c, t),
                    "{c:?} edge_at_or_after({t:?})"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random clocks and inputs, small and huge: the 64-bit path and
        /// the 128-bit fallback agree with the 128-bit formula.
        #[test]
        fn edges_match_the_128_bit_formula(
            mhz in 1u64..4_000,
            period in 1u64..1_000,
            small in 0u64..(1 << 40),
            big in any::<u64>(),
        ) {
            for c in [Clock::from_mhz(mhz), Clock::from_period_ns(period)] {
                for v in [small, big] {
                    prop_assert_eq!(c.edge(v), edge_u128(c, v));
                    prop_assert_eq!(c.edge_at_or_after(Time(v)), edge_at_or_after_u128(c, Time(v)));
                }
            }
        }
    }

    #[test]
    fn time_display() {
        assert_eq!(Time::from_ns(42).to_string(), "42ns");
        assert_eq!(Time::from_us(3).to_string(), "3.000us");
        assert_eq!(Time::NEVER.to_string(), "never");
    }

    #[test]
    fn time_arith() {
        let t = Time::from_ns(100);
        assert_eq!(t.plus(50), Time::from_ns(150));
        assert_eq!((t + 25).ns(), 125);
        assert_eq!(Time::from_ns(80).since(t), 0);
        assert_eq!(Time::from_ns(180).since(t), 80);
        assert_eq!(t.max_of(Time::from_ns(99)), t);
        assert_eq!(t.max_of(Time::from_ns(101)), Time::from_ns(101));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "Time overflow"))]
    fn time_plus_overflow_is_a_debug_panic() {
        // In release builds the add wraps; in debug it must panic loudly,
        // since the usual cause is scheduling relative to Time::NEVER.
        let t = Time::NEVER.plus(1);
        if cfg!(debug_assertions) {
            unreachable!();
        } else {
            assert_eq!(t, Time::ZERO);
        }
    }

    #[test]
    fn since_saturates_by_design() {
        // Interval clipping relies on this: a "start" later than "end"
        // yields a zero-length interval, never a panic or a huge value.
        assert_eq!(Time::ZERO.since(Time::NEVER), 0);
        assert_eq!(Time::from_ns(5).since(Time::from_ns(9)), 0);
    }

    #[test]
    fn clock_66mhz_edges_do_not_drift() {
        let c = Clock::from_mhz(66);
        // Edge 66_000_000 must land exactly at 1 second.
        assert_eq!(c.edge(66_000_000), Time(NS_PER_SEC));
        // Consecutive edge deltas are 15 or 16 ns, never anything else.
        let mut prev = c.edge(0);
        for k in 1..10_000 {
            let e = c.edge(k);
            let d = e.since(prev);
            assert!(d == 15 || d == 16, "delta {d} at edge {k}");
            prev = e;
        }
    }

    #[test]
    fn clock_alignment() {
        let c = Clock::from_mhz(66);
        // Edge 1 is at floor(1000/66) = 15 ns.
        assert_eq!(c.edge(1), Time(15));
        assert_eq!(c.align_up(Time(0)), Time(0));
        assert_eq!(c.align_up(Time(1)), Time(15));
        assert_eq!(c.align_up(Time(15)), Time(15));
        assert_eq!(c.next_edge_after(Time(15)), Time(30));
        assert_eq!(c.next_edge_after(Time(0)), Time(15));
    }

    #[test]
    fn clock_cycle_durations() {
        let c = Clock::from_mhz(100); // 10 ns period
        assert_eq!(c.cycles(3), 30);
        assert_eq!(c.cycles_in(35), 3);
        let b = Clock::from_mhz(66);
        assert_eq!(b.cycles(66), 1000);
        assert_eq!(b.cycles_in(1000), 66);
    }

    #[test]
    fn integral_period_clock() {
        let c = Clock::from_period_ns(15);
        assert_eq!(c.edge(4), Time(60));
        assert_eq!(c.edge_at_or_after(Time(31)), 3);
    }

    #[test]
    fn align_is_idempotent_and_monotone() {
        let c = Clock::from_mhz(166);
        let mut last = Time::ZERO;
        for t in 0..2000u64 {
            let a = c.align_up(Time(t));
            assert!(a >= Time(t));
            assert_eq!(c.align_up(a), a);
            assert!(a >= last);
            last = a;
        }
    }
}
