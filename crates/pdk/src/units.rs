//! Lightweight physical-unit newtypes.
//!
//! EDA code juggles volts, farads, ohms and seconds across many orders of
//! magnitude; mixing them up is a classic source of silent bugs. The
//! newtypes here give the public API static unit distinctions
//! while staying cheap (`Copy` wrappers over `f64`, SI base units inside).
//!
//! Construction helpers accept the scales that are natural for a 130 nm
//! process (`Farad::from_ff`, `Time::from_ps`, ...) and accessors convert
//! back (`.ff()`, `.ps()`, ...). Cross-unit arithmetic is implemented only
//! where physically meaningful, e.g. `Ohm * Farad = Time`.
//!
//! ```
//! use openserdes_pdk::units::{Ohm, Farad};
//! let tau = Ohm::new(1.0e3) * Farad::from_ff(20.0);
//! assert!((tau.ps() - 20.0).abs() < 1e-9);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $sym:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Wraps a raw value expressed in the SI base unit.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the SI base unit.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Componentwise maximum.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Componentwise minimum.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// `true` if the value is finite (not NaN/inf).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $sym)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// Electric potential in volts.
    Volt,
    "V"
);
unit!(
    /// Electric current in amperes.
    Amp,
    "A"
);
unit!(
    /// Resistance in ohms.
    Ohm,
    "Ω"
);
unit!(
    /// Capacitance in farads.
    Farad,
    "F"
);
unit!(
    /// Time in seconds.
    Time,
    "s"
);
unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
unit!(
    /// Power in watts.
    Watt,
    "W"
);
unit!(
    /// Energy in joules.
    Joule,
    "J"
);
unit!(
    /// Length in micrometres (the one non-SI base: layout speaks µm).
    Micron,
    "µm"
);
unit!(
    /// Area in square micrometres.
    AreaUm2,
    "µm²"
);

impl Volt {
    /// Constructs from millivolts.
    pub const fn from_mv(mv: f64) -> Self {
        Self(mv * 1.0e-3)
    }

    /// Value in millivolts.
    pub const fn mv(self) -> f64 {
        self.0 * 1.0e3
    }
}

impl Farad {
    /// Constructs from femtofarads.
    pub const fn from_ff(ff: f64) -> Self {
        Self(ff * 1.0e-15)
    }

    /// Constructs from picofarads.
    pub const fn from_pf(pf: f64) -> Self {
        Self(pf * 1.0e-12)
    }

    /// Value in femtofarads.
    pub const fn ff(self) -> f64 {
        self.0 * 1.0e15
    }
}

impl Time {
    /// Constructs from picoseconds.
    pub const fn from_ps(ps: f64) -> Self {
        Self(ps * 1.0e-12)
    }

    /// Value in picoseconds.
    pub const fn ps(self) -> f64 {
        self.0 * 1.0e12
    }

    /// Value in nanoseconds.
    pub const fn ns(self) -> f64 {
        self.0 * 1.0e9
    }
}

impl Hertz {
    /// Constructs from megahertz.
    pub const fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1.0e6)
    }

    /// Constructs from gigahertz.
    pub const fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1.0e9)
    }

    /// Value in megahertz.
    pub const fn mhz(self) -> f64 {
        self.0 * 1.0e-6
    }

    /// Value in gigahertz.
    pub const fn ghz(self) -> f64 {
        self.0 * 1.0e-9
    }
}

impl Watt {
    /// Value in milliwatts.
    pub const fn mw(self) -> f64 {
        self.0 * 1.0e3
    }
}

impl Joule {
    /// Value in picojoules.
    pub const fn pj(self) -> f64 {
        self.0 * 1.0e12
    }
}

impl AreaUm2 {
    /// Value in square millimetres.
    pub const fn mm2(self) -> f64 {
        self.0 * 1.0e-6
    }
}

// --- physically meaningful cross-unit arithmetic -------------------------

impl Mul<Farad> for Ohm {
    type Output = Time;
    fn mul(self, rhs: Farad) -> Time {
        Time(self.0 * rhs.0)
    }
}

impl Mul<Ohm> for Farad {
    type Output = Time;
    fn mul(self, rhs: Ohm) -> Time {
        Time(self.0 * rhs.0)
    }
}

impl Div<Ohm> for Volt {
    type Output = Amp;
    fn div(self, rhs: Ohm) -> Amp {
        Amp(self.0 / rhs.0)
    }
}

impl Div<Amp> for Volt {
    type Output = Ohm;
    fn div(self, rhs: Amp) -> Ohm {
        Ohm(self.0 / rhs.0)
    }
}

impl Mul<Amp> for Volt {
    type Output = Watt;
    fn mul(self, rhs: Amp) -> Watt {
        Watt(self.0 * rhs.0)
    }
}

impl Mul<Volt> for Amp {
    type Output = Watt;
    fn mul(self, rhs: Volt) -> Watt {
        Watt(self.0 * rhs.0)
    }
}

impl Mul<Time> for Watt {
    type Output = Joule;
    fn mul(self, rhs: Time) -> Joule {
        Joule(self.0 * rhs.0)
    }
}

impl Div<Time> for Joule {
    type Output = Watt;
    fn div(self, rhs: Time) -> Watt {
        Watt(self.0 / rhs.0)
    }
}

impl Mul<Micron> for Micron {
    type Output = AreaUm2;
    fn mul(self, rhs: Micron) -> AreaUm2 {
        AreaUm2(self.0 * rhs.0)
    }
}

impl Mul<Hertz> for Joule {
    /// Energy per event times event rate is average power.
    type Output = Watt;
    fn mul(self, rhs: Hertz) -> Watt {
        Watt(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_time() {
        let tau = Ohm::new(2.0e3) * Farad::from_ff(50.0);
        assert!((tau.ps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ohms_law_round_trip() {
        let i = Volt::new(1.8) / Ohm::new(1.8e3);
        assert!((i.value() - 1.0e-3).abs() < 1e-15);
        let r = Volt::new(1.8) / i;
        assert!((r.value() - 1.8e3).abs() < 1e-9);
    }

    #[test]
    fn power_and_energy() {
        let p = Volt::new(1.8) * Amp::new(10.0e-3);
        assert!((p.mw() - 18.0).abs() < 1e-9);
        let e = p * Time::from_ps(1000.0);
        assert!((e.pj() - 18.0).abs() < 1e-9);
        let back = e / Time::from_ps(1000.0);
        assert!((back.mw() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_helpers_round_trip() {
        assert!((Volt::from_mv(32.0).mv() - 32.0).abs() < 1e-12);
        assert!((Farad::from_pf(2.0).ff() - 2000.0).abs() < 1e-9);
        assert!((Time::from_ps(500.0).ns() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dimensionless_ratio() {
        let ratio = Volt::new(0.9) / Volt::new(1.8);
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_arith() {
        let a = Time::from_ps(10.0);
        let b = Time::from_ps(20.0);
        assert!(a < b);
        assert_eq!((a + b).ps().round() as i64, 30);
        assert_eq!((b - a).ps().round() as i64, 10);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!((-a).abs(), a);
    }

    #[test]
    fn sum_of_units() {
        let total: Watt = [Watt::new(4.5e-3), Watt::new(11.2e-3)].into_iter().sum();
        assert!((total.mw() - 15.7).abs() < 1e-9);
    }

    #[test]
    fn display_includes_symbol() {
        assert_eq!(format!("{}", Volt::new(1.8)), "1.8 V");
        assert_eq!(format!("{}", Micron::new(0.15)), "0.15 µm");
    }

    #[test]
    fn area_from_lengths() {
        let a = Micron::new(480.0) * Micron::new(500.0);
        assert!((a.mm2() - 0.24).abs() < 1e-9);
    }

    #[test]
    fn energy_rate_is_power() {
        // 219 pJ/bit at 2 Gb/s -> 438 mW.
        let p = Joule::new(219.0e-12) * Hertz::from_ghz(2.0);
        assert!((p.mw() - 438.0).abs() < 1e-6);
    }
}
