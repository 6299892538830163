//! A minimal 128-bit random identifier.
//!
//! The paper assigns every transaction a globally unique UUID at
//! `StartTransaction` time and breaks commit-timestamp ties by comparing UUIDs
//! lexicographically (§3.1). We only need uniqueness and a total order, so a
//! random 128-bit value rendered as fixed-width hex is sufficient; pulling in a
//! full RFC 4122 implementation would add nothing the protocol uses.

use std::fmt;
use std::str::FromStr;

use rand::Rng;

use crate::error::AftError;

/// A 128-bit random identifier with a total lexicographic order.
///
/// `Uuid` is `Copy` and 16 bytes, so it is cheap to embed in every
/// [`TransactionId`](crate::TransactionId) and key version. It is held as two
/// 64-bit halves rather than one `u128`: a `u128` is 16-byte aligned, which
/// pads a `TransactionId` from 24 bytes to 32 in every map bucket, version
/// list and read set that holds one. The derived order compares `hi` then
/// `lo`, which is the numeric order of [`as_u128`](Uuid::as_u128).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uuid {
    hi: u64,
    lo: u64,
}

const _: () = assert!(std::mem::size_of::<Uuid>() == 16 && std::mem::align_of::<Uuid>() == 8);

impl Uuid {
    /// A UUID of all zeroes, used for the implicit `NULL` version of every key
    /// (§3.2: "Each key has a NULL version").
    pub const NIL: Uuid = Uuid { hi: 0, lo: 0 };

    /// Generates a new random UUID from a caller-supplied RNG — the only
    /// source: every caller seeds its own, so a seed replays its UUIDs.
    pub fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Uuid::from_u128(rng.gen())
    }

    /// Builds a UUID from a raw 128-bit value.
    pub const fn from_u128(raw: u128) -> Self {
        Uuid {
            hi: (raw >> 64) as u64,
            lo: raw as u64,
        }
    }

    /// Returns the raw 128-bit value.
    pub const fn as_u128(&self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Returns true if this is the [`Uuid::NIL`] identifier.
    pub const fn is_nil(&self) -> bool {
        self.hi == 0 && self.lo == 0
    }

    /// Appends the 32-digit hex form to `out`. Every storage key a
    /// transaction writes ends in it, so it is written digit by digit rather
    /// than through `fmt`.
    pub(crate) fn push_hex(&self, out: &mut String) {
        out.push_str(std::str::from_utf8(&self.hex()).expect("hex digits are ASCII"));
    }

    /// Fixed-width lowercase hex, so the string order matches the numeric
    /// order; storage keys embed this representation.
    fn hex(&self) -> [u8; 32] {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let raw = self.as_u128();
        let mut hex = [0u8; 32];
        for (i, digit) in hex.iter_mut().enumerate() {
            *digit = DIGITS[(raw >> (124 - 4 * i)) as usize & 0xF];
        }
        hex
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(std::str::from_utf8(&self.hex()).expect("hex digits are ASCII"))
    }
}

impl FromStr for Uuid {
    type Err = AftError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(AftError::Codec(format!(
                "uuid must be 32 hex characters, got {} in {s:?}",
                s.len()
            )));
        }
        u128::from_str_radix(s, 16)
            .map(Uuid::from_u128)
            .map_err(|e| AftError::Codec(format!("invalid uuid {s:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        assert_eq!(Uuid::from_rng(&mut r1), Uuid::from_rng(&mut r2));
    }

    #[test]
    fn display_round_trips() {
        let u = Uuid::from_u128(0xdead_beef_0102_0304_0506_0708_090a_0b0c);
        let s = u.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(s.parse::<Uuid>().unwrap(), u);
    }

    #[test]
    fn display_order_matches_numeric_order() {
        let small = Uuid::from_u128(0x01);
        let large = Uuid::from_u128(0xff00_0000_0000_0000_0000_0000_0000_0000);
        assert!(small < large);
        assert!(small.to_string() < large.to_string());
    }

    #[test]
    fn order_is_the_order_of_the_128_bit_value() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut pairs: Vec<(u128, u128)> = (0..1_000)
            .map(|_| (rng.gen::<u128>(), rng.gen::<u128>()))
            .collect();
        // Halves that tie: the other half alone decides.
        for _ in 0..100 {
            let (x, y) = (rng.gen::<u128>(), rng.gen::<u64>());
            pairs.push((x, x ^ (u128::from(y | 1) << 64)));
            pairs.push((x, x ^ u128::from(y | 1)));
        }
        pairs.push((u128::from(u64::MAX), u128::from(u64::MAX) + 1));
        for (a, b) in pairs {
            assert_eq!(
                Uuid::from_u128(a).cmp(&Uuid::from_u128(b)),
                a.cmp(&b),
                "{a:#x} vs {b:#x}"
            );
        }
    }

    #[test]
    fn raw_value_round_trips_across_the_halves() {
        for x in [
            0,
            1,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX,
        ] {
            assert_eq!(Uuid::from_u128(x).as_u128(), x);
        }
    }

    #[test]
    fn display_is_fixed_width_with_a_zero_high_half() {
        let s = Uuid::from_u128(0xabc).to_string();
        assert_eq!(s, format!("{:032x}", 0xabc));
        assert_eq!(s.parse::<Uuid>().unwrap(), Uuid::from_u128(0xabc));
    }

    #[test]
    fn nil_is_nil() {
        assert!(Uuid::NIL.is_nil());
        assert!(!Uuid::from_u128(1).is_nil());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("not-a-uuid".parse::<Uuid>().is_err());
        assert!("abcd".parse::<Uuid>().is_err());
        assert!("zz".repeat(16).parse::<Uuid>().is_err());
    }
}
