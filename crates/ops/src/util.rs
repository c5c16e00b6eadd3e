//! Small utilities: a fast non-cryptographic hasher for memory keys, the
//! splitmix64 generator, and [`named_enum!`](crate::named_enum).
//!
//! The hashed token memories (§6.1 of the paper) hash on the variable
//! bindings tested for equality plus the destination node id. Keys are tiny
//! (a handful of words), so we use an Fx-style multiply-xor hash rather than
//! SipHash; HashDoS is not a concern for a match engine running trusted
//! productions. (`psme-rete` re-exports this module as `psme_rete::util`.)

use std::hash::Hasher;

/// A fieldless enum declared as `Variant = "json_name"` lines; the enum, its
/// `ALL` (declaration order = reporting order) and `name()` all come from
/// the one list.
#[macro_export]
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident { $($(#[$vmeta:meta])* $v:ident = $name:literal,)+ }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum $ty { $($(#[$vmeta])* $v,)+ }

        impl $ty {
            /// Every variant, in reporting order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$v),+];

            /// Stable snake_case name (its JSON spelling).
            pub fn name(self) -> &'static str {
                match self { $($ty::$v => $name,)+ }
            }
        }
    };
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style hasher (the algorithm used inside rustc).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Hash one value with [`FxHasher`].
pub fn fxhash<T: std::hash::Hash>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// One step of the splitmix64 generator: advance `state` and return the
/// next output, fully determined by the seed. The one seeded generator of
/// the workspace (load schedules, the serving model, work-stealing victim
/// choice).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from one splitmix64 draw (53 mantissa bits).
pub fn u01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// `BuildHasher` for `HashMap`s keyed on small match-engine types.
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(fxhash(&(1u32, 2u64)), fxhash(&(1u32, 2u64)));
        assert_ne!(fxhash(&1u64), fxhash(&2u64));
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m[&21], 42);
    }

    #[test]
    fn spread_is_reasonable() {
        // 1024 sequential keys should not collapse into a few buckets of a
        // 128-line table.
        let mut buckets = [0u32; 128];
        for i in 0..1024u64 {
            buckets[(fxhash(&i) % 128) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 40, "worst bucket got {max} of 1024");
    }
}
