//! A small seeded property-testing harness with shrink-on-failure.
//!
//! The workspace's property suites (LSE bounds, Top-K queue invariants,
//! correlation identities, parser fuzzing) run through
//! [`for_all`]: a closure generator draws a case from a seeded [`Rng`], the
//! property returns `Ok(())` or a failure message (use [`prop_assert!`] /
//! [`prop_assert_eq!`]), and on failure the harness greedily shrinks the
//! case via the [`Shrink`] trait before panicking with the minimal
//! counterexample and its seed.
//!
//! Every run is fully deterministic: case `i` of a suite with seed `s` is
//! generated from `Rng::seed_from_u64(s ^ i)`, so a failure message's
//! `case` index reproduces exactly.
//!
//! ```
//! use insta_support::prop::{for_all, Config};
//! use insta_support::prop_assert;
//!
//! for_all(
//!     Config::cases(64),
//!     |rng| rng.gen_range(0u32..1000),
//!     |&x| {
//!         prop_assert!(x.checked_add(1).is_some(), "overflow at {x}");
//!         Ok(())
//!     },
//! );
//! ```

use crate::rng::Rng;
use std::fmt::Debug;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Base seed; change to explore a different deterministic sequence.
    pub seed: u64,
    /// Cap on shrinking iterations after a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cases: 64,
            seed: 0x12_57A5_EED0,
            max_shrink_steps: 2_000,
        }
    }
}

impl Config {
    /// Default configuration with an explicit case count.
    pub fn cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Produces structurally smaller variants of a failing value.
///
/// Implementations return candidates in decreasing order of aggressiveness;
/// the harness re-tests them greedily (first failing candidate becomes the
/// new current case) until no candidate fails or the step budget runs out.
pub trait Shrink: Sized {
    /// Smaller candidate values (empty = fully shrunk).
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

/// Runs `prop` over `cfg.cases` generated values, shrinking and panicking
/// on the first failure.
///
/// # Panics
///
/// Panics with the minimal counterexample if any case fails.
pub fn for_all<T, G, P>(cfg: Config, generate: G, prop: P)
where
    T: Clone + Debug + Shrink,
    G: Fn(&mut Rng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    for case in 0..cfg.cases {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ u64::from(case));
        let value = generate(&mut rng);
        if let Err(msg) = prop(&value) {
            let (min_value, min_msg, steps) = shrink_failure(&cfg, value, msg, &prop);
            panic!(
                "property failed (case {case} of {}, seed {:#x}, {steps} shrink steps)\n\
                 minimal counterexample: {min_value:?}\n{min_msg}",
                cfg.cases, cfg.seed,
            );
        }
    }
}

/// Greedy shrink loop: repeatedly replace the current failing value with
/// its first still-failing shrink candidate.
fn shrink_failure<T, P>(cfg: &Config, mut value: T, mut msg: String, prop: &P) -> (T, String, u32)
where
    T: Clone + Debug + Shrink,
    P: Fn(&T) -> Result<(), String>,
{
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in value.shrink() {
            steps += 1;
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
            if let Err(m) = prop(&candidate) {
                value = candidate;
                msg = m;
                continue 'outer;
            }
        }
        break; // every candidate passes: `value` is minimal
    }
    (value, msg, steps)
}

/// Returns `Err` from the enclosing property when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Returns `Err` from the enclosing property when the values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {a:?}\n right: {b:?} ({}:{})",
                stringify!($a),
                stringify!($b),
                file!(),
                line!()
            ));
        }
    }};
}

// ---- Shrink implementations ---------------------------------------------

macro_rules! impl_shrink_uint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                if *self != 0 {
                    out.push(0);
                    if *self > 1 {
                        out.push(self / 2);
                    }
                    out.push(self - 1);
                }
                out
            }
        }
    )*};
}

impl_shrink_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_shrink_int {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                if *self != 0 {
                    out.push(0);
                    out.push(self / 2);
                    if *self < 0 {
                        out.push(-self);
                    }
                    out.push(self - self.signum());
                }
                out.dedup();
                out
            }
        }
    )*};
}

impl_shrink_int!(i32, i64, isize);

impl Shrink for f64 {
    fn shrink(&self) -> Vec<Self> {
        let x = *self;
        if x == 0.0 || !x.is_finite() {
            return Vec::new();
        }
        let mut out = vec![0.0];
        if x != x.trunc() {
            out.push(x.trunc());
        }
        if x < 0.0 {
            out.push(-x);
        }
        out.push(x / 2.0);
        out.retain(|&c| c != x);
        out
    }
}

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Shrink for char {
    fn shrink(&self) -> Vec<Self> {
        if *self == 'a' {
            Vec::new()
        } else {
            vec!['a']
        }
    }
}

impl Shrink for String {
    fn shrink(&self) -> Vec<Self> {
        let chars: Vec<char> = self.chars().collect();
        let mut out = Vec::new();
        if chars.is_empty() {
            return out;
        }
        out.push(String::new());
        let n = chars.len();
        if n > 1 {
            out.push(chars[..n / 2].iter().collect());
            out.push(chars[n / 2..].iter().collect());
        }
        // Drop one character at a few positions.
        for i in [0, n / 2, n - 1] {
            let mut c = chars.clone();
            c.remove(i);
            out.push(c.into_iter().collect());
        }
        out.dedup();
        out
    }
}

impl<T: Clone + Shrink> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        out.push(Vec::new());
        if n > 1 {
            out.push(self[..n / 2].to_vec());
            out.push(self[n / 2..].to_vec());
            // Drop single elements (bounded so huge vectors stay cheap).
            for i in (0..n).take(16) {
                let mut v = self.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Shrink individual elements in place (bounded).
        for i in (0..n).take(16) {
            for replacement in self[i].shrink().into_iter().take(2) {
                let mut v = self.clone();
                v[i] = replacement;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! impl_shrink_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Clone + Shrink),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = candidate;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )+};
}

impl_shrink_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
);

/// Generator helpers for common shapes.
pub mod gens {
    use crate::rng::Rng;

    /// A printable-ASCII string (plus `\n`) of length `0..max_len` —
    /// the fuzzing alphabet the parser robustness suites use.
    pub fn ascii_string(rng: &mut Rng, max_len: usize) -> String {
        let len = rng.gen_range(0..=max_len);
        (0..len)
            .map(|_| {
                // 0x20..=0x7E plus newline.
                let c = rng.gen_range(0x20u32..0x80);
                if c == 0x7F {
                    '\n'
                } else {
                    char::from_u32(c).expect("printable ascii")
                }
            })
            .collect()
    }

    /// A `Vec<f64>` with elements in `range` and length in `len`.
    pub fn f64_vec(
        rng: &mut Rng,
        range: std::ops::Range<f64>,
        len: std::ops::Range<usize>,
    ) -> Vec<f64> {
        let n = rng.gen_range(len);
        (0..n).map(|_| rng.gen_range(range.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let count = AtomicU32::new(0);
        for_all(
            Config::cases(10),
            |rng| rng.gen_range(0u32..100),
            |_| {
                count.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn failing_property_shrinks_to_minimal_case() {
        let result = std::panic::catch_unwind(|| {
            for_all(
                Config::cases(100),
                |rng| rng.gen_range(0u64..10_000),
                |&x| {
                    prop_assert!(x < 117, "value {x} too large");
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().expect("string");
        // Greedy shrinking must land exactly on the boundary value.
        assert!(msg.contains("counterexample: 117"), "{msg}");
    }

    #[test]
    fn vec_shrinking_reduces_length() {
        let result = std::panic::catch_unwind(|| {
            for_all(
                Config::cases(50),
                |rng| {
                    let n = rng.gen_range(0usize..20);
                    (0..n).map(|_| rng.gen_range(0u32..100)).collect::<Vec<u32>>()
                },
                |v| {
                    prop_assert!(v.len() < 5, "len {}", v.len());
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().expect("string");
        assert!(msg.contains("len 5"), "{msg}");
    }

    #[test]
    fn is_deterministic_per_seed() {
        let collect = |seed: u64| {
            let mut vals = Vec::new();
            for_all(
                Config::cases(5).seed(seed),
                |rng| rng.gen_range(0u64..1_000_000),
                |&x| {
                    // Property cannot borrow vals mutably in Fn; regenerate
                    // instead: push via interior mutability is overkill here.
                    let _ = x;
                    Ok(())
                },
            );
            for case in 0..5u64 {
                let mut rng = Rng::seed_from_u64(seed ^ case);
                vals.push(rng.gen_range(0u64..1_000_000));
            }
            vals
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }

    #[test]
    fn tuple_shrink_shrinks_components() {
        let t = (4u32, 3.0f64);
        let cands = t.shrink();
        assert!(cands.contains(&(0u32, 3.0)));
        assert!(cands.contains(&(4u32, 0.0)));
    }
}
