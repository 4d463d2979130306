//! Seeded input generation: every key, op kind and scan start a run
//! uses comes from here, so one seed gives one input sequence.

/// SplitMix64: tiny, fast and good enough for picking keys and ops.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams of one seed
    /// are independent (each worker thread takes its own).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias is below 2^-32 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A point operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get,
    Insert,
    Remove,
}

/// Percentages of get / insert / remove; they sum to 100.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub get: u32,
    pub insert: u32,
    pub remove: u32,
}

/// The shape of a point-op stream: which keys, how many prefilled,
/// which mix.
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    /// Keys are uniform in `[0, keys)`.
    pub keys: u64,
    /// Distinct keys present before the run.
    pub prefill: u64,
    pub mix: Mix,
}

impl Stream {
    /// The same mix over at most `cap` keys (prefill scaled alike), for
    /// structures whose ops are linear in their size.
    pub fn capped(self, cap: u64) -> Stream {
        if self.keys <= cap {
            return self;
        }
        Stream {
            keys: cap,
            prefill: self.prefill * cap / self.keys,
            mix: self.mix,
        }
    }

    /// `prefill` distinct keys drawn without replacement from
    /// `[0, keys)`, in a seeded random order.
    pub fn prefill_keys(&self, seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..self.keys).collect();
        let mut rng = Rng::new(seed, u64::MAX);
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        keys.truncate(self.prefill as usize);
        keys
    }

    /// The op generator of worker `stream`.
    pub fn ops(&self, seed: u64, stream: u64) -> OpGen {
        OpGen {
            rng: Rng::new(seed, stream),
            keys: self.keys,
            mix: self.mix,
        }
    }
}

/// An endless seeded op sequence of one [`Stream`].
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: Rng,
    keys: u64,
    mix: Mix,
}

impl OpGen {
    pub fn next_op(&mut self) -> (Op, u64) {
        let roll = self.rng.below(100) as u32;
        let op = if roll < self.mix.get {
            Op::Get
        } else if roll < self.mix.get + self.mix.insert {
            Op::Insert
        } else {
            Op::Remove
        };
        (op, self.rng.below(self.keys))
    }

    /// A key uniform in `[0, n)` from the same sequence (scan starts).
    pub fn key_below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Stream = Stream {
        keys: 1000,
        prefill: 500,
        mix: Mix {
            get: 50,
            insert: 25,
            remove: 25,
        },
    };

    #[test]
    fn one_seed_one_sequence() {
        let a: Vec<_> = (0..100)
            .scan(S.ops(7, 1), |g, _| Some(g.next_op()))
            .collect();
        let b: Vec<_> = (0..100)
            .scan(S.ops(7, 1), |g, _| Some(g.next_op()))
            .collect();
        let c: Vec<_> = (0..100)
            .scan(S.ops(8, 1), |g, _| Some(g.next_op()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(S.prefill_keys(3), S.prefill_keys(3));
    }

    #[test]
    fn prefill_is_distinct_and_in_range() {
        let mut k = S.prefill_keys(11);
        k.sort_unstable();
        k.dedup();
        assert_eq!(k.len(), 500);
        assert!(k.iter().all(|&x| x < 1000));
    }

    #[test]
    fn mix_is_respected() {
        let mut g = S.ops(1, 0);
        let gets = (0..100_000).filter(|_| g.next_op().0 == Op::Get).count();
        assert!((48_000..52_000).contains(&gets), "{gets}");
    }
}
