//! Zipf-distributed sampling of item popularity.
//!
//! Real recommendation catalogs have heavily skewed popularity; the synthetic
//! generator uses a Zipf prior inside each topic cluster so that the item
//! frequency distribution resembles MovieLens/Foursquare traces.

use rand::Rng;

/// CDF values a draw compares at once from its guide entry.
const WINDOW: usize = 4;

/// A Zipf distribution over `0..n` with exponent `s`, sampled by inverse
/// transform over the precomputed CDF.
///
/// Probability of rank `k` (0-based) is proportional to `1 / (k + 1)^s`.
///
/// A draw reads one uniform `u ∈ [0, 1)` and returns the first rank whose
/// CDF value is `≥ u`. Instead of a binary search per draw, a guide table
/// of `G` buckets (`G` the power of two at or above `n`) built once in
/// [`Zipf::new`] stores, for each bucket `b`, the first rank with
/// `cdf ≥ b / G`; the draw starts at `guide[⌊u·G⌋]` and counts the CDF
/// values `< u` from there, four at a time without a branch (a bucket
/// rarely spans more ranks than that).
///
/// ```
/// use cia_data::Zipf;
/// use rand::SeedableRng;
///
/// let z = Zipf::new(100, 1.1).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = z.sample(&mut rng);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    /// The CDF of ranks `0..n`, then `WINDOW − 1` entries of 1.0 so a
    /// draw's window never runs past the end.
    cdf: Vec<f64>,
    /// `guide[b]` = the first rank with `cdf ≥ b / guide.len()`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Creates a Zipf distribution over `0..n` with exponent `s >= 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Result<Self, crate::DataError> {
        if n == 0 {
            return Err(crate::DataError::InvalidConfig {
                field: "zipf.n",
                reason: "support size must be positive".into(),
            });
        }
        if !s.is_finite() || s < 0.0 {
            return Err(crate::DataError::InvalidConfig {
                field: "zipf.s",
                reason: format!("exponent must be finite and non-negative, got {s}"),
            });
        }
        let mut cdf = Vec::with_capacity(n + WINDOW - 1);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating point drift: the last entry must be 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // `b / buckets` is exact (a power-of-two divisor), and the last CDF
        // entry is 1, so this scan stops inside the CDF for every bucket.
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut rank = 0;
        for b in 0..buckets {
            let lower = b as f64 / buckets as f64;
            while cdf[rank] < lower {
                rank += 1;
            }
            guide.push(u32::try_from(rank).expect("zipf support fits u32"));
        }
        cdf.resize(n + WINDOW - 1, 1.0);
        Ok(Zipf { cdf, guide })
    }

    /// Number of values in the support.
    pub fn len(&self) -> usize {
        self.cdf.len() + 1 - WINDOW
    }

    /// Returns `true` if the support is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws one rank in `0..len()`, consuming one `f64` from `rng`.
    ///
    /// Returns the first rank whose CDF value is `≥ u`. The guide entry of
    /// `u`'s bucket `b = ⌊u·G⌋` is the first rank with `cdf ≥ b/G`, and
    /// `u ≥ b/G`, so no rank before it can qualify. The CDF is sorted, so
    /// the values `< u` from the guide entry on form a prefix: their count
    /// in a window of four, continued rank by rank when all four are `< u`,
    /// lands on exactly that rank. While the CDF is strictly increasing (it
    /// is for every exponent the generators use) that is also the rank a
    /// binary search over the CDF finds; the unit tests check the two
    /// against each other at and around every CDF value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The first rank whose CDF value is `≥ u`, for `u ∈ [0, 1)`.
    fn rank_of(&self, u: f64) -> usize {
        // `u · G` is exact (a power of two times `u`) and below `G`.
        let start = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        let window = &self.cdf[start..start + WINDOW];
        let mut rank = start + window.iter().map(|&c| usize::from(c < u)).sum::<usize>();
        while self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }

    /// Probability mass of rank `k`, or 0 if out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_config() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12, "pmf({k}) = {}", z.pmf(k));
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.2).unwrap();
        let sum: f64 = (0..1000).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_favors_low_ranks() {
        let z = Zipf::new(100, 1.5).unwrap();
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn samples_match_pmf_roughly() {
        let z = Zipf::new(10, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!((emp - z.pmf(k)).abs() < 0.01, "rank {k}: empirical {emp} vs pmf {}", z.pmf(k));
        }
    }

    /// The rank a binary search over the CDF finds for `u`.
    fn binary_search_rank(z: &Zipf, u: f64) -> usize {
        let cdf = &z.cdf[..z.len()];
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite")) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    #[test]
    fn guide_table_draws_equal_the_binary_search() {
        let largest_below_one = 1.0f64.next_down();
        for n in [1, 2, 3, 7, 168, 1000, 1682] {
            for s in [0.0, 0.5, 1.05, 1.2, 2.0] {
                let z = Zipf::new(n, s).unwrap();
                let cdf = &z.cdf[..z.len()];
                assert!(cdf.windows(2).all(|w| w[0] < w[1]), "n={n} s={s}: cdf has a plateau");
                let mut probes = vec![0.0, largest_below_one];
                for &c in cdf {
                    probes.extend([c, c.next_down(), c.next_up()]);
                }
                for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(z.rank_of(u), binary_search_rank(&z, u), "n={n} s={s} u={u:e}");
                }
            }
        }
    }

    #[test]
    fn guide_table_samples_equal_the_binary_search() {
        let z = Zipf::new(1682, 1.05).unwrap();
        let mut guided = rand::rngs::StdRng::seed_from_u64(7);
        let mut searched = guided.clone();
        for _ in 0..100_000 {
            let want = binary_search_rank(&z, searched.gen());
            assert_eq!(z.sample(&mut guided), want);
        }
    }

    #[test]
    fn sample_is_always_in_range() {
        let z = Zipf::new(3, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
