//! Synthetic MNIST-style image data for the universality experiment (§VIII-E).
//!
//! The paper simulates communities on MNIST by giving each of 100 clients
//! samples of a single digit class; a community is the set of clients holding
//! the same class. Since MNIST itself is not shipped here, we generate ten
//! visually distinct 28×28 "digit prototypes" (fixed random images) and draw
//! samples as `clamp(prototype + gaussian noise)` — preserving exactly what
//! the experiment needs: ten separable classes and strongly non-iid clients.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Flattened image dimensionality (28 × 28).
pub const IMAGE_DIM: usize = 28 * 28;

/// Number of digit classes.
pub const NUM_CLASSES: usize = 10;

/// Configuration of the synthetic image generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImageGenConfig {
    /// Samples generated per class.
    pub samples_per_class: usize,
    /// Standard deviation of the per-pixel Gaussian noise.
    pub noise_std: f32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for ImageGenConfig {
    fn default() -> Self {
        ImageGenConfig { samples_per_class: 60, noise_std: 0.35, seed: 0 }
    }
}

/// A labelled image dataset stored as flat `f32` pixels in `[0, 1]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImageDataset {
    pixels: Vec<f32>,
    labels: Vec<u8>,
}

impl ImageDataset {
    /// Generates the dataset described by `cfg`.
    pub fn generate(cfg: &ImageGenConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Fixed random prototypes: coarse 4x4 blocks give them MNIST-like
        // low-frequency structure so a small MLP separates them but single
        // pixels do not.
        let mut prototypes = vec![0.0f32; NUM_CLASSES * IMAGE_DIM];
        for c in 0..NUM_CLASSES {
            let mut blocks = [0.0f32; 49]; // 7x7 blocks of 4x4 pixels
            for b in &mut blocks {
                *b = rng.gen::<f32>();
            }
            for y in 0..28 {
                for x in 0..28 {
                    prototypes[c * IMAGE_DIM + y * 28 + x] = blocks[(y / 4) * 7 + x / 4];
                }
            }
        }

        let n = cfg.samples_per_class * NUM_CLASSES;
        let mut pixels = Vec::with_capacity(n * IMAGE_DIM);
        let mut labels = Vec::with_capacity(n);
        for c in 0..NUM_CLASSES {
            for _ in 0..cfg.samples_per_class {
                for p in 0..IMAGE_DIM {
                    let noise = gaussian(&mut rng) * cfg.noise_std;
                    pixels.push((prototypes[c * IMAGE_DIM + p] + noise).clamp(0.0, 1.0));
                }
                // cia-lint: allow(D05, MNIST class labels are 0..=9)
                labels.push(c as u8);
            }
        }
        ImageDataset { pixels, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Pixels of sample `i` (length [`IMAGE_DIM`]).
    pub fn image(&self, i: usize) -> &[f32] {
        &self.pixels[i * IMAGE_DIM..(i + 1) * IMAGE_DIM]
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> u8 {
        self.labels[i]
    }

    /// Indices of all samples of `class`.
    pub fn indices_of_class(&self, class: u8) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.labels[i] == class).collect()
    }

    /// Splits samples across `clients_per_class * NUM_CLASSES` clients, each
    /// client holding samples of exactly one class (the paper's strongly
    /// non-iid partition: 100 clients, one class each).
    pub fn one_class_partition(&self, clients_per_class: usize) -> Vec<Vec<usize>> {
        let mut clients = vec![Vec::new(); clients_per_class * NUM_CLASSES];
        // cia-lint: allow(D05, NUM_CLASSES is 10; class ids fit u8)
        for c in 0..NUM_CLASSES as u8 {
            let idx = self.indices_of_class(c);
            for (pos, &sample) in idx.iter().enumerate() {
                let client = c as usize * clients_per_class + (pos % clients_per_class);
                clients[client].push(sample);
            }
        }
        clients
    }
}

/// One draw from the standard normal distribution (Box–Muller on top of
/// `rand`, so no distributions crate is needed).
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen::<f32>().max(f32::MIN_POSITIVE);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ImageDataset {
        ImageDataset::generate(&ImageGenConfig { samples_per_class: 10, noise_std: 0.2, seed: 4 })
    }

    #[test]
    fn generates_requested_counts() {
        let d = small();
        assert_eq!(d.len(), 100);
        // cia-lint: allow(D05, NUM_CLASSES is 10; class ids fit u8)
        for c in 0..NUM_CLASSES as u8 {
            assert_eq!(d.indices_of_class(c).len(), 10);
        }
    }

    #[test]
    fn pixels_in_unit_interval() {
        let d = small();
        for i in 0..d.len() {
            for &p in d.image(i) {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn same_class_closer_than_cross_class() {
        let d = small();
        let dist =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let a0 = d.indices_of_class(0);
        let a1 = d.indices_of_class(1);
        let same = dist(d.image(a0[0]), d.image(a0[1]));
        let cross = dist(d.image(a0[0]), d.image(a1[0]));
        assert!(same < cross, "same {same} !< cross {cross}");
    }

    #[test]
    fn one_class_partition_is_pure_and_covers_all() {
        let d = small();
        let clients = d.one_class_partition(10); // 100 clients
        assert_eq!(clients.len(), 100);
        let mut seen = 0;
        for (cid, samples) in clients.iter().enumerate() {
            assert!(!samples.is_empty(), "client {cid} empty");
            let class = d.label(samples[0]);
            assert!(samples.iter().all(|&s| d.label(s) == class));
            assert_eq!(class as usize, cid / 10, "client {cid} holds wrong class");
            seen += samples.len();
        }
        assert_eq!(seen, d.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.image(3), b.image(3));
        assert_eq!(a.label(7), b.label(7));
    }
}
