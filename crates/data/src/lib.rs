//! Datasets and synthetic workload generators for the Community Inference
//! Attack (CIA) reproduction.
//!
//! The paper evaluates CIA on three implicit-feedback datasets (MovieLens-100k,
//! Foursquare-NYC, Gowalla-NYC). Those datasets are not redistributable here,
//! so this crate provides *community-structured synthetic generators* whose
//! presets match the user counts and per-user interaction densities of the
//! paper's Table I (see [`presets`]). Planted communities of interest give the
//! attack a measurable signal, and the ground truth is computed exactly as in
//! the paper (Jaccard top-K, Eq. 5 — see [`GroundTruth`]).
//!
//! # Example
//!
//! ```
//! use cia_data::{SyntheticConfig, presets};
//!
//! // A small community-structured dataset.
//! let data = SyntheticConfig::builder()
//!     .users(60)
//!     .items(200)
//!     .communities(6)
//!     .interactions_per_user(15)
//!     .seed(7)
//!     .build()
//!     .generate();
//! assert_eq!(data.num_users(), 60);
//!
//! // The paper's MovieLens-100k shape, scaled down for a quick run.
//! let ml = presets::movielens_like(presets::Scale::Smoke, 42);
//! assert!(ml.num_users() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod categories;
mod error;
mod ids;
mod images;
mod interactions;
mod jaccard;
mod noise;
pub mod parallel;
pub mod presets;
mod split;
mod synthetic;
mod zipf;

pub use categories::{
    CategoryMap, CATEGORY_NAMES, HEALTH_CATEGORY, HEALTH_COMMUNITY_FRACTION, HEALTH_COMMUNITY_SIZE,
    HEALTH_ITEM_FRACTION,
};
pub use error::DataError;
pub use ids::UserId;
pub use images::{ImageDataset, ImageGenConfig, IMAGE_DIM, NUM_CLASSES};
pub use interactions::{Dataset, DatasetStats, UserRecord};
pub use jaccard::{jaccard_index, top_k_similar, GroundTruth};
pub use noise::{add_gaussian_noise, gaussian};
pub use split::{sample_negatives, EvalInstance, LeaveOneOut};
pub use synthetic::{SyntheticConfig, SyntheticConfigBuilder};
pub use zipf::Zipf;
