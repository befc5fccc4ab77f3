//! Container images.
//!
//! A minimal layered-image model: enough for the engine to account pull
//! and extraction work in the boot pipeline, and for tests to exercise
//! cache-hit vs cache-miss start-up behaviour.

use std::collections::HashMap;

/// One image layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Content digest (opaque).
    pub digest: String,
    /// Compressed size in MiB.
    pub size_mib: u64,
}

/// A container image: name, tag and layer stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Repository name (e.g. "memcached").
    pub name: String,
    /// Tag (e.g. "1.5").
    pub tag: String,
    /// Layers, base first.
    pub layers: Vec<Layer>,
}

impl Image {
    /// Builds an image with synthetic layer digests.
    pub fn new(name: impl Into<String>, tag: impl Into<String>, layer_sizes_mib: &[u64]) -> Image {
        let name = name.into();
        let tag = tag.into();
        let layers = layer_sizes_mib
            .iter()
            .enumerate()
            .map(|(i, &size_mib)| Layer {
                digest: format!("sha256:{name}-{tag}-{i}"),
                size_mib,
            })
            .collect();
        Image { name, tag, layers }
    }

    /// Full reference, `name:tag`.
    pub fn reference(&self) -> String {
        format!("{}:{}", self.name, self.tag)
    }
}

/// The node-local image store (what `docker pull` fills).
#[derive(Debug, Default)]
pub struct ImageStore {
    images: HashMap<String, Image>,
    cached_layers: HashMap<String, u64>,
}

impl ImageStore {
    /// Creates an empty store.
    pub fn new() -> ImageStore {
        ImageStore::default()
    }

    /// Pulls an image: layers already cached are skipped. Returns the number
    /// of MiB actually transferred.
    pub fn pull(&mut self, image: &Image) -> u64 {
        let mut transferred = 0;
        for layer in &image.layers {
            if !self.cached_layers.contains_key(&layer.digest) {
                self.cached_layers
                    .insert(layer.digest.clone(), layer.size_mib);
                transferred += layer.size_mib;
            }
        }
        self.images.insert(image.reference(), image.clone());
        transferred
    }

    /// True when the image is fully present.
    pub fn has(&self, reference: &str) -> bool {
        self.images.contains_key(reference)
    }

    /// Looks up an image.
    pub fn get(&self, reference: &str) -> Option<&Image> {
        self.images.get(reference)
    }

    /// Number of distinct cached layers.
    pub fn cached_layer_count(&self) -> usize {
        self.cached_layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_transfers_then_caches() {
        let mut store = ImageStore::new();
        let img = Image::new("memcached", "1.5", &[50, 10, 2]);
        assert_eq!(store.pull(&img), 62);
        assert!(store.has("memcached:1.5"));
        // Re-pull is free.
        assert_eq!(store.pull(&img), 0);
    }

    #[test]
    fn shared_layers_are_deduplicated() {
        let mut store = ImageStore::new();
        // Same name/tag prefix scheme gives distinct digests, so craft
        // explicit sharing: same base layer object.
        let base = Layer {
            digest: "sha256:base".into(),
            size_mib: 100,
        };
        let a = Image {
            name: "a".into(),
            tag: "1".into(),
            layers: vec![
                base.clone(),
                Layer {
                    digest: "sha256:a1".into(),
                    size_mib: 5,
                },
            ],
        };
        let b = Image {
            name: "b".into(),
            tag: "1".into(),
            layers: vec![
                base,
                Layer {
                    digest: "sha256:b1".into(),
                    size_mib: 7,
                },
            ],
        };
        assert_eq!(store.pull(&a), 105);
        assert_eq!(store.pull(&b), 7, "base layer already cached");
        assert_eq!(store.cached_layer_count(), 3);
    }

    #[test]
    fn reference_and_size() {
        let img = Image::new("nginx", "1.15", &[20, 5]);
        assert_eq!(img.reference(), "nginx:1.15");
        assert!(ImageStore::new().get("nginx:1.15").is_none());
    }
}
