//! Flat storage for labeled training tuples.

/// A labeled dataset with fixed-width feature rows.
///
/// Labels follow the paper's convention: `true` ⇔ label 1 ⇔ `dis > τ`
/// (the candidate is prunable); `false` ⇔ label 0 ⇔ `dis ≤ τ`.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    n_features: usize,
    xs: Vec<f32>,
    ys: Vec<bool>,
}

impl Dataset {
    /// Empty dataset with `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        assert!(n_features > 0, "need at least one feature");
        Self {
            n_features,
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Number of feature columns.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// True when no samples have been added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Appends one sample.
    ///
    /// # Panics
    /// Panics when `features.len() != n_features`.
    pub fn push(&mut self, features: &[f32], label: bool) {
        assert_eq!(features.len(), self.n_features);
        self.xs.extend_from_slice(features);
        self.ys.push(label);
    }

    /// Borrow the feature row of sample `i`.
    #[inline]
    pub fn features(&self, i: usize) -> &[f32] {
        &self.xs[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Label of sample `i`.
    #[inline]
    pub fn label(&self, i: usize) -> bool {
        self.ys[i]
    }

    /// Count of positive (label-1) samples.
    pub fn positives(&self) -> usize {
        self.ys.iter().filter(|&&y| y).count()
    }

    /// Iterator over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f32], bool)> {
        self.xs
            .chunks_exact(self.n_features)
            .zip(self.ys.iter().copied())
    }

    /// Splits off the last `fraction` of samples (insertion order) into a
    /// held-out set — used to calibrate on data the model was not fit on.
    pub fn split_holdout(&self, fraction: f32) -> (Dataset, Dataset) {
        let hold = ((self.len() as f32 * fraction).round() as usize).min(self.len());
        let cut = self.len() - hold;
        let mut train = Dataset::new(self.n_features);
        let mut held = Dataset::new(self.n_features);
        for (i, (f, y)) in self.iter().enumerate() {
            if i < cut {
                train.push(f, y);
            } else {
                held.push(f, y);
            }
        }
        (train, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 2.0], true);
        d.push(&[3.0, 4.0], false);
        d.push(&[5.0, 6.0], true);
        d
    }

    #[test]
    fn push_and_access() {
        let d = sample();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.features(1), &[3.0, 4.0]);
        assert!(!d.label(1));
        assert_eq!(d.positives(), 2);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn push_wrong_width_panics() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], true);
    }

    #[test]
    fn iter_matches_accessors() {
        let d = sample();
        let collected: Vec<(Vec<f32>, bool)> = d.iter().map(|(f, y)| (f.to_vec(), y)).collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2].0, vec![5.0, 6.0]);
        assert!(collected[2].1);
    }

    #[test]
    fn holdout_split_partitions() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push(&[i as f32], i % 2 == 0);
        }
        let (train, held) = d.split_holdout(0.3);
        assert_eq!(train.len(), 7);
        assert_eq!(held.len(), 3);
        assert_eq!(held.features(0), &[7.0]);
    }

    #[test]
    fn holdout_extremes() {
        let d = sample();
        let (t, h) = d.split_holdout(0.0);
        assert_eq!((t.len(), h.len()), (3, 0));
        let (t, h) = d.split_holdout(1.0);
        assert_eq!((t.len(), h.len()), (0, 3));
    }
}
