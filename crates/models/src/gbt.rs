//! Gradient-boosted regression trees in the XGBoost formulation — the
//! paper's "XGBoost" baseline, built from scratch.
//!
//! Second-order boosting with squared loss (`g = ŷ − y`, `h = 1`), exact
//! greedy splits over pre-sorted features, L2 leaf regularisation `λ`,
//! minimum split gain `γ`, shrinkage, and row/column subsampling.

use std::time::Instant;

use tensor::{Rng, Tensor};
use timeseries::WindowedDataset;

use crate::forecaster::{FitReport, Forecaster};

/// Boosting hyper-parameters (defaults follow common XGBoost practice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtConfig {
    pub n_rounds: usize,
    pub max_depth: usize,
    pub learning_rate: f32,
    /// L2 regularisation on leaf weights.
    pub lambda: f64,
    /// Minimum gain required to split.
    pub gamma: f64,
    /// Minimum hessian sum per child (with h = 1 this is a row count).
    pub min_child_weight: f64,
    /// Row subsampling per round.
    pub subsample: f64,
    /// Feature subsampling per tree.
    pub colsample: f64,
    /// Stop when validation loss fails to improve this many rounds.
    pub early_stopping_rounds: Option<usize>,
    pub seed: u64,
}

impl Default for GbtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 120,
            max_depth: 4,
            learning_rate: 0.1,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 0.8,
            colsample: 0.8,
            early_stopping_rounds: Some(10),
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f32,
    },
}

/// One regression tree in the ensemble.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict_row(&self, row: &[f32]) -> f32 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

struct SplitCandidate {
    gain: f64,
    feature: usize,
    threshold: f32,
}

/// Trainer state shared across one tree build.
struct TreeBuilder<'a> {
    features: &'a [f32],
    num_features: usize,
    sorted_idx: &'a [Vec<u32>],
    grad: &'a [f64],
    cfg: &'a GbtConfig,
    active_features: Vec<usize>,
}

impl TreeBuilder<'_> {
    fn feature_value(&self, row: usize, feature: usize) -> f32 {
        self.features[row * self.num_features + feature]
    }

    /// Best split of the rows flagged in `in_node`, or `None` if nothing
    /// clears `gamma` / `min_child_weight`.
    fn best_split(&self, in_node: &[bool], g_total: f64, h_total: f64) -> Option<SplitCandidate> {
        let parent_score = g_total * g_total / (h_total + self.cfg.lambda);
        let best = self
            .active_features
            .iter()
            .filter_map(|&f| {
                let mut gl = 0.0f64;
                let mut hl = 0.0f64;
                let mut best: Option<SplitCandidate> = None;
                let order = &self.sorted_idx[f];
                let mut prev_value: Option<f32> = None;
                for &ri in order {
                    let r = ri as usize;
                    if !in_node[r] {
                        continue;
                    }
                    let v = self.feature_value(r, f);
                    // A split boundary exists between two distinct values.
                    if let Some(pv) = prev_value {
                        if v > pv
                            && hl >= self.cfg.min_child_weight
                            && (h_total - hl) >= self.cfg.min_child_weight
                        {
                            let gr = g_total - gl;
                            let hr = h_total - hl;
                            let gain = 0.5
                                * (gl * gl / (hl + self.cfg.lambda)
                                    + gr * gr / (hr + self.cfg.lambda)
                                    - parent_score)
                                - self.cfg.gamma;
                            if gain > 0.0 && best.as_ref().is_none_or(|b| gain > b.gain) {
                                best = Some(SplitCandidate {
                                    gain,
                                    feature: f,
                                    threshold: 0.5 * (pv + v),
                                });
                            }
                        }
                    }
                    gl += self.grad[r];
                    hl += 1.0;
                    prev_value = Some(v);
                }
                best
            })
            .reduce(|a, b| if a.gain >= b.gain { a } else { b });
        best
    }

    fn build(
        &self,
        nodes: &mut Vec<Node>,
        in_node: Vec<bool>,
        count: usize,
        depth: usize,
    ) -> usize {
        let (g, h): (f64, f64) = in_node
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(r, _)| (self.grad[r], 1.0))
            .fold((0.0, 0.0), |(ag, ah), (bg, bh)| (ag + bg, ah + bh));

        let leaf_value = (-g / (h + self.cfg.lambda)) as f32;
        if depth >= self.cfg.max_depth || count < 2 {
            nodes.push(Node::Leaf { value: leaf_value });
            return nodes.len() - 1;
        }
        let Some(split) = self.best_split(&in_node, g, h) else {
            nodes.push(Node::Leaf { value: leaf_value });
            return nodes.len() - 1;
        };

        let mut left_mask = vec![false; in_node.len()];
        let mut right_mask = vec![false; in_node.len()];
        let mut left_count = 0usize;
        let mut right_count = 0usize;
        for (r, &m) in in_node.iter().enumerate() {
            if !m {
                continue;
            }
            if self.feature_value(r, split.feature) <= split.threshold {
                left_mask[r] = true;
                left_count += 1;
            } else {
                right_mask[r] = true;
                right_count += 1;
            }
        }
        debug_assert!(left_count > 0 && right_count > 0);
        // Reserve this node's slot, then recurse.
        nodes.push(Node::Leaf { value: 0.0 });
        let slot = nodes.len() - 1;
        let left = self.build(nodes, left_mask, left_count, depth + 1);
        let right = self.build(nodes, right_mask, right_count, depth + 1);
        nodes[slot] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
        slot
    }
}

/// Gradient-boosted tree ensemble regressor on flattened windows. One
/// independent booster is trained per horizon step.
#[derive(Debug, Clone)]
pub struct GbtForecaster {
    config: GbtConfig,
    base_score: Vec<f32>,
    boosters: Vec<Vec<Tree>>,
    horizon: usize,
    flat_features: usize,
}

impl GbtForecaster {
    pub fn new(config: GbtConfig) -> Self {
        Self {
            config,
            base_score: Vec::new(),
            boosters: Vec::new(),
            horizon: 1,
            flat_features: 0,
        }
    }

    fn predict_flat(&self, rows: &[f32], n: usize) -> Vec<f32> {
        let f = self.flat_features;
        let mut out = vec![0.0f32; n * self.horizon];
        for i in 0..n {
            let row = &rows[i * f..(i + 1) * f];
            for h in 0..self.horizon {
                let mut pred = self.base_score[h];
                for tree in &self.boosters[h] {
                    pred += self.config.learning_rate * tree.predict_row(row);
                }
                out[i * self.horizon + h] = pred;
            }
        }
        out
    }
}

/// Flatten `[n, window, f]` into `[n, window·f]` rows.
fn flatten_windows(x: &Tensor) -> (Vec<f32>, usize, usize) {
    let (n, window, f) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    (x.as_slice().to_vec(), n, window * f)
}

impl Forecaster for GbtForecaster {
    fn name(&self) -> &str {
        "XGBoost"
    }

    fn fit(&mut self, train: &WindowedDataset, valid: Option<&WindowedDataset>) -> FitReport {
        let start = Instant::now();
        let (rows, n, flat) = flatten_windows(&train.x);
        self.horizon = train.horizon;
        self.flat_features = flat;
        self.base_score = (0..self.horizon)
            .map(|h| {
                let col: Vec<f32> = (0..n).map(|i| train.y.at(&[i, h])).collect();
                tensor::stats::mean(&col) as f32
            })
            .collect();
        self.boosters = vec![Vec::new(); self.horizon];

        // Pre-sort each feature once; reused by every node of every tree.
        let sorted_idx: Vec<Vec<u32>> = (0..flat)
            .map(|f| {
                let mut idx: Vec<u32> = (0..n as u32).collect();
                // `total_cmp` orders NaN features last instead of
                // panicking on pathological inputs.
                idx.sort_by(|&a, &b| {
                    rows[a as usize * flat + f].total_cmp(&rows[b as usize * flat + f])
                });
                idx
            })
            .collect();

        let mut rng = Rng::seed_from(self.config.seed);
        let mut train_loss = Vec::new();
        let mut valid_loss = Vec::new();
        let mut stopped_early = false;

        // Current margin per (row, horizon).
        let mut margins: Vec<Vec<f32>> = (0..self.horizon)
            .map(|h| vec![self.base_score[h]; n])
            .collect();

        let valid_flat = valid.map(|v| flatten_windows(&v.x));
        let mut best_valid = f64::INFINITY;
        let mut rounds_since_best = 0usize;

        #[allow(clippy::needless_range_loop)] // h indexes several parallel structures
        for _round in 0..self.config.n_rounds {
            let mut round_sse = 0.0f64;
            for h in 0..self.horizon {
                // Squared loss: g = pred - y, h = 1.
                let grad: Vec<f64> = (0..n)
                    .map(|i| (margins[h][i] - train.y.at(&[i, h])) as f64)
                    .collect();
                round_sse += grad.iter().map(|g| g * g).sum::<f64>();

                // Row and feature subsampling.
                let mut in_node = vec![false; n];
                let mut count = 0usize;
                for flag in in_node.iter_mut() {
                    if rng.chance(self.config.subsample) {
                        *flag = true;
                        count += 1;
                    }
                }
                if count < 2 {
                    in_node.iter_mut().for_each(|f| *f = true);
                    count = n;
                }
                let mut active_features: Vec<usize> = (0..flat)
                    .filter(|_| rng.chance(self.config.colsample))
                    .collect();
                if active_features.is_empty() {
                    active_features = (0..flat).collect();
                }

                let builder = TreeBuilder {
                    features: &rows,
                    num_features: flat,
                    sorted_idx: &sorted_idx,
                    grad: &grad,
                    cfg: &self.config,
                    active_features,
                };
                let mut nodes = Vec::new();
                builder.build(&mut nodes, in_node, count, 0);
                let tree = Tree { nodes };

                // Update margins with shrinkage.
                for i in 0..n {
                    margins[h][i] += self.config.learning_rate
                        * tree.predict_row(&rows[i * flat..(i + 1) * flat]);
                }
                self.boosters[h].push(tree);
            }
            train_loss.push(round_sse / (n * self.horizon) as f64);

            if let (Some(v), Some((vrows, vn, _))) = (valid, &valid_flat) {
                let pred = self.predict_flat(vrows, *vn);
                let vl = timeseries::metrics::mse(v.y.as_slice(), &pred);
                valid_loss.push(vl);
                if vl < best_valid - 1e-12 {
                    best_valid = vl;
                    rounds_since_best = 0;
                } else {
                    rounds_since_best += 1;
                    if let Some(limit) = self.config.early_stopping_rounds {
                        if rounds_since_best >= limit {
                            stopped_early = true;
                            break;
                        }
                    }
                }
            }
        }

        FitReport {
            train_loss,
            valid_loss,
            fit_time: start.elapsed(),
            stopped_early,
        }
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        assert!(!self.boosters.is_empty(), "predict before fit");
        let (rows, n, flat) = flatten_windows(x);
        assert_eq!(
            flat, self.flat_features,
            "feature width changed between fit and predict"
        );
        Tensor::from_vec(self.predict_flat(&rows, n), &[n, self.horizon])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{make_windows, TimeSeriesFrame};

    fn step_dataset() -> WindowedDataset {
        // Target is a threshold function of the last window value — trees
        // should nail this.
        let series: Vec<f32> = (0..300)
            .map(|i| if (i / 25) % 2 == 0 { 0.2 } else { 0.8 })
            .collect();
        let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
        make_windows(&frame, "cpu", 6, 1).unwrap()
    }

    #[test]
    fn fits_piecewise_constant_function() {
        let ds = step_dataset();
        let mut gbt = GbtForecaster::new(GbtConfig {
            n_rounds: 40,
            subsample: 1.0,
            colsample: 1.0,
            ..Default::default()
        });
        let report = gbt.fit(&ds, None);
        assert_eq!(report.train_loss.len(), 40);
        // The regime transitions are unpredictable from a 6-step window, so
        // the loss floors at the irreducible transition error (~0.014); the
        // booster must get close to that floor.
        assert!(
            report.final_train_loss() < report.train_loss[0] * 0.2,
            "boosting barely reduced loss: {:?} -> {:?}",
            report.train_loss[0],
            report.final_train_loss()
        );
        let (truth, pred) = gbt.evaluate(&ds);
        assert!(timeseries::metrics::mae(&truth, &pred) < 0.05);
    }

    #[test]
    fn monotone_loss_without_subsampling() {
        let ds = step_dataset();
        let mut gbt = GbtForecaster::new(GbtConfig {
            n_rounds: 20,
            subsample: 1.0,
            colsample: 1.0,
            ..Default::default()
        });
        let report = gbt.fit(&ds, None);
        for w in report.train_loss.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "loss increased: {w:?}");
        }
    }

    #[test]
    fn early_stopping_fires() {
        let ds = step_dataset();
        let (train, valid, _) = timeseries::split_windows(&ds, timeseries::SplitRatios::PAPER);
        let mut gbt = GbtForecaster::new(GbtConfig {
            n_rounds: 500,
            early_stopping_rounds: Some(5),
            ..Default::default()
        });
        let report = gbt.fit(&train, Some(&valid));
        assert!(
            report.stopped_early,
            "expected early stopping on an easy problem"
        );
        assert!(report.valid_loss.len() < 500);
    }

    #[test]
    fn depth_zero_trees_are_stumps_of_the_mean() {
        let ds = step_dataset();
        let mut gbt = GbtForecaster::new(GbtConfig {
            n_rounds: 1,
            max_depth: 0,
            subsample: 1.0,
            colsample: 1.0,
            ..Default::default()
        });
        gbt.fit(&ds, None);
        // Prediction equals the base score (mean) plus a ~zero leaf.
        let pred = gbt.predict(&ds.x);
        let mean = tensor::stats::mean(ds.y.as_slice()) as f32;
        for &p in pred.as_slice() {
            assert!((p - mean).abs() < 0.05);
        }
    }

    #[test]
    fn multivariate_features_are_used() {
        // Target depends only on the second column; the booster must find it.
        let n = 240;
        let helper: Vec<f32> = (0..n).map(|i| ((i * 7) % 13) as f32 / 13.0).collect();
        let noise_col: Vec<f32> = (0..n).map(|i| ((i * 3) % 5) as f32 / 5.0).collect();
        // cpu value = helper shifted by one step.
        let cpu: Vec<f32> = (0..n)
            .map(|i| if i == 0 { 0.0 } else { helper[i - 1] })
            .collect();
        let frame = TimeSeriesFrame::from_columns(&[
            ("cpu", cpu),
            ("helper", helper),
            ("noise", noise_col),
        ])
        .unwrap();
        let ds = make_windows(&frame, "cpu", 4, 1).unwrap();
        let mut gbt = GbtForecaster::new(GbtConfig {
            n_rounds: 60,
            subsample: 1.0,
            colsample: 1.0,
            ..Default::default()
        });
        gbt.fit(&ds, None);
        let (truth, pred) = gbt.evaluate(&ds);
        assert!(
            timeseries::metrics::mse(&truth, &pred) < 0.001,
            "failed to exploit the helper column: mse {}",
            timeseries::metrics::mse(&truth, &pred)
        );
    }

    #[test]
    fn multi_horizon_trains_independent_boosters() {
        let ds = {
            let series: Vec<f32> = (0..200).map(|i| (i % 10) as f32 / 10.0).collect();
            let frame = TimeSeriesFrame::from_columns(&[("cpu", series)]).unwrap();
            make_windows(&frame, "cpu", 5, 3).unwrap()
        };
        let mut gbt = GbtForecaster::new(GbtConfig {
            n_rounds: 30,
            ..Default::default()
        });
        gbt.fit(&ds, None);
        let pred = gbt.predict(&ds.x);
        assert_eq!(pred.shape(), &[ds.len(), 3]);
        let (truth, flat) = gbt.evaluate(&ds);
        assert!(timeseries::metrics::mae(&truth, &flat) < 0.1);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_requires_fit() {
        let gbt = GbtForecaster::new(GbtConfig::default());
        gbt.predict(&Tensor::zeros(&[1, 4, 1]));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = step_dataset();
        let run = || {
            let mut gbt = GbtForecaster::new(GbtConfig {
                n_rounds: 10,
                seed: 5,
                ..Default::default()
            });
            gbt.fit(&ds, None);
            gbt.predict(&ds.x)
        };
        assert_eq!(run(), run());
    }
}
