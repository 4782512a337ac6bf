//! CART decision trees with Gini impurity.

use rand::seq::SliceRandom;
use rand::Rng;

use shahin_tabular::{Column, Dataset, Feature};

use crate::classifier::Classifier;

/// Decision tree hyperparameters.
#[derive(Clone, Debug)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of attributes considered per split; `0` means all.
    /// Random Forests pass `⌊√m⌋`.
    pub max_features: usize,
    /// Cap on candidate thresholds per numeric attribute (quantile-spaced).
    pub max_numeric_candidates: usize,
    /// Cap on candidate codes per categorical attribute (most frequent in
    /// the node first).
    pub max_categorical_candidates: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 4,
            max_features: 0,
            max_numeric_candidates: 16,
            max_categorical_candidates: 32,
        }
    }
}

/// Arena-allocated tree node.
#[derive(Clone, Debug)]
enum Node {
    Leaf {
        proba: f64,
    },
    /// `value < threshold` goes left.
    SplitNum {
        attr: u32,
        threshold: f64,
        left: u32,
        right: u32,
    },
    /// `value == code` goes left.
    SplitCat {
        attr: u32,
        code: u32,
        left: u32,
        right: u32,
    },
}

/// A trained CART binary classifier.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

/// Gini impurity of a binary split, weighted by side sizes; lower is
/// better. `(pos, n)` per side.
fn weighted_gini(pos_l: f64, n_l: f64, pos_r: f64, n_r: f64) -> f64 {
    let gini = |pos: f64, n: f64| {
        if n == 0.0 {
            0.0
        } else {
            let p = pos / n;
            2.0 * p * (1.0 - p)
        }
    };
    let n = n_l + n_r;
    (n_l / n) * gini(pos_l, n_l) + (n_r / n) * gini(pos_r, n_r)
}

struct Builder<'a> {
    data: &'a Dataset,
    labels: &'a [u8],
    params: &'a TreeParams,
    nodes: Vec<Node>,
}

impl Builder<'_> {
    fn leaf(&mut self, rows: &[u32]) -> u32 {
        let pos: u32 = rows
            .iter()
            .map(|&r| u32::from(self.labels[r as usize]))
            .sum();
        let proba = pos as f64 / rows.len() as f64;
        self.nodes.push(Node::Leaf { proba });
        (self.nodes.len() - 1) as u32
    }

    fn build(&mut self, rows: &mut Vec<u32>, depth: usize, rng: &mut impl Rng) -> u32 {
        let pos: usize = rows
            .iter()
            .map(|&r| usize::from(self.labels[r as usize]))
            .sum();
        if depth >= self.params.max_depth
            || rows.len() < self.params.min_samples_split
            || pos == 0
            || pos == rows.len()
        {
            return self.leaf(rows);
        }

        // Attribute subset for this split.
        let m = self.data.n_attrs();
        let k = if self.params.max_features == 0 {
            m
        } else {
            self.params.max_features.min(m)
        };
        let mut attrs: Vec<usize> = (0..m).collect();
        if k < m {
            attrs.shuffle(rng);
            attrs.truncate(k);
        }

        let mut best: Option<(f64, Split)> = None;
        for &attr in &attrs {
            if let Some((score, split)) = self.best_split_on(attr, rows) {
                if best.as_ref().is_none_or(|(b, _)| score < *b) {
                    best = Some((score, split));
                }
            }
        }
        let Some((score, split)) = best else {
            return self.leaf(rows);
        };
        // No gain over the unsplit node: stop.
        let parent_gini = weighted_gini(pos as f64, rows.len() as f64, 0.0, 0.0);
        if score >= parent_gini - 1e-12 {
            return self.leaf(rows);
        }

        let (mut left_rows, mut right_rows): (Vec<u32>, Vec<u32>) = match split {
            Split::Num { attr, threshold } => {
                let Column::Num(col) = self.data.column(attr as usize) else {
                    unreachable!()
                };
                rows.iter().partition(|&&r| col[r as usize] < threshold)
            }
            Split::Cat { attr, code } => {
                let Column::Cat(col) = self.data.column(attr as usize) else {
                    unreachable!()
                };
                rows.iter().partition(|&&r| col[r as usize] == code)
            }
        };
        if left_rows.is_empty() || right_rows.is_empty() {
            return self.leaf(rows);
        }
        rows.clear();
        rows.shrink_to_fit();

        // Reserve this node's slot before recursing so children follow it.
        self.nodes.push(Node::Leaf { proba: 0.0 });
        let idx = (self.nodes.len() - 1) as u32;
        let left = self.build(&mut left_rows, depth + 1, rng);
        let right = self.build(&mut right_rows, depth + 1, rng);
        self.nodes[idx as usize] = match split {
            Split::Num { attr, threshold } => Node::SplitNum {
                attr,
                threshold,
                left,
                right,
            },
            Split::Cat { attr, code } => Node::SplitCat {
                attr,
                code,
                left,
                right,
            },
        };
        idx
    }

    /// Best (lowest weighted Gini) split on one attribute over `rows`.
    fn best_split_on(&self, attr: usize, rows: &[u32]) -> Option<(f64, Split)> {
        match self.data.column(attr) {
            Column::Num(col) => {
                let mut vals: Vec<(f64, u8)> = rows
                    .iter()
                    .map(|&r| (col[r as usize], self.labels[r as usize]))
                    .collect();
                vals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature"));
                let total_pos: f64 = vals.iter().map(|&(_, l)| f64::from(l)).sum();
                let n = vals.len() as f64;
                // Candidate cut positions at quantile-spaced boundaries
                // between distinct values.
                let cap = self.params.max_numeric_candidates.max(1);
                let step = (vals.len() / (cap + 1)).max(1);
                let mut best: Option<(f64, Split)> = None;
                let mut pos_l = 0.0;
                let mut n_l = 0.0;
                let mut next_check = step;
                for i in 0..vals.len() - 1 {
                    pos_l += f64::from(vals[i].1);
                    n_l += 1.0;
                    if i + 1 < next_check {
                        continue;
                    }
                    next_check += step;
                    if vals[i].0 == vals[i + 1].0 {
                        continue; // not a valid cut
                    }
                    let score = weighted_gini(pos_l, n_l, total_pos - pos_l, n - n_l);
                    if best.as_ref().is_none_or(|(b, _)| score < *b) {
                        let threshold = 0.5 * (vals[i].0 + vals[i + 1].0);
                        best = Some((
                            score,
                            Split::Num {
                                attr: attr as u32,
                                threshold,
                            },
                        ));
                    }
                }
                best
            }
            Column::Cat(col) => {
                // Count (n, pos) per code present in the node.
                let mut counts: Vec<(u32, f64, f64)> = Vec::new(); // (code, n, pos)
                for &r in rows {
                    let code = col[r as usize];
                    match counts.iter_mut().find(|c| c.0 == code) {
                        Some(c) => {
                            c.1 += 1.0;
                            c.2 += f64::from(self.labels[r as usize]);
                        }
                        None => counts.push((code, 1.0, f64::from(self.labels[r as usize]))),
                    }
                }
                if counts.len() < 2 {
                    return None;
                }
                counts.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite counts"));
                counts.truncate(self.params.max_categorical_candidates.max(1));
                let n: f64 = rows.len() as f64;
                let total_pos: f64 = rows
                    .iter()
                    .map(|&r| f64::from(self.labels[r as usize]))
                    .sum();
                counts
                    .iter()
                    .map(|&(code, n_l, pos_l)| {
                        let score = weighted_gini(pos_l, n_l, total_pos - pos_l, n - n_l);
                        (
                            score,
                            Split::Cat {
                                attr: attr as u32,
                                code,
                            },
                        )
                    })
                    .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"))
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Split {
    Num { attr: u32, threshold: f64 },
    Cat { attr: u32, code: u32 },
}

impl DecisionTree {
    /// Trains a tree on the full dataset.
    pub fn fit(
        data: &Dataset,
        labels: &[u8],
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> DecisionTree {
        let rows: Vec<u32> = (0..data.n_rows() as u32).collect();
        DecisionTree::fit_on_rows(data, labels, rows, params, rng)
    }

    /// Trains a tree on a row subset (used by the forest's bootstrap).
    pub fn fit_on_rows(
        data: &Dataset,
        labels: &[u8],
        mut rows: Vec<u32>,
        params: &TreeParams,
        rng: &mut impl Rng,
    ) -> DecisionTree {
        assert_eq!(data.n_rows(), labels.len(), "label count mismatch");
        assert!(!rows.is_empty(), "cannot train on zero rows");
        let mut builder = Builder {
            data,
            labels,
            params,
            nodes: Vec::new(),
        };
        builder.build(&mut rows, 0, rng);
        DecisionTree {
            nodes: builder.nodes,
        }
    }

    /// Number of nodes (for size diagnostics).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], idx: u32) -> usize {
            match nodes[idx as usize] {
                Node::Leaf { .. } => 1,
                Node::SplitNum { left, right, .. } | Node::SplitCat { left, right, .. } => {
                    1 + depth_of(nodes, left).max(depth_of(nodes, right))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }
}

impl Classifier for DecisionTree {
    fn predict_proba(&self, instance: &[Feature]) -> f64 {
        let mut idx = 0u32;
        loop {
            match self.nodes[idx as usize] {
                Node::Leaf { proba } => return proba,
                Node::SplitNum {
                    attr,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if instance[attr as usize].num() < threshold {
                        left
                    } else {
                        right
                    };
                }
                Node::SplitCat {
                    attr,
                    code,
                    left,
                    right,
                } => {
                    idx = if instance[attr as usize].cat() == code {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_tabular::{Attribute, Schema};
    use std::sync::Arc;

    fn numeric_xor_like() -> (Dataset, Vec<u8>) {
        // label = x > 0.5
        let schema = Arc::new(Schema::new(vec![Attribute::numeric("x")]));
        let values: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let labels: Vec<u8> = values.iter().map(|&v| u8::from(v > 0.5)).collect();
        (Dataset::new(schema, vec![Column::Num(values)]), labels)
    }

    fn categorical_concept() -> (Dataset, Vec<u8>) {
        // label = (c == 2)
        let schema = Arc::new(Schema::new(vec![Attribute::categorical("c", 4)]));
        let codes: Vec<u32> = (0..200).map(|i| (i % 4) as u32).collect();
        let labels: Vec<u8> = codes.iter().map(|&c| u8::from(c == 2)).collect();
        (Dataset::new(schema, vec![Column::Cat(codes)]), labels)
    }

    #[test]
    fn learns_numeric_threshold() {
        let (d, l) = numeric_xor_like();
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::fit(&d, &l, &TreeParams::default(), &mut rng);
        for (i, v) in [(0, 0.1), (1, 0.9), (0, 0.4), (1, 0.6)] {
            assert_eq!(t.predict(&[Feature::Num(v)]), i, "value {v}");
        }
    }

    #[test]
    fn learns_categorical_equality() {
        let (d, l) = categorical_concept();
        let mut rng = StdRng::seed_from_u64(1);
        let t = DecisionTree::fit(&d, &l, &TreeParams::default(), &mut rng);
        for c in 0..4u32 {
            assert_eq!(t.predict(&[Feature::Cat(c)]), u8::from(c == 2), "code {c}");
        }
    }

    #[test]
    fn learns_two_attribute_and_concept() {
        // label = (c == 1) AND (x > 0.5)
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("c", 3),
            Attribute::numeric("x"),
        ]));
        let mut rng = StdRng::seed_from_u64(2);
        let codes: Vec<u32> = (0..600).map(|_| rng.gen_range(0..3)).collect();
        let values: Vec<f64> = (0..600).map(|_| rng.gen::<f64>()).collect();
        let labels: Vec<u8> = codes
            .iter()
            .zip(&values)
            .map(|(&c, &v)| u8::from(c == 1 && v > 0.5))
            .collect();
        let d = Dataset::new(schema, vec![Column::Cat(codes), Column::Num(values)]);
        let t = DecisionTree::fit(&d, &labels, &TreeParams::default(), &mut rng);
        assert_eq!(t.predict(&[Feature::Cat(1), Feature::Num(0.9)]), 1);
        assert_eq!(t.predict(&[Feature::Cat(1), Feature::Num(0.1)]), 0);
        assert_eq!(t.predict(&[Feature::Cat(0), Feature::Num(0.9)]), 0);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let (d, _) = numeric_xor_like();
        let l = vec![1u8; d.n_rows()];
        let mut rng = StdRng::seed_from_u64(3);
        let t = DecisionTree::fit(&d, &l, &TreeParams::default(), &mut rng);
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_proba(&[Feature::Num(0.3)]), 1.0);
    }

    #[test]
    fn max_depth_limits_tree() {
        let (d, l) = numeric_xor_like();
        let mut rng = StdRng::seed_from_u64(4);
        let params = TreeParams {
            max_depth: 2,
            ..Default::default()
        };
        let t = DecisionTree::fit(&d, &l, &params, &mut rng);
        assert!(t.depth() <= 3, "depth {}", t.depth());
    }

    #[test]
    fn deterministic_under_seed() {
        let (d, l) = categorical_concept();
        let t1 = DecisionTree::fit(
            &d,
            &l,
            &TreeParams::default(),
            &mut StdRng::seed_from_u64(7),
        );
        let t2 = DecisionTree::fit(
            &d,
            &l,
            &TreeParams::default(),
            &mut StdRng::seed_from_u64(7),
        );
        for c in 0..4u32 {
            assert_eq!(
                t1.predict_proba(&[Feature::Cat(c)]),
                t2.predict_proba(&[Feature::Cat(c)])
            );
        }
    }

    #[test]
    fn gini_prefers_clean_split() {
        let dirty = weighted_gini(5.0, 10.0, 5.0, 10.0);
        let clean = weighted_gini(10.0, 10.0, 0.0, 10.0);
        assert!(clean < dirty);
        assert_eq!(clean, 0.0);
    }
}
