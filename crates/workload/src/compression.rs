//! Workload compression (§5.1).
//!
//! Workloads are heavily templatized: statements arrive from a small
//! number of stored procedures / prepared statements, differing only in
//! constants. Compression partitions the workload by statement
//! *signature* and keeps a small set of clustered representatives per
//! partition, each carrying the weight of the events it stands for.
//! Tuning the compressed workload is dramatically cheaper and loses
//! almost no recommendation quality.
//!
//! The two strawmen the paper argues against are also provided for the
//! ablation: [`uniform_sample`] (ignores structure entirely) and
//! [`top_k_by_cost`] (can starve whole templates).

use crate::model::{Workload, WorkloadItem};
use dta_sql::signature::parameter_vector;
use dta_sql::Signature;
use std::collections::BTreeMap;

/// Knobs for compression.
#[derive(Debug, Clone, Copy)]
pub struct CompressionOptions {
    /// Partitions at or below this size are kept whole.
    pub keep_whole_below: usize,
    /// Representative count for a partition of size `n` is
    /// `ceil(n.powf(rep_exponent) * rep_scale)`, clamped to `[1, n]`.
    pub rep_exponent: f64,
    pub rep_scale: f64,
}

impl Default for CompressionOptions {
    fn default() -> Self {
        Self { keep_whole_below: 3, rep_exponent: 0.5, rep_scale: 0.5 }
    }
}

impl CompressionOptions {
    fn reps_for(&self, n: usize) -> usize {
        let k = ((n as f64).powf(self.rep_exponent) * self.rep_scale).ceil() as usize;
        k.clamp(1, n)
    }
}

/// What compression did.
#[derive(Debug, Clone)]
pub struct CompressionOutcome {
    /// The compressed workload (weights preserved in total).
    pub compressed: Workload,
    /// Number of distinct signatures found.
    pub partitions: usize,
    /// Items before compression.
    pub before: usize,
}

impl CompressionOutcome {
    /// `before / after` item ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed.is_empty() {
            return 1.0;
        }
        self.before as f64 / self.compressed.len() as f64
    }
}

/// Compress a workload by signature partitioning + clustering.
pub fn compress(workload: &Workload, options: CompressionOptions) -> CompressionOutcome {
    // partition by (database, signature)
    let mut partitions: BTreeMap<(String, Signature), Vec<usize>> = BTreeMap::new();
    for (i, item) in workload.items.iter().enumerate() {
        let sig = dta_sql::signature(&item.statement);
        partitions.entry((item.database.clone(), sig)).or_default().push(i);
    }
    let n_partitions = partitions.len();

    let mut out = Vec::new();
    for (_, members) in partitions {
        if members.len() <= options.keep_whole_below {
            out.extend(members.iter().map(|&i| {
                workload.items.get(i).expect("partition members index the source workload").clone()
            }));
            continue;
        }
        let k = options.reps_for(members.len());
        out.extend(cluster_representatives(workload, &members, k));
    }
    CompressionOutcome {
        compressed: Workload::from_items(out),
        partitions: n_partitions,
        before: workload.len(),
    }
}

/// k-center clustering on normalized parameter vectors; each medoid is
/// returned with the total weight of its cluster.
fn cluster_representatives(workload: &Workload, members: &[usize], k: usize) -> Vec<WorkloadItem> {
    let item_at = |pos: usize| -> &WorkloadItem {
        let &i = members.get(pos).expect("medoid positions index the member list");
        workload.items.get(i).expect("partition members index the source workload")
    };
    let vectors: Vec<Vec<f64>> =
        (0..members.len()).map(|pos| parameter_vector(&item_at(pos).statement)).collect();
    let vec_at =
        |pos: usize| -> &[f64] { vectors.get(pos).expect("medoid positions index the vectors") };
    let dims = vectors.iter().map(Vec::len).max().unwrap_or(0);

    // per-dimension ranges for normalization
    let mut lo = vec![f64::INFINITY; dims];
    let mut hi = vec![f64::NEG_INFINITY; dims];
    for v in &vectors {
        for (d, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            let x = v.get(d).copied().unwrap_or(0.0);
            *l = l.min(x);
            *h = h.max(x);
        }
    }
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        let mut s = 0.0;
        for (d, (l, h)) in lo.iter().zip(hi.iter()).enumerate() {
            let range = (h - l).max(1e-12);
            let x = a.get(d).copied().unwrap_or(0.0);
            let y = b.get(d).copied().unwrap_or(0.0);
            let diff = (x - y) / range;
            s += diff * diff;
        }
        s.sqrt()
    };

    // greedy k-center: seed with the heaviest member
    let seed = (0..members.len())
        .max_by(|&a, &b| item_at(a).weight.total_cmp(&item_at(b).weight))
        .expect("non-empty partition");
    let mut medoids = vec![seed];
    let mut nearest: Vec<f64> = vectors.iter().map(|v| dist(v, vec_at(seed))).collect();
    while medoids.len() < k {
        let (far, far_d) = nearest
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, d)| (i, *d))
            .expect("nearest has one entry per member");
        if far_d <= 0.0 {
            break; // all identical
        }
        medoids.push(far);
        for (n_i, v) in nearest.iter_mut().zip(&vectors) {
            let d = dist(v, vec_at(far));
            if d < *n_i {
                *n_i = d;
            }
        }
    }

    // assign members to the nearest medoid; fold weights
    let mut cluster_weight = vec![0.0f64; medoids.len()];
    for (i, v) in vectors.iter().enumerate() {
        let (best, _) = medoids
            .iter()
            .enumerate()
            .map(|(mi, &m)| (mi, dist(v, vec_at(m))))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .expect("at least one medoid");
        let slot = cluster_weight.get_mut(best).expect("best indexes the medoid list");
        *slot += item_at(i).weight;
    }

    medoids
        .iter()
        .zip(cluster_weight)
        .map(|(&pos, weight)| {
            let mut item = item_at(pos).clone();
            item.weight = weight;
            item
        })
        .collect()
}

/// Strawman 1: uniform random sampling of `fraction` of the items,
/// re-weighted to preserve total event count.
pub fn uniform_sample(workload: &Workload, fraction: f64, seed: u64) -> Workload {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..workload.len()).collect();
    idx.shuffle(&mut rng);
    let keep = ((workload.len() as f64 * fraction).ceil() as usize).clamp(1, workload.len());
    idx.truncate(keep);
    let scale = workload.len() as f64 / keep as f64;
    Workload::from_items(
        idx.into_iter()
            .filter_map(|i| workload.items.get(i))
            .map(|item| {
                let mut item = item.clone();
                item.weight *= scale;
                item
            })
            .collect(),
    )
}

/// Strawman 2: keep the most expensive statements until `cost_fraction`
/// of the total cost is covered. `costs[i]` must align with items.
pub fn top_k_by_cost(workload: &Workload, costs: &[f64], cost_fraction: f64) -> Workload {
    assert_eq!(costs.len(), workload.len());
    let mut weighted: Vec<(f64, &WorkloadItem)> =
        costs.iter().zip(&workload.items).map(|(c, item)| (c * item.weight, item)).collect();
    let total: f64 = weighted.iter().map(|&(cost, _)| cost).sum();
    // stable: equal costs keep workload order
    weighted.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut kept = Vec::new();
    let mut acc = 0.0;
    for (cost, item) in weighted {
        if acc >= total * cost_fraction && !kept.is_empty() {
            break;
        }
        acc += cost;
        kept.push(item.clone());
    }
    Workload::from_items(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dta_sql::parse_statement;

    /// Workload with `t` templates × `per` instances each.
    fn templated(t: usize, per: usize) -> Workload {
        let mut items = Vec::new();
        for template in 0..t {
            for inst in 0..per {
                let sql = format!(
                    "SELECT c{template} FROM t{template} WHERE k{template} < {}",
                    inst * 10
                );
                items.push(WorkloadItem::new("db", parse_statement(&sql).unwrap()));
            }
        }
        Workload::from_items(items)
    }

    #[test]
    fn compression_finds_templates() {
        let w = templated(10, 100);
        let out = compress(&w, CompressionOptions::default());
        assert_eq!(out.partitions, 10);
        assert!(out.compressed.len() < w.len() / 10, "kept {}", out.compressed.len());
        assert!(out.compression_ratio() > 10.0);
        // total weight preserved
        assert!((out.compressed.total_events() - w.total_events()).abs() < 1e-6);
    }

    #[test]
    fn small_partitions_kept_whole() {
        let w = templated(5, 2);
        let out = compress(&w, CompressionOptions::default());
        assert_eq!(out.compressed.len(), w.len());
    }

    #[test]
    fn distinct_statements_not_compressed() {
        // like TPCH22: all queries structurally different
        let mut items = Vec::new();
        for i in 0..22 {
            let sql = format!("SELECT c{i} FROM t{i} WHERE k{i} < 5 GROUP BY c{i}");
            items.push(WorkloadItem::new("db", parse_statement(&sql).unwrap()));
        }
        let w = Workload::from_items(items);
        let out = compress(&w, CompressionOptions::default());
        assert_eq!(out.compressed.len(), 22);
        assert_eq!(out.partitions, 22);
    }

    #[test]
    fn representatives_span_value_range() {
        // one template whose constants form two far-apart clusters: the
        // representatives should cover both
        let mut items = Vec::new();
        for v in (0..50).chain((0..50).map(|i| 100_000 + i)) {
            let sql = format!("SELECT a FROM t WHERE k < {v}");
            items.push(WorkloadItem::new("db", parse_statement(&sql).unwrap()));
        }
        let w = Workload::from_items(items);
        let out = compress(&w, CompressionOptions::default());
        let params: Vec<f64> =
            out.compressed.items.iter().map(|i| parameter_vector(&i.statement)[0]).collect();
        assert!(params.iter().any(|&p| p < 1000.0));
        assert!(params.iter().any(|&p| p > 99_000.0));
    }

    #[test]
    fn uniform_sampling_preserves_event_mass() {
        let w = templated(4, 50);
        let s = uniform_sample(&w, 0.1, 7);
        assert!(s.len() <= 20);
        assert!((s.total_events() - w.total_events()).abs() < 1e-6);
    }

    #[test]
    fn top_k_starves_cheap_templates() {
        // template 0 queries all cost 100; template 1 queries cost 1 —
        // top-k by cost never tunes template 1 (the §5.1 failure mode)
        let w = templated(2, 10);
        let costs: Vec<f64> =
            w.items.iter().enumerate().map(|(i, _)| if i < 10 { 100.0 } else { 1.0 }).collect();
        let kept = top_k_by_cost(&w, &costs, 0.9);
        let sigs: std::collections::BTreeSet<_> =
            kept.items.iter().map(|i| dta_sql::signature(&i.statement)).collect();
        assert_eq!(sigs.len(), 1, "only the expensive template survives");
    }

    #[test]
    fn identical_items_collapse_to_one() {
        let mut items = Vec::new();
        for _ in 0..100 {
            items.push(WorkloadItem::new(
                "db",
                parse_statement("SELECT a FROM t WHERE k < 5").unwrap(),
            ));
        }
        let w = Workload::from_items(items);
        let out = compress(&w, CompressionOptions::default());
        assert_eq!(out.compressed.len(), 1);
        assert_eq!(out.compressed.items[0].weight, 100.0);
    }
}
