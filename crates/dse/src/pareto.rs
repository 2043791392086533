//! Pareto dominance and non-dominated set maintenance (minimization).

/// True when `a` Pareto-dominates `b`: no worse in every objective and
/// strictly better in at least one.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// True when `a` weakly dominates `b`: no worse in every objective (so
/// `a` dominates `b` or equals it). False whenever either holds a NaN.
pub fn weakly_dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).all(|(x, y)| x <= y)
}

/// Indices of the non-dominated vectors among `objs` (first occurrence wins
/// among exact duplicates).
pub fn pareto_indices(objs: &[&[f64]]) -> Vec<usize> {
    let mut out = Vec::new();
    'outer: for (i, a) in objs.iter().enumerate() {
        for (j, b) in objs.iter().enumerate() {
            if i == j {
                continue;
            }
            if dominates(b, a) || (a == b && j < i) {
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

/// Fast non-dominated sorting (NSGA-II): partitions indices into fronts,
/// front 0 being the Pareto front.
pub fn non_dominated_sort(objs: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = objs.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // i dominates these
    let mut domination_count = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if dominates(&objs[i], &objs[j]) {
                dominated_by[i].push(j);
            } else if dominates(&objs[j], &objs[i]) {
                domination_count[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distance of each member of one front (NSGA-II diversity
/// measure). Boundary points get `f64::INFINITY`.
pub fn crowding_distance(objs: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let n = front.len();
    let mut dist = vec![0.0f64; n];
    if n == 0 {
        return dist;
    }
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    let m = objs[front[0]].len();
    // `obj` is the *inner* subscript of a permuted double index, so a
    // range loop is the clear form.
    #[allow(clippy::needless_range_loop)]
    for obj in 0..m {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            objs[front[a]][obj]
                .partial_cmp(&objs[front[b]][obj])
                .expect("no NaN objectives")
        });
        let lo = objs[front[order[0]]][obj];
        let hi = objs[front[order[n - 1]]][obj];
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let span = (hi - lo).max(1e-12);
        for k in 1..n - 1 {
            let prev = objs[front[order[k - 1]]][obj];
            let next = objs[front[order[k + 1]]][obj];
            dist[order[k]] += (next - prev) / span;
        }
    }
    dist
}

/// An incrementally maintained archive of non-dominated (point, objectives)
/// pairs.
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive<P> {
    entries: Vec<(P, Vec<f64>)>,
}

impl<P: Clone + PartialEq> ParetoArchive<P> {
    /// Creates an empty archive.
    pub fn new() -> Self {
        ParetoArchive {
            entries: Vec::new(),
        }
    }

    /// Inserts a candidate; returns `true` if it joined the archive (i.e.
    /// it was not dominated). Dominated incumbents are evicted.
    pub fn insert(&mut self, point: P, objectives: Vec<f64>) -> bool {
        for (_, o) in &self.entries {
            if dominates(o, &objectives) || *o == objectives {
                return false;
            }
        }
        self.entries.retain(|(_, o)| !dominates(&objectives, o));
        self.entries.push((point, objectives));
        true
    }

    /// The archived entries.
    pub fn entries(&self) -> &[(P, Vec<f64>)] {
        &self.entries
    }

    /// The archived objective vectors.
    pub fn objectives(&self) -> Vec<Vec<f64>> {
        self.entries.iter().map(|(_, o)| o.clone()).collect()
    }

    /// Number of archived entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
    }

    #[test]
    fn pareto_indices_filters_dominated() {
        let v: Vec<Vec<f64>> = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![3.0, 3.0],
            vec![2.0, 2.0],
        ];
        let refs: Vec<&[f64]> = v.iter().map(|x| x.as_slice()).collect();
        // [3,3] dominated by [2,2]; duplicate [2,2] kept once.
        assert_eq!(pareto_indices(&refs), vec![0, 1, 2]);
    }

    #[test]
    fn nds_orders_fronts() {
        let objs = vec![
            vec![1.0, 1.0], // front 0
            vec![2.0, 2.0], // front 1
            vec![3.0, 3.0], // front 2
            vec![0.5, 3.0], // front 0
        ];
        let fronts = non_dominated_sort(&objs);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![0, 3]);
        assert_eq!(fronts[1], vec![1]);
        assert_eq!(fronts[2], vec![2]);
    }

    #[test]
    fn crowding_boundary_is_infinite() {
        let objs = vec![
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 2.0],
            vec![4.0, 1.0],
        ];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distance(&objs, &front);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
    }

    #[test]
    fn crowding_small_fronts_are_infinite() {
        let objs = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let d = crowding_distance(&objs, &[0, 1]);
        assert!(d.iter().all(|x| x.is_infinite()));
        assert!(crowding_distance(&objs, &[]).is_empty());
    }

    #[test]
    fn archive_inserts_and_evicts() {
        let mut a: ParetoArchive<usize> = ParetoArchive::new();
        assert!(a.insert(0, vec![2.0, 2.0]));
        assert!(a.insert(1, vec![1.0, 3.0]));
        assert!(!a.insert(2, vec![3.0, 3.0])); // dominated
        assert!(!a.insert(3, vec![2.0, 2.0])); // duplicate
        assert_eq!(a.len(), 2);
        assert!(a.insert(4, vec![0.5, 0.5])); // dominates everything
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        assert_eq!(a.objectives(), vec![vec![0.5, 0.5]]);
    }
}
