//! Principal-component analysis via deflated power iteration.
//!
//! The linear-auto-encoder substrate behind the CAE/VCAE baselines.

use cp_layout::squish::Topology;

/// A fitted PCA model over flattened topology matrices.
#[derive(Debug, Clone)]
pub struct PcaModel {
    rows: usize,
    cols: usize,
    mean: Vec<f64>,
    /// Component vectors, unit length, row-major `[k][dim]`.
    components: Vec<Vec<f64>>,
    /// Standard deviation of the data along each component.
    sigmas: Vec<f64>,
}

impl PcaModel {
    /// Fits `k` principal components with 30 power iterations each.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, shapes are inconsistent, or `k == 0`.
    #[must_use]
    pub(crate) fn fit(data: &[Topology], k: usize) -> PcaModel {
        assert!(!data.is_empty(), "PCA needs data");
        assert!(k > 0, "need at least one component");
        let (rows, cols) = data[0].shape();
        assert!(
            data.iter().all(|t| t.shape() == (rows, cols)),
            "inconsistent topology shapes"
        );
        let dim = rows * cols;
        let m = data.len();
        let mut mean = vec![0.0f64; dim];
        for t in data {
            for (i, &b) in t.as_bytes().iter().enumerate() {
                mean[i] += f64::from(b);
            }
        }
        for v in &mut mean {
            *v /= m as f64;
        }
        // Centred data as f64 rows.
        let centred: Vec<Vec<f64>> = data
            .iter()
            .map(|t| {
                t.as_bytes()
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| f64::from(b) - mean[i])
                    .collect()
            })
            .collect();
        let mut components: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut sigmas = Vec::with_capacity(k);
        for comp_idx in 0..k.min(m) {
            // Deterministic start vector, orthogonalized against earlier
            // components.
            let mut v: Vec<f64> = (0..dim)
                .map(|i| ((i * 2654435761 + comp_idx * 40503) % 1000) as f64 / 1000.0 - 0.5)
                .collect();
            for _ in 0..30 {
                orthogonalize(&mut v, &components);
                let norm = normalize(&mut v);
                if norm < 1e-12 {
                    break;
                }
                // v ← (1/m) Σ_i x_i ⟨x_i, v⟩  (covariance matvec)
                let mut next = vec![0.0f64; dim];
                for x in &centred {
                    let dot: f64 = x.iter().zip(&v).map(|(a, b)| a * b).sum();
                    for (n, &xi) in next.iter_mut().zip(x) {
                        *n += xi * dot;
                    }
                }
                for n in &mut next {
                    *n /= m as f64;
                }
                v = next;
            }
            orthogonalize(&mut v, &components);
            let eigen = normalize(&mut v);
            if eigen < 1e-9 {
                // Data rank exhausted: no more meaningful components.
                break;
            }
            // Eigenvalue of the covariance = variance along v.
            sigmas.push(eigen.sqrt());
            components.push(v);
        }
        PcaModel {
            rows,
            cols,
            mean,
            components,
            sigmas,
        }
    }

    /// Training shape `(rows, cols)`.
    #[must_use]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of fitted components.
    #[must_use]
    pub(crate) fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Standard deviations along the components (√eigenvalues).
    #[must_use]
    pub(crate) fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// Mean density of the training data.
    #[must_use]
    pub(crate) fn mean_density(&self) -> f64 {
        self.mean.iter().sum::<f64>() / self.mean.len() as f64
    }

    /// Decodes a latent vector to a continuous reconstruction.
    ///
    /// # Panics
    ///
    /// Panics if `z` length differs from the component count.
    #[must_use]
    pub(crate) fn decode(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.components.len(), "latent dim mismatch");
        let mut x = self.mean.clone();
        for (zi, comp) in z.iter().zip(&self.components) {
            for (xv, cv) in x.iter_mut().zip(comp) {
                *xv += zi * cv;
            }
        }
        x
    }

    /// Thresholds a continuous reconstruction at `threshold` into a
    /// topology of the training shape.
    #[must_use]
    pub(crate) fn binarize(&self, x: &[f64], threshold: f64) -> Topology {
        Topology::from_fn(self.rows, self.cols, |r, c| {
            x[r * self.cols + c] > threshold
        })
    }
}

fn orthogonalize(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let dot: f64 = v.iter().zip(b).map(|(a, x)| a * x).sum();
        for (vi, bi) in v.iter_mut().zip(b) {
            *vi -= dot * bi;
        }
    }
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn striped_data() -> Vec<Topology> {
        (0..8)
            .map(|i| Topology::from_fn(8, 8, move |_, c| (c + i) % 4 < 2))
            .collect()
    }

    #[test]
    fn rank_deficient_data_truncates_components() {
        // Period-4 stripes span a rank-2 centred subspace.
        let pca = PcaModel::fit(&striped_data(), 5);
        assert_eq!(pca.component_count(), 2);
    }

    #[test]
    fn components_are_orthonormal() {
        let pca = PcaModel::fit(&striped_data(), 3);
        let k = pca.component_count();
        for i in 0..k {
            let ci = &pca.components[i];
            let norm: f64 = ci.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-6, "component {i} norm {norm}");
            for j in 0..i {
                let dot: f64 = ci.iter().zip(&pca.components[j]).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-6, "components {i},{j} not orthogonal");
            }
        }
    }

    #[test]
    fn sigmas_are_nonincreasing() {
        let pca = PcaModel::fit(&striped_data(), 3);
        for w in pca.sigmas().windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "sigmas not sorted: {:?}", pca.sigmas());
        }
    }

    #[test]
    fn mean_density_matches_data() {
        let data = striped_data();
        let pca = PcaModel::fit(&data, 2);
        assert!((pca.mean_density() - 0.5).abs() < 1e-9);
    }
}
