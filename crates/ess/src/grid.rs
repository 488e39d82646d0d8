//! The discretized error-prone selectivity space.
//!
//! Each epp dimension carries a log-spaced axis from a small minimum
//! selectivity up to 1.0 (§2.1: "an appropriately discretized grid version
//! of [0,1]^D"). Cells are addressed by a linear index in row-major order
//! (dimension 0 varies fastest).

use rqp_catalog::{RqpError, RqpResult, SelVector, Selectivity};
use serde::{Deserialize, Serialize};

/// Linear index of a grid cell.
pub type Cell = usize;

/// A log-scale multi-dimensional grid over the ESS.
///
/// Deserialization is routed through [`Grid::from_axes`] (via the
/// `GridSerde` shadow), so a malformed payload — empty axis list, empty or
/// unsorted axes, out-of-range values — is a structured decode error
/// rather than a reachable invalid state. Every constructed `Grid`
/// therefore has at least one axis with at least two points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "GridSerde")]
pub struct Grid {
    /// Per-dimension axis values, strictly increasing, ending at 1.0.
    axes: Vec<Vec<f64>>,
    /// Row-major strides.
    strides: Vec<usize>,
    cells: usize,
}

/// Untrusted wire form of [`Grid`]; validated by `TryFrom` on decode.
#[derive(Deserialize)]
struct GridSerde {
    axes: Vec<Vec<f64>>,
    #[serde(default)]
    strides: Vec<usize>,
    #[serde(default)]
    cells: usize,
}

impl TryFrom<GridSerde> for Grid {
    type Error = RqpError;

    fn try_from(raw: GridSerde) -> RqpResult<Grid> {
        let grid = Grid::from_axes(raw.axes)?;
        // strides/cells are derived state; recomputing them ignores (and
        // thereby corrects) whatever the payload claimed.
        let _ = (raw.strides, raw.cells);
        Ok(grid)
    }
}

impl Grid {
    /// A uniform grid: every dimension gets `res` log-spaced points from
    /// `min_sel` to 1.0.
    ///
    /// Errors if `dims == 0`, `res < 2`, `min_sel` is outside `(0,1)`, or
    /// the total cell count `res^dims` overflows.
    pub fn uniform(dims: usize, res: usize, min_sel: f64) -> RqpResult<Self> {
        if dims < 1 || res < 2 || !(min_sel > 0.0 && min_sel < 1.0) {
            return Err(RqpError::InvalidQuery(format!(
                "grid needs dims >= 1, res >= 2 and min_sel in (0,1); \
                 got dims {dims}, res {res}, min_sel {min_sel}"
            )));
        }
        let axis: Vec<f64> = (0..res)
            .map(|k| {
                let t = k as f64 / (res - 1) as f64;
                // log-space interpolation from min_sel to 1.0
                10f64.powf(min_sel.log10() * (1.0 - t))
            })
            .collect();
        Self::from_axes(vec![axis; dims])
    }

    /// A grid from explicit axes.
    ///
    /// Errors if any axis is not strictly increasing within `(0, 1]`, or if
    /// the total cell count overflows.
    pub fn from_axes(axes: Vec<Vec<f64>>) -> RqpResult<Self> {
        if axes.is_empty() {
            return Err(RqpError::InvalidQuery("grid needs at least one axis".into()));
        }
        for axis in &axes {
            let ok = axis.len() >= 2
                && axis.windows(2).all(|w| w[0] < w[1])
                && axis[0] > 0.0
                && axis[axis.len() - 1] <= 1.0;
            if !ok {
                return Err(RqpError::InvalidQuery(
                    "grid axis must be strictly increasing within (0, 1] \
                     with at least two points"
                        .into(),
                ));
            }
        }
        let mut strides = Vec::with_capacity(axes.len());
        let mut acc = 1usize;
        let max_res = axes.iter().map(Vec::len).max().unwrap_or(0);
        for axis in &axes {
            strides.push(acc);
            acc = acc
                .checked_mul(axis.len())
                .ok_or(RqpError::GridTooLarge { resolution: max_res, dims: axes.len() })?;
        }
        Ok(Grid { axes, strides, cells: acc })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.axes.len()
    }

    /// Resolution (number of points) of dimension `d`.
    pub fn res(&self, d: usize) -> usize {
        self.axes[d].len()
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells
    }

    /// Axis value of dimension `d` at index `i`.
    pub fn value(&self, d: usize, i: usize) -> f64 {
        self.axes[d][i]
    }

    /// Grid coordinates of a cell.
    pub fn coords_of(&self, cell: Cell) -> Vec<usize> {
        let mut out = vec![0; self.dims()];
        self.coords_into(cell, &mut out);
        out
    }

    /// Grid coordinates of a cell, written into `out`.
    pub fn coords_into(&self, cell: Cell, out: &mut [usize]) {
        debug_assert!(cell < self.cells);
        debug_assert_eq!(out.len(), self.dims());
        let mut rest = cell;
        for d in (0..self.dims()).rev() {
            out[d] = rest / self.strides[d];
            rest %= self.strides[d];
        }
    }

    /// Coordinate of `cell` along a single dimension (cheaper than
    /// materializing all coordinates).
    pub fn coord(&self, cell: Cell, d: usize) -> usize {
        (cell / self.strides[d]) % self.axes[d].len()
    }

    /// Linear-index step of one coordinate along dimension `d`.
    pub(crate) fn stride(&self, d: usize) -> usize {
        self.strides[d]
    }

    /// Linear index from coordinates.
    pub fn index(&self, coords: &[usize]) -> Cell {
        debug_assert_eq!(coords.len(), self.dims());
        coords.iter().zip(&self.strides).map(|(&c, &s)| c * s).sum()
    }

    /// The selectivity location of a cell.
    pub fn location(&self, cell: Cell) -> SelVector {
        let mut coords = vec![0; self.dims()];
        self.coords_into(cell, &mut coords);
        SelVector::new(
            coords.iter().enumerate().map(|(d, &i)| Selectivity::new(self.axes[d][i])).collect(),
        )
    }

    /// Whether cell `a` dominates cell `b` (component-wise ≥).
    pub fn dominates(&self, a: Cell, b: Cell) -> bool {
        (0..self.dims()).all(|d| self.coord(a, d) >= self.coord(b, d))
    }

    /// The origin cell (all minimum selectivities).
    pub fn origin(&self) -> Cell {
        0
    }

    /// The terminus cell (all selectivities 1.0).
    pub fn terminus(&self) -> Cell {
        self.cells - 1
    }

    /// Smallest axis index of dimension `d` whose value is ≥ `v` (with a
    /// tiny tolerance for values that are exactly on an axis point).
    /// Returns the last index if `v` exceeds the axis maximum (or is NaN).
    ///
    /// Total: the `saturating_sub` keeps the miss arm well-defined even
    /// for a hypothetical empty axis (the old `axis.len() - 1` underflowed
    /// to a panic); construction-time validation means the arm is only
    /// ever taken for over-range `v` in practice.
    pub fn snap_ceil(&self, d: usize, v: f64) -> usize {
        let axis = &self.axes[d];
        axis.iter().position(|&x| x >= v * (1.0 - 1e-12)).unwrap_or(axis.len().saturating_sub(1))
    }

    /// Largest axis index of dimension `d` whose value is ≤ `v`; 0 if `v`
    /// is below the axis minimum.
    pub fn snap_floor(&self, d: usize, v: f64) -> usize {
        let axis = &self.axes[d];
        axis.iter().rposition(|&x| x <= v * (1.0 + 1e-12)).unwrap_or_default()
    }

    /// Iterate over all cells.
    pub fn cells(&self) -> std::ops::Range<Cell> {
        0..self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_axis_ends_are_exact() {
        let g = Grid::uniform(2, 5, 1e-4).unwrap();
        assert_eq!(g.dims(), 2);
        assert_eq!(g.res(0), 5);
        assert!((g.value(0, 0) - 1e-4).abs() < 1e-15);
        assert!((g.value(0, 4) - 1.0).abs() < 1e-12);
        assert_eq!(g.num_cells(), 25);
    }

    #[test]
    fn coords_roundtrip() {
        let g = Grid::uniform(3, 4, 1e-3).unwrap();
        for cell in g.cells() {
            let coords = g.coords_of(cell);
            assert_eq!(g.index(&coords), cell);
            for (d, &coord) in coords.iter().enumerate() {
                assert_eq!(g.coord(cell, d), coord);
            }
        }
    }

    #[test]
    fn dominance_matches_coordinates() {
        let g = Grid::uniform(2, 4, 1e-3).unwrap();
        let a = g.index(&[2, 3]);
        let b = g.index(&[1, 3]);
        let c = g.index(&[3, 1]);
        assert!(g.dominates(a, b));
        assert!(!g.dominates(b, a));
        assert!(!g.dominates(a, c) && !g.dominates(c, a));
        assert!(g.dominates(g.terminus(), a));
        assert!(g.dominates(a, g.origin()));
    }

    #[test]
    fn location_values_match_axes() {
        let g = Grid::uniform(2, 3, 1e-2).unwrap();
        let cell = g.index(&[1, 2]);
        let loc = g.location(cell);
        assert!((loc.get(0).value() - g.value(0, 1)).abs() < 1e-15);
        assert!((loc.get(1).value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn snapping_is_consistent() {
        let g = Grid::uniform(1, 5, 1e-4).unwrap();
        for i in 0..5 {
            let v = g.value(0, i);
            assert_eq!(g.snap_ceil(0, v), i, "exact point should snap to itself");
            assert_eq!(g.snap_floor(0, v), i);
        }
        assert_eq!(g.snap_ceil(0, g.value(0, 1) * 1.01), 2);
        assert_eq!(g.snap_floor(0, g.value(0, 1) * 1.01), 1);
        assert_eq!(g.snap_ceil(0, 2.0), 4, "beyond max snaps to last");
        assert_eq!(g.snap_floor(0, 1e-9), 0, "below min snaps to 0");
    }

    #[test]
    fn asymmetric_axes_supported() {
        let g = Grid::from_axes(vec![vec![0.1, 0.5, 1.0], vec![0.2, 1.0]]).unwrap();
        assert_eq!(g.num_cells(), 6);
        assert_eq!(g.res(0), 3);
        assert_eq!(g.res(1), 2);
        assert_eq!(g.coords_of(5), vec![2, 1]);
    }

    #[test]
    fn rejects_unsorted_axis() {
        let err = Grid::from_axes(vec![vec![0.5, 0.1, 1.0]]).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"), "{err}");
    }

    #[test]
    fn oversized_grid_is_an_error_not_an_abort() {
        // 1000^8 cells overflows usize on every supported platform
        let err = Grid::uniform(8, 1000, 1e-6).unwrap_err();
        assert!(matches!(err, rqp_catalog::RqpError::GridTooLarge { resolution: 1000, dims: 8 }));
    }

    #[test]
    fn snapping_is_total_on_degenerate_inputs() {
        let g = Grid::uniform(1, 4, 1e-3).unwrap();
        // NaN matches no axis point; both snaps take their miss arm
        assert_eq!(g.snap_ceil(0, f64::NAN), 3);
        assert_eq!(g.snap_floor(0, f64::NAN), 0);
        assert_eq!(g.snap_ceil(0, f64::INFINITY), 3);
        assert_eq!(g.snap_floor(0, f64::NEG_INFINITY), 0);
        assert_eq!(g.snap_ceil(0, 0.0), 0, "non-positive v is below every axis point");
        assert_eq!(g.snap_floor(0, 2.0), 3);
    }

    #[test]
    fn deserialization_revalidates_axes() {
        // Regression: a derived Deserialize would bypass from_axes, so a
        // malformed payload could smuggle in an empty axis and crash
        // snap_ceil via usize underflow. Grid routes decoding through
        // `TryFrom<GridSerde>`, which re-runs construction validation.
        for bad in [
            GridSerde { axes: vec![], strides: vec![], cells: 0 },
            GridSerde { axes: vec![vec![]], strides: vec![1], cells: 0 },
            GridSerde { axes: vec![vec![0.5]], strides: vec![1], cells: 1 },
            GridSerde { axes: vec![vec![0.5, 0.1, 1.0]], strides: vec![1], cells: 3 },
            GridSerde { axes: vec![vec![0.5, 1.5]], strides: vec![1], cells: 2 },
        ] {
            assert!(Grid::try_from(bad).is_err());
        }
    }

    #[test]
    fn deserialization_recomputes_derived_state() {
        // lying about strides/cells cannot corrupt indexing: the decode
        // gate recomputes both from the axes alone
        let forged = GridSerde {
            axes: vec![vec![0.1, 1.0], vec![0.2, 1.0]],
            strides: vec![99, 99],
            cells: 7,
        };
        let f = Grid::try_from(forged).unwrap();
        assert_eq!(f, Grid::from_axes(vec![vec![0.1, 1.0], vec![0.2, 1.0]]).unwrap());
        assert_eq!(f.num_cells(), 4);
        assert_eq!(f.index(&[1, 1]), 3);
    }

    #[test]
    fn degenerate_parameters_are_errors() {
        assert!(Grid::uniform(0, 10, 1e-4).is_err());
        assert!(Grid::uniform(2, 1, 1e-4).is_err());
        assert!(Grid::uniform(2, 10, 0.0).is_err());
        assert!(Grid::uniform(2, 10, 1.0).is_err());
        assert!(Grid::from_axes(vec![]).is_err());
        assert!(Grid::from_axes(vec![vec![0.5]]).is_err());
        assert!(Grid::from_axes(vec![vec![0.5, 1.5]]).is_err());
    }
}
