use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{LinalgError, Result, Vector};

/// Columns per block of [`Matrix::vec_mul_into`]: 32 partial sums fill
/// eight 256-bit vector registers, so a block's row sweep loads only
/// matrix entries.
const VEC_MUL_BLOCK: usize = 32;

/// A dense, row-major `f64` matrix.
///
/// This is the workhorse type of the workspace. It is deliberately simple:
/// owned storage, eager operations, and panicking operator overloads on shape
/// mismatch (mirroring scalar arithmetic). Fallible variants that return
/// [`LinalgError`] live on [`crate::lu::Lu`] and the free functions in
/// [`crate::kron`] / [`crate::spectral`].
///
/// # Example
///
/// ```
/// use performa_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2) * 2.0;
/// let c = &a * &b;
/// assert_eq!(c[(1, 0)], 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a function of the index pair.
    ///
    /// ```
    /// use performa_linalg::Matrix;
    /// let hilbert = Matrix::from_fn(3, 3, |i, j| 1.0 / (i + j + 1) as f64);
    /// assert_eq!(hilbert[(0, 0)], 1.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(nrows: usize, ncols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Matrix { nrows, ncols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix { nrows, ncols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(LinalgError::InvalidArgument {
                message: format!(
                    "data length {} does not match shape {nrows}x{ncols}",
                    data.len()
                ),
            });
        }
        Ok(Matrix { nrows, ncols, data })
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrow of the flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.nrows, "row index {i} out of bounds");
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.nrows, "row index {i} out of bounds");
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.ncols, "column index {j} out of bounds");
        Vector::from((0..self.nrows).map(|i| self[(i, j)]).collect::<Vec<_>>())
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Writes the transpose of `self` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not shaped `ncols × nrows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.ncols, self.nrows),
            "transpose_into output must be {}x{}",
            self.ncols,
            self.nrows
        );
        for i in 0..self.nrows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * out.ncols + i] = v;
            }
        }
    }

    /// Copies the entries of `src` into `self` without allocating.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "shape mismatch in copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// In-place scaled accumulate `self += s · other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_mut(&mut self, other: &Matrix, s: f64) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_scaled_mut");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Adds `s` to every diagonal entry (in place).
    pub fn add_scaled_identity(&mut self, s: f64) {
        let n = self.nrows.min(self.ncols);
        for i in 0..n {
            self.data[i * self.ncols + i] += s;
        }
    }

    /// Returns the main diagonal as a [`Vector`].
    pub fn diagonal(&self) -> Vector {
        let n = self.nrows.min(self.ncols);
        Vector::from((0..n).map(|i| self[(i, i)]).collect::<Vec<_>>())
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest absolute entry (`max |a_ij|`); `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Infinity norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// 1-norm: maximum absolute column sum.
    pub fn norm_one(&self) -> f64 {
        (0..self.ncols)
            .map(|j| (0..self.nrows).map(|i| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Row sums as a column vector (`A · ε` with `ε` the all-ones vector).
    pub fn row_sums(&self) -> Vector {
        Vector::from(
            (0..self.nrows)
                .map(|i| self.row(i).iter().sum::<f64>())
                .collect::<Vec<_>>(),
        )
    }

    /// Applies a function to every entry, returning a new matrix.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self * v` for a column vector `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != ncols`.
    #[allow(clippy::needless_range_loop)] // row-major kernel, indexed for clarity
    pub fn mul_vec(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.ncols, "matrix-vector shape mismatch");
        let mut out = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.as_slice()) {
                acc += a * b;
            }
            out[i] = acc;
        }
        Vector::from(out)
    }

    /// `v * self` for a row vector `v` (the common direction in
    /// matrix-analytic methods, where stationary vectors act from the left).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != nrows`.
    pub fn vec_mul(&self, v: &Vector) -> Vector {
        let mut out = Vector::zeros(self.ncols);
        self.vec_mul_into(v, &mut out);
        out
    }

    /// Writes `v * self` into `out`, overwriting whatever it held.
    ///
    /// Every entry is the ascending-row sum `((0 + v₀a₀ⱼ) + v₁a₁ⱼ) + …`
    /// over the rows with `vᵢ ≠ 0`, each term a multiply then an add
    /// (never fused). The columns are swept in blocks of 32 whose
    /// partial sums stay in registers across the rows; the blocking
    /// changes no operation or its order, so the bits equal those of
    /// the plain row-by-row loop.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != nrows` or `out.len() != ncols`.
    pub fn vec_mul_into(&self, v: &Vector, out: &mut Vector) {
        assert_eq!(v.len(), self.nrows, "vector-matrix shape mismatch");
        assert_eq!(
            out.len(),
            self.ncols,
            "vector-matrix output length mismatch"
        );
        if self.ncols == 0 {
            return;
        }
        let (v, out) = (v.as_slice(), out.as_mut_slice());
        let mut j0 = 0;
        while self.ncols - j0 >= VEC_MUL_BLOCK {
            self.vec_mul_block::<VEC_MUL_BLOCK>(v, j0, out);
            j0 += VEC_MUL_BLOCK;
        }
        // The ragged end in power-of-two widths, so it stays in registers.
        for (width, block) in [
            (
                16,
                Self::vec_mul_block::<16> as fn(&Self, &[f64], usize, &mut [f64]),
            ),
            (8, Self::vec_mul_block::<8>),
            (4, Self::vec_mul_block::<4>),
            (2, Self::vec_mul_block::<2>),
            (1, Self::vec_mul_block::<1>),
        ] {
            if self.ncols - j0 >= width {
                block(self, v, j0, out);
                j0 += width;
            }
        }
    }

    /// Columns `j0..j0 + W` of `v * self` into `out`, with the `W`
    /// partial sums held in a fixed-size array across the row sweep.
    fn vec_mul_block<const W: usize>(&self, v: &[f64], j0: usize, out: &mut [f64]) {
        let mut acc = [0.0_f64; W];
        for (row, &vi) in self.data.chunks_exact(self.ncols).zip(v) {
            if vi == 0.0 {
                continue;
            }
            let a: &[f64; W] = row[j0..j0 + W].try_into().expect("slice spans one block");
            for (s, &x) in acc.iter_mut().zip(a) {
                *s += vi * x;
            }
        }
        out[j0..j0 + W].copy_from_slice(&acc);
    }

    /// Maximum absolute difference to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Reference matrix product by the naive `i-k-j` triple loop.
    ///
    /// Retained as the correctness oracle for the blocked kernel
    /// ([`crate::gemm::gemm_into`], which backs `&a * &b`) and as the
    /// reference point of the recorded benchmark baseline.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn mul_naive(&self, b: &Matrix) -> Matrix {
        assert_eq!(
            self.ncols, b.nrows,
            "shape mismatch in matrix product: {}x{} * {}x{}",
            self.nrows, self.ncols, b.nrows, b.ncols
        );
        let mut out = Matrix::zeros(self.nrows, b.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let orow = out.row_mut(i);
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows {
            write!(f, "  [")?;
            for j in 0..self.ncols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.nrows && j < self.ncols, "index ({i},{j}) out of bounds");
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.nrows && j < self.ncols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.ncols + j]
    }
}

fn add_impl(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in matrix addition");
    Matrix {
        nrows: a.nrows,
        ncols: a.ncols,
        data: a.data.iter().zip(&b.data).map(|(x, y)| x + y).collect(),
    }
}

fn sub_impl(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in matrix subtraction");
    Matrix {
        nrows: a.nrows,
        ncols: a.ncols,
        data: a.data.iter().zip(&b.data).map(|(x, y)| x - y).collect(),
    }
}

fn mul_impl(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.ncols, b.nrows,
        "shape mismatch in matrix product: {}x{} * {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols
    );
    let mut out = Matrix::zeros(a.nrows, b.ncols);
    crate::gemm::gemm_into(1.0, a, b, 0.0, &mut out);
    out
}

macro_rules! binop {
    ($trait:ident, $method:ident, $impl:ident) => {
        impl $trait for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: Matrix) -> Matrix {
                $impl(&self, &rhs)
            }
        }
        impl $trait<&Matrix> for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                $impl(&self, rhs)
            }
        }
        impl $trait<Matrix> for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: Matrix) -> Matrix {
                $impl(self, &rhs)
            }
        }
        impl $trait<&Matrix> for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                $impl(self, rhs)
            }
        }
    };
}

binop!(Add, add, add_impl);
binop!(Sub, sub, sub_impl);
binop!(Mul, mul, mul_impl);

impl Mul<f64> for Matrix {
    type Output = Matrix;
    fn mul(mut self, rhs: f64) -> Matrix {
        self.scale_mut(rhs);
        self
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(rhs);
        m
    }
}

impl Mul<Matrix> for f64 {
    type Output = Matrix;
    fn mul(self, rhs: Matrix) -> Matrix {
        rhs * self
    }
}

impl Neg for Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self * -1.0
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self * -1.0
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in +=");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in -=");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl MulAssign<f64> for Matrix {
    fn mul_assign(&mut self, rhs: f64) {
        self.scale_mut(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);

        let i = Matrix::identity(3);
        assert_eq!(i.diagonal().as_slice(), &[1.0, 1.0, 1.0]);
        assert_eq!(i.sum(), 3.0);

        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(2, 2)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);

        let f = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(f[(1, 1)], 11.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidArgument { .. }));
    }

    #[test]
    fn product_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let i = Matrix::identity(4);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (5, 3));
    }

    #[test]
    fn vector_products() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = Vector::from(vec![1.0, 1.0]);
        assert_eq!(a.mul_vec(&v).as_slice(), &[3.0, 7.0]);
        assert_eq!(a.vec_mul(&v).as_slice(), &[4.0, 6.0]);
    }

    /// The row-by-row loop the blocked kernel replaced: the bit
    /// reference for [`Matrix::vec_mul_into`].
    fn vec_mul_reference(a: &Matrix, v: &Vector) -> Vector {
        let mut out = vec![0.0; a.ncols()];
        for i in 0..a.nrows() {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (o, x) in out.iter_mut().zip(a.row(i)) {
                *o += vi * x;
            }
        }
        Vector::from(out)
    }

    #[test]
    fn blocked_vec_mul_keeps_the_row_loop_bits() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.25
        };
        // Ragged last blocks on both sides of the 32-column block.
        for (r, c) in [
            (1, 1),
            (3, 5),
            (31, 31),
            (32, 32),
            (33, 33),
            (70, 97),
            (126, 126),
        ] {
            let mut a = Matrix::from_fn(r, c, |_, _| next());
            let mut v = Vector::from((0..r).map(|_| next()).collect::<Vec<_>>());
            for i in 0..r {
                match i % 5 {
                    0 => v[i] = 0.0,
                    3 => v[i] = -0.0,
                    _ => {}
                }
            }
            // Row 0 has zero weight: its NaN and ∞ are skipped.
            for j in 0..c {
                a[(0, j)] = if j % 2 == 0 { f64::NAN } else { f64::INFINITY };
            }
            // A column of −0.0 and −0.0 entries scattered elsewhere.
            for i in 1..r {
                a[(i, c - 1)] = -0.0;
                a[(i, (7 * i) % c)] = -0.0;
            }
            let want = vec_mul_reference(&a, &v);
            assert!(want.as_slice().iter().all(|x| !x.is_nan()), "{r}x{c}");
            let mut got = Vector::from(vec![f64::NAN; c]);
            a.vec_mul_into(&v, &mut got);
            let bits = |x: &Vector| x.as_slice().iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{r}x{c}");
            assert_eq!(bits(&a.vec_mul(&v)), bits(&want), "{r}x{c}");
        }
    }

    #[test]
    fn vec_mul_propagates_non_finite_entries_of_weighted_rows() {
        let a = Matrix::from_rows(&[&[1.0, f64::INFINITY, 2.0], &[3.0, 1.0, f64::NAN]]);
        let v = Vector::from(vec![0.5, 2.0]);
        let mut out = Vector::from(vec![7.0; 3]);
        a.vec_mul_into(&v, &mut out);
        assert_eq!(out[0], 6.5);
        assert_eq!(out[1], f64::INFINITY);
        assert!(out[2].is_nan());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(a.norm_inf(), 7.0);
        assert_eq!(a.norm_one(), 6.0);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.norm_fro() - (30.0_f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn row_sums_and_col() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row_sums().as_slice(), &[3.0, 7.0]);
        assert_eq!(a.col(1).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn scalar_ops_and_neg() {
        let a = Matrix::identity(2);
        let b = &a * 3.0;
        assert_eq!(b[(0, 0)], 3.0);
        let c = 2.0 * a.clone();
        assert_eq!(c[(1, 1)], 2.0);
        assert_eq!((-&a)[(0, 0)], -1.0);
        let mut d = a.clone();
        d += &a;
        assert_eq!(d[(0, 0)], 2.0);
        d -= &a;
        assert_eq!(d, a);
        d *= 5.0;
        assert_eq!(d[(1, 1)], 5.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_add_panics() {
        let _ = Matrix::zeros(2, 2) + Matrix::zeros(3, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn debug_output_contains_entries() {
        let a = Matrix::identity(2);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix 2x2"));
    }

    #[test]
    fn map_and_is_finite() {
        let a = Matrix::identity(2).map(|v| v * 2.0 + 1.0);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 1.0);
        assert!(a.is_finite());
        let b = a.map(|_| f64::NAN);
        assert!(!b.is_finite());
    }
}
