//! Linear algebra for the transient engine: Gaussian elimination with
//! partial pivoting for small dense systems, and a no-pivot LU on
//! packed band storage, lane-batched over `[f64; N]` entries, for
//! chain-structured ones.

use crate::batch::{Lane, LANES};

/// Solve `A·x = b` in place; `a` is row-major `n×n`, `b` has length
/// `n` and holds `x` on return. Returns `false` (with `a` and `b`
/// garbage) if the matrix is numerically singular.
pub(crate) fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize) -> bool {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-300 {
            return false;
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }
        let inv = 1.0 / a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] * inv;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution, overwriting `b` from the last row up.
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row * n + k] * b[k];
        }
        b[row] = sum / a[row * n + row];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut a = vec![1.0, 0.0, 0.0, 1.0];
        let mut b = vec![3.0, 4.0];
        assert!(solve_dense(&mut a, &mut b, 2));
        assert_eq!(b, vec![3.0, 4.0]);
    }

    #[test]
    fn solves_general_3x3() {
        // A = [[2,1,0],[1,3,1],[0,1,2]], x = [1,2,3] -> b = [4, 10, 8]
        let mut a = vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0];
        let mut b = vec![4.0, 10.0, 8.0];
        assert!(solve_dense(&mut a, &mut b, 3));
        for (got, want) in b.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn detects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert!(!solve_dense(&mut a, &mut b, 2));
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0,1],[1,0]] x = [5, 7] -> x = [7, 5]
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![5.0, 7.0];
        assert!(solve_dense(&mut a, &mut b, 2));
        assert!((b[0] - 7.0).abs() < 1e-12);
        assert!((b[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn random_spd_systems_roundtrip() {
        // Deterministic pseudo-random SPD matrices: A = M^T M + n*I.
        let mut seed = 0x12345678u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for n in [2usize, 5, 9] {
            let m: Vec<f64> = (0..n * n).map(|_| rnd()).collect();
            let mut a = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    let mut s = if i == j { n as f64 } else { 0.0 };
                    for k in 0..n {
                        s += m[k * n + i] * m[k * n + j];
                    }
                    a[i * n + j] = s;
                }
            }
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let mut b = vec![0.0; n];
            for i in 0..n {
                b[i] = (0..n).map(|j| a[i * n + j] * x_true[j]).sum();
            }
            let mut a_copy = a.clone();
            assert!(solve_dense(&mut a_copy, &mut b, n));
            for (got, want) in b.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-9, "n={n}");
            }
        }
    }
}

/// Solve `A·x = b` for a banded matrix stored densely (row-major
/// `n×n`) with half-bandwidth `bw`: `a[i][j] == 0` whenever
/// `|i−j| > bw`. Gaussian elimination without pivoting touching only
/// in-band entries — O(n·bw²) instead of O(n³).
///
/// MNA matrices of chain-structured SFQ circuits are strongly
/// diagonally dominant (every node carries a junction shunt or
/// capacitor companion conductance), so pivoting is unnecessary;
/// returns `None` on a tiny pivot so callers can fall back to the
/// dense path.
///
/// The solver itself uses the [`factor_banded`]/[`solve_factored`]
/// split (so one factorization serves many Newton iterations); this
/// combined form remains as the bit-exactness reference for their
/// tests.
#[cfg(test)]
pub(crate) fn solve_banded(a: &mut [f64], b: &mut [f64], n: usize, bw: usize) -> Option<Vec<f64>> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for col in 0..n {
        let pivot = a[col * n + col];
        if pivot.abs() < 1e-300 {
            return None;
        }
        let inv = 1.0 / pivot;
        let row_end = (col + bw + 1).min(n);
        let k_end = row_end;
        for row in (col + 1)..row_end {
            let factor = a[row * n + col] * inv;
            if factor == 0.0 {
                continue;
            }
            for k in col..k_end {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        let k_end = (row + bw + 1).min(n);
        for k in (row + 1)..k_end {
            sum -= a[row * n + k] * x[k];
        }
        x[row] = sum / a[row * n + row];
    }
    Some(x)
}

/// Factor a banded matrix in place (`a` row-major `n×n`,
/// half-bandwidth `bw`): Gaussian elimination without pivoting, with
/// each elimination multiplier stored in the zeroed position
/// (`a[row][col]` for `row > col`), yielding a compact LU whose
/// right-hand-side elimination [`solve_factored`] can replay. The
/// arithmetic is the exact operation sequence of `solve_banded`, so
/// a factor + solve pair returns bit-identical solutions.
///
/// Returns `false` on a tiny pivot (caller falls back to the pivoting
/// dense path).
///
/// The solver runs on the packed-storage [`factor_band`]/[`solve_band`]
/// pair; this dense-storage form remains as their bit-exactness
/// reference.
#[cfg(test)]
pub(crate) fn factor_banded(a: &mut [f64], n: usize, bw: usize) -> bool {
    debug_assert_eq!(a.len(), n * n);
    for col in 0..n {
        let pivot = a[col * n + col];
        if pivot.abs() < 1e-300 {
            return false;
        }
        let inv = 1.0 / pivot;
        let row_end = (col + bw + 1).min(n);
        for row in (col + 1)..row_end {
            let factor = a[row * n + col] * inv;
            a[row * n + col] = factor;
            if factor == 0.0 {
                continue;
            }
            for k in (col + 1)..row_end {
                a[row * n + k] -= factor * a[col * n + k];
            }
        }
    }
    true
}

/// Solve `A·x = b` in place given a factorization from
/// [`factor_banded`]; `b` holds the solution on return.
#[cfg(test)]
pub(crate) fn solve_factored(a: &[f64], b: &mut [f64], n: usize, bw: usize) {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    // Forward-eliminate b with the stored multipliers.
    for col in 0..n {
        let row_end = (col + bw + 1).min(n);
        for row in (col + 1)..row_end {
            let factor = a[row * n + col];
            if factor != 0.0 {
                b[row] -= factor * b[col];
            }
        }
    }
    // Back substitution.
    for row in (0..n).rev() {
        let k_end = (row + bw + 1).min(n);
        let mut sum = b[row];
        for k in (row + 1)..k_end {
            sum -= a[row * n + k] * b[k];
        }
        b[row] = sum / a[row * n + row];
    }
}

// ---------------------------------------------------- packed band storage
//
// The band of an `n×n` matrix with half-bandwidth `bw` is stored as
// `n` contiguous rows of width `2·bw + 1`: entry `(i, j)` (with
// `|i − j| ≤ bw`) lives at `i·(2·bw + 1) + bw + j − i`. For the
// chain-structured MNA systems this solver sees (bw of 1–3, n of
// 50–100+) the packed form is 10–30× smaller than the dense square,
// so the per-refactor copy and zeroing shrink by the same factor, and
// every elimination/back-substitution inner loop walks two contiguous
// slices the compiler can keep in registers or vectorize. The
// arithmetic replays the dense-band kernels' exact operation
// sequence, so solutions are bit-identical (asserted in the tests
// below).
//
// Each entry is an `[f64; N]` lane: the same matrix slot of `N`
// independent, identically-structured systems, contiguous in memory.
// Every inner loop then walks contiguous lanes with no shuffles or
// gathers, which is exactly the shape LLVM's autovectorizer turns into
// packed SIMD at `N = LANES` (`mulpd`/`subpd` at the SSE2 baseline,
// `vfmadd...pd` with AVX2 enabled); `scripts/check.sh` checks the
// disassembly of [`factor_band_lanes`] for packed instructions on
// x86_64. Lanes never mix, so lane `l` of every output is
// bit-identical to factoring lane `l`'s system alone.

/// Row width of the packed band layout for half-bandwidth `bw`.
pub(crate) fn band_width(bw: usize) -> usize {
    2 * bw + 1
}

/// Smallest pivot magnitude the no-pivot elimination accepts.
const PIVOT_MIN: f64 = 1e-300;

/// In-place LU factorization of `N` packed band matrices (`a` has
/// length `n · (2·bw + 1)`): Gaussian elimination without pivoting,
/// each multiplier stored in the position it zeroes — per lane the
/// exact operation sequence of `factor_banded` on dense storage.
///
/// Returns a per-lane success mask. A lane whose pivot magnitude drops
/// below [`PIVOT_MIN`] is marked `false` and its multipliers for that
/// column are forced to zero, so the elimination stays finite in every
/// lane; the failed lane's factors are garbage and the caller must not
/// use them. Once every lane has failed the factorization stops.
///
/// The one-lane instantiation skips the row update of a zero
/// multiplier (a scalar branch is cheaper than the multiply-subtract);
/// the lane-wide one stays branch-free for SIMD.
#[inline(always)]
pub(crate) fn factor_band<const N: usize>(a: &mut [[f64; N]], n: usize, bw: usize) -> [bool; N] {
    let w = band_width(bw);
    debug_assert_eq!(a.len(), n * w);
    let mut ok = [true; N];
    for col in 0..n {
        let pivot = a[col * w + bw];
        let mut inv = [0.0; N];
        for l in 0..N {
            if pivot[l].abs() < PIVOT_MIN {
                ok[l] = false;
            } else {
                inv[l] = 1.0 / pivot[l];
            }
        }
        if ok == [false; N] {
            return ok;
        }
        let row_end = (col + bw + 1).min(n);
        let len = row_end - (col + 1);
        let (head, tail) = a.split_at_mut((col + 1) * w);
        let crow = &head[col * w..];
        let src = &crow[bw + 1..bw + 1 + len];
        for (r, rrow) in tail.chunks_exact_mut(w).take(len).enumerate() {
            // Column `col` of matrix row `col + 1 + r` in packed form.
            let off = bw - (r + 1);
            let mut factor = [0.0; N];
            for l in 0..N {
                factor[l] = rrow[off][l] * inv[l];
            }
            rrow[off] = factor;
            if N == 1 && factor[0] == 0.0 {
                continue;
            }
            // Columns `col+1..row_end` are contiguous in both rows:
            // dst[k] -= factor * src[k], all lanes at once.
            let dst = &mut rrow[off + 1..off + 1 + len];
            for (d, s) in dst.iter_mut().zip(src) {
                for l in 0..N {
                    d[l] -= factor[l] * s[l];
                }
            }
        }
    }
    ok
}

/// [`factor_band`] at the batch width, as one standalone symbol: the
/// lane-batched solver factors through it, and the CI disassembly
/// check looks for packed double arithmetic in its body.
#[inline(never)]
pub(crate) fn factor_band_lanes(a: &mut [Lane], n: usize, bw: usize) -> [bool; LANES] {
    factor_band(a, n, bw)
}

/// Solve `A·x = b` in place in every lane given a factorization from
/// [`factor_band`]; `b` holds the solutions on return. Per lane the
/// operation sequence of `solve_factored`. Lanes whose factorization
/// failed produce garbage (possibly non-finite) in their own lane only.
pub(crate) fn solve_band<const N: usize>(a: &[[f64; N]], b: &mut [[f64; N]], n: usize, bw: usize) {
    let w = band_width(bw);
    debug_assert_eq!(a.len(), n * w);
    debug_assert_eq!(b.len(), n);
    // Forward-eliminate b with the stored multipliers.
    for col in 0..n {
        let row_end = (col + bw + 1).min(n);
        let bc = b[col];
        for row in (col + 1)..row_end {
            let factor = a[row * w + bw - (row - col)];
            if N == 1 && factor[0] == 0.0 {
                continue;
            }
            for l in 0..N {
                b[row][l] -= factor[l] * bc[l];
            }
        }
    }
    // Back substitution: the superdiagonal of each row and the matching
    // stretch of `b` are both contiguous.
    for row in (0..n).rev() {
        let k_end = (row + bw + 1).min(n);
        let len = k_end - (row + 1);
        let arow = &a[row * w..(row + 1) * w];
        let mut sum = b[row];
        for (ak, bk) in arow[bw + 1..bw + 1 + len].iter().zip(&b[row + 1..k_end]) {
            for l in 0..N {
                sum[l] -= ak[l] * bk[l];
            }
        }
        for l in 0..N {
            b[row][l] = sum[l] / arow[bw][l];
        }
    }
}

#[cfg(test)]
mod packed_tests {
    use super::*;

    /// Pack the band of a dense row-major matrix into one-lane entries.
    fn pack(a: &[f64], n: usize, bw: usize) -> Vec<[f64; 1]> {
        let w = band_width(bw);
        let mut p = vec![[0.0]; n * w];
        for i in 0..n {
            for j in i.saturating_sub(bw)..(i + bw + 1).min(n) {
                p[i * w + bw + j - i] = [a[i * n + j]];
            }
        }
        p
    }

    fn one_lane(xs: &[f64]) -> Vec<[f64; 1]> {
        xs.iter().map(|&x| [x]).collect()
    }

    /// Lane `l` of every entry of `lanes`, one-lane again.
    fn lane_of(lanes: &[Lane], l: usize) -> Vec<[f64; 1]> {
        lanes.iter().map(|x| [x[l]]).collect()
    }

    /// Interleave `LANES` one-lane vectors entry by entry.
    fn interleave(each: &[Vec<[f64; 1]>]) -> Vec<Lane> {
        (0..each[0].len())
            .map(|i| std::array::from_fn(|l| each[l][i][0]))
            .collect()
    }

    /// Deterministic diagonally dominant band matrix with varied
    /// off-diagonal structure (not symmetric, some in-band zeros).
    fn band_system(n: usize, bw: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut seed = seed;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in i.saturating_sub(bw)..(i + bw + 1).min(n) {
                if i == j {
                    a[i * n + j] = 4.0 + rnd().abs();
                } else if (i + j) % 5 != 0 {
                    a[i * n + j] = rnd();
                }
            }
        }
        let b: Vec<f64> = (0..n).map(|i| rnd() * 3.0 + i as f64 * 0.1).collect();
        (a, b)
    }

    const SHAPES: [(usize, usize); 6] = [(3, 1), (10, 1), (40, 1), (12, 2), (40, 3), (7, 6)];

    #[test]
    fn packed_factor_solve_bit_identical_to_dense_band() {
        for (n, bw) in SHAPES {
            let (a, b) = band_system(n, bw, 0x9e3779b97f4a7c15);
            // Dense-band reference.
            let mut lu_ref = a.clone();
            assert!(factor_banded(&mut lu_ref, n, bw), "n={n} bw={bw}");
            let mut x_ref = b.clone();
            solve_factored(&lu_ref, &mut x_ref, n, bw);
            // Packed kernels.
            let mut lu_p = pack(&a, n, bw);
            assert_eq!(factor_band(&mut lu_p, n, bw), [true], "n={n} bw={bw}");
            assert_eq!(lu_p, pack(&lu_ref, n, bw), "factor n={n} bw={bw}");
            let mut x_p = one_lane(&b);
            solve_band(&lu_p, &mut x_p, n, bw);
            for i in 0..n {
                assert_eq!(
                    x_ref[i].to_bits(),
                    x_p[i][0].to_bits(),
                    "solution n={n} bw={bw} i={i}"
                );
            }
        }
    }

    #[test]
    fn packed_rejects_zero_pivot() {
        // [[0, 1], [1, 0]] packed with bw = 1.
        let mut a = one_lane(&[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
        assert_eq!(factor_band(&mut a, 2, 1), [false]);
    }

    #[test]
    fn packed_bandwidth_zero_is_diagonal_solve() {
        let mut a = one_lane(&[2.0, 4.0, 8.0]);
        assert_eq!(factor_band(&mut a, 3, 0), [true]);
        let mut b = one_lane(&[2.0, 8.0, 32.0]);
        solve_band(&a, &mut b, 3, 0);
        assert_eq!(b, one_lane(&[1.0, 2.0, 4.0]));
    }

    /// Every lane of the batch-width kernels equals the one-lane
    /// kernels on that lane's system alone, bit for bit.
    #[test]
    fn lane_factor_solve_bit_identical_per_lane() {
        for (n, bw) in SHAPES {
            let systems: Vec<(Vec<f64>, Vec<f64>)> = (0..LANES as u64)
                .map(|l| band_system(n, bw, 0x9e3779b97f4a7c15 ^ (l * 0x1234_5678)))
                .collect();
            let mats: Vec<Vec<[f64; 1]>> = systems.iter().map(|(a, _)| pack(a, n, bw)).collect();
            let rhss: Vec<Vec<[f64; 1]>> = systems.iter().map(|(_, b)| one_lane(b)).collect();

            let mut lanes_a = interleave(&mats);
            let ok = factor_band_lanes(&mut lanes_a, n, bw);
            assert_eq!(ok, [true; LANES], "n={n} bw={bw}");
            let mut lanes_b = interleave(&rhss);
            solve_band(&lanes_a, &mut lanes_b, n, bw);

            for l in 0..LANES {
                let mut lu_ref = mats[l].clone();
                assert_eq!(factor_band(&mut lu_ref, n, bw), [true]);
                let mut x_ref = rhss[l].clone();
                solve_band(&lu_ref, &mut x_ref, n, bw);
                assert_eq!(
                    lane_of(&lanes_a, l),
                    lu_ref,
                    "factor n={n} bw={bw} lane={l}"
                );
                assert_eq!(lane_of(&lanes_b, l), x_ref, "solve n={n} bw={bw} lane={l}");
            }
        }
    }

    #[test]
    fn singular_lane_is_masked_without_disturbing_siblings() {
        let (n, bw) = (12usize, 2usize);
        let systems: Vec<(Vec<f64>, Vec<f64>)> = (0..LANES as u64)
            .map(|l| band_system(n, bw, 0xdead_beef ^ (l * 77)))
            .collect();
        let mut mats: Vec<Vec<[f64; 1]>> = systems.iter().map(|(a, _)| pack(a, n, bw)).collect();
        let rhss: Vec<Vec<[f64; 1]>> = systems.iter().map(|(_, b)| one_lane(b)).collect();
        // Make lane 2 singular: zero its band rows 3..6 so elimination
        // cannot rescue the pivot.
        let w = band_width(bw);
        let bad = 2usize;
        for x in &mut mats[bad][3 * w..6 * w] {
            *x = [0.0];
        }

        let mut lanes_a = interleave(&mats);
        let ok = factor_band_lanes(&mut lanes_a, n, bw);
        for (l, &is_ok) in ok.iter().enumerate() {
            assert_eq!(is_ok, l != bad, "lane {l} mask");
        }
        let mut lanes_b = interleave(&rhss);
        solve_band(&lanes_a, &mut lanes_b, n, bw);
        // Healthy lanes still match their solo solve bit for bit.
        for l in (0..LANES).filter(|&l| l != bad) {
            let mut lu_ref = mats[l].clone();
            assert_eq!(factor_band(&mut lu_ref, n, bw), [true]);
            let mut x_ref = rhss[l].clone();
            solve_band(&lu_ref, &mut x_ref, n, bw);
            assert_eq!(
                lane_of(&lanes_b, l),
                x_ref,
                "lane {l} disturbed by singular sibling"
            );
        }
    }
}

#[cfg(test)]
mod banded_tests {
    use super::*;

    fn tridiagonal(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        // Diagonally dominant tridiagonal system with known solution.
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 4.0;
            if i > 0 {
                a[i * n + i - 1] = -1.0;
            }
            if i + 1 < n {
                a[i * n + i + 1] = -1.0;
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            b[i] = (0..n).map(|j| a[i * n + j] * x_true[j]).sum();
        }
        (a, b, x_true)
    }

    #[test]
    fn banded_matches_dense() {
        for n in [3usize, 10, 40] {
            let (a, b, x_true) = tridiagonal(n);
            let mut a1 = a.clone();
            let mut b1 = b.clone();
            let banded = solve_banded(&mut a1, &mut b1, n, 1).unwrap();
            let mut a2 = a.clone();
            let mut dense = b.clone();
            assert!(solve_dense(&mut a2, &mut dense, n));
            for i in 0..n {
                assert!((banded[i] - x_true[i]).abs() < 1e-9, "n={n} i={i}");
                assert!((banded[i] - dense[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wider_band_than_needed_is_harmless() {
        let (mut a, mut b, x_true) = tridiagonal(12);
        let x = solve_banded(&mut a, &mut b, 12, 5).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_pivot_detected() {
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![1.0, 1.0];
        assert!(solve_banded(&mut a, &mut b, 2, 1).is_none());
    }

    #[test]
    fn factored_solve_is_bit_identical_to_combined() {
        for n in [3usize, 10, 40] {
            let (a, b, _) = tridiagonal(n);
            let mut a1 = a.clone();
            let mut b1 = b.clone();
            let combined = solve_banded(&mut a1, &mut b1, n, 1).unwrap();
            let mut lu = a.clone();
            assert!(factor_banded(&mut lu, n, 1));
            let mut x = b.clone();
            solve_factored(&lu, &mut x, n, 1);
            for i in 0..n {
                assert_eq!(combined[i].to_bits(), x[i].to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn factorization_reuse_across_rhs() {
        let (a, b, x_true) = tridiagonal(16);
        let mut lu = a.clone();
        assert!(factor_banded(&mut lu, 16, 1));
        // Solve twice with different right-hand sides from one factor.
        let mut x1 = b.clone();
        solve_factored(&lu, &mut x1, 16, 1);
        let b2: Vec<f64> = b.iter().map(|v| 2.0 * v).collect();
        let mut x2 = b2;
        solve_factored(&lu, &mut x2, 16, 1);
        for i in 0..16 {
            assert!((x1[i] - x_true[i]).abs() < 1e-9);
            assert!((x2[i] - 2.0 * x_true[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn factor_banded_rejects_zero_pivot() {
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        assert!(!factor_banded(&mut a, 2, 1));
    }
}
