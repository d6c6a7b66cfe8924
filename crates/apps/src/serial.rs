//! Serial reference implementations — the oracles the distributed
//! engines are differentially tested against, and the "serial version"
//! the paper compares line counts with (§I).

use crate::knapsack::Item;
use crate::mtp::edge_weight;
use crate::swlag::Scoring;

/// Full Smith-Waterman H matrix with a linear gap penalty.
pub fn smith_waterman_linear(a: &[u8], b: &[u8], sc: &Scoring) -> Vec<Vec<i32>> {
    let (m, n) = (a.len(), b.len());
    let mut h = vec![vec![0i32; n + 1]; m + 1];
    for i in 1..=m {
        for j in 1..=n {
            let s = sc.similarity(a[i - 1], b[j - 1]);
            h[i][j] = 0
                .max(h[i - 1][j - 1] + s)
                .max(h[i - 1][j] + sc.gap_open)
                .max(h[i][j - 1] + sc.gap_open);
        }
    }
    h
}

/// Full Gotoh (affine-gap) H matrix.
pub fn smith_waterman_affine(a: &[u8], b: &[u8], sc: &Scoring) -> Vec<Vec<i32>> {
    const NEG_INF: i32 = i32::MIN / 4;
    let (m, n) = (a.len(), b.len());
    let mut h = vec![vec![0i32; n + 1]; m + 1];
    let mut e = vec![vec![NEG_INF; n + 1]; m + 1];
    let mut f = vec![vec![NEG_INF; n + 1]; m + 1];
    for i in 1..=m {
        for j in 1..=n {
            e[i][j] = (h[i][j - 1] + sc.gap_open).max(e[i][j - 1] + sc.gap_extend);
            f[i][j] = (h[i - 1][j] + sc.gap_open).max(f[i - 1][j] + sc.gap_extend);
            let s = sc.similarity(a[i - 1], b[j - 1]);
            h[i][j] = 0.max(h[i - 1][j - 1] + s).max(e[i][j]).max(f[i][j]);
        }
    }
    h
}

/// Full Manhattan-Tourist matrix with the same hashed edge weights as
/// [`crate::MtpApp`].
pub fn manhattan_tourist(height: u32, width: u32, seed: u64) -> Vec<Vec<i64>> {
    let mut d = vec![vec![0i64; width as usize]; height as usize];
    for i in 0..height {
        for j in 0..width {
            if i == 0 && j == 0 {
                continue;
            }
            let mut best = i64::MIN;
            if i > 0 {
                best =
                    best.max(d[(i - 1) as usize][j as usize] + edge_weight(seed, i - 1, j, i, j));
            }
            if j > 0 {
                best =
                    best.max(d[i as usize][(j - 1) as usize] + edge_weight(seed, i, j - 1, i, j));
            }
            d[i as usize][j as usize] = best;
        }
    }
    d
}

/// Longest palindromic subsequence length.
pub fn lps(text: &[u8]) -> u32 {
    let d = lps_table(text);
    d.first().map_or(0, |row| row[text.len() - 1])
}

/// Longest palindromic subsequence length of every interval: `d[i][j]`
/// for `text[i..=j]`, zero below the diagonal.
pub fn lps_table(text: &[u8]) -> Vec<Vec<u32>> {
    let n = text.len();
    let mut d = vec![vec![0u32; n]; n];
    for i in (0..n).rev() {
        d[i][i] = 1;
        for j in i + 1..n {
            d[i][j] = if text[i] == text[j] {
                if j == i + 1 {
                    2
                } else {
                    d[i + 1][j - 1] + 2
                }
            } else {
                d[i + 1][j].max(d[i][j - 1])
            };
        }
    }
    d
}

/// 0/1-Knapsack optimum.
pub fn knapsack(items: &[Item], capacity: u32) -> u64 {
    let mut row = vec![0u64; capacity as usize + 1];
    for item in items {
        for j in (item.weight..=capacity).rev() {
            row[j as usize] = row[j as usize].max(row[(j - item.weight) as usize] + item.value);
        }
    }
    row[capacity as usize]
}

/// LCS length.
pub fn lcs_len(a: &[u8], b: &[u8]) -> u32 {
    let (m, n) = (a.len(), b.len());
    let mut f = vec![vec![0u32; n + 1]; m + 1];
    for i in 1..=m {
        for j in 1..=n {
            f[i][j] = if a[i - 1] == b[j - 1] {
                f[i - 1][j - 1] + 1
            } else {
                f[i - 1][j].max(f[i][j - 1])
            };
        }
    }
    f[m][n]
}

/// Whether `needle` is a subsequence of `haystack`.
pub fn is_subsequence(needle: &[u8], haystack: &[u8]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|c| it.any(|h| h == c))
}

/// Levenshtein edit distance.
pub fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    let (m, n) = (a.len(), b.len());
    let mut prev: Vec<u32> = (0..=n as u32).collect();
    let mut cur = vec![0u32; n + 1];
    for i in 1..=m {
        cur[0] = i as u32;
        for j in 1..=n {
            let sub = prev[j - 1] + (a[i - 1] != b[j - 1]) as u32;
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Needleman-Wunsch global alignment score.
pub fn needleman_wunsch(a: &[u8], b: &[u8], matched: i32, mismatch: i32, gap: i32) -> i32 {
    let (m, n) = (a.len(), b.len());
    let mut prev: Vec<i32> = (0..=n as i32).map(|j| j * gap).collect();
    let mut cur = vec![0i32; n + 1];
    for i in 1..=m {
        cur[0] = i as i32 * gap;
        for j in 1..=n {
            let s = if a[i - 1] == b[j - 1] {
                matched
            } else {
                mismatch
            };
            cur[j] = (prev[j - 1] + s).max(prev[j] + gap).max(cur[j - 1] + gap);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n]
}

/// Nussinov base-pair maximisation (Watson-Crick + GU wobble, no
/// minimum loop).
pub fn nussinov(seq: &[u8]) -> u32 {
    use crate::extra::NussinovApp;
    let n = seq.len();
    let mut d = vec![vec![0u32; n]; n];
    for len in 1..n {
        for i in 0..n - len {
            let j = i + len;
            let mut best = 0;
            for k in i..j {
                best = best.max(d[i][k] + d[k + 1][j]);
            }
            if NussinovApp::pairs(seq[i], seq[j]) {
                let inner = if j >= i + 2 { d[i + 1][j - 1] } else { 0 };
                best = best.max(inner + 1);
            }
            d[i][j] = best;
        }
    }
    d[0][n - 1]
}

/// Least-Weight Subsequence table over the hashed decomposable weights
/// of [`crate::LwsApp`] — the brute O(n²) fold, no prefix aggregation.
pub fn lws(n: u32, seed: u64) -> Vec<u32> {
    use crate::lws::{f_weight, g_weight};
    let mut d = vec![0u32; n as usize];
    for j in 1..n {
        let best = (0..j)
            .map(|i| u64::from(d[i as usize]) + u64::from(f_weight(seed, i)))
            .min()
            .unwrap();
        d[j as usize] = (u64::from(g_weight(seed, j)) + best) as u32;
    }
    d
}

/// GAP table over the hashed decomposable penalties of
/// [`crate::GapApp`] — the brute O(hw·(h+w)) triple fold.
pub fn gap(h: u32, w: u32, seed: u64) -> Vec<Vec<u32>> {
    use crate::gap::{col_close, col_open, row_close, row_open, sub_cost};
    let mut g = vec![vec![0u32; w as usize]; h as usize];
    for i in 0..h {
        for j in 0..w {
            if i == 0 && j == 0 {
                continue;
            }
            let mut best = u64::MAX;
            if i > 0 && j > 0 {
                best = u64::from(g[(i - 1) as usize][(j - 1) as usize])
                    + u64::from(sub_cost(seed, i, j));
            }
            if j > 0 {
                let row = (0..j)
                    .map(|q| u64::from(g[i as usize][q as usize]) + u64::from(row_open(seed, q)))
                    .min()
                    .unwrap();
                best = best.min(u64::from(row_close(seed, j)) + row);
            }
            if i > 0 {
                let col = (0..i)
                    .map(|p| u64::from(g[p as usize][j as usize]) + u64::from(col_open(seed, p)))
                    .min()
                    .unwrap();
                best = best.min(u64::from(col_close(seed, i)) + col);
            }
            g[i as usize][j as usize] = best as u32;
        }
    }
    g
}

/// Matrix-chain multiplication optimum over `dims`.
pub fn matrix_chain(dims: &[u64]) -> u64 {
    let n = dims.len() - 1;
    let mut d = vec![vec![0u64; n]; n];
    for len in 1..n {
        for i in 0..n - len {
            let j = i + len;
            d[i][j] = (i..j)
                .map(|k| d[i][k] + d[k + 1][j] + dims[i] * dims[k + 1] * dims[j + 1])
                .min()
                .unwrap();
        }
    }
    d[0][n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sw_linear_known_alignment() {
        // Classic example: GGTTGACTA vs TGTTACGG peaks at 13 with
        // +3/−3/−2 scoring; with our +2/−1/−1 default just check
        // non-negativity and a self-alignment.
        let h = smith_waterman_linear(b"ACGT", b"ACGT", &Scoring::default());
        assert_eq!(h[4][4], 8);
        assert!(h.iter().flatten().all(|&v| v >= 0));
    }

    #[test]
    fn affine_never_beats_linear_with_equal_penalties() {
        // With gap_extend == gap_open the two models coincide.
        let sc = Scoring {
            matched: 2,
            mismatch: -1,
            gap_open: -1,
            gap_extend: -1,
        };
        let a = b"GATTACA";
        let b = b"GCATGCU";
        let lin = smith_waterman_linear(a, b, &sc);
        let aff = smith_waterman_affine(a, b, &sc);
        assert_eq!(lin, aff);
    }

    #[test]
    fn lps_base_cases() {
        assert_eq!(lps(b"A"), 1);
        assert_eq!(lps(b"AB"), 1);
        assert_eq!(lps(b"ABA"), 3);
        assert_eq!(lps(b"BBABCBCAB"), 7);
    }

    #[test]
    fn knapsack_greedy_trap() {
        // Greedy-by-value would take the 10; DP must take 6+5.
        let items = [
            Item {
                weight: 5,
                value: 10,
            },
            Item {
                weight: 3,
                value: 6,
            },
            Item {
                weight: 3,
                value: 5,
            },
        ];
        assert_eq!(knapsack(&items, 6), 11);
    }

    #[test]
    fn subsequence_checks() {
        assert!(is_subsequence(b"ACE", b"ABCDE"));
        assert!(!is_subsequence(b"AEC", b"ABCDE"));
        assert!(is_subsequence(b"", b"X"));
    }

    #[test]
    fn mtp_source_is_zero() {
        let d = manhattan_tourist(5, 5, 1);
        assert_eq!(d[0][0], 0);
        assert!(d[4][4] > 0);
    }
}
