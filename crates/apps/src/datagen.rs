//! Seeded synthetic data generators replacing the paper's datasets.
//!
//! | Paper dataset | Generator | Preserved property |
//! |---|---|---|
//! | Hadoop RandomWriter text (§6.1) | [`zipf_words`], [`zipf_text`] | key skew & distinct-key count |
//! | random 10-dim / Amazon 4096-dim vectors (§6.2) | [`labeled_vectors`] | dimensionality, cache/heap ratio |
//! | LiveJournal / webbase / HiBench graphs (§6.3) | [`power_law_graph`] | degree skew, edge/vertex ratio |
//! | Common Crawl rankings / uservisits (§6.6) | [`rankings`], [`uservisits`] | group-key cardinality |
//!
//! Everything is deterministic given a seed, so cross-mode result checks
//! and repeated benchmark runs compare identical inputs.

use deca_check::rng::{Rng, Xoshiro256StarStar};

use crate::records::{LabeledPointRec, RankingRec, UserVisitRec};

#[cfg(test)]
thread_local! {
    /// Generator calls made on this thread. The apps' unit tests read it
    /// around `job(&p)` and around a run of that job: a job description
    /// generates its dataset when it is built, never in its body.
    static CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Generator calls made on the current thread so far.
#[cfg(test)]
pub(crate) fn calls() -> usize {
    CALLS.with(|c| c.get())
}

#[inline]
fn count_call() {
    #[cfg(test)]
    CALLS.with(|c| c.set(c.get() + 1));
}

/// Greatest common divisor (for coprime permutation strides).
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A multiplication stride coprime to `n`, so `rank -> rank * stride % n`
/// is a bijection (used to de-correlate Zipf rank from id).
fn coprime_stride(n: usize) -> u64 {
    let n = n as u64;
    let mut stride = (n / 3).max(1) * 2 + 1;
    while gcd(stride, n) != 1 {
        stride += 2;
    }
    stride % n.max(1)
}

/// A table-based Zipf(s) sampler over `1..=n` (CDF + binary search; exact,
/// adequate for n up to a few million).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank in `0..n` (0 = most frequent).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u)
    }
}

/// Word-id stream with Zipf-distributed frequencies (the WC input; the
/// paper varies both size and distinct-key count). `distinct` is the key
/// universe, not the number of keys drawn: the skew leaves much of its
/// tail unsampled, so `(800 k, 400 k)` draws about 118 k distinct keys.
pub fn zipf_words(n: usize, distinct: usize, seed: u64) -> Vec<i64> {
    count_call();
    zipf_ids(n, distinct, seed).map(|id| id as i64).collect()
}

/// The ids [`zipf_words`] returns, drawn lazily.
fn zipf_ids(n: usize, distinct: usize, seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let zipf = Zipf::new(distinct, 1.05);
    // Permute ranks to ids so frequent keys are not consecutive.
    let stride = coprime_stride(distinct);
    (0..n).map(move |_| {
        let rank = zipf.sample(&mut rng) as u64;
        (rank.wrapping_mul(stride)) % distinct as u64
    })
}

/// Rendered text: every token's bytes back to back, and where each ends.
/// Only [`zipf_text`] builds one, so its ends never decrease and never pass
/// the end of the text.
pub struct Text {
    pub(crate) text: String,
    /// `ends[t]` is one past token `t`'s last byte; token `t` starts where
    /// token `t - 1` ends.
    pub(crate) ends: Vec<u32>,
}

/// The text-keyed WordCount input: [`zipf_words`]' ids, in order, each
/// rendered once by [`write_token`] into one buffer (as the paper's
/// WordCount reads text that already exists, §6.1).
pub fn zipf_text(n: usize, distinct: usize, seed: u64) -> Text {
    count_call();
    // About 12 bytes a token at 400 k ids: `w`, six digits, five pads.
    let mut text = String::with_capacity(n * 12);
    let mut ends = Vec::with_capacity(n);
    // Draw a batch of ids, then render it: the sampler's binary searches
    // overlap their cache misses only when they run back to back, and
    // interleaving each with its token's rendering made the whole call
    // about a third slower.
    let (mut ids, mut batch) = (zipf_ids(n, distinct, seed), Vec::with_capacity(4096));
    loop {
        batch.clear();
        batch.extend(ids.by_ref().take(4096));
        if batch.is_empty() {
            break;
        }
        for &id in &batch {
            write_token(&mut text, id);
            ends.push(text.len() as u32);
        }
    }
    assert!(u32::try_from(text.len()).is_ok(), "token ends are 32-bit offsets");
    Text { text, ends }
}

/// Append word `id`'s token to `out`: `w<id>` then `id % 11` × `x`, so
/// tokens vary in length as real words do.
pub(crate) fn write_token(out: &mut String, id: u64) {
    const PAD: &str = "xxxxxxxxxx";
    let mut digits = [0u8; 20];
    let (mut n, mut at) = (id, digits.len());
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push('w');
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
    out.push_str(&PAD[..(id % 11) as usize]);
}

/// `n` labeled dense vectors of dimension `d` (LR/KMeans input). Labels are
/// ±1; features are two noisy Gaussian-ish clusters so LR has signal.
pub fn labeled_vectors(n: usize, d: usize, seed: u64) -> Vec<LabeledPointRec> {
    count_call();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let label = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let features = (0..d)
                .map(|j| {
                    let center = label * if j % 2 == 0 { 0.5 } else { -0.25 };
                    center + rng.gen_range(-1.0..1.0)
                })
                .collect();
            LabeledPointRec { label, features }
        })
        .collect()
}

/// A power-law directed graph: `edges` edges over `vertices` vertices with
/// Zipf-skewed source and destination degrees (LiveJournal-like shape).
/// Returns an edge list.
pub fn power_law_graph(vertices: usize, edges: usize, seed: u64) -> Vec<(u32, u32)> {
    count_call();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let zipf = Zipf::new(vertices, 0.9);
    let stride = coprime_stride(vertices);
    let perm = |rank: usize| ((rank as u64 * stride) % vertices as u64) as u32;
    let mut out = Vec::with_capacity(edges);
    for _ in 0..edges {
        let src = perm(zipf.sample(&mut rng));
        let mut dst = perm(zipf.sample(&mut rng));
        if dst == src {
            dst = (dst + 1) % vertices as u32;
        }
        out.push((src, dst));
    }
    out
}

/// `rankings(n)` rows: pageRank Zipf-ish in 0..1000.
pub fn rankings(n: usize, seed: u64) -> Vec<RankingRec> {
    count_call();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n)
        .map(|i| RankingRec {
            url_id: i as i64,
            page_rank: (1000.0 / (1.0 + rng.gen_f64() * 99.0)) as i32,
            avg_duration: rng.gen_range(1..100),
        })
        .collect()
}

/// `uservisits(n)` rows: `groups` distinct sourceIP prefixes (the Query 2
/// GROUP BY cardinality), revenue uniform.
pub fn uservisits(n: usize, groups: usize, seed: u64) -> Vec<UserVisitRec> {
    count_call();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n)
        .map(|_| UserVisitRec {
            ip_prefix: rng.gen_range(0..groups as i64),
            url_id: rng.gen_range(0..1_000_000),
            ad_revenue: rng.gen_range(0.0..1.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn zipf_is_skewed_and_seeded() {
        let a = zipf_words(50_000, 1000, 42);
        let b = zipf_words(50_000, 1000, 42);
        assert_eq!(a, b, "deterministic for equal seeds");
        let c = zipf_words(50_000, 1000, 43);
        assert_ne!(a, c);

        let mut freq: HashMap<i64, usize> = HashMap::new();
        for w in &a {
            *freq.entry(*w).or_insert(0) += 1;
        }
        let mut counts: Vec<usize> = freq.values().copied().collect();
        counts.sort_unstable_by(|x, y| y.cmp(x));
        assert!(counts[0] > 10 * counts[counts.len() / 2], "head much heavier than median");
        assert!(freq.len() <= 1000);
        assert!(freq.len() > 500, "most keys appear");
    }

    /// FNV-1a over a byte stream: a stable fingerprint for golden tests.
    fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Golden checksums: the generators are part of the experimental
    /// record (EXPERIMENTS.md compares runs across PRs), so their output
    /// for a fixed seed must never drift — not across platforms, and not
    /// when the PRNG or samplers are "improved".
    #[test]
    fn generator_outputs_match_golden_checksums() {
        let words = zipf_words(10_000, 500, 42);
        let wc = fnv1a(words.iter().flat_map(|w| w.to_le_bytes()));
        assert_eq!(wc, 0x03d6c9c61dc2d4a3, "zipf_words(10000, 500, 42) drifted");

        let vecs = labeled_vectors(200, 8, 7);
        let vc = fnv1a(vecs.iter().flat_map(|p| {
            p.label.to_le_bytes().into_iter().chain(p.features.iter().flat_map(|f| f.to_le_bytes()))
        }));
        assert_eq!(vc, 0xde78e031eb106daf, "labeled_vectors(200, 8, 7) drifted");

        let graph = power_law_graph(1000, 5_000, 1);
        let gc = fnv1a(
            graph.iter().flat_map(|(s, d)| s.to_le_bytes().into_iter().chain(d.to_le_bytes())),
        );
        assert_eq!(gc, 0xee96e6310686d07e, "power_law_graph(1000, 5000, 1) drifted");

        let visits = uservisits(1_000, 50, 4);
        let uc = fnv1a(visits.iter().flat_map(|u| {
            u.ip_prefix
                .to_le_bytes()
                .into_iter()
                .chain(u.url_id.to_le_bytes())
                .chain(u.ad_revenue.to_le_bytes())
        }));
        assert_eq!(uc, 0xca44f7e6695176b2, "uservisits(1000, 50, 4) drifted");
    }

    /// The rendered text, cut as the text WordCount cuts it, is exactly
    /// each id's token over `zipf_words`' stream, in partition order.
    #[test]
    fn rendered_partitions_are_the_tokens_of_the_word_stream() {
        for (n, distinct, parts) in [(10_000, 500, 3), (7, 5, 4), (0, 1, 2), (2_001, 200_000, 4)] {
            let words = crate::Partitioned::split(zipf_words(n, distinct, 42), parts);
            let text = crate::PartitionedText::split(zipf_text(n, distinct, 42), parts);
            assert_eq!(text.parts(), parts);
            for p in 0..parts {
                let mut want = Vec::new();
                for &id in words.part(p) {
                    let mut token = String::new();
                    write_token(&mut token, id as u64);
                    want.push(token);
                }
                let got: Vec<&str> = text.part(p).collect();
                assert_eq!(got, want, "n={n} distinct={distinct} partition {p}");
            }
        }
    }

    #[test]
    fn vectors_have_requested_shape() {
        let v = labeled_vectors(100, 10, 7);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|p| p.features.len() == 10));
        assert!(v.iter().all(|p| p.label == 1.0 || p.label == -1.0));
        assert!(v.iter().any(|p| p.label == 1.0) && v.iter().any(|p| p.label == -1.0));
    }

    #[test]
    fn permutation_strides_are_bijective() {
        for n in [3usize, 10, 1000, 15999, 16000, 16001, 300_000] {
            let stride = coprime_stride(n);
            assert_eq!(gcd(stride, n as u64), 1, "n={n}");
            assert_ne!(stride % n as u64, 0, "n={n}");
            // Spot-check bijectivity on small n.
            if n <= 1000 {
                let mut seen = vec![false; n];
                for r in 0..n {
                    let id = (r as u64 * stride % n as u64) as usize;
                    assert!(!seen[id], "collision at n={n}, rank={r}");
                    seen[id] = true;
                }
            }
        }
    }

    #[test]
    fn graph_with_power_of_ten_vertices_is_not_degenerate() {
        // Regression: vertices=16000 once collapsed all ranks to vertex 0.
        let g = power_law_graph(16_000, 100_000, 1);
        let mut deg = vec![0usize; 16_000];
        for &(s, _) in &g {
            deg[s as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        assert!(max < 20_000, "hub degree {max} implies a degenerate permutation");
        let nonzero = deg.iter().filter(|&&d| d > 0).count();
        assert!(nonzero > 1_000, "sources must spread over many vertices");
    }

    #[test]
    fn graph_degrees_are_skewed() {
        let g = power_law_graph(1000, 20_000, 1);
        assert_eq!(g.len(), 20_000);
        assert!(g.iter().all(|&(s, d)| s < 1000 && d < 1000 && s != d));
        let mut deg = vec![0usize; 1000];
        for &(s, _) in &g {
            deg[s as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        let med = {
            let mut d = deg.clone();
            d.sort_unstable();
            d[500]
        };
        assert!(max > 5 * med.max(1), "power-law head: max {max}, median {med}");
    }

    #[test]
    fn tables_and_partitioning() {
        let r = rankings(1000, 3);
        assert!(r.iter().all(|x| x.page_rank >= 10 && x.page_rank <= 1000));
        let u = uservisits(1000, 50, 4);
        assert!(u.iter().all(|x| x.ip_prefix < 50));

        let parts = crate::Partitioned::split(r, 4);
        assert_eq!(parts.parts(), 4);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 1000);
        let single = crate::Partitioned::split(u, 1);
        assert_eq!(single.part(0).len(), 1000);
    }
}
