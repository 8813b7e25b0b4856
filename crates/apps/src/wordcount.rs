//! WordCount (§6.1, Figure 8): two stages, one job, no cache, aggregated
//! (hash-based, eagerly-combined) shuffle.
//!
//! In Spark mode, every input word emits a temporary `Tuple2` object graph
//! that dies after the combiner consumes it, and every combine allocates a
//! fresh boxed count — the object churn whose census Figure 8(a) plots. In
//! Deca mode the combiner reuses the aggregate value's page segment in
//! place (§4.3.2) and the shuffle write is a raw byte copy.
//!
//! The job is described once as an [`AppJob`] ([`job`] for the integer-id
//! input, [`text_job`] for text tokens): one map task per partition, an
//! all-to-all exchange, one reduce task per partition. The same
//! description runs standalone ([`run_local`]) or submitted to a
//! [`deca_engine::DecaServer`], with bit-identical results for any
//! executor count (the word checksums are integer-valued f64 sums, exact
//! under any addition order).
//!
//! The description owns its input: [`job`] generates the word-id stream
//! and [`text_job`] the rendered text once, when they are called, and every
//! run of the description — and every retried or stolen map task in it —
//! borrows its partition from that shared buffer (see the crate docs). The
//! text exists before the job runs, as the paper's input file does, so no
//! map task renders a token.

use std::marker::PhantomData;

use deca_engine::record::HeapRecord;
use deca_engine::{AppJob, ExecutionMode, ExecutorConfig};

use crate::combine::{self, IntKeys, Shuffle, TextKeys};
use crate::datagen;
use crate::report::AppReport;
use crate::{Partitioned, PartitionedText};

/// Parameters of one WordCount run.
#[derive(Clone, Debug)]
pub struct WcParams {
    pub words: usize,
    pub distinct: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub mode: ExecutionMode,
    pub seed: u64,
    /// Sample the Tuple2 lifetime timeline every this many records
    /// (0 = off). Drives Figure 8(a).
    pub sample_every: usize,
}

impl WcParams {
    pub fn small(mode: ExecutionMode) -> WcParams {
        WcParams {
            words: 200_000,
            distinct: 10_000,
            partitions: 4,
            heap_bytes: 24 << 20,
            mode,
            seed: 20160901,
            sample_every: 0,
        }
    }
}

/// The executor configuration WordCount runs under (public so the
/// scheduler-equivalence tests can build sessions with the exact same
/// memory split, then vary retry policy and scheduler mode).
pub fn wc_config(params: &WcParams) -> ExecutorConfig {
    ExecutorConfig::new(params.mode, params.heap_bytes).storage_fraction(0.2)
}

/// The WordCount job description: consumed by `DecaServer::submit`
/// (via `JobSpec::app`) and by the local shims below. WordCount's tasks
/// depend only on `(task index, partition data)` — never on cross-stage
/// executor-local state — so retried or stolen tasks may migrate freely.
///
/// Each map task inserts a `(word, 1)` pair per word: a temporary `Tuple2`
/// in the Spark modes, raw bytes in Deca, which never instantiates one (it
/// registers the class all the same, so the census counts the same
/// class). The timeline is sampled after every `sample_every` words.
pub fn job(params: &WcParams) -> AppJob {
    let p = params.clone();
    let parts = word_ids(params);
    AppJob::new("WC", move |ctx| {
        let shuffle = Shuffle {
            name: "wc",
            keys: PhantomData::<IntKeys>,
            mode: p.mode,
            partitions: parts.parts(),
            partition: combine::modulo,
            combine: |a: i64, b: i64| a + b,
            sizes: None,
        };
        let sums = shuffle.run(
            ctx,
            |ctx, e, table| {
                let tuple = <(i64, i64) as HeapRecord>::register(&mut e.heap).tuple;
                let words = parts.part(ctx.task);
                let every = if p.sample_every == 0 { usize::MAX } else { p.sample_every };
                for words in words.chunks(every) {
                    table.insert_all(e, words.iter().map(|&w| (w, 1)))?;
                    if p.sample_every != 0 {
                        e.sample_timeline(tuple);
                    }
                }
                Ok(())
            },
            |sum: &mut f64, k: i64, v: i64| *sum += (k as f64 + 1.0) * v as f64,
        )?;
        Ok(sums.into_iter().sum())
    })
}

/// The job's input: the Zipf word-id stream cut into map partitions.
fn word_ids(p: &WcParams) -> Partitioned<i64> {
    Partitioned::split(datagen::zipf_words(p.words, p.distinct, p.seed), p.partitions)
}

/// Run WordCount across `executors` parallel executors. Results are
/// bit-identical for any executor count (tasks are pinned round-robin and
/// the exchange preserves map-task order).
pub fn run_local(params: &WcParams, executors: usize) -> AppReport {
    crate::run_job_local(&job(params), wc_config(params), executors)
}

// =====================================================================
// Text-keyed WordCount (the paper's actual input is text): exercises the
// variable-size-key shuffle with its mandatory pointer array (§4.3.2).
// =====================================================================

/// The text-keyed WordCount job description. Its input is text, rendered
/// once when the description is built ([`datagen::zipf_text`]); the map
/// tasks read their tokens out of it and render nothing. Spark mode
/// materialises each token as a `java.lang.String` + `char[]` graph (what
/// `textFile().flatMap(split)` produces) and the buffer holds String keys;
/// Deca mode streams the borrowed token bytes into key segments framed in
/// pages behind a pointer array. Asked for a timeline, the map samples the
/// live `String` count after every `sample_every` tokens, as [`job`]
/// samples `Tuple2`s; otherwise it inserts its partition in one pass.
pub fn text_job(params: &WcParams) -> AppJob {
    let p = params.clone();
    let parts = PartitionedText::split(
        datagen::zipf_text(params.words, params.distinct, params.seed),
        params.partitions,
    );
    AppJob::new("WC-text", move |ctx| {
        let shuffle = Shuffle {
            name: "wct",
            keys: PhantomData::<TextKeys>,
            mode: p.mode,
            partitions: parts.parts(),
            partition: text_partition,
            combine: |a: i64, b: i64| a + b,
            sizes: None,
        };
        let sums = shuffle.run(
            ctx,
            |ctx, e, table| {
                let pairs = parts.part(ctx.task).map(|token| (token, 1));
                if p.sample_every == 0 {
                    return table.insert_all(e, pairs);
                }
                let string = <String as HeapRecord>::register(&mut e.heap).string;
                let mut pairs = pairs.peekable();
                while pairs.peek().is_some() {
                    table.insert_all(e, pairs.by_ref().take(p.sample_every))?;
                    e.sample_timeline(string);
                }
                Ok(())
            },
            |sum: &mut f64, k: &[u8], v: i64| *sum += text_checksum(k, v),
        )?;
        Ok(sums.into_iter().sum())
    })
}

/// A token's reducer: its length plus its first digit, mod `reducers`.
fn text_partition(word: &[u8], reducers: usize) -> usize {
    (word.len() + word[1] as usize) % reducers
}

fn text_checksum(word: &[u8], count: i64) -> f64 {
    (word.len() as f64 + word[1] as f64) * count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mode: ExecutionMode) -> WcParams {
        WcParams {
            words: 20_000,
            distinct: 500,
            partitions: 3,
            heap_bytes: 16 << 20,
            mode,
            seed: 7,
            sample_every: 0,
        }
    }

    #[test]
    fn spark_and_deca_agree() {
        let spark = run_local(&tiny(ExecutionMode::Spark), 1);
        let deca = run_local(&tiny(ExecutionMode::Deca), 1);
        assert_eq!(spark.checksum, deca.checksum, "same aggregation result");
        assert!(spark.checksum > 0.0);
    }

    #[test]
    fn text_mode_agrees_across_spark_and_deca() {
        let text = |mode| {
            let p = tiny(mode);
            crate::run_job_local(&text_job(&p), wc_config(&p), 1)
        };
        let spark = text(ExecutionMode::Spark);
        let deca = text(ExecutionMode::Deca);
        assert_eq!(spark.checksum, deca.checksum);
        assert!(spark.checksum > 0.0);
    }

    #[test]
    fn token_format_is_the_benchmark_oracles() {
        let mut text = String::from("earlier tokens|");
        for id in [0u64, 7, 10, 11, 99, 12_345, 399_999] {
            text.truncate("earlier tokens|".len());
            datagen::write_token(&mut text, id);
            let want = format!("earlier tokens|w{}{}", id, "x".repeat((id % 11) as usize));
            assert_eq!(text, want, "id {id}");
        }
    }

    /// The benchmark's oracle: `text_job`'s per-occurrence checksum term
    /// computed from the word id alone (token length plus the id's leading
    /// digit).
    fn id_only_text_checksum(words: &[i64]) -> f64 {
        let term = |id: i64| {
            let (mut digits, mut lead) = (1, id);
            while lead >= 10 {
                lead /= 10;
                digits += 1;
            }
            (1 + digits + id % 11 + i64::from(b'0') + lead) as f64
        };
        words.iter().map(|&id| term(id)).sum()
    }

    #[test]
    fn text_checksum_is_the_id_only_oracle_in_every_mode_and_width() {
        let oracle = {
            let p = tiny(ExecutionMode::Deca);
            id_only_text_checksum(&datagen::zipf_words(p.words, p.distinct, p.seed))
        };
        for mode in ExecutionMode::ALL {
            let p = tiny(mode);
            let app = text_job(&p);
            for width in [1, 2] {
                let got = crate::run_job_local(&app, wc_config(&p), width).checksum;
                assert_eq!(got.to_bits(), oracle.to_bits(), "{mode} at width {width}");
            }
        }
    }

    /// Rendering is `datagen::zipf_text`, a counted generator call, so a
    /// run that made no generator call rendered no token either.
    #[test]
    fn the_description_generates_its_input_once_and_runs_never_do() {
        let p = tiny(ExecutionMode::Deca);
        crate::assert_description_owns_its_input(|| job(&p), wc_config(&p), 1);
        crate::assert_description_owns_its_input(|| text_job(&p), wc_config(&p), 1);
    }

    #[test]
    fn spark_mode_churns_objects_deca_does_not() {
        let mut p = tiny(ExecutionMode::Spark);
        p.sample_every = 1000;
        let spark = run_local(&p, 1);
        let mut p = tiny(ExecutionMode::Deca);
        p.sample_every = 1000;
        let deca = run_local(&p, 1);
        assert!(
            spark.timeline.peak_live() > 100,
            "Spark: temporary tuples populate the heap (peak {})",
            spark.timeline.peak_live()
        );
        assert_eq!(deca.timeline.peak_live(), 0, "Deca: no Tuple2 is ever instantiated");
    }

    /// A text run asked for a timeline samples it in every mode, after
    /// each chunk of tokens, and the chunking leaves the checksum alone.
    /// The Spark modes' tables hold `String` keys; Deca makes none.
    #[test]
    fn text_timeline_is_sampled_in_every_mode_without_moving_the_checksum() {
        for mode in ExecutionMode::ALL {
            let run = |sample_every| {
                let p = WcParams { sample_every, ..tiny(mode) };
                crate::run_job_local(&text_job(&p), wc_config(&p), 1)
            };
            let (plain, sampled) = (run(0), run(1000));
            assert!(plain.timeline.samples.is_empty(), "{mode}: no timeline unless asked");
            assert!(!sampled.timeline.samples.is_empty(), "{mode}: the timeline was asked for");
            let strings = sampled.timeline.peak_live() > 0;
            assert_eq!(strings, mode != ExecutionMode::Deca, "{mode}: String keys live");
            assert_eq!(sampled.checksum.to_bits(), plain.checksum.to_bits(), "{mode}");
        }
    }

    #[test]
    fn executor_count_does_not_change_results() {
        for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
            let one = run_local(&tiny(mode), 1);
            let four = run_local(&tiny(mode), 4);
            assert_eq!(one.checksum, four.checksum, "{mode}");
        }
    }
}
