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
//! The description owns its input: [`job`] and [`text_job`] generate the
//! word-id stream once, when they are called, and every run of the
//! description — and every retried or stolen map task in it — borrows its
//! partition from that shared buffer (see the crate docs).

use deca_core::{DecaHashShuffle, DecaRecord, DecaVarHashShuffle};
use deca_engine::record::{load_str_into, HeapRecord};
use deca_engine::{
    AppJob, EngineError, ExecutionMode, ExecutorConfig, JobCtx, MapOutputs, ShufflePayload,
    SparkHashShuffle,
};

use crate::datagen;
use crate::report::AppReport;
use crate::Partitioned;

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
pub fn job(params: &WcParams) -> AppJob {
    let p = params.clone();
    let parts = word_ids(params);
    AppJob::new("WC", move |ctx| {
        let reducers = p.partitions;
        match p.mode {
            ExecutionMode::Spark | ExecutionMode::SparkSer => {
                run_spark(ctx, &parts, reducers, p.sample_every)
            }
            ExecutionMode::Deca => run_deca(ctx, &parts, reducers, p.sample_every),
        }
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

fn run_spark(
    ctx: &mut JobCtx,
    parts: &Partitioned<i64>,
    reducers: usize,
    sample_every: usize,
) -> Result<f64, EngineError> {
    let sums = ctx.run_shuffle_job(
        "wc",
        parts.parts(),
        reducers,
        // ------------------------------------------------------------- map
        // One map task per partition: eager map-side combining, then a
        // serialized shuffle write per reduce partition.
        |ctx, e| {
            let pair_classes = <(i64, i64) as HeapRecord>::register(&mut e.heap);
            let mut buf: SparkHashShuffle<i64, i64> = SparkHashShuffle::new(&mut e.heap)?;
            for (i, &word) in parts.part(ctx.task).iter().enumerate() {
                // The map UDF emits a Tuple2 that dies after combining.
                let tuple = (word, 1i64);
                let tobj = tuple.store(&mut e.heap, &pair_classes)?;
                let ts = e.heap.push_stack(tobj);
                let (k, v) =
                    <(i64, i64) as HeapRecord>::load(&e.heap, &pair_classes, e.heap.stack_ref(ts));
                e.heap.truncate_stack(ts);
                buf.insert(&mut e.heap, &k, v, |a, b| a + b)?;
                if sample_every != 0 && i % sample_every == 0 {
                    e.sample_timeline(pair_classes.tuple);
                }
            }
            // Shuffle write: Spark serializes combined pairs per reducer,
            // into pooled buffers reused across shuffle rounds.
            let out = e.shuffle_write_scope(|e| {
                let pairs = buf.drain(&e.heap);
                // ~2-byte tag + two small varints per pair; pre-size each
                // run near its share so the encode loop never reallocates.
                let cap = 8 * pairs.len().div_ceil(reducers);
                let mut out: Vec<Vec<u8>> =
                    (0..reducers).map(|_| e.take_shuffle_buf(cap)).collect();
                e.kryo.time_ser(|kr| {
                    for (k, v) in pairs {
                        let r = (k as u64 % reducers as u64) as usize;
                        kr.serialize(&(k, v), &mut out[r]);
                    }
                });
                out.into_iter().map(ShufflePayload::from).collect::<MapOutputs>()
            });
            buf.release(&mut e.heap);
            Ok(out)
        },
        // ---------------------------------------------------------- reduce
        |_ctx, e, bufs| {
            let mut buf: SparkHashShuffle<i64, i64> = SparkHashShuffle::new(&mut e.heap)?;
            e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                for payload in bufs {
                    let bytes = payload.contiguous();
                    let pairs: Vec<(i64, i64)> = e.kryo.deserialize_all(&bytes);
                    for (k, v) in pairs {
                        buf.insert(&mut e.heap, &k, v, |a, b| a + b)?;
                    }
                }
                Ok(())
            })?;
            let mut sum = 0.0;
            buf.for_each(&e.heap, |k, v| {
                sum += (k as f64 + 1.0) * v as f64;
            });
            buf.release(&mut e.heap);
            Ok(sum)
        },
    )?;
    Ok(sums.into_iter().sum())
}

fn run_deca(
    ctx: &mut JobCtx,
    parts: &Partitioned<i64>,
    reducers: usize,
    sample_every: usize,
) -> Result<f64, EngineError> {
    let sums = ctx.run_shuffle_job(
        "wc",
        parts.parts(),
        reducers,
        |ctx, e| {
            // For the lifetime comparison we still register the Tuple2
            // classes so the census has the same class to count — Deca
            // simply never instantiates them (the transformed code writes
            // bytes directly).
            let pair_classes = <(i64, i64) as HeapRecord>::register(&mut e.heap);
            let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
            let words = parts.part(ctx.task);
            if sample_every == 0 {
                buf.insert_all(&mut e.mm, &mut e.heap, counted(words), add_i64_bytes)?;
            } else {
                // One timeline sample per `sample_every` records, as Spark.
                for chunk in words.chunks(sample_every) {
                    buf.insert_all(&mut e.mm, &mut e.heap, counted(chunk), add_i64_bytes)?;
                    e.sample_timeline(pair_classes.tuple);
                }
            }
            // Shuffle write: raw bytes straight into arena pages, handed
            // to the exchange without a copy (§6.1 + zero-copy hand-over).
            let out = e.shuffle_write_scope(|e| -> Result<MapOutputs, EngineError> {
                let mut runs: Vec<_> = (0..reducers).map(|_| e.arena.new_run()).collect();
                let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                buf.for_each(mm, heap, |k, v| {
                    let key = i64::from_le_bytes(k[..8].try_into().unwrap());
                    let r = (key as u64 % reducers as u64) as usize;
                    runs[r].push_parts(arena, &[k, v]);
                })?;
                Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
            })?;
            buf.release(&mut e.mm, &mut e.heap);
            Ok(out)
        },
        |_ctx, e, bufs| {
            let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
            e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                // Records never span pages, so each chunk holds whole
                // 16-byte records and the concatenation is the exact byte
                // sequence a flat buffer would carry.
                let recs = bufs.iter().flat_map(|p| p.chunks()).flat_map(|b| b.chunks_exact(16));
                buf.insert_all(&mut e.mm, &mut e.heap, recs.map(|r| r.split_at(8)), add_i64_bytes)?;
                Ok(())
            })?;
            let mut sum = 0.0;
            buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                let key = i64::decode(k);
                let count = i64::decode(v);
                sum += (key as f64 + 1.0) * count as f64;
            })?;
            buf.release(&mut e.mm, &mut e.heap);
            Ok(sum)
        },
    )?;
    Ok(sums.into_iter().sum())
}

// =====================================================================
// Text-keyed WordCount (the paper's actual input is text): exercises the
// variable-size-key shuffle with its mandatory pointer array (§4.3.2).
// =====================================================================

/// Render a word id as its text token — `w<id>` then `id % 11` × `x`
/// (variable lengths, as real words) — into `out`, replacing its content.
/// The map loops reuse one buffer per partition: what the tokenizer costs
/// in the JVM is modelled by the heap `String::store` in the Spark modes,
/// so the Rust-side rendering allocates nothing in any mode.
fn write_token(out: &mut String, id: i64) {
    const PAD: &str = "xxxxxxxxxx";
    let mut n = u64::try_from(id).expect("word ids are non-negative");
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.clear();
    out.push('w');
    out.extend(digits[at..].iter().map(|&d| d as char));
    out.push_str(&PAD[..(id % 11) as usize]);
}

/// A rendered token's bytes held by value — the longest token (`w`, 19
/// digits, 10 pads) is 30 bytes — so the Deca map streams tokens into its
/// buffer without allocating one per record.
struct TokenBytes([u8; 32], usize);

impl TokenBytes {
    fn of(token: &str) -> TokenBytes {
        let mut bytes = [0u8; 32];
        bytes[..token.len()].copy_from_slice(token.as_bytes());
        TokenBytes(bytes, token.len())
    }
}

impl AsRef<[u8]> for TokenBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0[..self.1]
    }
}

/// The text-keyed WordCount job description. Spark mode materialises each
/// token as a `java.lang.String` + `char[]` graph (what
/// `textFile().flatMap(split)` produces) and the buffer holds String keys;
/// Deca mode stores UTF-8 key bytes framed in pages behind a pointer
/// array.
pub fn text_job(params: &WcParams) -> AppJob {
    let p = params.clone();
    let parts = word_ids(params);
    AppJob::new("WC-text", move |ctx| {
        let reducers = p.partitions;
        match p.mode {
            ExecutionMode::Spark | ExecutionMode::SparkSer => run_text_spark(ctx, &parts, reducers),
            ExecutionMode::Deca => run_text_deca(ctx, &parts, reducers),
        }
    })
}

fn text_checksum(word: &str, count: i64) -> f64 {
    (word.len() as f64 + word.as_bytes()[1] as f64) * count as f64
}

fn run_text_spark(
    ctx: &mut JobCtx,
    parts: &Partitioned<i64>,
    reducers: usize,
) -> Result<f64, EngineError> {
    let sums = ctx.run_shuffle_job(
        "wct",
        parts.parts(),
        reducers,
        |ctx, e| {
            let str_classes = <String as HeapRecord>::register(&mut e.heap);
            let mut buf: SparkHashShuffle<String, i64> = SparkHashShuffle::new(&mut e.heap)?;
            let (mut token, mut word) = (String::new(), String::new());
            for &id in parts.part(ctx.task) {
                // The tokenizer materialises a temporary String graph; the
                // combiner reads its chars back as the key.
                write_token(&mut token, id);
                let tok_obj = token.store(&mut e.heap, &str_classes)?;
                load_str_into(&e.heap, tok_obj, &mut word);
                buf.insert(&mut e.heap, word.as_str(), 1, |a, b| a + b)?;
            }
            let out = e.shuffle_write_scope(|e| {
                let pairs = buf.drain(&e.heap);
                // Tokens average ~8 bytes plus framing and the count.
                let cap = 24 * pairs.len().div_ceil(reducers);
                let mut out: Vec<Vec<u8>> =
                    (0..reducers).map(|_| e.take_shuffle_buf(cap)).collect();
                e.kryo.time_ser(|kr| {
                    for (k, v) in pairs {
                        let r = (k.len() + k.as_bytes()[1] as usize) % reducers;
                        kr.serialize(&k, &mut out[r]);
                        kr.serialize(&v, &mut out[r]);
                    }
                });
                out.into_iter().map(ShufflePayload::from).collect::<MapOutputs>()
            });
            buf.release(&mut e.heap);
            Ok(out)
        },
        |_ctx, e, bufs| {
            let mut buf: SparkHashShuffle<String, i64> = SparkHashShuffle::new(&mut e.heap)?;
            e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                for payload in bufs {
                    let bytes = payload.contiguous();
                    let bytes: &[u8] = &bytes;
                    // Heterogeneous stream (String, i64, String, …):
                    // decode pairwise under one scoped timer, insert after.
                    // Keys stay borrowed from the payload.
                    let pairs: Vec<(&str, i64)> = e.kryo.time_deser(|kr| {
                        let mut pairs = Vec::new();
                        let mut pos = 0;
                        while pos < bytes.len() {
                            let k = kr.deserialize_str(bytes, &mut pos);
                            let v: i64 = kr.deserialize(bytes, &mut pos);
                            pairs.push((k, v));
                        }
                        pairs
                    });
                    for (k, v) in pairs {
                        buf.insert(&mut e.heap, k, v, |a, b| a + b)?;
                    }
                }
                Ok(())
            })?;
            let mut sum = 0.0;
            buf.for_each(&e.heap, |k, v| sum += text_checksum(&k, v));
            buf.release(&mut e.heap);
            Ok(sum)
        },
    )?;
    Ok(sums.into_iter().sum())
}

fn run_text_deca(
    ctx: &mut JobCtx,
    parts: &Partitioned<i64>,
    reducers: usize,
) -> Result<f64, EngineError> {
    let sums = ctx.run_shuffle_job(
        "wct",
        parts.parts(),
        reducers,
        |ctx, e| {
            let mut buf = DecaVarHashShuffle::new(&mut e.mm, 8);
            let mut token = String::new();
            let pairs = parts.part(ctx.task).iter().map(|&id| {
                write_token(&mut token, id); // transformed code keeps bytes only
                (TokenBytes::of(&token), 1i64.to_le_bytes())
            });
            buf.insert_all(&mut e.mm, &mut e.heap, pairs, add_i64_bytes)?;
            // Raw framed records (u32 key len + key + 8-byte count) written
            // whole into arena pages and handed over copy-free.
            let out = e.shuffle_write_scope(|e| -> Result<MapOutputs, EngineError> {
                let mut runs: Vec<_> = (0..reducers).map(|_| e.arena.new_run()).collect();
                let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                buf.for_each(mm, heap, |k, v| {
                    let r = (k.len() + k[1] as usize) % reducers;
                    runs[r].push_parts(arena, &[&(k.len() as u32).to_le_bytes(), k, v]);
                })?;
                Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
            })?;
            buf.release(&mut e.mm, &mut e.heap);
            Ok(out)
        },
        |_ctx, e, bufs| {
            let mut buf = DecaVarHashShuffle::new(&mut e.mm, 8);
            e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                // Frames never span pages, so each chunk parses standalone.
                let recs = bufs.iter().flat_map(|p| p.chunks()).flat_map(|bytes| {
                    let mut pos = 0;
                    std::iter::from_fn(move || {
                        let klen = u32::from_le_bytes(bytes.get(pos..pos + 4)?.try_into().unwrap())
                            as usize;
                        let (key, val) = bytes[pos + 4..pos + 4 + klen + 8].split_at(klen);
                        pos += 4 + klen + 8;
                        Some((key, val))
                    })
                });
                buf.insert_all(&mut e.mm, &mut e.heap, recs, add_i64_bytes)?;
                Ok(())
            })?;
            let mut sum = 0.0;
            buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                let word = std::str::from_utf8(k).expect("utf8");
                sum += text_checksum(word, i64::decode(v));
            })?;
            buf.release(&mut e.mm, &mut e.heap);
            Ok(sum)
        },
    )?;
    Ok(sums.into_iter().sum())
}

/// Each word as a raw `(word, 1)` pair — the bytes the transformed map
/// UDF writes instead of a Tuple2.
fn counted(words: &[i64]) -> impl Iterator<Item = ([u8; 8], [u8; 8])> + '_ {
    words.iter().map(|w| (w.to_le_bytes(), 1i64.to_le_bytes()))
}

fn add_i64_bytes(acc: &mut [u8], add: &[u8]) {
    let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
    let b = i64::from_le_bytes(add[..8].try_into().unwrap());
    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
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
        let mut token = String::from("stale content");
        for id in [0i64, 7, 10, 11, 99, 12_345, 399_999] {
            write_token(&mut token, id);
            assert_eq!(token, format!("w{}{}", id, "x".repeat((id % 11) as usize)), "id {id}");
        }
    }

    #[test]
    fn the_description_generates_its_input_once_and_runs_never_do() {
        let p = tiny(ExecutionMode::Deca);
        crate::assert_description_owns_its_input(|| job(&p), wc_config(&p));
        crate::assert_description_owns_its_input(|| text_job(&p), wc_config(&p));
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

    #[test]
    fn executor_count_does_not_change_results() {
        for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
            let one = run_local(&tiny(mode), 1);
            let four = run_local(&tiny(mode), 4);
            assert_eq!(one.checksum, four.checksum, "{mode}");
        }
    }
}
