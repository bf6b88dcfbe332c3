//! Single-thread probes of the bottom layers, run once per traced run.
//!
//! Each probe times one public function on inputs of the size the rounds
//! use. A probe reports the median of several timed batches, so one
//! descheduling does not show.

use crate::stats::median;
use crate::sut::{
    self, aead, onion, DhTable, Frame, Keypair, LayerKey, Link, LinkId, NoiseDistribution,
    NoiseMode, PrecomputedServer, PublicKey, RoundBuffer, RoundKind, SecretKey, SharedSecret,
    Transport, WorkerPool, CHAIN_LEN, EXCHANGE_REQUEST_LEN,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// How much work the probes do; `quick` is for the harness's own tests.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Timed batches per probe (the median is reported).
    pub batches: usize,
    /// Operations per batch for the ~100 µs primitives.
    pub ops: usize,
    /// Onions in the peel arena.
    pub peel_onions: usize,
    /// Onions in the batch frame the codec and transports move.
    pub frame_onions: usize,
    /// Seconds of untimed work before the first probe.
    pub warmup_s: f64,
}

impl Effort {
    /// The effort of a real run.
    pub const FULL: Effort = Effort {
        batches: 5,
        ops: 400,
        peel_onions: 4096,
        frame_onions: 400,
        warmup_s: 0.3,
    };
    /// Enough to exercise every probe once.
    pub const QUICK: Effort = Effort {
        batches: 3,
        ops: 8,
        peel_onions: 64,
        frame_onions: 16,
        warmup_s: 0.0,
    };
}

/// Median nanoseconds per operation over `batches` runs of `batch`, which
/// performs `ops` operations.
fn ns_per_op(batches: usize, ops: usize, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// What the helper thread at the far end of a [`Loopback`] does with a
/// frame it receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FarEnd {
    /// Sends it back over the link: a ping-pong.
    Echo,
    /// Hands it back over a channel: a one-way transfer, which is what a
    /// node does with a frame it receives.
    HandBack,
}

/// One end of a loopback link whose far end is served by a helper thread.
pub struct Loopback {
    near: Arc<dyn Transport>,
    far_end: FarEnd,
    handed_back: mpsc::Receiver<Frame>,
    far_thread: Option<std::thread::JoinHandle<()>>,
}

impl Loopback {
    fn serve(near: Arc<dyn Transport>, far: Arc<dyn Transport>, far_end: FarEnd) -> Loopback {
        let (tx, handed_back) = mpsc::channel();
        let far_thread = std::thread::spawn(move || {
            while let Ok(frame) = far.recv() {
                let peer_gone = match (frame, far_end) {
                    (Frame::Bye, _) => true,
                    (frame, FarEnd::Echo) => far.send(frame).is_err(),
                    (frame, FarEnd::HandBack) => tx.send(frame).is_err(),
                };
                if peer_gone {
                    break;
                }
            }
        });
        Loopback {
            near,
            far_end,
            handed_back,
            far_thread: Some(far_thread),
        }
    }

    /// A TCP connection over 127.0.0.1 (host loopback, not a real link).
    ///
    /// # Errors
    ///
    /// Socket set-up failures.
    pub fn tcp(far_end: FarEnd) -> Result<Loopback, String> {
        let (near, far) = sut::tcp_loopback_pair()?;
        Ok(Loopback::serve(Arc::new(near), Arc::new(far), far_end))
    }

    /// An in-memory transport pair.
    #[must_use]
    pub fn memory(far_end: FarEnd) -> Loopback {
        let (near, far) = sut::memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
        Loopback::serve(Arc::new(near), Arc::new(far), far_end)
    }

    /// Sends a frame and returns it as it came back from the far end.
    ///
    /// # Panics
    ///
    /// Panics when the link dies: the benchmark cannot go on without it.
    pub fn through(&self, frame: Frame) -> Frame {
        self.near.send(frame).expect("loopback send");
        match self.far_end {
            FarEnd::Echo => self.near.recv().expect("loopback echo"),
            FarEnd::HandBack => self.handed_back.recv().expect("loopback far end alive"),
        }
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        let _ = self.near.send(Frame::Bye);
        if let Some(thread) = self.far_thread.take() {
            let _ = thread.join();
        }
    }
}

/// A forward conversation batch frame of `onions` hop-0 onions.
fn batch_frame(onions: usize) -> Frame {
    let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, CHAIN_LEN);
    let mut buf = RoundBuffer::with_capacity(width, width, onions);
    let mut rng = StdRng::seed_from_u64(onions as u64);
    for _ in 0..onions {
        buf.push_with(|slot| rng.fill_bytes(slot));
    }
    sut::frame_from_buf(
        LinkId::Hop(0),
        0,
        RoundKind::Conversation,
        false,
        buf,
        Vec::new(),
    )
}

/// Runs every probe and returns `(metric name, value)` pairs.
///
/// # Errors
///
/// Loopback socket set-up failures.
pub fn run(effort: Effort) -> Result<Vec<(&'static str, f64)>, String> {
    let Effort { batches, ops, .. } = effort;
    let mut rng = StdRng::seed_from_u64(0x0BE5);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // crypto::x25519
    let server = Keypair::generate(&mut rng);
    // The probes are the first work of the process; spin until the core
    // is out of whatever low-power state it idled in, or the first few
    // read a fifth slower than the rest.
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < effort.warmup_s {
        black_box(server.secret.diffie_hellman(black_box(&server.public)));
    }
    let secrets: Vec<SecretKey> = (0..ops).map(|_| SecretKey::generate(&mut rng)).collect();
    let publics: Vec<PublicKey> = secrets.iter().map(SecretKey::public_key).collect();
    out.push((
        "crypto.x25519.dh_ns",
        ns_per_op(batches, ops, || {
            for public in &publics {
                black_box(server.secret.diffie_hellman(black_box(public)));
            }
        }),
    ));
    let scalars: Vec<[u8; 32]> = vec![*server.secret.as_bytes(); ops];
    let points: Vec<[u8; 32]> = publics.iter().map(|pk| *pk.as_bytes()).collect();
    out.push((
        "crypto.x25519.batch_dh_ns",
        ns_per_op(batches, ops, || {
            black_box(sut::x25519_batch(black_box(&scalars), black_box(&points)));
        }),
    ));
    out.push((
        "crypto.x25519.keygen_ns",
        ns_per_op(batches, ops, || {
            for _ in 0..ops {
                black_box(Keypair::generate(&mut rng));
            }
        }),
    ));
    let table = DhTable::new(&server.public).expect("an honest key is on the curve");
    out.push((
        "crypto.x25519.table_dh_ns",
        ns_per_op(batches, ops, || {
            for secret in &secrets {
                black_box(table.diffie_hellman(black_box(secret)));
            }
        }),
    ));

    // crypto::aead and crypto::hkdf at the innermost layer's size: the
    // 272-byte exchange request plus its tag is the 288-byte layer.
    let key = [7u8; aead::KEY_LEN];
    let nonce = [9u8; aead::NONCE_LEN];
    let sealed_len = aead::sealed_len(EXCHANGE_REQUEST_LEN);
    let mut layer = vec![0u8; sealed_len];
    let light_ops = ops * 20;
    out.push((
        "crypto.aead.seal_ns",
        ns_per_op(batches, light_ops, || {
            for _ in 0..light_ops {
                black_box(aead::seal_in_place(
                    &key,
                    &nonce,
                    &[],
                    black_box(&mut layer),
                    EXCHANGE_REQUEST_LEN,
                ));
            }
        }),
    ));
    let sealed = aead::seal(&key, &nonce, &[], &vec![0u8; EXCHANGE_REQUEST_LEN]);
    out.push((
        "crypto.aead.open_ns",
        ns_per_op(batches, light_ops, || {
            for _ in 0..light_ops {
                layer.copy_from_slice(&sealed);
                black_box(
                    aead::open_in_place(&key, &nonce, &[], black_box(&mut layer), sealed_len)
                        .expect("authentic layer"),
                );
            }
        }),
    ));
    let shared = SharedSecret([3u8; 32]);
    out.push((
        "crypto.hkdf.layer_key_ns",
        ns_per_op(batches, light_ops, || {
            for public in publics.iter().cycle().take(light_ops) {
                black_box(
                    sut::layer_key_from_shared(black_box(&shared), public, &server.public)
                        .expect("non-zero shared secret"),
                );
            }
        }),
    ));

    // crypto::onion
    let chain: Vec<Keypair> = (0..CHAIN_LEN)
        .map(|_| Keypair::generate(&mut rng))
        .collect();
    let tables: Vec<PrecomputedServer> = chain
        .iter()
        .map(|kp| PrecomputedServer::new(kp.public))
        .collect();
    let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, CHAIN_LEN);
    let mut arena = vec![0u8; effort.peel_onions * width];
    let mut wrap_rng = StdRng::seed_from_u64(11);
    out.push((
        "crypto.onion.wrap_layer_ns",
        ns_per_op(1, effort.peel_onions * CHAIN_LEN, || {
            for slot in arena.chunks_mut(width) {
                sut::wrap_noise_into(&mut wrap_rng, &tables, 0, slot, EXCHANGE_REQUEST_LEN);
            }
        }),
    ));
    let mut peeled = arena.clone();
    out.push((
        "crypto.onion.peel_ns",
        ns_per_op(batches, effort.peel_onions, || {
            peeled.copy_from_slice(&arena);
            let results = sut::peel_chunk_in_place(
                &chain[0].secret,
                &chain[0].public,
                0,
                black_box(&mut peeled),
                width,
                width,
            );
            assert!(results.iter().all(Result::is_ok), "probe onions peel");
        }),
    ));
    let layer_keys: Vec<LayerKey> = (0..CHAIN_LEN as u8).map(|i| LayerKey([i; 32])).collect();
    let reply_len = sut::SEALED_MESSAGE_LEN;
    let mut reply = vec![0u8; onion::reply_len(reply_len, CHAIN_LEN)];
    out.push((
        "crypto.onion.wrap_reply_ns",
        ns_per_op(batches, light_ops, || {
            for _ in 0..light_ops {
                black_box(sut::wrap_reply_in_place(
                    &layer_keys[0],
                    0,
                    black_box(&mut reply),
                    reply_len,
                ));
            }
        }),
    ));
    // A reply as the client receives it: wrapped by the last server first.
    let mut len = reply_len;
    for key in layer_keys.iter().rev() {
        len = sut::wrap_reply_in_place(key, 0, &mut reply, len);
    }
    out.push((
        "crypto.onion.unwrap_reply_ns",
        ns_per_op(batches, light_ops * CHAIN_LEN, || {
            for _ in 0..light_ops {
                black_box(
                    sut::unwrap_reply_layers(&layer_keys, 0, black_box(&reply))
                        .expect("authentic reply"),
                );
            }
        }),
    ));

    // dp::laplace
    let dist = NoiseDistribution::new(1500.0, 1500.0 / 64.0);
    out.push((
        "dp.laplace.sample_ns",
        ns_per_op(batches, light_ops, || {
            for _ in 0..light_ops {
                black_box(dist.sample_count(&mut rng, NoiseMode::Sampled));
            }
        }),
    ));

    // wire::frame
    let frame = batch_frame(effort.frame_onions);
    let encoded = frame.encode();
    let kib = encoded.len() as f64 / 1024.0;
    let codec_ops = ops.div_ceil(4);
    out.push((
        "wire.frame.encode_ns_per_kib",
        ns_per_op(batches, codec_ops, || {
            for _ in 0..codec_ops {
                black_box(black_box(&frame).encode());
            }
        }) / kib,
    ));
    out.push((
        "wire.frame.decode_ns_per_kib",
        ns_per_op(batches, codec_ops, || {
            for _ in 0..codec_ops {
                black_box(Frame::decode(black_box(&encoded)).expect("own encoding decodes"));
            }
        }) / kib,
    ));
    let Frame::Batch(ref batch) = frame else {
        unreachable!("batch_frame builds a batch")
    };
    // The codec's header and length fields plus the transport's 4-byte
    // length prefix.
    out.push((
        "wire.frame.overhead_bytes",
        (encoded.len() - batch.payload.len() + 4) as f64,
    ));

    // net::tcp and net::transport. The frame that comes back is the frame
    // sent, so it is sent again without a copy.
    let through_ns = |link: &Loopback, onions: usize| {
        let mut frame = batch_frame(onions);
        ns_per_op(batches, codec_ops, || {
            for _ in 0..codec_ops {
                frame = link.through(std::mem::replace(&mut frame, Frame::Bye));
            }
        })
    };
    let tcp = Loopback::tcp(FarEnd::Echo)?;
    out.push(("net.tcp.frame_rtt_us.small", through_ns(&tcp, 1) / 1e3));
    out.push((
        "net.tcp.frame_rtt_us.batch",
        through_ns(&tcp, effort.frame_onions) / 1e3,
    ));
    drop(tcp);
    let tcp = Loopback::tcp(FarEnd::HandBack)?;
    out.push((
        "net.tcp.mib_per_s",
        encoded.len() as f64 / (1024.0 * 1024.0) / (through_ns(&tcp, effort.frame_onions) / 1e9),
    ));
    drop(tcp);
    let memory = Loopback::memory(FarEnd::Echo);
    out.push((
        "net.memory.frame_rtt_us.batch",
        through_ns(&memory, effort.frame_onions) / 1e3,
    ));
    drop(memory);

    // net::parallel: one fan-out of trivial items over two strands.
    let pool = WorkerPool::shared();
    out.push((
        "net.parallel.dispatch_us",
        ns_per_op(batches, light_ops, || {
            for _ in 0..light_ops {
                black_box(pool.map_vec(vec![0u8; 64], 2, |x| x));
            }
        }) / 1000.0,
    ));
    Ok(out)
}
