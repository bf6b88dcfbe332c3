//! Flat, fixed-stride storage for a round's worth of onions.
//!
//! Every message in a Vuvuzela round has exactly one size by design
//! (paper §3.2: "message sizes … are independent of user activity"), so a
//! round's batch never needs one heap allocation per onion. A
//! [`RoundBuffer`] holds the whole batch in a single contiguous arena of
//! `stride`-sized slots:
//!
//! ```text
//! ┌────────── slot 0 ─────────┬────────── slot 1 ─────────┬─ …
//! │ onion bytes │ headroom    │ onion bytes │ headroom    │
//! │ ← width  →  │             │ ← width  →  │             │
//! └──────┴──────┴──────┴──────┴──────┴──────┴──────┴──────┴─ …
//! ```
//!
//! * `stride` is the slot size. On the forward path it equals `width`
//!   from hop to hop: a client batch is built at the onion width, a
//!   server peels every slot in place (shrinking `width` by
//!   [`vuvuzela_crypto::onion::LAYER_OVERHEAD`]) and then closes the gaps the peel left
//!   ([`RoundBuffer::compact`]), so the batch it sends on holds no dead
//!   bytes. On the backward path it is fixed by the tail: response +
//!   whole-chain reply overhead, the reservation every hop's in-place
//!   reply wrap needs.
//! * `width` is the current logical message size, uniform across slots.
//!   Wrapping a reply layer grows it by [`vuvuzela_crypto::onion::REPLY_LAYER_OVERHEAD`]
//!   into the reserved headroom.
//! * the mix permutation is applied by [`RoundBuffer::permute`] — an
//!   in-place cycle walk with one `stride`-sized scratch slot — instead
//!   of cloning every payload.
//!
//! Together with [`vuvuzela_net::WorkerPool::map_vec`], which takes the
//! arena's `chunks_mut` windows of whole slots as its items, this is the
//! zero-copy data plane of the round pipeline;
//! [`crate::server::MixServer::forward_buf`]
//! is its main consumer. A round's client batch is an arena from the
//! moment it is built: cohorts and the deployment client wrap onions
//! straight into their slots, and onions wrapped one at a time are laid
//! in once, by [`crate::entry::multiplex`]; adversary taps edit it in
//! place on the links (`vuvuzela_net::Slots`). `Vec<Vec<u8>>` views
//! remain for the replies handed back to clients and for the per-`Vec`
//! oracles: the reference recipe
//! ([`crate::server::MixServer::forward_reference`]) the equivalence
//! tests hold the arena path to, and [`RoundBuffer::from_vecs`], which
//! the tap resize tests hold the links' view to.

/// A round's batch as one flat arena; see the module docs.
#[derive(Clone)]
pub struct RoundBuffer {
    data: Vec<u8>,
    stride: usize,
    width: usize,
    len: usize,
}

impl core::fmt::Debug for RoundBuffer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RoundBuffer")
            .field("len", &self.len)
            .field("width", &self.width)
            .field("stride", &self.stride)
            .finish()
    }
}

impl RoundBuffer {
    /// An empty buffer whose slots hold up to `stride` bytes, starting at
    /// logical width `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width > stride` or `stride == 0`.
    #[must_use]
    pub fn new(stride: usize, width: usize) -> RoundBuffer {
        assert!(stride > 0, "stride must be positive");
        assert!(width <= stride, "width cannot exceed stride");
        RoundBuffer {
            data: Vec::new(),
            stride,
            width,
            len: 0,
        }
    }

    /// Like [`RoundBuffer::new`] with arena capacity for `slots` slots.
    #[must_use]
    pub fn with_capacity(stride: usize, width: usize, slots: usize) -> RoundBuffer {
        let mut buf = RoundBuffer::new(stride, width);
        buf.data.reserve(slots * stride);
        buf
    }

    /// Builds a buffer from per-message vectors: the per-`Vec` oracle of
    /// the tap resize rule that `vuvuzela_net::Slots` applies in place.
    /// Messages that are not exactly `width` bytes cannot be valid
    /// onions; their slots are zero-filled, which downstream processing
    /// rejects as malformed (an all-zero ephemeral key is low-order), and
    /// their indices are returned.
    pub fn from_vecs(msgs: &[Vec<u8>], stride: usize, width: usize) -> (RoundBuffer, Vec<usize>) {
        let mut buf = RoundBuffer::with_capacity(stride, width, msgs.len());
        let mut mismatched = Vec::new();
        for (i, msg) in msgs.iter().enumerate() {
            if msg.len() == width {
                buf.push_with(|slot| slot.copy_from_slice(msg));
            } else {
                mismatched.push(i);
                buf.push_with(|_| {});
            }
        }
        (buf, mismatched)
    }

    /// Copies the batch out into per-message vectors (the reply boundary
    /// and tests only — allocates one `Vec` per slot).
    #[must_use]
    pub fn to_vecs(&self) -> Vec<Vec<u8>> {
        (0..self.len).map(|i| self.slot(i).to_vec()).collect()
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current logical message size.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Fixed slot capacity.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Changes the logical width (after peeling or reply-wrapping a
    /// layer, which act on every slot uniformly).
    ///
    /// # Panics
    ///
    /// Panics if `width > stride`.
    pub fn set_width(&mut self, width: usize) {
        assert!(width <= self.stride, "width cannot exceed stride");
        self.width = width;
    }

    /// The `width` bytes of slot `i`.
    #[must_use]
    pub fn slot(&self, i: usize) -> &[u8] {
        let start = i * self.stride;
        &self.data[start..start + self.width]
    }

    /// Mutable access to the `width` bytes of slot `i`.
    pub fn slot_mut(&mut self, i: usize) -> &mut [u8] {
        let start = i * self.stride;
        &mut self.data[start..start + self.width]
    }

    /// Appends a zeroed slot and lets `f` fill its `width` bytes,
    /// returning what `f` returns.
    pub fn push_with<T>(&mut self, f: impl FnOnce(&mut [u8]) -> T) -> T {
        self.data.resize(self.data.len() + self.stride, 0);
        self.len += 1;
        let i = self.len - 1;
        f(self.slot_mut(i))
    }

    /// Makes room for exactly `slots` more slots. A caller that knows
    /// how many it will push calls this first, so that growing one slot
    /// at a time cannot leave the arena at up to twice what it holds
    /// (`Vec` doubles).
    pub fn reserve_exact(&mut self, slots: usize) {
        self.data.reserve_exact(slots * self.stride);
    }

    /// Drops all slots past the first `n` and gives their memory back
    /// (used to strip a server's own noise replies after un-shuffling, so
    /// the hops upstream do not carry a downstream-sized allocation).
    pub fn truncate(&mut self, n: usize) {
        if n < self.len {
            self.len = n;
            self.data.truncate(n * self.stride);
            self.data.shrink_to_fit();
        }
    }

    /// Closes the gap between each slot's `width` bytes and its `stride`,
    /// moving the slots down in place: afterwards `stride == width` and
    /// the arena is `len * width` bytes. A server compacts right after its
    /// peel, so the forward batch it sends on carries no dead bytes. A
    /// zero-width buffer keeps its stride (a slot needs one).
    pub fn compact(&mut self) {
        let (stride, width) = (self.stride, self.width);
        if width == stride || width == 0 {
            return;
        }
        for i in 1..self.len {
            self.data
                .copy_within(i * stride..i * stride + width, i * width);
        }
        self.data.truncate(self.len * width);
        self.stride = width;
    }

    /// The whole arena (all slots at full `stride`), for parallel
    /// stride-window processing.
    pub fn arena_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Decomposes into `(arena bytes, stride, width, len)` — the wire
    /// transport moves a round buffer into a batch frame's payload with
    /// this, zero-copy (the arena is exactly `len * stride` bytes).
    #[must_use]
    pub fn into_raw(self) -> (Vec<u8>, usize, usize, usize) {
        debug_assert_eq!(self.data.len(), self.len * self.stride);
        (self.data, self.stride, self.width, self.len)
    }

    /// Rebuilds a buffer from [`RoundBuffer::into_raw`] parts (or a
    /// decoded batch frame's payload), zero-copy.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (`data.len() != len * stride`,
    /// `width > stride`, zero stride) — a frame decoded by
    /// `vuvuzela_wire` has already validated the first two and the node
    /// runtimes hold its width and stride to what their hop expects
    /// before rebuilding the arena, so this guards local construction
    /// bugs, not remote input.
    #[must_use]
    pub fn from_raw(data: Vec<u8>, stride: usize, width: usize, len: usize) -> RoundBuffer {
        assert!(stride > 0, "stride must be positive");
        assert!(width <= stride, "width cannot exceed stride");
        assert_eq!(data.len(), len * stride, "arena must be len * stride bytes");
        RoundBuffer {
            data,
            stride,
            width,
            len,
        }
    }

    /// Applies a permutation by index remapping: afterwards slot `j`
    /// holds what slot `perm[j]` held before (`out[j] = in[perm[j]]`,
    /// matching the shuffle semantics of the mix servers). In-place cycle
    /// walk: one `stride`-sized scratch buffer, each slot moved exactly
    /// once — no per-slot allocation or batch clone.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..len` (debug-asserted
    /// via the visited map in release builds too — a corrupted
    /// permutation must never silently misroute onions).
    pub fn permute(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.len, "permutation length mismatch");
        let stride = self.stride;
        let width = self.width;
        let mut visited = vec![false; self.len];
        let mut scratch = vec![0u8; width];
        for start in 0..self.len {
            if visited[start] || perm[start] == start {
                visited[start] = true;
                continue;
            }
            // Walk the cycle containing `start`, pulling each source slot
            // into place: slot j <- slot perm[j].
            scratch.copy_from_slice(&self.data[start * stride..start * stride + width]);
            let mut j = start;
            loop {
                let src = perm[j];
                assert!(!visited[j], "perm is not a bijection");
                visited[j] = true;
                if src == start {
                    self.data[j * stride..j * stride + width].copy_from_slice(&scratch);
                    break;
                }
                self.data
                    .copy_within(src * stride..src * stride + width, j * stride);
                j = src;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vuvuzela_crypto::onion;

    fn filled(stride: usize, width: usize, n: usize) -> RoundBuffer {
        let mut buf = RoundBuffer::new(stride, width);
        for i in 0..n {
            buf.push_with(|slot| slot.fill(i as u8));
        }
        buf
    }

    #[test]
    fn push_and_read_slots() {
        let buf = filled(64, 48, 5);
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.width(), 48);
        for i in 0..5 {
            assert_eq!(buf.slot(i), vec![i as u8; 48].as_slice());
        }
    }

    #[test]
    fn width_shrink_preserves_prefixes() {
        let mut buf = filled(64, 48, 3);
        buf.set_width(16);
        for i in 0..3 {
            assert_eq!(buf.slot(i), vec![i as u8; 16].as_slice());
        }
    }

    #[test]
    fn from_vecs_flags_mismatched_sizes() {
        let msgs = vec![vec![7u8; 10], vec![8u8; 9], vec![9u8; 10], vec![]];
        let (buf, bad) = RoundBuffer::from_vecs(&msgs, 12, 10);
        assert_eq!(buf.len(), 4);
        assert_eq!(bad, vec![1, 3]);
        assert_eq!(buf.slot(0), vec![7u8; 10].as_slice());
        assert_eq!(buf.slot(1), vec![0u8; 10].as_slice(), "mismatch zeroed");
        assert_eq!(buf.to_vecs()[2], vec![9u8; 10]);
    }

    #[test]
    fn raw_roundtrip_is_lossless() {
        let buf = filled(24, 20, 3);
        let expect = buf.to_vecs();
        let (data, stride, width, len) = buf.into_raw();
        assert_eq!(data.len(), len * stride);
        let back = RoundBuffer::from_raw(data, stride, width, len);
        assert_eq!(back.to_vecs(), expect);
    }

    #[test]
    #[should_panic(expected = "len * stride")]
    fn from_raw_rejects_bad_geometry() {
        let _ = RoundBuffer::from_raw(vec![0u8; 10], 4, 4, 3);
    }

    #[test]
    fn roundtrip_to_vecs() {
        let buf = filled(32, 32, 4);
        let vecs = buf.to_vecs();
        let (back, bad) = RoundBuffer::from_vecs(&vecs, 32, 32);
        assert!(bad.is_empty());
        assert_eq!(back.to_vecs(), vecs);
    }

    #[test]
    fn permute_matches_clone_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [0usize, 1, 2, 3, 8, 64, 257] {
            let buf = filled(24, 20, n);
            let reference = buf.to_vecs();
            // Random permutation (Fisher–Yates).
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            let mut shuffled = buf;
            shuffled.permute(&perm);
            let want: Vec<Vec<u8>> = perm.iter().map(|&p| reference[p].clone()).collect();
            assert_eq!(shuffled.to_vecs(), want, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn permute_rejects_duplicates() {
        let mut buf = filled(8, 8, 3);
        buf.permute(&[1, 0, 1]);
    }

    #[test]
    fn truncate_drops_tail() {
        let mut buf = filled(16, 16, 6);
        buf.truncate(2);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.to_vecs().len(), 2);
        buf.truncate(5); // growing truncate is a no-op
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn compact_preserves_slots_and_is_idempotent() {
        let mut buf = filled(64, 48, 5);
        buf.slot_mut(4).copy_from_slice(&[0xEE; 48]);
        buf.set_width(20);
        let want = buf.to_vecs();
        buf.compact();
        assert_eq!((buf.stride(), buf.width(), buf.len()), (20, 20, 5));
        assert_eq!(buf.to_vecs(), want);
        let (data, ..) = buf.clone().into_raw();
        assert_eq!(data.len(), 5 * 20, "no dead bytes left");
        buf.compact();
        assert_eq!((buf.stride(), &buf.to_vecs()), (20, &want));
        // A compact buffer grows like any other.
        buf.push_with(|slot| slot.fill(9));
        assert_eq!(buf.slot(5), [9u8; 20].as_slice());
        assert_eq!(buf.slot(3), want[3].as_slice());
    }

    #[test]
    fn compact_empty_and_one_slot_buffers() {
        let mut empty = RoundBuffer::new(64, 40);
        empty.compact();
        assert_eq!((empty.stride(), empty.width(), empty.len()), (40, 40, 0));
        assert_eq!(empty.into_raw().0.len(), 0);

        let mut one = filled(64, 48, 1);
        one.set_width(30);
        one.compact();
        assert_eq!((one.stride(), one.len()), (30, 1));
        assert_eq!(one.to_vecs(), vec![vec![0u8; 30]]);

        let mut zero_width = filled(8, 8, 2);
        zero_width.set_width(0);
        zero_width.compact();
        assert_eq!((zero_width.stride(), zero_width.len()), (8, 2));
    }

    #[test]
    fn reply_growth_fits_in_stride() {
        // Simulates the backward path: width grows by REPLY_LAYER_OVERHEAD
        // per hop into reserved headroom.
        let mut buf = RoundBuffer::new(256 + 3 * onion::REPLY_LAYER_OVERHEAD, 256);
        buf.push_with(|slot| slot.fill(0xAB));
        for hop in 1..=3 {
            let w = buf.width();
            buf.set_width(w + onion::REPLY_LAYER_OVERHEAD);
            assert_eq!(buf.width(), 256 + hop * onion::REPLY_LAYER_OVERHEAD);
        }
    }
}
