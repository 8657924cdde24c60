//! The database wire format: fixed-size little-endian frames.
//!
//! A request is `id:u64 op:u32 a:u32 b:u32 amount:u32` (24 bytes); a reply
//! is `id:u64 op:u32 a:u32 b:u32 status:u32 value:u64` (32 bytes). The
//! reply echoes the request's `op`, `a` and `b` so the generator can tell a
//! reply meant for another request from the right one.

/// Read one record's balance.
pub const OP_READ: u32 = 0;
/// Move `amount` from record `a` to record `b`.
pub const OP_TRANSFER: u32 = 1;

/// Request frame length in bytes.
pub const REQ_LEN: usize = 24;
/// Reply frame length in bytes.
pub const REPLY_LEN: usize = 32;

/// One request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// Generator-chosen identifier, unique per connection.
    pub id: u64,
    /// [`OP_READ`] or [`OP_TRANSFER`].
    pub op: u32,
    /// Record read, or transfer source.
    pub a: u32,
    /// Transfer destination (0 for reads).
    pub b: u32,
    /// Units to move (0 for reads).
    pub amount: u32,
}

/// One reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The request's identifier.
    pub id: u64,
    /// The request's operation.
    pub op: u32,
    /// The request's `a`.
    pub a: u32,
    /// The request's `b`.
    pub b: u32,
    /// 1 if a transfer moved its units (0 if the source was short); 1 for reads.
    pub status: u32,
    /// The balance read (0 for transfers).
    pub value: u64,
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

impl Req {
    /// Appends the frame to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.op.to_le_bytes());
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.amount.to_le_bytes());
    }

    /// Parses a frame of exactly [`REQ_LEN`] bytes.
    pub fn decode(b: &[u8]) -> Req {
        Req {
            id: u64_at(b, 0),
            op: u32_at(b, 8),
            a: u32_at(b, 12),
            b: u32_at(b, 16),
            amount: u32_at(b, 20),
        }
    }
}

impl Reply {
    /// The frame as bytes.
    pub fn encode(&self) -> [u8; REPLY_LEN] {
        let mut out = [0u8; REPLY_LEN];
        out[0..8].copy_from_slice(&self.id.to_le_bytes());
        out[8..12].copy_from_slice(&self.op.to_le_bytes());
        out[12..16].copy_from_slice(&self.a.to_le_bytes());
        out[16..20].copy_from_slice(&self.b.to_le_bytes());
        out[20..24].copy_from_slice(&self.status.to_le_bytes());
        out[24..32].copy_from_slice(&self.value.to_le_bytes());
        out
    }

    /// Parses a frame of exactly [`REPLY_LEN`] bytes.
    pub fn decode(b: &[u8]) -> Reply {
        Reply {
            id: u64_at(b, 0),
            op: u32_at(b, 8),
            a: u32_at(b, 12),
            b: u32_at(b, 16),
            status: u32_at(b, 20),
            value: u64_at(b, 24),
        }
    }
}

/// SplitMix64: the generator's only source of record choices, seeded from
/// the workload seed.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, offset by `stream` so connections differ.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let r = Req {
            id: 7 << 48 | 3,
            op: OP_TRANSFER,
            a: 4095,
            b: 12,
            amount: 5,
        };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), REQ_LEN);
        assert_eq!(Req::decode(&buf), r);
        let p = Reply {
            id: r.id,
            op: r.op,
            a: r.a,
            b: r.b,
            status: 1,
            value: u64::MAX - 1,
        };
        assert_eq!(Reply::decode(&p.encode()), p);
    }

    #[test]
    fn the_seed_fixes_the_stream() {
        let a: Vec<u32> = (0..8)
            .map({
                let mut r = Rng::new(42, 0);
                move |_| r.below(4096)
            })
            .collect();
        let b: Vec<u32> = (0..8)
            .map({
                let mut r = Rng::new(42, 0);
                move |_| r.below(4096)
            })
            .collect();
        let c: Vec<u32> = (0..8)
            .map({
                let mut r = Rng::new(43, 0);
                move |_| r.below(4096)
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&x| x < 4096));
    }
}
