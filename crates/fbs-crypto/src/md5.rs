//! MD5 message digest (RFC 1321).
//!
//! MD5 is the paper's hash of choice both for flow-key derivation
//! (`K_f = H(sfl | K_SD | S | D)`, §5.2) and for the keyed MAC (§7.2, where
//! CryptoLib's MD5 ran at 7060 kB/s on a Pentium 133).
//!
//! **Security note:** MD5 is collision-broken; see the crate disclaimer.

/// Digest size in bytes.
pub const DIGEST_SIZE: usize = 16;

/// Per-round left-rotation amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9,
    14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10, 15,
    21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants `floor(abs(sin(i+1)) * 2^32)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// A streaming MD5 context.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message bytes consumed so far.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Create a fresh context.
    pub fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data` into the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte block"));
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finish and return the 16-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80 then zeros until 56 mod 64, then the 64-bit bit
        // count little-endian.
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let pad_len = (119 - self.buf_len) % 64 + 1;
        self.update(&pad[..pad_len]);
        debug_assert_eq!(self.buf_len, 56);
        self.buf[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_SIZE];
        for (o, word) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// The MD5 compression function over one 64-byte block. Every step is
/// written out with constant message, shift and sine indices, so the 64
/// steps compile to straight-line code with no bounds checks and no
/// per-step round dispatch.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
    }
    let [mut a, mut b, mut c, mut d] = *state;
    // One step: a = b + ((a + f(b, c, d) + m[g] + K[i]) <<< S[i]).
    macro_rules! step {
        ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $g:literal, $i:literal) => {
            $a = $b.wrapping_add(
                $a.wrapping_add(m[$g].wrapping_add(K[$i]))
                    .wrapping_add($f($b, $c, $d))
                    .rotate_left(S[$i]),
            );
        };
    }
    step!(ff, a, b, c, d, 0, 0);
    step!(ff, d, a, b, c, 1, 1);
    step!(ff, c, d, a, b, 2, 2);
    step!(ff, b, c, d, a, 3, 3);
    step!(ff, a, b, c, d, 4, 4);
    step!(ff, d, a, b, c, 5, 5);
    step!(ff, c, d, a, b, 6, 6);
    step!(ff, b, c, d, a, 7, 7);
    step!(ff, a, b, c, d, 8, 8);
    step!(ff, d, a, b, c, 9, 9);
    step!(ff, c, d, a, b, 10, 10);
    step!(ff, b, c, d, a, 11, 11);
    step!(ff, a, b, c, d, 12, 12);
    step!(ff, d, a, b, c, 13, 13);
    step!(ff, c, d, a, b, 14, 14);
    step!(ff, b, c, d, a, 15, 15);

    step!(gg, a, b, c, d, 1, 16);
    step!(gg, d, a, b, c, 6, 17);
    step!(gg, c, d, a, b, 11, 18);
    step!(gg, b, c, d, a, 0, 19);
    step!(gg, a, b, c, d, 5, 20);
    step!(gg, d, a, b, c, 10, 21);
    step!(gg, c, d, a, b, 15, 22);
    step!(gg, b, c, d, a, 4, 23);
    step!(gg, a, b, c, d, 9, 24);
    step!(gg, d, a, b, c, 14, 25);
    step!(gg, c, d, a, b, 3, 26);
    step!(gg, b, c, d, a, 8, 27);
    step!(gg, a, b, c, d, 13, 28);
    step!(gg, d, a, b, c, 2, 29);
    step!(gg, c, d, a, b, 7, 30);
    step!(gg, b, c, d, a, 12, 31);

    step!(hh, a, b, c, d, 5, 32);
    step!(hh, d, a, b, c, 8, 33);
    step!(hh, c, d, a, b, 11, 34);
    step!(hh, b, c, d, a, 14, 35);
    step!(hh, a, b, c, d, 1, 36);
    step!(hh, d, a, b, c, 4, 37);
    step!(hh, c, d, a, b, 7, 38);
    step!(hh, b, c, d, a, 10, 39);
    step!(hh, a, b, c, d, 13, 40);
    step!(hh, d, a, b, c, 0, 41);
    step!(hh, c, d, a, b, 3, 42);
    step!(hh, b, c, d, a, 6, 43);
    step!(hh, a, b, c, d, 9, 44);
    step!(hh, d, a, b, c, 12, 45);
    step!(hh, c, d, a, b, 15, 46);
    step!(hh, b, c, d, a, 2, 47);

    step!(ii, a, b, c, d, 0, 48);
    step!(ii, d, a, b, c, 7, 49);
    step!(ii, c, d, a, b, 14, 50);
    step!(ii, b, c, d, a, 5, 51);
    step!(ii, a, b, c, d, 12, 52);
    step!(ii, d, a, b, c, 3, 53);
    step!(ii, c, d, a, b, 10, 54);
    step!(ii, b, c, d, a, 1, 55);
    step!(ii, a, b, c, d, 8, 56);
    step!(ii, d, a, b, c, 15, 57);
    step!(ii, c, d, a, b, 6, 58);
    step!(ii, b, c, d, a, 13, 59);
    step!(ii, a, b, c, d, 4, 60);
    step!(ii, d, a, b, c, 11, 61);
    step!(ii, c, d, a, b, 2, 62);
    step!(ii, b, c, d, a, 9, 63);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

// The four round functions (RFC 1321 §3.4), with F and G in their
// one-fewer-operation select form.
#[inline(always)]
fn ff(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn gg(b: u32, c: u32, d: u32) -> u32 {
    c ^ (d & (b ^ c))
}

#[inline(always)]
fn hh(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn ii(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One-shot MD5 of `data`.
///
/// ```
/// let d = fbs_crypto::md5(b"abc");
/// assert_eq!(d[..4], [0x90, 0x01, 0x50, 0x98]); // RFC 1321 vector
/// ```
pub fn md5(data: &[u8]) -> [u8; DIGEST_SIZE] {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The complete RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_suite() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(hex(&md5(input)), want);
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let oneshot = md5(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127] {
            let mut ctx = Md5::new();
            for c in data.chunks(chunk) {
                ctx.update(c);
            }
            assert_eq!(ctx.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn length_padding_boundaries() {
        // Inputs of length 55, 56, 57, 63, 64 exercise every padding branch.
        for len in [55usize, 56, 57, 63, 64, 119, 120] {
            let data = vec![0xABu8; len];
            let a = md5(&data);
            let mut ctx = Md5::new();
            ctx.update(&data[..len / 2]);
            ctx.update(&data[len / 2..]);
            assert_eq!(ctx.finalize(), a, "len {len}");
        }
    }

    /// The compression function as the RFC writes it: one loop, the round
    /// picked by `i / 16`, message index and shift looked up per step.
    fn reference_compress(state: &mut [u32; 4], block: &[u8; 64]) {
        let m: Vec<u32> = block
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let [mut a, mut b, mut c, mut d] = *state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let sum = a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[g]);
            (a, b, c, d) = (d, b.wrapping_add(sum.rotate_left(S[i])), b, c);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(v);
        }
    }

    #[test]
    fn unrolled_compress_matches_reference_loop() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        let mut fast = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
        let mut slow = fast;
        for _ in 0..512 {
            let mut block = [0u8; 64];
            for b in block.iter_mut() {
                x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
                *b = (x >> 56) as u8;
            }
            compress(&mut fast, &block);
            reference_compress(&mut slow, &block);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md5(b"flow-1"), md5(b"flow-2"));
    }
}
