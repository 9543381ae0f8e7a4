//! DES block cipher (FIPS 46) with the four FIPS 81 modes of operation.
//!
//! The paper's IP mapping uses DES-CBC for data confidentiality (§7.2), with
//! the per-datagram *confounder* duplicated to 64 bits and used as the IV
//! (§5.2). The ECB-mode confounder-XOR trick from §5.2 is provided as well.
//!
//! **Security note:** DES has a 56-bit key and is thoroughly broken by modern
//! standards. It is implemented here only because the paper specifies it;
//! see the crate-level disclaimer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// DES block size in bytes.
pub const BLOCK_SIZE: usize = 8;

/// Process-wide count of DES key schedules built (one per [`Des::new`]).
///
/// The flow-key caches exist so that subkey expansion runs once per flow
/// rather than once per datagram; this counter lets tests assert that the
/// amortisation actually happens on the hot path.
static KEY_SCHEDULES: AtomicU64 = AtomicU64::new(0);

/// Number of DES key schedules built since process start. Monotonic and
/// global: tests that assert on deltas should run in their own process
/// (a dedicated integration-test binary) to avoid cross-test noise.
pub fn key_schedule_count() -> u64 {
    KEY_SCHEDULES.load(Ordering::Relaxed)
}

// --- FIPS 46 permutation tables (1-based bit positions, MSB = bit 1) ------

/// Initial permutation IP.
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, 61,
    53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation IP⁻¹.
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion function E (32 → 48 bits). The fast round function inlines E
/// as a shift trick; this table remains the specification it is tested
/// against.
#[cfg_attr(not(test), allow(dead_code))]
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18,
    19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Permutation P applied to the S-box output.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// The eight S-boxes.
const SBOX: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12,
        11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2, 4, 9,
        1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1,
        10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1, 3, 15,
        4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10, 1,
        13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15,
        10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7, 1, 14,
        2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13,
        14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12, 9, 5,
        15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5,
        12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8, 1, 4,
        10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6,
        11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4, 10,
        8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Permuted choice 1 (64 → 56 bits, drops parity bits).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2 (56 → 48 bits).
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Per-round left-rotation amounts for the key schedule.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// Apply a 1-based-source bit permutation of `src` (an `in_bits`-bit value
/// right-aligned in a u64) producing `table.len()` output bits.
fn permute(src: u64, in_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &pos in table {
        out <<= 1;
        out |= (src >> (in_bits - pos as u32)) & 1;
    }
    out
}

// --- Table-driven fast core ------------------------------------------------
//
// The bit-at-a-time `permute` above is the specification; the round function
// and the initial/final permutations below are rebuilt as table lookups
// *generated from that specification*, so the fast path is bit-identical by
// construction and pinned by the FIPS/NBS known-answer tests.

/// Merged S-box + P permutation tables: `SP[i][c]` is `P(SBOX[i][c])` with the
/// S-box output placed in its 4-bit lane before permutation, so one lookup per
/// S-box replaces the row/column decode and the 32-bit `P` permutation.
fn sp_tables() -> &'static [[u32; 64]; 8] {
    static SP: OnceLock<[[u32; 64]; 8]> = OnceLock::new();
    SP.get_or_init(|| {
        let mut sp = [[0u32; 64]; 8];
        for (i, sbox) in SBOX.iter().enumerate() {
            for c in 0..64u64 {
                // Row = outer bits, column = inner four bits (FIPS 46).
                let row = ((c & 0x20) >> 4) | (c & 1);
                let col = (c >> 1) & 0xf;
                let val = sbox[(row * 16 + col) as usize] as u64;
                sp[i][c as usize] = permute(val << (28 - 4 * i), 32, &P) as u32;
            }
        }
        sp
    })
}

/// Build a byte-indexed lookup table for a 64→64 bit permutation: entry
/// `[pos][val]` is the permuted contribution of byte `pos` (MSB first)
/// holding value `val`. Bit permutations are XOR-linear, so the permutation
/// of a block is the XOR of its eight byte contributions.
fn byte_perm_table(table: &[u8; 64]) -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    for (pos, row) in t.iter_mut().enumerate() {
        for (val, out) in row.iter_mut().enumerate() {
            *out = permute((val as u64) << (56 - 8 * pos), 64, table);
        }
    }
    t
}

fn ip_tables() -> &'static [[u64; 256]; 8] {
    static T: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    T.get_or_init(|| byte_perm_table(&IP))
}

fn fp_tables() -> &'static [[u64; 256]; 8] {
    static T: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    T.get_or_init(|| byte_perm_table(&FP))
}

fn apply_byte_perm(tab: &[[u64; 256]; 8], src: u64) -> u64 {
    src.to_be_bytes()
        .iter()
        .enumerate()
        .fold(0u64, |acc, (pos, &val)| acc ^ tab[pos][val as usize])
}

/// A DES key schedule: 16 48-bit subkeys.
///
/// ```
/// use fbs_crypto::des::{Des, Mode, encrypt, decrypt};
/// let key = Des::new(b"8bytekey");
/// let confounder_iv = 0xDEADBEEF_DEADBEEF; // duplicated 32-bit confounder
/// let ct = encrypt(&key, confounder_iv, Mode::Cbc, b"attack at dawn");
/// let pt = decrypt(&key, confounder_iv, Mode::Cbc, &ct, b"attack at dawn".len());
/// assert_eq!(pt, b"attack at dawn");
/// ```
#[derive(Clone)]
pub struct Des {
    subkeys: [u64; 16],
}

impl Des {
    /// Build the key schedule from an 8-byte key (parity bits ignored).
    pub fn new(key: &[u8; 8]) -> Self {
        KEY_SCHEDULES.fetch_add(1, Ordering::Relaxed);
        let key64 = u64::from_be_bytes(*key);
        let pc1 = permute(key64, 64, &PC1); // 56 bits
        let mut c = (pc1 >> 28) & 0x0fff_ffff;
        let mut d = pc1 & 0x0fff_ffff;
        let mut subkeys = [0u64; 16];
        for (round, &s) in SHIFTS.iter().enumerate() {
            c = ((c << s) | (c >> (28 - s as u32))) & 0x0fff_ffff;
            d = ((d << s) | (d >> (28 - s as u32))) & 0x0fff_ffff;
            subkeys[round] = permute((c << 28) | d, 56, &PC2);
        }
        Des { subkeys }
    }

    /// The Feistel function f(R, K) over the merged SP tables.
    fn feistel(r: u32, subkey: u64, sp: &[[u32; 64]; 8]) -> u32 {
        // E-expansion without a table: lay out bit 32 | bits 1..=32 | bit 1
        // as a 34-bit value; each 6-bit input chunk i then sits at bit
        // offset 28 - 4i, overlapping its neighbours exactly as E specifies.
        let t = (((r & 1) as u64) << 33) | ((r as u64) << 1) | ((r >> 31) as u64);
        let mut f = 0u32;
        for (i, lane) in sp.iter().enumerate() {
            let six = ((t >> (28 - 4 * i)) ^ (subkey >> (42 - 6 * i))) & 0x3f;
            f ^= lane[six as usize];
        }
        f
    }

    /// The Feistel function computed straight from the FIPS tables — the
    /// specification the SP-table path must match bit for bit.
    #[cfg(test)]
    fn feistel_reference(r: u32, subkey: u64) -> u32 {
        let expanded = permute(r as u64, 32, &E) ^ subkey; // 48 bits
        let mut sboxed = 0u32;
        for (i, sbox) in SBOX.iter().enumerate() {
            let chunk = ((expanded >> (42 - 6 * i)) & 0x3f) as u8;
            // Row = outer bits, column = inner four bits.
            let row = ((chunk & 0x20) >> 4) | (chunk & 1);
            let col = (chunk >> 1) & 0xf;
            sboxed = (sboxed << 4) | sbox[(row * 16 + col) as usize] as u32;
        }
        permute(sboxed as u64, 32, &P) as u32
    }

    fn crypt_block(&self, block: u64, decrypt: bool) -> u64 {
        let sp = sp_tables();
        let permuted = apply_byte_perm(ip_tables(), block);
        let mut l = (permuted >> 32) as u32;
        let mut r = permuted as u32;
        for round in 0..16 {
            let k = if decrypt {
                self.subkeys[15 - round]
            } else {
                self.subkeys[round]
            };
            let next_r = l ^ Self::feistel(r, k, sp);
            l = r;
            r = next_r;
        }
        // Note the final swap: output is R16 || L16.
        apply_byte_perm(fp_tables(), ((r as u64) << 32) | l as u64)
    }

    /// Encrypt a single 8-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 8]) {
        let out = self.crypt_block(u64::from_be_bytes(*block), false);
        *block = out.to_be_bytes();
    }

    /// Decrypt a single 8-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 8]) {
        let out = self.crypt_block(u64::from_be_bytes(*block), true);
        *block = out.to_be_bytes();
    }

    /// Encrypt four independent blocks with the 16 rounds interleaved
    /// ("word-sliced" DES). A single DES block is a 16-deep serial
    /// dependency chain — each Feistel round waits on the previous one.
    /// Four independent lanes advanced round-by-round give the CPU four
    /// chains to overlap, so table loads and XORs from different lanes fill
    /// the pipeline bubbles.
    pub fn encrypt_blocks4(&self, blocks: &mut [u64; 4]) {
        let sp = sp_tables();
        let ipt = ip_tables();
        let mut l = [0u32; 4];
        let mut r = [0u32; 4];
        for i in 0..4 {
            let p = apply_byte_perm(ipt, blocks[i]);
            l[i] = (p >> 32) as u32;
            r[i] = p as u32;
        }
        for round in 0..16 {
            let k = self.subkeys[round];
            for i in 0..4 {
                let next_r = l[i] ^ Self::feistel(r[i], k, sp);
                l[i] = r[i];
                r[i] = next_r;
            }
        }
        let fpt = fp_tables();
        for i in 0..4 {
            blocks[i] = apply_byte_perm(fpt, ((r[i] as u64) << 32) | l[i] as u64);
        }
    }

    /// Pre-split the 16 subkeys for the two-word Feistel form used by
    /// the interleaved keystream core. For S-box `i` the E-expansion
    /// window of `R` is `R` rotated right by `27 - 4i` (mod 32), so the
    /// even boxes (0,2,4,6) all read 6-bit fields at byte strides of
    /// `R >>> 3` and the odd boxes (1,3,5,7) of `R <<< 1`. Packing each
    /// round's key chunks into two matching u32s (`[even, odd]`, chunk
    /// for box 6/7 in the low byte up to box 0/1 in the top) lets the
    /// round body XOR the whole key in two 32-bit ops instead of eight
    /// 64-bit shifts, and skip building the 34-bit expansion entirely.
    pub fn subkey_chunks(&self) -> [[u32; 2]; 16] {
        let mut skc = [[0u32; 2]; 16];
        for (round, &k) in self.subkeys.iter().enumerate() {
            let chunk = |i: usize| ((k >> (42 - 6 * i)) & 0x3f) as u32;
            skc[round] = [
                chunk(6) | chunk(4) << 8 | chunk(2) << 16 | chunk(0) << 24,
                chunk(7) | chunk(5) << 8 | chunk(3) << 16 | chunk(1) << 24,
            ];
        }
        skc
    }

    /// Eight-lane variant of [`Des::encrypt_blocks4`] — the fast-profile
    /// CTR keystream core. Each Feistel evaluation is eight dependent
    /// table loads, so four lanes leave load ports idle on wide
    /// out-of-order cores; eight independent chains keep them fed. The
    /// scalar [`Des::crypt_block`] path is deliberately left on the
    /// straightforward form.
    pub fn encrypt_blocks8(&self, blocks: &mut [u64; 8]) {
        Self::encrypt_blocks8_sk(&self.subkey_chunks(), blocks)
    }

    /// [`Des::encrypt_blocks8`] over pre-split subkey chunks (see
    /// [`Des::subkey_chunks`]): the two-word round form. Bit-exact
    /// against the scalar FIPS path (`ctr_matches_scalar_reference`).
    pub fn encrypt_blocks8_sk(skc: &[[u32; 2]; 16], blocks: &mut [u64; 8]) {
        let sp = sp_tables();
        let ipt = ip_tables();
        let mut l = [0u32; 8];
        let mut r = [0u32; 8];
        for i in 0..8 {
            let p = apply_byte_perm(ipt, blocks[i]);
            l[i] = (p >> 32) as u32;
            r[i] = p as u32;
        }
        for &[ke, ko] in skc {
            for lane in 0..8 {
                let r32 = r[lane];
                let u = r32.rotate_right(3) ^ ke;
                let v = r32.rotate_left(1) ^ ko;
                let f = sp[6][(u & 0x3f) as usize]
                    ^ sp[4][((u >> 8) & 0x3f) as usize]
                    ^ sp[2][((u >> 16) & 0x3f) as usize]
                    ^ sp[0][((u >> 24) & 0x3f) as usize]
                    ^ sp[7][(v & 0x3f) as usize]
                    ^ sp[5][((v >> 8) & 0x3f) as usize]
                    ^ sp[3][((v >> 16) & 0x3f) as usize]
                    ^ sp[1][((v >> 24) & 0x3f) as usize];
                let next_r = l[lane] ^ f;
                l[lane] = r32;
                r[lane] = next_r;
            }
        }
        let fpt = fp_tables();
        for i in 0..8 {
            blocks[i] = apply_byte_perm(fpt, ((r[i] as u64) << 32) | l[i] as u64);
        }
    }
}

/// XOR DES-CTR keystream into `data` in place, starting at block index
/// `start_block` of the stream whose counter base is `base`. Keystream
/// block `i` is `E(base + i)` (64-bit wrapping counter); blocks are
/// generated four at a time through [`Des::encrypt_blocks4`]. Encryption
/// and decryption are the same operation, and no padding is needed —
/// which is why the fast profile's wire body length equals the plaintext
/// length.
pub fn ctr_xor_at(key: &Des, base: u64, start_block: u64, data: &mut [u8]) {
    let mut idx = start_block;
    let mut chunks = data.chunks_exact_mut(64);
    let skc = key.subkey_chunks();
    for chunk in &mut chunks {
        let mut ks = [0u64; 8];
        for (lane, k) in ks.iter_mut().enumerate() {
            *k = base.wrapping_add(idx.wrapping_add(lane as u64));
        }
        Des::encrypt_blocks8_sk(&skc, &mut ks);
        for (lane, part) in chunk.chunks_exact_mut(8).enumerate() {
            let word = u64::from_be_bytes(part.try_into().unwrap()) ^ ks[lane];
            part.copy_from_slice(&word.to_be_bytes());
        }
        idx = idx.wrapping_add(8);
    }
    let rem = chunks.into_remainder();
    for part in rem.chunks_mut(8) {
        let mut block = base.wrapping_add(idx).to_be_bytes();
        key.encrypt_block(&mut block);
        for (b, k) in part.iter_mut().zip(block) {
            *b ^= k;
        }
        idx = idx.wrapping_add(1);
    }
}

/// The four DES weak keys (self-inverse key schedules) with parity bits
/// set; [`is_weak_key`] checks parity-insensitively.
const WEAK_KEYS: [u64; 4] = [
    0x0101010101010101,
    0xFEFEFEFEFEFEFEFE,
    0xE0E0E0E0F1F1F1F1,
    0x1F1F1F1F0E0E0E0E,
];

/// The twelve semi-weak keys (six pairs whose schedules are mutual
/// inverses), with parity bits set.
const SEMI_WEAK_KEYS: [u64; 12] = [
    0x01FE01FE01FE01FE,
    0xFE01FE01FE01FE01,
    0x1FE01FE00EF10EF1,
    0xE01FE01FF10EF10E,
    0x01E001E001F101F1,
    0xE001E001F101F101,
    0x1FFE1FFE0EFE0EFE,
    0xFE1FFE1FFE0EFE0E,
    0x011F011F010E010E,
    0x1F011F010E010E01,
    0xE0FEE0FEF1FEF1FE,
    0xFEE0FEE0FEF1FEF1,
];

/// True when `key` is one of DES's four weak keys (for which encryption
/// equals decryption) or twelve semi-weak key pair members. Derived flow
/// keys hit these with probability ~2⁻⁵², but a careful implementation
/// checks anyway and rotates the flow (new sfl ⇒ new key) when it happens.
pub fn is_weak_key(key: &[u8; 8]) -> bool {
    // Compare with parity bits masked out (DES ignores the low bit of
    // each key byte).
    let strip = |k: u64| k & 0xFEFE_FEFE_FEFE_FEFE;
    let k = strip(u64::from_be_bytes(*key));
    WEAK_KEYS
        .iter()
        .chain(SEMI_WEAK_KEYS.iter())
        .any(|&w| strip(w) == k)
}

/// DES mode of operation (FIPS 81). The paper's confounder supplies the IV
/// for CBC/CFB/OFB; in ECB mode the confounder is XORed with every plaintext
/// block before encryption (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Electronic codebook with confounder whitening per §5.2.
    Ecb,
    /// Cipher block chaining (the paper's implementation choice, §7.2).
    Cbc,
    /// 64-bit cipher feedback.
    Cfb,
    /// 64-bit output feedback.
    Ofb,
}

/// Pad `data` to a multiple of 8 bytes with zero bytes. FBS carries the
/// true payload length in the security flow header, so zero padding is
/// unambiguous at this layer.
pub fn zero_pad(data: &[u8]) -> Vec<u8> {
    let mut v = data.to_vec();
    let rem = v.len() % BLOCK_SIZE;
    if rem != 0 {
        v.resize(v.len() + (BLOCK_SIZE - rem), 0);
    }
    v
}

/// Length of `len` bytes of plaintext after zero padding to a block
/// multiple — what [`zero_pad`] would produce, without allocating.
pub fn padded_len(len: usize) -> usize {
    len.div_ceil(BLOCK_SIZE) * BLOCK_SIZE
}

/// Streaming block encryptor carrying the chaining state of a mode.
///
/// The single-pass MAC+encrypt loop of §5.3 needs to process one block at a
/// time; this and [`BlockDecryptor`] expose exactly that, and the
/// whole-buffer [`encrypt`]/[`decrypt`] functions are built on them.
pub struct BlockEncryptor<'a> {
    des: &'a Des,
    mode: Mode,
    /// CBC: previous ciphertext. CFB: previous ciphertext. OFB: keystream
    /// feedback. ECB: the constant whitening confounder.
    state: u64,
}

impl<'a> BlockEncryptor<'a> {
    /// Begin encrypting with `iv` (the duplicated confounder).
    pub fn new(des: &'a Des, mode: Mode, iv: u64) -> Self {
        BlockEncryptor {
            des,
            mode,
            state: iv,
        }
    }

    /// Encrypt one block in place.
    pub fn process(&mut self, block: &mut [u8; 8]) {
        match self.mode {
            Mode::Ecb => {
                *block = (u64::from_be_bytes(*block) ^ self.state).to_be_bytes();
                self.des.encrypt_block(block);
            }
            Mode::Cbc => {
                *block = (u64::from_be_bytes(*block) ^ self.state).to_be_bytes();
                self.des.encrypt_block(block);
                self.state = u64::from_be_bytes(*block);
            }
            Mode::Cfb => {
                let mut keystream = self.state.to_be_bytes();
                self.des.encrypt_block(&mut keystream);
                let c = u64::from_be_bytes(*block) ^ u64::from_be_bytes(keystream);
                *block = c.to_be_bytes();
                self.state = c;
            }
            Mode::Ofb => {
                let mut keystream = self.state.to_be_bytes();
                self.des.encrypt_block(&mut keystream);
                self.state = u64::from_be_bytes(keystream);
                let c = u64::from_be_bytes(*block) ^ self.state;
                *block = c.to_be_bytes();
            }
        }
    }
}

/// Streaming block decryptor; see [`BlockEncryptor`].
pub struct BlockDecryptor<'a> {
    des: &'a Des,
    mode: Mode,
    state: u64,
}

impl<'a> BlockDecryptor<'a> {
    /// Begin decrypting with `iv` (the duplicated confounder).
    pub fn new(des: &'a Des, mode: Mode, iv: u64) -> Self {
        BlockDecryptor {
            des,
            mode,
            state: iv,
        }
    }

    /// Decrypt one block in place.
    pub fn process(&mut self, block: &mut [u8; 8]) {
        match self.mode {
            Mode::Ecb => {
                self.des.decrypt_block(block);
                *block = (u64::from_be_bytes(*block) ^ self.state).to_be_bytes();
            }
            Mode::Cbc => {
                let this_cipher = u64::from_be_bytes(*block);
                self.des.decrypt_block(block);
                *block = (u64::from_be_bytes(*block) ^ self.state).to_be_bytes();
                self.state = this_cipher;
            }
            Mode::Cfb => {
                let mut keystream = self.state.to_be_bytes();
                self.des.encrypt_block(&mut keystream);
                let this_cipher = u64::from_be_bytes(*block);
                *block = (this_cipher ^ u64::from_be_bytes(keystream)).to_be_bytes();
                self.state = this_cipher;
            }
            Mode::Ofb => {
                let mut keystream = self.state.to_be_bytes();
                self.des.encrypt_block(&mut keystream);
                self.state = u64::from_be_bytes(keystream);
                let c = u64::from_be_bytes(*block) ^ self.state;
                *block = c.to_be_bytes();
            }
        }
    }
}

/// Encrypt a block-multiple buffer in place — the zero-copy fast path.
/// Callers pad with [`zero_pad`]/[`padded_len`] (or write into an already
/// block-sized region) so no ciphertext temporary is allocated.
///
/// # Panics
/// Panics if `data` is not a block multiple.
pub fn encrypt_in_place(key: &Des, iv: u64, mode: Mode, data: &mut [u8]) {
    assert!(
        data.len().is_multiple_of(BLOCK_SIZE),
        "plaintext not a block multiple"
    );
    let mut enc = BlockEncryptor::new(key, mode, iv);
    for chunk in data.chunks_exact_mut(8) {
        enc.process(chunk.try_into().unwrap());
    }
}

/// Decrypt a block-multiple buffer in place; the caller trims padding using
/// the plaintext length carried in the security flow header.
///
/// # Panics
/// Panics if `data` is not a block multiple.
pub fn decrypt_in_place(key: &Des, iv: u64, mode: Mode, data: &mut [u8]) {
    assert!(
        data.len().is_multiple_of(BLOCK_SIZE),
        "ciphertext not a block multiple"
    );
    let mut dec = BlockDecryptor::new(key, mode, iv);
    for chunk in data.chunks_exact_mut(8) {
        dec.process(chunk.try_into().unwrap());
    }
}

/// Encrypt `plaintext` (any length; zero-padded to a block multiple) under
/// `key` with the 64-bit `iv` (the duplicated confounder) in `mode`.
pub fn encrypt(key: &Des, iv: u64, mode: Mode, plaintext: &[u8]) -> Vec<u8> {
    let mut data = zero_pad(plaintext);
    encrypt_in_place(key, iv, mode, &mut data);
    data
}

/// Decrypt `ciphertext` produced by [`encrypt`]; `orig_len` trims padding.
///
/// # Panics
/// Panics if `ciphertext` is not a block multiple or `orig_len` exceeds it.
pub fn decrypt(key: &Des, iv: u64, mode: Mode, ciphertext: &[u8], orig_len: usize) -> Vec<u8> {
    assert!(orig_len <= ciphertext.len(), "orig_len exceeds ciphertext");
    let mut data = ciphertext.to_vec();
    decrypt_in_place(key, iv, mode, &mut data);
    data.truncate(orig_len);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic worked example from FIPS 46 teaching material.
    #[test]
    fn fips_worked_example_vector() {
        let key = Des::new(&0x133457799BBCDFF1u64.to_be_bytes());
        let mut block = 0x0123456789ABCDEFu64.to_be_bytes();
        key.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x85E813540F0AB405);
        key.decrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x0123456789ABCDEF);
    }

    /// Known-answer vectors from the NBS/NIST DES validation suite.
    #[test]
    fn known_answer_vectors() {
        let cases: [(u64, u64, u64); 4] = [
            (0x0000000000000000, 0x0000000000000000, 0x8CA64DE9C1B123A7),
            (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x7359B2163E4EDC58),
            (0x3000000000000000, 0x1000000000000001, 0x958E6E627A05557B),
            (0x1111111111111111, 0x1111111111111111, 0xF40379AB9E0EC533),
        ];
        for (k, p, c) in cases {
            let des = Des::new(&k.to_be_bytes());
            let mut block = p.to_be_bytes();
            des.encrypt_block(&mut block);
            assert_eq!(u64::from_be_bytes(block), c, "key={k:016x}");
            des.decrypt_block(&mut block);
            assert_eq!(u64::from_be_bytes(block), p);
        }
    }

    #[test]
    fn all_modes_roundtrip() {
        let des = Des::new(b"8bytekey");
        let msg = b"The quick brown fox jumps over the lazy dog";
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Cfb, Mode::Ofb] {
            let ct = encrypt(&des, 0xDEADBEEF_CAFEBABE, mode, msg);
            assert_eq!(ct.len() % 8, 0);
            let pt = decrypt(&des, 0xDEADBEEF_CAFEBABE, mode, &ct, msg.len());
            assert_eq!(&pt, msg, "mode {mode:?}");
        }
    }

    #[test]
    fn wrong_iv_fails_to_decrypt() {
        let des = Des::new(b"8bytekey");
        let msg = b"confounder matters!!";
        let ct = encrypt(&des, 1, Mode::Cbc, msg);
        let pt = decrypt(&des, 2, Mode::Cbc, &ct, msg.len());
        assert_ne!(&pt, msg);
    }

    #[test]
    fn cbc_identical_blocks_differ_in_ciphertext() {
        let des = Des::new(b"8bytekey");
        let msg = [0xAA; 16]; // two identical plaintext blocks
        let ct = encrypt(&des, 7, Mode::Cbc, &msg);
        assert_ne!(ct[..8], ct[8..16], "CBC must hide identical blocks");
    }

    #[test]
    fn ecb_confounder_whitening_hides_repeats_across_datagrams() {
        // Same plaintext, different confounders ⇒ different ciphertexts even
        // in ECB (the §5.2 confounder-XOR construction).
        let des = Des::new(b"8bytekey");
        let msg = [0x42; 8];
        let c1 = encrypt(&des, 1111, Mode::Ecb, &msg);
        let c2 = encrypt(&des, 2222, Mode::Ecb, &msg);
        assert_ne!(c1, c2);
    }

    #[test]
    fn empty_plaintext() {
        let des = Des::new(b"8bytekey");
        let ct = encrypt(&des, 0, Mode::Cbc, b"");
        assert!(ct.is_empty());
        assert!(decrypt(&des, 0, Mode::Cbc, &ct, 0).is_empty());
    }

    #[test]
    fn exact_block_multiple_no_padding_growth() {
        let des = Des::new(b"8bytekey");
        let msg = [7u8; 24];
        let ct = encrypt(&des, 9, Mode::Ofb, &msg);
        assert_eq!(ct.len(), 24);
    }

    #[test]
    fn incremental_matches_whole_buffer() {
        let des = Des::new(b"8bytekey");
        let msg = [0x5Au8; 32];
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Cfb, Mode::Ofb] {
            let whole = encrypt(&des, 0x1234, mode, &msg);
            let mut inc = msg;
            let mut e = BlockEncryptor::new(&des, mode, 0x1234);
            for chunk in inc.chunks_exact_mut(8) {
                e.process(chunk.try_into().unwrap());
            }
            assert_eq!(&inc[..], &whole[..], "encrypt {mode:?}");
            let mut d = BlockDecryptor::new(&des, mode, 0x1234);
            for chunk in inc.chunks_exact_mut(8) {
                d.process(chunk.try_into().unwrap());
            }
            assert_eq!(inc, msg, "decrypt {mode:?}");
        }
    }

    #[test]
    fn weak_key_detection() {
        // The four weak keys, with and without parity bits.
        assert!(is_weak_key(&[0x01; 8]));
        assert!(is_weak_key(&[0x00; 8])); // parity-stripped 0101...
        assert!(is_weak_key(&[0xFE; 8]));
        assert!(is_weak_key(&0xE0E0E0E0F1F1F1F1u64.to_be_bytes()));
        assert!(is_weak_key(&0x1F1F1F1F0E0E0E0Eu64.to_be_bytes()));
        // A semi-weak pair member: 01FE01FE01FE01FE.
        assert!(is_weak_key(&0x01FE01FE01FE01FEu64.to_be_bytes()));
        assert!(is_weak_key(&0xE01FE01FF10EF10Eu64.to_be_bytes()));
        // Ordinary keys are not flagged.
        assert!(!is_weak_key(b"8bytekey"));
        assert!(!is_weak_key(&0x133457799BBCDFF1u64.to_be_bytes()));
    }

    #[test]
    fn weak_key_property_encryption_is_involution() {
        // The defining property: under a weak key, E(E(x)) = x.
        let weak = Des::new(&[0x01; 8]);
        let mut b = *b"involute";
        weak.encrypt_block(&mut b);
        weak.encrypt_block(&mut b);
        assert_eq!(&b, b"involute");
    }

    #[test]
    fn fast_feistel_matches_reference() {
        // The SP-table round function must equal the FIPS-table one for a
        // spread of (R, subkey) inputs, including edge bits.
        let sp = sp_tables();
        let mut x = 0x9E3779B97F4A7C15u64; // weyl-ish generator, deterministic
        for _ in 0..4096 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
            let r = (x >> 16) as u32;
            let k = x & 0xFFFF_FFFF_FFFF; // 48-bit subkey
            assert_eq!(Des::feistel(r, k, sp), Des::feistel_reference(r, k));
        }
        for r in [0u32, 1, 0x8000_0000, u32::MAX] {
            for k in [0u64, 0xFFFF_FFFF_FFFF, 0xAAAA_AAAA_AAAA] {
                assert_eq!(Des::feistel(r, k, sp), Des::feistel_reference(r, k));
            }
        }
    }

    #[test]
    fn byte_perm_tables_match_permute() {
        let mut x = 0x0123456789ABCDEFu64;
        for _ in 0..1024 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(0xB5);
            assert_eq!(apply_byte_perm(ip_tables(), x), permute(x, 64, &IP));
            assert_eq!(apply_byte_perm(fp_tables(), x), permute(x, 64, &FP));
        }
    }

    #[test]
    fn in_place_matches_allocating_path() {
        let des = Des::new(b"8bytekey");
        let msg = [0x3Cu8; 40];
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Cfb, Mode::Ofb] {
            let whole = encrypt(&des, 0xFEED, mode, &msg);
            let mut buf = msg;
            encrypt_in_place(&des, 0xFEED, mode, &mut buf);
            assert_eq!(&buf[..], &whole[..], "encrypt {mode:?}");
            decrypt_in_place(&des, 0xFEED, mode, &mut buf);
            assert_eq!(buf, msg, "decrypt {mode:?}");
        }
    }

    #[test]
    fn padded_len_matches_zero_pad() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 8191, 8192] {
            assert_eq!(padded_len(len), zero_pad(&vec![0u8; len]).len());
        }
    }

    #[test]
    fn key_schedule_counter_increments() {
        let before = key_schedule_count();
        let _ = Des::new(b"8bytekey");
        assert!(key_schedule_count() > before);
    }

    #[test]
    fn blocks4_matches_scalar() {
        let des = Des::new(b"8bytekey");
        let mut blocks = [
            0x0123456789ABCDEFu64,
            0xFEDCBA9876543210,
            0x0000000000000000,
            0xFFFFFFFFFFFFFFFF,
        ];
        let expected: Vec<u64> = blocks
            .iter()
            .map(|&b| {
                let mut bytes = b.to_be_bytes();
                des.encrypt_block(&mut bytes);
                u64::from_be_bytes(bytes)
            })
            .collect();
        des.encrypt_blocks4(&mut blocks);
        assert_eq!(blocks.to_vec(), expected);
    }

    #[test]
    fn ctr_matches_scalar_reference() {
        let des = Des::new(b"ctr key!");
        let base = 0xDEADBEEF_00000042u64;
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 200] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut fast = plain.clone();
            ctr_xor_at(&des, base, 0, &mut fast);
            // Scalar reference: block i of keystream is E(base + i).
            let mut reference = plain.clone();
            for (i, part) in reference.chunks_mut(8).enumerate() {
                let mut ks = base.wrapping_add(i as u64).to_be_bytes();
                des.encrypt_block(&mut ks);
                for (b, k) in part.iter_mut().zip(ks) {
                    *b ^= k;
                }
            }
            assert_eq!(fast, reference, "len {len}");
            // Same operation decrypts.
            ctr_xor_at(&des, base, 0, &mut fast);
            assert_eq!(fast, plain, "roundtrip len {len}");
        }
    }

    #[test]
    fn ctr_resumes_at_block_offset() {
        // Processing a buffer in two calls with the right start_block must
        // equal one call over the whole buffer (the fused MAC+encrypt loop
        // relies on this).
        let des = Des::new(b"ctr key!");
        let base = 77u64;
        let mut whole: Vec<u8> = (0..96u32).map(|i| i as u8).collect();
        let mut split = whole.clone();
        ctr_xor_at(&des, base, 0, &mut whole);
        ctr_xor_at(&des, base, 0, &mut split[..64]);
        ctr_xor_at(&des, base, 8, &mut split[64..]);
        assert_eq!(whole, split);
    }

    #[test]
    fn complementation_property() {
        // DES has the property E_{~k}(~p) = ~E_k(p).
        let k = 0x133457799BBCDFF1u64;
        let p = 0x0123456789ABCDEFu64;
        let des = Des::new(&k.to_be_bytes());
        let des_comp = Des::new(&(!k).to_be_bytes());
        let mut b1 = p.to_be_bytes();
        des.encrypt_block(&mut b1);
        let mut b2 = (!p).to_be_bytes();
        des_comp.encrypt_block(&mut b2);
        assert_eq!(u64::from_be_bytes(b1), !u64::from_be_bytes(b2));
    }
}
