//! DES block cipher (FIPS 46) in CBC mode (FIPS 81), plus the counter mode
//! of the fast profile.
//!
//! The paper's IP mapping uses DES-CBC for data confidentiality (§7.2), with
//! the per-datagram *confounder* duplicated to 64 bits and used as the IV
//! (§5.2).
//!
//! The kernels run one round body: a two-word Feistel form over merged
//! S-box/P tables, with the key schedule stored in that form. CBC
//! encryption keeps its serial chain in the IP domain, CBC decryption and
//! the CTR keystream run eight independent blocks per pass, and all of it
//! is tested against a bit-at-a-time FIPS 46 reference
//! ([`fips_reference_block`]) and the published known-answer vectors.
//!
//! **Security note:** DES has a 56-bit key and is thoroughly broken by modern
//! standards. It is implemented here only because the paper specifies it;
//! see the crate-level disclaimer.

use std::sync::atomic::{AtomicU64, Ordering};

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
/// as a rotation trick; this table remains the specification it is tested
/// against.
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
const fn permute(src: u64, in_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out = (out << 1) | ((src >> (in_bits - table[i] as u32)) & 1);
        i += 1;
    }
    out
}

/// The 16 48-bit subkeys of `key`, straight from PC1, the rotation
/// schedule and PC2 (parity bits ignored).
fn subkeys48(key: &[u8; 8]) -> [u64; 16] {
    let pc1 = permute(u64::from_be_bytes(*key), 64, &PC1); // 56 bits
    let mut c = (pc1 >> 28) & 0x0fff_ffff;
    let mut d = pc1 & 0x0fff_ffff;
    let mut subkeys = [0u64; 16];
    for (round, &s) in SHIFTS.iter().enumerate() {
        c = ((c << s) | (c >> (28 - s as u32))) & 0x0fff_ffff;
        d = ((d << s) | (d >> (28 - s as u32))) & 0x0fff_ffff;
        subkeys[round] = permute((c << 28) | d, 56, &PC2);
    }
    subkeys
}

/// The Feistel function f(R, K) computed straight from the FIPS tables —
/// the specification the fast round body must match bit for bit.
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

/// One DES block en- or decrypted bit by bit from the FIPS 46 tables: key
/// schedule, IP, sixteen `feistel_reference` rounds, FP. Far too slow
/// for the datagram path; it is the oracle the fast kernels below are
/// tested against, alongside the published known-answer vectors.
pub fn fips_reference_block(key: &[u8; 8], block: u64, decrypt: bool) -> u64 {
    let subkeys = subkeys48(key);
    let permuted = permute(block, 64, &IP);
    let mut l = (permuted >> 32) as u32;
    let mut r = permuted as u32;
    for round in 0..16 {
        let k = subkeys[if decrypt { 15 - round } else { round }];
        let next_r = l ^ feistel_reference(r, k);
        l = r;
        r = next_r;
    }
    // Note the final swap: output is R16 || L16.
    permute(((r as u64) << 32) | l as u64, 64, &FP)
}

// --- Table-driven fast core ------------------------------------------------
//
// The bit-at-a-time `permute` above is the specification; the round function
// and the initial/final permutations below are rebuilt as table lookups
// *generated from that specification* at compile time, so the fast path is
// bit-identical by construction and pinned by the FIPS/NBS known-answer
// tests.

/// Merged S-box + P permutation tables: `SP[i][c]` is `P(SBOX[i][c & 0x3f])`
/// with the S-box output placed in its 4-bit lane before permutation, so
/// one lookup per S-box replaces the row/column decode and the 32-bit `P`
/// permutation. Each table is indexed by a whole byte whose top two bits
/// are ignored, so the round body feeds it a byte of the keyed window
/// without masking.
static SP: [[u32; 256]; 8] = sp_tables();

const fn sp_tables() -> [[u32; 256]; 8] {
    let mut sp = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 {
        let mut c = 0;
        while c < 256 {
            // Row = outer bits, column = inner four bits (FIPS 46).
            let row = ((c & 0x20) >> 4) | (c & 1);
            let col = (c >> 1) & 0xf;
            let val = SBOX[i][row * 16 + col] as u64;
            sp[i][c] = permute(val << (28 - 4 * i), 32, &P) as u32;
            c += 1;
        }
        i += 1;
    }
    sp
}

/// Byte-indexed lookup tables for IP and FP: entry `[pos][val]` is the
/// permuted contribution of byte `pos` (MSB first) holding value `val`. Bit
/// permutations are XOR-linear, so the permutation of a block is the XOR
/// of its eight byte contributions.
static IP_TABLES: [[u64; 256]; 8] = byte_perm_table(&IP);
static FP_TABLES: [[u64; 256]; 8] = byte_perm_table(&FP);

const fn byte_perm_table(table: &[u8; 64]) -> [[u64; 256]; 8] {
    // Image of each single input bit; a byte's entry is the XOR of the
    // images of its set bits.
    let mut bit = [0u64; 64];
    let mut b = 0;
    while b < 64 {
        bit[b] = permute(1u64 << (63 - b), 64, table);
        b += 1;
    }
    let mut t = [[0u64; 256]; 8];
    let mut pos = 0;
    while pos < 8 {
        let mut val = 1;
        while val < 256 {
            // Highest set bit of `val` plus the entry for the rest.
            let top = 7 - (val as u8).leading_zeros() as usize;
            t[pos][val] = bit[pos * 8 + 7 - top] ^ t[pos][val & !(1 << top)];
            val += 1;
        }
        pos += 1;
    }
    t
}

#[inline(always)]
fn apply_byte_perm(tab: &[[u64; 256]; 8], src: u64) -> u64 {
    let b = src.to_be_bytes();
    tab[0][b[0] as usize]
        ^ tab[1][b[1] as usize]
        ^ tab[2][b[2] as usize]
        ^ tab[3][b[3] as usize]
        ^ tab[4][b[4] as usize]
        ^ tab[5][b[5] as usize]
        ^ tab[6][b[6] as usize]
        ^ tab[7][b[7] as usize]
}

#[inline(always)]
fn ip(block: u64) -> u64 {
    apply_byte_perm(&IP_TABLES, block)
}

#[inline(always)]
fn fp(block: u64) -> u64 {
    apply_byte_perm(&FP_TABLES, block)
}

/// Split a 48-bit subkey into the two-word round form. For S-box `i` the
/// E-expansion window of `R` is `R` rotated right by `27 - 4i` (mod 32),
/// so the even boxes (0,2,4,6) all read 6-bit fields at byte strides of
/// `R >>> 3` and the odd boxes (1,3,5,7) of `R <<< 1`. Packing each
/// round's key chunks into two matching u32s (`[even, odd]`, chunk for box
/// 6/7 in the low byte up to box 0/1 in the top) lets the round body XOR
/// the whole key in two 32-bit ops and skip building the 48-bit expansion.
fn split_subkey(k: u64) -> [u32; 2] {
    let chunk = |i: usize| ((k >> (42 - 6 * i)) & 0x3f) as u32;
    [
        chunk(6) | chunk(4) << 8 | chunk(2) << 16 | chunk(0) << 24,
        chunk(7) | chunk(5) << 8 | chunk(3) << 16 | chunk(1) << 24,
    ]
}

/// The Feistel function f(R, K) in the two-word form (see
/// [`split_subkey`]): two rotations, two key XORs, eight SP lookups.
#[inline(always)]
fn feistel(r: u32, [ke, ko]: [u32; 2]) -> u32 {
    let u = (r.rotate_right(3) ^ ke).to_le_bytes();
    let v = (r.rotate_left(1) ^ ko).to_le_bytes();
    SP[6][u[0] as usize]
        ^ SP[4][u[1] as usize]
        ^ SP[2][u[2] as usize]
        ^ SP[0][u[3] as usize]
        ^ SP[7][v[0] as usize]
        ^ SP[5][v[1] as usize]
        ^ SP[3][v[2] as usize]
        ^ SP[1][v[3] as usize]
}

/// The sixteen rounds on one block in the IP domain: takes `IP(x)` as
/// `L0 || R0` and returns `R16 || L16`, i.e. `IP(E(x))`.
#[inline(always)]
fn rounds<'a>(keys: impl Iterator<Item = &'a [u32; 2]>, block: u64) -> u64 {
    let mut l = (block >> 32) as u32;
    let mut r = block as u32;
    for &k in keys {
        let next_r = l ^ feistel(r, k);
        l = r;
        r = next_r;
    }
    ((r as u64) << 32) | l as u64
}

/// [`rounds`] over eight independent blocks, round-major. A single DES
/// block is a 16-deep serial dependency chain and each round is eight
/// dependent table loads; eight chains advanced round by round keep the
/// load ports fed.
#[inline(always)]
fn rounds8<'a>(keys: impl Iterator<Item = &'a [u32; 2]>, blocks: &mut [u64; 8]) {
    let mut l = blocks.map(|b| (b >> 32) as u32);
    let mut r = blocks.map(|b| b as u32);
    for &k in keys {
        for lane in 0..8 {
            let next_r = l[lane] ^ feistel(r[lane], k);
            l[lane] = r[lane];
            r[lane] = next_r;
        }
    }
    for lane in 0..8 {
        blocks[lane] = ((r[lane] as u64) << 32) | l[lane] as u64;
    }
}

/// A DES key schedule: 16 48-bit subkeys, stored once in the two-word
/// round form (`[[u32; 2]; 16]`, 128 bytes) that the scalar block path,
/// CBC and CTR all run.
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
    subkeys: [[u32; 2]; 16],
}

impl Des {
    /// Build the key schedule from an 8-byte key (parity bits ignored).
    pub fn new(key: &[u8; 8]) -> Self {
        KEY_SCHEDULES.fetch_add(1, Ordering::Relaxed);
        Des {
            subkeys: subkeys48(key).map(split_subkey),
        }
    }

    fn encrypt_ip(&self, block: u64) -> u64 {
        rounds(self.subkeys.iter(), block)
    }

    fn decrypt_ip(&self, block: u64) -> u64 {
        rounds(self.subkeys.iter().rev(), block)
    }

    /// Encrypt a single 8-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 8]) {
        *block = fp(self.encrypt_ip(ip(u64::from_be_bytes(*block)))).to_be_bytes();
    }

    /// Decrypt a single 8-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 8]) {
        *block = fp(self.decrypt_ip(ip(u64::from_be_bytes(*block)))).to_be_bytes();
    }
}

fn read_block(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("8-byte block"))
}

/// XOR DES-CTR keystream into `data` in place, starting at block index
/// `start_block` of the stream whose counter base is `base`. Keystream
/// block `i` is `E(base + i)` (64-bit wrapping counter); whole 64-byte
/// chunks are generated eight blocks at a time. Encryption and decryption
/// are the same operation, and no padding is needed — which is why the
/// fast profile's wire body length equals the plaintext length.
pub fn ctr_xor_at(key: &Des, base: u64, start_block: u64, data: &mut [u8]) {
    let mut idx = start_block;
    let mut chunks = data.chunks_exact_mut(64);
    for chunk in &mut chunks {
        let mut ks = [0u64; 8];
        for (lane, k) in ks.iter_mut().enumerate() {
            *k = ip(base.wrapping_add(idx.wrapping_add(lane as u64)));
        }
        rounds8(key.subkeys.iter(), &mut ks);
        for (part, k) in chunk.chunks_exact_mut(8).zip(ks) {
            part.copy_from_slice(&(read_block(part) ^ fp(k)).to_be_bytes());
        }
        idx = idx.wrapping_add(8);
    }
    for part in chunks.into_remainder().chunks_mut(8) {
        let ks = fp(key.encrypt_ip(ip(base.wrapping_add(idx)))).to_be_bytes();
        for (b, k) in part.iter_mut().zip(ks) {
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

/// DES mode of operation. CBC (FIPS 81) is the paper's choice (§7.2) and
/// the only mode the paper suite runs; the confounder, duplicated to 64
/// bits, supplies the IV (§5.2). The fast profile's counter mode is
/// [`ctr_xor_at`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Cipher block chaining.
    Cbc,
}

/// Pad `data` to a multiple of 8 bytes with zero bytes. FBS carries the
/// true payload length in the security flow header, so zero padding is
/// unambiguous at this layer.
pub fn zero_pad(data: &[u8]) -> Vec<u8> {
    let mut v = data.to_vec();
    v.resize(padded_len(data.len()), 0);
    v
}

/// Length of `len` bytes of plaintext after zero padding to a block
/// multiple — what [`zero_pad`] would produce, without allocating.
pub fn padded_len(len: usize) -> usize {
    len.div_ceil(BLOCK_SIZE) * BLOCK_SIZE
}

/// CBC-encrypt a block-multiple buffer in place under `iv` — the zero-copy
/// fast path. Callers pad with [`zero_pad`]/[`padded_len`] (or write into
/// an already block-sized region) so no ciphertext temporary is allocated.
///
/// CBC encryption is inherently serial, so the kernel keeps the chain in
/// the IP domain: IP is linear, so `IP(P ⊕ C_prev) = IP(P) ⊕ IP(C_prev)`,
/// and `IP(C_prev)` is the previous block's round output (`IP ∘ FP` is the
/// identity). The serial dependency is one XOR plus the sixteen rounds;
/// the IP of each plaintext block and the FP of each ciphertext block are
/// off the chain, computed eight at a time. A long buffer may be
/// encrypted in pieces: each piece's IV is the previous piece's last
/// ciphertext block.
///
/// # Panics
/// Panics if `data` is not a block multiple.
pub fn encrypt_in_place(key: &Des, iv: u64, mode: Mode, data: &mut [u8]) {
    let Mode::Cbc = mode;
    assert!(
        data.len().is_multiple_of(BLOCK_SIZE),
        "plaintext not a block multiple"
    );
    let mut chain = ip(iv);
    for chunk in data.chunks_mut(64) {
        let mut x = [0u64; 8];
        for (w, part) in x.iter_mut().zip(chunk.chunks_exact(8)) {
            *w = ip(read_block(part));
        }
        for w in x.iter_mut().take(chunk.len() / 8) {
            chain = key.encrypt_ip(*w ^ chain);
            *w = chain;
        }
        for (part, w) in chunk.chunks_exact_mut(8).zip(x) {
            part.copy_from_slice(&fp(w).to_be_bytes());
        }
    }
}

/// CBC-decrypt a block-multiple buffer in place under `iv`; the caller
/// trims padding using the plaintext length carried in the security flow
/// header. Unlike encryption, every block's decryption is independent
/// (`P_i = D(C_i) ⊕ C_{i-1}`), so whole 64-byte chunks run as eight
/// interleaved lanes. Pieces chain like [`encrypt_in_place`]'s.
///
/// # Panics
/// Panics if `data` is not a block multiple.
pub fn decrypt_in_place(key: &Des, iv: u64, mode: Mode, data: &mut [u8]) {
    let Mode::Cbc = mode;
    assert!(
        data.len().is_multiple_of(BLOCK_SIZE),
        "ciphertext not a block multiple"
    );
    let mut prev = iv;
    let mut chunks = data.chunks_exact_mut(64);
    for chunk in &mut chunks {
        let mut c = [0u64; 8];
        for (w, part) in c.iter_mut().zip(chunk.chunks_exact(8)) {
            *w = read_block(part);
        }
        let mut x = c.map(ip);
        rounds8(key.subkeys.iter().rev(), &mut x);
        for ((part, w), ct) in chunk.chunks_exact_mut(8).zip(x).zip(c) {
            part.copy_from_slice(&(fp(w) ^ prev).to_be_bytes());
            prev = ct;
        }
    }
    for part in chunks.into_remainder().chunks_exact_mut(8) {
        let ct = read_block(part);
        part.copy_from_slice(&(fp(key.decrypt_ip(ip(ct))) ^ prev).to_be_bytes());
        prev = ct;
    }
}

/// Encrypt `plaintext` (any length; zero-padded to a block multiple) under
/// `key` with the 64-bit `iv` (the duplicated confounder).
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

    /// Known-answer vectors from the NBS/NIST DES validation suite, through
    /// the fast block path and the bit-at-a-time reference alike.
    #[test]
    fn known_answer_vectors() {
        let cases: [(u64, u64, u64); 5] = [
            (0x0000000000000000, 0x0000000000000000, 0x8CA64DE9C1B123A7),
            (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x7359B2163E4EDC58),
            (0x3000000000000000, 0x1000000000000001, 0x958E6E627A05557B),
            (0x1111111111111111, 0x1111111111111111, 0xF40379AB9E0EC533),
            (0x133457799BBCDFF1, 0x0123456789ABCDEF, 0x85E813540F0AB405),
        ];
        for (k, p, c) in cases {
            let kb = k.to_be_bytes();
            let des = Des::new(&kb);
            let mut block = p.to_be_bytes();
            des.encrypt_block(&mut block);
            assert_eq!(u64::from_be_bytes(block), c, "key={k:016x}");
            des.decrypt_block(&mut block);
            assert_eq!(u64::from_be_bytes(block), p);
            assert_eq!(fips_reference_block(&kb, p, false), c, "key={k:016x}");
            assert_eq!(fips_reference_block(&kb, c, true), p, "key={k:016x}");
        }
    }

    /// Deterministic test stream (xorshift-multiply).
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x
                .wrapping_mul(0x2545F4914F6CDD1D)
                .wrapping_add(0x9E3779B97F4A7C15);
            x ^ (x >> 29)
        }
    }

    /// CBC straight from the reference block function.
    fn reference_cbc(key: &[u8; 8], iv: u64, data: &[u8], decrypt: bool) -> Vec<u8> {
        let mut prev = iv;
        let mut out = Vec::new();
        for part in data.chunks_exact(8) {
            let x = read_block(part);
            let y = if decrypt {
                let p = fips_reference_block(key, x, true) ^ prev;
                prev = x;
                p
            } else {
                prev = fips_reference_block(key, x ^ prev, false);
                prev
            };
            out.extend_from_slice(&y.to_be_bytes());
        }
        out
    }

    /// The IP-domain encrypt and eight-lane decrypt kernels equal CBC
    /// built from the reference block, across the 64-byte lane boundary
    /// and short tails.
    #[test]
    fn cbc_kernels_match_reference() {
        let mut next = stream(0xC0FFEE);
        for blocks in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 24, 33] {
            let key = next().to_be_bytes();
            let des = Des::new(&key);
            let iv = next();
            let plain: Vec<u8> = (0..blocks * 8).map(|_| next() as u8).collect();
            let mut buf = plain.clone();
            encrypt_in_place(&des, iv, Mode::Cbc, &mut buf);
            assert_eq!(
                buf,
                reference_cbc(&key, iv, &plain, false),
                "{blocks} blocks"
            );
            let ct = buf.clone();
            decrypt_in_place(&des, iv, Mode::Cbc, &mut buf);
            assert_eq!(buf, plain, "{blocks} blocks");
            assert_eq!(reference_cbc(&key, iv, &ct, true), plain);
        }
    }

    /// A buffer CBC-processed in pieces, each piece's IV being the last
    /// ciphertext block before it, equals one whole-buffer call — the
    /// chaining the seal/open loops rely on.
    #[test]
    fn cbc_chains_across_pieces() {
        let des = Des::new(b"8bytekey");
        let plain: Vec<u8> = (0..200u32).map(|i| (i * 7) as u8).collect();
        let whole = encrypt(&des, 0x1234, Mode::Cbc, &plain);
        for split in [8usize, 64, 72, 128, 192] {
            let mut buf = zero_pad(&plain);
            let (a, b) = buf.split_at_mut(split);
            encrypt_in_place(&des, 0x1234, Mode::Cbc, a);
            encrypt_in_place(&des, read_block(&a[split - 8..]), Mode::Cbc, b);
            assert_eq!(buf, whole, "encrypt split {split}");
            let (a, b) = buf.split_at_mut(split);
            let chain = read_block(&a[split - 8..]);
            decrypt_in_place(&des, 0x1234, Mode::Cbc, a);
            decrypt_in_place(&des, chain, Mode::Cbc, b);
            assert_eq!(buf[..plain.len()], plain[..], "decrypt split {split}");
        }
    }

    #[test]
    fn cbc_roundtrips_any_length() {
        let des = Des::new(b"8bytekey");
        let msg = b"The quick brown fox jumps over the lazy dog";
        for len in 0..=msg.len() {
            let ct = encrypt(&des, 0xDEADBEEF_CAFEBABE, Mode::Cbc, &msg[..len]);
            assert_eq!(ct.len(), padded_len(len));
            let pt = decrypt(&des, 0xDEADBEEF_CAFEBABE, Mode::Cbc, &ct, len);
            assert_eq!(pt, &msg[..len]);
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
    fn exact_block_multiple_no_padding_growth() {
        let des = Des::new(b"8bytekey");
        let ct = encrypt(&des, 9, Mode::Cbc, &[7u8; 24]);
        assert_eq!(ct.len(), 24);
        assert!(encrypt(&des, 0, Mode::Cbc, b"").is_empty());
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
        // The two-word round function must equal the FIPS-table one for a
        // spread of (R, subkey) inputs, including edge bits.
        let mut next = stream(0x9E3779B97F4A7C15);
        for _ in 0..4096 {
            let x = next();
            let r = (x >> 16) as u32;
            let k = x & 0xFFFF_FFFF_FFFF; // 48-bit subkey
            assert_eq!(feistel(r, split_subkey(k)), feistel_reference(r, k));
        }
        for r in [0u32, 1, 0x8000_0000, u32::MAX] {
            for k in [0u64, 0xFFFF_FFFF_FFFF, 0xAAAA_AAAA_AAAA] {
                assert_eq!(feistel(r, split_subkey(k)), feistel_reference(r, k));
            }
        }
    }

    #[test]
    fn byte_perm_tables_match_permute() {
        let mut next = stream(0x0123456789ABCDEF);
        for _ in 0..1024 {
            let x = next();
            assert_eq!(ip(x), permute(x, 64, &IP));
            assert_eq!(fp(x), permute(x, 64, &FP));
        }
    }

    #[test]
    fn padded_len_matches_zero_pad() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 8191, 8192] {
            assert_eq!(padded_len(len), zero_pad(&vec![0u8; len]).len());
        }
    }

    #[test]
    fn schedule_is_stored_once_in_128_bytes() {
        // Every cached flow key carries one `Des`; its size is per-flow
        // memory.
        assert_eq!(std::mem::size_of::<Des>(), 128);
    }

    #[test]
    fn key_schedule_counter_increments() {
        let before = key_schedule_count();
        let _ = Des::new(b"8bytekey");
        assert!(key_schedule_count() > before);
    }

    #[test]
    fn ctr_matches_scalar_reference() {
        let des = Des::new(b"ctr key!");
        let base = 0xDEADBEEF_00000042u64;
        for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 200] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut fast = plain.clone();
            ctr_xor_at(&des, base, 0, &mut fast);
            // Reference: block i of keystream is E(base + i).
            let mut reference = plain.clone();
            for (i, part) in reference.chunks_mut(8).enumerate() {
                let ks = fips_reference_block(b"ctr key!", base.wrapping_add(i as u64), false);
                for (b, k) in part.iter_mut().zip(ks.to_be_bytes()) {
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
