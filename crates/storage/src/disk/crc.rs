//! CRC-32/ISO-HDLC (reflected polynomial `0xEDB88320`, initial register and
//! final XOR `0xFFFFFFFF`, check value `0xCBF43926`) — every line of checksum
//! code in the crate.
//!
//! One value, two kernels.  Both take and return the *raw* shift register
//! (no initial or final inversion), so they compose on one input:
//!
//! * `table_update` — slice-by-8 over `const`-built tables.  The only kernel
//!   on targets other than x86-64 and on x86-64 CPUs without `pclmulqdq`;
//!   everywhere, it finishes the last `< 16` bytes and takes every input
//!   shorter than 64 bytes.
//! * `clmul` — 128-bit carry-less-multiply folding (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009) over
//!   every whole 16-byte lane of an input of at least 64 bytes.
//!
//! [`crc32`] picks per call from what the CPU reports and the input length;
//! nothing a user sets selects a kernel.  The byte-at-a-time loop the format
//! is specified by lives in the tests as the reference for both.

/// The register before the first byte; also the final XOR.
const INIT: u32 = 0xFFFF_FFFF;

const fn make_crc_table() -> [u32; 256] {
    // CRC-32 (IEEE 802.3), reflected, polynomial 0xEDB88320.
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const fn make_crc_tables() -> [[u32; 256]; 8] {
    // Slice-by-8: `tables[k][b]` is the CRC state after byte `b` followed by
    // `k` zero bytes, so eight input bytes fold into the state with eight
    // independent lookups instead of eight dependent ones.
    let mut tables = [make_crc_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

/// The table kernel: advance the raw register `c` over `bytes`, eight bytes
/// per step and bytewise over the last `< 8`.
fn table_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernel, and the crate's only `unsafe`.
///
/// A CRC is a remainder modulo `P`, and multiplication by a power of `x`
/// commutes with taking it: the contribution of a 128-bit lane `A` to the
/// remainder `n` bits further along the message is `A.lo · k ⊕ A.hi · k′`
/// for two 33-bit constants that depend only on `n`.  So a lane is *folded*
/// forward over a fixed distance by two carry-less multiplies and an XOR
/// into the lane it lands on; four accumulators, each jumping 64 bytes,
/// keep the multiplier pipeline full.  What is left at the end is one
/// 128-bit remainder, reduced to the 32-bit register by two more folds and
/// a Barrett reduction.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Bytes per lane (one SSE register).
    const LANE: usize = 16;
    /// Bytes per fold-by-4 step, and the shortest input worth the set-up.
    const MIN_LEN: usize = 4 * LANE;

    // The paper's constants for this polynomial, in the form its
    // bit-reflected variant multiplies by (reflected, shifted left by one).
    /// `x^(512+32) mod P`: a lane's low half, carried 64 bytes forward.
    const K1: i64 = 0x1_5444_2bd4;
    /// `x^(512−32) mod P`: a lane's high half, carried 64 bytes forward.
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32) mod P`: low half, 16 bytes forward.
    const K3: i64 = 0x1_7519_97d0;
    /// `x^(128−32) mod P`: high half, 16 bytes forward; also 128 → 96 bits.
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: 96 → 64 bits.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial itself, reflected, with its `x^32` term.
    const P: i64 = 0x1_DB71_0641;
    /// `⌊x^64 / P⌋`, reflected: the Barrett multiplier.
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU runs the kernel (std caches the `cpuid` answer, so
    /// asking per call is one relaxed load).
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the raw register `reg` over every whole 16-byte lane of
    /// `bytes`, returning the new register and the `< 16` bytes not
    /// consumed; `None` — nothing consumed — when the CPU lacks the
    /// instructions or the input is shorter than [`MIN_LEN`].
    pub(super) fn fold(reg: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        if bytes.len() < MIN_LEN || !detected() {
            return None;
        }
        // SAFETY: `detected()` returned true on the line above, so this CPU
        // has `pclmulqdq` and `sse4.1`, which is all `fold_lanes` requires.
        Some(unsafe { fold_lanes(reg, bytes) })
    }

    /// One unaligned 16-byte load.
    #[inline]
    fn load(lane: &[u8]) -> __m128i {
        assert_eq!(lane.len(), LANE);
        // SAFETY: `lane` is a live shared slice of exactly 16 bytes (checked
        // above; every caller hands in a `chunks_exact(16)` item), which is
        // what an unaligned 128-bit load reads.  `_mm_loadu_si128` is SSE2,
        // part of the x86-64 baseline, so no feature check guards it.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Carry `acc` forward over the distance `keys` encodes — low half times
    /// `keys.lo`, high half times `keys.hi` — onto `next`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold_onto(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Reduce the last 128-bit remainder to the 32-bit raw register.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn reduce(x: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        // 128 → 96 bits: the low half moves 64 bits forward onto the high.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, _mm_set_epi64x(0, K4)),
            _mm_srli_si128::<8>(x),
        );
        // 96 → 64 bits: the low word moves 32 bits forward.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett, reflected form: T1 = (x mod x^32) · μ, T2 = (T1 mod
        // x^32) · P, and the register is bits 32..64 of x ⊕ T2.
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }

    /// The kernel behind [`fold`].
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`.  (`bytes.len() >=
    /// MIN_LEN` is checked, not assumed.)
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold_lanes(reg: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let mut blocks = bytes.chunks_exact(MIN_LEN);
        let first = blocks.next().expect("fold() admits only 64 bytes or more");
        let mut lanes = first.chunks_exact(LANE).map(load);
        let mut acc: [__m128i; 4] = std::array::from_fn(|_| lanes.next().expect("four lanes"));
        // SAFETY: `fold_onto` and `reduce` need `pclmulqdq` and `sse4.1`,
        // which are this function's own preconditions — its one caller,
        // `fold`, checks `detected()` first.  The other intrinsics are
        // baseline SSE2 on registers; memory is only read through `load`.
        unsafe {
            // The register so far rides on the first four message bytes.
            acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(reg as i32));
            // Fold by 4: each accumulator jumps 64 bytes per step.
            let k1k2 = _mm_set_epi64x(K2, K1);
            for block in &mut blocks {
                for (a, lane) in acc.iter_mut().zip(block.chunks_exact(LANE)) {
                    *a = fold_onto(*a, load(lane), k1k2);
                }
            }
            // Fold by 1: the four accumulators into one, then lane by lane
            // over what is left of the input.
            let k3k4 = _mm_set_epi64x(K4, K3);
            let mut lanes = blocks.remainder().chunks_exact(LANE);
            let mut x = acc[0];
            for next in acc[1..].iter().copied().chain((&mut lanes).map(load)) {
                x = fold_onto(x, next, k3k4);
            }
            (reduce(x), lanes.remainder())
        }
    }
}

/// Hand `bytes` to the widest kernel that will take them: the register
/// after the bytes it consumed, and the rest for [`table_update`].
fn fold_wide(reg: u32, bytes: &[u8]) -> (u32, &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(folded) = clmul::fold(reg, bytes) {
        return folded;
    }
    (reg, bytes)
}

/// CRC-32 (IEEE) of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let (reg, tail) = fold_wide(INIT, bytes);
    table_update(reg, tail) ^ INIT
}

/// The kernel [`crc32`] runs on this host for inputs of 64 bytes or more:
/// `"pclmulqdq"` or `"table"`.  (Shorter inputs always take the table
/// kernel.)  Exported as the `samplecf_storage_crc32_kernel` gauge.
#[must_use]
pub fn crc32_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        return "pclmulqdq";
    }
    "table"
}

/// What the checksum tests (kept beside the page-block layout they pin, in
/// `format.rs`) compare: the specification's bytewise loop and every kernel
/// the CPU running the suite can execute.
#[cfg(test)]
pub(super) mod testing {
    use super::*;

    /// The byte-at-a-time table CRC: the reference for both kernels.
    pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = INIT;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ INIT
    }

    /// A named whole-input CRC.
    pub type Kernel = (&'static str, fn(&[u8]) -> u32);

    /// Every kernel this CPU can run: the table kernel alone at every length
    /// (on an x86-64 runner `crc32` would otherwise never send it more than
    /// 63 bytes), and — when detected — the clmul composition, which is what
    /// `crc32` itself is on such a host.
    pub fn kernels() -> Vec<Kernel> {
        fn table_only(bytes: &[u8]) -> u32 {
            table_update(INIT, bytes) ^ INIT
        }
        let mut kernels: Vec<Kernel> = vec![("table", table_only)];
        if crc32_kernel() == "pclmulqdq" {
            kernels.push(("pclmulqdq", crc32));
        }
        kernels
    }
}
