//! AES-128 block encryption.
//!
//! Two interchangeable backends: a portable software implementation
//! (S-box + xtime MixColumns) and an AES-NI path selected at runtime.
//! Only encryption is implemented — GCM never decrypts blocks.

/// The AES S-box.
static SBOX: [u8; 256] = {
    // Generated from the multiplicative inverse in GF(2^8) + affine
    // transform; values are the standard FIPS-197 table.
    [
        0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
        0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
        0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
        0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
        0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
        0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
        0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
        0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
        0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
        0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
        0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
        0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
        0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
        0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
        0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
        0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
        0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
        0x16,
    ]
};

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// An expanded AES-128 key (11 round keys).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    use_ni: bool,
}

impl Aes128 {
    /// Expand `key` into the round-key schedule. Chooses the AES-NI
    /// backend automatically when the CPU supports it.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = *key;
        for i in 1..11 {
            let prev = rk[i - 1];
            let mut t = [prev[12], prev[13], prev[14], prev[15]];
            // RotWord + SubWord + Rcon.
            t.rotate_left(1);
            for b in &mut t {
                *b = SBOX[*b as usize];
            }
            t[0] ^= RCON[i - 1];
            for j in 0..4 {
                rk[i][j] = prev[j] ^ t[j];
            }
            for j in 4..16 {
                rk[i][j] = prev[j] ^ rk[i][j - 4];
            }
        }
        Aes128 {
            round_keys: rk,
            use_ni: Self::ni_available(),
        }
    }

    /// Is the hardware AES path in use?
    #[must_use]
    pub fn ni_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("aes")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Force the portable backend (tests cross-check the two).
    #[must_use]
    pub fn portable(key: &[u8; 16]) -> Self {
        let mut a = Self::new(key);
        a.use_ni = false;
        a
    }

    /// Encrypt one block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_ni {
            // SAFETY: use_ni is only true when the `aes` feature was
            // detected at construction.
            unsafe { self.encrypt_block_ni(block) };
            return;
        }
        self.encrypt_block_portable(block);
    }

    fn encrypt_block_portable(&self, s: &mut [u8; 16]) {
        add_round_key(s, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(s);
            shift_rows(s);
            mix_columns(s);
            add_round_key(s, &self.round_keys[round]);
        }
        sub_bytes(s);
        shift_rows(s);
        add_round_key(s, &self.round_keys[10]);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_block_ni(&self, block: &mut [u8; 16]) {
        use std::arch::x86_64::*;
        let mut b = _mm_loadu_si128(block.as_ptr() as *const __m128i);
        let mut rk = [_mm_setzero_si128(); 11];
        for (r, k) in rk.iter_mut().zip(&self.round_keys) {
            *r = _mm_loadu_si128(k.as_ptr() as *const __m128i);
        }
        b = _mm_xor_si128(b, rk[0]);
        for k in rk.iter().take(10).skip(1) {
            b = _mm_aesenc_si128(b, *k);
        }
        b = _mm_aesenclast_si128(b, rk[10]);
        _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, b);
    }
}

#[inline]
fn add_round_key(s: &mut [u8; 16], k: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= k[i];
    }
}

#[inline]
fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn shift_rows(s: &mut [u8; 16]) {
    // State is column-major: byte (row r, col c) is s[4c + r].
    let t = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[4 * c + r] = t[4 * ((c + r) % 4) + r];
        }
    }
}

#[inline]
fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        let x = [xtime(col[0]), xtime(col[1]), xtime(col[2]), xtime(col[3])];
        s[4 * c] = x[0] ^ (x[1] ^ col[1]) ^ col[2] ^ col[3];
        s[4 * c + 1] = col[0] ^ x[1] ^ (x[2] ^ col[2]) ^ col[3];
        s[4 * c + 2] = col[0] ^ col[1] ^ x[2] ^ (x[3] ^ col[3]);
        s[4 * c + 3] = (x[0] ^ col[0]) ^ col[1] ^ col[2] ^ x[3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_vector() {
        // FIPS-197 Appendix C.1.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes128::portable(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn ni_matches_portable() {
        if !Aes128::ni_available() {
            eprintln!("AES-NI not available; skipping cross-check");
            return;
        }
        let mut rng = dcn_simcore::SimRng::new(99);
        for _ in 0..200 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            for b in &mut key {
                *b = rng.next_u64() as u8;
            }
            for b in &mut block {
                *b = rng.next_u64() as u8;
            }
            let ni = Aes128::new(&key);
            let sw = Aes128::portable(&key);
            let mut b1 = block;
            let mut b2 = block;
            ni.encrypt_block(&mut b1);
            sw.encrypt_block(&mut b2);
            assert_eq!(b1, b2);
        }
    }

    #[test]
    fn key_schedule_first_round_keys() {
        // FIPS-197 A.1: key expansion of 2b7e151628aed2a6abf7158809cf4f3c.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes128::portable(&key);
        assert_eq!(
            aes.round_keys[1].to_vec(),
            hex("a0fafe1788542cb123a339392a6c7605")
        );
        assert_eq!(
            aes.round_keys[10].to_vec(),
            hex("d014f9a8c9ee2589e13f0cc8b6630ca6")
        );
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        let mut x = [0u8; 16];
        let mut y = [0u8; 16];
        a.encrypt_block(&mut x);
        b.encrypt_block(&mut y);
        assert_ne!(x, y);
    }
}
