//! AES-128-GCM (NIST SP 800-38D): CTR-mode encryption + GHASH
//! authentication, with in-place seal/open.
//!
//! GHASH uses Shoup's 4-bit table method on `u128`: a 256-byte per-key
//! table of H times every nibble, and one shared 16-entry table for
//! the reduction of the four bits each ×x⁴ step shifts out. A block
//! costs 32 steps of a shift and two lookups — fast enough to run real
//! payload through tests and examples.

use crate::aes::Aes128;

/// One 16-byte cipher block (J0, counter, keystream, tag).
type Block = [u8; 16];

/// Multiply by x in the reflected GF(2^128), with the block loaded
/// big-endian (the x⁰ coefficient is the top bit): right shift, reduce
/// with 0xE1 << 120 when the shifted-out bit was set.
const fn mul_x(v: u128) -> u128 {
    if v & 1 == 1 {
        (v >> 1) ^ (0xE1 << 120)
    } else {
        v >> 1
    }
}

/// `REM[n]` = n · x⁴ for a nibble n in the low four bits: what the bits
/// shifted out by `z >> 4` reduce to.
static REM: [u128; 16] = {
    let mut rem = [0u128; 16];
    let mut n = 0;
    while n < 16 {
        rem[n] = mul_x(mul_x(mul_x(mul_x(n as u128))));
        n += 1;
    }
    rem
};

/// GHASH key table: `table[n]` = n · H for every 4-bit nibble n,
/// computed once per key.
struct GhashKey {
    table: [u128; 16],
}

impl GhashKey {
    fn new(h: u128) -> Self {
        let mut table = [0u128; 16];
        // Nibbles are MSB-first: 8 is x⁰, so table[8] = H and each
        // halving of the index is one more multiplication by x.
        table[8] = h;
        for i in [4usize, 2, 1] {
            table[i] = mul_x(table[i * 2]);
        }
        for i in 2..16usize {
            if !i.is_power_of_two() {
                let hi = 1usize << (usize::BITS - 1 - i.leading_zeros());
                table[i] = table[hi] ^ table[i - hi];
            }
        }
        GhashKey { table }
    }

    /// y · H, taking y's 32 nibbles from the x¹²⁴..x¹²⁷ end: each step
    /// multiplies the running product by x⁴ and adds nibble · H.
    fn mul_h(&self, y: u128) -> u128 {
        let mut z = 0u128;
        for k in 0..32 {
            let nib = (y >> (4 * k)) & 0xF;
            z = (z >> 4) ^ REM[(z & 0xF) as usize] ^ self.table[nib as usize];
        }
        z
    }
}

/// AES-128-GCM context for one key.
pub struct AesGcm128 {
    aes: Aes128,
    ghash: GhashKey,
}

/// Authentication tag length (full 16-byte GCM tag).
pub const TAG_LEN: usize = 16;

impl AesGcm128 {
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let mut h = [0u8; 16];
        aes.encrypt_block(&mut h);
        AesGcm128 {
            ghash: GhashKey::new(u128::from_be_bytes(h)),
            aes,
        }
    }

    fn j0(&self, nonce: &[u8; 12]) -> Block {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    fn ctr_inplace(&self, j0: &Block, data: &mut [u8]) {
        let mut ctr = *j0;
        for chunk in data.chunks_mut(16) {
            inc32(&mut ctr);
            let mut ks = ctr;
            self.aes.encrypt_block(&mut ks);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
        }
    }

    fn ghash_tag(&self, j0: &Block, aad: &[u8], ct: &[u8]) -> Block {
        let feed = |data: &[u8], mut y: u128| {
            for chunk in data.chunks(16) {
                let mut b = [0u8; 16];
                b[..chunk.len()].copy_from_slice(chunk);
                y = self.ghash.mul_h(y ^ u128::from_be_bytes(b));
            }
            y
        };
        let y = feed(ct, feed(aad, 0));
        let lens = (((aad.len() as u128) * 8) << 64) | ((ct.len() as u128) * 8);
        let y = self.ghash.mul_h(y ^ lens);
        // E(K, J0) ⊕ GHASH
        let mut ek = *j0;
        self.aes.encrypt_block(&mut ek);
        (y ^ u128::from_be_bytes(ek)).to_be_bytes()
    }

    /// Encrypt `data` in place and return the tag. This is Atlas's
    /// path: the plaintext sits in a diskmap DMA buffer and is
    /// overwritten with ciphertext (§3, step 4).
    pub fn seal_in_place(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let j0 = self.j0(nonce);
        self.ctr_inplace(&j0, data);
        self.ghash_tag(&j0, aad, data)
    }

    /// Verify `tag` and decrypt `data` in place. Returns false (and
    /// leaves `data` decrypted-garbage-free: untouched) on tag
    /// mismatch.
    pub fn open_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> bool {
        let j0 = self.j0(nonce);
        let expect = self.ghash_tag(&j0, aad, data);
        // Constant-time-ish comparison (simulation: semantic only).
        let diff = expect
            .iter()
            .zip(tag.iter())
            .fold(0u8, |d, (a, b)| d | (a ^ b));
        if diff != 0 {
            return false;
        }
        self.ctr_inplace(&j0, data);
        true
    }
}

fn inc32(ctr: &mut Block) {
    let mut v = u32::from_be_bytes([ctr[12], ctr[13], ctr[14], ctr[15]]);
    v = v.wrapping_add(1);
    ctr[12..].copy_from_slice(&v.to_be_bytes());
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

    /// The byte-array GHASH multiply the `u128` one replaced: the same
    /// nibble table, but ×x⁴ as four one-bit shifts over 16 bytes.
    mod bytewise {
        type Block = [u8; 16];

        fn xor_block(a: &mut Block, b: &Block) {
            for i in 0..16 {
                a[i] ^= b[i];
            }
        }

        fn mul_x(v: &Block) -> Block {
            let mut out = [0u8; 16];
            let mut carry = 0u8;
            for i in 0..16 {
                let b = v[i];
                out[i] = (b >> 1) | (carry << 7);
                carry = b & 1;
            }
            if carry == 1 {
                out[0] ^= 0xE1;
            }
            out
        }

        fn table(h: &Block) -> [Block; 16] {
            let mut table = [[0u8; 16]; 16];
            table[8] = *h;
            for i in [4usize, 2, 1] {
                table[i] = mul_x(&table[i * 2]);
            }
            for i in 2..16usize {
                if !i.is_power_of_two() {
                    let hi = 1usize << (usize::BITS - 1 - i.leading_zeros());
                    let mut v = table[hi];
                    xor_block(&mut v, &table[i - hi]);
                    table[i] = v;
                }
            }
            table
        }

        pub fn mul_h(h: &Block, y: &mut Block) {
            let table = table(h);
            let mut z = [0u8; 16];
            for i in (0..16).rev() {
                for shift in [0u32, 4] {
                    let nib = (y[i] >> shift) & 0xF;
                    for _ in 0..4 {
                        z = mul_x(&z);
                    }
                    xor_block(&mut z, &table[nib as usize]);
                }
            }
            *y = z;
        }
    }

    #[test]
    fn mul_h_matches_bytewise_reference() {
        let check = |h: u128, y: u128| {
            let mut want = y.to_be_bytes();
            bytewise::mul_h(&h.to_be_bytes(), &mut want);
            let got = GhashKey::new(h).mul_h(y);
            assert_eq!(got.to_be_bytes(), want, "H {h:032x}, y {y:032x}");
        };
        // Every single-bit y (each reduction path) under edge keys.
        for h in [0, 1, 1 << 127, u128::MAX, 0xE1 << 120] {
            check(h, 0);
            check(h, u128::MAX);
            for bit in 0..128 {
                check(h, 1 << bit);
            }
        }
        let mut rng = dcn_simcore::SimRng::new(0x6a4c);
        let mut draw = || (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        for _ in 0..2000 {
            check(draw(), draw());
        }
    }

    #[test]
    fn empty_plaintext_tag_is_ekj0() {
        // GCM structure: with empty AAD and plaintext, GHASH reduces
        // to 0 (the length block is all-zero), so the tag must equal
        // E(K, J0) exactly. This pins the J0 construction; the GHASH
        // path itself is pinned by the NIST vectors below.
        let gcm = AesGcm128::new(&[0u8; 16]);
        let tag = gcm.seal_in_place(&[0u8; 12], &[], &mut []);
        let mut j0 = [0u8; 16];
        j0[15] = 1;
        crate::aes::Aes128::new(&[0u8; 16]).encrypt_block(&mut j0);
        assert_eq!(tag, j0);
    }

    #[test]
    fn nist_case_2_one_block() {
        // Test case 2: K=0, IV=0, P=0^128.
        let gcm = AesGcm128::new(&[0u8; 16]);
        let mut data = [0u8; 16];
        let tag = gcm.seal_in_place(&[0u8; 12], &[], &mut data);
        assert_eq!(data.to_vec(), hex("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(tag.to_vec(), hex("ab6e47d42cec13bdf53a67b21257bddf"));
    }

    #[test]
    fn nist_case_3_four_blocks() {
        // Test case 3: the classic feffe992... key.
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let mut pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let gcm = AesGcm128::new(&key);
        let tag = gcm.seal_in_place(&nonce, &[], &mut pt);
        assert_eq!(
            pt,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            )
        );
        assert_eq!(tag.to_vec(), hex("4d5c2af327cd64a62cf35abd2ba6fab4"));
    }

    #[test]
    fn nist_case_4_with_aad() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let mut pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let gcm = AesGcm128::new(&key);
        let tag = gcm.seal_in_place(&nonce, &aad, &mut pt);
        assert_eq!(tag.to_vec(), hex("5bc94fbc3221a5db94fae95ae7121a47"));
    }

    #[test]
    fn seal_open_round_trip() {
        let gcm = AesGcm128::new(b"0123456789abcdef");
        let nonce = [7u8; 12];
        let aad = b"header";
        let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut data = original.clone();
        let tag = gcm.seal_in_place(&nonce, aad, &mut data);
        assert_ne!(data, original, "ciphertext differs");
        assert!(gcm.open_in_place(&nonce, aad, &mut data, &tag));
        assert_eq!(data, original);
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let gcm = AesGcm128::new(b"0123456789abcdef");
        let nonce = [7u8; 12];
        let mut data = vec![42u8; 64];
        let tag = gcm.seal_in_place(&nonce, &[], &mut data);
        data[10] ^= 1;
        assert!(!gcm.open_in_place(&nonce, &[], &mut data, &tag));
        // Wrong AAD also rejected.
        data[10] ^= 1;
        assert!(!gcm.open_in_place(&nonce, b"x", &mut data, &tag));
        // Wrong nonce rejected.
        assert!(!gcm.open_in_place(&[8u8; 12], &[], &mut data, &tag));
        // Untampered passes.
        assert!(gcm.open_in_place(&nonce, &[], &mut data, &tag));
    }

    #[test]
    fn distinct_nonces_distinct_keystreams() {
        let gcm = AesGcm128::new(b"0123456789abcdef");
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        gcm.seal_in_place(&[1u8; 12], &[], &mut a);
        gcm.seal_in_place(&[2u8; 12], &[], &mut b);
        assert_ne!(a, b);
    }
}
