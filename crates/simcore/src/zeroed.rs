//! Fixed-length tables of plain integers that start as the kernel's
//! untouched zero pages.
//!
//! `vec![0; n]` is `calloc`, and `calloc` hands back fresh zero pages
//! only while glibc serves the block with `mmap`. Freeing an mmapped
//! block raises glibc's mmap threshold to that block's size, so every
//! later block that large comes from the heap and is zero-filled in
//! the constructor: 0.1–6 ms for an 8 MiB table. [`ZeroedTable`] maps
//! its memory itself (anonymous and private), so building one writes
//! nothing whatever the allocator did before, and each page costs one
//! fault when the table first touches it.

use std::alloc::{handle_alloc_error, Layout};
use std::ffi::{c_int, c_long, c_void};
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// An integer type whose all-zero bytes are the value 0 and for which
/// every bit pattern is valid.
pub trait Zeroable: sealed::Sealed + Copy {}
impl Zeroable for u8 {}
impl Zeroable for u32 {}
impl Zeroable for u64 {}

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 2;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: c_int = 0x20;
#[cfg(any(target_os = "macos", target_os = "freebsd"))]
const MAP_ANONYMOUS: c_int = 0x1000;

extern "C" {
    // `off_t` is `long` on every 64-bit target these constants cover.
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// `len` zeros of `T` in their own anonymous mapping, unmapped on
/// drop. It derefs to `[T]`; its length never changes.
pub struct ZeroedTable<T: Zeroable> {
    /// The mapping's start, or dangling when `len` is 0 (no mapping).
    ptr: NonNull<T>,
    len: usize,
}

impl<T: Zeroable> ZeroedTable<T> {
    /// A table of `len` zeros. Panics if `len × size_of::<T>()`
    /// overflows `isize`; if the kernel refuses the mapping, reports
    /// it as `Vec` reports an out-of-memory allocation.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let layout = Layout::array::<T>(len).expect("capacity overflow");
        if layout.size() == 0 {
            return ZeroedTable {
                ptr: NonNull::dangling(),
                len,
            };
        }
        // SAFETY: a private anonymous mapping at an address the kernel
        // picks, with no file behind it, aliases no memory this
        // program uses; `layout.size()` is non-zero, as `mmap` needs.
        let p = unsafe {
            mmap(
                ptr::null_mut(),
                layout.size(),
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // `MAP_FAILED` is `(void *) -1`.
        if p as isize == -1 {
            handle_alloc_error(layout);
        }
        ZeroedTable {
            // A successful mapping is page-aligned, so it is aligned
            // for `T`, and never at address 0 without `MAP_FIXED`.
            ptr: NonNull::new(p.cast()).expect("mmap returned a null mapping"),
            len,
        }
    }
}

impl<T: Zeroable> Deref for ZeroedTable<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is aligned and either dangling with a zero-size
        // layout or the start of a live read-write mapping of
        // `len × size_of::<T>()` bytes (at most `isize::MAX`, checked
        // in `new`) that only this table owns. The mapping starts
        // zeroed and `T` accepts every bit pattern, so every element
        // is initialised.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> DerefMut for ZeroedTable<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Zeroable> Drop for ZeroedTable<T> {
    fn drop(&mut self) {
        // Cannot overflow: `new` checked the same product.
        let bytes = self.len * std::mem::size_of::<T>();
        if bytes > 0 {
            // SAFETY: `ptr` and `bytes` are exactly the mapping `new`
            // made, no borrow of it outlives `self`, and it is unmapped
            // only here. A failure would only leak the mapping, so the
            // result is ignored rather than panicking in `drop`.
            unsafe { munmap(self.ptr.as_ptr().cast(), bytes) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_empty_table_maps_nothing() {
        let t = ZeroedTable::<u64>::new(0);
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn zeroed_every_element_reads_zero() {
        assert!(ZeroedTable::<u8>::new(3 * 4096 + 1).iter().all(|&x| x == 0));
        assert!(ZeroedTable::<u32>::new(1 << 20).iter().all(|&x| x == 0));
        assert!(ZeroedTable::<u64>::new(7).iter().all(|&x| x == 0));
    }

    #[test]
    fn zeroed_first_and_last_index_write_and_read() {
        let mut t = ZeroedTable::<u32>::new(2_097_152);
        let last = t.len() - 1;
        t[0] = 7;
        t[last] = u32::MAX;
        assert_eq!((t[0], t[1], t[last - 1], t[last]), (7, 0, 0, u32::MAX));
        assert_eq!(t.len(), 2_097_152);
    }

    #[test]
    #[should_panic(expected = "capacity overflow")]
    fn zeroed_oversized_table_fails_loudly() {
        let _ = ZeroedTable::<u64>::new(usize::MAX / 4);
    }

    /// A table that reused its predecessor's memory without clearing it
    /// would read the old values back.
    fn refill_and_rebuild<T: Zeroable + Into<u64>>(len: usize, fill: T) {
        for round in 0..20 {
            let mut t = ZeroedTable::<T>::new(len);
            assert!(t.iter().all(|&x| x.into() == 0), "round {round}");
            t.fill(fill);
            assert!(t.iter().all(|&x| x.into() == fill.into()));
        }
    }

    #[test]
    fn zeroed_a_rebuilt_table_is_zero_after_a_filled_one_drops() {
        // The buffer-cache page index at its 6 GiB cap, and a small
        // table of each other element type.
        refill_and_rebuild::<u32>(2 << 20, 0xdead_beef);
        refill_and_rebuild::<u8>(1000, 0xa5);
        refill_and_rebuild::<u64>(33, u64::MAX);
    }
}
