//! [`Text`]: a reference-counted immutable string one pointer wide.
//!
//! `Arc<str>` is a fat pointer (address and length, 16 bytes), and its
//! allocation carries a weak count no value ever uses. `Text` keeps the
//! strong count and the byte length in a header in front of the bytes, in
//! one allocation, so the handle is a single pointer and a
//! [`Value`](crate::Value) or [`Key`](crate::Key) holding one is 16 bytes.
//!
//! `Hash`, `Eq`, `Ord`, `Display` and `Debug` delegate to `str`, so a
//! `Text` hashes, compares and prints exactly as the same `Arc<str>`
//! would. This is the only module of the crate with `unsafe`
//! code; the count handling mirrors `std::sync::Arc`.

use std::alloc::{self, Layout};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{self, AtomicUsize};

/// The prefix of every `Text` allocation; the string's bytes follow it.
#[repr(C)]
struct Header {
    /// Owners of the allocation; it is freed when the last one drops.
    count: AtomicUsize,
    /// Byte length of the string.
    len: usize,
}

/// Where the bytes start: `u8` has alignment 1, so right after the header.
const DATA_OFFSET: usize = size_of::<Header>();

/// A soft limit on the count, as in `std::sync::Arc`: a clone that finds
/// the count above it aborts, long before the count could wrap to zero and
/// free a string still in use.
const MAX_COUNT: usize = isize::MAX as usize;

/// The allocation of a `len`-byte string: header, then bytes, padded to
/// the header's alignment.
fn layout(len: usize) -> Layout {
    Layout::new::<Header>()
        .extend(Layout::array::<u8>(len).expect("string length fits isize"))
        .expect("string allocation fits isize")
        .0
        .pad_to_align()
}

/// A reference-counted immutable UTF-8 string, one pointer wide. Cloning
/// bumps the count; the bytes are never copied.
pub struct Text {
    ptr: NonNull<Header>,
}

// SAFETY: `Text`'s only field points to an allocation that nothing
// mutates but the atomic count, and the count is the same atomic protocol
// as `Arc`'s, so handles may move to and be shared with other threads.
unsafe impl Send for Text {}
// SAFETY: as for `Send`: through `&Text` a thread reads only immutable
// bytes and the length, or changes the count atomically (by cloning).
unsafe impl Sync for Text {}

impl Text {
    /// Copy `s` into a new allocation with one owner.
    pub fn new(s: &str) -> Text {
        let layout = layout(s.len());
        // SAFETY: `layout` is non-zero-sized: it holds at least the header.
        let raw = unsafe { alloc::alloc(layout) }.cast::<Header>();
        let Some(ptr) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `raw` is a fresh allocation of `layout`: aligned for
        // `Header`, with `DATA_OFFSET + s.len()` bytes writable, and no
        // other pointer to it exists, so neither write overlaps `s`.
        unsafe {
            raw.write(Header {
                count: AtomicUsize::new(1),
                len: s.len(),
            });
            ptr::copy_nonoverlapping(s.as_ptr(), raw.cast::<u8>().add(DATA_OFFSET), s.len());
        }
        Text { ptr }
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: while `self` lives it holds one count, so the header is
        // allocated and initialised; only the atomic count ever changes.
        unsafe { self.ptr.as_ref() }
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        let len = self.header().len;
        // SAFETY: `new` copied `len` bytes of a `str` (valid UTF-8) to
        // `DATA_OFFSET` within the allocation, which stays alive and
        // unchanged while `self` holds its count.
        unsafe {
            let data = self.ptr.as_ptr().cast::<u8>().add(DATA_OFFSET);
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(data, len))
        }
    }

    /// Whether `a` and `b` share one allocation (so are equal).
    #[inline]
    pub fn ptr_eq(a: &Text, b: &Text) -> bool {
        a.ptr == b.ptr
    }

    /// Free the allocation. Out of line, as `Arc`'s `drop_slow`, so the
    /// common drop (a decrement) inlines at every caller.
    ///
    /// # Safety
    ///
    /// The caller is the last owner: it saw the count fall to zero.
    #[inline(never)]
    unsafe fn free(&mut self) {
        atomic::fence(atomic::Ordering::Acquire);
        let layout = layout(self.header().len);
        // SAFETY: the caller saw the count fall to zero, so no other
        // handle to the allocation exists and none can be made; it came
        // from `alloc` with this same layout (`len` never changes), and
        // `Header` needs no drop.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), layout) }
    }

    #[cfg(test)]
    fn count(&self) -> usize {
        self.header().count.load(atomic::Ordering::Acquire)
    }
}

impl Clone for Text {
    #[inline]
    fn clone(&self) -> Text {
        // Relaxed suffices, as in `Arc::clone`: a new owner comes from an
        // existing one, and passing a handle to another thread already
        // synchronises.
        let old = self.header().count.fetch_add(1, atomic::Ordering::Relaxed);
        if old > MAX_COUNT {
            std::process::abort();
        }
        Text { ptr: self.ptr }
    }
}

impl Drop for Text {
    #[inline]
    fn drop(&mut self) {
        // Release orders this owner's reads of the bytes before the
        // decrement; the last owner's Acquire fence in `free` pairs with
        // every other owner's Release, so no read happens after the free.
        if self.header().count.fetch_sub(1, atomic::Ordering::Release) == 1 {
            // SAFETY: the count fell from one to zero: this is the last
            // owner.
            unsafe { self.free() }
        }
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// Identity first, then the bytes (as `Arc<str>` does).
impl PartialEq for Text {
    #[inline]
    fn eq(&self, other: &Text) -> bool {
        Text::ptr_eq(self, other) || self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    #[inline]
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    #[inline]
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pointer_wide() {
        assert_eq!(size_of::<Text>(), size_of::<usize>());
        assert_eq!(size_of::<Option<Text>>(), size_of::<usize>());
    }

    #[test]
    fn roundtrips_strings() {
        let long = "lineitem comment ".repeat(300);
        for s in ["", "R", "BUILDING", "ÆØÅ — naïve 日本語 🦀", long.as_str()] {
            let t = Text::new(s);
            assert_eq!(t.as_str(), s);
            assert_eq!(t.len(), s.len());
            assert_eq!(t.to_string(), s);
            assert_eq!(format!("{t:?}"), format!("{s:?}"));
            assert_eq!(t.count(), 1);
        }
    }

    #[test]
    fn clone_shares_and_drop_releases() {
        let a = Text::new("shared");
        let b = a.clone();
        assert!(Text::ptr_eq(&a, &b));
        assert_eq!(a.count(), 2);
        drop(b);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn separate_allocations_of_one_string_are_equal() {
        let a = Text::new("naïve");
        let b = Text::new("naïve");
        assert!(!Text::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_ne!(a, Text::new("naive"));
        assert!(Text::new("") < Text::new("a"));
    }

    /// Four threads clone and drop handles to two shared strings about a
    /// million times each; afterwards every count is back to one owner.
    /// Run with `cargo test --release -p tukwila-relation -- --ignored`.
    #[test]
    #[ignore]
    fn concurrent_clone_and_drop_keeps_counts() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 1 << 20;
        let texts = [Text::new("R"), Text::new(&"x".repeat(100))];
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for i in 0..THREADS {
                let (texts, start) = (&texts, &start);
                s.spawn(move || {
                    start.wait();
                    let mut held = Vec::with_capacity(8);
                    for r in 0..ROUNDS {
                        held.push(texts[(r + i) % 2].clone());
                        if held.len() == 8 {
                            held.clear();
                        }
                    }
                });
            }
        });
        for t in &texts {
            assert_eq!(t.count(), 1);
        }
        assert_eq!(texts[0].as_str(), "R");
    }
}
