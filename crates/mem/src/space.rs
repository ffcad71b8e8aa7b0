//! Flat, sparse, word-granular backing store for global and shared memory.

use std::sync::Arc;

const PAGE_WORDS: usize = 1024; // 4 KiB pages
/// Second-level tables cover `DIR_SPAN` pages (4 MiB of address space)
/// each; the root directory has one slot per possible table.
const DIR_SPAN: usize = 1024;
const DIR_SLOTS: usize = 1024;

/// A 4 KiB page, shared by every clone of a [`Memory`] until one of them
/// writes to it.
type Page = Arc<[u32; PAGE_WORDS]>;

/// A sparse 32-bit byte-addressed memory storing aligned 32-bit words.
///
/// Unwritten locations read as zero. Addresses must be 4-byte aligned —
/// the warpweave LSU only issues word accesses, like the 32-bit loads the
/// benchmarked kernels use.
///
/// Storage is a two-level page table (root directory → 4 MiB directory →
/// 4 KiB page), so the hot word accesses are two pointer chases and an
/// index — no hashing on the simulator's LSU path. Unpopulated levels
/// cost nothing until first written.
///
/// Pages are copy-on-write: a clone copies the directories and shares
/// every resident page, and either side copies a shared page on its first
/// write to it ([`Memory::page_mut`]). Each clone still behaves as an
/// independent memory. This is the shard contract of a multi-SM
/// `Machine`: every SM starts from a clone of the launch image and holds
/// only the pages it wrote.
///
/// # Examples
/// ```
/// use warpweave_mem::Memory;
/// let mut m = Memory::new();
/// m.write_u32(0x100, 42);
/// assert_eq!(m.read_u32(0x100), 42);
/// assert_eq!(m.read_u32(0x104), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    dirs: Vec<Option<Box<[Option<Page>; DIR_SPAN]>>>,
}

impl Memory {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Reads the aligned 32-bit word at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is not 4-byte aligned.
    pub fn read_u32(&self, addr: u32) -> u32 {
        assert!(addr.is_multiple_of(4), "unaligned access at 0x{addr:x}");
        self.page(addr).map_or(0, |p| p[Self::page_word(addr)])
    }

    /// Writes the aligned 32-bit word at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is not 4-byte aligned.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        assert!(addr.is_multiple_of(4), "unaligned access at 0x{addr:x}");
        self.page_mut(addr)[Self::page_word(addr)] = value;
    }

    /// The 4 KiB page containing `addr` as 1024 writable words, created
    /// zero-filled if nothing was written there yet, and copied first if
    /// another clone still shares it. Index it with [`Memory::page_word`];
    /// a run of consecutive words inside one page is one table walk and one
    /// slice copy.
    pub fn page_mut(&mut self, addr: u32) -> &mut [u32] {
        let w = (addr >> 2) as usize;
        if self.dirs.is_empty() {
            self.dirs.resize(DIR_SLOTS, None);
        }
        let dir = self.dirs[w >> 20].get_or_insert_with(|| Box::new([const { None }; DIR_SPAN]));
        let page = dir[(w >> 10) & (DIR_SPAN - 1)].get_or_insert_with(|| Arc::new([0; PAGE_WORDS]));
        &mut Arc::make_mut(page)[..]
    }

    /// Read-only view of the resident 4 KiB page containing `addr`
    /// (`None` when unwritten — reads as zero). Hot loops pair this with
    /// [`Memory::page_word`] to amortise the table walk across
    /// consecutive accesses to one page.
    pub fn page(&self, addr: u32) -> Option<&[u32]> {
        let w = (addr >> 2) as usize;
        match self.dirs.get(w >> 20) {
            Some(Some(dir)) => dir[(w >> 10) & (DIR_SPAN - 1)].as_deref().map(|p| &p[..]),
            _ => None,
        }
    }

    /// Word index of (aligned) `addr` within its 4 KiB page.
    pub fn page_word(addr: u32) -> usize {
        ((addr >> 2) as usize) & (PAGE_WORDS - 1)
    }

    /// Reads an `f32` (bit-cast) at `addr`.
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` (bit-cast) at `addr`.
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads an `i32` at `addr`.
    pub fn read_i32(&self, addr: u32) -> i32 {
        self.read_u32(addr) as i32
    }

    /// Writes an `i32` at `addr`.
    pub fn write_i32(&mut self, addr: u32, value: i32) {
        self.write_u32(addr, value as u32);
    }

    /// Checks that `n` words starting at aligned `addr` end inside the
    /// 32-bit address space.
    fn check_range(addr: u32, n: usize) {
        assert!(addr.is_multiple_of(4), "unaligned access at 0x{addr:x}");
        assert!(
            n as u64 <= (1u64 << 30) - (addr >> 2) as u64,
            "{n} words at 0x{addr:x} run past the end of the address space"
        );
    }

    /// Writes `to_word(item)` for each item to consecutive words starting
    /// at `addr`: one table walk and one slice loop per 4 KiB page.
    fn write_run<T: Copy>(&mut self, addr: u32, mut items: &[T], to_word: impl Fn(T) -> u32) {
        Self::check_range(addr, items.len());
        let mut word = addr >> 2; // the range check keeps this below 2^30
        while !items.is_empty() {
            let at = word as usize & (PAGE_WORDS - 1);
            let (now, later) = items.split_at(items.len().min(PAGE_WORDS - at));
            let page = &mut self.page_mut(word << 2)[at..at + now.len()];
            for (o, &item) in page.iter_mut().zip(now) {
                *o = to_word(item);
            }
            word += now.len() as u32;
            items = later;
        }
    }

    /// Bulk-writes consecutive words starting at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is not 4-byte aligned, or if the range would run
    /// past `0xFFFF_FFFC` — a range never wraps to address 0 (the same
    /// holds for the other bulk helpers).
    pub fn write_words(&mut self, addr: u32, words: &[u32]) {
        self.write_run(addr, words, |w| w);
    }

    /// Bulk-writes consecutive `f32` values (bit-cast) starting at `addr`.
    pub fn write_f32s(&mut self, addr: u32, values: &[f32]) {
        self.write_run(addr, values, f32::to_bits);
    }

    /// Reads `n` consecutive words starting at `addr` as `from_word` of
    /// each: one table walk and one slice loop per 4 KiB page, and an
    /// unwritten page reads as zeros.
    fn read_run<T: Clone>(&self, addr: u32, n: usize, from_word: impl Fn(u32) -> T) -> Vec<T> {
        Self::check_range(addr, n);
        let mut out = Vec::with_capacity(n);
        let mut word = addr >> 2; // the range check keeps this below 2^30
        while out.len() < n {
            let at = word as usize & (PAGE_WORDS - 1);
            let len = (n - out.len()).min(PAGE_WORDS - at);
            match self.page(word << 2) {
                Some(page) => out.extend(page[at..at + len].iter().map(|&w| from_word(w))),
                None => out.resize(out.len() + len, from_word(0)),
            }
            word += len as u32;
        }
        out
    }

    /// Bulk-reads `n` consecutive words starting at `addr`.
    pub fn read_words(&self, addr: u32, n: usize) -> Vec<u32> {
        self.read_run(addr, n, |w| w)
    }

    /// Bulk-reads `n` consecutive `f32` values starting at `addr`.
    pub fn read_f32s(&self, addr: u32, n: usize) -> Vec<f32> {
        self.read_run(addr, n, f32::from_bits)
    }

    /// Number of resident 4 KiB pages (for capacity diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.dirs
            .iter()
            .flatten()
            .map(|d| d.iter().flatten().count())
            .sum()
    }
}

/// Dense word-granular backing store for one block's *shared* memory.
///
/// Shared spaces are architecturally tiny (tens of KB), so a flat,
/// lazily-grown `Vec<u32>` beats the paged [`Memory`]: a load is one
/// bounds-checked index with no table walk, and the whole space stays in
/// a few cache lines. Unwritten locations read as zero; addresses must be
/// 4-byte aligned, like [`Memory`].
///
/// # Examples
/// ```
/// use warpweave_mem::SharedMem;
/// let mut m = SharedMem::new();
/// m.write_u32(0x40, 7);
/// assert_eq!(m.read_u32(0x40), 7);
/// assert_eq!(m.read_u32(0x44), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedMem {
    words: Vec<u32>,
}

impl SharedMem {
    /// An empty (all-zero) shared space.
    pub fn new() -> Self {
        SharedMem::default()
    }

    /// Word index of (aligned) `addr`.
    fn idx(addr: u32) -> usize {
        assert!(addr.is_multiple_of(4), "unaligned access at 0x{addr:x}");
        (addr >> 2) as usize
    }

    /// Reads the aligned 32-bit word at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is not 4-byte aligned.
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.words.get(Self::idx(addr)).copied().unwrap_or(0)
    }

    /// Writes the aligned 32-bit word at `addr`, growing the store to
    /// cover it.
    ///
    /// # Panics
    /// Panics if `addr` is not 4-byte aligned.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.run_mut(addr, 1)[0] = value;
    }

    /// The `n` consecutive words starting at aligned `addr`, writable; the
    /// store grows (zero-filled) to cover them.
    ///
    /// # Panics
    /// Panics if `addr` is not 4-byte aligned.
    pub fn run_mut(&mut self, addr: u32, n: usize) -> &mut [u32] {
        let i = Self::idx(addr);
        if i + n > self.words.len() {
            // Grow in 1 KiB steps so unit-stride fills don't re-resize
            // per word.
            self.words.resize((i + n).next_multiple_of(256), 0);
        }
        &mut self.words[i..i + n]
    }

    /// The resident words as one flat slice (word `i` is byte address
    /// `4 * i`; reads beyond the end are zero). The load fast path
    /// indexes this directly instead of calling [`SharedMem::read_u32`]
    /// per lane.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Zero-fills the space in place, keeping its allocation — the
    /// block-relaunch reset.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn shared_roundtrip_and_zero_default() {
        let mut m = SharedMem::new();
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u32(0xfffc), 0);
        m.write_u32(0x100, 42);
        assert_eq!(m.read_u32(0x100), 42);
        assert_eq!(m.read_u32(0x104), 0);
        assert_eq!(m.words()[0x40], 42);
        m.clear();
        assert_eq!(m.read_u32(0x100), 0);
    }

    #[test]
    #[should_panic]
    fn shared_unaligned_panics() {
        SharedMem::new().read_u32(6);
    }

    #[test]
    fn zero_initialised() {
        let m = Memory::new();
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u32(0xffff_fffc), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut m = Memory::new();
        for i in 0..2048u32 {
            m.write_u32(i * 4, i ^ 0xdead);
        }
        for i in 0..2048u32 {
            assert_eq!(m.read_u32(i * 4), i ^ 0xdead);
        }
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn f32_bitcast_roundtrip() {
        let mut m = Memory::new();
        m.write_f32(8, -1.5);
        assert_eq!(m.read_f32(8), -1.5);
        m.write_f32(12, f32::INFINITY);
        assert!(m.read_f32(12).is_infinite());
    }

    #[test]
    #[should_panic]
    fn unaligned_read_panics() {
        Memory::new().read_u32(2);
    }

    #[test]
    fn bulk_writes_cross_pages_and_end_at_the_last_word() {
        // Three pages from the middle of one: same words as the per-word
        // loop, and only the touched pages become resident.
        let words: Vec<u32> = (0..2500).map(|i| i ^ 0xbeef).collect();
        let mut bulk = Memory::new();
        bulk.write_words(0x0040_0f00, &words);
        let mut single = Memory::new();
        for (i, &w) in words.iter().enumerate() {
            single.write_u32(0x0040_0f00 + 4 * i as u32, w);
        }
        assert_eq!(bulk.resident_pages(), single.resident_pages());
        assert_eq!(
            bulk.read_words(0x0040_0e00, 2700),
            single.read_words(0x0040_0e00, 2700)
        );
        bulk.write_words(0x0040_0f00, &[]);

        // A range may end at the last word of the address space...
        let mut m = Memory::new();
        m.write_f32s(0xffff_fff8, &[1.5, 2.5]);
        assert_eq!(m.read_f32s(0xffff_fff8, 2), vec![1.5, 2.5]);
        assert_eq!(m.read_u32(0), 0, "nothing wrapped to address 0");
    }

    #[test]
    #[should_panic(expected = "run past the end of the address space")]
    fn bulk_write_past_the_last_word_panics() {
        // ... but never wrap past it, in any build profile.
        Memory::new().write_words(0xffff_fff8, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "run past the end of the address space")]
    fn bulk_read_past_the_last_word_panics() {
        Memory::new().read_words(0xffff_fffc, 2);
    }

    #[test]
    fn shared_run_grows_to_cover() {
        let mut m = SharedMem::new();
        m.run_mut(0x3fc, 3).copy_from_slice(&[7, 8, 9]);
        assert_eq!((m.read_u32(0x3fc), m.read_u32(0x404)), (7, 9));
        assert_eq!(m.read_u32(0x408), 0);
        assert!(m.run_mut(0x10, 0).is_empty());
    }

    #[test]
    fn bulk_helpers() {
        let mut m = Memory::new();
        m.write_words(100, &[1, 2, 3]);
        assert_eq!(m.read_words(100, 3), vec![1, 2, 3]);
        m.write_f32s(200, &[1.0, 2.0]);
        assert_eq!(m.read_f32s(200, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn bulk_reads_match_per_word_reads_across_pages_and_holes() {
        // Written: the end of page 1, page 2 whole, the start of page 3;
        // page 4 is a hole; page 5 holds one word.
        let mut m = Memory::new();
        let words: Vec<u32> = (0..2100).map(|i| i * 7 + 1).collect();
        m.write_words(0x1f00, &words);
        m.write_u32(0x5010, 99);
        for (addr, n) in [(0x1e00, 2300), (0x3ff8, 5), (0x4000, 2000), (0x1f04, 0)] {
            let single: Vec<u32> = (0..n).map(|i| m.read_u32(addr + 4 * i as u32)).collect();
            assert_eq!(m.read_words(addr, n), single, "{n} words at 0x{addr:x}");
            let floats: Vec<f32> = (0..n).map(|i| m.read_f32(addr + 4 * i as u32)).collect();
            assert_eq!(m.read_f32s(addr, n), floats);
        }
        assert_eq!(Memory::new().read_words(0x8000, 3000), vec![0; 3000]);
    }

    /// Whether both memories resolve `addr` to one and the same page.
    fn shares(a: &Memory, b: &Memory, addr: u32) -> bool {
        matches!((a.page(addr), b.page(addr)), (Some(x), Some(y)) if std::ptr::eq(x, y))
    }

    #[test]
    fn a_clone_shares_its_pages_until_written() {
        let mut original = Memory::new();
        original.write_words(0, &[1; 2 * PAGE_WORDS]);
        let clone = original.clone();
        assert!(shares(&original, &clone, 0) && shares(&original, &clone, 0x1000));
        assert_eq!(clone.resident_pages(), 2);

        // A write copies only the page it lands on.
        let mut clone = clone;
        clone.write_u32(0x1000, 5);
        assert!(shares(&original, &clone, 0));
        assert!(!shares(&original, &clone, 0x1000));
        assert_eq!((original.read_u32(0x1000), clone.read_u32(0x1000)), (1, 5));
    }

    #[test]
    fn writes_on_either_side_are_invisible_to_the_other() {
        // Each writer (`write_u32`, `write_words`, `page_mut`) on the
        // original and on the clone, over a page both sides share.
        type Writer = fn(&mut Memory);
        let writers: [Writer; 3] = [
            |m| m.write_u32(0x2004, 7),
            |m| m.write_words(0x2004, &[7, 7]),
            |m| m.page_mut(0x2004)[1] = 7,
        ];
        for (i, write) in writers.iter().enumerate() {
            for clone_writes in [false, true] {
                let mut original = Memory::new();
                original.write_u32(0x2000, 3);
                let mut clone = original.clone();
                let (writer, other) = if clone_writes {
                    (&mut clone, &original)
                } else {
                    (&mut original, &clone)
                };
                write(writer);
                let case = format!("writer {i}, clone writes: {clone_writes}");
                assert_eq!(writer.read_u32(0x2004), 7, "{case}");
                assert_eq!(other.read_u32(0x2004), 0, "{case}");
                assert_eq!(other.read_words(0x2000, 3), vec![3, 0, 0], "{case}");
                assert_eq!(writer.read_u32(0x2000), 3, "{case}");
            }
        }
    }

    #[test]
    fn a_page_never_written_reads_zero_on_both_sides() {
        let mut original = Memory::new();
        original.write_u32(0, 1);
        let mut clone = original.clone();
        clone.write_u32(0x9000, 2); // a page only the clone creates
        original.write_u32(0x7000, 3); // and one only the original does
        for m in [&original, &clone] {
            assert_eq!(m.read_u32(0x5000), 0);
            assert_eq!(m.page(0x5000), None);
        }
        assert_eq!((original.read_u32(0x9000), clone.read_u32(0x7000)), (0, 0));
        assert_eq!((original.resident_pages(), clone.resident_pages()), (2, 2));
    }

    /// Applies one random write: `kind` picks the writer, `addr` a word
    /// in a 5-page window so writes collide, straddle pages and leave holes.
    fn apply(m: &mut Memory, (kind, addr, value): (u8, u32, u32)) {
        let addr = addr * 4;
        match kind {
            0 => m.write_u32(addr, value),
            1 => m.write_words(addr, &[value, value ^ 1, value ^ 2]),
            _ => m.page_mut(addr)[Memory::page_word(addr)] = value,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_clone_behaves_as_an_independent_copy(
            before in proptest::collection::vec((0u8..3, 0u32..5 * 1024, any::<u32>()), 0..40),
            on_original in proptest::collection::vec((0u8..3, 0u32..5 * 1024, any::<u32>()), 0..40),
            on_clone in proptest::collection::vec((0u8..3, 0u32..5 * 1024, any::<u32>()), 0..40),
        ) {
            let mut original = Memory::new();
            before.iter().for_each(|&w| apply(&mut original, w));
            let mut clone = original.clone();
            // Interleaved, so neither side is always the first to write.
            for i in 0..on_original.len().max(on_clone.len()) {
                on_original.get(i).into_iter().for_each(|&w| apply(&mut original, w));
                on_clone.get(i).into_iter().for_each(|&w| apply(&mut clone, w));
            }
            // The same histories, built without sharing anything.
            let mut expect_original = Memory::new();
            let mut expect_clone = Memory::new();
            for &w in &before {
                apply(&mut expect_original, w);
                apply(&mut expect_clone, w);
            }
            on_original.iter().for_each(|&w| apply(&mut expect_original, w));
            on_clone.iter().for_each(|&w| apply(&mut expect_clone, w));
            let window = 6 * PAGE_WORDS;
            prop_assert_eq!(original.read_words(0, window), expect_original.read_words(0, window));
            prop_assert_eq!(clone.read_words(0, window), expect_clone.read_words(0, window));
            prop_assert_eq!(original.resident_pages(), expect_original.resident_pages());
            prop_assert_eq!(clone.resident_pages(), expect_clone.resident_pages());
        }
    }
}
