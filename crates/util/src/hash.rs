//! Content hashing for cache keys and fingerprints.
//!
//! One algorithm for the whole workspace: 64-bit FNV-1a. Fingerprints
//! computed by different layers (function bodies in `lisa-lang`, SMT
//! query keys in `lisa-smt`, journal checksums in `lisa-store`) must
//! stay comparable across processes and releases, so the definition
//! lives here rather than being re-derived per crate.

use std::fmt::{self, Write as _};

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Incremental FNV-1a hasher for composite keys: feed parts separated by
/// an explicit delimiter so `("ab","c")` and `("a","bc")` never collide.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a { state: 0xcbf29ce484222325 }
    }
}

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x100000001b3);
        }
        self
    }

    /// Feed one delimited part (the part's bytes, then a `0x1f` unit
    /// separator that cannot appear in printable cache-key material).
    pub fn part(&mut self, bytes: &[u8]) -> &mut Self {
        self.update(bytes);
        self.update(&[0x1f]);
        self
    }

    /// Feed one delimited part written by `write`: the same bytes as
    /// `part` over the text `write` would render, with no intermediate
    /// `String`.
    pub fn part_with(&mut self, write: impl FnOnce(&mut Fnv1a) -> fmt::Result) -> &mut Self {
        write(self).expect("hashing text cannot fail");
        self.update(&[0x1f])
    }

    /// Feed one delimited part: the `Display` text of `v`.
    pub fn part_display(&mut self, v: &(impl fmt::Display + ?Sized)) -> &mut Self {
        self.part_with(|h| write!(h, "{v}"))
    }

    pub fn part_u64(&mut self, v: u64) -> &mut Self {
        self.part(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Text written into the hasher is hashed as its UTF-8 bytes, so
/// `write!(h, ..)` followed by `h.update(&[0x1f])` feeds exactly the bytes
/// `h.part(rendered.as_bytes())` would, without materialising `rendered`.
impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parts_are_delimited() {
        let mut a = Fnv1a::new();
        a.part(b"ab").part(b"c");
        let mut b = Fnv1a::new();
        b.part(b"a").part(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn written_text_hashes_like_its_bytes() {
        let mut streamed = Fnv1a::new();
        streamed.part_with(|h| write!(h, "{}-{:?}", 42, "x")).part_display("tail");
        let mut rendered = Fnv1a::new();
        rendered.part(format!("{}-{:?}", 42, "x").as_bytes()).part(b"tail");
        assert_eq!(streamed.finish(), rendered.finish());
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo").update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
