//! Consistent entity-name anonymization.
//!
//! Paper Appendix A: "Metadata, such as hostnames, project IDs, and IP
//! addresses were consistently hashed or removed." *Consistent* means the
//! same input always maps to the same token (so joins across files still
//! work) while the original name is not recoverable. We use a salted
//! 64-bit FNV-1a rendered as 16 hex digits — matching the flavor of
//! anonymization in the published dataset without claiming cryptographic
//! strength (the salt, not the hash, carries the secrecy).

use std::collections::HashMap;

/// A salted, consistent name hasher with a memoized mapping.
#[derive(Debug, Clone)]
pub(crate) struct Anonymizer {
    salt: u64,
    memo: HashMap<String, String>,
}

impl Anonymizer {
    /// An anonymizer with the given salt. Different salts produce
    /// unlinkable token spaces.
    pub(crate) fn new(salt: u64) -> Self {
        Anonymizer {
            salt,
            memo: HashMap::new(),
        }
    }

    /// Hash a name to its anonymous token (16 lowercase hex digits).
    pub(crate) fn token(&mut self, name: &str) -> String {
        if let Some(t) = self.memo.get(name) {
            return t.clone();
        }
        let t = format!("{:016x}", Self::hash(self.salt, name));
        self.memo.insert(name.to_string(), t.clone());
        t
    }

    fn hash(salt: u64, name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Finalize so that similar names don't share prefixes.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_within_a_salt() {
        let mut a = Anonymizer::new(7);
        let t1 = a.token("node-042.dc-a.example");
        let t2 = a.token("node-042.dc-a.example");
        assert_eq!(t1, t2);
        assert_eq!(a.memo.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_tokens() {
        let mut a = Anonymizer::new(7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(a.token(&format!("host-{i}"))), "collision at {i}");
        }
    }

    #[test]
    fn different_salts_are_unlinkable() {
        let mut a = Anonymizer::new(1);
        let mut b = Anonymizer::new(2);
        assert_ne!(a.token("node-1"), b.token("node-1"));
    }

    #[test]
    fn token_format_is_16_hex() {
        let mut a = Anonymizer::new(0);
        let t = a.token("x");
        assert_eq!(t.len(), 16);
        assert!(t.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(t, t.to_lowercase());
    }
}
