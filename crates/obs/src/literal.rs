//! Looking up names that are, in practice, string literals.
//!
//! Instrumented call sites name their event kinds, hops and spans with
//! `&'static str` literals — the same literal, hence the same address,
//! every time — and a run uses a few dozen of them. A short table probed
//! by address answers such a look-up in a handful of pointer compares,
//! where an ordered map compares string contents at every level.

/// Position of `name` among `names`: the entry at the same address if
/// there is one, else the first with the same content — so equal names
/// share an entry wherever they are stored, and finding a literal already
/// in the table compares no bytes.
pub fn position<'a>(names: impl Iterator<Item = &'a str> + Clone, name: &str) -> Option<usize> {
    let same_literal = |n: &str| std::ptr::eq(n.as_ptr(), name.as_ptr()) && n.len() == name.len();
    names
        .clone()
        .position(same_literal)
        .or_else(|| names.into_iter().position(|n| n == name))
}

#[cfg(test)]
mod tests {
    use super::position;

    #[test]
    fn address_first_then_content() {
        let elsewhere: &'static str = String::from("b").leak();
        let names = ["a", "b", "c"];
        assert!(!std::ptr::eq(names[1].as_ptr(), elsewhere.as_ptr()));
        assert_eq!(position(names.iter().copied(), names[1]), Some(1));
        assert_eq!(position(names.iter().copied(), elsewhere), Some(1));
        assert_eq!(position(names.iter().copied(), "d"), None);
        // A prefix at the same address is a different name.
        let whole = "net.delivered";
        assert_eq!(position([whole].into_iter(), &whole[..3]), None);
    }
}
