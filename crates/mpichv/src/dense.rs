//! The one table type for the ids a deployment hands out densely.

/// A map from a dense `u32` id to `V`: process ids, which the network
/// numbers from 0 and never reuses, and ranks, which are `0..n`. One slot
/// per id, grown on insert, `None` where nothing lives — a lookup is an
/// index, and iteration is in ascending id order like the ordered maps
/// this replaces.
#[derive(Debug)]
pub(crate) struct DenseTable<V> {
    slots: Vec<Option<V>>,
    live: usize,
}

impl<V> Default for DenseTable<V> {
    fn default() -> Self {
        DenseTable {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<V> DenseTable<V> {
    pub fn get(&self, id: u32) -> Option<&V> {
        self.slots.get(id as usize)?.as_ref()
    }

    /// The entry of `id`, created as `value` if there is none.
    pub fn or_insert(&mut self, id: u32, value: V) -> &mut V {
        let i = id as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        self.live += usize::from(slot.is_none());
        slot.get_or_insert(value)
    }

    pub fn insert(&mut self, id: u32, value: V) {
        self.remove(id);
        self.or_insert(id, value);
    }

    pub fn remove(&mut self, id: u32) -> Option<V> {
        let old = self.slots.get_mut(id as usize)?.take();
        self.live -= usize::from(old.is_some());
        old
    }

    /// Number of ids with an entry.
    pub fn len(&self) -> usize {
        self.live
    }

    /// The entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        (0u32..)
            .zip(&self.slots)
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_the_ordered_map_it_replaces() {
        let mut dense = DenseTable::default();
        let mut map = std::collections::BTreeMap::new();
        // Inserts out of order, an overwrite, removals of present, absent
        // and out-of-range ids, and an entry-style update.
        for (id, v) in [(5u32, 50u64), (1, 10), (9, 90), (5, 55)] {
            dense.insert(id, v);
            map.insert(id, v);
        }
        for id in [1u32, 2, 400] {
            assert_eq!(dense.remove(id), map.remove(&id));
        }
        for id in [9u32, 3, 3] {
            *dense.or_insert(id, 0) += 1;
            *map.entry(id).or_insert(0) += 1;
        }
        assert_eq!(dense.len(), map.len());
        assert!(dense.iter().eq(map.iter().map(|(&id, v)| (id, v))));
        for id in 0..12 {
            assert_eq!(dense.get(id), map.get(&id));
        }
    }
}
