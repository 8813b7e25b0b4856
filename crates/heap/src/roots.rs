//! GC roots: a slotted root table for long-lived roots (cache blocks,
//! shuffle buffers) and a stack-like region for short-lived UDF temporaries.

use crate::object::ObjRef;

/// Identifier of a long-lived root slot, returned by [`crate::Heap::add_root`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RootId(pub(crate) usize);

/// The root set: slotted table plus stack region. Collections treat every
/// occupied slot and every stack entry as a root and rewrite them when the
/// referenced objects move.
#[derive(Default, Debug)]
pub struct RootSet {
    slots: Vec<ObjRef>,
    free: Vec<usize>,
    stack: Vec<ObjRef>,
}

impl RootSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, r: ObjRef) -> RootId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = r;
                RootId(i)
            }
            None => {
                self.slots.push(r);
                RootId(self.slots.len() - 1)
            }
        }
    }

    pub fn remove(&mut self, id: RootId) -> ObjRef {
        let r = std::mem::replace(&mut self.slots[id.0], ObjRef::NULL);
        self.free.push(id.0);
        r
    }

    #[inline]
    pub fn get(&self, id: RootId) -> ObjRef {
        self.slots[id.0]
    }

    #[inline]
    pub fn set(&mut self, id: RootId, r: ObjRef) {
        self.slots[id.0] = r;
    }

    #[inline]
    pub fn push_stack(&mut self, r: ObjRef) -> usize {
        self.stack.push(r);
        self.stack.len() - 1
    }

    #[inline]
    pub fn stack_get(&self, i: usize) -> ObjRef {
        self.stack[i]
    }

    #[inline]
    pub fn stack_set(&mut self, i: usize, r: ObjRef) {
        self.stack[i] = r;
    }

    #[inline]
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }

    #[inline]
    pub fn truncate_stack(&mut self, watermark: usize) {
        self.stack.truncate(watermark);
    }

    /// Visit every root slot mutably (collections rewrite moved refs).
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&mut ObjRef)) {
        for r in &mut self.slots {
            if !r.is_null() {
                f(r);
            }
        }
        for r in &mut self.stack {
            if !r.is_null() {
                f(r);
            }
        }
    }

    /// Number of live (non-null, non-freed) root slots plus stack entries.
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|r| !r.is_null()).count() + self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceId;

    fn r(off: usize) -> ObjRef {
        ObjRef::new(SpaceId::Eden, off)
    }

    #[test]
    fn add_remove_reuses_slots() {
        let mut roots = RootSet::new();
        let a = roots.add(r(1));
        let b = roots.add(r(2));
        assert_eq!(roots.get(a), r(1));
        roots.remove(a);
        let c = roots.add(r(3));
        assert_eq!(c.0, a.0, "freed slot should be reused");
        assert_eq!(roots.get(b), r(2));
        assert_eq!(roots.get(c), r(3));
        assert_eq!(roots.live_count(), 2);
    }

    #[test]
    fn stack_watermark() {
        let mut roots = RootSet::new();
        roots.push_stack(r(1));
        let mark = roots.stack_len();
        roots.push_stack(r(2));
        roots.push_stack(r(3));
        assert_eq!(roots.stack_len(), 3);
        roots.truncate_stack(mark);
        assert_eq!(roots.stack_len(), 1);
        assert_eq!(roots.stack_get(0), r(1));
    }

    #[test]
    fn for_each_mut_skips_null() {
        let mut roots = RootSet::new();
        let a = roots.add(r(1));
        roots.add(r(2));
        roots.remove(a);
        let mut seen = 0;
        roots.for_each_mut(|_| seen += 1);
        assert_eq!(seen, 1);
    }
}
