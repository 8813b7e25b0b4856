//! Class metadata: field layouts, reference masks, and JVM-style size
//! accounting.
//!
//! Every object on the simulated heap is an instance of a class registered
//! here. A class is either a *record class* with a fixed list of fields, or
//! an *array class* with a single element kind. The registry computes the
//! **nominal size** of instances following HotSpot's layout rules (16-byte
//! header, fields packed by natural size, 8-byte object alignment) so that
//! memory-footprint measurements reproduce the paper's header/reference
//! bloat accounting (Figure 2).

use std::fmt;

/// Identifier of a registered class. Stable for the life of the registry.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// The raw index of this class in its registry.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// The primitive kind of a field or array element.
///
/// `Ref` fields hold references to other heap objects; all other kinds are
/// primitive values stored inline. Each field occupies one arena word
/// regardless of kind; the *nominal* size used for accounting follows the
/// JVM widths below.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FieldKind {
    Bool,
    I8,
    I16,
    Char,
    I32,
    F32,
    I64,
    F64,
    Ref,
}

impl FieldKind {
    /// Nominal JVM size of this kind in bytes (references assume 8-byte
    /// uncompressed oops, as on a 30 GB heap in the paper's setup).
    #[inline]
    pub fn nominal_bytes(self) -> usize {
        match self {
            FieldKind::Bool | FieldKind::I8 => 1,
            FieldKind::I16 | FieldKind::Char => 2,
            FieldKind::I32 | FieldKind::F32 => 4,
            FieldKind::I64 | FieldKind::F64 | FieldKind::Ref => 8,
        }
    }

    /// Whether values of this kind are references into the heap.
    #[inline]
    pub fn is_ref(self) -> bool {
        matches!(self, FieldKind::Ref)
    }
}

/// A named field of a record class.
#[derive(Clone, Debug)]
pub struct FieldDef {
    pub name: String,
    pub kind: FieldKind,
}

/// Immutable metadata describing a class.
#[derive(Clone, Debug)]
pub struct ClassDescriptor {
    name: String,
    /// Fields of a record class; empty for array classes.
    fields: Vec<FieldDef>,
    /// `Some(elem)` iff this is an array class.
    array_elem: Option<FieldKind>,
    /// Bitmask over field slots: bit i set iff field i is a reference.
    ref_mask: u64,
    /// Nominal instance size in bytes for record classes (JVM accounting).
    nominal_size: usize,
}

/// Object header size in the nominal JVM accounting (mark word + class word).
pub(crate) const HEADER_BYTES: usize = 16;
/// Object alignment in the nominal accounting.
pub(crate) const ALIGN_BYTES: usize = 8;

#[inline]
fn align_up(n: usize) -> usize {
    (n + ALIGN_BYTES - 1) & !(ALIGN_BYTES - 1)
}

impl ClassDescriptor {
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    #[inline]
    pub fn is_array(&self) -> bool {
        self.array_elem.is_some()
    }

    #[inline]
    pub fn array_elem(&self) -> Option<FieldKind> {
        self.array_elem
    }

    /// Number of payload slots of a record instance (one word per field).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.fields.len()
    }

    /// Whether field slot `i` holds a reference.
    #[inline]
    pub fn slot_is_ref(&self, i: usize) -> bool {
        self.ref_mask & (1u64 << i) != 0
    }

    /// Bitmask over field slots: bit `i` set iff field `i` is a reference.
    pub fn ref_mask(&self) -> u64 {
        self.ref_mask
    }

    /// True if no field (or the array element) is a reference: instances are
    /// GC leaves.
    pub fn is_leaf(&self) -> bool {
        match self.array_elem {
            Some(elem) => !elem.is_ref(),
            None => self.ref_mask == 0,
        }
    }

    /// Nominal (JVM-accounted) size in bytes of an instance. For arrays,
    /// `len` is the element count; for record classes it is ignored.
    #[inline]
    pub fn nominal_size(&self, len: usize) -> usize {
        match self.array_elem {
            Some(elem) => align_up(HEADER_BYTES + len * elem.nominal_bytes()),
            None => self.nominal_size,
        }
    }

    /// Index of the field called `name`, if any.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// Builder for record classes.
///
/// ```
/// use deca_heap::{ClassBuilder, ClassRegistry, FieldKind};
/// let mut reg = ClassRegistry::new();
/// let id = reg.define(
///     ClassBuilder::new("LabeledPoint")
///         .field("label", FieldKind::F64)
///         .field("features", FieldKind::Ref),
/// );
/// assert_eq!(reg.get(id).name(), "LabeledPoint");
/// ```
#[derive(Clone, Debug)]
pub struct ClassBuilder {
    name: String,
    fields: Vec<FieldDef>,
}

impl ClassBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        ClassBuilder { name: name.into(), fields: Vec::new() }
    }

    pub fn field(mut self, name: impl Into<String>, kind: FieldKind) -> Self {
        self.fields.push(FieldDef { name: name.into(), kind });
        self
    }
}

/// Registry of all classes known to a heap.
#[derive(Default, Debug, Clone)]
pub struct ClassRegistry {
    classes: Vec<ClassDescriptor>,
}

impl ClassRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a record class. Panics if it has more than 64 fields (the
    /// reference mask is a single word; data-processing UDTs are small).
    pub fn define(&mut self, builder: ClassBuilder) -> ClassId {
        assert!(
            builder.fields.len() <= 64,
            "record classes are limited to 64 fields (got {})",
            builder.fields.len()
        );
        let mut ref_mask = 0u64;
        let mut field_bytes = 0usize;
        for (i, f) in builder.fields.iter().enumerate() {
            if f.kind.is_ref() {
                ref_mask |= 1 << i;
            }
            field_bytes += f.kind.nominal_bytes();
        }
        let desc = ClassDescriptor {
            name: builder.name,
            fields: builder.fields,
            array_elem: None,
            ref_mask,
            nominal_size: align_up(HEADER_BYTES + field_bytes),
        };
        self.push(desc)
    }

    /// Register an array class with the given element kind.
    pub fn define_array(&mut self, name: impl Into<String>, elem: FieldKind) -> ClassId {
        let desc = ClassDescriptor {
            name: name.into(),
            fields: Vec::new(),
            array_elem: Some(elem),
            ref_mask: 0,
            nominal_size: 0,
        };
        self.push(desc)
    }

    fn push(&mut self, desc: ClassDescriptor) -> ClassId {
        let id = ClassId(u32::try_from(self.classes.len()).expect("too many classes"));
        self.classes.push(desc);
        id
    }

    #[inline]
    pub fn get(&self, id: ClassId) -> &ClassDescriptor {
        &self.classes[id.index()]
    }

    pub fn len(&self) -> usize {
        self.classes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Look a class up by name (linear scan; intended for tests and tools).
    pub fn by_name(&self, name: &str) -> Option<ClassId> {
        self.classes.iter().position(|c| c.name == name).map(|i| ClassId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_sizes_follow_jvm_layout() {
        let mut reg = ClassRegistry::new();
        // LabeledPoint { label: f64, features: ref } = 16 + 8 + 8 = 32
        let lp = reg.define(
            ClassBuilder::new("LabeledPoint")
                .field("label", FieldKind::F64)
                .field("features", FieldKind::Ref),
        );
        assert_eq!(reg.get(lp).nominal_size(0), 32);

        // DenseVector { data: ref, offset/stride/length: i32 } = 16+8+12 = 36 -> 40
        let dv = reg.define(
            ClassBuilder::new("DenseVector")
                .field("data", FieldKind::Ref)
                .field("offset", FieldKind::I32)
                .field("stride", FieldKind::I32)
                .field("length", FieldKind::I32),
        );
        assert_eq!(reg.get(dv).nominal_size(0), 40);

        // double[10] = 16 + 80 = 96
        let arr = reg.define_array("double[]", FieldKind::F64);
        assert_eq!(reg.get(arr).nominal_size(10), 96);
        // byte[3] = 16 + 3 = 19 -> 24
        let barr = reg.define_array("byte[]", FieldKind::I8);
        assert_eq!(reg.get(barr).nominal_size(3), 24);
    }

    #[test]
    fn ref_mask_and_lookup() {
        let mut reg = ClassRegistry::new();
        let id = reg.define(
            ClassBuilder::new("Pair")
                .field("a", FieldKind::Ref)
                .field("b", FieldKind::I64)
                .field("c", FieldKind::Ref),
        );
        let c = reg.get(id);
        assert!(c.slot_is_ref(0));
        assert!(!c.slot_is_ref(1));
        assert!(c.slot_is_ref(2));
        assert!(!c.is_leaf());
        assert_eq!(c.field_index("b"), Some(1));
        assert_eq!(reg.by_name("Pair"), Some(id));
        assert_eq!(reg.by_name("nope"), None);
    }

    #[test]
    fn leaf_classes() {
        let mut reg = ClassRegistry::new();
        let prim = reg.define(ClassBuilder::new("P").field("x", FieldKind::F64));
        let parr = reg.define_array("double[]", FieldKind::F64);
        let rarr = reg.define_array("Object[]", FieldKind::Ref);
        assert!(reg.get(prim).is_leaf());
        assert!(reg.get(parr).is_leaf());
        assert!(!reg.get(rarr).is_leaf());
    }
}
