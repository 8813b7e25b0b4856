//! Shared fixtures: the paper's Logistic Regression running example
//! (Figures 1–3), expressed in the type/IR model.
//!
//! These are used by this crate's tests, by `deca-core`'s optimizer tests,
//! by the apps, which build the LR and group-by programs over the types
//! their records declare, and by the benchmark harnesses, so they live in
//! the library rather than in `#[cfg(test)]` code.

use std::fmt;

use crate::ir::{Expr, Method, MethodId, Program, Stmt, StoreValue, VarId};
use crate::types::{ArrayId, FieldDecl, PrimKind, TypeRef, TypeRegistry, UdtDescriptor, UdtId};

/// A program names a field its type universe does not declare, or
/// declares with another kind of type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownField {
    pub udt: String,
    pub field: String,
    /// The kind of type the program needs the field to have.
    pub kind: &'static str,
}

impl fmt::Display for UnknownField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` declares no {} field `{}`", self.udt, self.kind, self.field)
    }
}

/// Field `name` of `udt`, by index, with what `pick` finds in its declared
/// type.
fn field_of<T>(
    registry: &TypeRegistry,
    udt: UdtId,
    name: &str,
    kind: &'static str,
    pick: fn(TypeRef) -> Option<T>,
) -> Result<(usize, T), UnknownField> {
    let desc = registry.udt(udt);
    let found = desc.fields.iter().position(|f| f.name == name);
    found.and_then(|i| Some((i, pick(desc.fields[i].declared)?))).ok_or_else(|| UnknownField {
        udt: desc.name.clone(),
        field: name.into(),
        kind,
    })
}

fn udt_ref(t: TypeRef) -> Option<UdtId> {
    match t {
        TypeRef::Udt(u) => Some(u),
        _ => None,
    }
}

fn array_ref(t: TypeRef) -> Option<ArrayId> {
    match t {
        TypeRef::Array(a) => Some(a),
        _ => None,
    }
}

/// The LR type universe: `LabeledPoint { label: Double, features: Vector }`
/// with `DenseVector { data: double[] (final), offset/stride/length: Int }`.
pub struct LrTypes {
    pub registry: TypeRegistry,
    pub double_array: ArrayId,
    pub dense_vector: UdtId,
    pub labeled_point: UdtId,
    /// The fields the stage program stores, by index:
    /// `LabeledPoint.features` and `DenseVector.data`.
    pub features: usize,
    pub data: usize,
}

impl LrTypes {
    /// The LR universe of a registry in which `labeled_point` is defined:
    /// Figure 1's `features` and `data` fields resolve by name, and their
    /// declared types are the vector and its array.
    pub fn resolve(registry: TypeRegistry, labeled_point: UdtId) -> Result<LrTypes, UnknownField> {
        let (features, dense_vector) =
            field_of(&registry, labeled_point, "features", "object", udt_ref)?;
        let (data, double_array) = field_of(&registry, dense_vector, "data", "array", array_ref)?;
        Ok(LrTypes { registry, double_array, dense_vector, labeled_point, features, data })
    }
}

/// Build the LR types exactly as in Figure 1: `features` is a `var`
/// (non-final) whose type-set contains only `DenseVector`.
pub fn lr_types() -> LrTypes {
    lr_types_inner(false)
}

/// Variant with `features` declared `val` (final) — used to show the local
/// classifier's limit: it still reports RFST, not SFST (§3.3).
pub fn lr_types_with_final_features() -> LrTypes {
    lr_types_inner(true)
}

fn lr_types_inner(final_features: bool) -> LrTypes {
    let mut registry = TypeRegistry::new();
    let double_array = registry.define_array("double[]", TypeRef::Prim(PrimKind::F64));
    let dense_vector = registry.define_udt(UdtDescriptor {
        name: "DenseVector".into(),
        fields: vec![
            FieldDecl::new("data", TypeRef::Array(double_array)).final_(),
            FieldDecl::new("offset", TypeRef::Prim(PrimKind::I32)).final_(),
            FieldDecl::new("stride", TypeRef::Prim(PrimKind::I32)).final_(),
            FieldDecl::new("length", TypeRef::Prim(PrimKind::I32)).final_(),
        ],
    });
    let mut features = FieldDecl::new("features", TypeRef::Udt(dense_vector));
    if final_features {
        features = features.final_();
    }
    let labeled_point = registry.define_udt(UdtDescriptor {
        name: "LabeledPoint".into(),
        fields: vec![FieldDecl::new("label", TypeRef::Prim(PrimKind::F64)), features],
    });
    LrTypes { registry, double_array, dense_vector, labeled_point, features: 1, data: 0 }
}

/// The LR stage program plus its types.
pub struct LrProgram {
    pub types: LrTypes,
    pub program: Program,
    /// Entry of the caching stage (the `map` that builds `LabeledPoint`s).
    pub stage_entry: MethodId,
    /// The `LabeledPoint` constructor.
    pub lp_ctor: MethodId,
    /// The `DenseVector` constructor.
    pub dv_ctor: MethodId,
}

/// The caching stage of Figure 1:
///
/// ```text
/// D = <global config constant, read once>          // external read
/// map(line):
///   features = new Array[Double](D)                // line 14
///   new LabeledPoint(new DenseVector(features), label)
/// ```
///
/// `features` is assigned only in the `LabeledPoint` constructor and all
/// `double[]` allocations reaching `DenseVector.data` use the single global
/// `D`, so the global analysis refines `LabeledPoint` to SFST.
pub fn lr_program() -> LrProgram {
    lr_program_over(lr_types())
}

/// [`lr_program`] over a given LR type universe (e.g. one a record
/// declaration defines).
pub fn lr_program_over(types: LrTypes) -> LrProgram {
    build_lr_program(types, DimMode::GlobalConstant)
}

/// Variant where the vector dimension is read per record: allocation sites
/// no longer agree, so `LabeledPoint` is only RFST.
pub fn lr_program_variable_dims() -> LrProgram {
    build_lr_program(lr_types(), DimMode::PerRecord)
}

/// Variant where user code re-assigns `features` outside the constructor:
/// the field is not init-only, so `LabeledPoint` stays VST.
pub fn lr_program_with_reassignment() -> LrProgram {
    build_lr_program(lr_types(), DimMode::Reassigned)
}

enum DimMode {
    GlobalConstant,
    PerRecord,
    Reassigned,
}

fn build_lr_program(types: LrTypes, mode: DimMode) -> LrProgram {
    let mut program = Program::new();

    // DenseVector ctor: this.data = <param array>. The array parameter is
    // bound to a local first (order matters for provenance tracking).
    let dv_ctor = program.add(
        Method::ctor("DenseVector::<init>", types.dense_vector)
            .params(1)
            .stmt(Stmt::Assign(VarId(100), Expr::Param(0)))
            .stmt(Stmt::StoreField {
                object_ty: types.dense_vector,
                field: types.data,
                value: StoreValue::Var(VarId(100)),
            }),
    );

    // LabeledPoint ctor: this.label = ..; this.features = <param vector>.
    let lp_ctor =
        program.add(Method::ctor("LabeledPoint::<init>", types.labeled_point).params(1).stmt(
            Stmt::StoreField {
                object_ty: types.labeled_point,
                field: types.features,
                value: StoreValue::Opaque, // a DenseVector, not an array
            },
        ));

    // The map UDF: features = new Array[Double](D); new DenseVector(features)
    // inside new LabeledPoint(...).
    let d_var = VarId(0);
    let features_var = VarId(1);
    let mut map_fn = Method::new("LR::mapStage").params(0);
    match mode {
        DimMode::GlobalConstant => {
            // One global read of D, used by every allocation.
            map_fn = map_fn
                .stmt(Stmt::Assign(d_var, Expr::ExternalRead))
                .stmt(Stmt::NewArray {
                    dst: features_var,
                    ty: types.double_array,
                    len: Expr::Var(d_var),
                })
                .stmt(Stmt::Call { callee: dv_ctor, args: vec![Expr::Var(features_var)] })
                .stmt(Stmt::Call { callee: lp_ctor, args: vec![] })
                // A second record's iteration allocates with the same D.
                .stmt(Stmt::NewArray {
                    dst: features_var,
                    ty: types.double_array,
                    len: Expr::Var(d_var),
                })
                .stmt(Stmt::Call { callee: dv_ctor, args: vec![Expr::Var(features_var)] })
                .stmt(Stmt::Call { callee: lp_ctor, args: vec![] });
        }
        DimMode::PerRecord => {
            let d2 = VarId(2);
            map_fn = map_fn
                .stmt(Stmt::Assign(d_var, Expr::ExternalRead))
                .stmt(Stmt::NewArray {
                    dst: features_var,
                    ty: types.double_array,
                    len: Expr::Var(d_var),
                })
                .stmt(Stmt::Call { callee: dv_ctor, args: vec![Expr::Var(features_var)] })
                .stmt(Stmt::Call { callee: lp_ctor, args: vec![] })
                // Each record reads its own dimension.
                .stmt(Stmt::Assign(d2, Expr::ExternalRead))
                .stmt(Stmt::NewArray {
                    dst: features_var,
                    ty: types.double_array,
                    len: Expr::Var(d2),
                })
                .stmt(Stmt::Call { callee: dv_ctor, args: vec![Expr::Var(features_var)] })
                .stmt(Stmt::Call { callee: lp_ctor, args: vec![] });
        }
        DimMode::Reassigned => {
            // Vectors have per-record dimensions (so DenseVector is RFST,
            // not SFST) *and* user code re-assigns `features` outside the
            // constructor — the combination Lemma 2 rejects.
            let d2 = VarId(2);
            map_fn = map_fn
                .stmt(Stmt::Assign(d_var, Expr::ExternalRead))
                .stmt(Stmt::NewArray {
                    dst: features_var,
                    ty: types.double_array,
                    len: Expr::Var(d_var),
                })
                .stmt(Stmt::Call { callee: dv_ctor, args: vec![Expr::Var(features_var)] })
                .stmt(Stmt::Call { callee: lp_ctor, args: vec![] })
                .stmt(Stmt::Assign(d2, Expr::ExternalRead))
                .stmt(Stmt::NewArray {
                    dst: features_var,
                    ty: types.double_array,
                    len: Expr::Var(d2),
                })
                .stmt(Stmt::Call { callee: dv_ctor, args: vec![Expr::Var(features_var)] })
                // point.features = otherVector  — outside any constructor.
                .stmt(Stmt::StoreField {
                    object_ty: types.labeled_point,
                    field: types.features,
                    value: StoreValue::Opaque,
                });
        }
    }
    let stage_entry = program.add(map_fn);

    LrProgram { types, program, stage_entry, lp_ctor, dv_ctor }
}

/// The "sophisticated implementation of logistic regression with
/// high-dimensional data sets" of §3.2: `features` has **both**
/// `DenseVector` and `SparseVector` in its type-set. SparseVector's
/// `indices`/`values` arrays are sized by the per-record non-zero count,
/// so no global analysis can prove a fixed length — LabeledPoint cannot
/// be decomposed as an SFST, and (with a non-final `features`) not even
/// as an RFST. This is the case behind the paper's closing recommendation
/// (§8): "a user is recommended to not creating a massive number of
/// long-living objects of a VST".
pub struct SparseLrProgram {
    pub registry: TypeRegistry,
    pub labeled_point: UdtId,
    pub dense_vector: UdtId,
    pub sparse_vector: UdtId,
    pub program: Program,
    pub stage_entry: MethodId,
}

pub fn sparse_lr_program() -> SparseLrProgram {
    let mut registry = TypeRegistry::new();
    let double_array = registry.define_array("double[]", TypeRef::Prim(PrimKind::F64));
    let int_array = registry.define_array("int[]", TypeRef::Prim(PrimKind::I32));
    let dense_vector = registry.define_udt(UdtDescriptor {
        name: "DenseVector".into(),
        fields: vec![FieldDecl::new("data", TypeRef::Array(double_array)).final_()],
    });
    let sparse_vector = registry.define_udt(UdtDescriptor {
        name: "SparseVector".into(),
        fields: vec![
            FieldDecl::new("indices", TypeRef::Array(int_array)).final_(),
            FieldDecl::new("values", TypeRef::Array(double_array)).final_(),
        ],
    });
    let labeled_point = registry.define_udt(UdtDescriptor {
        name: "LabeledPoint".into(),
        fields: vec![
            FieldDecl::new("label", TypeRef::Prim(PrimKind::F64)),
            FieldDecl::new("features", TypeRef::Udt(dense_vector))
                .with_type_set(vec![TypeRef::Udt(dense_vector), TypeRef::Udt(sparse_vector)]),
        ],
    });

    let mut program = Program::new();
    let lp_ctor =
        program.add(Method::ctor("LabeledPoint::<init>", labeled_point).params(1).stmt(
            Stmt::StoreField { object_ty: labeled_point, field: 1, value: StoreValue::Opaque },
        ));
    // The map parses each line: dense rows use the global D, sparse rows
    // allocate nnz-sized arrays (per-record external read).
    let d_var = VarId(0);
    let nnz = VarId(1);
    let dense_data = VarId(2);
    let sparse_idx = VarId(3);
    let sparse_val = VarId(4);
    let nnz2 = VarId(5);
    let dv_ctor = program.add(
        Method::ctor("DenseVector::<init>", dense_vector)
            .params(1)
            .stmt(Stmt::Assign(VarId(100), Expr::Param(0)))
            .stmt(Stmt::StoreField {
                object_ty: dense_vector,
                field: 0,
                value: StoreValue::Var(VarId(100)),
            }),
    );
    let sv_ctor = program.add(
        Method::ctor("SparseVector::<init>", sparse_vector)
            .params(2)
            .stmt(Stmt::Assign(VarId(100), Expr::Param(0)))
            .stmt(Stmt::Assign(VarId(101), Expr::Param(1)))
            .stmt(Stmt::StoreField {
                object_ty: sparse_vector,
                field: 0,
                value: StoreValue::Var(VarId(100)),
            })
            .stmt(Stmt::StoreField {
                object_ty: sparse_vector,
                field: 1,
                value: StoreValue::Var(VarId(101)),
            }),
    );
    let stage_entry = program.add(
        Method::new("SparseLR::mapStage")
            .stmt(Stmt::Assign(d_var, Expr::ExternalRead))
            .stmt(Stmt::NewArray { dst: dense_data, ty: double_array, len: Expr::Var(d_var) })
            .stmt(Stmt::Call { callee: dv_ctor, args: vec![Expr::Var(dense_data)] })
            .stmt(Stmt::Call { callee: lp_ctor, args: vec![] })
            // Sparse rows: nnz read per record. Two loop iterations are
            // modelled explicitly (the IR is loop-free): each reads its
            // own nnz, so the allocation sites' lengths differ.
            .stmt(Stmt::Assign(nnz, Expr::ExternalRead))
            .stmt(Stmt::NewArray { dst: sparse_idx, ty: int_array, len: Expr::Var(nnz) })
            .stmt(Stmt::NewArray { dst: sparse_val, ty: double_array, len: Expr::Var(nnz) })
            .stmt(Stmt::Call {
                callee: sv_ctor,
                args: vec![Expr::Var(sparse_idx), Expr::Var(sparse_val)],
            })
            .stmt(Stmt::Call { callee: lp_ctor, args: vec![] })
            .stmt(Stmt::Assign(nnz2, Expr::ExternalRead))
            .stmt(Stmt::NewArray { dst: sparse_idx, ty: int_array, len: Expr::Var(nnz2) })
            .stmt(Stmt::NewArray { dst: sparse_val, ty: double_array, len: Expr::Var(nnz2) })
            .stmt(Stmt::Call {
                callee: sv_ctor,
                args: vec![Expr::Var(sparse_idx), Expr::Var(sparse_val)],
            })
            .stmt(Stmt::Call { callee: lp_ctor, args: vec![] }),
    );

    SparseLrProgram { registry, labeled_point, dense_vector, sparse_vector, program, stage_entry }
}

/// The group-by's type universe: a group record and the array field its
/// combine grows.
pub struct GroupTypes {
    pub registry: TypeRegistry,
    pub group: UdtId,
    pub value_array: ArrayId,
    /// The grown array field, by index.
    pub values: usize,
}

impl GroupTypes {
    /// The universe of a registry in which `group` is defined, growing
    /// its array field `values`, resolved by name.
    pub fn resolve(
        registry: TypeRegistry,
        group: UdtId,
        values: &str,
    ) -> Result<GroupTypes, UnknownField> {
        let (values, value_array) = field_of(&registry, group, values, "array", array_ref)?;
        Ok(GroupTypes { registry, group, value_array, values })
    }
}

/// `Group { key: long, values: long[] }`, with `values` non-final: the
/// building phase grows the array by replacing it.
pub fn group_types() -> GroupTypes {
    let mut registry = TypeRegistry::new();
    let value_array = registry.define_array("long[]", TypeRef::Prim(PrimKind::I64));
    let group = registry.define_udt(UdtDescriptor {
        name: "Group".into(),
        fields: vec![
            FieldDecl::new("key", TypeRef::Prim(PrimKind::I64)),
            FieldDecl::new("values", TypeRef::Array(value_array)),
        ],
    });
    GroupTypes { registry, group, value_array, values: 1 }
}

/// A two-phase program for the phased-refinement tests (§3.4): phase 1
/// builds value arrays by appending (a VST while under construction);
/// phase 2 only reads the materialised arrays.
pub struct GroupByProgram {
    pub registry: TypeRegistry,
    pub value_array: ArrayId,
    pub group: UdtId,
    pub program: Program,
    pub build_entry: MethodId,
    pub read_entry: MethodId,
}

pub fn group_by_program() -> GroupByProgram {
    group_by_program_over(group_types())
}

/// [`group_by_program`] over a given group-by universe.
pub fn group_by_program_over(types: GroupTypes) -> GroupByProgram {
    let GroupTypes { registry, group, value_array, values } = types;
    let mut program = Program::new();
    // Phase 1: combining appends => values re-assigned with grown arrays of
    // differing lengths, outside any constructor.
    let grown = VarId(0);
    let grow = Stmt::StoreField { object_ty: group, field: values, value: StoreValue::Var(grown) };
    let build_entry = program.add(
        Method::new("groupByKey::combine")
            .stmt(Stmt::NewArray { dst: grown, ty: value_array, len: Expr::ExternalRead })
            .stmt(grow.clone())
            .stmt(Stmt::NewArray { dst: grown, ty: value_array, len: Expr::ExternalRead })
            .stmt(grow),
    );
    // Phase 2: pure reads — no stores, no allocations.
    let read_entry = program.add(Method::new("iterate::read"));

    GroupByProgram { registry, value_array, group, program, build_entry, read_entry }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1s_fields_resolve_by_name() {
        let hand = lr_types();
        let lr = LrTypes::resolve(lr_types().registry, hand.labeled_point).unwrap();
        assert_eq!((lr.features, lr.data), (hand.features, hand.data));
        assert_eq!((lr.dense_vector, lr.double_array), (hand.dense_vector, hand.double_array));
        let hand = group_types();
        let g = GroupTypes::resolve(group_types().registry, hand.group, "values").unwrap();
        assert_eq!((g.values, g.value_array), (hand.values, hand.value_array));
    }

    #[test]
    fn a_field_missing_or_of_another_kind_does_not_resolve() {
        let g = group_types();
        let err = GroupTypes::resolve(g.registry, g.group, "key").err().map(|e| e.to_string());
        assert_eq!(err.as_deref(), Some("`Group` declares no array field `key`"));
        let lr = lr_types();
        let err = GroupTypes::resolve(lr.registry, lr.labeled_point, "feature").err();
        assert_eq!(err.map(|e| e.field), Some("feature".to_string()));
    }
}
