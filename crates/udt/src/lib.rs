//! # deca-udt — UDT modelling and size-type classification
//!
//! This crate implements the static analyses at the heart of the paper
//! (§3, "UDT Classification Analysis"): deciding, for each user-defined type
//! (UDT), whether its instances can be *safely decomposed* into raw byte
//! sequences.
//!
//! The paper performs these analyses over JVM bytecode with the Soot
//! framework; here they operate over an explicit description of the same
//! information — type descriptors with per-field **type-sets** (the possible
//! runtime types, as a points-to pre-processing pass would produce) and a
//! small **method IR** capturing the statements the analyses care about:
//! field stores, array allocations with (symbolic) length expressions,
//! constructor delegation, and calls.
//!
//! The pipeline mirrors the paper:
//!
//! 1. **Local classification** ([`local`], Algorithm 1): classify a UDT as
//!    [`SizeType::StaticFixed`] (SFST), [`SizeType::RuntimeFixed`] (RFST),
//!    [`SizeType::Variable`] (VST) or recursively-defined, using only the
//!    type dependency graph.
//! 2. **Global classification** ([`global`], Algorithms 2–4): refine RFST /
//!    VST results by analysing the call graph — *init-only field* detection
//!    and *fixed-length array type* detection via symbolized constant
//!    propagation ([`symbolic`], Figure 4).
//! 3. **Phased refinement** ([`phased`], §3.4): re-run the global analysis
//!    per job phase, so a type that is variable while being built becomes
//!    fixed once materialised in a data collector.
//! 4. **Container ownership** ([`points_to`], §4.3): map objects to their
//!    primary/secondary data containers by the paper's priority rules.
//!
//! The paper's running example, end to end:
//!
//! ```
//! use deca_udt::fixtures::lr_program;
//! use deca_udt::{classify_local, Classification, GlobalAnalysis, SizeType, TypeRef};
//!
//! let lr = lr_program();
//! let lp = TypeRef::Udt(lr.types.labeled_point);
//!
//! // Local analysis (Algorithm 1) is conservative: VST.
//! assert_eq!(
//!     classify_local(&lr.types.registry, lp),
//!     Classification::Sized(SizeType::Variable)
//! );
//! // The global analysis proves `features` init-only and `data`
//! // fixed-length, refining LabeledPoint to SFST (§3.3).
//! let ga = GlobalAnalysis::new(&lr.types.registry, &lr.program, lr.stage_entry);
//! assert_eq!(ga.classify(lp), Classification::Sized(SizeType::StaticFixed));
//! ```

pub mod fixtures;
pub mod global;
pub mod ir;
pub mod local;
pub mod phased;
pub mod points_to;
pub mod size_type;
pub mod symbolic;
pub mod types;

pub use global::{classify_global, GlobalAnalysis};
pub use ir::{CallGraph, Expr, Method, MethodId, Program, Stmt, VarId};
pub use local::classify_local;
pub use phased::{classify_phased, JobPhases, PhaseResult};
pub use points_to::{
    analyze_container_flow, assign_ownership, ContainerDecl, ContainerFlow, ContainerId,
    ContainerKind, ObjSite, Ownership,
};
pub use size_type::{Classification, SizeType};
pub use symbolic::{SymExpr, SymId, Value};
pub use types::{
    ArrayDescriptor, ArrayId, FieldDecl, PrimKind, TypeRef, TypeRegistry, UdtDescriptor, UdtId,
};
