//! The Deca optimizer (§5, Appendix A): classification + ownership →
//! per-container decomposition decisions.
//!
//! The paper implements a *hybrid* optimizer: a static analyzer extracts
//! UDT/UDF knowledge ahead of time, and a runtime optimizer intercepts each
//! submitted job — only jobs that actually run are analysed, avoiding path
//! explosion. Our engine does the same: when a job is submitted it hands
//! this module the job's phases, containers, and sharing relationships; the
//! optimizer returns a [`DecompositionPlan`] the executors follow.
//!
//! Decision rules:
//!
//! * contents classified SFST in the container's writing phase ⇒ decompose
//!   unframed (fixed segments);
//! * RFST ⇒ decompose framed (length-prefixed segments);
//! * VST in the writing phase but decomposable in every later phase, for a
//!   long-lived cache fed by a dying shuffle buffer ⇒ *decompose on copy*
//!   (the partially-decomposable scenario of §4.3.3, Figure 7b);
//! * otherwise keep objects on the managed heap;
//! * secondary containers of fully-decomposable objects are planned to
//!   share the primary's page group instead of copying (§4.3.3, Figure 7a).
//!   No job stores such a container: every page group has one owner.

use std::collections::HashMap;

use deca_udt::{
    analyze_container_flow, assign_ownership, classify_phased, ContainerDecl, ContainerId,
    ContainerKind, JobPhases, MethodId, Program, SizeType, TypeRef, TypeRegistry,
};

/// A container as reported by the engine at job submission.
#[derive(Clone, Debug)]
pub struct ContainerInfo {
    pub id: ContainerId,
    pub kind: ContainerKind,
    /// Creation order within the stage (ownership rule 2).
    pub created_seq: u32,
    /// The runtime type of the records it holds.
    pub content: TypeRef,
    /// Index (into the job's phases) of the phase that writes it.
    pub write_phase: usize,
}

/// What the executors should do with one container's records.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ContainerDecision {
    /// Decompose into fixed-size unframed segments (SFST).
    DecomposeSfst,
    /// Decompose into length-prefixed segments (RFST).
    DecomposeRfst,
    /// Keep objects on the heap while this container is being written, and
    /// decompose when they are copied into the downstream cache
    /// (§4.3.3's partially-decomposable case).
    DecomposeOnCopy,
    /// Reference the primary container's page group instead of storing
    /// anything (fully-decomposable secondary, §4.3.3).
    SharePrimary(ContainerId),
    /// Leave the objects on the managed heap.
    Keep(KeepReason),
}

/// Why a container was not decomposed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum KeepReason {
    /// The content type is a VST in every relevant phase.
    Variable,
    /// The content type is recursively defined.
    RecursivelyDefined,
    /// UDF variables are never decomposed (§4.3.2: short-living, cheap
    /// minor collections handle them).
    UdfVariables,
}

/// The optimizer's output: one decision per container.
#[derive(Debug, Default)]
pub struct DecompositionPlan {
    decisions: HashMap<ContainerId, ContainerDecision>,
}

impl DecompositionPlan {
    pub fn decision(&self, c: ContainerId) -> &ContainerDecision {
        &self.decisions[&c]
    }

    pub fn get(&self, c: ContainerId) -> Option<&ContainerDecision> {
        self.decisions.get(&c)
    }

    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

/// The runtime optimizer. Holds the static knowledge (type registry and
/// method IR).
pub struct Optimizer<'a> {
    reg: &'a TypeRegistry,
    program: &'a Program,
}

impl<'a> Optimizer<'a> {
    pub fn new(reg: &'a TypeRegistry, program: &'a Program) -> Optimizer<'a> {
        Optimizer { reg, program }
    }

    /// Plan one job, deriving the object-population sharing from the IR's
    /// container writes (§4.3's points-to-based data-dependence graph)
    /// instead of requiring the engine to declare it.
    pub fn plan_with_flow(
        &self,
        phases: &JobPhases,
        containers: &[ContainerInfo],
        flow_entry: MethodId,
    ) -> DecompositionPlan {
        let flow = analyze_container_flow(self.program, flow_entry);
        let shared: Vec<Vec<ContainerId>> = flow
            .holders
            .values()
            .filter(|hs| hs.len() > 1)
            .map(|hs| hs.iter().copied().collect())
            .collect();
        self.plan(phases, containers, &shared)
    }

    /// Plan one job. `shared_groups` lists groups of object populations
    /// held by several containers (for primary/secondary resolution).
    pub fn plan(
        &self,
        phases: &JobPhases,
        containers: &[ContainerInfo],
        shared_groups: &[Vec<ContainerId>],
    ) -> DecompositionPlan {
        let targets: Vec<TypeRef> = containers.iter().map(|c| c.content).collect();
        let per_phase = classify_phased(self.reg, self.program, phases, &targets);

        // Ownership resolution for shared populations.
        let decls: Vec<ContainerDecl> = containers
            .iter()
            .map(|c| ContainerDecl { id: c.id, kind: c.kind, created_seq: c.created_seq })
            .collect();
        let mut secondary_of: HashMap<ContainerId, ContainerId> = HashMap::new();
        for holders in shared_groups {
            let o = assign_ownership(&decls, holders);
            for s in o.secondaries {
                secondary_of.insert(s, o.primary);
            }
        }

        let mut plan = DecompositionPlan::default();
        for c in containers {
            let decision = self.decide(c, &per_phase, &secondary_of, containers);
            plan.decisions.insert(c.id, decision);
        }
        plan
    }

    fn decide(
        &self,
        c: &ContainerInfo,
        per_phase: &[deca_udt::PhaseResult],
        secondary_of: &HashMap<ContainerId, ContainerId>,
        all: &[ContainerInfo],
    ) -> ContainerDecision {
        if c.kind == ContainerKind::UdfVariables {
            return ContainerDecision::Keep(KeepReason::UdfVariables);
        }

        let write_class = per_phase
            .get(c.write_phase)
            .and_then(|p| p.of(c.content))
            .expect("container write phase classified");

        use deca_udt::Classification::*;
        let own = match write_class {
            RecurDef => return ContainerDecision::Keep(KeepReason::RecursivelyDefined),
            Sized(SizeType::StaticFixed) => ContainerDecision::DecomposeSfst,
            Sized(SizeType::RuntimeFixed) => ContainerDecision::DecomposeRfst,
            Sized(SizeType::Variable) => {
                // §4.3.3: a cache written by a dying short-lived container
                // can still be decomposed if later phases are fixed-size.
                let later_ok = c.kind == ContainerKind::CachedRdd
                    && per_phase.len() > c.write_phase + 1
                    && per_phase[c.write_phase + 1..]
                        .iter()
                        .all(|p| p.of(c.content).is_some_and(|cl| cl.is_decomposable()));
                if later_ok {
                    ContainerDecision::DecomposeOnCopy
                } else {
                    return ContainerDecision::Keep(KeepReason::Variable);
                }
            }
        };

        // Secondary of a fully-decomposable primary: share the page group.
        if let Some(&primary) = secondary_of.get(&c.id) {
            let primary_decomposable = all
                .iter()
                .find(|o| o.id == primary)
                .map(|o| {
                    per_phase
                        .get(o.write_phase)
                        .and_then(|p| p.of(o.content))
                        .is_some_and(|cl| cl.is_decomposable())
                })
                .unwrap_or(false);
            if primary_decomposable && own != ContainerDecision::DecomposeOnCopy {
                return ContainerDecision::SharePrimary(primary);
            }
        }
        own
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_udt::fixtures;

    #[test]
    fn lr_cache_is_decomposed_sfst() {
        let f = fixtures::lr_program();
        let opt = Optimizer::new(&f.types.registry, &f.program);
        let phases = JobPhases::new().phase("map", f.stage_entry);
        let cache = ContainerInfo {
            id: ContainerId(0),
            kind: ContainerKind::CachedRdd,
            created_seq: 0,
            content: TypeRef::Udt(f.types.labeled_point),
            write_phase: 0,
        };
        let plan = opt.plan(&phases, &[cache], &[]);
        assert_eq!(plan.decision(ContainerId(0)), &ContainerDecision::DecomposeSfst);
    }

    #[test]
    fn udf_variables_are_never_decomposed() {
        let f = fixtures::lr_program();
        let opt = Optimizer::new(&f.types.registry, &f.program);
        let phases = JobPhases::new().phase("map", f.stage_entry);
        let udf = ContainerInfo {
            id: ContainerId(1),
            kind: ContainerKind::UdfVariables,
            created_seq: 0,
            content: TypeRef::Udt(f.types.labeled_point),
            write_phase: 0,
        };
        let plan = opt.plan(&phases, &[udf], &[]);
        assert_eq!(
            plan.decision(ContainerId(1)),
            &ContainerDecision::Keep(KeepReason::UdfVariables)
        );
    }

    #[test]
    fn group_by_cache_decomposes_on_copy() {
        // §4.3.3 / Figure 7b: the shuffle buffer's content is VST while
        // combining; the downstream cache decomposes on copy.
        let f = fixtures::group_by_program();
        let opt = Optimizer::new(&f.registry, &f.program);
        let phases =
            JobPhases::new().phase("combine", f.build_entry).phase("iterate", f.read_entry);
        let shuffle = ContainerInfo {
            id: ContainerId(0),
            kind: ContainerKind::ShuffleBuffer,
            created_seq: 0,
            content: TypeRef::Udt(f.group),
            write_phase: 0,
        };
        let cache = ContainerInfo {
            id: ContainerId(1),
            kind: ContainerKind::CachedRdd,
            created_seq: 1,
            content: TypeRef::Udt(f.group),
            write_phase: 0,
        };
        let plan = opt.plan(&phases, &[shuffle, cache], &[]);
        assert_eq!(
            plan.decision(ContainerId(0)),
            &ContainerDecision::Keep(KeepReason::Variable),
            "shuffle buffer content is VST while combining"
        );
        assert_eq!(
            plan.decision(ContainerId(1)),
            &ContainerDecision::DecomposeOnCopy,
            "cache decomposes when the dying shuffle's output is copied in"
        );
    }

    #[test]
    fn secondary_cache_shares_primary_group() {
        // Two cached RDDs holding the same SFST objects: the later one
        // becomes a secondary sharing the primary's pages.
        let f = fixtures::lr_program();
        let opt = Optimizer::new(&f.types.registry, &f.program);
        let phases = JobPhases::new().phase("map", f.stage_entry);
        let a = ContainerInfo {
            id: ContainerId(0),
            kind: ContainerKind::CachedRdd,
            created_seq: 0,
            content: TypeRef::Udt(f.types.labeled_point),
            write_phase: 0,
        };
        let b = ContainerInfo { id: ContainerId(1), created_seq: 1, ..a.clone() };
        let plan = opt.plan(&phases, &[a, b], &[vec![ContainerId(0), ContainerId(1)]]);
        assert_eq!(plan.decision(ContainerId(0)), &ContainerDecision::DecomposeSfst);
        assert_eq!(plan.decision(ContainerId(1)), &ContainerDecision::SharePrimary(ContainerId(0)));
    }

    /// End-to-end with the derived flow: a stage whose IR emits the same
    /// LabeledPoint population to a shuffle buffer and a cache; the plan
    /// must make the cache a secondary of the shuffle buffer without any
    /// manually-declared sharing.
    #[test]
    fn plan_with_flow_derives_sharing_from_ir() {
        use deca_udt::{Expr, Method, Program, Stmt, VarId};
        let base = fixtures::lr_program();
        // Extend the LR program with an explicit container-flow stage.
        let mut program = Program::new();
        for i in 0..base.program.len() {
            program.add(base.program.method(deca_udt::MethodId(i as u32)).clone());
        }
        let shuffle_id = ContainerId(0);
        let cache_id = ContainerId(1);
        let flow_entry = program.add(
            Method::new("stage-with-containers")
                .stmt(Stmt::NewObject { dst: VarId(0), ty: base.types.labeled_point })
                .stmt(Stmt::WriteContainer { container: shuffle_id, value: VarId(0) })
                .stmt(Stmt::Assign(VarId(1), Expr::var(0)))
                .stmt(Stmt::WriteContainer { container: cache_id, value: VarId(1) }),
        );

        let opt = Optimizer::new(&base.types.registry, &program);
        let phases = JobPhases::new().phase("map", base.stage_entry);
        let shuffle = ContainerInfo {
            id: shuffle_id,
            kind: ContainerKind::ShuffleBuffer,
            created_seq: 0,
            content: TypeRef::Udt(base.types.labeled_point),
            write_phase: 0,
        };
        let cache = ContainerInfo {
            id: cache_id,
            kind: ContainerKind::CachedRdd,
            created_seq: 1,
            content: TypeRef::Udt(base.types.labeled_point),
            write_phase: 0,
        };
        let plan = opt.plan_with_flow(&phases, &[shuffle, cache], flow_entry);
        assert_eq!(plan.decision(shuffle_id), &ContainerDecision::DecomposeSfst);
        assert_eq!(
            plan.decision(cache_id),
            &ContainerDecision::SharePrimary(shuffle_id),
            "sharing derived from the IR, not declared"
        );
    }
}
