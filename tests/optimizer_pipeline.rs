//! End-to-end optimizer pipeline: UDT descriptors + method IR → local and
//! global classification → phased refinement → container ownership →
//! decomposition decisions (the full §3 + §4 + §5 flow).

use deca_core::{ContainerDecision, ContainerInfo, Optimizer};
use deca_udt::fixtures::{group_by_program, lr_program, lr_program_variable_dims};
use deca_udt::{
    classify_local, Classification, ContainerId, ContainerKind, GlobalAnalysis, JobPhases,
    SizeType, TypeRef,
};

#[test]
fn lr_pipeline_reaches_sfst_decomposition() {
    let lr = lr_program();
    let lp = TypeRef::Udt(lr.types.labeled_point);

    // Step 1: the local analysis is conservative — VST (Figure 3).
    assert_eq!(classify_local(&lr.types.registry, lp), Classification::Sized(SizeType::Variable));

    // Step 2: the global analysis proves features init-only and
    // features.data fixed-length => SFST (§3.3).
    let ga = GlobalAnalysis::new(&lr.types.registry, &lr.program, lr.stage_entry);
    assert_eq!(ga.classify(lp), Classification::Sized(SizeType::StaticFixed));

    // Step 3: the optimizer decomposes the cached RDD.
    let opt = Optimizer::new(&lr.types.registry, &lr.program);
    let phases = JobPhases::new().phase("map", lr.stage_entry);
    let plan = opt.plan(
        &phases,
        &[ContainerInfo {
            id: ContainerId(0),
            kind: ContainerKind::CachedRdd,
            created_seq: 0,
            content: lp,
            write_phase: 0,
        }],
        &[],
    );
    assert_eq!(plan.decision(ContainerId(0)), &ContainerDecision::DecomposeSfst);
}

#[test]
fn variable_dims_degrade_to_rfst_decomposition() {
    let lr = lr_program_variable_dims();
    let lp = TypeRef::Udt(lr.types.labeled_point);
    let opt = Optimizer::new(&lr.types.registry, &lr.program);
    let phases = JobPhases::new().phase("map", lr.stage_entry);
    let plan = opt.plan(
        &phases,
        &[ContainerInfo {
            id: ContainerId(0),
            kind: ContainerKind::CachedRdd,
            created_seq: 0,
            content: lp,
            write_phase: 0,
        }],
        &[],
    );
    assert_eq!(
        plan.decision(ContainerId(0)),
        &ContainerDecision::DecomposeRfst,
        "per-record dimensions allow framed RFST decomposition only"
    );
}

#[test]
fn group_by_pipeline_decomposes_on_copy() {
    let g = group_by_program();
    let ty = TypeRef::Udt(g.group);
    let opt = Optimizer::new(&g.registry, &g.program);
    let phases = JobPhases::new().phase("combine", g.build_entry).phase("iterate", g.read_entry);
    let shuffle = ContainerInfo {
        id: ContainerId(0),
        kind: ContainerKind::ShuffleBuffer,
        created_seq: 0,
        content: ty,
        write_phase: 0,
    };
    let cache = ContainerInfo {
        id: ContainerId(1),
        kind: ContainerKind::CachedRdd,
        created_seq: 1,
        content: ty,
        write_phase: 0,
    };
    let plan = opt.plan(&phases, &[shuffle, cache], &[]);
    assert!(matches!(plan.decision(ContainerId(0)), ContainerDecision::Keep(_)));
    assert_eq!(plan.decision(ContainerId(1)), &ContainerDecision::DecomposeOnCopy);
}

#[test]
fn ownership_rules_and_shared_groups() {
    let lr = lr_program();
    let lp = TypeRef::Udt(lr.types.labeled_point);
    let opt = Optimizer::new(&lr.types.registry, &lr.program);
    let phases = JobPhases::new().phase("map", lr.stage_entry);
    // Objects shared between UDF variables, a shuffle buffer, and a later
    // cache: the shuffle buffer (high priority, created first) owns.
    let udf = ContainerInfo {
        id: ContainerId(0),
        kind: ContainerKind::UdfVariables,
        created_seq: 0,
        content: lp,
        write_phase: 0,
    };
    let shuffle = ContainerInfo {
        id: ContainerId(1),
        kind: ContainerKind::ShuffleBuffer,
        created_seq: 1,
        content: lp,
        write_phase: 0,
    };
    let cache = ContainerInfo {
        id: ContainerId(2),
        kind: ContainerKind::CachedRdd,
        created_seq: 2,
        content: lp,
        write_phase: 0,
    };
    let plan = opt.plan(
        &phases,
        &[udf.clone(), shuffle, cache],
        &[vec![ContainerId(0), ContainerId(1), ContainerId(2)]],
    );
    assert_eq!(plan.decision(ContainerId(1)), &ContainerDecision::DecomposeSfst);
    assert_eq!(
        plan.decision(ContainerId(2)),
        &ContainerDecision::SharePrimary(ContainerId(1)),
        "the cache references the shuffle buffer's pages"
    );
    assert!(matches!(plan.decision(ContainerId(0)), ContainerDecision::Keep(_)));
}
