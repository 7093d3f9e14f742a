//! Cross-crate property tests on substrate invariants.

use ltpg::conflict::TableLog;
use ltpg_gpu_sim::{Device, DeviceConfig};
use ltpg_storage::{ColId, Database, TableBuilder};
use ltpg_txn::exec::execute_range_direct;
use ltpg_txn::{execute_serial, ComputeFn, IrOp, ProcId, Src, Tid, Txn};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference model for the conflict log: a plain map of minima.
#[derive(Default)]
struct LogModel {
    read_min: HashMap<i64, u64>,
    write_min: HashMap<i64, u64>,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The dynamic hash-bucket log never loses a registration: for every
    /// key, `min_read`/`min_write` equal a reference map's minima —
    /// whatever the bucket size, key skew, or registration order.
    #[test]
    fn conflict_log_matches_reference_minima(
        ops in proptest::collection::vec(
            (0..40i64, 1..1_000u64, proptest::bool::ANY), 1..300),
        s_u in prop_oneof![Just(1usize), Just(4), Just(32)],
    ) {
        let device = Device::new(DeviceConfig::default());
        let log = TableLog::new(256, s_u, 1);
        let mut model = LogModel::default();
        for &(key, tid, is_write) in &ops {
            if is_write {
                model.write_min.entry(key).and_modify(|m| *m = (*m).min(tid)).or_insert(tid);
            } else {
                model.read_min.entry(key).and_modify(|m| *m = (*m).min(tid)).or_insert(tid);
            }
        }
        device.launch("register", &ops, |lane, &(key, tid, is_write)| {
            if is_write {
                let _ = log.register_write(lane, key, tid, 1);
            } else {
                let _ = log.register_read(lane, key, tid, 1);
            }
        });
        let results = parking_lot::Mutex::new(Vec::new());
        device.launch_indexed("probe", 40, |lane| {
            let k = lane.global_id as i64;
            results.lock().push((k, log.min_read(lane, k, 1), log.min_write(lane, k, 1)));
        });
        for (k, r, w) in results.into_inner() {
            prop_assert_eq!(r, model.read_min.get(&k).copied(), "read min for key {}", k);
            prop_assert_eq!(w, model.write_min.get(&k).copied(), "write min for key {}", k);
        }
    }

    /// Buffered execution (speculate, then apply) and direct execution
    /// (apply each op immediately) agree on the final state for any single
    /// transaction — read-your-own-writes must behave identically.
    #[test]
    fn buffered_and_direct_execution_agree(
        ops in proptest::collection::vec(
            prop_oneof![
                (0..16i64, 0..2u16).prop_map(|(k, c)| IrOp::Read {
                    table: ltpg_storage::TableId(0), key: Src::Const(k), col: ColId(c), out: 0 }),
                (0..16i64, 0..2u16).prop_map(|(k, c)| IrOp::Update {
                    table: ltpg_storage::TableId(0), key: Src::Const(k), col: ColId(c), val: Src::Reg(0) }),
                (0..16i64, 0..2u16, -9..9i64).prop_map(|(k, c, d)| IrOp::Add {
                    table: ltpg_storage::TableId(0), key: Src::Const(k), col: ColId(c), delta: Src::Const(d) }),
                (0..16i64,).prop_map(|(k,)| IrOp::Delete {
                    table: ltpg_storage::TableId(0), key: Src::Const(k) }),
                (100..120i64,).prop_map(|(k,)| IrOp::Insert {
                    table: ltpg_storage::TableId(0), key: Src::Const(k),
                    values: vec![Src::Const(1), Src::Const(2)] }),
                Just(IrOp::Compute { f: ComputeFn::Mul, a: Src::Reg(0), b: Src::Const(3), out: 0 }),
                (0..16i64,).prop_map(|(k,)| IrOp::ScanSum {
                    table: ltpg_storage::TableId(0), start: Src::Const(k), count: 4,
                    col: ColId(0), out: 0 }),
            ],
            1..12,
        )
    ) {
        let build = || {
            let mut db = Database::new();
            let t = db.add_table(TableBuilder::new("T").columns(["a", "b"]).capacity(256).build());
            for k in 0..16 {
                db.table(t).insert(k, &[k, -k]).unwrap();
            }
            db
        };
        let mut txn = Txn::new(ProcId(0), vec![], {
            let mut v = vec![IrOp::Read {
                table: ltpg_storage::TableId(0), key: Src::Const(0), col: ColId(0), out: 0 }];
            v.extend(ops.clone());
            v
        });
        txn.tid = Tid(1);
        let a = build();
        let buffered = execute_serial(&a, &txn);
        let b = build();
        let mut regs = vec![0i64; txn.reg_count()];
        let direct = execute_range_direct(&b, &txn, 0..txn.ops.len(), &mut regs);
        match (buffered, direct) {
            (Ok(_), Ok(())) => prop_assert_eq!(a.state_digest(), b.state_digest()),
            // Duplicate inserts abort in both paths; direct may have
            // partially applied (it is not atomic), so states can differ.
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", x.map(|_| ()), y),
        }
    }
}
