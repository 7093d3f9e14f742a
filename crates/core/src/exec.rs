//! One executor for every serving path.
//!
//! An [`Executor`] is the GPU engine or its CPU twin ([`CpuTwin`]) behind
//! LTPG's split-phase protocol, together with the state of the batch it
//! has prepared: [`Executor::prepare`] (execute, register, detect),
//! [`Executor::flag_word`] / [`Executor::set_flag_word`] for a cross-shard
//! OR-merge, then [`Executor::finish`] (commit rule and write-back). Both
//! servers, CPU degradation replay and standby replay drive batches
//! through it, so the transient-upload retry loop and the twin → GPU
//! re-promotion swap exist once, here.
//!
//! The GPU handle `G` is owned (`Box<LtpgEngine>`, the default) by a
//! serving plane and borrowed (`&mut LtpgEngine`) by a standby row that
//! replays through the same protocol without giving its engines up.

use std::borrow::BorrowMut;
use std::sync::Arc;

use ltpg_gpu_sim::{Device, DeviceError};
use ltpg_storage::Database;
use ltpg_telemetry::{names, Registry};
use ltpg_txn::{Batch, BatchEngine, BatchReport};

use crate::config::LtpgConfig;
use crate::engine::{ExecScope, LtpgEngine, PreparedBatch};
use crate::server::ServerConfig;
use crate::twin::{CpuPrepared, CpuTwin};

/// The GPU engine or the CPU twin, with its prepared batch (if any).
pub struct Executor<G = Box<LtpgEngine>> {
    seat: Seat<G>,
}

enum Seat<G> {
    /// Normal operation: the (simulated) GPU engine. The prepared state is
    /// boxed: it carries the engine's recycled per-batch buffers and would
    /// otherwise dwarf the CPU variant.
    Gpu(G, Option<Box<PreparedBatch>>),
    /// Degraded operation after device loss: the serial CPU twin.
    Cpu(Box<CpuTwin>, Option<CpuPrepared>),
}

impl<G: BorrowMut<LtpgEngine>> Executor<G> {
    /// Serve from a GPU engine.
    pub fn gpu(engine: G) -> Self {
        Executor { seat: Seat::Gpu(engine, None) }
    }

    /// Serve from the CPU twin.
    pub fn cpu(twin: CpuTwin) -> Self {
        Executor { seat: Seat::Cpu(Box::new(twin), None) }
    }

    /// The GPU engine, `None` when degraded to the twin.
    pub fn engine(&self) -> Option<&LtpgEngine> {
        match &self.seat {
            Seat::Gpu(e, _) => Some(e.borrow()),
            Seat::Cpu(..) => None,
        }
    }

    /// Whether this executor has degraded to the CPU twin.
    pub fn is_cpu(&self) -> bool {
        matches!(self.seat, Seat::Cpu(..))
    }

    /// `"LTPG"` on the GPU, `"LTPG-CPU-fallback"` on the twin.
    pub fn name(&self) -> &'static str {
        match &self.seat {
            Seat::Gpu(e, _) => e.borrow().name(),
            Seat::Cpu(t, _) => t.name(),
        }
    }

    /// The live database (unchanged by [`prepare`](Self::prepare)).
    pub fn database(&self) -> &Database {
        match &self.seat {
            Seat::Gpu(e, _) => e.borrow().database(),
            Seat::Cpu(t, _) => t.database(),
        }
    }

    /// Publish a finished batch's report under the executor's name.
    pub fn record_telemetry(&self, reg: &Registry, report: &BatchReport) {
        match &self.seat {
            Seat::Gpu(e, _) => e.borrow().record_telemetry(reg, report),
            Seat::Cpu(t, _) => t.record_telemetry(reg, report),
        }
    }

    /// Execute, register and detect `batch` against the snapshot, keeping
    /// the prepared state for [`finish`](Self::finish); returns the prepare
    /// phase's simulated ns. An upload that fails transiently aborts before
    /// the device touches anything, so it is re-issued up to
    /// `cfg.max_transient_retries` times; each pause doubles from
    /// `cfg.retry_backoff_ns`, is added to `backoff_ns` and is counted on
    /// the engine's registry. Any other error means the device is lost (or
    /// hopelessly flaky) and the caller must recover from the log.
    pub fn prepare(
        &mut self,
        batch: &Batch,
        scope: Option<&ExecScope<'_>>,
        cfg: &ServerConfig,
        backoff_ns: &mut f64,
    ) -> Result<f64, DeviceError> {
        match &mut self.seat {
            Seat::Gpu(engine, slot) => {
                let engine: &mut LtpgEngine = engine.borrow_mut();
                let mut attempt = 0u32;
                let prepared = loop {
                    match engine.try_prepare_batch(batch, scope) {
                        Ok(p) => break p,
                        Err(DeviceError::TransientTransfer { .. })
                            if attempt < cfg.max_transient_retries =>
                        {
                            attempt += 1;
                            let reg = engine.telemetry();
                            reg.counter(names::FAULT_TRANSIENT_RETRIES).inc();
                            // Exponent clamped: retry limits ≥ 32 used to
                            // overflow the u32 shift here.
                            let pause =
                                cfg.retry_backoff_ns * 2f64.powi((attempt - 1).min(30) as i32);
                            *backoff_ns += pause;
                            reg.counter(names::FAULT_BACKOFF_NS).add(pause.round() as u64);
                        }
                        Err(e) => return Err(e),
                    }
                };
                let ns = prepared.sim_ns();
                *slot = Some(Box::new(prepared));
                Ok(ns)
            }
            Seat::Cpu(twin, slot) => {
                let prepared = twin.prepare(batch, scope);
                let ns = prepared.sim_ns();
                *slot = Some(prepared);
                Ok(ns)
            }
        }
    }

    /// Conflict-flag word of transaction `i` of the prepared batch; 0 (no
    /// vote) when nothing is prepared.
    pub fn flag_word(&self, i: usize) -> u32 {
        match &self.seat {
            Seat::Gpu(_, Some(p)) => p.flag_word(i),
            Seat::Cpu(_, Some(p)) => p.flag_word(i),
            _ => 0,
        }
    }

    /// Overwrite the flag word of transaction `i` with the cross-shard
    /// merged word.
    pub fn set_flag_word(&mut self, i: usize, word: u32) {
        match &mut self.seat {
            Seat::Gpu(_, Some(p)) => p.set_flag_word(i, word),
            Seat::Cpu(_, Some(p)) => p.set_flag_word(i, word),
            _ => {}
        }
    }

    /// Apply the commit rule over the (possibly merged) flag words and
    /// write back the prepared `batch`. Returns the batch report and the
    /// finish phase's simulated ns. An error means the device died
    /// mid-finish and may have left the slice partly written.
    ///
    /// # Panics
    ///
    /// If nothing is prepared: `finish` must follow a successful
    /// [`prepare`](Self::prepare).
    pub fn finish(
        &mut self,
        batch: &Batch,
        scope: Option<&ExecScope<'_>>,
    ) -> Result<(BatchReport, f64), DeviceError> {
        const UNPREPARED: &str = "Executor::finish without a prepared batch";
        match &mut self.seat {
            Seat::Gpu(engine, slot) => {
                let prepared = *slot.take().expect(UNPREPARED);
                let prep_ns = prepared.sim_ns();
                let r = engine.borrow_mut().try_finish_batch(batch, prepared, scope)?;
                let finish_ns = r.stats.total_ns() - prep_ns;
                Ok((r.report, finish_ns))
            }
            Seat::Cpu(twin, slot) => {
                Ok(twin.finish(batch, slot.take().expect(UNPREPARED), scope))
            }
        }
    }
}

impl Executor {
    /// Consume the executor, returning its live database.
    pub fn into_database(self) -> Database {
        match self.seat {
            Seat::Gpu(e, _) => (*e).into_database(),
            Seat::Cpu(t, _) => (*t).into_database(),
        }
    }

    /// Timed-recovery re-promotion: a twin-degraded executor hands its
    /// live database (which IS the current state, so the swap is
    /// invisible) to a GPU engine on the revived `device`, publishing to
    /// `telemetry`. Returns the device unused when this executor is not
    /// degraded.
    pub fn repromote(
        &mut self,
        device: Arc<Device>,
        cfg: &LtpgConfig,
        telemetry: &Arc<Registry>,
    ) -> Option<Arc<Device>> {
        let Seat::Cpu(twin, _) = &mut self.seat else { return Some(device) };
        let db = twin.take_database();
        let engine = LtpgEngine::with_device(db, cfg.clone(), Arc::clone(telemetry), device);
        *self = Executor::gpu(Box::new(engine));
        None
    }
}
