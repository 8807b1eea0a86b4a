//! Persistent worker pool behind the batched inference engine, plus the
//! tile-parallel [`Scheduler`] that scales a *single* inference across
//! the pool (see the [`Scheduler`] docs for its determinism contract).
//!
//! The pre-engine harness (`yoloc-bench`'s original `run_parallel`)
//! spawned a fresh set of threads for every call. This module replaces it
//! with a *persistent* pool: [`WorkerPool::with`] spawns the workers once
//! inside a [`std::thread::scope`], hands the pool to a closure, and every
//! [`WorkerPool::run`] inside that closure reuses the same threads. Both
//! the batched pipeline engine ([`crate::pipeline::CimDeployedModel::infer_batch`])
//! and the figure-reproduction binaries in `yoloc-bench` share this one
//! implementation.
//!
//! Design constraints and how they are met:
//!
//! * **No `unsafe`.** Jobs are type-erased as `Box<dyn FnOnce() + Send +
//!   'env>` where `'env` is fixed when the pool is created, so jobs may
//!   borrow anything that outlives the [`WorkerPool::with`] call — create
//!   the model/batch first, then open the pool.
//! * **Deterministic results.** [`WorkerPool::run`] preserves input order
//!   in its output vector regardless of which worker executes which job,
//!   so a result is a pure function of the job list, never of scheduling.
//! * **No idle caller.** The submitting thread helps drain the queue, so
//!   a pool of `workers = 1` executes jobs exactly like a serial loop on
//!   the calling thread (no cross-thread handoff at all), and `workers =
//!   n` applies `n` compute lanes in total.
//!
//! # Examples
//!
//! ```
//! use yoloc_core::engine::WorkerPool;
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let squares = WorkerPool::with(4, |pool| {
//!     pool.run(inputs.iter().map(|&v| move || v * v).collect())
//! });
//! assert_eq!(squares[9], 81);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::compiler::cache::PlanCache;
use crate::compiler::schedule::{TaskGraph, TaskKind};
use crate::compiler::{
    CompileOptions, CompiledNetwork, ExecPlan, ExecutionReport, PerOpExec, PlanOp,
};
use yoloc_cim::macro_model::MvmStats;
use yoloc_models::{NetworkDesc, NetworkError};
use yoloc_tensor::Tensor;

/// Derives the deterministic RNG stream seed for sample `index` of a
/// batched inference with base seed `seed`.
///
/// The index is mixed through a SplitMix64-style finalizer so neighbouring
/// samples get statistically independent streams, and the mapping is pure:
/// the noise a sample sees depends only on `(seed, index)`, never on which
/// worker executes it or in what order — the root of the batched engine's
/// bit-reproducibility.
pub fn sample_stream_seed(seed: u64, index: usize) -> u64 {
    let mut z = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seed ^ z ^ (z >> 31)
}

/// A type-erased unit of work valid for the pool's environment lifetime.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

struct PoolState<'env> {
    jobs: VecDeque<Job<'env>>,
    shutdown: bool,
}

/// A persistent, scope-bound worker pool (see the [module docs](self)).
///
/// Construct one with [`WorkerPool::with`]; the pool cannot outlive that
/// call, which is what makes borrowing from the caller's stack safe
/// without `unsafe` code.
pub struct WorkerPool<'env> {
    state: Mutex<PoolState<'env>>,
    job_ready: Condvar,
    workers: usize,
}

impl<'env> WorkerPool<'env> {
    /// Runs `body` with a pool of `workers` total compute lanes (the
    /// calling thread counts as one; `workers - 1` threads are spawned).
    /// Worker threads persist across every [`WorkerPool::run`] call made
    /// inside `body` and join when `body` returns.
    ///
    /// `workers == 0` is treated as 1. Jobs submitted inside `body` may
    /// borrow any data created *before* the `with` call.
    pub fn with<R>(workers: usize, body: impl FnOnce(&WorkerPool<'env>) -> R) -> R {
        let workers = workers.max(1);
        let pool = WorkerPool {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            workers,
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(|| pool.worker_loop());
            }
            // Shut the workers down even if `body` unwinds — otherwise the
            // implicit join at the end of the scope would wait forever on
            // workers parked in `job_ready.wait`.
            struct Shutdown<'pool, 'env>(&'pool WorkerPool<'env>);
            impl Drop for Shutdown<'_, '_> {
                fn drop(&mut self) {
                    let mut st = self.0.state.lock().expect("pool lock");
                    st.shutdown = true;
                    drop(st);
                    self.0.job_ready.notify_all();
                }
            }
            let _shutdown = Shutdown(&pool);
            body(&pool)
        })
    }

    /// Total compute lanes (spawned workers plus the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `jobs` across the pool, returning their results in input
    /// order. The calling thread participates in draining the queue and
    /// blocks until every job has completed.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        // Completion is counted by a drop guard so a panicking job still
        // wakes the submitting thread (which then finds the empty result
        // slot and propagates the failure) instead of hanging it forever.
        struct Complete(Arc<(Mutex<usize>, Condvar)>);
        impl Drop for Complete {
            fn drop(&mut self) {
                let (count, cv) = &*self.0;
                *count.lock().expect("done lock") += 1;
                cv.notify_all();
            }
        }
        {
            let mut st = self.state.lock().expect("pool lock");
            for (i, job) in jobs.into_iter().enumerate() {
                let slots = Arc::clone(&slots);
                let done = Arc::clone(&done);
                st.jobs.push_back(Box::new(move || {
                    let _complete = Complete(done);
                    let value = job();
                    *slots[i].lock().expect("slot lock") = Some(value);
                }));
            }
        }
        self.job_ready.notify_all();
        // Help drain the queue from the submitting thread.
        loop {
            let job = self.state.lock().expect("pool lock").jobs.pop_front();
            match job {
                Some(job) => job(),
                None => break,
            }
        }
        // Wait for jobs picked up by other workers to finish.
        let (count, cv) = &*done;
        let mut finished = count.lock().expect("done lock");
        while *finished < n {
            finished = cv.wait(finished).expect("done lock");
        }
        drop(finished);
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("slot lock")
                    .take()
                    .expect("a pool job panicked on a worker thread")
            })
            .collect()
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self.state.lock().expect("pool lock");
                loop {
                    if let Some(job) = st.jobs.pop_front() {
                        break Some(job);
                    }
                    if st.shutdown {
                        break None;
                    }
                    st = self.job_ready.wait(st).expect("pool lock");
                }
            };
            match job {
                Some(job) => job(),
                None => return,
            }
        }
    }
}

/// Derives the deterministic RNG stream seed for tile `tile` of scheduler
/// task `task`: the tile-level counterpart of [`sample_stream_seed`], so a
/// tile's noise stream depends only on `(seed, task, tile)` — never on
/// which worker executes it or in what order.
pub fn tile_stream_seed(seed: u64, task: usize, tile: usize) -> u64 {
    sample_stream_seed(sample_stream_seed(seed, task), tile)
}

/// What one scheduler job returns.
enum JobOut {
    /// A conv tile: `[position][channel]` values plus the tile's stats.
    Tile(Vec<f32>, MvmStats),
    /// A whole op executed through the serial oracle implementation.
    Op(Tensor, PerOpExec),
}

/// Per-wave bookkeeping for one scheduled task.
struct Pending {
    task: usize,
    jobs: usize,
    /// Conv-tile assembly target shape (`None` for single-job tasks and
    /// the job-less ReBranch combine).
    out_shape: Option<[usize; 4]>,
    /// Running-activation input bits (result-producing CiM tasks only).
    input_bits: u64,
}

/// The tile-parallel scheduler: executes a compiled [`ExecPlan`] by
/// expanding it into the task graph of [`crate::compiler::schedule`],
/// partitioning each CiM op into its placement-derived position tiles, and
/// fanning every ready task's tiles across a [`WorkerPool`] behind a
/// dependency-aware ready queue.
///
/// Determinism contract (pinned by the parity suite):
///
/// * results are **bit-identical for any worker count** — tile streams
///   depend only on `(seed, task, tile)` and assembly follows task/tile
///   order, never completion order;
/// * on the noiseless datapath the logits, stats *and* full
///   [`ExecutionReport`] are **bit-identical to the serial
///   [`ExecPlan::execute`]** on the same plan: both record the same per-op
///   measurements and reduce them through the same `finalize`;
/// * intermediate activations are dropped the moment their last reader
///   completes (reference counting over the task graph — the same live
///   ranges the buffer-liveness pass plans its arena from), so a deep
///   plan's footprint tracks the planned peak instead of growing with
///   depth.
pub struct Scheduler<'p> {
    plan: &'p ExecPlan,
    graph: TaskGraph,
}

impl<'p> Scheduler<'p> {
    /// Builds the task graph for `plan`.
    pub fn new(plan: &'p ExecPlan) -> Self {
        Scheduler {
            plan,
            graph: TaskGraph::build(plan),
        }
    }

    /// Tasks in the schedule (digital ops count one; ReBranch groups
    /// expand to five).
    pub fn tasks(&self) -> usize {
        self.graph.tasks.len()
    }

    /// Runs one inference through the tile-parallel schedule.
    ///
    /// # Panics
    ///
    /// Panics if a pool job panics (propagated by [`WorkerPool::run`]).
    #[must_use = "dropping the result discards the logits and the measured execution report"]
    pub fn infer<'env>(
        &self,
        x: &Tensor,
        seed: u64,
        pool: &WorkerPool<'env>,
    ) -> (Tensor, ExecutionReport)
    where
        'p: 'env,
    {
        let plan = self.plan;
        let n_ops = plan.len();
        if n_ops == 0 {
            let report = plan.finalize(x, x, &[]);
            return (x.clone(), report);
        }
        let ab = plan.memory().act_bits as u64;
        let n_tasks = self.graph.tasks.len();
        let succ = self.graph.successors();
        let mut indeg = self.graph.indegrees();
        // How many later tasks read each task's value (+1 keeps the final
        // output alive); values are evicted the moment this hits zero —
        // the run-time half of the planned-arena discipline.
        let mut uses = vec![0usize; n_tasks];
        for t in &self.graph.tasks {
            for &d in &t.deps {
                uses[d] += 1;
            }
        }
        let final_task = self.graph.result_task_of_op[n_ops - 1];
        uses[final_task] += 1;
        let mut values: Vec<Option<Arc<Tensor>>> = (0..n_tasks).map(|_| None).collect();
        let mut per_op: Vec<PerOpExec> = (0..n_ops).map(|_| PerOpExec::default()).collect();
        let mut ready: Vec<usize> = (0..n_tasks).filter(|&t| indeg[t] == 0).collect();
        // The network input, cloned once and shared by reference with
        // every job that reads it.
        let x_shared = Arc::new(x.clone());
        // Resolves the running-activation input of a task (the network
        // input for op 0).
        let input_of =
            |task: usize, values: &[Option<Arc<Tensor>>], graph: &TaskGraph| -> Arc<Tensor> {
                let t = &graph.tasks[task];
                let producer = match t.kind {
                    TaskKind::Whole | TaskKind::RbTrunk | TaskKind::RbCompress => {
                        match t.op.checked_sub(1) {
                            None => return Arc::clone(&x_shared),
                            Some(p) => graph.result_task_of_op[p],
                        }
                    }
                    // Stage chain inside a ReBranch group.
                    TaskKind::RbRes | TaskKind::RbDecompress => t.deps[0],
                    TaskKind::RbCombine => unreachable!("combine has no tile input"),
                };
                Arc::clone(values[producer].as_ref().expect("producer value live"))
            };
        while !ready.is_empty() {
            // One wave: everything currently ready, in task order.
            ready.sort_unstable();
            let wave: Vec<usize> = std::mem::take(&mut ready);
            let mut jobs: Vec<Box<dyn FnOnce() -> JobOut + Send + 'env>> = Vec::new();
            let mut pending: Vec<Pending> = Vec::with_capacity(wave.len());
            for &t in &wave {
                let task = &self.graph.tasks[t];
                let op_idx = task.op;
                // The conv a tiled task drives, if it is a tiled task.
                let tiled_conv = match (&plan.ops[op_idx], task.kind) {
                    (PlanOp::Conv { conv, .. }, TaskKind::Whole) => Some(conv),
                    (PlanOp::ReBranch { trunk, .. }, TaskKind::RbTrunk) => Some(trunk),
                    (PlanOp::ReBranch { compress, .. }, TaskKind::RbCompress) => Some(compress),
                    (PlanOp::ReBranch { res_conv, .. }, TaskKind::RbRes) => Some(res_conv),
                    (PlanOp::ReBranch { decompress, .. }, TaskKind::RbDecompress) => {
                        Some(decompress)
                    }
                    _ => None,
                };
                if let Some(conv) = tiled_conv {
                    let input = input_of(t, &values, &self.graph);
                    let (h, w) = (input.shape()[2], input.shape()[3]);
                    let (oh, ow) = conv.output_hw(h, w);
                    let batch = input.shape()[0];
                    let cols = Arc::new(conv.lower(&input));
                    let ranges = conv.tile_ranges(batch * oh * ow);
                    let input_bits = input.data().len() as u64 * ab;
                    pending.push(Pending {
                        task: t,
                        jobs: ranges.len(),
                        out_shape: Some([batch, conv.out_channels(), oh, ow]),
                        input_bits,
                    });
                    for (ti, (lo, hi)) in ranges.into_iter().enumerate() {
                        let cols = Arc::clone(&cols);
                        jobs.push(Box::new(move || {
                            let mut rng = StdRng::seed_from_u64(tile_stream_seed(seed, t, ti));
                            // Draw kernel staging (panel, accumulators,
                            // bit-plane masks) from the plan's arena pool
                            // so repeated tile jobs reuse warmed buffers.
                            let mut arena = plan.take_arena();
                            let (vals, stats) =
                                conv.forward_tile_with(&cols, lo, hi, &mut arena.cim, &mut rng);
                            plan.give_arena(arena);
                            JobOut::Tile(vals, stats)
                        }));
                    }
                } else if task.kind == TaskKind::RbCombine {
                    // Assembly-only: merged on the submitting thread.
                    pending.push(Pending {
                        task: t,
                        jobs: 0,
                        out_shape: None,
                        input_bits: 0,
                    });
                } else {
                    // Digital op, linear or projected residual: one job
                    // through the serial-oracle op implementation.
                    let input = input_of(t, &values, &self.graph);
                    // Snapshot of the source outputs this op reads.
                    let mut outputs: Vec<Option<Tensor>> = vec![None; n_ops];
                    for src in plan.ops[op_idx].sources() {
                        if let crate::compiler::OpSource::Op(j) = src {
                            let v = values[self.graph.result_task_of_op[j]]
                                .as_ref()
                                .expect("source value live");
                            outputs[j] = Some(v.as_ref().clone());
                        }
                    }
                    let x_job = Arc::clone(&x_shared);
                    pending.push(Pending {
                        task: t,
                        jobs: 1,
                        out_shape: None,
                        input_bits: 0,
                    });
                    jobs.push(Box::new(move || {
                        let mut rng = StdRng::seed_from_u64(tile_stream_seed(seed, t, 0));
                        let (out, rec) = plan.run_op_serial(
                            op_idx,
                            input.as_ref(),
                            x_job.as_ref(),
                            &outputs,
                            &mut rng,
                        );
                        JobOut::Op(out, rec)
                    }));
                }
            }
            let mut results = pool.run(jobs).into_iter();
            // Assemble in task order, tiles in range order — the exact
            // reduction the serial interpreter performs.
            for p in &pending {
                let t = p.task;
                let task = &self.graph.tasks[t];
                let op_idx = task.op;
                let taken: Vec<JobOut> = (0..p.jobs)
                    .map(|_| results.next().expect("one result per job"))
                    .collect();
                let out = if task.kind == TaskKind::RbCombine {
                    let trunk: &Tensor = values[task.deps[0]].as_ref().expect("trunk live");
                    let dec: &Tensor = values[task.deps[1]].as_ref().expect("decompress live");
                    let y = trunk.add(dec);
                    let epilogue = plan.ops[op_idx].epilogue().to_vec();
                    let resolve = |j: usize| -> Tensor {
                        values[self.graph.result_task_of_op[j]]
                            .as_ref()
                            .expect("source value live")
                            .as_ref()
                            .clone()
                    };
                    let rec = &mut per_op[op_idx];
                    let y = plan.apply_epilogue(&epilogue, y, op_idx, x, &resolve, rec);
                    rec.out_bits = y.data().len() as u64 * ab;
                    y
                } else if let Some(shape) = p.out_shape {
                    let conv = match (&plan.ops[op_idx], task.kind) {
                        (PlanOp::Conv { conv, .. }, TaskKind::Whole) => conv,
                        (PlanOp::ReBranch { trunk, .. }, TaskKind::RbTrunk) => trunk,
                        (PlanOp::ReBranch { compress, .. }, TaskKind::RbCompress) => compress,
                        (PlanOp::ReBranch { res_conv, .. }, TaskKind::RbRes) => res_conv,
                        (PlanOp::ReBranch { decompress, .. }, TaskKind::RbDecompress) => decompress,
                        _ => unreachable!("tile results imply a tiled conv"),
                    };
                    let mut y = Tensor::zeros(&shape);
                    let mut stats = MvmStats::default();
                    let mut lo = 0usize;
                    for r in &taken {
                        let JobOut::Tile(vals, s) = r else {
                            unreachable!("tile job order")
                        };
                        stats.merge(s);
                        conv.scatter_tile(&mut y, lo, vals);
                        lo += vals.len() / conv.out_channels().max(1);
                    }
                    // Fold the stage stats exactly where the serial walk
                    // folds them.
                    let is_conv_whole = matches!(&plan.ops[op_idx], PlanOp::Conv { .. })
                        && task.kind == TaskKind::Whole;
                    {
                        let rec = &mut per_op[op_idx];
                        match (&plan.ops[op_idx], task.kind) {
                            (PlanOp::Conv { domain, .. }, TaskKind::Whole) => {
                                rec.in_bits = p.input_bits;
                                if op_idx > 0 && plan.chip_of[op_idx] != plan.chip_of[op_idx - 1] {
                                    rec.cross_bits += rec.in_bits;
                                }
                                rec.tiles = p.jobs;
                                rec.add(*domain, &stats);
                            }
                            (_, TaskKind::RbTrunk) => {
                                rec.in_bits = p.input_bits;
                                if op_idx > 0 && plan.chip_of[op_idx] != plan.chip_of[op_idx - 1] {
                                    rec.cross_bits += rec.in_bits;
                                }
                                rec.tiles = p.jobs;
                                rec.rom.merge(&stats);
                            }
                            (_, TaskKind::RbCompress) => rec.rom.merge(&stats),
                            (_, TaskKind::RbRes) => rec.sram.merge(&stats),
                            (_, TaskKind::RbDecompress) => rec.rom.merge(&stats),
                            _ => unreachable!(),
                        }
                    }
                    // A plain conv's epilogue applies to its own
                    // (assembled) output.
                    if is_conv_whole {
                        let epilogue = plan.ops[op_idx].epilogue().to_vec();
                        let resolve = |j: usize| -> Tensor {
                            values[self.graph.result_task_of_op[j]]
                                .as_ref()
                                .expect("source value live")
                                .as_ref()
                                .clone()
                        };
                        let rec = &mut per_op[op_idx];
                        let y2 = plan.apply_epilogue(&epilogue, y, op_idx, x, &resolve, rec);
                        rec.out_bits = y2.data().len() as u64 * ab;
                        y2
                    } else {
                        y
                    }
                } else {
                    let Some(JobOut::Op(out, rec)) = taken.into_iter().next() else {
                        unreachable!("single-job task returns an op result")
                    };
                    per_op[op_idx] = rec;
                    out
                };
                values[t] = Some(Arc::new(out));
                // This task consumed its dependencies: release dead ones.
                for &d in &self.graph.tasks[t].deps {
                    uses[d] -= 1;
                    if uses[d] == 0 {
                        values[d] = None;
                    }
                }
                for &s in &succ[t] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        let output = values[final_task]
            .as_ref()
            .expect("final output retained")
            .as_ref()
            .clone();
        let report = plan.finalize(x, &output, &per_op);
        (output, report)
    }
}

/// Cache-aware deploy front end for multi-model serving: every deploy
/// routes through a shared [`PlanCache`], so re-deploying a network this
/// process (or any earlier process that populated the cache directory)
/// already compiled costs a plan-document read instead of a full
/// compile — the warm path performs zero recompilation, asserted via
/// [`crate::compiler::compile_count`] in the round-trip suite and the
/// bench schema gate.
///
/// # Examples
///
/// ```
/// use yoloc_core::compiler::{cache::PlanCache, CompileOptions};
/// use yoloc_core::engine::ModelServer;
/// use yoloc_models::zoo;
///
/// let server = ModelServer::with_cache(PlanCache::in_memory());
/// let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
/// let _cold = server.deploy(&desc, 7, CompileOptions::paper_default())?;
/// let _warm = server.deploy(&desc, 7, CompileOptions::paper_default())?;
/// assert_eq!(server.cache().hits(), 1);
/// # Ok::<(), yoloc_models::NetworkError>(())
/// ```
#[derive(Debug, Default)]
pub struct ModelServer {
    cache: PlanCache,
}

impl ModelServer {
    /// A server over the default on-disk cache location (see
    /// [`PlanCache::new`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A server over an explicit cache (in-memory or custom directory).
    pub fn with_cache(cache: PlanCache) -> Self {
        ModelServer { cache }
    }

    /// The underlying cache (hit/miss counters for reporting).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Deploys `desc` with deterministic random weights through the
    /// cache: hits rebuild the stored plan bit-identically, misses
    /// compile and populate the cache.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the description is inconsistent.
    pub fn deploy(
        &self,
        desc: &NetworkDesc,
        seed: u64,
        opts: CompileOptions,
    ) -> Result<CompiledNetwork, NetworkError> {
        self.cache.compile_random(desc, seed, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_input_order() {
        let out = WorkerPool::with(4, |pool| {
            pool.run((0..64usize).map(|i| move || i * i).collect::<Vec<_>>())
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let (a, b) = WorkerPool::with(3, |pool| {
            let a = pool.run((0..10u64).map(|i| move || i + 1).collect::<Vec<_>>());
            let b = pool.run((0..10u64).map(|i| move || i * 2).collect::<Vec<_>>());
            (a, b)
        });
        assert_eq!(a, (1..=10).collect::<Vec<_>>());
        assert_eq!(b, (0..20).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_can_borrow_caller_data() {
        let data: Vec<u64> = (0..32).collect();
        let doubled = WorkerPool::with(2, |pool| {
            pool.run(data.iter().map(|v| move || v * 2).collect::<Vec<_>>())
        });
        assert_eq!(doubled[31], 62);
    }

    #[test]
    fn single_worker_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        let ids = WorkerPool::with(1, |pool| {
            pool.run(
                (0..8)
                    .map(|_| || std::thread::current().id())
                    .collect::<Vec<_>>(),
            )
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u8> = WorkerPool::with(2, |pool| pool.run(Vec::<fn() -> u8>::new()));
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_degrades_to_one() {
        let out = WorkerPool::with(0, |pool| {
            assert_eq!(pool.workers(), 1);
            pool.run(vec![|| 41 + 1])
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic]
    fn panicking_job_propagates_instead_of_hanging() {
        // Whether the failing job lands on the calling thread or a spawned
        // worker, run() must panic (empty result slot), never deadlock.
        WorkerPool::with(3, |pool| {
            pool.run(
                (0..8)
                    .map(|i| move || if i == 5 { panic!("job failed") } else { i })
                    .collect::<Vec<_>>(),
            )
        });
    }

    #[test]
    #[should_panic(expected = "body failed")]
    fn panicking_body_still_joins_workers() {
        // The shutdown drop guard must release parked workers so the
        // scope's implicit join terminates and the panic propagates.
        WorkerPool::with(3, |_pool| -> () { panic!("body failed") });
    }

    #[test]
    fn scheduler_bit_identical_to_serial_interpreter() {
        // THE parity pin of the tile-parallel scheduler: same plan, same
        // seed — the full ExecutionReport (logits, stats, energy, per-op
        // latency, traffic) must equal the serial interpreter's bit for
        // bit, at every worker count.
        use crate::compiler::{CompileOptions, CompiledNetwork};
        use yoloc_models::zoo;
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let net =
            CompiledNetwork::compile_random(&desc, 7, CompileOptions::paper_default()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let (serial, serial_report) = net.infer(&x, &mut rng);
        for workers in [1, 2, 4] {
            let (tiled, report) = WorkerPool::with(workers, |pool| net.infer_tiled(&x, 5, pool));
            assert_eq!(serial.data(), tiled.data(), "workers = {workers}");
            assert_eq!(serial_report, report, "workers = {workers}");
        }
    }

    #[test]
    fn scheduler_handles_residual_and_passthrough_graphs() {
        use crate::compiler::{CompileOptions, CompiledNetwork};
        use yoloc_models::zoo;
        for desc in [
            zoo::scaled(&zoo::resnet18(3), 16, (32, 32)),
            zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64)),
        ] {
            let net = CompiledNetwork::compile_random(&desc, 17, CompileOptions::paper_default())
                .unwrap();
            let mut rng = StdRng::seed_from_u64(18);
            let (c, h, w) = net.input_shape();
            let x = Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng);
            let (serial, serial_report) = net.infer(&x, &mut rng);
            let (tiled, report) = WorkerPool::with(4, |pool| net.infer_tiled(&x, 5, pool));
            assert_eq!(serial.data(), tiled.data(), "{}", desc.name);
            assert_eq!(serial_report, report, "{}", desc.name);
        }
    }

    #[test]
    fn scheduler_reports_arena_and_fusion_savings() {
        use crate::compiler::{CompileOptions, CompiledNetwork, PassPipeline};
        use yoloc_models::zoo;
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let fused =
            CompiledNetwork::compile_random(&desc, 7, CompileOptions::paper_default()).unwrap();
        let mut raw_opts = CompileOptions::paper_default();
        raw_opts.passes = PassPipeline::none();
        let raw = CompiledNetwork::compile_random(&desc, 7, raw_opts).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let (y_fused, r_fused) = WorkerPool::with(2, |pool| fused.infer_tiled(&x, 3, pool));
        let mut rng = StdRng::seed_from_u64(9);
        let x2 = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let (y_raw, r_raw) = raw.infer(&x2, &mut rng);
        // Fusion is arithmetic-transparent: identical logits and stats.
        assert_eq!(y_fused.data(), y_raw.data());
        assert_eq!(r_fused.rom, r_raw.rom);
        assert_eq!(r_fused.sram, r_raw.sram);
        // And it moves strictly less traffic through the hierarchy.
        assert!(r_fused.buffer_traffic_bits < r_raw.buffer_traffic_bits);
        assert!(r_fused.energy.buffer_uj < r_raw.energy.buffer_uj);
        // The planned arena beats per-op allocation.
        assert!(r_fused.peak_arena_bytes < r_fused.naive_arena_bytes);
        assert_eq!(r_raw.peak_arena_bytes, r_raw.naive_arena_bytes);
    }

    #[test]
    fn sharded_plan_pays_the_chiplet_link() {
        use crate::compiler::{CompileOptions, CompiledNetwork};
        use crate::mapping::MappingStrategy;
        use yoloc_models::zoo;
        let desc = zoo::scaled(&zoo::vgg8(3), 16, (16, 16));
        let mut opts = CompileOptions::paper_default();
        opts.mapping = MappingStrategy::Sharded { chips: 4 };
        let sharded = CompiledNetwork::compile_random(&desc, 7, opts).unwrap();
        let single =
            CompiledNetwork::compile_random(&desc, 7, CompileOptions::paper_default()).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let (y_s, r_s) = sharded.infer(&x, &mut rng);
        let (y_1, r_1) = single.infer(&x, &mut rng);
        // Sharding is functionally transparent...
        assert_eq!(y_s.data(), y_1.data());
        // ...but the shard topology shows up in traffic, energy, latency.
        assert!(r_s.link_traffic_bits > 0);
        assert_eq!(r_1.link_traffic_bits, 0);
        assert!(r_s.energy.link_uj > 0.0);
        assert_eq!(r_1.energy.link_uj, 0.0);
        assert!(r_s.latency_ns > r_1.latency_ns);
        assert!(sharded.plan().chips() == 4);
        // Scheduler parity holds on sharded plans too.
        let (y_t, r_t) = WorkerPool::with(3, |pool| sharded.infer_tiled(&x, 11, pool));
        let mut rng = StdRng::seed_from_u64(10);
        let x3 = Tensor::rand_uniform(&[1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let (y_s2, r_s2) = sharded.infer(&x3, &mut rng);
        assert_eq!(y_t.data(), y_s2.data());
        assert_eq!(r_t, r_s2);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let jobs = |n: usize| (0..40u64).map(|i| move || i.wrapping_mul(i) ^ 7).take(n);
        let serial = WorkerPool::with(1, |p| p.run(jobs(40).collect::<Vec<_>>()));
        for workers in [2, 4, 8] {
            let parallel = WorkerPool::with(workers, |p| p.run(jobs(40).collect::<Vec<_>>()));
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }
}
