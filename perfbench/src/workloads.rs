//! The four workloads, driven from outside through the layers' public
//! functions. Each runs one kernel configuration from boot to the end
//! of its measured phase and returns the set-up time, one host-time
//! sample per measured step, and the phase's simulated counts.

use sat_android::{
    launch_app_seq, launch_data_libs, launch_page_set, AndroidSystem, BootOptions, LaunchOptions,
    LibraryLayout,
};
use sat_core::{Kernel, KernelConfig, NoTlb, PromotePolicy};
use sat_sim::machine::BINDER_PATH_PAGE;
use sat_sim::Machine;
use sat_trace::{app_specs, AppProfile, FetchEvent, FetchStream, LibId};
use sat_types::{
    AccessType, Perms, Pid, RegionTag, SatResult, VaRange, VirtAddr, KERNEL_SPACE_START, PAGE_SIZE,
};
use sat_vm::MmapRequest;

use crate::counts::{Baseline, Counts};
use crate::probe::{Kind, Probe};
use crate::refclock::{Meter, Sample};

/// A workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The suite timeshared in fixed quanta (translation read side).
    Steady,
    /// App exit and launch (translation write side).
    Churn,
    /// `Steady` under a frame budget (reclaim and refaults).
    Pressure,
    /// Fork, fault, promote, sweep, demote, exit (translation reach).
    Promote,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Churn,
        Workload::Pressure,
        Workload::Promote,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Churn => "churn",
            Workload::Pressure => "pressure",
            Workload::Promote => "promote",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work a run does: `Full` is the benchmark, `Tiny` the smoke
/// test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A few steps, for the smoke test.
    Tiny,
}

/// Seed of the simulated device image: the library catalog and its
/// placement. The image is part of the modelled system, not of the
/// workload, so every run boots the same one; `--seed` picks the
/// traffic (app profiles, fetch streams, launch code tails, the sparse
/// working set).
const IMAGE_SEED: u64 = 1;

/// The two kernels the paper compares, in report order.
pub fn kernels() -> [(&'static str, KernelConfig); 2] {
    [
        ("stock", KernelConfig::stock()),
        ("shared", KernelConfig::shared_ptp_tlb()),
    ]
}

/// Public calls made and how many returned `Err`.
#[derive(Clone, Copy, Default, Debug)]
pub struct Ops {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned `Err`.
    pub failed: u64,
}

/// What one kernel's run produced.
pub struct KernelRun {
    /// The set-up phase.
    pub setup: Sample,
    /// One sample per measured step.
    pub steps: Vec<Sample>,
    /// The measured phase's counts.
    pub counts: Counts,
}

/// The state a workload drives the layers with.
pub struct Ctx<'a> {
    /// The span recorder.
    pub probe: &'a mut Probe,
    /// The host-time meter.
    pub meter: &'a mut Meter,
    /// Call accounting.
    pub ops: Ops,
    /// Broken output checks, one line each.
    pub violations: Vec<String>,
    exited_ptes_copied: u64,
    step_id: u32,
    steps: Vec<Sample>,
}

impl<'a> Ctx<'a> {
    /// A context over a probe and a meter.
    pub fn new(probe: &'a mut Probe, meter: &'a mut Meter) -> Ctx<'a> {
        Ctx {
            probe,
            meter,
            ops: Ops::default(),
            violations: Vec::new(),
            exited_ptes_copied: 0,
            step_id: 0,
            steps: Vec::new(),
        }
    }

    /// Counts a call's outcome; a failure is counted, never unwrapped.
    fn note<T>(&mut self, r: SatResult<T>) -> Option<T> {
        self.ops.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(_) => {
                self.ops.failed += 1;
                None
            }
        }
    }

    /// Counts a set-up call whose failure ends the run.
    fn must<T>(&mut self, what: &str, r: SatResult<T>) -> Result<T, String> {
        self.ops.attempted += 1;
        r.map_err(|e| {
            self.ops.failed += 1;
            format!("{what} failed: {e:?}")
        })
    }

    /// One traced, counted `Machine::access`.
    fn access(&mut self, m: &mut Machine, va: VirtAddr, access: AccessType) {
        let r = self.probe.access(m, va, access);
        self.note(r);
    }

    /// One traced, counted `Machine::context_switch`.
    fn switch(&mut self, m: &mut Machine, pid: Pid) {
        let r = self
            .probe
            .call(Kind::ContextSwitch, || m.context_switch(0, pid));
        self.note(r);
    }

    /// Exits `pid`, banking the PTEs it copied for the counts.
    fn exit(&mut self, m: &mut Machine, pid: Pid) {
        if let Ok(mm) = m.kernel.mm(pid) {
            self.exited_ptes_copied += mm.counters.ptes_copied_total();
        }
        let r = self
            .probe
            .call(Kind::Exit, || m.syscall_on(0, |k, tlb| k.exit(pid, tlb)));
        self.note(r);
    }

    /// Runs one measured step.
    fn step(&mut self, f: impl FnOnce(&mut Self)) {
        self.probe.set_step(self.step_id);
        self.step_id += 1;
        let t = self.meter.begin();
        self.probe.open(Kind::Step);
        f(self);
        self.probe.close();
        let s = self.meter.end_step(t);
        self.steps.push(s);
    }
}

/// Runs `workload` under one kernel.
pub fn run(
    ctx: &mut Ctx,
    workload: Workload,
    config: KernelConfig,
    seed: u64,
    size: Size,
) -> Result<KernelRun, String> {
    ctx.steps = Vec::with_capacity(512);
    ctx.step_id = 0;
    match workload {
        Workload::Steady => steady(ctx, config, seed, size, false),
        Workload::Pressure => steady(ctx, config, seed, size, true),
        Workload::Churn => churn(ctx, config, seed, size),
        Workload::Promote => promote(ctx, config, seed, size),
    }
}

/// A small deterministic generator (SplitMix64) for the benchmark's
/// own choices.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n.max(1))) as u32
    }
}

/// Checks the accounting audits every kernel run must leave clean.
fn audit(ctx: &mut Ctx, k: &Kernel) {
    let found = ctx.probe.call(Kind::Audit, || {
        let mut found = Vec::new();
        if let Err(e) = k.verify_share_accounting() {
            found.push(format!("verify_share_accounting: {e}"));
        }
        if let Err(e) = k.phys.rmap_verify() {
            found.push(format!("rmap_verify: {e}"));
        }
        found
    });
    ctx.violations.extend(found);
}

/// The launch window every workload's apps run: the paper's launch
/// (`LaunchOptions::paper`) with 2 passes over its 1,900 code pages
/// instead of 30. The first pass takes the launch faults; each later
/// pass adds the same 1,900 main-TLB walks and 30,400 L1-I misses
/// (3.7 Mcycles) under both kernels, so the second stands for the
/// other 28 (METHOD.md has the measurement).
fn launch_opts(size: Size) -> LaunchOptions {
    match size {
        Size::Full => LaunchOptions {
            exec_passes: 2,
            ..LaunchOptions::paper()
        },
        Size::Tiny => LaunchOptions::small(),
    }
}

/// The launch sequence number of the `n`th launch of a run: selects
/// the per-launch tail of the launch code set.
fn launch_seq(seed: u64, n: u64) -> u64 {
    (seed << 20) | n
}

fn boot_opts(size: Size) -> BootOptions {
    match size {
        Size::Full => BootOptions::paper(),
        Size::Tiny => BootOptions::small(),
    }
}

// ---------------------------------------------------------------------
// steady and pressure

/// Shape of the timeshared suite.
struct SteadyShape {
    apps: usize,
    warm_events: usize,
    rounds: usize,
    quantum: usize,
}

fn steady_shape(size: Size) -> SteadyShape {
    match size {
        Size::Full => SteadyShape {
            apps: 11,
            warm_events: 1_000,
            rounds: 10,
            quantum: 800,
        },
        Size::Tiny => SteadyShape {
            apps: 3,
            warm_events: 200,
            rounds: 2,
            quantum: 200,
        },
    }
}

/// Frame budget of `pressure`, as a share of the post-warm-up
/// footprint.
const PRESSURE_BUDGET: (u64, u64) = (7, 8);

/// Zygote anonymous regions (`AndroidSystem::boot` places them here).
const ANON_BASE: u32 = 0x0800_0000;

/// Pages of each app's private heap.
const HEAP_PAGES: u32 = 256;

/// Pages of each app's content file.
const CONTENT_PAGES: u32 = 4_096;

/// One timeshared app: its fetch stream and write cursors.
struct App {
    slot: usize,
    pid: Pid,
    stream: FetchStream,
    heap: u32,
    content: u32,
    content_every: usize,
    events: usize,
    heap_cursor: u32,
    content_cursor: u32,
    rng: Mix,
}

/// Boots, launches and attaches the suite, and maps each app's heap
/// and content file.
fn steady_setup(
    ctx: &mut Ctx,
    config: KernelConfig,
    seed: u64,
    size: Size,
    shape: &SteadyShape,
) -> Result<(AndroidSystem, Vec<App>), String> {
    let boot = ctx.probe.call(Kind::Boot, || {
        AndroidSystem::boot(
            config,
            LibraryLayout::Original,
            IMAGE_SEED,
            shape.apps,
            boot_opts(size),
        )
    });
    let mut sys = ctx.must("boot", boot)?;
    let profiles: Vec<AppProfile> = ctx.probe.call(Kind::Profile, || {
        app_specs()
            .into_iter()
            .take(shape.apps)
            .enumerate()
            .map(|(i, mut spec)| {
                if size == Size::Tiny {
                    spec.footprint_pages = 300;
                }
                AppProfile::generate(&sys.catalog, &spec, i, seed)
            })
            .collect()
    });
    let opts = launch_opts(size);
    let mut apps = Vec::with_capacity(profiles.len());
    for (n, profile) in profiles.into_iter().enumerate() {
        let app_index = profile.app_index;
        let kernel_pct = profile.spec.kernel_fetch_pct;
        let seq = launch_seq(seed, n as u64);
        let launched = ctx
            .probe
            .call(Kind::Launch, || launch_app_seq(&mut sys, &opts, seq));
        let (pid, _) = ctx.must("launch_app", launched)?;
        let attached = ctx
            .probe
            .call(Kind::Attach, || sys.attach_app(pid, profile));
        let slot = ctx.must("attach_app", attached)?;
        let heap = 0x3000_0000 + (slot as u32) * 0x0080_0000;
        let content = 0x1000_0000 + (slot as u32) * 0x0200_0000;
        let file = sys.machine.kernel.files.register(
            format!("content-{app_index}.dat"),
            CONTENT_PAGES * PAGE_SIZE,
        );
        let heap_req = MmapRequest::anon(
            HEAP_PAGES * PAGE_SIZE,
            Perms::RW,
            RegionTag::Heap,
            "[anon:app-heap]",
        )
        .at(VirtAddr::new(heap));
        let content_req = MmapRequest::file(
            CONTENT_PAGES * PAGE_SIZE,
            Perms::R,
            file,
            0,
            RegionTag::AppData,
            "content",
        )
        .at(VirtAddr::new(content));
        for req in [heap_req, content_req] {
            let m = &mut sys.machine;
            let r = ctx.probe.call(Kind::Syscall, || {
                m.syscall_on(0, |k, tlb| k.mmap(pid, &req, tlb))
            });
            ctx.must("mmap", r)?;
        }
        let stream = ctx.probe.call(Kind::Profile, || {
            FetchStream::new(&sys.apps[slot].profile, seed ^ slot as u64)
        });
        apps.push(App {
            slot,
            pid,
            stream,
            heap,
            content,
            content_every: (28.0 - kernel_pct / 2.0).max(4.0) as usize,
            events: 0,
            heap_cursor: 0,
            content_cursor: 0,
            rng: Mix(seed ^ 0xDA7A ^ app_index as u64),
        });
    }
    Ok((sys, apps))
}

/// Runs `events` fetch events of `app` with its interleaved heap,
/// zygote-heap, content and library-data traffic.
fn quantum(ctx: &mut Ctx, sys: &mut AndroidSystem, app: &mut App, libs: &[LibId], events: usize) {
    let opts = sys.opts();
    for _ in 0..events {
        let i = app.events;
        app.events += 1;
        let va = ctx
            .probe
            .call(Kind::FetchStream, || match app.stream.next_event() {
                FetchEvent::User { page, line } => {
                    VirtAddr::new(sys.resolve(app.slot, page).raw() + line * 32)
                }
                FetchEvent::Kernel { page, line } => {
                    VirtAddr::new(KERNEL_SPACE_START + page * PAGE_SIZE + line * 32)
                }
            });
        ctx.access(&mut sys.machine, va, AccessType::Execute);
        if i % 64 == 63 {
            let va = app.heap + (app.heap_cursor % HEAP_PAGES) * PAGE_SIZE;
            app.heap_cursor += 1;
            ctx.access(&mut sys.machine, VirtAddr::new(va), AccessType::Write);
        }
        if i % 96 == 95 {
            let n = (i / 96) as u32;
            let region = n % opts.anon_regions;
            let page = (n / opts.anon_regions) % opts.anon_pages_each;
            let va = ANON_BASE + region * 0x40_0000 + page * PAGE_SIZE;
            ctx.access(&mut sys.machine, VirtAddr::new(va), AccessType::Write);
        }
        if i % app.content_every == app.content_every - 1 {
            let va = app.content + (app.content_cursor % CONTENT_PAGES) * PAGE_SIZE;
            app.content_cursor += 1;
            ctx.access(&mut sys.machine, VirtAddr::new(va), AccessType::Read);
        }
        if i % 64 == 31 && !libs.is_empty() {
            let lib = libs[(i / 64) % libs.len()];
            if let Some(base) = sys.map.data_base(lib) {
                let off = app.rng.below(sys.catalog.lib(lib).data_pages);
                let va = VirtAddr::new(base.raw() + off * PAGE_SIZE);
                ctx.access(&mut sys.machine, va, AccessType::Write);
            }
        }
    }
}

/// `steady`, or `pressure` when `budget` is set.
fn steady(
    ctx: &mut Ctx,
    config: KernelConfig,
    seed: u64,
    size: Size,
    budget: bool,
) -> Result<KernelRun, String> {
    let shape = steady_shape(size);
    let t = ctx.meter.begin_phase();
    ctx.probe.open(Kind::Setup);
    let (mut sys, mut apps) = steady_setup(ctx, config, seed, size, &shape)?;
    let libs = sys.catalog.zygote_preloaded();
    for app in &mut apps {
        ctx.switch(&mut sys.machine, app.pid);
        quantum(ctx, &mut sys, app, &libs, shape.warm_events);
    }
    if budget {
        let frames =
            sys.machine.kernel.phys.frames_in_use() * PRESSURE_BUDGET.0 / PRESSURE_BUDGET.1;
        let k = &mut sys.machine.kernel;
        ctx.probe
            .call(Kind::Syscall, || k.set_frame_budget(Some(frames)));
    }
    ctx.probe.close();
    let setup = ctx.meter.end_phase(t);

    let base = Baseline::open(&mut sys.machine, ctx.exited_ptes_copied);
    ctx.probe.open(Kind::Measure);
    for _ in 0..shape.rounds {
        for app in &mut apps {
            ctx.step(|ctx| {
                ctx.switch(&mut sys.machine, app.pid);
                quantum(ctx, &mut sys, app, &libs, shape.quantum);
            });
        }
    }
    ctx.probe.close();
    let counts = base.close(&sys.machine, ctx.exited_ptes_copied, ctx.steps.len() as u64);

    audit(ctx, &sys.machine.kernel);
    let live = sys.machine.kernel.process_count();
    if live != shape.apps + 1 {
        ctx.violations
            .push(format!("{live} processes live, want {}", shape.apps + 1));
    }
    if budget && counts.reclaims == 0 {
        ctx.violations
            .push("the frame budget never caused a reclaim pass".into());
    }
    ctx.probe.call(Kind::Teardown, move || drop((sys, apps)));
    Ok(KernelRun {
        setup,
        steps: std::mem::take(&mut ctx.steps),
        counts,
    })
}

// ---------------------------------------------------------------------
// churn

/// Shape of the launch churn.
struct ChurnShape {
    live: usize,
    warm_steps: usize,
    steps: usize,
}

fn churn_shape(size: Size) -> ChurnShape {
    match size {
        Size::Full => ChurnShape {
            live: 6,
            warm_steps: 6,
            steps: 100,
        },
        Size::Tiny => ChurnShape {
            live: 2,
            warm_steps: 2,
            steps: 4,
        },
    }
}

/// One app launch. Untraced, it calls `launch_app_seq` itself, so the
/// end-to-end figures time the program's own launch. Traced, it makes
/// the same calls one by one, in the order `launch_app_seq` makes them
/// (fork from the zygote, switch to the child, binder IPCs, the launch
/// code, library-data writes, a fresh heap), so that fork, faults and
/// walks are timed on their own; `android.launch` then times the
/// android layer's own part, the launch plan. The check that traced and
/// untraced repetitions produce the same counts fails if the two drift
/// apart. Returns the child, or `None` if the launch failed.
fn launch(ctx: &mut Ctx, sys: &mut AndroidSystem, opts: &LaunchOptions, seq: u64) -> Option<Pid> {
    if !ctx.probe.traced() {
        let launched = launch_app_seq(sys, opts, seq);
        return ctx.note(launched).map(|(pid, _)| pid);
    }
    let zygote = sys.zygote;
    let forked = ctx.probe.call(Kind::Fork, || sys.machine.fork(0, zygote));
    let pid = ctx.note(forked)?.0.child;
    ctx.switch(&mut sys.machine, pid);
    let (pages, libs) = ctx.probe.call(Kind::Launch, || {
        (launch_page_set(sys, opts, seq), launch_data_libs(sys, opts))
    });
    let binder = sys
        .catalog
        .zygote_native
        .iter()
        .find(|id| sys.catalog.lib(**id).code_pages >= 4)
        .and_then(|&id| sys.map.code_base(id));
    for _ in 0..opts.ipcs {
        if let Some(base) = binder {
            for p in 0..4 {
                let va = VirtAddr::new(base.raw() + p * PAGE_SIZE);
                ctx.access(&mut sys.machine, va, AccessType::Execute);
            }
        }
        let m = &mut sys.machine;
        let ran = ctx.probe.call(Kind::KernelText, || {
            m.run_kernel_lines(0, BINDER_PATH_PAGE, 160)
        });
        ctx.note(ran);
    }
    for pass in 0..opts.exec_passes.max(1) {
        for page in &pages {
            let Some(va) = sys.map.code_page_va(*page, VirtAddr::new(0)) else {
                continue;
            };
            let first = (pass * 7) % 128;
            for line in 0..opts.lines_per_page {
                let va = VirtAddr::new(va.raw() + ((first + line) % 128) * 32);
                ctx.access(&mut sys.machine, va, AccessType::Execute);
            }
        }
    }
    for lib in libs {
        if let Some(base) = sys.map.data_base(lib) {
            ctx.access(&mut sys.machine, base, AccessType::Write);
        }
    }
    let heap = VirtAddr::new(0x3800_0000 + (sys.apps.len() as u32 % 32) * 0x0040_0000);
    let req = MmapRequest::anon(
        opts.heap_pages * PAGE_SIZE,
        Perms::RW,
        RegionTag::Heap,
        "[anon:launch-heap]",
    )
    .at(heap);
    let m = &mut sys.machine;
    let mapped = ctx
        .probe
        .call(Kind::Syscall, || m.syscall(|k, tlb| k.mmap(pid, &req, tlb)));
    ctx.note(mapped);
    for p in 0..opts.heap_pages {
        let va = VirtAddr::new(heap.raw() + p * PAGE_SIZE);
        ctx.access(&mut sys.machine, va, AccessType::Write);
    }
    Some(pid)
}

/// `churn`: a fixed number of launched apps stays alive; each step
/// exits the oldest and launches a replacement.
fn churn(ctx: &mut Ctx, config: KernelConfig, seed: u64, size: Size) -> Result<KernelRun, String> {
    let shape = churn_shape(size);
    let opts = launch_opts(size);
    let t = ctx.meter.begin_phase();
    ctx.probe.open(Kind::Setup);
    let boot = ctx.probe.call(Kind::Boot, || {
        AndroidSystem::boot(
            config,
            LibraryLayout::Original,
            IMAGE_SEED,
            11,
            boot_opts(size),
        )
    });
    let mut sys = ctx.must("boot", boot)?;
    let mut live = std::collections::VecDeque::with_capacity(shape.live + 1);
    let mut launches = 0u64;
    for _ in 0..shape.live {
        let seq = launch_seq(seed, launches);
        launches += 1;
        let pid = launch(ctx, &mut sys, &opts, seq).ok_or("the first launches failed")?;
        live.push_back(pid);
    }
    let mut cycle = |ctx: &mut Ctx, sys: &mut AndroidSystem| {
        if let Some(old) = live.pop_front() {
            ctx.exit(&mut sys.machine, old);
        }
        let seq = launch_seq(seed, launches);
        launches += 1;
        if let Some(pid) = launch(ctx, sys, &opts, seq) {
            live.push_back(pid);
        }
        let n = sys.machine.kernel.process_count();
        if n != shape.live + 1 {
            ctx.violations
                .push(format!("{n} processes live, want {}", shape.live + 1));
        }
    };
    for _ in 0..shape.warm_steps {
        cycle(ctx, &mut sys);
    }
    ctx.probe.close();
    let setup = ctx.meter.end_phase(t);

    let base = Baseline::open(&mut sys.machine, ctx.exited_ptes_copied);
    ctx.probe.open(Kind::Measure);
    for _ in 0..shape.steps {
        ctx.step(|ctx| cycle(ctx, &mut sys));
    }
    ctx.probe.close();
    let counts = base.close(&sys.machine, ctx.exited_ptes_copied, ctx.steps.len() as u64);
    audit(ctx, &sys.machine.kernel);
    ctx.probe.call(Kind::Teardown, move || drop(sys));
    Ok(KernelRun {
        setup,
        steps: std::mem::take(&mut ctx.steps),
        counts,
    })
}

// ---------------------------------------------------------------------
// promote

/// Base of the sparse image.
const IMAGE_BASE: u32 = 0x4000_0000;

/// Pages of each 64KB group an app touches: the Figure 4 density
/// (about 6 of every 16).
const TOUCHED_PER_GROUP: u32 = 6;

/// Sweeps over the working set after promotion.
const SWEEPS: usize = 2;

/// Shape of the promote cycle.
struct PromoteShape {
    groups: u32,
    warm_steps: usize,
    steps: usize,
}

fn promote_shape(size: Size) -> PromoteShape {
    match size {
        Size::Full => PromoteShape {
            groups: 2,
            warm_steps: 2,
            steps: 100,
        },
        Size::Tiny => PromoteShape {
            groups: 2,
            warm_steps: 1,
            steps: 4,
        },
    }
}

/// The promotion policy both kernels run with.
const POLICY: PromotePolicy = PromotePolicy {
    enabled: true,
    min_populated: 1,
    sections: false,
};

/// `promote`: each step forks an app from a zygote holding a sparse
/// image, faults the working set, runs the promotion scanner, sweeps,
/// demotes with a partial munmap, and exits.
fn promote(
    ctx: &mut Ctx,
    config: KernelConfig,
    seed: u64,
    size: Size,
) -> Result<KernelRun, String> {
    let shape = promote_shape(size);
    let image_pages = shape.groups * 16;
    let mut rng = Mix(seed ^ 0x9E0D);
    // The working set: a seeded choice of pages in every group.
    let mut ws: Vec<VirtAddr> = Vec::new();
    for g in 0..shape.groups {
        let mut pages: Vec<u32> = (0..16).collect();
        for i in 0..TOUCHED_PER_GROUP as usize {
            let j = i + rng.below(16 - i as u32) as usize;
            pages.swap(i, j);
        }
        let mut chosen = pages[..TOUCHED_PER_GROUP as usize].to_vec();
        chosen.sort_unstable();
        ws.extend(
            chosen
                .into_iter()
                .map(|p| VirtAddr::new(IMAGE_BASE + (g * 16 + p) * PAGE_SIZE)),
        );
    }
    // The demoted page: one page of a seeded group.
    let cut = VirtAddr::new(IMAGE_BASE + (rng.below(shape.groups) * 16 + 5) * PAGE_SIZE);

    let t = ctx.meter.begin_phase();
    ctx.probe.open(Kind::Setup);
    let (mut m, zygote) = {
        let made = ctx
            .probe
            .call(Kind::Syscall, || -> SatResult<(Kernel, Pid)> {
                let mut kernel = Kernel::nexus7(config.with_promote(POLICY));
                let zygote = kernel.create_process()?;
                kernel.exec_zygote(zygote)?;
                let file = kernel
                    .files
                    .register("image".to_string(), image_pages * PAGE_SIZE);
                let req = MmapRequest::file(
                    image_pages * PAGE_SIZE,
                    Perms::RX,
                    file,
                    0,
                    RegionTag::ZygoteNativeCode,
                    "image",
                )
                .at(VirtAddr::new(IMAGE_BASE));
                kernel.mmap(zygote, &req, &mut NoTlb)?;
                Ok((kernel, zygote))
            });
        let (kernel, zygote) = ctx.must("zygote set-up", made)?;
        (Machine::single_core(kernel), zygote)
    };
    ctx.switch(&mut m, zygote);
    for &va in &ws {
        ctx.access(&mut m, va, AccessType::Execute);
    }
    let shares = config.share_ptp;
    // One step; returns the groups the scanner skipped as shared.
    let cycle = |ctx: &mut Ctx, m: &mut Machine| -> u64 {
        let forked = ctx.probe.call(Kind::Fork, || m.fork(0, zygote));
        let Some((outcome, _)) = ctx.note(forked) else {
            return 0;
        };
        let child = outcome.child;
        ctx.switch(m, child);
        for &va in &ws {
            ctx.access(m, va, AccessType::Execute);
        }
        let scanned = ctx.probe.call(Kind::PromoteScan, || {
            m.syscall_on(0, |k, tlb| k.promote_scan(child, tlb))
        });
        let skipped = ctx.note(scanned).map_or(0, |r| r.skipped_shared);
        for _ in 0..SWEEPS {
            for &va in &ws {
                ctx.access(m, va, AccessType::Execute);
            }
        }
        let unmapped = ctx.probe.call(Kind::Munmap, || {
            m.syscall_on(0, |k, tlb| {
                k.munmap(child, VaRange::from_len(cut, PAGE_SIZE), tlb)
            })
        });
        ctx.note(unmapped);
        ctx.exit(m, child);
        if m.kernel.process_count() != 1 {
            ctx.violations.push(format!(
                "{} processes live after exit, want 1",
                m.kernel.process_count()
            ));
        }
        skipped
    };
    for _ in 0..shape.warm_steps {
        cycle(ctx, &mut m);
    }
    ctx.probe.close();
    let setup = ctx.meter.end_phase(t);

    let frames = m.kernel.phys.frames_in_use();
    let base = Baseline::open(&mut m, ctx.exited_ptes_copied);
    ctx.probe.open(Kind::Measure);
    let mut skipped_shared = 0;
    for _ in 0..shape.steps {
        ctx.step(|ctx| skipped_shared += cycle(ctx, &mut m));
    }
    ctx.probe.close();
    let counts = base.close(&m, ctx.exited_ptes_copied, ctx.steps.len() as u64);
    audit(ctx, &m.kernel);
    let after = m.kernel.phys.frames_in_use();
    if after != frames {
        ctx.violations.push(format!(
            "frames in use {after} after the steps, {frames} before: a step leaked"
        ));
    }
    // The scanner must have done its kernel's work: promote (and the
    // partial munmap demote) where PTPs are private, skip the shared
    // PTPs where they are shared.
    if shares {
        if skipped_shared == 0 {
            ctx.violations
                .push("the promotion scanner never met a shared PTP".into());
        }
    } else {
        if counts.promotions == 0 {
            ctx.violations
                .push("the promotion scanner never promoted a group".into());
        }
        if counts.demotions == 0 {
            ctx.violations
                .push("the partial munmap never demoted a large page".into());
        }
    }
    ctx.probe.call(Kind::Teardown, move || drop(m));
    Ok(KernelRun {
        setup,
        steps: std::mem::take(&mut ctx.steps),
        counts,
    })
}
