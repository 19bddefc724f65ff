//! Outside-in tracing: spans around every call the benchmark makes into
//! a layer of the simulator.
//!
//! An untraced [`Probe`] only forwards calls. A traced one times each
//! call with `Instant`, classifies every `Machine::access` by the
//! counter deltas around it, keeps the spans in memory (name, start,
//! end, parent, step id) and accumulates per-kernel self times. The two
//! highest-frequency leaves, TLB-hit accesses and fetch-stream events,
//! are folded into counts on their parent span instead of being kept
//! one by one; their self time is still accounted exactly.

use std::io::Write;
use std::time::Instant;

use sat_sim::Machine;
use sat_types::{AccessType, SatResult, VirtAddr};

/// What a span times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `Machine::access` served by the TLBs.
    AccessHit,
    /// `Machine::access` that missed the main TLB and walked.
    AccessWalk,
    /// `Machine::access` that took a page fault.
    AccessFault,
    /// `Machine::access` whose fault ran a reclaim pass.
    AccessReclaim,
    /// `Machine::context_switch`.
    ContextSwitch,
    /// `Machine::fork`.
    Fork,
    /// `Machine::run_kernel_lines` (kernel text a workload runs directly).
    KernelText,
    /// `Kernel::exit`.
    Exit,
    /// `Kernel::munmap`.
    Munmap,
    /// `Kernel::promote_scan`.
    PromoteScan,
    /// Other kernel calls: `mmap`, process creation, frame budget.
    Syscall,
    /// `Kernel::verify_share_accounting` and `PhysMem::rmap_verify`.
    Audit,
    /// Dropping the simulated system at the end of a run.
    Teardown,
    /// `AndroidSystem::boot`.
    Boot,
    /// `launch_app`.
    Launch,
    /// `AndroidSystem::attach_app`.
    Attach,
    /// `AppProfile::generate`.
    Profile,
    /// `FetchStream::next_event` plus `AndroidSystem::resolve`.
    FetchStream,
    /// One repetition of a workload under one kernel (root span).
    Rep,
    /// The set-up phase.
    Setup,
    /// The measured phase.
    Measure,
    /// One measured step.
    Step,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 22;

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; KINDS] = [
        Kind::AccessHit,
        Kind::AccessWalk,
        Kind::AccessFault,
        Kind::AccessReclaim,
        Kind::ContextSwitch,
        Kind::Fork,
        Kind::KernelText,
        Kind::Exit,
        Kind::Munmap,
        Kind::PromoteScan,
        Kind::Syscall,
        Kind::Audit,
        Kind::Teardown,
        Kind::Boot,
        Kind::Launch,
        Kind::Attach,
        Kind::Profile,
        Kind::FetchStream,
        Kind::Rep,
        Kind::Setup,
        Kind::Measure,
        Kind::Step,
    ];

    /// The span name: `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AccessHit => "sim.access.hit",
            Kind::AccessWalk => "sim.access.walk",
            Kind::AccessFault => "sim.access.fault",
            Kind::AccessReclaim => "sim.access.reclaim",
            Kind::ContextSwitch => "sim.context_switch",
            Kind::Fork => "sim.fork",
            Kind::KernelText => "sim.kernel_text",
            Kind::Exit => "core.exit",
            Kind::Munmap => "core.munmap",
            Kind::PromoteScan => "core.promote_scan",
            Kind::Syscall => "core.syscall",
            Kind::Audit => "core.audit",
            Kind::Teardown => "sim.teardown",
            Kind::Boot => "android.boot",
            Kind::Launch => "android.launch",
            Kind::Attach => "android.attach",
            Kind::Profile => "trace.profile",
            Kind::FetchStream => "trace.fetch_stream",
            Kind::Rep => "bench.rep",
            Kind::Setup => "bench.setup",
            Kind::Measure => "bench.measure",
            Kind::Step => "bench.step",
        }
    }

    /// Whether the span is the benchmark's own structure rather than a
    /// call into a layer.
    pub fn is_bench(self) -> bool {
        matches!(self, Kind::Rep | Kind::Setup | Kind::Measure | Kind::Step)
    }

    /// Leaves folded into their parent instead of kept one by one.
    fn fold_slot(self) -> Option<usize> {
        match self {
            Kind::AccessHit => Some(0),
            Kind::FetchStream => Some(1),
            _ => None,
        }
    }
}

/// Calls and self time of one kind.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Their summed self time, raw host nanoseconds.
    pub self_ns: u64,
}

/// Per-kind aggregates of one kernel.
pub type Aggs = [Agg; KINDS];

/// A kept span.
#[derive(Clone, Copy, Debug)]
struct Span {
    kind: Kind,
    kernel: u8,
    step: u32,
    parent: u32,
    start_ns: u64,
    dur_ns: u64,
    /// Folded leaves (hits, fetch events): calls and summed ns.
    folded: [(u64, u64); 2],
}

/// An open structural span.
struct Open {
    kind: Kind,
    span: u32,
    start_ns: u64,
    child_ns: u64,
    folded: [(u64, u64); 2],
}

const NO_PARENT: u32 = u32::MAX;

/// Counter readings that classify an access.
#[derive(Clone, Copy)]
struct Marks {
    tlb_misses: u64,
    faults: u64,
    reclaims: u64,
}

impl Marks {
    fn read(m: &Machine, core: usize) -> Marks {
        Marks {
            tlb_misses: m.cores[core].main_tlb.stats().misses,
            faults: m.cores[core].stats.page_faults,
            reclaims: m.kernel.stats.reclaims,
        }
    }

    /// The access class: a reclaim pass outranks a fault, which
    /// outranks a walk.
    fn classify(self, after: Marks) -> Kind {
        if after.reclaims != self.reclaims {
            Kind::AccessReclaim
        } else if after.faults != self.faults {
            Kind::AccessFault
        } else if after.tlb_misses != self.tlb_misses {
            Kind::AccessWalk
        } else {
            Kind::AccessHit
        }
    }
}

/// The span recorder (a pass-through when untraced).
pub struct Probe {
    traced: bool,
    keep: bool,
    origin: Instant,
    kernel: usize,
    step: u32,
    spans: Vec<Span>,
    stack: Vec<Open>,
    agg: [Aggs; 2],
}

impl Probe {
    /// A probe; `traced` turns recording on, `keep` additionally keeps
    /// the individual spans for the trace file.
    pub fn new(traced: bool, keep: bool) -> Probe {
        Probe {
            traced,
            keep: traced && keep,
            origin: Instant::now(),
            kernel: 0,
            step: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            agg: [[Agg::default(); KINDS]; 2],
        }
    }

    /// Whether the probe records.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Attributes the following spans to kernel `k` (0 stock, 1 shared).
    pub fn set_kernel(&mut self, k: usize) {
        self.kernel = k;
    }

    /// Tags the following spans with step `id`.
    pub fn set_step(&mut self, id: u32) {
        self.step = id;
    }

    /// Per-kind aggregates of kernel `k`.
    pub fn aggs(&self, k: usize) -> &Aggs {
        &self.agg[k]
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a structural span.
    pub fn open(&mut self, kind: Kind) {
        if !self.traced {
            return;
        }
        let start_ns = self.now();
        let span = if self.keep {
            self.spans.push(Span {
                kind,
                kernel: self.kernel as u8,
                step: self.step,
                parent: self.stack.last().map_or(NO_PARENT, |o| o.span),
                start_ns,
                dur_ns: 0,
                folded: [(0, 0); 2],
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            kind,
            span,
            start_ns,
            child_ns: 0,
            folded: [(0, 0); 2],
        });
    }

    /// Closes the innermost structural span; its self time is its
    /// duration minus its children's.
    pub fn close(&mut self) {
        if !self.traced {
            return;
        }
        let end = self.now();
        let open = self.stack.pop().expect("close matches an open span");
        let dur = end - open.start_ns;
        let a = &mut self.agg[self.kernel][open.kind as usize];
        a.calls += 1;
        a.self_ns += dur - open.child_ns.min(dur);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.span != NO_PARENT {
            let s = &mut self.spans[open.span as usize];
            s.dur_ns = dur;
            s.folded = open.folded;
        }
    }

    fn leaf(&mut self, kind: Kind, start_ns: u64, end_ns: u64) {
        let dur = end_ns - start_ns;
        let a = &mut self.agg[self.kernel][kind as usize];
        a.calls += 1;
        a.self_ns += dur;
        let parent = self
            .stack
            .last_mut()
            .expect("layer calls run inside a structural span");
        parent.child_ns += dur;
        match kind.fold_slot() {
            Some(slot) => {
                parent.folded[slot].0 += 1;
                parent.folded[slot].1 += dur;
            }
            None if self.keep => {
                let parent = parent.span;
                self.spans.push(Span {
                    kind,
                    kernel: self.kernel as u8,
                    step: self.step,
                    parent,
                    start_ns,
                    dur_ns: dur,
                    folded: [(0, 0); 2],
                });
            }
            None => {}
        }
    }

    /// Times one call into a layer.
    pub fn call<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let start = self.now();
        let r = f();
        let end = self.now();
        self.leaf(kind, start, end);
        r
    }

    /// Times one `Machine::access` on core 0 and classifies it.
    pub fn access(&mut self, m: &mut Machine, va: VirtAddr, access: AccessType) -> SatResult<u64> {
        if !self.traced {
            return m.access(0, va, access);
        }
        let before = Marks::read(m, 0);
        let start = self.now();
        let r = m.access(0, va, access);
        let end = self.now();
        let kind = before.classify(Marks::read(m, 0));
        self.leaf(kind, start, end);
        r
    }

    /// The measured duration of an empty timed call, in raw host
    /// nanoseconds: the timer cost every leaf span carries and the
    /// per-layer numbers subtract. The fastest of several batches, so
    /// an interrupt in one batch does not inflate it.
    pub fn empty_call_ns() -> f64 {
        const CALLS: u64 = 20_000;
        let mut best = f64::MAX;
        for _ in 0..5 {
            let mut p = Probe::new(true, false);
            p.open(Kind::Rep);
            for _ in 0..CALLS {
                p.call(Kind::Syscall, || std::hint::black_box(()));
            }
            p.close();
            let a = p.agg[0][Kind::Syscall as usize];
            best = best.min(a.self_ns as f64 / a.calls as f64);
        }
        best
    }

    /// Number of kept spans.
    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    /// Writes the kept spans as Chrome trace-event JSON (one process
    /// per kernel; `args` carry the step id, the parent span and the
    /// folded leaves).
    pub fn write_chrome(&self, out: &mut impl Write, kernels: [&str; 2]) -> std::io::Result<()> {
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, name) in kernels.iter().enumerate() {
            write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{i},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
            )?;
            let sep = if i + 1 == kernels.len() && self.spans.is_empty() {
                ""
            } else {
                ","
            };
            writeln!(out, "{sep}")?;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"step\":{}",
                s.kind.name(),
                s.kernel,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.step,
            )?;
            for (slot, kind) in [Kind::AccessHit, Kind::FetchStream].iter().enumerate() {
                let (calls, ns) = s.folded[slot];
                if calls > 0 {
                    write!(out, ",\"{0}.calls\":{calls},\"{0}.ns\":{ns}", kind.name())?;
                }
            }
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(out, "}}}}{sep}")?;
        }
        writeln!(out, "],\"displayTimeUnit\":\"ns\"}}")
    }
}
