//! Reference-speed host timing.
//!
//! The host this benchmark runs on changes speed from one second to
//! the next (a shared virtual machine), so a raw host time cannot
//! repeat within a tenth. Between blocks of steps the [`Meter`] runs a
//! fixed, allocation-free reference loop and divides every host time by
//! the loop's measured time over its nominal time (`REF_NOMINAL_NS`). A
//! normalised time is in *reference seconds*: what the interval would
//! have taken on a host that runs the loop at exactly nominal speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Words of the sort input (256 KiB).
const WORDS: usize = 1 << 16;

/// Words of the small sort (32 KiB).
const SMALL_SORT: usize = 1 << 13;

/// Entries in the reference B-tree, and lookups per pass.
const TREE_ENTRIES: u64 = 1 << 15;
const TREE_LOOKUPS: u32 = 1 << 11;

/// Fetches per burst of the cache model, and bursts per pass.
const FETCHES: u32 = 300;
const BURSTS: u32 = 8;

/// Nominal time of each timed kernel of a pass, in nanoseconds: the
/// cache model, the B-tree lookups, the small sort and the large sort.
/// Each is about its time on the host the bounds were set on (a 2-vCPU
/// Intel Xeon virtual machine) in a quiet period, so a reference second
/// is about one raw second there.
pub const REF_NOMINAL_NS: [f64; 4] = [37_000.0, 220_000.0, 120_000.0, 1_100_000.0];

/// Passes per reference sample; each kernel's time is the median over
/// them.
const REF_PASSES: usize = 3;

/// Host time accumulated between two reference samples while steps
/// run.
const BLOCK_NS: u64 = 100_000_000;

/// A two-level set-associative LRU cache model (256 × 4 ways over 4,096
/// × 8 ways) of the kind the simulator's fault path spends its time in.
struct CacheModel {
    l1: Vec<[(u32, u32); 4]>,
    l2: Vec<[(u32, u32); 8]>,
    tick: u32,
}

impl CacheModel {
    /// Looks `tag` up in `set`, filling the least recently used way on a
    /// miss. Returns whether it hit.
    fn touch<const W: usize>(set: &mut [(u32, u32); W], tag: u32, tick: u32) -> bool {
        if let Some(way) = set.iter_mut().find(|w| w.0 == tag) {
            way.1 = tick;
            return true;
        }
        let victim = (0..W).min_by_key(|&j| set[j].1).unwrap_or(0);
        set[victim] = (tag, tick);
        false
    }

    /// A burst of `FETCHES` line fetches: three in four walk a 2,048-line
    /// window from `start` (kernel text), one in four is random over
    /// 128K lines. Returns the modelled stall cycles.
    fn burst(&mut self, start: u32) -> u64 {
        let mut stall = 0u64;
        let mut x = 0x1234_5678u32 ^ start;
        for i in 0..FETCHES {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let line = if i % 4 == 3 {
                x & 0x1_FFFF
            } else {
                0x4_0000 + (start + i) % 2048
            };
            self.tick = self.tick.wrapping_add(1);
            if Self::touch(&mut self.l1[(line & 255) as usize], line >> 8, self.tick) {
                continue;
            }
            stall += if Self::touch(&mut self.l2[(line & 4095) as usize], line >> 12, self.tick) {
                10
            } else {
                100
            };
        }
        stall
    }
}

/// The reference loop. A pass runs four fixed kernels, each timed:
/// - the cache model: 8 bursts of 300 fetches;
/// - 2,048 lookups in a 32K-entry `BTreeMap`;
/// - an in-place sort of 8,192 random words (L1-sized);
/// - an in-place sort of 65,536 random words (L2-sized).
///
/// Each sort first refills its words from a fixed permutation. A sample
/// is the mean over the four kernels of measured time ÷ nominal time,
/// so each weighs the same.
///
/// The mix was chosen on a 2-vCPU VM by timing candidate kernels between
/// the steps of the workloads, over periods in which other tenants
/// slowed the simulator by up to 2×. The candidates were dependent
/// chases over 256 KiB and 32 MiB, independent xorshift chains, L1
/// loads, unpredictable branches, `HashMap` and `BTreeMap` lookups,
/// 256 KiB and 2 MiB copies, sorts of 8K, 64K and 256K words, and the
/// cache model. No single kernel tracked every workload: the sorts
/// followed `promote` (whose steps sort the free list) and the cache
/// model followed `churn` (whose steps are page faults). The equal mix
/// kept the spread of repetition times within a run at 0.03–0.07 on
/// every workload, against 0.13–0.33 raw. Kernels whose data stays in
/// L1 slowed only 1.1–1.2× in a burst and corrected little. The tables
/// are built once; a pass allocates nothing.
pub struct RefLoop {
    cache: CacheModel,
    tree: BTreeMap<u64, u64>,
    src: Vec<u32>,
    dst: Vec<u32>,
}

impl RefLoop {
    /// Builds the tables. The sort input is a fixed random permutation
    /// (Sattolo's algorithm over a fixed xorshift stream), so every
    /// process sorts the same data.
    pub fn new() -> RefLoop {
        let mut src: Vec<u32> = (0..WORDS as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..WORDS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            src.swap(i, (x % i as u64) as usize);
        }
        RefLoop {
            cache: CacheModel {
                l1: vec![[(u32::MAX, 0); 4]; 256],
                l2: vec![[(u32::MAX, 0); 8]; 4096],
                tick: 0,
            },
            tree: (0..TREE_ENTRIES).map(|i| (i * 2, i)).collect(),
            src,
            dst: vec![0; WORDS],
        }
    }

    /// Runs one pass; returns the host time of each kernel in
    /// nanoseconds.
    fn pass(&mut self) -> [u64; 4] {
        let t = Instant::now();
        let stall: u64 = (0..BURSTS).map(|b| self.cache.burst(b * 1043)).sum();
        black_box(stall);
        let cache = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let mut k = 1u64;
        let mut sum = 0u64;
        for _ in 0..TREE_LOOKUPS {
            k = k
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if let Some(v) = self.tree.get(&(k >> 48)) {
                sum = sum.wrapping_add(*v);
            }
        }
        black_box(sum);
        let tree = t.elapsed().as_nanos() as u64;
        let mut sorts = [0; 2];
        for (t, words) in sorts.iter_mut().zip([SMALL_SORT, WORDS]) {
            self.dst.copy_from_slice(&self.src);
            let start = Instant::now();
            self.dst[..words].sort_unstable();
            black_box(&self.dst);
            *t = start.elapsed().as_nanos() as u64;
        }
        [cache, tree, sorts[0], sorts[1]]
    }

    /// One reference sample: for each kernel the median of
    /// [`REF_PASSES`] passes over its nominal time, averaged over the
    /// kernels. 1.0 means nominal speed; 1.5 means the host runs the
    /// loop 1.5× slower than nominal.
    pub fn sample(&mut self) -> f64 {
        let passes: [[u64; 4]; REF_PASSES] = std::array::from_fn(|_| self.pass());
        let mut ratio = 0.0;
        for (k, nominal) in REF_NOMINAL_NS.iter().enumerate() {
            let mut t: [u64; REF_PASSES] = std::array::from_fn(|p| passes[p][k]);
            t.sort_unstable();
            ratio += t[REF_PASSES / 2] as f64 / nominal;
        }
        ratio / REF_NOMINAL_NS.len() as f64
    }
}

impl Default for RefLoop {
    fn default() -> Self {
        RefLoop::new()
    }
}

/// One timed interval: the reference block it ran in and its raw host
/// time.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    block: usize,
    raw_ns: u64,
}

impl Sample {
    /// Raw host time in seconds.
    pub fn raw_s(self) -> f64 {
        self.raw_ns as f64 * 1e-9
    }
}

/// An interval being timed.
pub struct Timer {
    block: usize,
    start: Instant,
}

/// Times intervals and takes a reference sample before and after each
/// block of them, so each interval can be scaled by the host speed of
/// its own block.
pub struct Meter {
    reference: RefLoop,
    readings: Vec<f64>,
    pending_ns: u64,
    sampling_ns: u64,
}

impl Meter {
    /// A meter with one reference reading taken.
    pub fn new() -> Meter {
        let mut reference = RefLoop::new();
        // Warm the tables into the caches before the first reading.
        reference.sample();
        let mut m = Meter {
            reference,
            readings: Vec::with_capacity(4096),
            pending_ns: 0,
            sampling_ns: 0,
        };
        m.mark();
        m
    }

    /// Closes the current block with a reference reading.
    pub fn mark(&mut self) {
        let t = Instant::now();
        self.readings.push(self.reference.sample());
        self.pending_ns = 0;
        self.sampling_ns += t.elapsed().as_nanos() as u64;
    }

    /// Raw host nanoseconds spent taking reference readings so far.
    pub fn sampling_ns(&self) -> u64 {
        self.sampling_ns
    }

    /// Starts timing an interval in the current block.
    pub fn begin(&self) -> Timer {
        Timer {
            block: self.readings.len() - 1,
            start: Instant::now(),
        }
    }

    /// Ends a step. A reference reading follows once the steps since
    /// the last one add up to a block.
    pub fn end_step(&mut self, t: Timer) -> Sample {
        let raw_ns = t.start.elapsed().as_nanos() as u64;
        self.pending_ns += raw_ns;
        if self.pending_ns >= BLOCK_NS {
            self.mark();
        }
        Sample {
            block: t.block,
            raw_ns,
        }
    }

    /// Starts a phase timed in a block of its own.
    pub fn begin_phase(&mut self) -> Timer {
        self.mark();
        self.begin()
    }

    /// Ends a phase started with [`Meter::begin_phase`].
    pub fn end_phase(&mut self, t: Timer) -> Sample {
        let raw_ns = t.start.elapsed().as_nanos() as u64;
        self.mark();
        Sample {
            block: t.block,
            raw_ns,
        }
    }

    /// The host-speed factor of `block`: nominal over the mean of the
    /// readings that bracket it (the opening one alone while the block
    /// is still open).
    pub fn factor(&self, block: usize) -> f64 {
        let open = self.readings[block];
        let close = self.readings.get(block + 1).copied().unwrap_or(open);
        2.0 / (open + close)
    }

    /// A sample in reference seconds.
    pub fn norm_s(&self, s: Sample) -> f64 {
        s.raw_s() * self.factor(s.block)
    }

    /// Number of reference readings taken so far.
    pub fn readings_len(&self) -> usize {
        self.readings.len()
    }

    /// The host-speed factor over readings `from..to`: nominal over
    /// their mean.
    pub fn mean_factor(&self, from: usize, to: usize) -> f64 {
        let r = &self.readings[from..to.max(from + 1)];
        r.len() as f64 / r.iter().sum::<f64>()
    }

    /// Median of every reference reading so far (1.0 = nominal speed).
    pub fn median_reading(&self) -> f64 {
        let mut r = self.readings.clone();
        r.sort_by(f64::total_cmp);
        r[r.len() / 2]
    }
}

impl Default for Meter {
    fn default() -> Self {
        Meter::new()
    }
}
