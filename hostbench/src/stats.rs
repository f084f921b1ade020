//! Small numeric helpers: medians, quartiles, seed derivation and the
//! machine-speed probe.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spread this benchmark reports matches the one its acceptance
/// check computes. Needs at least two values; a single value is its own
/// quartiles and an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    match s.len() {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let m = s.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        // Python clamps j to [1, n-1] so the interpolation stays inside
        // the data.
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The simulator seed of point `point` of `workload` under benchmark
/// seed `seed`. Distinct workloads and points get uncorrelated seeds, and
/// the same arguments always give the same seed, so a run's inputs are a
/// pure function of `--seed`.
pub fn derive_seed(seed: u64, workload: &str, point: u32) -> u64 {
    splitmix64(splitmix64(seed ^ fnv1a(workload.as_bytes())) ^ u64::from(point))
}

/// Machine-speed probe: a fixed pointer chase over an 8 MiB table (cache
/// and TLB misses) mixed with integer hashing, the two kinds of work the
/// simulator's dispatch loop does. Returns the median wall milliseconds
/// of five repetitions. It reads the machine, not the simulator, so a
/// regression that moves together with it is drift; it never scales a
/// reported metric.
pub fn ref_loop_ms() -> f64 {
    const SLOTS: usize = 1 << 21; // 2 Mi u32 = 8 MiB
    const STEPS: usize = 1 << 17;
    // A single cycle over all slots (Sattolo's shuffle with a fixed LCG),
    // so the chase visits the whole table.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..SLOTS).rev() {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (lcg >> 33) as usize % i;
        next.swap(i, j);
    }
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut at = 0u32;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            at = next[at as usize];
            acc = splitmix64(acc ^ u64::from(at));
        }
        std::hint::black_box(acc);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// `VmHWM` (peak resident set) and `VmRSS` (current) of this process, in
/// MiB, from `/proc/self/status`. Zeros where the file is unavailable.
pub fn rss_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// Hand the memory freed by the last round back to the kernel, so every
/// round's construction faults its pages in afresh, as the first one in
/// a process does. Without this the allocator keeps a growing pool of
/// freed pages and later rounds build faster and faster, which makes
/// `setup_s` depend on how many rounds a run happened to fit.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes no pointers, only releases
        // free heap pages, and may be called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
        assert_eq!(quartiles(&[100.0, 3.0, 1.0, 4.0, 2.0]), [1.5, 3.0, 52.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        // The middle quartile is the median.
        let ys = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0];
        assert_eq!(quartiles(&ys)[1], median(&ys));
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(
            derive_seed(7, "paper_points", 3),
            derive_seed(7, "paper_points", 3)
        );
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16 {
            for w in [
                "paper_points",
                "coarse_gen4",
                "fleet_tree",
                "observed_chaos",
            ] {
                for p in 0..8 {
                    assert!(
                        seen.insert(derive_seed(seed, w, p)),
                        "collision {seed} {w} {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbouring_seeds_differ_in_many_bits() {
        // Consecutive benchmark seeds must not give near-identical
        // simulator seeds.
        for seed in 0..64u64 {
            let a = derive_seed(seed, "fleet_tree", 0);
            let b = derive_seed(seed + 1, "fleet_tree", 0);
            assert!((a ^ b).count_ones() >= 16, "seed {seed}");
        }
    }
}
