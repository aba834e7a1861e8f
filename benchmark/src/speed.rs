//! In-run speed calibration.
//!
//! The box the benchmark runs on is a small shared VM whose processors
//! change speed from second to second with the neighbours' load: the
//! same fixed computation takes 25 % longer in one second than in the
//! next, and both wall-clock rates and CPU time per transaction move
//! with it. One probe thread per processor therefore times a small
//! fixed kernel every few milliseconds, all run long, on the thread's
//! own CPU clock (so being preempted by the replicas' threads does not
//! count). The driver reads the typical kernel time of each window
//! slice and of the set-up phase and scales the slice's numbers to what
//! they would have been at [`REFERENCE_KERNEL_NS`]: every time and rate
//! the benchmark reports is *at reference machine speed*.
//!
//! The kernel is the benchmark's own code (SHA-256 compression rounds
//! over a fixed buffer, the instruction mix the replicas spend most of
//! their time in) and calls nothing from the repo's crates: a change to
//! the repo cannot move the probe, only the numbers measured against it.

use crate::clock::now_ns;
use crate::proc::{allowed_cpus, pin_to_cpu, thread_cpu_ns};
use crate::stats::mean;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Kernel time every report is scaled to: what the kernel took on the
/// 2-core box the baseline was measured on, at its usual speed. Only a
/// unit: it moves every workload's numbers by the same factor.
pub const REFERENCE_KERNEL_NS: f64 = 70_000.0;
/// Compression rounds per kernel run (64-byte blocks).
const KERNEL_BLOCKS: usize = 256;
/// Pause between kernel runs: about 1 % of a processor.
const PERIOD: Duration = Duration::from_millis(8);
/// Most probe threads (a bigger machine is read on its first processors).
const MAX_PROBES: usize = 8;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// One SHA-256 compression of `block` into `state`.
fn compress(state: &mut [u32; 8], block: &[u32; 16]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        (h, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The fixed kernel: [`KERNEL_BLOCKS`] chained compressions.
fn kernel(state: &mut [u32; 8]) {
    let mut block = [0u32; 16];
    for i in 0..KERNEL_BLOCKS {
        block[i % 16] = state[i % 8] ^ i as u32;
        compress(state, &block);
    }
}

/// One kernel run: when it ended (benchmark clock) and the thread CPU
/// time it took, ns.
type Sample = (u64, f64);
/// A probe's samples, shared with its thread.
type Samples = Arc<Mutex<Vec<Sample>>>;

/// The probe threads: one bound to each processor the process may use
/// (the first [`MAX_PROBES`] of them), because the processors of a
/// shared VM slow down one at a time and a floating thread would read
/// only the one it happens to sit on.
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    probes: Vec<(Samples, std::thread::JoinHandle<()>)>,
}

fn probe_loop(cpu: Option<usize>, stop: &AtomicBool, samples: &Mutex<Vec<Sample>>) {
    if let Some(cpu) = cpu {
        pin_to_cpu(cpu); // unpinned if refused: still a reading
    }
    let mut state = [0x6a09e667u32; 8];
    while !stop.load(Ordering::Relaxed) {
        let before = thread_cpu_ns();
        kernel(&mut state);
        let took = thread_cpu_ns().saturating_sub(before);
        std::hint::black_box(&state);
        samples
            .lock()
            .expect("probe lock")
            .push((now_ns(), took as f64));
        std::thread::sleep(PERIOD);
    }
}

impl SpeedProbe {
    /// Starts probing.
    pub fn start() -> SpeedProbe {
        let stop = Arc::new(AtomicBool::new(false));
        let mut cpus: Vec<Option<usize>> = allowed_cpus().into_iter().map(Some).collect();
        cpus.truncate(MAX_PROBES);
        if cpus.is_empty() {
            cpus.push(None);
        }
        let probes = cpus
            .into_iter()
            .map(|cpu| {
                let samples = Samples::default();
                let (stop, theirs) = (stop.clone(), samples.clone());
                let thread = std::thread::spawn(move || probe_loop(cpu, &stop, &theirs));
                (samples, thread)
            })
            .collect();
        SpeedProbe { stop, probes }
    }

    /// Kernel time over `from_ns..to_ns`, ns: each probe's typical run
    /// (see [`typical`]) averaged over the probes — the processors share
    /// the replicas' work about evenly. `None` when no run ended inside.
    pub fn kernel_ns(&self, from_ns: u64, to_ns: u64) -> Option<f64> {
        let per_probe: Vec<f64> = self
            .probes
            .iter()
            .filter_map(|(samples, _)| {
                let samples = samples.lock().expect("probe lock");
                let inside: Vec<f64> = samples
                    .iter()
                    .filter(|(at, _)| (from_ns..to_ns).contains(at))
                    .map(|(_, ns)| *ns)
                    .collect();
                typical(inside)
            })
            .collect();
        (!per_probe.is_empty()).then(|| mean(&per_probe))
    }
}

/// Mean of the fastest nine tenths of `runs`: a slow processor slows
/// every run and moves this; the odd run stretched by an interrupt or
/// a cold cache does not.
fn typical(mut runs: Vec<f64>) -> Option<f64> {
    if runs.is_empty() {
        return None;
    }
    runs.sort_by(f64::total_cmp);
    runs.truncate((runs.len() * 9).div_ceil(10));
    Some(mean(&runs))
}

impl Drop for SpeedProbe {
    /// Stops the threads and waits for them.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for (_, thread) in self.probes.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel is real SHA-256: one padded empty-message block gives
    /// the published digest of the empty string.
    #[test]
    fn compress_is_sha256() {
        let mut state = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        let mut block = [0u32; 16];
        block[0] = 0x8000_0000;
        compress(&mut state, &block);
        assert_eq!(state[0], 0xe3b0c442);
        assert_eq!(state[7], 0x7852b855);
    }

    #[test]
    fn probe_samples_and_stops() {
        let probe = SpeedProbe::start();
        let from = now_ns();
        std::thread::sleep(Duration::from_millis(80));
        let ns = probe.kernel_ns(from, now_ns()).expect("samples");
        assert!(ns > 1_000.0, "a kernel run takes microseconds, got {ns} ns");
        assert!(probe.kernel_ns(0, 0).is_none());
    }

    #[test]
    fn typical_run_ignores_the_slow_tail() {
        assert_eq!(typical(Vec::new()), None);
        let mut runs = vec![100.0; 9];
        runs.push(5_000.0); // one run stretched by an interrupt
        assert_eq!(typical(runs), Some(100.0));
        // A slow processor moves every run, and the reading with it.
        assert_eq!(typical(vec![150.0; 10]), Some(150.0));
    }
}
