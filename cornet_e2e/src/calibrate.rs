//! The machine-speed reference: a fixed piece of harness-only work whose
//! duration tells how fast the sandbox is running at that moment.
//!
//! The sandbox is a small VM on a shared host; its speed halves for seconds
//! at a time and drifts by tens of per cent over minutes. One sample of the
//! reference is taken right after every set-up and every op, outside the
//! timed region, and latencies are divided by samples: what a run reports is
//! how many reference samples an op lasts, times the nominal duration of a
//! sample, so that disturbances which slow both alike cancel (`run.rs`
//! `op_latencies` says which latency is divided by which sample; README.md,
//! *How a run measures*, has the measurements behind it). The reference
//! calls nothing of the program under test, so no change to the program can
//! move it.
//!
//! The host slows two kinds of work by different amounts at different
//! times, so there are two references, and a workload is measured against
//! the one it [`Resembles`]:
//!
//! * **allocation**: formatting numbers into many small strings, joining
//!   them into a large one and parsing it back — the allocator, page faults
//!   and byte loops, on the calling thread, as building and searching a
//!   model is.
//! * **hand-offs**: request/reply round trips over loopback TCP with an echo
//!   thread — system calls, copies and a thread wake-up per message, as work
//!   that is passed between threads is. A round trip costs 55 µs when the
//!   echo thread's vCPU has gone idle and must be woken through the host,
//!   and 7 µs when it has not: the reference needs the machine to itself
//!   and a workload that leaves the CPUs idle the way it does (beside the
//!   single-threaded `fleet_plan` a run's round trips came out anywhere
//!   from a sixth to eight times their usual length).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// What a workload's time goes to, i.e. which reference its latencies were
/// seen to move with (README.md, *How a run measures*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resembles {
    /// One thread building and searching data structures.
    Allocation,
    /// Work handed between threads.
    HandOffs,
}

/// What one sample takes on the quiet sandbox (2 vCPUs of a 2.1 GHz Xeon),
/// either kind: normalised times are in seconds of a machine on which a
/// sample takes this long.
pub const NOMINAL_S: f64 = 0.0025;

const STRINGS: usize = 12_000;
const ROUND_TRIPS: usize = 50;
const MESSAGE_BYTES: usize = 1024;

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The allocation reference's work.
fn allocation_work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let parts: Vec<String> = (0..STRINGS)
        .map(|_| format!("{{\"k\":{}}}", next(&mut x) >> 30))
        .collect();
    parts
        .join(",")
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|digits| digits.parse::<u64>().ok())
        .fold(0, u64::wrapping_add)
}

/// The reference of one run: the connection to its echo thread, and the
/// samples taken so far.
pub struct Reference {
    resembles: Resembles,
    state: Mutex<(TcpStream, Vec<f64>)>,
    echo: Option<JoinHandle<()>>,
}

impl Reference {
    pub fn start(resembles: Resembles) -> Result<Reference, String> {
        let err = |e: std::io::Error| format!("machine-speed reference: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let addr = listener.local_addr().map_err(err)?;
        let echo = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut message = [0u8; MESSAGE_BYTES];
            // Ends when the `Reference` closes its end.
            while peer.read_exact(&mut message).is_ok() && peer.write_all(&message).is_ok() {}
        });
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        Ok(Reference {
            resembles,
            state: Mutex::new((stream, Vec::new())),
            echo: Some(echo),
        })
    }

    /// Take one sample and return its duration in seconds.
    pub fn sample(&self) -> f64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (stream, samples) = &mut *state;
        let started = Instant::now();
        match self.resembles {
            Resembles::Allocation => {
                std::hint::black_box(allocation_work());
            }
            Resembles::HandOffs => {
                let (request, mut reply) = ([0x5au8; MESSAGE_BYTES], [0u8; MESSAGE_BYTES]);
                for _ in 0..ROUND_TRIPS {
                    // The echo thread lives as long as `self`: a failure
                    // here is a broken loopback, and the run is void.
                    stream
                        .write_all(&request)
                        .and_then(|()| stream.read_exact(&mut reply))
                        .expect("machine-speed reference: echo thread");
                }
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        samples.push(seconds);
        seconds
    }

    /// Median sample so far over nominal: how many times slower than nominal
    /// the machine ran (1 without samples). Reported, not used.
    pub fn dilation(&self) -> f64 {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.1.is_empty() {
            return 1.0;
        }
        crate::measure::median(&state.1) / NOMINAL_S
    }

    /// `(minimum, lower quartile, median, upper quartile, maximum)` of the
    /// samples so far, in ms, for the report.
    pub fn spread_ms(&self) -> Option<[f64; 5]> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut ms: Vec<f64> = state.1.iter().map(|s| s * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let at = |q| crate::measure::percentile(&ms, q);
        (!ms.is_empty()).then(|| [ms[0], at(0.25), at(0.5), at(0.75), ms[ms.len() - 1]])
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = state.0.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_references_sample_and_stop() {
        for resembles in [Resembles::Allocation, Resembles::HandOffs] {
            let reference = Reference::start(resembles).expect("loopback reference");
            assert_eq!(reference.dilation(), 1.0, "no samples yet");
            assert!(reference.sample() > 0.0);
            assert!(reference.sample() > 0.0);
            assert!(reference.dilation() > 0.0);
            drop(reference); // joins the echo thread
        }
    }

    #[test]
    fn allocation_work_is_fixed() {
        assert_eq!(allocation_work(), allocation_work());
    }
}
