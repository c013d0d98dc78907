//! Timed child-process passes: spawn, read stdout, reap, one at a time.
//!
//! Passes are spawned from this small helper rather than from `run.py`:
//! a child's `ru_maxrss` keeps the high-water RSS of the process it was
//! spawned from (Linux carries it across `execve`), so a large spawner
//! would hide the child's own peak.

use std::io::{Read, Write};
use std::os::raw::{c_int, c_long};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` on Linux.
#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// One finished pass.
pub struct Pass {
    /// Spawn to reap, in seconds.
    pub wall_s: f64,
    /// Exit code, or `128 + signal` when a signal ended the child.
    pub status: i32,
    /// The child's peak resident set, in KiB.
    pub maxrss_kib: c_long,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
}

/// Run `argv` once from a cleared environment holding only `env`.
pub fn run(argv: &[String], env: &[(String, String)]) -> std::io::Result<Pass> {
    let (program, args) = argv
        .split_first()
        .ok_or_else(|| std::io::Error::other("empty command"))?;
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .env_clear()
        .envs(env.iter().map(|(k, v)| (k, v)))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = Vec::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_end(&mut stdout)?;
    }
    let pid = c_int::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut raw_status: c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (std never waited on it);
    // both pointers are to live, writable locals of the C layouts wait4
    // expects on Linux.
    let reaped = unsafe { wait4(pid, &mut raw_status, 0, &mut usage) };
    let wall_s = t0.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    // WIFEXITED / WEXITSTATUS / WTERMSIG as glibc defines them.
    let status = if raw_status & 0x7f == 0 {
        (raw_status >> 8) & 0xff
    } else {
        128 + (raw_status & 0x7f)
    };
    Ok(Pass {
        wall_s,
        status,
        maxrss_kib: usage.ru_maxrss,
        stdout,
    })
}

/// Input of the reference job: fixed, compressible bytes (a seeded
/// xorshift stream over a 64-symbol alphabet with repeated runs).
pub fn reference_input() -> Vec<u8> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut out = Vec::with_capacity(REFERENCE_BYTES);
    while out.len() < REFERENCE_BYTES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 && out.len() > 1024 {
            // Repeat an earlier run: gives the match finder work.
            let back = 1 + (x >> 8) as usize % 1024;
            let len = 4 + (x >> 20) as usize % 60;
            let from = out.len() - back;
            for i in 0..len {
                out.push(out[from + i]);
            }
        } else {
            out.push(b'0' + (x >> 32) as u8 % 64);
        }
    }
    out
}

/// Size of the reference job's input: larger than the per-core caches,
/// so the job feels the same cache and memory contention a pass does.
const REFERENCE_BYTES: usize = 4 << 20;

/// The reference job: LZ77-style match finding (a 64 Ki-entry hash table
/// of 4-byte prefixes) over `input`. It shares no code with the program
/// under test, so its wall time measures only how fast the host runs
/// right now. Returns (wall seconds, checksum).
pub fn reference_job(input: &[u8]) -> (f64, u64) {
    let t0 = Instant::now();
    let mut table = vec![0u32; 1 << 16];
    let mut sum = 0u64;
    let mut i = 0usize;
    while i + 4 <= input.len() {
        let key = u32::from_le_bytes([input[i], input[i + 1], input[i + 2], input[i + 3]]);
        let slot = (key.wrapping_mul(0x9E37_79B1) >> 16) as usize;
        let cand = table[slot] as usize;
        table[slot] = i as u32;
        let mut len = 0usize;
        if cand > 0 {
            while i + len < input.len() && len < 258 && input[cand + len] == input[i + len] {
                len += 1;
            }
        }
        if len >= 4 {
            sum = sum
                .wrapping_mul(31)
                .wrapping_add((i - cand) as u64 ^ len as u64);
            i += len;
        } else {
            sum = sum.wrapping_mul(31).wrapping_add(u64::from(input[i]));
            i += 1;
        }
    }
    (t0.elapsed().as_secs_f64(), std::hint::black_box(sum))
}

/// Write one pass as a JSON line: `wall_s`, `status`, `maxrss_kib`,
/// `reference_s` (the reference job run right after it), `warmup` and
/// the child's stdout as a string.
pub fn write_line(
    out: &mut impl Write,
    pass: &Pass,
    reference_s: f64,
    warmup: bool,
) -> std::io::Result<()> {
    let text = String::from_utf8_lossy(&pass.stdout);
    writeln!(
        out,
        "{{\"wall_s\":{},\"status\":{},\"maxrss_kib\":{},\"reference_s\":{},\"warmup\":{},\"stdout\":\"{}\"}}",
        pass.wall_s,
        pass.status,
        pass.maxrss_kib,
        reference_s,
        warmup,
        snids::obs::json::escape(text.trim_end())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_a_child_and_reports_its_exit_and_output() {
        let argv = ["/bin/sh", "-c", "printf \"$X\"; exit 3"].map(String::from);
        let pass = run(&argv, &[("X".into(), "hi".into())]).unwrap();
        assert_eq!(pass.status, 3);
        assert_eq!(pass.stdout, b"hi");
        assert!(pass.wall_s > 0.0);
        assert!(pass.maxrss_kib > 0);
    }

    #[test]
    fn the_child_environment_is_cleared() {
        let argv = ["/bin/sh", "-c", "printf \"${HOME:-unset}\""].map(String::from);
        assert_eq!(run(&argv, &[]).unwrap().stdout, b"unset");
    }
}
