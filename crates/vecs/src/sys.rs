//! The raw-syscall shim the workspace's OS-facing code shares: the
//! [`crate::store`] memory maps and `ddc-server`'s epoll reactor. Written
//! against the Linux kernel ABI directly so no `libc` crate is needed
//! (the build environment has no registry access; see
//! `compat/README.md`). Present on Linux x86_64 and aarch64 only; callers
//! carry a fallback for every other target.

use std::io;

/// Issues raw syscall `nr` with up to six arguments (unused ones 0) and
/// returns the kernel's raw result: a value, or `-errno` — pass it
/// through [`check`].
///
/// # Safety
/// The arguments must be valid for syscall `nr`: every pointer among
/// them must be live and sized as that syscall reads or writes it, and
/// every fd or mapping it releases must be owned by the caller.
pub unsafe fn syscall6(
    nr: usize,
    a: usize,
    b: usize,
    c: usize,
    d: usize,
    e: usize,
    f: usize,
) -> isize {
    let ret: isize;
    #[cfg(target_arch = "x86_64")]
    std::arch::asm!(
        "syscall",
        inlateout("rax") nr as isize => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    #[cfg(target_arch = "aarch64")]
    std::arch::asm!(
        "svc #0",
        in("x8") nr,
        inlateout("x0") a => ret,
        in("x1") b,
        in("x2") c,
        in("x3") d,
        in("x4") e,
        in("x5") f,
        options(nostack)
    );
    ret
}

/// A raw syscall result as `io::Result`: `-4095..0` is `-errno`.
pub fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}
