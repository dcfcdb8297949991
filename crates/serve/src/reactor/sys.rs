//! Raw `epoll` / `eventfd` syscalls for the event-loop frontend.
//!
//! The workspace has a zero-external-dependency policy, so there is no
//! `libc` crate to lean on; the four syscalls the reactor needs go
//! through `egemm`'s raw-syscall shim on x86-64 Linux (the platform this
//! repo targets and tests on; see the `cfg` gate in `reactor/mod.rs` —
//! other platforms get a stub frontend that reports `Unsupported`).
//!
//! Everything here mirrors the kernel ABI, not glibc: numbers from
//! `arch/x86/entry/syscalls/syscall_64.tbl` and the packed 12-byte
//! `epoll_event` layout x86-64 uses.

use egemm::syscall6;
use std::io;

// x86-64 syscall numbers.
const SYS_EPOLL_WAIT: i64 = 232;
const SYS_EPOLL_CTL: i64 = 233;
const SYS_EVENTFD2: i64 = 290;
const SYS_EPOLL_CREATE1: i64 = 291;

// epoll_create1 / eventfd2 flags.
const EPOLL_CLOEXEC: i64 = 0o2000000;
const EFD_CLOEXEC: i64 = 0o2000000;
const EFD_NONBLOCK: i64 = 0o4000;

// epoll_ctl ops.
pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

// Event masks.
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;

/// The x86-64 kernel ABI's `struct epoll_event`: packed, 12 bytes
/// (other architectures pad `data` to an 8-byte boundary; x86-64
/// deliberately does not, for 32-bit compat).
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    /// Caller-owned cookie returned verbatim with each event; the
    /// reactor stores its connection id here.
    pub data: u64,
}

/// `epoll_create1(EPOLL_CLOEXEC)` — a new epoll instance fd.
pub fn epoll_create() -> io::Result<i32> {
    // SAFETY: epoll_create1 takes one flags word and no pointers; it
    // touches no memory of this process.
    unsafe { syscall6(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) }.map(|fd| fd as i32)
}

/// `epoll_ctl(epfd, op, fd, event)` — add/modify/remove one fd's
/// registration. `events` is ignored for `EPOLL_CTL_DEL`.
pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
    let ev = EpollEvent { events, data };
    // SAFETY: the kernel only reads the one 12-byte `epoll_event` the
    // pointer names, and `ev` lives on this frame until the call returns.
    unsafe {
        syscall6(
            SYS_EPOLL_CTL,
            epfd as i64,
            op as i64,
            fd as i64,
            std::ptr::addr_of!(ev) as i64,
            0,
            0,
        )
    }
    .map(|_| ())
}

/// `epoll_wait(epfd, buf, buf.len(), timeout_ms)` — block for up to
/// `timeout_ms` (−1 = forever), returning how many events landed in
/// `buf`. `EINTR` is retried here so callers never see it.
pub fn epoll_wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: the kernel writes at most `buf.len()` events through
        // the pointer, and `buf` is exclusively borrowed for the call.
        let ret = unsafe {
            syscall6(
                SYS_EPOLL_WAIT,
                epfd as i64,
                buf.as_mut_ptr() as i64,
                buf.len() as i64,
                timeout_ms as i64,
                0,
                0,
            )
        };
        match ret {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// `eventfd2(0, EFD_NONBLOCK | EFD_CLOEXEC)` — the reactor's wakeup
/// channel: any thread writes an 8-byte count to unblock `epoll_wait`.
pub fn eventfd() -> io::Result<i32> {
    // SAFETY: eventfd2 takes an initial count and flags, no pointers; it
    // touches no memory of this process.
    unsafe { syscall6(SYS_EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0, 0, 0) }.map(|fd| fd as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::FromRawFd;

    #[test]
    fn epoll_event_layout_matches_kernel_abi() {
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12, "x86-64 packed");
    }

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = epoll_create().expect("epoll_create1");
        let efd = eventfd().expect("eventfd2");
        epoll_ctl(ep, EPOLL_CTL_ADD, efd, EPOLLIN, 7).expect("ctl add");

        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing written yet: a zero-timeout wait reports no events.
        assert_eq!(epoll_wait(ep, &mut buf, 0).unwrap(), 0);

        // SAFETY: we own both fds; File takes over closing them.
        let mut ef = unsafe { std::fs::File::from_raw_fd(efd) };
        ef.write_all(&1u64.to_ne_bytes()).unwrap();
        assert_eq!(epoll_wait(ep, &mut buf, 1000).unwrap(), 1);
        let (data, events) = (buf[0].data, buf[0].events);
        assert_eq!(data, 7, "cookie returned verbatim");
        assert_ne!(events & EPOLLIN, 0);

        // Draining the counter rearms the level-triggered fd.
        let mut count = [0u8; 8];
        ef.read_exact(&mut count).unwrap();
        assert_eq!(u64::from_ne_bytes(count), 1);
        assert_eq!(epoll_wait(ep, &mut buf, 0).unwrap(), 0);

        epoll_ctl(ep, EPOLL_CTL_DEL, efd, 0, 0).unwrap();
        // SAFETY: this test owns `ep` and nothing else closes it.
        drop(unsafe { std::fs::File::from_raw_fd(ep) });
    }
}
