//! Kernel readiness for the reactor: `epoll` plus an `eventfd` waker,
//! through four `extern "C"` declarations (std-only — no `libc` crate is
//! vendored). [`Poller::poll`] is the reactor's one blocking call, and this
//! file holds the crate's only `unsafe`.
//!
//! Linux-only by design: a portable second reactor would be a twin to keep
//! in step, so other targets fail to compile with the reason instead. The
//! flag values are the generic Linux ones; MIPS and SPARC number
//! `O_NONBLOCK` / `O_CLOEXEC` differently and would get `EINVAL` from `new`.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "vaq-service's reactor blocks in epoll_wait and is woken through an eventfd, both \
     Linux system calls; there is deliberately no second, portable reactor to fall back on"
);

use std::ffi::{c_int, c_uint};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut Event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut Event, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

const CLOEXEC: c_int = 0o2_000_000; // EPOLL_CLOEXEC == EFD_CLOEXEC == O_CLOEXEC
const EFD_NONBLOCK: c_int = 0o4_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLEXCLUSIVE: u32 = 1 << 28;
const EPOLLET: u32 = 1 << 31;

/// Interest in readability, level-triggered: every `poll` reports it until
/// the readiness is consumed (the waker, until [`Waker::drain`]).
pub(crate) const LEVEL: u32 = EPOLLIN;
/// Interest in readable, writable or closed by the peer, edge-triggered:
/// reported at registration and then once per change, so the owner must
/// read or write until `WouldBlock` (every connection).
pub(crate) const EDGE: u32 = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
/// Interest in a listener that several pollers share: readable,
/// edge-triggered (the owner accepts until `WouldBlock`) and exclusive, so
/// an arrival wakes one blocked poller instead of every one of them — the
/// first blocked one in registration order (see [`Poller::requeue`]). The
/// kernel refuses `EPOLLRDHUP` beside `EPOLLEXCLUSIVE`, hence not [`EDGE`].
pub(crate) const ACCEPT: u32 = EPOLLIN | EPOLLET | EPOLLEXCLUSIVE;

/// One readiness report: the kernel's `struct epoll_event`, which is packed
/// on x86-64 only (12 bytes there, 16 elsewhere) — a wrong layout makes
/// every token past the first garbage.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub(crate) struct Event {
    #[allow(dead_code)] // read and written by the kernel only
    events: u32,
    token: u64,
}

impl Event {
    /// The token the ready descriptor was registered under.
    pub(crate) fn token(&self) -> u64 {
        self.token
    }
}

/// Wraps a descriptor-returning system call's result.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: a non-negative result of `epoll_create1` / `eventfd` is a
    // descriptor the kernel just opened and that nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// An epoll instance; closing a registered descriptor deregisters it.
#[derive(Debug)]
pub(crate) struct Poller(OwnedFd);

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: no pointer arguments; `owned` checks the result.
        owned(unsafe { epoll_create1(CLOEXEC) }).map(Poller)
    }

    /// Registers `fd` under `token` for the life of the descriptor.
    pub(crate) fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut event = Event {
            events: interest,
            token,
        };
        // SAFETY: `event` is a live, correctly laid out `epoll_event` the
        // kernel copies before returning; a bad `fd` is an `EBADF` error.
        match unsafe { epoll_ctl(self.0.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Registers `fd` afresh, which moves this poller to the back of `fd`'s
    /// wake order. Under [`ACCEPT`] the kernel wakes the first blocked
    /// poller in that order, so pollers that requeue after each accept pass
    /// take idle-time arrivals in turn instead of the first one taking all.
    /// Like [`Poller::add`], this reports `fd`'s current readiness.
    pub(crate) fn requeue(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        // Removal ignores the event, but kernels before 2.6.9 want it.
        let mut unused = Event::default();
        // SAFETY: as in `add`.
        match unsafe { epoll_ctl(self.0.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut unused) } {
            0 => self.add(fd, token, interest),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Blocks until a registered descriptor is ready or `timeout` (rounded
    /// *up* to whole milliseconds; `None` = no limit) passes, and returns
    /// how many of `events` were filled. An interrupted call reads as zero
    /// events: the caller recomputes its timeout and polls again.
    pub(crate) fn poll(&self, events: &mut [Event], timeout: Option<Duration>) -> usize {
        let millis = timeout.map_or(-1, |t| {
            c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        });
        let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        // SAFETY: `events` is valid for writes of `capacity` entries, and
        // the kernel writes at most that many.
        let ready =
            unsafe { epoll_wait(self.0.as_raw_fd(), events.as_mut_ptr(), capacity, millis) };
        usize::try_from(ready).unwrap_or(0)
    }
}

/// Wakes a blocked [`Poller::poll`] from any thread: a non-blocking eventfd
/// registered [`LEVEL`], so a wake is never lost between the
/// reactor's last look at its channels and its next `poll`.
#[derive(Debug)]
pub(crate) struct Waker(File);

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        // SAFETY: no pointer arguments; `owned` checks the result.
        owned(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) }).map(|fd| Waker(fd.into()))
    }

    /// The descriptor to register with the poller.
    pub(crate) fn fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }

    /// Makes the eventfd readable. The only possible failure is a counter
    /// about to overflow, which already means "readable".
    pub(crate) fn wake(&self) {
        let _ = (&self.0).write(&1u64.to_ne_bytes());
    }

    /// Consumes every wake so far; `WouldBlock` means there was none.
    pub(crate) fn drain(&self) {
        let _ = (&self.0).read(&mut [0u8; 8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    const SOON: Option<Duration> = Some(Duration::from_millis(30));

    /// A poller, an event buffer and a connected localhost pair.
    fn fixture() -> (Poller, [Event; 4], TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (socket, _) = listener.accept().unwrap();
        (Poller::new().unwrap(), [Event::default(); 4], socket, peer)
    }

    #[test]
    fn event_has_the_kernel_layout() {
        let packed = cfg!(any(target_arch = "x86_64", target_arch = "x86"));
        assert_eq!(std::mem::size_of::<Event>(), if packed { 12 } else { 16 });
    }

    #[test]
    fn a_token_round_trips_and_registration_reports_current_readiness() {
        let (poller, mut events, socket, _peer) = fixture();
        let token = 0xFEED_0000_0000_0001;
        poller.add(socket.as_raw_fd(), token, EDGE).unwrap();
        // A fresh socket is writable: registering it is enough for an event.
        assert_eq!(poller.poll(&mut events, None), 1);
        assert_eq!(events[0].token(), token);
        // Edge-triggered: nothing changed since, so nothing is reported.
        assert_eq!(poller.poll(&mut events, Some(Duration::ZERO)), 0);
    }

    #[test]
    fn a_timeout_rounds_up_and_zero_returns_at_once() {
        let (poller, mut events, ..) = fixture();
        let asked = Duration::from_micros(29_500);
        let started = Instant::now();
        assert_eq!(poller.poll(&mut events, Some(asked)), 0);
        assert!(
            started.elapsed() >= asked,
            "woke early: a deadline would be missed"
        );
        let started = Instant::now();
        assert_eq!(poller.poll(&mut events, Some(Duration::ZERO)), 0);
        assert!(started.elapsed() < asked);
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_blocked_poll_until_drained() {
        let (poller, mut events, ..) = fixture();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), 7, LEVEL).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| waker.wake());
            assert_eq!(poller.poll(&mut events, None), 1);
        });
        assert_eq!(events[0].token(), 7);
        assert_eq!(poller.poll(&mut events, None), 1, "level-triggered");
        waker.drain();
        assert_eq!(poller.poll(&mut events, SOON), 0, "drained: blocks again");
    }

    #[test]
    fn ten_thousand_undrained_wakes_neither_block_nor_error() {
        let waker = Waker::new().unwrap();
        (0..10_000).for_each(|_| waker.wake());
        let mut count = [0u8; 8];
        assert_eq!((&waker.0).read(&mut count).unwrap(), 8);
        assert_eq!(u64::from_ne_bytes(count), 10_000, "a wake failed");
        waker.drain(); // empty now: must not block either
    }

    #[test]
    fn a_shared_listener_wakes_blocked_pollers_in_turn_when_they_requeue() {
        // Two threads block in their own poller on one listener. Each
        // arrival wakes one of them; it accepts, requeues, reports and
        // blocks again, and the next arrival wakes the other.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let (woke, report) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for id in 0..2u64 {
                let poller = Poller::new().unwrap();
                poller.add(listener.as_raw_fd(), id, ACCEPT).unwrap();
                let (listener, woke) = (&listener, woke.clone());
                scope.spawn(move || {
                    let mut events = [Event::default(); 4];
                    let mut accepted = Vec::new();
                    while poller.poll(&mut events, Some(Duration::from_millis(500))) > 0 {
                        while let Ok((stream, _)) = listener.accept() {
                            accepted.push(stream);
                            woke.send(id).unwrap();
                        }
                        poller.requeue(listener.as_raw_fd(), id, ACCEPT).unwrap();
                    }
                });
            }
            let mut peers = Vec::new();
            let mut order = Vec::new();
            for _ in 0..6 {
                // Let the last waker get back into its `poll` first.
                std::thread::sleep(Duration::from_millis(20));
                peers.push(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
                order.push(report.recv().unwrap());
            }
            assert!(order.windows(2).all(|w| w[0] != w[1]), "{order:?}");
        });
    }

    #[test]
    fn dropping_a_registered_socket_removes_it() {
        let (poller, mut events, socket, mut peer) = fixture();
        poller.add(socket.as_raw_fd(), 1, EDGE).unwrap();
        peer.write_all(b"x").unwrap();
        assert_eq!(poller.poll(&mut events, None), 1);
        drop(socket);
        let _ = peer.write_all(b"y");
        assert_eq!(poller.poll(&mut events, SOON), 0);
    }
}
