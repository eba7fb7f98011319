//! A minimal readiness poller over Linux `epoll`.
//!
//! `samplecfd`'s event loop needs exactly four operations — register a
//! socket for read/write interest, modify that interest, deregister, and
//! block until something is ready — and the repo's no-new-runtime-deps
//! rule says std only.  std does not expose `epoll`, but every Rust binary
//! already links libc, so this module declares the three syscall wrappers
//! it needs directly.  `epoll` is the only backend: the crate root refuses
//! to compile anywhere but Linux.
//!
//! Level-triggered is a deliberate choice: a byte written to the
//! [`Waker`]'s pipe *stays* readable until drained, so a wake issued
//! between a drain and the next [`Poller::wait`] is never lost, and the
//! event loop never needs edge-triggered re-arm bookkeeping.
//!
//! All registrations carry a caller-chosen `token` (returned in
//! [`Event`]); tokens `>= WAKE_TOKEN` are reserved for the internal waker.

use std::ffi::c_int;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// The token the internal waker registers under; user tokens must stay
/// below it (the event loop uses small slab indices, so this never bites
/// in practice).
const WAKE_TOKEN: usize = usize::MAX;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the socket is readable (or the peer closed).
    pub readable: bool,
    /// Wake when the socket accepts more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the socket was registered under.
    pub token: usize,
    /// Reading (or accepting) will make progress.
    pub readable: bool,
    /// Writing will make progress.  The event loop flushes a connection on
    /// any event it gets, so only this module's tests read the flag.
    #[cfg_attr(not(test), allow(dead_code))]
    pub writable: bool,
    /// The peer hung up or the socket is in an error state; the owner
    /// should read to EOF / observe the error and close.
    pub closed: bool,
}

// The kernel ABI: matches <sys/epoll.h>.  The struct is packed on x86 so
// 32- and 64-bit userlands share one layout.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}
#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn mask(interest: Interest) -> u32 {
    let mut mask = EPOLLRDHUP;
    if interest.readable {
        mask |= EPOLLIN;
    }
    if interest.writable {
        mask |= EPOLLOUT;
    }
    mask
}

/// A cloneable handle that interrupts a blocked [`Poller::wait`] from any
/// thread — how worker threads tell the event loop "a response is ready".
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Interrupt the poller.  Cheap, non-blocking, safe to call
    /// repeatedly; redundant wakes coalesce.
    pub fn wake(&self) {
        // WouldBlock means a wake is already pending — exactly what we
        // want; any other failure is unrecoverable and ignorable.
        let _ = (&*self.tx).write(&[1u8]);
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// The selector: owns the epoll fd, the waker pair and the event buffer.
pub struct Poller {
    epfd: c_int,
    wake_tx: Arc<UnixStream>,
    wake_rx: UnixStream,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// A fresh selector with its waker already registered.
    pub fn new() -> io::Result<Poller> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        // From here on `Drop` owns the epoll fd, error paths included.
        let poller = Poller {
            // SAFETY: takes no pointers; a failure is a negative return.
            epfd: cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?,
            wake_tx: Arc::new(wake_tx),
            wake_rx,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        };
        let wake_fd = poller.wake_rx.as_raw_fd();
        poller.ctl(EPOLL_CTL_ADD, wake_fd, WAKE_TOKEN, EPOLLIN)?;
        Ok(poller)
    }

    fn ctl(&self, op: c_int, fd: c_int, token: usize, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token as u64,
        };
        // SAFETY: `ev` is a live `epoll_event` for the whole call, and the
        // kernel only reads it.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &raw mut ev) }).map(|_| ())
    }

    /// A handle that can interrupt [`wait`](Self::wait) from other threads.
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker {
            tx: Arc::clone(&self.wake_tx),
        }
    }

    /// Start watching `source` under `token`.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        debug_assert!(token < WAKE_TOKEN, "token {token} is reserved");
        self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), token, mask(interest))
    }

    /// Change the interest of an already-registered `source`.
    pub fn modify(
        &self,
        source: &impl AsRawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), token, mask(interest))
    }

    /// Stop watching `source`.  The event loop calls this before it drops
    /// a socket: epoll forgets an fd on its own only once every duplicate
    /// of it is closed.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, source.as_raw_fd(), 0, 0)
    }

    /// Block until at least one registered socket is ready, the timeout
    /// elapses, or a [`Waker`] fires.  Readiness lands in `events`
    /// (cleared first); returns `true` if a wake was consumed.  Returns
    /// with zero events are allowed and harmless.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
        events.clear();
        #[allow(clippy::cast_possible_truncation)]
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
        };
        let n = loop {
            // SAFETY: `buf` holds `buf.len()` (1024, so the cast is exact)
            // initialised events, and the kernel writes at most that many.
            #[allow(clippy::cast_possible_truncation)]
            let ret = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            match cvt(ret) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        let mut woken = false;
        for raw in &self.buf[..n] {
            // Copy out of the (possibly packed) kernel struct before use.
            let (bits, data) = (raw.events, raw.data);
            let token = data as usize;
            if token == WAKE_TOKEN {
                woken = true;
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                continue;
            }
            events.push(Event {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(woken)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1`, only this poller holds
        // it, and this is the one place it is closed.
        unsafe { close(self.epfd) };
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Poller")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener, TcpStream};

    const T_LISTENER: usize = 100;
    const T_CLIENT: usize = 101;

    /// The first event for `token`, waiting up to ten seconds for it.
    fn next_event(poller: &mut Poller, events: &mut Vec<Event>, token: usize) -> Event {
        for _ in 0..100 {
            poller
                .wait(events, Some(Duration::from_millis(100)))
                .unwrap();
            if let Some(event) = events.iter().find(|e| e.token == token) {
                return *event;
            }
        }
        panic!("no event for token {token}");
    }

    #[test]
    fn readiness_round_trip_over_a_real_socket() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(&listener, T_LISTENER, Interest::READ)
            .unwrap();

        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        assert!(next_event(&mut poller, &mut events, T_LISTENER).readable);
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.register(&server, T_CLIENT, Interest::READ).unwrap();

        // Nothing to read yet: a bounded wait comes back without an event
        // for the client token.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token == T_CLIENT), "{events:?}");

        // Readiness is never spurious: the first readable event reads the
        // written bytes.
        (&client).write_all(b"ping").unwrap();
        assert!(next_event(&mut poller, &mut events, T_CLIENT).readable);
        let mut buf = [0u8; 16];
        assert_eq!((&server).read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");

        // Write interest on a fresh socket reports writable immediately.
        let both = Interest {
            readable: true,
            writable: true,
        };
        poller.modify(&server, T_CLIENT, both).unwrap();
        assert!(next_event(&mut poller, &mut events, T_CLIENT).writable);

        // A deregistered socket is silent, whatever its peer sends ...
        poller.deregister(&server).unwrap();
        (&client).write_all(b"pong").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token == T_CLIENT), "{events:?}");
        // ... and level-triggered: registering it again reports the bytes
        // that arrived meanwhile.
        poller.register(&server, T_CLIENT, Interest::READ).unwrap();
        assert!(next_event(&mut poller, &mut events, T_CLIENT).readable);
        assert_eq!((&server).read(&mut buf).unwrap(), 4);

        // The peer's FIN is `closed` (EPOLLRDHUP), and the read sees EOF.
        client.shutdown(Shutdown::Write).unwrap();
        let hangup = next_event(&mut poller, &mut events, T_CLIENT);
        assert!(hangup.closed && hangup.readable, "{hangup:?}");
        assert_eq!((&server).read(&mut buf).unwrap(), 0);

        poller.deregister(&server).unwrap();
        poller.deregister(&listener).unwrap();
    }

    #[test]
    fn a_waker_interrupts_a_long_wait_from_another_thread() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let started = std::time::Instant::now();
        let mut woken = false;
        // The wake may race the first wait; poll a few times.
        for _ in 0..10 {
            if poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap()
            {
                woken = true;
                break;
            }
        }
        assert!(woken, "wake never observed");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wait ran to its full timeout despite the wake"
        );

        // A wake issued while nobody is waiting is not lost (level
        // triggered): the next wait consumes it immediately.
        let waker = poller.waker();
        waker.wake();
        let mut woken_late = false;
        for _ in 0..10 {
            if poller
                .wait(&mut events, Some(Duration::from_millis(200)))
                .unwrap()
            {
                woken_late = true;
                break;
            }
        }
        assert!(woken_late, "pre-issued wake was lost");
        handle.join().unwrap();
    }
}
