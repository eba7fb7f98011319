//! A minimal readiness-polling abstraction over the OS selector.
//!
//! `samplecfd`'s event loop needs exactly four operations — register a
//! socket for read/write interest, modify that interest, deregister, and
//! block until something is ready — and the repo's no-new-runtime-deps
//! rule says std only.  std does not expose the selector, but every Rust
//! binary already links the platform libc, so this module declares the
//! handful of syscall wrappers it needs directly:
//!
//! * **Linux** — `epoll` (level-triggered), the production path.
//! * **other unix** — `kqueue`, same level-triggered semantics.
//! * **anywhere else** — a degraded portable fallback that reports every
//!   registered token ready after a short sleep; correct (the event loop
//!   tolerates spurious readiness — nonblocking reads return
//!   `WouldBlock`), just not efficient.
//!
//! Level-triggered is a deliberate choice: a byte written to the
//! [`Waker`]'s pipe *stays* readable until drained, so a wake issued
//! between a drain and the next [`Poller::wait`] is never lost, and the
//! event loop never needs edge-triggered re-arm bookkeeping.
//!
//! All registrations carry a caller-chosen `token` (returned in
//! [`Event`]); tokens `>= WAKE_TOKEN` are reserved for the internal waker.

use std::io;
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

/// Anything the poller can watch.  On unix this is "has a file
/// descriptor"; the portable fallback ignores the source entirely and
/// works from tokens alone.
#[cfg(unix)]
pub trait PollSource: std::os::fd::AsRawFd {}
#[cfg(unix)]
impl<T: std::os::fd::AsRawFd> PollSource for T {}

/// Anything the poller can watch (portable fallback: tokens only).
#[cfg(not(unix))]
pub trait PollSource {}
#[cfg(not(unix))]
impl<T> PollSource for T {}

/// A cloneable handle that interrupts a blocked [`Poller::wait`] from any
/// thread — how worker threads tell the event loop "a response is ready".
#[derive(Clone)]
pub struct Waker {
    inner: sys::WakerImpl,
}

impl Waker {
    /// Interrupt the poller.  Cheap, non-blocking, safe to call
    /// repeatedly; redundant wakes coalesce.
    pub fn wake(&self) {
        self.inner.wake();
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Waker")
    }
}

/// The selector: owns the OS handle and the waker pair.
pub struct Poller {
    sys: sys::Selector,
}

impl Poller {
    /// A fresh selector with its waker already registered.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            sys: sys::Selector::new()?,
        })
    }

    /// A handle that can interrupt [`wait`](Self::wait) from other threads.
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker {
            inner: self.sys.waker(),
        }
    }

    /// Start watching `source` under `token`.
    pub fn register(
        &self,
        source: &impl PollSource,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        debug_assert!(token < WAKE_TOKEN, "token {token} is reserved");
        self.sys.register(source, token, interest)
    }

    /// Change the interest of an already-registered `source`.
    pub fn modify(
        &self,
        source: &impl PollSource,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        self.sys.modify(source, token, interest)
    }

    /// Stop watching `source`.  Must be called before the socket is
    /// dropped on the kqueue/fallback paths (epoll forgets closed fds on
    /// its own, but the loop deregisters everywhere for uniformity).
    pub fn deregister(&self, source: &impl PollSource, token: usize) -> io::Result<()> {
        self.sys.deregister(source, token)
    }

    /// Block until at least one registered socket is ready, the timeout
    /// elapses, or a [`Waker`] fires.  Readiness lands in `events`
    /// (cleared first); returns `true` if a wake was consumed.  Spurious
    /// returns with zero events are allowed and harmless.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
        events.clear();
        self.sys.wait(events, timeout)
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Poller")
    }
}

// ---------------------------------------------------------------------------
// Linux: epoll via raw libc declarations.
// ---------------------------------------------------------------------------
#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest, PollSource, WAKE_TOKEN};
    use std::ffi::c_int;
    use std::io::{self, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    // The kernel ABI: matches <sys/epoll.h>.  The struct is packed on
    // x86 so 32- and 64-bit userlands share one layout.
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
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
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

    #[derive(Clone)]
    pub struct WakerImpl {
        tx: Arc<UnixStream>,
    }

    impl WakerImpl {
        pub fn wake(&self) {
            // WouldBlock means a wake is already pending — exactly what we
            // want; any other failure is unrecoverable and ignorable.
            let _ = (&*self.tx).write(&[1u8]);
        }
    }

    pub struct Selector {
        epfd: c_int,
        wake_tx: Arc<UnixStream>,
        wake_rx: UnixStream,
        buf: Vec<EpollEvent>,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let selector = |epfd| -> io::Result<Selector> {
                let (wake_tx, wake_rx) = UnixStream::pair()?;
                wake_tx.set_nonblocking(true)?;
                wake_rx.set_nonblocking(true)?;
                let s = Selector {
                    epfd,
                    wake_tx: Arc::new(wake_tx),
                    wake_rx,
                    buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
                };
                s.ctl(EPOLL_CTL_ADD, s.wake_rx.as_raw_fd(), WAKE_TOKEN, EPOLLIN)?;
                Ok(s)
            };
            selector(epfd).inspect_err(|_| {
                unsafe { close(epfd) };
            })
        }

        fn ctl(&self, op: c_int, fd: c_int, token: usize, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token as u64,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &raw mut ev) }).map(|_| ())
        }

        pub fn waker(&self) -> WakerImpl {
            WakerImpl {
                tx: Arc::clone(&self.wake_tx),
            }
        }

        pub fn register(
            &self,
            source: &impl PollSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), token, mask(interest))
        }

        pub fn modify(
            &self,
            source: &impl PollSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), token, mask(interest))
        }

        pub fn deregister(&self, source: &impl PollSource, _token: usize) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, source.as_raw_fd(), 0, 0)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<bool> {
            #[allow(clippy::cast_possible_truncation)]
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
            };
            let n = loop {
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

    impl Drop for Selector {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------------
// Other unix (macOS, BSDs): kqueue.
// ---------------------------------------------------------------------------
#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Event, Interest, PollSource, WAKE_TOKEN};
    use std::collections::HashMap;
    use std::ffi::{c_int, c_long, c_void};
    use std::io::{self, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct KEvent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: *mut c_void,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x1;
    const EV_DELETE: u16 = 0x2;
    const EV_EOF: u16 = 0x8000;
    const EV_ERROR: u16 = 0x4000;

    extern "C" {
        fn kqueue() -> c_int;
        fn kevent(
            kq: c_int,
            changelist: *const KEvent,
            nchanges: c_int,
            eventlist: *mut KEvent,
            nevents: c_int,
            timeout: *const Timespec,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    #[derive(Clone)]
    pub struct WakerImpl {
        tx: Arc<UnixStream>,
    }

    impl WakerImpl {
        pub fn wake(&self) {
            let _ = (&*self.tx).write(&[1u8]);
        }
    }

    pub struct Selector {
        kq: c_int,
        wake_tx: Arc<UnixStream>,
        wake_rx: UnixStream,
        buf: Vec<KEvent>,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            let kq = cvt(unsafe { kqueue() })?;
            let build = |kq| -> io::Result<Selector> {
                let (wake_tx, wake_rx) = UnixStream::pair()?;
                wake_tx.set_nonblocking(true)?;
                wake_rx.set_nonblocking(true)?;
                let s = Selector {
                    kq,
                    wake_tx: Arc::new(wake_tx),
                    wake_rx,
                    buf: vec![
                        KEvent {
                            ident: 0,
                            filter: 0,
                            flags: 0,
                            fflags: 0,
                            data: 0,
                            udata: std::ptr::null_mut(),
                        };
                        1024
                    ],
                };
                s.change(s.wake_rx.as_raw_fd(), EVFILT_READ, EV_ADD, WAKE_TOKEN)?;
                Ok(s)
            };
            build(kq).inspect_err(|_| {
                unsafe { close(kq) };
            })
        }

        fn change(&self, fd: c_int, filter: i16, flags: u16, token: usize) -> io::Result<()> {
            let change = KEvent {
                ident: fd as usize,
                filter,
                flags,
                fflags: 0,
                data: 0,
                udata: token as *mut c_void,
            };
            match cvt(unsafe {
                kevent(
                    self.kq,
                    &raw const change,
                    1,
                    std::ptr::null_mut(),
                    0,
                    std::ptr::null(),
                )
            }) {
                Ok(_) => Ok(()),
                // Deleting a filter that was never added is fine.
                Err(e) if flags == EV_DELETE && e.raw_os_error() == Some(2) => Ok(()),
                Err(e) => Err(e),
            }
        }

        fn apply(&self, fd: c_int, token: usize, interest: Interest) -> io::Result<()> {
            if interest.readable {
                self.change(fd, EVFILT_READ, EV_ADD, token)?;
            } else {
                self.change(fd, EVFILT_READ, EV_DELETE, token)?;
            }
            if interest.writable {
                self.change(fd, EVFILT_WRITE, EV_ADD, token)?;
            } else {
                self.change(fd, EVFILT_WRITE, EV_DELETE, token)?;
            }
            Ok(())
        }

        pub fn waker(&self) -> WakerImpl {
            WakerImpl {
                tx: Arc::clone(&self.wake_tx),
            }
        }

        pub fn register(
            &self,
            source: &impl PollSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.apply(source.as_raw_fd(), token, interest)
        }

        pub fn modify(
            &self,
            source: &impl PollSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.apply(source.as_raw_fd(), token, interest)
        }

        pub fn deregister(&self, source: &impl PollSource, _token: usize) -> io::Result<()> {
            let fd = source.as_raw_fd();
            self.change(fd, EVFILT_READ, EV_DELETE, 0)?;
            self.change(fd, EVFILT_WRITE, EV_DELETE, 0)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<bool> {
            let ts = timeout.map(|d| Timespec {
                tv_sec: c_long::try_from(d.as_secs()).unwrap_or(c_long::MAX),
                tv_nsec: c_long::from(d.subsec_nanos()),
            });
            let n = loop {
                #[allow(clippy::cast_possible_truncation)]
                let ret = unsafe {
                    kevent(
                        self.kq,
                        std::ptr::null(),
                        0,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        ts.as_ref().map_or(std::ptr::null(), |t| &raw const *t),
                    )
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            // kqueue reports read and write filters as separate events;
            // merge them per token so callers see one Event per socket.
            let mut merged: HashMap<usize, Event> = HashMap::new();
            let mut woken = false;
            for raw in &self.buf[..n] {
                let token = raw.udata as usize;
                if token == WAKE_TOKEN {
                    woken = true;
                    let mut sink = [0u8; 64];
                    while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                    continue;
                }
                let entry = merged.entry(token).or_insert(Event {
                    token,
                    readable: false,
                    writable: false,
                    closed: false,
                });
                entry.readable |= raw.filter == EVFILT_READ;
                entry.writable |= raw.filter == EVFILT_WRITE;
                entry.closed |= raw.flags & (EV_EOF | EV_ERROR) != 0;
            }
            events.extend(merged.into_values());
            Ok(woken)
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            unsafe { close(self.kq) };
        }
    }
}

// ---------------------------------------------------------------------------
// Everything else: a degraded but correct fallback — every registered
// token is reported ready after a short sleep; spurious readiness is the
// price of portability.
// ---------------------------------------------------------------------------
#[cfg(not(unix))]
mod sys {
    use super::{Event, Interest, PollSource};
    use std::collections::HashMap;
    use std::io;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    #[derive(Default)]
    struct Shared {
        registered: Mutex<(HashMap<usize, Interest>, bool)>,
        bell: Condvar,
    }

    #[derive(Clone)]
    pub struct WakerImpl {
        shared: Arc<Shared>,
    }

    impl WakerImpl {
        pub fn wake(&self) {
            let mut guard = self
                .shared
                .registered
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.1 = true;
            drop(guard);
            self.shared.bell.notify_all();
        }
    }

    pub struct Selector {
        shared: Arc<Shared>,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            Ok(Selector {
                shared: Arc::default(),
            })
        }

        pub fn waker(&self) -> WakerImpl {
            WakerImpl {
                shared: Arc::clone(&self.shared),
            }
        }

        fn table(&self) -> std::sync::MutexGuard<'_, (HashMap<usize, Interest>, bool)> {
            self.shared
                .registered
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        pub fn register(
            &self,
            _source: &impl PollSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.table().0.insert(token, interest);
            Ok(())
        }

        pub fn modify(
            &self,
            _source: &impl PollSource,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.table().0.insert(token, interest);
            Ok(())
        }

        pub fn deregister(&self, _source: &impl PollSource, token: usize) -> io::Result<()> {
            self.table().0.remove(&token);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<bool> {
            // Pace the busy loop: a short nap bounds CPU burn while the
            // condvar lets a waker cut it short.
            let nap = timeout
                .unwrap_or(Duration::from_millis(2))
                .min(Duration::from_millis(2));
            let guard = self.table();
            let (mut guard, _) = self
                .shared
                .bell
                .wait_timeout(guard, nap)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let woken = std::mem::take(&mut guard.1);
            for (&token, &interest) in &guard.0 {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                    closed: false,
                });
            }
            Ok(woken)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    const T_LISTENER: usize = 100;
    const T_CLIENT: usize = 101;

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
        let server: TcpStream = 'accept: loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .unwrap();
            for _event in &events {
                if let Ok((stream, _)) = listener.accept() {
                    break 'accept stream;
                }
            }
        };
        server.set_nonblocking(true).unwrap();
        poller.register(&server, T_CLIENT, Interest::READ).unwrap();

        // Nothing to read yet: a bounded wait must come back without a
        // readable event for the client token.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();

        (&client).write_all(b"ping").unwrap();
        let mut saw_readable = false;
        for _ in 0..100 {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == T_CLIENT && e.readable) {
                let mut buf = [0u8; 16];
                // Fallback readiness may be spurious; only count a read
                // that yields bytes.
                if matches!((&server).read(&mut buf), Ok(n) if n == 4) {
                    saw_readable = true;
                    break;
                }
            }
        }
        assert!(saw_readable, "poller never reported the written bytes");

        // Write interest on a fresh socket reports writable immediately.
        let both = Interest {
            readable: true,
            writable: true,
        };
        poller.modify(&server, T_CLIENT, both).unwrap();
        let mut saw_writable = false;
        for _ in 0..100 {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == T_CLIENT && e.writable) {
                saw_writable = true;
                break;
            }
        }
        assert!(saw_writable);
        poller.deregister(&server, T_CLIENT).unwrap();
        poller.deregister(&listener, T_LISTENER).unwrap();
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
