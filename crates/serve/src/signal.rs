//! SIGTERM/SIGINT → a process-global shutdown flag, with no dependency
//! on a libc crate: the handler is installed through a two-symbol
//! `signal(2)` FFI declaration, isolated to this module (the rest of
//! the workspace keeps `forbid(unsafe_code)`).
//!
//! The handler only stores into an `AtomicBool` — async-signal-safe by
//! construction. A watcher thread in `Server::run` polls
//! [`shutdown_requested`] and wakes the blocking accept loop; nothing
//! else ever needs to know a signal existed.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has been received (or [`request_shutdown`]
/// called).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Sets the shutdown flag by hand — the programmatic twin of a signal,
/// used by tests and by in-process shutdown handles.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears the flag (tests only; a real daemon shuts down once).
#[doc(hidden)]
pub fn reset_for_testing() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Installs the flag-setting handler for SIGINT and SIGTERM. A no-op
/// off Unix.
pub fn install() {
    #[cfg(unix)]
    sys::install();
}

#[cfg(unix)]
mod sys {
    #![allow(unsafe_code)]

    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the POSIX libc symbol (always linked by
        // std on Unix); the handler performs a single atomic store,
        // which is async-signal-safe per POSIX.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        reset_for_testing();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset_for_testing();
        assert!(!shutdown_requested());
    }
}
